//! Distributed execution (§4): shards, the computation-tree rewrite, and
//! the primary/replica scheme riding out stragglers — injected as seeded
//! chaos delays, raced for real by the hedged replica path.
//!
//! ```bash
//! cargo run --release --example distributed
//! ```

use powerdrill::data::{generate_logs, LogsSpec};
use powerdrill::dist::{ChaosModel, Cluster, ClusterConfig, DrillDownWorkload, WorkloadSpec};
use powerdrill::sql::{distributed_plan, parse_query};
use powerdrill::BuildOptions;
use std::time::Duration;

fn main() -> powerdrill::Result<()> {
    let rows = std::env::var("PD_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(200_000);
    println!("generating {rows} rows and building an 8-shard cluster ...");
    let table = generate_logs(&LogsSpec::scaled(rows));

    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = (rows / 8 / 60).clamp(200, 50_000);
    }
    let cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 8,
            build,
            // Each node stalls 5-40 ms on 5% of queries; replicas race the
            // stalled primaries once the hedge delay passes.
            chaos: ChaosModel {
                seed: 1,
                delay_probability: 0.05,
                delay_range: (Duration::from_millis(5), Duration::from_millis(40)),
                ..Default::default()
            },
            ..Default::default()
        },
    )?;

    // Show the paper's §4 SQL rewrite for a query.
    let sql =
        "SELECT country, SUM(latency) as s FROM logs GROUP BY country ORDER BY s DESC LIMIT 5";
    let plan = distributed_plan(&parse_query(sql)?)?;
    println!("\noriginal     : {sql}");
    println!("leaf query   : {}", plan.leaf);
    println!("two-level    : {}", plan.two_level_sql(2));

    let outcome = cluster.query(sql)?;
    println!("\n{}", outcome.result.render());
    println!(
        "measured end-to-end latency {:?} | slowest shard {:?} | fastest shard {:?} | \
         hedged shards {:?}",
        outcome.latency,
        outcome.subquery_latencies.iter().max().unwrap(),
        outcome.subquery_latencies.iter().min().unwrap(),
        outcome.hedges,
    );

    // A click's worth of drill-down queries, like the production workload.
    let workload = DrillDownWorkload::generate(
        &table,
        &WorkloadSpec { clicks: 3, queries_per_click: 5, ..Default::default() },
    )?;
    println!("\nreplaying {} queries from 3 UI clicks ...", workload.query_count());
    let mut total = powerdrill::ScanStats::default();
    for click in &workload.clicks {
        for q in &click.queries {
            total += &cluster.query(q)?.stats;
        }
    }
    println!(
        "rows: {:5.2}% skipped, {:5.2}% cached, {:5.2}% scanned",
        100.0 * total.skipped_fraction(),
        100.0 * total.cached_fraction(),
        100.0 * total.scanned_fraction()
    );
    Ok(())
}

//! Seeded property tests for the node result caches, over local links and
//! over a real spawned process tree (unix sockets) — the same tree code
//! either way. Every node of the §4 computation tree owns a result cache,
//! so repeated drill-down subqueries answer from the nearest cache with
//! zero child hops. The properties:
//!
//! 1. re-issuing an identical query hits the frontier nodes' caches and
//!    returns bit-identical results, with the hits observable in
//!    `QueryOutcome::worker_cache_hits`;
//! 2. an epoch bump (the distributed rebuild-invalidation signal) drops a
//!    node's cache, and a rebuild invalidates every cache in the tree — no
//!    stale partials, ever;
//! 3. capacity eviction can change `ScanStats`, never results.

use pd_common::rng::Rng;
use pd_common::{DataType, Row, Schema, Value};
use pd_core::{query, BuildOptions, DataStore};
use pd_data::{generate_logs, LogsSpec, Table};
use pd_dist::rpc::{Link, LoadRequest, QueryRequest, Request, Response};
use pd_dist::{Cluster, ClusterConfig, LocalNode, ReapGuard, RpcConfig, Transport, TreeShape};
use std::path::PathBuf;
use std::time::Duration;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_pd-dist-worker"))
}

/// Both links through the same tree code.
fn links() -> [(&'static str, Transport); 2] {
    let unix = Transport::Rpc(RpcConfig {
        worker_bin: Some(worker_bin()),
        budget: Duration::from_secs(30),
        ..Default::default()
    });
    [("local", Transport::InProcess), ("unix", unix)]
}

fn build_options() -> BuildOptions {
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 150;
    }
    build
}

fn cluster(
    table: &Table,
    shards: usize,
    fanout: usize,
    cache: usize,
    build: BuildOptions,
    transport: &Transport,
) -> Cluster {
    Cluster::build(
        table,
        &ClusterConfig {
            shards,
            replication: false,
            shard_cache: cache,
            build,
            tree: TreeShape { fanout },
            transport: transport.clone(),
            ..Default::default()
        },
    )
    .unwrap()
}

/// Width of the tree's frontier (the level the driver root queries):
/// leaves while they fit the fanout, else the top merge level.
fn frontier_width(shards: usize, fanout: usize) -> usize {
    let mut width = shards.max(1);
    while width > fanout.max(2) {
        width = width.div_ceil(fanout.max(2));
    }
    width
}

/// A random table: two string dimensions, an int and a float measure.
fn random_table(rng: &mut Rng, rows: usize) -> Table {
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("g", DataType::Str),
        ("n", DataType::Int),
        ("x", DataType::Float),
    ]);
    let mut table = Table::new(schema);
    for _ in 0..rows {
        table
            .push_row(Row(vec![
                Value::from(["red", "green", "blue", "grey"][rng.range_usize(0, 4)]),
                Value::from(format!("g{:02}", rng.range_usize(0, 10))),
                Value::Int(rng.range_i64_inclusive(-40, 40)),
                Value::Float(rng.range_i64_inclusive(-8, 8) as f64 * 0.25),
            ]))
            .unwrap();
    }
    table
}

/// A random drill-down-shaped query over that schema.
fn random_query(rng: &mut Rng) -> String {
    let key = *rng.pick(&["k", "g"]);
    let agg = *rng.pick(&[
        "COUNT(*) as c",
        "COUNT(*) as c, SUM(n) as s",
        "COUNT(*) as c, SUM(x) as s",
        "COUNT(*) as c, MIN(n) as mn, MAX(n) as mx",
    ]);
    let filter = match rng.range_usize(0, 4) {
        0 => String::new(),
        1 => " WHERE k = 'red'".to_owned(),
        2 => format!(" WHERE g = 'g{:02}'", rng.range_usize(0, 10)),
        _ => " WHERE n > 0".to_owned(),
    };
    format!("SELECT {key}, {agg} FROM data{filter} GROUP BY {key} ORDER BY c DESC LIMIT 10")
}

#[test]
fn identical_queries_hit_the_frontier_caches() {
    // 3 shards at fanout 2: the frontier is two merge servers, so warm
    // hits must come from the *mixers* — the topmost caches — and the
    // leaves beneath them must see no traffic at all (every row reported
    // as cached, nothing scanned).
    let table = generate_logs(&LogsSpec::scaled(900));
    let store = DataStore::build(&table, &build_options()).unwrap();
    let sql = "SELECT country, COUNT(*) c, SUM(latency) s FROM logs \
               GROUP BY country ORDER BY c DESC LIMIT 10";
    let (expect, _) = query(&store, sql).unwrap();
    for (link, transport) in links() {
        let cluster = cluster(&table, 3, 2, 64, build_options(), &transport);
        let cold = cluster.query(sql).unwrap();
        assert_eq!(cold.result, expect, "{link}");
        assert_eq!(cold.worker_cache_hits(), 0, "{link}: first execution computes everywhere");

        for repeat in 0..3 {
            let warm = cluster.query(sql).unwrap();
            assert_eq!(warm.result, expect, "{link} repeat {repeat}: hits are bit-identical");
            assert_eq!(
                warm.worker_cache_hits(),
                2,
                "{link} repeat {repeat}: both frontier mixers answer from cache"
            );
            assert_eq!(warm.stats.rows_cached, warm.stats.rows_total, "{link} repeat {repeat}");
            assert_eq!(warm.stats.rows_scanned, 0, "{link} repeat {repeat}: zero hops below");
        }

        // Presentation-only variations share the cached partials: the
        // signature excludes ORDER BY / LIMIT / HAVING.
        let limited = cluster
            .query(
                "SELECT country, COUNT(*) c, SUM(latency) s FROM logs \
                 GROUP BY country ORDER BY c DESC LIMIT 2",
            )
            .unwrap();
        assert_eq!(limited.worker_cache_hits(), 2, "{link}: LIMIT does not change the partial");
        assert_eq!(limited.result.rows.len(), 2);

        // A different restriction is a different signature: back to
        // computing.
        let other = cluster
            .query("SELECT country, COUNT(*) c FROM logs WHERE country = 'DE' GROUP BY country")
            .unwrap();
        assert_eq!(other.worker_cache_hits(), 0, "{link}: new restriction, new signature");
    }
}

#[test]
fn random_repeats_hit_every_frontier_node() {
    // Random tables, shard counts, fanouts and drill-down queries: every
    // repeat answers bit-identically to the single store, and every
    // frontier edge is served either by its node's cache or — when the
    // shard metadata proves it empty — by a prune that never sends the
    // query at all.
    for (link, transport) in links() {
        let mut rng = Rng::seed_from_u64(0x05ca_1e01);
        for case in 0..8 {
            let rows = rng.range_usize(40, 200);
            let table = random_table(&mut rng, rows);
            let shards = rng.range_usize(1, 5);
            let fanout = *rng.pick(&[2usize, 16]);
            let sql = random_query(&mut rng);
            let label = format!("{link} case {case} shards={shards} fanout={fanout}: {sql}");
            let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
            let (expect, _) = query(&store, &sql).unwrap();
            let cluster = cluster(&table, shards, fanout, 64, BuildOptions::basic(), &transport);
            let cold = cluster.query(&sql).unwrap();
            assert_eq!(cold.result, expect, "{label}");
            assert_eq!(cold.worker_cache_hits(), 0, "{label}: first execution computes");
            for repeat in 0..3 {
                let warm = cluster.query(&sql).unwrap();
                assert_eq!(warm.result, expect, "{label} repeat {repeat}");
                assert_eq!(
                    warm.worker_cache_hits() + warm.stats.subtrees_pruned,
                    frontier_width(shards, fanout),
                    "{label} repeat {repeat}: every frontier edge hits or prunes"
                );
                assert_eq!(warm.stats.rows_scanned, 0, "{label} repeat {repeat}");
                assert_eq!(
                    warm.stats.rows_cached + warm.stats.rows_skipped,
                    warm.stats.rows_total,
                    "{label} repeat {repeat}"
                );
                assert_eq!(warm.stats.disk_bytes, 0, "{label}: cached partials touch no disk");
            }
        }
    }
}

#[test]
fn epoch_bump_drops_a_node_cache() {
    // Straight at the protocol: one leaf node per link, queried with
    // explicit epochs. The cache serves repeats within an epoch and is
    // dropped the moment the epoch moves — the per-node form of rebuild
    // invalidation.
    let dir = std::env::temp_dir().join(format!("pd-epoch-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("w.sock");
    let worker = ReapGuard::new(
        std::process::Command::new(worker_bin()).arg("--socket").arg(&socket).spawn().unwrap(),
    );
    let local = LocalNode::spawn(&format!("pd-epoch-test-{}/l0p", std::process::id())).unwrap();
    let mut process_link = Link::new(pd_dist::rpc::Addr::Unix(socket), false);
    if let Link::Process(client) = &mut process_link {
        client.connect_with_retry(Duration::from_secs(30)).unwrap();
    }

    let table = generate_logs(&LogsSpec::scaled(400));
    let load = Request::Load(Box::new(LoadRequest {
        shard: 0,
        schema: table.schema().clone(),
        rows: table.iter_rows().collect(),
        build: BuildOptions::basic(),
        threads: 1,
        cache_budget: 1 << 20,
        cache_entries: 8,
        epoch: 5,
        name: "l0p".into(),
    }));
    let analyzed = pd_sql::analyze(
        &pd_sql::parse_query("SELECT country, COUNT(*) c FROM logs GROUP BY country").unwrap(),
    )
    .unwrap();
    for (name, mut link) in
        [("local", Link::new(local.addr().clone(), false)), ("unix", process_link)]
    {
        let loaded = link.call(&load, Duration::from_secs(60)).unwrap();
        assert!(matches!(loaded, Response::Loaded(_)), "{name}");
        let mut ask = |epoch: u64| {
            let request = Request::Query(Box::new(QueryRequest {
                query: analyzed.clone(),
                budget: Duration::from_secs(30),
                hedge_micros: 0,
                epoch,
                chaos: Vec::new(),
                chunk_pruning: true,
            }));
            match link.call(&request, Duration::from_secs(30)).unwrap() {
                Response::Answer(answer) => answer,
                other => panic!("{name}: expected an answer, got {other:?}"),
            }
        };

        let cold = ask(5);
        assert!(!cold.reports[0].cache_hit, "{name}");
        assert_eq!(cold.stats.worker_cache_hits, 0, "{name}");

        let warm = ask(5);
        assert!(warm.reports[0].cache_hit, "{name}: same epoch, same signature: a hit");
        assert_eq!(warm.stats.worker_cache_hits, 1, "{name}");
        assert_eq!(warm.partial, cold.partial, "{name}: the cached partial is bit-identical");
        assert_eq!(warm.stats.rows_cached, warm.stats.rows_total, "{name}");

        let after_bump = ask(6);
        assert!(
            !after_bump.reports[0].cache_hit,
            "{name}: an advanced epoch must drop the cache before answering"
        );
        assert_eq!(after_bump.partial, cold.partial, "{name}: same data, same partial");

        let warm_again = ask(6);
        assert!(warm_again.reports[0].cache_hit, "{name}: the new epoch caches afresh");
    }

    drop(local);
    drop(worker);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rebuild_invalidates_node_caches_through_the_tree() {
    // Warm the tree, rebuild with different data (and a different row
    // count), and the next answers must be the new data's — cold (no cache
    // can survive a rebuild) and then warm again on the new epoch.
    let sql = "SELECT k, COUNT(*) as c FROM data GROUP BY k ORDER BY c DESC";
    for (link, transport) in links() {
        let mut rng = Rng::seed_from_u64(0x05ca_1e02);
        for case in 0..4 {
            let before = random_table(&mut rng, 120);
            let after = random_table(&mut rng, 97);
            let label = format!("{link} case {case}");
            let mut cluster = cluster(&before, 3, 2, 64, BuildOptions::basic(), &transport);
            let old = cluster.query(sql).unwrap();
            assert_eq!(cluster.query(sql).unwrap().worker_cache_hits(), 2, "{label}: warm");
            let epoch = cluster.epoch();

            cluster.rebuild(&after).unwrap();
            assert_eq!(cluster.epoch(), epoch + 1, "{label}: rebuild bumps the epoch");
            let fresh = cluster.query(sql).unwrap();
            assert_eq!(fresh.worker_cache_hits(), 0, "{label}: rebuild must invalidate");
            assert_eq!(fresh.stats.rows_total, 97, "{label}: stats reflect the new table");
            let store = DataStore::build(&after, &BuildOptions::basic()).unwrap();
            let (expect, _) = query(&store, sql).unwrap();
            assert_eq!(fresh.result, expect, "{label}: no stale partials anywhere");
            // Row counts differ (120 vs 97), so total counts must differ
            // too: the old cached answer cannot leak through.
            let total = |r: &pd_core::QueryResult| -> i64 {
                r.rows.iter().map(|row| row.0[1].as_int().unwrap()).sum()
            };
            assert_ne!(total(&fresh.result), total(&old.result), "{label}");

            let rewarm = cluster.query(sql).unwrap();
            assert_eq!(rewarm.result, expect, "{label}");
            assert_eq!(rewarm.worker_cache_hits(), 2, "{label}: the new epoch serves repeats");
        }
    }
}

#[test]
fn capacity_eviction_changes_stats_never_results() {
    // Three trees over the same data: roomy caches, starved caches
    // (capacity 1 per node, so alternating signatures thrash forever), and
    // caching disabled. Results must be identical at every step.
    for (link, transport) in links() {
        let mut rng = Rng::seed_from_u64(0x05ca_1e03);
        for case in 0..3 {
            let table = random_table(&mut rng, 150);
            let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
            let roomy = cluster(&table, 3, 16, 256, BuildOptions::basic(), &transport);
            let starved = cluster(&table, 3, 16, 1, BuildOptions::basic(), &transport);
            let none = cluster(&table, 3, 16, 0, BuildOptions::basic(), &transport);
            // A query mix with repeats, so the roomy caches actually hit.
            let queries: Vec<String> = (0..6).map(|_| random_query(&mut rng)).collect();
            let mut order: Vec<usize> = (0..18).map(|i| i % queries.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.range_usize(0, i + 1));
            }
            let (mut roomy_hits, mut starved_hits) = (0, 0);
            for (step, &q) in order.iter().enumerate() {
                let sql = &queries[q];
                let label = format!("{link} case {case} step {step}: {sql}");
                let (expect, _) = query(&store, sql).unwrap();
                let a = roomy.query(sql).unwrap();
                let b = starved.query(sql).unwrap();
                let c = none.query(sql).unwrap();
                assert_eq!(a.result, expect, "{label}");
                assert_eq!(b.result, expect, "{label}: eviction changed a result");
                assert_eq!(c.result, expect, "{label}: caching changed a result");
                assert_eq!(c.worker_cache_hits(), 0, "{label}: disabled caches never hit");
                roomy_hits += a.worker_cache_hits();
                starved_hits += b.worker_cache_hits();
                for outcome in [&a, &b, &c] {
                    assert_eq!(
                        outcome.stats.rows_skipped
                            + outcome.stats.rows_cached
                            + outcome.stats.rows_scanned,
                        outcome.stats.rows_total,
                        "{label}: accounting must balance"
                    );
                }
            }
            assert!(roomy_hits > 0, "{link} case {case}: the roomy caches must see repeats");
            assert!(
                starved_hits <= roomy_hits,
                "{link} case {case}: starving the caches cannot add hits \
                 ({starved_hits} > {roomy_hits})"
            );
        }
    }
}

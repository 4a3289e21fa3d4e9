//! Failure-injection tests for the §4 serving tree, over local links and
//! over real worker processes (unix sockets) — the same tree code either
//! way. Every fault comes from the one injector, [`ChaosModel`]. A shard
//! primary killed mid-fan-out must fail over to its replication peer with
//! the *same* result (the replica holds the same partition), record the
//! failover in the outcome, and — because faults are drawn from seeded
//! per-(query, node) streams — reproduce exactly across runs.

use powerdrill::data::{generate_logs, LogsSpec};
use powerdrill::dist::{
    ChaosModel, Cluster, ClusterConfig, QueryOutcome, RpcConfig, Transport, TreeShape,
};
use powerdrill::{BuildOptions, DataStore};
use std::time::Duration;

const QUERIES: [&str; 4] = [
    "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10",
    "SELECT table_name, COUNT(*) c, SUM(latency) s FROM logs GROUP BY table_name ORDER BY c DESC",
    "SELECT country, AVG(latency) a FROM logs WHERE latency > 200.0 GROUP BY country ORDER BY country ASC",
    "SELECT COUNT(*) FROM logs WHERE country = 'DE'",
];

fn build_options() -> BuildOptions {
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 150;
    }
    build
}

fn rpc_transport(budget: Duration) -> Transport {
    // Default transport settings beyond the budget: unix sockets,
    // compression on — so the failover machinery is exercised with
    // compressed frames in play.
    Transport::Rpc(RpcConfig {
        worker_bin: Some(std::path::PathBuf::from(env!("CARGO_BIN_EXE_pd-worker"))),
        budget,
        ..Default::default()
    })
}

/// Both links through the same tree code; processes spend `budget` per
/// query, local links the default budget.
fn links(budget: Duration) -> [(&'static str, Transport); 2] {
    [("local", Transport::InProcess), ("unix", rpc_transport(budget))]
}

/// A chaos model under which the primaries of `shards` are dead: each is
/// killed on the first query that reaches it and refuses every later one.
fn dead_primaries(shards: &[usize]) -> ChaosModel {
    ChaosModel {
        kill_nodes: shards.iter().map(|s| format!("l{s}p")).collect(),
        ..Default::default()
    }
}

/// The failovers dead primaries caused. Hedging is live on every link, so
/// on a loaded machine a healthy primary can also lose a race to its
/// replica — a failover that is recorded as hedged too. A dead primary is
/// never raced.
fn dead_primary_failovers(outcome: &QueryOutcome) -> Vec<usize> {
    outcome.failovers.iter().copied().filter(|s| !outcome.hedges.contains(s)).collect()
}

fn cluster_with(
    chaos: ChaosModel,
    replication: bool,
    fanout: usize,
    transport: &Transport,
) -> Cluster {
    let table = generate_logs(&LogsSpec::scaled(1_200));
    Cluster::build(
        &table,
        &ClusterConfig {
            shards: 3,
            replication,
            chaos,
            build: build_options(),
            tree: TreeShape { fanout },
            transport: transport.clone(),
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn killed_primary_fails_over_with_identical_results() {
    let table = generate_logs(&LogsSpec::scaled(1_200));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    for (link, transport) in links(Duration::from_secs(30)) {
        for kill in [vec![1usize], vec![0, 2], vec![0, 1, 2, 3]] {
            let cluster = Cluster::build(
                &table,
                &ClusterConfig {
                    shards: 4,
                    replication: true,
                    chaos: dead_primaries(&kill),
                    shard_cache: 0,
                    build: build.clone(),
                    transport: transport.clone(),
                    ..Default::default()
                },
            )
            .unwrap();
            for sql in QUERIES {
                let (expect, _) = powerdrill::query(&store, sql).unwrap();
                let outcome = cluster.query(sql).unwrap();
                assert_eq!(outcome.result, expect, "{link} kill={kill:?}: {sql}");
                assert_eq!(
                    dead_primary_failovers(&outcome),
                    kill,
                    "{link}: every killed primary must be recorded as a failover: {sql}"
                );
                assert_eq!(
                    outcome.stats.rows_skipped
                        + outcome.stats.rows_cached
                        + outcome.stats.rows_scanned,
                    outcome.stats.rows_total,
                    "{link}: failover must not corrupt the accounting: {sql}"
                );
            }
        }
    }
}

#[test]
fn failure_without_replication_fails_the_query() {
    for (link, transport) in links(Duration::from_secs(30)) {
        // No replica to fall back to.
        let cluster = cluster_with(dead_primaries(&[2]), false, 16, &transport);
        let message = cluster.query(QUERIES[0]).unwrap_err().to_string();
        assert!(
            message.contains("shard 2") && message.contains("replication"),
            "{link}: the error names the failed shard: {message}"
        );
        // A query untouched by failures... does not exist: the kill switch
        // is per shard, so every query dies. Dropping the kill restores
        // service.
        let healthy = cluster_with(ChaosModel::default(), false, 16, &transport);
        assert!(healthy.query(QUERIES[0]).is_ok(), "{link}");
    }
}

/// Every node — primaries and replicas alike — resets its connection on a
/// seeded 40% of queries. A reset primary fails over to its replica; a
/// shard whose two copies both reset fails the query with a typed rpc
/// error. Each answer is exact, and the log of failovers and errors (`None`)
/// is the draws', identical across runs and links.
#[test]
fn seeded_failures_are_reproducible_and_correct() {
    use powerdrill::Error;

    let table = generate_logs(&LogsSpec::scaled(1_200));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    let run = |transport: &Transport| -> Vec<Option<Vec<usize>>> {
        let cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 4,
                replication: true,
                chaos: ChaosModel { seed: 0xdead, reset_probability: 0.4, ..Default::default() },
                shard_cache: 0,
                build: build.clone(),
                transport: transport.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        let mut failover_log = Vec::new();
        for round in 0..5 {
            for sql in QUERIES {
                let (expect, _) = powerdrill::query(&store, sql).unwrap();
                match cluster.query(sql) {
                    Ok(outcome) => {
                        assert_eq!(outcome.result, expect, "round {round}: {sql}");
                        failover_log.push(Some(dead_primary_failovers(&outcome)));
                    }
                    Err(err) => {
                        assert!(
                            matches!(err, Error::Rpc(_)),
                            "round {round}: a lost shard is a typed rpc error: {err}"
                        );
                        failover_log.push(None);
                    }
                }
            }
        }
        failover_log
    };
    let [(_, local), (_, unix)] = links(Duration::from_secs(30));
    let a = run(&local);
    assert_eq!(a, run(&local), "equal seeds and query sequences must fail over identically");
    assert_eq!(a, run(&unix), "the failover pattern is the draws', not the link's");
    assert!(a.contains(&None), "some shard must lose both copies to a reset");
    let total: usize = a.iter().flatten().map(Vec::len).sum();
    assert!(total > 0, "probability 0.4 over 80 subqueries must inject failures");
    assert!(total < 80, "...but not kill everything");
}

/// A primary that straggles far past the hedge delay — a chaos delay
/// emitted on every query — must produce the **identical** rows as a
/// chaos kill of the same shard: the hedged replica race answers
/// from the replica, which holds the same partition, and the straggler's
/// sleep is cut short when it loses. The hedge answers early: the
/// straggler's recorded latency stays well under the query budget.
#[test]
fn straggling_primary_is_hedged_identically_to_a_kill() {
    let table = generate_logs(&LogsSpec::scaled(800));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    let slow_shard = 1usize;
    let straggler = ChaosModel {
        delay_nodes: vec![(format!("l{slow_shard}p"), Duration::from_secs(20))],
        ..Default::default()
    };

    // Healthy primaries must comfortably beat this even on a loaded CI
    // runner (their real compute is milliseconds); the injected 20 s sleep
    // overshoots it by an order of magnitude either way.
    let budget = Duration::from_secs(2);

    for (link, transport) in links(budget) {
        // fanout 16: the driver parents the leaves; fanout 2: an
        // intermediate merge server does — the failover must work at both
        // levels.
        for fanout in [16usize, 2] {
            let label = format!("{link} fanout={fanout}");
            let cluster_config = |chaos: ChaosModel| ClusterConfig {
                shards: 3,
                replication: true,
                chaos,
                build: build.clone(),
                tree: TreeShape { fanout },
                transport: transport.clone(),
                ..Default::default()
            };

            // Baseline: shard 1's primary is dead.
            let killed =
                Cluster::build(&table, &cluster_config(dead_primaries(&[slow_shard]))).unwrap();

            // The straggler: no node dies, but shard 1's primary answers
            // every query 20 s late. One clean query first warms the hedge
            // delay from measured queue delays.
            let mut delayed =
                Cluster::build(&table, &cluster_config(ChaosModel::default())).unwrap();
            delayed.query(QUERIES[3]).unwrap();
            delayed.set_chaos(straggler.clone());

            for sql in &QUERIES[..2] {
                let (expect, _) = powerdrill::query(&store, sql).unwrap();
                let from_kill = killed.query(sql).unwrap();
                let from_hedge = delayed.query(sql).unwrap();
                assert_eq!(from_kill.result, expect, "{label}: {sql}");
                assert_eq!(
                    from_hedge.result, from_kill.result,
                    "{label}: hedged failover and kill must produce identical rows: {sql}"
                );
                assert_eq!(dead_primary_failovers(&from_kill), vec![slow_shard], "{label}: {sql}");
                assert!(
                    from_hedge.failovers.contains(&slow_shard),
                    "{label}: the straggler's replica answer must be recorded as a \
                     failover: {sql} ({:?})",
                    from_hedge.failovers
                );
                assert!(
                    from_hedge.hedges.contains(&slow_shard),
                    "{label}: the straggler must be recorded as hedged: {sql} ({:?})",
                    from_hedge.hedges
                );
                assert!(
                    !from_kill.hedges.contains(&slow_shard),
                    "{label}: a known-dead primary is failed over directly, not raced: {sql}"
                );
                assert!(
                    from_hedge.subquery_latencies[slow_shard] < budget,
                    "{label}: the hedge must answer early instead of waiting out the \
                     straggler, got {:?}",
                    from_hedge.subquery_latencies[slow_shard]
                );
            }
        }
    }
}

/// Without a replica, an exhausted budget is fatal — and says so. Local
/// links spend the default budget, so their case drives the same tree
/// code through a `ProcessTree` built with a short one.
#[test]
fn budget_expiry_without_replication_fails_the_query() {
    use powerdrill::dist::process::{Placement, TreeConfig};
    use powerdrill::dist::{ChaosDirective, ChaosFault, ProcessTree};

    let table = generate_logs(&LogsSpec::scaled(400));
    let straggler = ChaosModel {
        delay_nodes: vec![("l0p".into(), Duration::from_secs(20))],
        ..Default::default()
    };
    let check = |label: &str, err: String| {
        assert!(
            err.contains("shard 0") && err.contains("replication"),
            "{label}: the error names the expired shard: {err}"
        );
    };

    let mut cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 2,
            replication: false,
            build: build_options(),
            transport: rpc_transport(Duration::from_millis(500)),
            ..Default::default()
        },
    )
    .unwrap();
    cluster.query(QUERIES[0]).unwrap(); // healthy first
    cluster.set_chaos(straggler);
    check("unix", cluster.query(QUERIES[0]).unwrap_err().to_string());

    let budget = Duration::from_millis(500);
    let tree = ProcessTree::build(
        2,
        |s| Ok(table.select_rows(&(s * 200..(s + 1) * 200).collect::<Vec<_>>())),
        &build_options(),
        &TreeConfig {
            placement: Placement::Local,
            budget,
            replication: false,
            fanout: 16,
            threads: 0,
            cache_budget_per_shard: 1 << 20,
            cache_entries: 0,
            epoch: 1,
            compress: false,
            chunk_pruning: true,
        },
    )
    .unwrap();
    let analyzed =
        powerdrill::sql::analyze(&powerdrill::sql::parse_query(QUERIES[0]).unwrap()).unwrap();
    tree.query(&analyzed, 1, 0, Vec::new()).unwrap(); // healthy first
    let started = std::time::Instant::now();
    let slow = vec![ChaosDirective { node: "l0p".into(), fault: ChaosFault::Delay(budget * 40) }];
    let err = tree.query(&analyzed, 1, 0, slow).unwrap_err();
    check("local", err.to_string());
    assert!(started.elapsed() < budget * 10, "the budget bounds the wait: {:?}", started.elapsed());
}

/// A merge server killed mid-query — not a leaf, the *inner* node folding
/// two leaf subtrees — must surface as a clean typed rpc error, never a
/// hang or a silent partial answer; and the rebuilt tree serves exact rows
/// with balanced accounting again.
#[test]
fn merge_server_kill_mid_query_is_a_clean_typed_error() {
    use powerdrill::common::RpcError;
    use powerdrill::Error;

    let table = generate_logs(&LogsSpec::scaled(600));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    let sql = QUERIES[0];
    let (expect, _) = powerdrill::query(&store, sql).unwrap();
    for (link, transport) in links(Duration::from_secs(10)) {
        // 3 shards at fanout 2: mixer m1_0 folds leaves 0 and 1, m1_1 owns
        // leaf 2 — killing m1_0 severs a whole subtree below the root.
        let mut cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 3,
                replication: true,
                build: build.clone(),
                tree: TreeShape { fanout: 2 },
                transport,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(cluster.query(sql).unwrap().result, expect, "{link}: healthy tree first");

        cluster.set_chaos(ChaosModel { kill_nodes: vec!["m1_0".into()], ..Default::default() });
        let err = cluster.query(sql).unwrap_err();
        assert!(
            matches!(err, Error::Rpc(RpcError::PeerGone(_) | RpcError::ConnRefused(_))),
            "{link}: a merge server dying mid-query is a typed fault, not a hang or a \
             string: {err}"
        );

        // Recovery: clear the chaos, rebuild the tree, and the exact rows —
        // with balanced row accounting — come back.
        cluster.set_chaos(ChaosModel::default());
        cluster.rebuild(&table).unwrap();
        let outcome = cluster.query(sql).unwrap();
        assert_eq!(outcome.result, expect, "{link}: the rebuilt tree serves exact rows again");
        assert_eq!(
            outcome.stats.rows_skipped + outcome.stats.rows_cached + outcome.stats.rows_scanned,
            outcome.stats.rows_total,
            "{link}: accounting balances after recovery"
        );
    }
}

#[test]
fn failover_and_shard_cache_compose() {
    // Node caches sit above failover: once the merge servers at the
    // frontier hold the folded subtree partials, a killed leaf primary
    // beneath them is a non-event; a miss fails over as usual.
    for (link, transport) in links(Duration::from_secs(30)) {
        let cluster = cluster_with(dead_primaries(&[0]), true, 2, &transport);
        let sql = QUERIES[0];
        let cold = cluster.query(sql).unwrap();
        assert_eq!(dead_primary_failovers(&cold), vec![0], "{link}");
        assert_eq!(cold.worker_cache_hits(), 0, "{link}");
        let warm = cluster.query(sql).unwrap();
        assert_eq!(warm.result, cold.result, "{link}");
        assert_eq!(warm.worker_cache_hits(), 2, "{link}: both frontier mixers hit");
        assert!(warm.failovers.is_empty(), "{link}: cache hits never reach the (dead) primary");
    }
}

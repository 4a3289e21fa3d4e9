//! The distributed layer (§4) and the production workload replay (§6).
//!
//! PowerDrill parallelizes a query over many machines by splitting the data
//! into shards, running the *same* group-by plan on every shard, and
//! merging the mergeable group states up a computation tree. This crate
//! implements that single-datacenter setup as **one** tree: leaf servers,
//! merge servers and a root that prunes, caches and races replicas. Where
//! its nodes run — threads of the driver's process or `pd-dist-worker`
//! processes behind an RPC boundary — only changes the link between a
//! parent and its children ([`rpc::Link`]). The mapping to §4:
//!
//! | paper §4                          | here                                  |
//! |-----------------------------------|---------------------------------------|
//! | X data partitions on leaf servers | [`Cluster`]'s shards: independent [`pd_core::DataStore`]s over contiguous row ranges, each imported by a leaf [`node`] — on a thread of the driver ([`Transport::InProcess`]) or in a spawned `pd-dist-worker` process ([`Transport::Rpc`]) |
//! | the query sent to all machines, executed concurrently | concurrent requests carrying the decoded [`pd_sql::AnalyzedQuery`] — no SQL re-parse on any hop — handed to a local node's executor queue, or framed ([`rpc`]) over Unix sockets *or* TCP ([`WorkerAddr`]), optionally compressed (`pd-compress`, negotiated per connection) |
//! | partial results merged up the tree | real intermediate **merge servers** ([`node`]): each owns a [`TreeShape`]-fanout subtree, folds child partials with the same associative merge, reports per-shard observations up, and **prunes subtrees whose [`ShardMeta`] cannot match the restriction** before any hop ([`pd_core::ScanStats::subtrees_pruned`]); the driver is the root |
//! | "take the answer arriving first" replication | per-shard replica nodes, **raced**: a primary that has not answered within the hedge delay (derived from observed queue delays) is raced against its replica in parallel, first answer wins, the loser is cancelled ([`QueryOutcome::hedges`]); a primary killed or faulted by the one fault injector ([`ChaosModel`], e.g. `kill_nodes: ["l0p"]`) fails over through the same path ([`QueryOutcome::failovers`]), and every query spends one end-to-end budget |
//! | servers being "temporarily slow" | **measured**: every node funnels requests through one executor and reports real queue delays ([`QueryOutcome::queue_delays`], [`Cluster::observed_queue_delays`]); stragglers are injected as seeded [`ChaosModel`] delays |
//! | reuse of previously computed answers | [`shard_cache`]: **every tree node** (leaf and merge server) holds a [`shard_cache::WorkerCache`] of its own partials keyed by the normalized signature, invalidated by the rebuild **epoch** every message carries — hits are reported up as [`pd_core::ScanStats::worker_cache_hits`] / [`QueryOutcome::worker_cache_hits`] |
//!
//! Partial results, restrictions, group-by keys and float superaccumulator
//! states cross the process boundary in the dependency-free
//! [`pd_common::wire`] format, bit-identically — so the distributed
//! equivalence matrix (`tests/engine_equivalence.rs`) asserts exact
//! `assert_eq!` (floats included) against the single-store engine over
//! local links, unix sockets and TCP, at every shard count and tree depth,
//! warm or cold, with or without failovers.
//!
//! Modules:
//!
//! - [`cluster`] — the driver: shard split, the root of the query path,
//!   admission control, the chaos model's per-query draw, and the [`Transport`] choice
//!   (read once, at build time);
//! - [`node`] — one tree node: leaf server (`Load`) or merge server
//!   (`Attach`), single-executor queue with measured delays, and the local
//!   link ([`node::LocalNode`], [`node::LocalClient`]);
//! - [`rpc`] — wire protocol and the shared parent side: framed
//!   requests/responses, deadline budgets, typed [`pd_common::RpcError`]
//!   faults, the [`rpc::Link`] enum, child querying and hedged racing;
//! - [`worker`] — the `pd-dist-worker` process: a node served over
//!   sockets;
//! - [`chaos`] — the seeded link-level fault injector, the only one: dead
//!   primaries, resets, torn replies and stragglers;
//! - [`process`] — driver-side tree construction for either placement:
//!   spawning, loading and wiring nodes, teardown on drop;
//! - [`shard_cache`] — every node's result cache, [`shard_cache::WorkerCache`];
//! - [`workload`] — drill-down click streams shaped like the §6 production
//!   traffic, and [`run_production`] to replay them and report the
//!   skipped / cached / scanned split and Figure 5's latency-vs-disk-bytes
//!   relation (with disk time modeled, [`workload::modeled_disk_time`]).

#![forbid(unsafe_code)]

pub mod chaos;
pub mod cluster;
pub mod meta;
pub mod node;
pub mod process;
pub mod rpc;
pub mod shard_cache;
pub mod worker;
pub mod workload;

pub use chaos::{ChaosDirective, ChaosFault, ChaosModel};
pub use cluster::{
    AdmissionConfig, AppendOutcome, Cluster, ClusterConfig, QueryOutcome, RpcConfig, Transport,
    TreeShape,
};
pub use meta::{ColumnMeta, ShardMeta};
pub use node::LocalNode;
pub use process::{ProcessTree, ReapGuard, WorkerAddr};
pub use shard_cache::{query_signature, CachedSubtree, WorkerCache};
pub use workload::{
    run_append_while_serving, run_production, AppendServeReport, Click, DrillDownWorkload,
    ProductionReport, WorkloadSpec,
};

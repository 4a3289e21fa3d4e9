//! Sharded query execution over the §4 computation tree.
//!
//! §4: *"In a first step the server importing the data splits it into X
//! partitions. [...] such a query can be 'parallelized over rows' by
//! sending the query to all machines, each machine executing it on its
//! part of the data, and then merging the results."* — [`Cluster::query`]
//! does exactly that over one tree ([`ProcessTree`]): leaf nodes per shard
//! replica, merge servers once the shard count exceeds the
//! [`TreeShape`] fanout, and the driver as the root. Partials are folded
//! in fixed child order and every aggregation state merges associatively
//! (float sums are exact superaccumulators), so the merged result is
//! bit-identical to the single-store engine at any shard count, fanout,
//! thread count or cache configuration. [`Transport`] only picks where the
//! tree's nodes run — threads of this process or worker processes — and
//! so which link reaches them; it is read once, when the tree is built.
//!
//! §4 also describes why replication matters: *"it is quite common that
//! single machines can temporarily become slow [...] we send the query to
//! both machines holding a partition and take the answer arriving first."*
//! With [`ClusterConfig::replication`] every leaf has a replica node, and
//! slow primaries are *hedged*: after a delay derived from the observed
//! queue-delay p95 the replica is raced in parallel and the first answer
//! wins ([`QueryOutcome::hedges`]). [`ClusterConfig::chaos`] is the one
//! fault injector ([`ChaosModel`]): kills, resets, torn replies and delays,
//! aimable at any tree node including merge servers. A dead or faulted
//! primary fails over to its replica ([`QueryOutcome::failovers`]) through
//! the same race, or fails the query when replication is off. All draws
//! derive from seeded per-(query, node) streams, so every injected fault
//! is reproducible regardless of scheduling; latencies are measured.
//!
//! Every query spends one end-to-end budget across the whole tree (each
//! node decrements it by its own queue delay before fanning out, and an
//! exhausted budget is a typed [`pd_common::RpcError::Deadline`], not a
//! hang). [`AdmissionConfig`] bounds how many queries run concurrently —
//! excess load is shed with a typed [`pd_common::RpcError::Overloaded`]
//! *before* it can pile onto already saturated nodes (the limit halves
//! while the observed queue p95 sits above the saturation threshold).

use crate::chaos::ChaosModel;
use crate::process::{resolve_worker_bin, Placement, ProcessTree, TreeConfig, WorkerAddr};
use pd_common::sync::Mutex;
use pd_common::{Error, RpcError, Value};
use pd_core::{finalize, BuildOptions, QueryResult, ScanStats};
use pd_data::Table;
use pd_encoding::TableDelta;
use pd_sql::{analyze, parse_query};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Where the computation tree's nodes run. Either way it is the same tree
/// — pruning, node caches, merge levels, hedging and budgets — only the
/// link between a parent and its children differs.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Transport {
    /// Every node runs on a thread of the driver's process, and links hand
    /// requests to a node's executor queue without encoding them. Queries
    /// spend [`RpcConfig::default`]'s budget.
    #[default]
    InProcess,
    /// The paper's real topology: one `pd-dist-worker` OS process per
    /// shard replica plus spawned merge servers, talking the
    /// [`crate::rpc`] protocol over Unix sockets ([`WorkerAddr::Unix`])
    /// or loopback/multi-host TCP ([`WorkerAddr::Tcp`]), with optionally
    /// compressed frames.
    Rpc(RpcConfig),
}

/// Settings for the [`Transport::Rpc`] process split.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcConfig {
    /// Path to the `pd-dist-worker` binary; `None` resolves via the
    /// `PD_DIST_WORKER_BIN` environment variable or next to the current
    /// executable.
    pub worker_bin: Option<PathBuf>,
    /// End-to-end time budget for one query. The *whole* tree shares it:
    /// each node decrements the remaining budget by its own queue delay
    /// before fanning out, an exhausted budget is a typed
    /// [`pd_common::RpcError::Deadline`], and the driver enforces it
    /// absolutely at the root.
    pub budget: Duration,
    /// Socket shape the workers listen on: `Unix` (single box) or
    /// `Tcp { host }` with one ephemeral port per worker.
    pub addr: WorkerAddr,
    /// Compress RPC frames with `pd-compress` (negotiated per connection;
    /// serialized partials are FloatSum-limb-heavy and shrink several-fold).
    pub compress: bool,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            worker_bin: None,
            budget: Duration::from_secs(30),
            addr: WorkerAddr::Unix,
            compress: true,
        }
    }
}

/// Shape of the §4 computation tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    /// Children per inner node ("one root server communicating with up to
    /// hundreds of other servers" is fanout ≫ 2; small fanouts add depth).
    pub fanout: usize,
}

impl Default for TreeShape {
    fn default() -> Self {
        TreeShape { fanout: 16 }
    }
}

impl TreeShape {
    /// Number of merge levels needed above `leaves` leaf servers.
    pub fn depth(&self, leaves: usize) -> usize {
        let fanout = self.fanout.max(2);
        let mut depth = 0;
        let mut width = leaves.max(1);
        while width > 1 {
            width = width.div_ceil(fanout);
            depth += 1;
        }
        depth
    }
}

/// Admission control at the driver: bound how many queries run at once
/// instead of letting excess load pile onto saturated nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum concurrently admitted queries; `0` disables admission
    /// control entirely (the default — single-caller tests and benches
    /// never shed).
    pub max_in_flight: usize,
    /// Saturation threshold: while the p95 of recently observed node
    /// queue delays is at or above this, the effective in-flight limit is
    /// halved — the cluster sheds *harder* exactly when the nodes are
    /// already behind.
    pub saturation_queue: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { max_in_flight: 0, saturation_queue: Duration::from_millis(250) }
    }
}

/// Cluster construction options.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data shards (the paper's X partitions).
    pub shards: usize,
    /// Give every shard a replica node: slow primaries are hedged against
    /// it (§4's straggler mitigation) and dead ones fail over to it.
    pub replication: bool,
    /// Import options for each shard's store.
    pub build: BuildOptions,
    /// Total byte budget for the uncompressed cache layer, split across
    /// shards (the compressed layer gets half of that again).
    pub cache_budget: usize,
    /// Fault injection: seeded draws of node kills, connection resets,
    /// torn replies and delays, aimed at any tree node by name (`l{s}p` is
    /// shard `s`'s primary, `l{s}r` its replica, `m{h}_{i}` a merge
    /// server). The inactive default injects nothing.
    pub chaos: ChaosModel,
    /// The computation tree's shape: children per merge server.
    pub tree: TreeShape,
    /// Worker threads for each leaf's chunk scan (0 = `EXEC_THREADS` /
    /// available parallelism).
    pub threads: usize,
    /// Capacity (entries) of **every tree node's own result cache** (leaf
    /// and merge server alike); 0 disables them. A warm drill-down answers
    /// from the nearest node that remembers the signature — with zero
    /// child hops below it.
    pub shard_cache: usize,
    /// Where the tree's nodes run, which picks the link between them.
    pub transport: Transport,
    /// Driver-side admission control: shed queries beyond the in-flight
    /// budget with a typed [`pd_common::RpcError::Overloaded`].
    pub admission: AdmissionConfig,
    /// Use chunk-granular metadata (per-chunk zone maps shipped in the
    /// `Loaded` acks) for tree pruning and leaf scan seeding. On by
    /// default; turning it off falls back to shard-granular pruning only.
    /// Results are bit-identical either way — only the work moves.
    pub chunk_pruning: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            replication: true,
            build: BuildOptions::default(),
            cache_budget: 256 << 20,
            chaos: ChaosModel::default(),
            tree: TreeShape::default(),
            threads: 0,
            shard_cache: 1024,
            transport: Transport::InProcess,
            admission: AdmissionConfig::default(),
            chunk_pruning: true,
        }
    }
}

/// The §4 single-datacenter model: X shards + a computation tree.
pub struct Cluster {
    tree: ProcessTree,
    config: ClusterConfig,
    /// Monotonically increasing rebuild epoch. Every `Load`/`Attach`/
    /// `Query` carries it; a node that sees it advance drops its result
    /// cache.
    epoch: AtomicU64,
    /// Per-query sequence number: the deterministic axis of every chaos
    /// draw (draws depend on (seed, query, node), never on scheduling).
    queries: AtomicU64,
    /// Per-shard `(total queue delay, samples)` measured by the nodes.
    observed_queue: Mutex<Vec<(Duration, u64)>>,
    /// The most recent node queue-delay samples (capped ring of
    /// `(when observed, delay)`), feeding two adaptive policies: the hedge
    /// delay (p95-derived — hedge as soon as a primary looks slower than
    /// the cluster's recent tail) and the admission saturation check.
    /// Samples older than [`RECENT_QUEUE_TTL`] are expired on read: a
    /// queue spike must stop shedding once the nodes have drained, even
    /// if no fresh sample has displaced it from the ring.
    recent_queue: Mutex<VecDeque<(Instant, Duration)>>,
    /// Queries currently admitted (only tracked when admission control is
    /// on).
    in_flight: AtomicU64,
    /// Queries shed by admission control since construction / rebuild.
    sheds: AtomicU64,
}

/// How many queue-delay samples feed the hedge / saturation estimates.
const RECENT_QUEUE_CAP: usize = 256;

/// How long a queue-delay sample stays relevant. A burst that filled the
/// ring with 400ms delays describes the cluster *then*; ten seconds later
/// those nodes have long drained and the estimates must forget them
/// rather than keep halving admission against a load that no longer
/// exists.
const RECENT_QUEUE_TTL: Duration = Duration::from_secs(10);

/// RAII permit for one admitted query; dropping it frees the slot.
#[derive(Debug)]
struct AdmitPermit<'a> {
    in_flight: Option<&'a AtomicU64>,
}

impl Drop for AdmitPermit<'_> {
    fn drop(&mut self) {
        if let Some(in_flight) = self.in_flight {
            in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// What one [`Cluster::append`] shipped and applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Rows appended across all shards.
    pub rows: u64,
    /// Serialized `Append` frame bytes sent to the leaves (primaries and
    /// replicas).
    pub bytes_shipped: u64,
}

/// What one distributed query cost.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub result: QueryResult,
    /// Scan statistics summed over all shards.
    pub stats: ScanStats,
    /// Measured end-to-end latency: the whole fan-out (every merge level
    /// included) plus the root's finalize.
    pub latency: Duration,
    /// Per-shard latencies, measured by each leaf's parent around its
    /// call (transport, queueing and hedging included).
    pub subquery_latencies: Vec<Duration>,
    /// Shards whose primary failed and whose replica answered.
    pub failovers: Vec<usize>,
    /// Shards whose primary outlived the hedge delay and was raced against
    /// its replica (whichever answer arrived first won).
    pub hedges: Vec<usize>,
    /// Per-shard measured time the subquery spent queued inside nodes
    /// (leaf + every merge server above it).
    pub queue_delays: Vec<Duration>,
}

impl QueryOutcome {
    /// Tree nodes (leaves or merge servers) that answered this query from
    /// their own result cache, aggregated up the tree. Derived from the
    /// aggregated [`ScanStats`], the single source of truth the nodes
    /// report into.
    pub fn worker_cache_hits(&self) -> usize {
        self.stats.worker_cache_hits
    }
}

impl Cluster {
    /// Split `table` into contiguous row ranges and import each shard.
    ///
    /// Contiguous ranges (not round-robin) preserve the "implicit
    /// clustering" of appended log records that the paper's partitioning
    /// benefits from.
    pub fn build(table: &Table, config: &ClusterConfig) -> pd_common::Result<Cluster> {
        let epoch = 1u64;
        let tree = Self::build_tree(table, config, epoch)?;
        let shard_count = tree.shard_count();
        Ok(Cluster {
            tree,
            config: config.clone(),
            epoch: AtomicU64::new(epoch),
            queries: AtomicU64::new(0),
            observed_queue: Mutex::new(vec![(Duration::ZERO, 0); shard_count]),
            recent_queue: Mutex::new(VecDeque::with_capacity(RECENT_QUEUE_CAP)),
            in_flight: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
        })
    }

    /// Shard `s`'s contiguous sub-table (of `shard_count`).
    fn shard_table(table: &Table, s: usize, shard_count: usize) -> pd_common::Result<Table> {
        let n = table.len();
        let lo = n * s / shard_count;
        let hi = n * (s + 1) / shard_count;
        let mut sub = Table::new(table.schema().clone());
        for r in lo..hi {
            sub.push_row(table.row(r))?;
        }
        Ok(sub)
    }

    /// Build the tree for `table`'s shard split. The one place the
    /// transport is read: it picks the placement (and so the link), never
    /// the tree.
    fn build_tree(
        table: &Table,
        config: &ClusterConfig,
        epoch: u64,
    ) -> pd_common::Result<ProcessTree> {
        let shard_count = config.shards.clamp(1, table.len().max(1));
        let (placement, rpc) = match &config.transport {
            Transport::InProcess => {
                (Placement::Local, RpcConfig { compress: false, ..RpcConfig::default() })
            }
            Transport::Rpc(rpc) => (
                Placement::Processes {
                    worker_bin: resolve_worker_bin(rpc.worker_bin.as_deref())?,
                    addr: rpc.addr.clone(),
                },
                rpc.clone(),
            ),
        };
        let tree_config = TreeConfig {
            placement,
            budget: rpc.budget,
            replication: config.replication,
            fanout: config.tree.fanout,
            threads: config.threads,
            cache_budget_per_shard: (config.cache_budget / shard_count).max(1 << 16),
            cache_entries: config.shard_cache,
            epoch,
            compress: rpc.compress,
            chunk_pruning: config.chunk_pruning,
        };
        // Sub-tables are produced one at a time: each is shipped to its
        // node pair and dropped before the next is materialized.
        ProcessTree::build(
            shard_count,
            |s| Self::shard_table(table, s, shard_count),
            &config.build,
            &tree_config,
        )
    }

    /// Re-import every shard from `table` (the §5 "table rebuild": new
    /// data, a freshly spawned tree) and advance the epoch, so no node
    /// cache can serve a partial of the old data. The old tree is dropped
    /// once its successor is up.
    ///
    /// This is the *full* refresh: every row is re-shipped and re-imported
    /// even if only a fraction changed. For append-only growth, prefer
    /// [`Cluster::append`] — it bumps the same epoch but ships only the
    /// new rows as dictionary deltas into the live stores, no respawn.
    pub fn rebuild(&mut self, table: &Table) -> pd_common::Result<()> {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.tree = Self::build_tree(table, &self.config, epoch)?;
        *self.observed_queue.lock() = vec![(Duration::ZERO, 0); self.tree.shard_count()];
        // A respawned tree starts with empty executor queues: stale
        // saturation / hedge estimates from the old nodes would shed or
        // hedge against load that no longer exists.
        self.recent_queue.lock().clear();
        Ok(())
    }

    /// Stream `delta`'s rows into the live cluster — the incremental
    /// alternative to [`Cluster::rebuild`]. The delta is split across
    /// shards by the same contiguous-range rule as the original import,
    /// encoded per shard as a self-contained dictionary-delta table
    /// ([`pd_encoding::TableDelta`]: delta-local sorted dictionaries plus
    /// codes — the receiver resolves them against its resident
    /// dictionaries, appending only genuinely new values, so **every
    /// existing global id stays stable** and folded partials across old
    /// and new chunks stay bit-identical), and applied in place: `Append`
    /// requests go to every shard's primary *and* replica, the refreshed
    /// [`crate::meta::ShardMeta`] acks re-wire the merge levels bottom-up,
    /// and no node is respawned.
    ///
    /// The epoch bumps exactly as a rebuild would, so every cache layer
    /// (node caches, leaf chunk-result caches) invalidates by the same
    /// rule. Requires `&mut self`: queries borrow the cluster shared, so no
    /// query can observe a half-applied append (a failure mid-append leaves
    /// shards at different data; recover with [`Cluster::rebuild`]).
    pub fn append(&mut self, delta: &Table) -> pd_common::Result<AppendOutcome> {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let shard_count = self.shard_count();
        let field_count = delta.schema().fields().len();
        let mut deltas = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let sub = Self::shard_table(delta, s, shard_count)?;
            deltas.push(if sub.is_empty() {
                None
            } else {
                let columns: Vec<&[Value]> = (0..field_count).map(|i| sub.column(i)).collect();
                Some(TableDelta::from_columns(sub.schema().clone(), &columns)?)
            });
        }
        let bytes_shipped = self.tree.append(&deltas, epoch)?;
        // Unlike a rebuild, the nodes (and their executor queues) survive,
        // so the observed queue / saturation estimates still describe the
        // live cluster — they are kept.
        Ok(AppendOutcome { rows: delta.len() as u64, bytes_shipped })
    }

    /// Cumulative serialized bytes of data-bearing requests (`Load` +
    /// `Append` frames) sent into the tree since it was last (re)built.
    pub fn shipped_bytes(&self) -> u64 {
        self.tree.shipped_bytes()
    }

    /// Swap the fault injection model. Chaos draws depend only on
    /// `(seed, query id, node name)`, so setting the same model on a fresh
    /// cluster replays the same faults against the same queries.
    pub fn set_chaos(&mut self, chaos: ChaosModel) {
        self.config.chaos = chaos;
    }

    /// Queries shed by admission control so far.
    pub fn shed_count(&self) -> u64 {
        self.sheds.load(Ordering::SeqCst)
    }

    /// Admit one query or shed it. The permit holds an in-flight slot
    /// until dropped (i.e. for the whole query, including merge and
    /// finalize). While workers look saturated the effective limit halves:
    /// shedding is cheapest *before* the fan-out, and saturation means the
    /// queries already admitted are about to get slower.
    fn admit(&self) -> pd_common::Result<AdmitPermit<'_>> {
        let max = self.config.admission.max_in_flight;
        if max == 0 {
            return Ok(AdmitPermit { in_flight: None });
        }
        let saturated =
            self.queue_p95().is_some_and(|p95| p95 >= self.config.admission.saturation_queue);
        let limit = if saturated { (max / 2).max(1) } else { max } as u64;
        let previous = self.in_flight.fetch_add(1, Ordering::SeqCst);
        if previous >= limit {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.sheds.fetch_add(1, Ordering::SeqCst);
            let detail = if saturated { " (halved: workers saturated)" } else { "" };
            return Err(Error::Rpc(RpcError::Overloaded(format!(
                "cluster: {previous} queries in flight, limit {limit}{detail}"
            ))));
        }
        Ok(AdmitPermit { in_flight: Some(&self.in_flight) })
    }

    /// p95 of the recent worker queue-delay samples; `None` before any
    /// RPC query has reported (or after every sample has aged past
    /// [`RECENT_QUEUE_TTL`] — an idle cluster is a cold cluster, not a
    /// saturated one).
    ///
    /// Percentile rank: with fewer than 20 samples a nearest-rank "p95"
    /// *is* the sample max — one outlier would then drive the hedge delay
    /// (8×p95) and the saturation check, so small rings conservatively
    /// report the median instead. At ≥ 20 samples the ceiling nearest-rank
    /// index `⌈0.95 n⌉ − 1` is used (the floor form `⌊0.95 n⌋` also
    /// degenerates to the max for every n < 20 and overshoots the rank by
    /// one thereafter).
    fn queue_p95(&self) -> Option<Duration> {
        let mut recent = self.recent_queue.lock();
        let now = Instant::now();
        while recent.front().is_some_and(|&(when, _)| now.duration_since(when) > RECENT_QUEUE_TTL) {
            recent.pop_front();
        }
        if recent.is_empty() {
            return None;
        }
        let mut sorted: Vec<Duration> = recent.iter().map(|&(_, d)| d).collect();
        sorted.sort_unstable();
        let n = sorted.len();
        let idx = if n < 20 { n / 2 } else { (n * 95).div_ceil(100) - 1 };
        Some(sorted[idx])
    }

    /// How long to wait for a primary before racing its replica. Derived
    /// from the observed queue-delay p95 — a primary that has already
    /// out-waited several tail queue delays is likely struggling — and
    /// clamped into `[25ms, budget/2]` so cold clusters neither hedge
    /// instantly nor wait out most of the budget first.
    fn hedge_delay(&self, budget: Duration) -> Duration {
        let base = match self.queue_p95() {
            Some(p95) => p95 * 8 + Duration::from_millis(2),
            None => budget / 8,
        };
        base.clamp(Duration::from_millis(25), (budget / 2).max(Duration::from_millis(25)))
    }

    /// The current rebuild epoch (starts at 1; [`Cluster::rebuild`] bumps
    /// it). Carried by every RPC message so workers can invalidate.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    pub fn shard_count(&self) -> usize {
        self.tree.shard_count()
    }

    /// Mean measured queue delay per shard (all zeros before any query):
    /// real per-node queueing, reported up the tree by the nodes
    /// themselves.
    pub fn observed_queue_delays(&self) -> Vec<Duration> {
        self.observed_queue
            .lock()
            .iter()
            .map(|&(total, samples)| {
                if samples == 0 {
                    Duration::ZERO
                } else {
                    total / u32::try_from(samples).unwrap_or(u32::MAX)
                }
            })
            .collect()
    }

    /// Run `sql` through the tree: the driver is the root — it fans out to
    /// the frontier (leaves or merge servers), folds the answers
    /// associatively and finalizes. [`ClusterConfig::chaos`] draws this
    /// query's faults *here*; the directives travel down and each node
    /// applies its own, so a faulted primary fails over through the same
    /// link-level path a real crash or deadline expiry takes.
    pub fn query(&self, sql: &str) -> pd_common::Result<QueryOutcome> {
        // Admission first: a shed query must cost nothing downstream —
        // not even the parse.
        let _permit = self.admit()?;
        let analyzed = analyze(&parse_query(sql)?)?;
        let qid = self.queries.fetch_add(1, Ordering::Relaxed);
        let shard_count = self.tree.shard_count();

        // Hedge delay from the observed queue tail (unread without
        // replicas to race).
        let hedge_micros =
            u64::try_from(self.hedge_delay(self.tree.budget()).as_micros()).unwrap_or(u64::MAX);
        let chaos = self.config.chaos.draw(qid, self.tree.node_names());

        let fan_out_started = Instant::now();
        let answer = self.tree.query(&analyzed, self.epoch(), hedge_micros, chaos)?;
        // Measured end-to-end fan-out: leaf hops *and* every merge-server
        // fold above them — time the per-shard reports (stamped by each
        // leaf's immediate parent) cannot see at depth ≥ 2.
        let fan_out_elapsed = fan_out_started.elapsed();

        // Index the per-shard observations the tree reported up.
        let mut subquery_latencies = vec![Duration::ZERO; shard_count];
        let mut queue_delays = vec![Duration::ZERO; shard_count];
        let mut failovers = Vec::new();
        let mut hedges = Vec::new();
        for report in &answer.reports {
            let s = report.shard as usize;
            if s >= shard_count {
                return Err(Error::Data(format!("rpc: node reported unknown shard {s}")));
            }
            subquery_latencies[s] = report.latency;
            queue_delays[s] = report.queue;
            if report.failover {
                failovers.push(s);
            }
            if report.hedged {
                hedges.push(s);
            }
        }
        failovers.sort_unstable();
        hedges.sort_unstable();
        {
            let mut observed = self.observed_queue.lock();
            for (slot, queued) in observed.iter_mut().zip(&queue_delays) {
                slot.0 += *queued;
                slot.1 += 1;
            }
        }
        {
            // Feed the adaptive hedge / saturation estimates, stamped so
            // `queue_p95` can expire them.
            let now = Instant::now();
            let mut recent = self.recent_queue.lock();
            for queued in &queue_delays {
                if recent.len() == RECENT_QUEUE_CAP {
                    recent.pop_front();
                }
                recent.push_back((now, *queued));
            }
        }

        let finalize_started = Instant::now();
        let mut stats = answer.stats;
        let result = finalize(&analyzed, answer.partial)?;
        let latency = fan_out_elapsed + finalize_started.elapsed();
        stats.elapsed = latency;

        Ok(QueryOutcome {
            result,
            stats,
            latency,
            subquery_latencies,
            failovers,
            hedges,
            queue_delays,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosFault;
    use pd_core::{query, DataStore};
    use pd_data::{generate_logs, LogsSpec};

    fn logs_cluster(shards: usize, replication: bool) -> (Table, Cluster) {
        let table = generate_logs(&LogsSpec::scaled(2_000));
        let mut build = BuildOptions::production(&["country", "table_name"]);
        if let Some(spec) = &mut build.partition {
            spec.max_chunk_rows = 200;
        }
        let cluster = Cluster::build(
            &table,
            &ClusterConfig { shards, replication, build, ..Default::default() },
        )
        .unwrap();
        (table, cluster)
    }

    #[test]
    fn cluster_matches_single_store() {
        let (table, cluster) = logs_cluster(4, true);
        let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
        for sql in [
            "SELECT country, COUNT(*) as c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10",
            "SELECT country, SUM(timestamp) as s FROM logs GROUP BY country ORDER BY s DESC LIMIT 5",
            "SELECT COUNT(*) FROM logs WHERE country = 'DE'",
        ] {
            let (expect, _) = query(&store, sql).unwrap();
            let outcome = cluster.query(sql).unwrap();
            assert_eq!(outcome.result, expect, "{sql}");
            assert_eq!(outcome.subquery_latencies.len(), 4);
            // No primary is dead: any failover is a hedge race a loaded
            // machine let the replica win.
            assert!(outcome.failovers.iter().all(|s| outcome.hedges.contains(s)));
        }
    }

    #[test]
    fn append_matches_a_full_rebuild_bit_identically() {
        // Split a table into a base import plus two append batches; after
        // each append the cluster must answer exactly like a cluster (and
        // a single store) built from scratch over the same prefix.
        let table = generate_logs(&LogsSpec::scaled(3_000));
        let sqls = [
            "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10",
            "SELECT country, SUM(latency) s FROM logs GROUP BY country ORDER BY s DESC LIMIT 5",
            "SELECT MIN(user) lo, MAX(user) hi FROM logs",
            "SELECT COUNT(*) FROM logs WHERE country = 'DE'",
        ];
        let mut build = BuildOptions::production(&["country", "table_name"]);
        if let Some(spec) = &mut build.partition {
            spec.max_chunk_rows = 200;
        }
        let config = ClusterConfig { shards: 4, build, ..Default::default() };
        let slice = |lo: usize, hi: usize| {
            let rows: Vec<usize> = (lo..hi).collect();
            table.select_rows(&rows)
        };
        let mut cluster = Cluster::build(&slice(0, 2_400), &config).unwrap();
        for batch_end in [2_700, 3_000] {
            let batch_start = batch_end - 300;
            let outcome = cluster.append(&slice(batch_start, batch_end)).unwrap();
            assert_eq!(outcome.rows, 300);
            assert!(outcome.bytes_shipped > 0, "the append frames are accounted");
            let fresh = Cluster::build(&slice(0, batch_end), &config).unwrap();
            let store = DataStore::build(&slice(0, batch_end), &BuildOptions::basic()).unwrap();
            for sql in sqls {
                let appended = cluster.query(sql).unwrap().result;
                assert_eq!(appended, fresh.query(sql).unwrap().result, "{sql} @ {batch_end}");
                assert_eq!(appended, query(&store, sql).unwrap().0, "{sql} @ {batch_end}");
            }
        }
    }

    #[test]
    fn append_bumps_the_epoch_and_invalidates_node_caches() {
        let (table, mut cluster) = logs_cluster(4, true);
        let sql = "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 5";
        let cold = cluster.query(sql).unwrap();
        assert_eq!(cluster.query(sql).unwrap().worker_cache_hits(), 4);
        let epoch_before = cluster.epoch();
        let rows: Vec<usize> = (0..100).collect();
        cluster.append(&table.select_rows(&rows)).unwrap();
        assert_eq!(cluster.epoch(), epoch_before + 1, "append advances the rebuild epoch");
        let warm = cluster.query(sql).unwrap();
        assert_eq!(warm.worker_cache_hits(), 0, "cached pre-append partials must not answer");
        assert_ne!(warm.result, cold.result, "the appended rows change the counts");
    }

    #[test]
    fn epochs_advance_monotonically_across_append_and_rebuild() {
        // Interleave appends, rebuilds and queries: the epoch must tick
        // once per mutation (never stall, never jump), and each query must
        // see exactly the data of the latest mutation.
        let table = generate_logs(&LogsSpec::scaled(1_200));
        let slice = |lo: usize, hi: usize| {
            let rows: Vec<usize> = (lo..hi).collect();
            table.select_rows(&rows)
        };
        let sql = "SELECT COUNT(*) c FROM logs";
        let count = |cluster: &Cluster| match cluster.query(sql).unwrap().result.rows[0].0[0] {
            Value::Int(n) => n,
            ref other => panic!("COUNT(*) must be an Int, got {other:?}"),
        };
        let mut cluster =
            Cluster::build(&slice(0, 1_000), &ClusterConfig { shards: 3, ..Default::default() })
                .unwrap();
        assert_eq!((cluster.epoch(), count(&cluster)), (1, 1_000));
        cluster.append(&slice(1_000, 1_100)).unwrap();
        assert_eq!((cluster.epoch(), count(&cluster)), (2, 1_100));
        cluster.rebuild(&slice(0, 500)).unwrap();
        assert_eq!((cluster.epoch(), count(&cluster)), (3, 500));
        cluster.append(&slice(500, 1_200)).unwrap();
        assert_eq!((cluster.epoch(), count(&cluster)), (4, 1_200));
        // Repeating a query does not advance the epoch.
        assert_eq!((cluster.epoch(), count(&cluster)), (4, 1_200));
    }

    #[test]
    fn shard_stats_accumulate() {
        let (_, cluster) = logs_cluster(3, false);
        let outcome = cluster.query("SELECT COUNT(*) FROM logs WHERE country = 'SG'").unwrap();
        assert_eq!(outcome.stats.rows_total, 2_000);
        assert_eq!(
            outcome.stats.rows_skipped + outcome.stats.rows_cached + outcome.stats.rows_scanned,
            outcome.stats.rows_total
        );
    }

    #[test]
    fn repeated_queries_hit_the_node_caches() {
        let (_, cluster) = logs_cluster(4, true);
        let sql = "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 5";
        let cold = cluster.query(sql).unwrap();
        assert_eq!(cold.worker_cache_hits(), 0);
        let warm = cluster.query(sql).unwrap();
        assert_eq!(warm.worker_cache_hits(), 4, "every leaf partial is reused");
        assert_eq!(warm.result, cold.result, "cache must not change results");
        assert_eq!(warm.stats.rows_cached, warm.stats.rows_total);
        assert_eq!(warm.stats.rows_scanned, 0);
        // A different LIMIT shares the same partials (presentation-only).
        let limited = cluster
            .query("SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 2")
            .unwrap();
        assert_eq!(limited.worker_cache_hits(), 4);
        assert_eq!(limited.result.rows.len(), 2);
    }

    #[test]
    fn tree_depth_shrinks_with_fanout() {
        assert_eq!(TreeShape { fanout: 2 }.depth(1024), 10);
        assert_eq!(TreeShape { fanout: 4 }.depth(1024), 5);
        assert_eq!(TreeShape { fanout: 64 }.depth(1024), 2);
        assert_eq!(TreeShape { fanout: 16 }.depth(1), 0);
    }

    #[test]
    fn replication_tames_the_tail() {
        // Seeded chaos delays on the local tree: each node independently
        // stalls 60–100 ms with probability 0.3 per query. Unreplicated, a
        // query is as slow as its slowest primary. Replicated, a primary
        // still out after the hedge delay (25 ms once the queue estimate is
        // warm) is raced against its replica and the loser's sleep is cut
        // short, so only shards whose primary *and* replica stall stay
        // slow. Which shards hedge follows from the draws alone: a stalled
        // primary cannot answer inside 60 ms, and a healthy one answers a
        // 250-row scan far inside 25 ms.
        let chaos = ChaosModel {
            seed: 9,
            delay_probability: 0.3,
            delay_range: (Duration::from_millis(60), Duration::from_millis(100)),
            ..Default::default()
        };
        let stalled = |qid: u64, node: String| {
            chaos.draw(qid, &[node]).iter().any(|d| matches!(d.fault, ChaosFault::Delay(_)))
        };
        let table = generate_logs(&LogsSpec::scaled(1_000));
        let build = BuildOptions::production(&["country"]);
        let sql = "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 3";
        let (shards, queries) = (4usize, 1..=30u64);
        let slow = Duration::from_millis(50);
        let run = |replication: bool| -> (usize, Vec<Vec<usize>>) {
            let mut cluster = Cluster::build(
                &table,
                &ClusterConfig {
                    shards,
                    replication,
                    build: build.clone(),
                    shard_cache: 0,
                    ..Default::default()
                },
            )
            .unwrap();
            // Query 0 runs clean and warms the hedge-delay estimate.
            cluster.query(sql).unwrap();
            cluster.set_chaos(chaos.clone());
            let mut blocked = 0;
            let mut hedges = Vec::new();
            for _ in queries.clone() {
                let outcome = cluster.query(sql).unwrap();
                blocked += usize::from(outcome.latency >= slow);
                hedges.push(outcome.hedges);
            }
            (blocked, hedges)
        };
        let expect_hedges: Vec<Vec<usize>> = queries
            .clone()
            .map(|qid| (0..shards).filter(|s| stalled(qid, format!("l{s}p"))).collect())
            .collect();
        let must_block = expect_hedges.iter().filter(|hedged| !hedged.is_empty()).count();
        let may_block = queries
            .clone()
            .filter(|&qid| {
                (0..shards)
                    .any(|s| stalled(qid, format!("l{s}p")) && stalled(qid, format!("l{s}r")))
            })
            .count();
        assert!(may_block + 5 < must_block, "the draws themselves: {may_block} vs {must_block}");

        let (unreplicated, no_hedges) = run(false);
        let (replicated, hedges) = run(true);
        assert!(no_hedges.iter().all(Vec::is_empty), "no replica, no race");
        assert_eq!(hedges, expect_hedges, "exactly the stalled primaries are hedged");
        // The injected sleeps guarantee the unreplicated tail.
        assert!(unreplicated >= must_block, "{unreplicated} < {must_block}");
        assert!(
            replicated < unreplicated,
            "replication must shrink the blocked tail: {replicated} vs {unreplicated} \
             (expected about {may_block} vs {must_block})"
        );
    }

    #[test]
    fn admission_sheds_beyond_the_in_flight_budget() {
        let table = generate_logs(&LogsSpec::scaled(200));
        let cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 2,
                admission: AdmissionConfig { max_in_flight: 2, ..Default::default() },
                ..Default::default()
            },
        )
        .unwrap();
        let first = cluster.admit().unwrap();
        let _second = cluster.admit().unwrap();
        let shed = cluster.admit().unwrap_err();
        assert!(matches!(shed, Error::Rpc(RpcError::Overloaded(_))), "typed shed: {shed}");
        assert_eq!(cluster.shed_count(), 1);
        // Dropping a permit frees its slot.
        drop(first);
        let _third = cluster.admit().unwrap();
        // Saturation halves the limit: with the observed queue p95 past
        // the threshold, max 2 becomes 1 — the second slot is gone even
        // though it is nominally free.
        {
            let now = Instant::now();
            let mut recent = cluster.recent_queue.lock();
            for _ in 0..32 {
                recent.push_back((now, Duration::from_millis(400)));
            }
        }
        let shed = cluster.admit().unwrap_err();
        assert!(matches!(shed, Error::Rpc(RpcError::Overloaded(_))), "typed shed: {shed}");
        assert!(shed.to_string().contains("saturated"), "{shed}");
        assert_eq!(cluster.shed_count(), 2);
    }

    #[test]
    fn hedge_delay_tracks_the_observed_queue_tail() {
        let table = generate_logs(&LogsSpec::scaled(200));
        let cluster =
            Cluster::build(&table, &ClusterConfig { shards: 2, ..Default::default() }).unwrap();
        let budget = Duration::from_secs(30);
        // Cold cluster: no observations yet, fall back to budget/8.
        assert_eq!(cluster.hedge_delay(budget), budget / 8);
        // A fast queue tail clamps to the 25 ms floor (8×1ms + 2ms = 10ms).
        cluster.recent_queue.lock().extend(vec![(Instant::now(), Duration::from_millis(1)); 64]);
        assert_eq!(cluster.hedge_delay(budget), Duration::from_millis(25));
        // A pathological tail is capped at half the budget: hedging later
        // than that cannot beat the deadline anyway.
        cluster.recent_queue.lock().extend(vec![(Instant::now(), Duration::from_secs(10)); 64]);
        assert_eq!(cluster.hedge_delay(Duration::from_secs(1)), Duration::from_millis(500));
    }

    #[test]
    fn stale_queue_samples_expire_and_sheds_stop() {
        let table = generate_logs(&LogsSpec::scaled(200));
        let cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 2,
                admission: AdmissionConfig { max_in_flight: 2, ..Default::default() },
                ..Default::default()
            },
        )
        .unwrap();
        // A queue spike that ended long ago: every sample predates the
        // TTL. Before samples carried timestamps this ring kept reporting
        // a 400 ms "current" p95 forever (nothing displaced it), so the
        // halved limit outlived the spike indefinitely.
        let stale = Instant::now()
            .checked_sub(RECENT_QUEUE_TTL + Duration::from_secs(1))
            .expect("process uptime exceeds the sample TTL");
        {
            let mut recent = cluster.recent_queue.lock();
            for _ in 0..32 {
                recent.push_back((stale, Duration::from_millis(400)));
            }
        }
        assert_eq!(cluster.queue_p95(), None, "expired samples must not report a p95");
        // Both nominal slots admit again — the limit is no longer halved.
        let _first = cluster.admit().unwrap();
        let _second = cluster.admit().unwrap();
        assert_eq!(cluster.shed_count(), 0, "sheds must stop once the spike has aged out");
        // The hedge delay falls back to its cold estimate too.
        let budget = Duration::from_secs(30);
        assert_eq!(cluster.hedge_delay(budget), budget / 8);
        assert!(cluster.recent_queue.lock().is_empty(), "expiry prunes the ring in place");
    }

    #[test]
    fn small_sample_p95_is_the_median_not_the_max() {
        let table = generate_logs(&LogsSpec::scaled(200));
        let cluster =
            Cluster::build(&table, &ClusterConfig { shards: 2, ..Default::default() }).unwrap();
        let now = Instant::now();
        // Ten samples: one 500 ms outlier among nine 1 ms delays. The old
        // nearest-rank index (10·95/100 = 9) selected the outlier — the
        // sample *max* — and the hedge delay ballooned to 8×500ms. Small
        // rings now report the median.
        {
            let mut recent = cluster.recent_queue.lock();
            for _ in 0..9 {
                recent.push_back((now, Duration::from_millis(1)));
            }
            recent.push_back((now, Duration::from_millis(500)));
        }
        assert_eq!(cluster.queue_p95(), Some(Duration::from_millis(1)));
        assert_eq!(
            cluster.hedge_delay(Duration::from_secs(30)),
            Duration::from_millis(25),
            "one outlier in a small ring must not inflate the hedge delay"
        );
        // At n ≥ 20 the estimate is a true nearest-rank p95: for 1..=100 ms
        // the 95th of 100 sorted samples is 95 ms (the old floor index
        // overshot to 96 ms).
        {
            let mut recent = cluster.recent_queue.lock();
            recent.clear();
            for ms in 1..=100 {
                recent.push_back((now, Duration::from_millis(ms)));
            }
        }
        assert_eq!(cluster.queue_p95(), Some(Duration::from_millis(95)));
    }
}

//! The systems under test and the closed-loop replay of a click stream.
//!
//! One client thread sends the next query only after the previous one has
//! returned. Every duration here comes from the benchmark's own clock; the
//! program's own latency fields are modeled in-process and only ever feed
//! child spans of the RPC tree.

use crate::inputs::Inputs;
use crate::procs::MemoryProbe;
use crate::reference::Reference;
use crate::trace::{SpanId, Tracer};
use crate::Workload;
use pd_common::wire;
use pd_compress::CodecKind;
use pd_core::skip::SkipAnalysis;
use pd_core::{execute_partial, finalize, BuildOptions, ExecContext, PartialResult, QueryResult};
use pd_core::{DataStore, ScanStats};
use pd_data::Table;
use pd_dist::{AppendOutcome, Cluster, ClusterConfig, QueryOutcome, RpcConfig, Transport};
use pd_dist::{TreeShape, WorkerAddr};
use pd_encoding::TableDelta;
use pd_sql::{analyze, parse_query, AnalyzedQuery};
use powerdrill::PowerDrill;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 4;
/// A `Cluster::append` goes before every `APPEND_EVERY`-th click (ingest).
pub const APPEND_EVERY: usize = 3;

/// §6 production recipe: partition by (country, table_name), about 120
/// chunks per shard, as `experiments` and `incremental_rebuild` build it.
pub fn build_options(rows: usize) -> BuildOptions {
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = (rows / SHARDS / 120).clamp(200, 50_000);
    }
    build
}

/// The serving tree of `ingest`: 4 shards under fanout 2 (two merge
/// servers between root and leaves) in worker processes on unix sockets,
/// no replication, one thread per node, default caches and default frame
/// compression.
pub fn cluster_config(rows: usize, worker: Option<&Path>) -> ClusterConfig {
    ClusterConfig {
        shards: SHARDS,
        replication: false,
        build: build_options(rows),
        threads: 1,
        tree: TreeShape { fanout: 2 },
        transport: Transport::Rpc(RpcConfig {
            worker_bin: worker.map(Path::to_path_buf),
            addr: WorkerAddr::Unix,
            ..RpcConfig::default()
        }),
        ..ClusterConfig::default()
    }
}

pub enum System {
    /// `PowerDrill::import_uncached` and the context the facade runs it with.
    Store(Box<PowerDrill>, ExecContext),
    /// A cluster whose tree runs in worker processes.
    Cluster(Box<Cluster>),
}

impl System {
    pub fn setup(
        workload: Workload,
        table: &Table,
        worker: Option<&Path>,
    ) -> pd_common::Result<System> {
        match workload {
            Workload::Scan => {
                let pd = PowerDrill::import_uncached(table, &build_options(table.len()))?;
                Ok(System::Store(Box::new(pd), ExecContext::default()))
            }
            Workload::Ingest => Cluster::build(table, &cluster_config(table.len(), worker))
                .map(|cluster| System::Cluster(Box::new(cluster))),
        }
    }

    pub fn shipped_bytes(&self) -> u64 {
        match self {
            System::Store(..) => 0,
            System::Cluster(cluster) => cluster.shipped_bytes(),
        }
    }

    pub fn sheds(&self) -> u64 {
        match self {
            System::Store(..) => 0,
            System::Cluster(cluster) => cluster.shed_count(),
        }
    }
}

/// What one query returned, as the API reported it.
pub struct QueryRecord {
    pub click: usize,
    pub q: usize,
    pub epoch: usize,
    pub latency: Duration,
    pub answer: Result<QueryResult, String>,
    pub stats: ScanStats,
    pub dist: DistCounters,
}

/// Per-query counters of the distributed layer, read from `QueryOutcome`.
#[derive(Default)]
pub struct DistCounters {
    /// Measured round trip of the slowest shard.
    pub subquery_max: Duration,
    /// Sum of the measured worker queue delays.
    pub queue_wait: Duration,
    pub hedges: usize,
    pub failovers: usize,
    /// Tree nodes (leaves or merge servers) that answered from their own
    /// result cache. A merge server that hits answers for its whole
    /// subtree and counts once.
    pub node_cache_hits: usize,
}

pub struct AppendRecord {
    pub latency: Duration,
    pub outcome: Result<AppendOutcome, String>,
}

/// Side-probe byte counts (traced runs only).
#[derive(Default)]
pub struct Probes {
    pub queries: usize,
    pub groups_out: u64,
    pub partial_bytes: u64,
    pub compressed_bytes: u64,
    pub deltas: usize,
    pub delta_bytes: u64,
    /// Probe round trips that did not reproduce their input.
    pub failures: usize,
}

#[derive(Default)]
pub struct Pass {
    pub queries: Vec<QueryRecord>,
    /// Per click: the time until all of its queries had answered.
    pub clicks: Vec<Duration>,
    pub appends: Vec<AppendRecord>,
    /// Wall time of every timed operation (queries and appends); the
    /// benchmark's own bookkeeping between them is excluded.
    pub timed: Duration,
    pub probes: Probes,
}

pub enum Limit {
    /// Start clicks until this much time has been measured.
    Deadline(Duration),
    /// Replay exactly this many clicks.
    Clicks(usize),
}

/// Replay the click stream once through `system`.
///
/// Before each ingest append the reference answers every query of the
/// closing epoch, so each answer is checked against the rows as of its
/// click. None of that is timed. The last epoch is left to
/// [`Pass::settle_last_epoch`], once the system is measured and gone.
pub fn replay(
    workload: Workload,
    system: &mut System,
    inputs: &Inputs,
    limit: Limit,
    reference: &mut Reference,
    mut tracer: Option<&mut Tracer>,
    mut memory: Option<&mut MemoryProbe>,
) -> pd_common::Result<Pass> {
    let mut pass = Pass::default();
    let mut epoch = 0usize;
    let mut qid = 0u64;
    for click in 0.. {
        let done = match limit {
            Limit::Deadline(d) => pass.timed >= d,
            Limit::Clicks(n) => click >= n,
        };
        if done {
            break;
        }
        if let Some(memory) = memory.as_deref_mut() {
            memory.click(click);
        }
        if click >= inputs.stream.clicks.len() {
            return Err(pd_common::Error::Data(format!(
                "the click stream ran out after {click} clicks, before the deadline"
            )));
        }
        if workload == Workload::Ingest && click > 0 && click % APPEND_EVERY == 0 {
            let closing = pass.queries.iter().filter(|r| r.epoch == epoch);
            reference.settle(epoch, closing.map(|r| inputs.sql(r.click, r.q)))?;
            let batch = inputs.batch(epoch);
            reference.append(epoch, &batch)?;
            let record = append(system, &batch, tracer.as_deref_mut(), qid, &mut pass.probes);
            pass.timed += record.latency;
            pass.appends.push(record);
            epoch += 1;
        }
        let mut click_time = Duration::ZERO;
        for q in 0..inputs.stream.clicks[click].queries.len() {
            let sql = inputs.sql(click, q);
            let (latency, answer, stats, dist) =
                query(system, sql, tracer.as_deref_mut(), qid, &mut pass.probes);
            click_time += latency;
            pass.queries.push(QueryRecord { click, q, epoch, latency, answer, stats, dist });
            qid += 1;
        }
        pass.clicks.push(click_time);
        pass.timed += click_time;
    }
    Ok(pass)
}

impl Pass {
    /// Have the reference answer the queries of the pass's last epoch
    /// (earlier epochs were answered before each append).
    pub fn settle_last_epoch(
        &self,
        inputs: &Inputs,
        reference: &mut Reference,
    ) -> pd_common::Result<()> {
        let epoch = self.queries.last().map_or(0, |r| r.epoch);
        let last = self.queries.iter().filter(|r| r.epoch == epoch);
        reference.settle(epoch, last.map(|r| inputs.sql(r.click, r.q)))
    }
}

type Answered = (Duration, Result<QueryResult, String>, ScanStats, DistCounters);

fn query(
    system: &System,
    sql: &str,
    tracer: Option<&mut Tracer>,
    qid: u64,
    probes: &mut Probes,
) -> Answered {
    match (system, tracer) {
        (System::Store(pd, _), None) => {
            let started = Instant::now();
            let out = pd.sql(sql);
            let latency = started.elapsed();
            let (answer, stats) = split(out);
            (latency, answer, stats, DistCounters::default())
        }
        (System::Store(pd, ctx), Some(tr)) => {
            let span = tr.open("query", None, qid);
            let out = facade_path(pd.store(), ctx, sql, tr, span, qid);
            tr.close(span);
            let latency = tr.spans()[span].len();
            let (answer, stats) = match out {
                Ok((result, stats, analyzed, groups)) => {
                    probes.queries += 1;
                    probes.groups_out += groups as u64;
                    probe_partial(pd.store(), ctx, &analyzed, tr, qid, probes);
                    (Ok(result), stats)
                }
                Err(e) => (Err(e.to_string()), ScanStats::default()),
            };
            (latency, answer, stats, DistCounters::default())
        }
        (System::Cluster(cluster), tracer) => {
            let (latency, out) = match tracer {
                None => {
                    let started = Instant::now();
                    let out = cluster.query(sql);
                    (started.elapsed(), out)
                }
                Some(tr) => {
                    let span = tr.open("dist.query", None, qid);
                    let out = cluster.query(sql);
                    tr.close(span);
                    if let Ok(outcome) = &out {
                        for &d in &outcome.subquery_latencies {
                            tr.reported("dist.subquery", span, d);
                        }
                        for &d in &outcome.queue_delays {
                            tr.reported("dist.queue_wait", span, d);
                        }
                    }
                    // The cluster parses inside `query`; this is the same
                    // call made beside it.
                    if let Ok(parsed) = tr.side("sql.parse", qid, || parse_query(sql)) {
                        black_box(tr.side("sql.analyze", qid, || analyze(&parsed)).ok());
                    }
                    (tr.spans()[span].len(), out)
                }
            };
            match out {
                Ok(outcome) => {
                    let dist = dist_counters(&outcome);
                    (latency, Ok(outcome.result), outcome.stats, dist)
                }
                Err(e) => (latency, Err(e.to_string()), ScanStats::default(), Default::default()),
            }
        }
    }
}

fn split(
    out: pd_common::Result<(QueryResult, ScanStats)>,
) -> (Result<QueryResult, String>, ScanStats) {
    match out {
        Ok((result, stats)) => (Ok(result), stats),
        Err(e) => (Err(e.to_string()), ScanStats::default()),
    }
}

fn dist_counters(outcome: &QueryOutcome) -> DistCounters {
    DistCounters {
        subquery_max: outcome.subquery_latencies.iter().copied().max().unwrap_or_default(),
        queue_wait: outcome.queue_delays.iter().sum(),
        hedges: outcome.hedges.len(),
        failovers: outcome.failovers.len(),
        node_cache_hits: outcome.worker_cache_hits(),
    }
}

/// `PowerDrill::sql` taken apart: parse, analyze, `execute_partial`, then
/// `finalize`, with the facade's own `ExecContext`, one span each.
fn facade_path(
    store: &DataStore,
    ctx: &ExecContext,
    sql: &str,
    tr: &mut Tracer,
    span: SpanId,
    qid: u64,
) -> pd_common::Result<(QueryResult, ScanStats, AnalyzedQuery, usize)> {
    let parsed = tr.time("sql.parse", Some(span), qid, || parse_query(sql))?;
    let analyzed = tr.time("sql.analyze", Some(span), qid, || analyze(&parsed))?;
    let (partial, stats) = tr
        .time("core.execute_partial", Some(span), qid, || execute_partial(store, &analyzed, ctx))?;
    let groups = partial.groups.len();
    let result = tr.time("core.finalize", Some(span), qid, || finalize(&analyzed, partial))?;
    Ok((result, stats, analyzed, groups))
}

/// Side probes of the layers a scan partial passes through elsewhere: skip
/// analysis, the wire codec and frame compression. `finalize` consumed the
/// query's partial, so the probe recomputes it (untimed).
fn probe_partial(
    store: &DataStore,
    ctx: &ExecContext,
    analyzed: &AnalyzedQuery,
    tr: &mut Tracer,
    qid: u64,
    probes: &mut Probes,
) {
    let skip = tr.side("core.skip", qid, || {
        SkipAnalysis::prepare(store, &analyzed.restriction).map(|s| s.all(store.chunk_count()))
    });
    black_box(skip.ok());
    let Ok((partial, _)) = execute_partial(store, analyzed, ctx) else {
        probes.failures += 1;
        return;
    };
    let bytes = tr.side("common.wire_encode", qid, || wire::to_bytes(&partial));
    let decoded = tr.side("common.wire_decode", qid, || wire::from_bytes::<PartialResult>(&bytes));
    let codec = CodecKind::Zippy.codec();
    let packed = tr.side("compress.compress", qid, || codec.compress(&bytes));
    let unpacked = tr.side("compress.decompress", qid, || codec.decompress(&packed));
    probes.partial_bytes += bytes.len() as u64;
    probes.compressed_bytes += packed.len() as u64;
    if decoded.ok().as_ref() != Some(&partial) || unpacked.ok().as_ref() != Some(&bytes) {
        probes.failures += 1;
    }
}

fn append(
    system: &mut System,
    batch: &Table,
    tracer: Option<&mut Tracer>,
    qid: u64,
    probes: &mut Probes,
) -> AppendRecord {
    let System::Cluster(cluster) = system else {
        let outcome = Err("only cluster workloads append".to_string());
        return AppendRecord { latency: Duration::ZERO, outcome };
    };
    let (latency, outcome) = match tracer {
        None => {
            let started = Instant::now();
            let out = cluster.append(batch);
            (started.elapsed(), out)
        }
        Some(tr) => {
            let span = tr.open("dist.append", None, qid);
            let out = cluster.append(batch);
            tr.close(span);
            // The whole batch encoded as one dictionary delta, as each
            // shard's slice is inside `append`.
            let columns: Vec<&[pd_common::Value]> =
                (0..batch.schema().fields().len()).map(|i| batch.column(i)).collect();
            let delta = tr.side("encoding.delta_build", qid, || {
                TableDelta::from_columns(batch.schema().clone(), &columns)
            });
            match delta {
                Ok(delta) => {
                    probes.deltas += 1;
                    probes.delta_bytes += wire::to_bytes(&delta).len() as u64;
                }
                Err(_) => probes.failures += 1,
            }
            (tr.spans()[span].len(), out)
        }
    };
    AppendRecord { latency, outcome: outcome.map_err(|e| e.to_string()) }
}

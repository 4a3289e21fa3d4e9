//! clickbench — the benchmark of record: a seeded click stream replayed
//! through the public API, every answer checked, metrics printed by name
//! and unit.
//!
//! ```text
//! clickbench --workload <scan|ingest> --seed <n>
//!            --seconds <s> --trace <0|1> [--rows <n>] [--trace-file <path>]
//!            [--commit <id>] [--corrupt-reference] [--stream-digest]
//! ```
//!
//! `--trace 0` times the run with tracing off and prints the end-to-end
//! metrics; `--trace 1` then replays the same clicks traced on one more
//! fresh system and prints the per-layer metrics instead. The last line of
//! standard output is one JSON object. See `README.md` for the workloads.

mod inputs;
mod procs;
mod reference;
mod replay;
mod trace;

use inputs::Inputs;
use reference::Reference;
use replay::{build_options, replay, Limit, Pass, System, SHARDS};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

const FULL_ROWS: usize = 1_000_000;
/// Fresh systems built per timed run; `setup_s` is their median. The
/// first one serves the run, the others are built after it and dropped.
const SETUPS: usize = 3;
/// Distinct `scan` queries checked against the row-at-a-time oracle.
const ORACLE_SAMPLE: usize = 2;
/// On `scan`, the layer spans of the queries must cover the queries' wall
/// time to within this share.
const SPAN_SUM_TOLERANCE: f64 = 0.02;
/// `rss_mb` is read before this click: after the first clicks have filled
/// the caches, and on `ingest` just before the first append. After an
/// append, whether a leaf's allocator can hand ~55 MB of heap back to the
/// system depends on the seed, which moved the figure by 10–19% between
/// runs.
const MEMORY_AT_CLICK: usize = replay::APPEND_EVERY;
/// Ingest batches covered by `--stream-digest`.
const DIGEST_BATCHES: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Scan,
    Ingest,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "scan" => Workload::Scan,
            "ingest" => Workload::Ingest,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: usize,
    trace_file: Option<PathBuf>,
    commit: String,
    corrupt_reference: bool,
    stream_digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Scan,
        seed: 0,
        seconds: 10.0,
        trace: false,
        rows: FULL_ROWS,
        trace_file: None,
        commit: "unknown".into(),
        corrupt_reference: false,
        stream_digest: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--rows" => {
                args.rows = value()?.parse().map_err(|e| format!("--rows: {e}"))?;
                if args.rows < 1_000 {
                    return Err("--rows must be at least 1000".into());
                }
            }
            "--trace-file" => args.trace_file = Some(PathBuf::from(value()?)),
            "--commit" => args.commit = value()?,
            "--corrupt-reference" => args.corrupt_reference = true,
            "--stream-digest" => args.stream_digest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("clickbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("clickbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value: if value.is_finite() { value } else { 0.0 } }
}

/// Run the workload; `Ok(false)` means a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let inputs = Inputs::generate(args.rows, args.seed).map_err(|e| e.to_string())?;
    if args.stream_digest {
        println!("{:016x}", inputs.digest(DIGEST_BATCHES));
        return Ok(true);
    }
    let worker = if args.workload == Workload::Ingest { Some(worker_bin()?) } else { None };
    let mut reference = Reference::build(args.workload, &inputs.table, &build_options(args.rows))
        .map_err(|e| e.to_string())?;
    let store_bytes = reference.store().total_bytes() as u64;
    let context = context_line(args, &reference, store_bytes);
    println!("{context}");

    let deadline = Duration::from_secs_f64(args.seconds);
    let mut setups = Vec::new();
    let mut tracer = Tracer::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut shipped = 0;
    let mut sheds = 0;
    let setup = |setups: &mut Vec<Duration>| -> Result<System, String> {
        let started = Instant::now();
        let system = System::setup(args.workload, &inputs.table, worker.as_deref())
            .map_err(|e| format!("set-up failed: {e}"))?;
        setups.push(started.elapsed());
        Ok(system)
    };
    let mut memory = procs::MemoryProbe::start(MEMORY_AT_CLICK);
    let mut system = setup(&mut setups)?;
    let untraced = replay(
        args.workload,
        &mut system,
        &inputs,
        Limit::Deadline(deadline),
        &mut reference,
        None,
        Some(&mut memory),
    )
    .map_err(|e| e.to_string())?;
    let rss = memory.bytes();
    drop(system);
    untraced.settle_last_epoch(&inputs, &mut reference).map_err(|e| e.to_string())?;
    for _ in 1..SETUPS {
        drop(setup(&mut setups)?);
    }
    let clicks = untraced.clicks.len();
    passes.push(untraced);
    if args.trace {
        // The same clicks again, traced, on one more fresh system: the
        // difference from the untraced pass is the tracing overhead.
        let mut system = setup(&mut setups)?;
        shipped = system.shipped_bytes();
        let traced = replay(
            args.workload,
            &mut system,
            &inputs,
            Limit::Clicks(clicks),
            &mut reference,
            Some(&mut tracer),
            None,
        )
        .map_err(|e| e.to_string())?;
        sheds = system.sheds();
        drop(system);
        traced.settle_last_epoch(&inputs, &mut reference).map_err(|e| e.to_string())?;
        passes.push(traced);
    }
    // Every system is gone by now; none of its processes may be.
    let leftovers = worker.as_deref().map_or(0, |w| procs::running(w).len());

    if args.corrupt_reference {
        reference.corrupt();
    }
    let mut failed = 0usize;
    let mut attempted = 0usize;
    for pass in &passes {
        attempted += pass.queries.len() + pass.appends.len();
        failed += pass.queries.iter().filter(|r| r.answer.is_err()).count();
        failed += pass.appends.iter().filter(|a| a.outcome.is_err()).count();
        failed += pass.probes.failures;
        failed += reference.mismatches(pass, &inputs);
    }
    if args.workload == Workload::Scan {
        failed += reference
            .oracle_mismatches(&passes[0], &inputs, ORACLE_SAMPLE)
            .map_err(|e| e.to_string())?;
    }
    if leftovers > 0 {
        eprintln!("clickbench: {leftovers} worker process(es) outlived their cluster");
        failed += leftovers;
    }

    let metrics = if args.trace {
        let unattributed = unattributed_frac(&tracer);
        if args.workload == Workload::Scan && unattributed > SPAN_SUM_TOLERANCE {
            eprintln!(
                "clickbench: layer spans leave {:.2}% of query wall time unattributed \
                 (tolerance {:.0}%)",
                unattributed * 100.0,
                SPAN_SUM_TOLERANCE * 100.0
            );
            failed += 1;
        }
        let overhead = passes[1].timed.as_secs_f64() / passes[0].timed.as_secs_f64() - 1.0;
        per_layer(&passes[1], &tracer, shipped, sheds, store_bytes, overhead, unattributed)
    } else {
        end_to_end(&passes[0], &inputs, &setups, rss)
    };
    if let Some(path) = &args.trace_file {
        if args.trace {
            tracer
                .write_jsonl(path, &format!("{{\"context\":\"{context}\"}}"))
                .map_err(|e| e.to_string())?;
        }
    }

    for metric in &metrics {
        println!("{:<28} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    let fail_rate = failed as f64 / attempted.max(1) as f64;
    println!("{:<28} {:>16.6} frac ({failed} of {attempted} operations)", "fail_rate", fail_rate);
    let correct = failed == 0;
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    Ok(correct)
}

/// The computation-tree worker: without it the RPC workloads cannot run,
/// and they fail rather than skip.
fn worker_bin() -> Result<PathBuf, String> {
    let path = pd_dist::process::resolve_worker_bin(None).map_err(|e| e.to_string())?;
    if !path.is_file() {
        return Err(format!("pd-dist-worker binary missing at {}", path.display()));
    }
    Ok(path)
}

fn context_line(args: &Args, reference: &Reference, store_bytes: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = replay::cluster_config(args.rows, None);
    let (threads, budgets) = match args.workload {
        Workload::Scan => ("auto".to_string(), "none".to_string()),
        Workload::Ingest => (
            format!("{}/node", config.threads),
            format!(
                "{}B over {} shards + {} result entries per node",
                config.cache_budget, SHARDS, config.shard_cache
            ),
        ),
    };
    format!(
        "context: workload={:?} seed={} rows={} nproc={nproc} threads={threads} shards={} \
         chunks={} store_bytes={} cache_budgets={budgets} seconds={} commit={}",
        args.workload,
        args.seed,
        args.rows,
        if args.workload == Workload::Scan { 1 } else { SHARDS },
        reference.store().chunk_count(),
        store_bytes,
        args.seconds,
        args.commit,
    )
}

fn end_to_end(pass: &Pass, inputs: &Inputs, setups: &[Duration], rss: u64) -> Vec<Metric> {
    let timed = pass.timed.as_secs_f64();
    let mut columns: HashMap<&str, u64> = HashMap::new();
    let mut cells = 0u64;
    for r in &pass.queries {
        let sql = inputs.sql(r.click, r.q);
        let n = *columns.entry(sql).or_insert_with(|| referenced_columns(sql));
        cells += r.stats.rows_total * n;
    }
    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let queries: Vec<f64> = sorted(pass.queries.iter().map(|r| ms(&r.latency)));
    let clicks: Vec<f64> = sorted(pass.clicks.iter().map(ms));
    let setup: Vec<f64> = sorted(setups.iter().map(Duration::as_secs_f64));
    vec![
        m("setup_s", "s", median(&setup)),
        m("qps", "1/s", pass.queries.len() as f64 / timed),
        m("cells_per_s", "1/s", cells as f64 / timed),
        m("query_ms_p50", "ms", percentile(&queries, 0.5)),
        m("query_ms_p99", "ms", percentile(&queries, 0.99)),
        m("click_ms_p50", "ms", percentile(&clicks, 0.5)),
        m("rss_mb", "MB", rss as f64 / (1u64 << 20) as f64),
    ]
}

fn per_layer(
    pass: &Pass,
    tracer: &Tracer,
    shipped: u64,
    sheds: u64,
    store_bytes: u64,
    overhead: f64,
    unattributed: f64,
) -> Vec<Metric> {
    let n = pass.queries.len().max(1) as f64;
    let mean = |name: &str| {
        let (total, count) = tracer.total(name);
        total.as_secs_f64() / count.max(1) as f64
    };
    let sum = |f: &dyn Fn(&replay::QueryRecord) -> f64| pass.queries.iter().map(f).sum::<f64>();
    let rows_total = sum(&|r| r.stats.rows_total as f64).max(1.0);
    let probes = &pass.probes;
    let probed = probes.queries.max(1) as f64;
    let appends: Vec<f64> = sorted(pass.appends.iter().map(|a| a.latency.as_secs_f64() * 1e3));
    let (appended_bytes, appended_rows) = pass.appends.iter().fold((0u64, 0u64), |(b, r), a| {
        a.outcome.as_ref().map_or((b, r), |o| (b + o.bytes_shipped, r + o.rows))
    });
    let root = sum(&|r| {
        if r.dist.subquery_max.is_zero() {
            0.0
        } else {
            r.latency.saturating_sub(r.dist.subquery_max).as_secs_f64()
        }
    });
    let mb = (1u64 << 20) as f64;
    vec![
        m("sql.parse_analyze_us", "us", (mean("sql.parse") + mean("sql.analyze")) * 1e6),
        m("core.skip_us", "us", mean("core.skip") * 1e6),
        m("core.execute_partial_ms", "ms", mean("core.execute_partial") * 1e3),
        m("core.finalize_ms", "ms", mean("core.finalize") * 1e3),
        m("core.groups_out", "count", probes.groups_out as f64 / probed),
        m("core.rows_skipped_frac", "frac", sum(&|r| r.stats.rows_skipped as f64) / rows_total),
        m("core.rows_cached_frac", "frac", sum(&|r| r.stats.rows_cached as f64) / rows_total),
        m("core.rows_scanned_frac", "frac", sum(&|r| r.stats.rows_scanned as f64) / rows_total),
        m("core.chunks_scanned", "count", sum(&|r| r.stats.chunks_scanned as f64) / n),
        m("core.cells_scanned", "count", sum(&|r| r.stats.cells_scanned as f64) / n),
        m("core.decompressed_bytes", "bytes", sum(&|r| r.stats.decompressed_bytes as f64) / n),
        m("core.store_mb", "MB", store_bytes as f64 / mb),
        m("common.wire_encode_us", "us", mean("common.wire_encode") * 1e6),
        m("common.wire_decode_us", "us", mean("common.wire_decode") * 1e6),
        m("common.partial_bytes", "bytes", probes.partial_bytes as f64 / probed),
        m(
            "compress.ratio",
            "x",
            probes.partial_bytes as f64 / probes.compressed_bytes.max(1) as f64,
        ),
        m("compress.compress_us", "us", mean("compress.compress") * 1e6),
        m("compress.decompress_us", "us", mean("compress.decompress") * 1e6),
        m("dist.subquery_ms_max", "ms", sum(&|r| r.dist.subquery_max.as_secs_f64()) / n * 1e3),
        m("dist.root_ms", "ms", root / n * 1e3),
        m("dist.queue_wait_ms", "ms", sum(&|r| r.dist.queue_wait.as_secs_f64()) / n * 1e3),
        m("dist.node_cache_hits", "count", sum(&|r| r.dist.node_cache_hits as f64) / n),
        m("dist.subtrees_pruned", "count", sum(&|r| r.stats.subtrees_pruned as f64) / n),
        m("dist.chunks_pruned_remote", "count", sum(&|r| r.stats.chunks_pruned_remote as f64) / n),
        m("dist.hedges", "count", sum(&|r| r.dist.hedges as f64)),
        m("dist.failovers", "count", sum(&|r| r.dist.failovers as f64)),
        m("dist.sheds", "count", sheds as f64),
        m("dist.setup_shipped_mb", "MB", shipped as f64 / mb),
        m("dist.append_ms_p50", "ms", percentile(&appends, 0.5)),
        m(
            "dist.append_bytes_per_row",
            "bytes",
            appended_bytes as f64 / appended_rows.max(1) as f64,
        ),
        m("encoding.delta_build_ms", "ms", mean("encoding.delta_build") * 1e3),
        m("encoding.delta_bytes", "bytes", probes.delta_bytes as f64 / probes.deltas.max(1) as f64),
        m("trace.overhead_frac", "frac", overhead),
        m("trace.unattributed_frac", "frac", unattributed),
    ]
}

/// Share of the `scan` queries' wall time that their on-path layer spans
/// (parse, analyze, execute_partial, finalize) do not cover; 0 when the
/// run has no such queries.
fn unattributed_frac(tracer: &Tracer) -> f64 {
    let spans = tracer.spans();
    let mut wall = Duration::ZERO;
    let mut covered = Duration::ZERO;
    for s in spans {
        match (s.name, s.parent) {
            ("query", None) => wall += s.len(),
            (_, Some(p)) if !s.side && spans[p].name == "query" => covered += s.len(),
            _ => {}
        }
    }
    if wall.is_zero() {
        return 0.0;
    }
    wall.saturating_sub(covered).as_secs_f64() / wall.as_secs_f64()
}

/// Columns a query references: group keys, aggregate arguments and the
/// `WHERE` clause.
fn referenced_columns(sql: &str) -> u64 {
    let Ok(analyzed) = pd_sql::parse_query(sql).and_then(|q| pd_sql::analyze(&q)) else {
        return 0;
    };
    let mut out = Vec::new();
    let exprs = analyzed.keys.iter().chain(analyzed.aggs.iter().filter_map(|a| a.arg.as_ref()));
    for expr in exprs.chain(analyzed.filter.iter()) {
        expr.referenced_columns(&mut out);
    }
    out.len() as u64
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of sorted values: the middle one, or the mean of the middle two;
/// 0 for none.
fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted values; 0 for none.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

//! One node of the §4 computation tree, wherever it runs.
//!
//! What kind of node it is gets decided by the driver after startup:
//!
//! - a [`Request::Load`] turns it into a **leaf server**: it imports the
//!   shipped rows with the shipped [`pd_core::BuildOptions`], summarizes
//!   the shard into a [`crate::meta::ShardMeta`] (answered as
//!   [`Response::Loaded`], so parents can pre-skip it later), and answers
//!   queries by executing the shipped [`pd_sql::AnalyzedQuery`] — no SQL
//!   parsing on any hop;
//! - a [`Request::Attach`] turns it into a **merge server** ("mixer"): it
//!   owns a subtree of children, fans queries out to them, folds their
//!   partials with the same associative merge the root uses, applies the
//!   replica-failover rule to its leaf children, and **prunes children
//!   whose shard metadata cannot match the query's restriction** before
//!   spending any hop;
//! - a [`Request::Append`] streams new rows into an existing **leaf** in
//!   place: the node applies the dictionary-delta table to its resident
//!   store (existing codes stay stable, new codes append), re-derives the
//!   shard summary for the new chunks only, drops every resident cache
//!   layer, adopts the shipped epoch, and acks with the refreshed
//!   [`crate::meta::ShardMeta`] — no respawn, no re-import.
//!
//! Either role owns a [`crate::shard_cache::WorkerCache`] (capacity shipped
//! in `Load`/`Attach`): repeated queries with the same normalized signature
//! answer from the node's cached partial — a leaf skips its scan, a merge
//! server skips its *entire subtree fan-out* — with the hit recorded in
//! [`pd_core::ScanStats::worker_cache_hits`] and every shard report flagged
//! `cache_hit`. Invalidation is the **rebuild epoch**: the driver bumps it
//! on rebuilds and appends, every `Load`/`Attach`/`Query` carries it, and a
//! node that sees the epoch move drops its cache before doing anything
//! else.
//!
//! **Measured queue delays.** All requests funnel through one executor
//! thread (`run_executor`). The time a request spends between arrival and
//! execution is the node's *real* queue delay, and it rides up the tree in
//! every [`ShardReport`]: a merge server adds its own queueing to each of
//! its shards' reports. Chaos faults aimed at the node are decided by the
//! executor but carried out by whoever waits for the reply, *after* the
//! executor is free again: a delayed answer is service time of that query
//! alone and never inflates the queue delay of the requests behind it.
//!
//! **Where a node runs.** The same executor serves two kinds of links. A
//! `pd-dist-worker` process ([`crate::worker`]) feeds it from socket
//! connections; a [`LocalNode`] runs it on a thread of the driver's own
//! process, reached through a [`LocalClient`] that hands requests to the
//! executor queue unencoded. Local nodes are bound in a process-wide
//! namespace of `local:<name>` addresses, so tree wiring ([`ChildSpec`]s
//! inside `Attach`) names them exactly like sockets.
//!
//! [`ChildSpec`]: crate::rpc::ChildSpec

use crate::chaos::ChaosFault;
use crate::meta::{self, ShardMeta};
use crate::rpc::{
    fan_out, Addr, CancelToken, ChildHandle, LoadRequest, QueryRequest, Request, Response,
    ShardReport, SubtreeAnswer,
};
use crate::shard_cache::{query_signature, CachedSubtree, WorkerCache};
use pd_common::sync::Mutex;
use pd_common::{Error, Result, RpcError, Value};
use pd_core::{
    execute_partial_seeded, CachePolicy, DataStore, ExecContext, ResultCache, TieredCache,
};
use pd_data::Table;
use std::collections::HashMap;
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One request waiting in a node's executor queue.
pub(crate) struct Work {
    pub(crate) request: Request,
    pub(crate) reply: ReplyTo,
    pub(crate) enqueued: Instant,
}

/// What a caller waiting on an executor wakes up to.
pub(crate) enum Wake {
    /// The executor's response, and how it must reach the caller.
    Reply(Response, ReplyMode),
    /// The request was dropped unanswered: the node ended (a chaos kill).
    Gone,
    /// The caller's own call was cancelled (it lost a hedge race).
    Cancelled,
}

/// The executor's end of one reply channel. Dropping it unanswered — the
/// node ended with the request still queued or mid-flight — wakes the
/// caller with [`Wake::Gone`], the local spelling of a dead connection.
pub(crate) struct ReplyTo(Option<mpsc::Sender<Wake>>);

impl ReplyTo {
    pub(crate) fn new(sender: mpsc::Sender<Wake>) -> ReplyTo {
        ReplyTo(Some(sender))
    }

    fn send(mut self, response: Response, mode: ReplyMode) {
        if let Some(sender) = self.0.take() {
            let _ = sender.send(Wake::Reply(response, mode));
        }
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if let Some(sender) = self.0.take() {
            let _ = sender.send(Wake::Gone);
        }
    }
}

/// How a response must reach the caller: after `lag` (chaos delays), and
/// — under chaos — sabotaged instead of delivered whole.
#[derive(Default)]
pub(crate) struct ReplyMode {
    pub(crate) lag: Duration,
    pub(crate) fault: Option<WireFault>,
}

/// Chaos sabotage of one reply: the executor stays correct, only this
/// query's delivery is wrecked.
pub(crate) enum WireFault {
    /// Drop the request unserved: the connection closes without an answer.
    Reset,
    /// Deliver half the reply frame, then close.
    Torn,
}

/// The single executor: requests run strictly in arrival order, and the
/// gap between enqueue and dequeue is the node's queue delay. Nothing else
/// ever touches the node's role. Returns when a chaos `Kill` ends the
/// node, on `Shutdown`, or once every handle on the queue is gone.
pub(crate) fn run_executor(requests: mpsc::Receiver<Work>) {
    let mut role = Role::default();
    while let Ok(work) = requests.recv() {
        let queued = work.enqueued.elapsed();
        let mut mode = ReplyMode::default();
        if let Request::Query(query) = &work.request {
            // Chaos first: injected faults must hit cache hits and budget
            // expiries too — the sabotage is the link's, not the plan's.
            for directive in query.chaos.iter().filter(|d| d.node == role.name) {
                match directive.fault {
                    // A mid-query crash: no reply ever leaves. The queue
                    // closes before this request's caller learns of the
                    // death, so no later call can still slip in; every
                    // request already queued dies with the node.
                    ChaosFault::Kill => {
                        drop(requests);
                        return;
                    }
                    ChaosFault::Delay(d) => mode.lag += d,
                    ChaosFault::Reset => mode.fault = Some(WireFault::Reset),
                    ChaosFault::Torn => mode.fault = Some(WireFault::Torn),
                }
            }
        }
        if matches!(work.request, Request::Shutdown) {
            work.reply.send(Response::Ok, mode);
            return;
        }
        if matches!(mode.fault, Some(WireFault::Reset)) {
            // A reset drops the query unserved, so the caller learns of it
            // at once, whatever the query would have cost to run. The
            // placeholder response is never delivered.
            work.reply.send(Response::Ok, mode);
            continue;
        }
        let response = handle(&mut role, work.request, queued).unwrap_or_else(|e| match e {
            // Typed robustness failures travel as `Fault` so the parent's
            // policy can dispatch on the variant; anything else is an app
            // error.
            Error::Rpc(fault) => Response::Fault(fault),
            e => Response::Err(e.to_string()),
        });
        work.reply.send(response, mode);
    }
}

/// A leaf's executable state.
struct LeafStore {
    shard: u64,
    store: DataStore,
    ctx: ExecContext,
    /// The shard's own metadata (the same object the `Loaded` ack ships):
    /// queries with chunk pruning enabled seed their scan with the
    /// per-chunk verdicts instead of re-deriving them per query plan.
    meta: ShardMeta,
}

/// What this node currently is. `Load` and `Attach` are role assignments
/// from the driver; each one *replaces* the previous role outright — a
/// repurposed node must never answer from a shadowed store or a stale
/// child list.
#[derive(Default)]
struct Role {
    leaf: Option<LeafStore>,
    children: Option<Vec<ChildHandle>>,
    /// This node's own result cache (`None` = disabled by the driver).
    cache: Option<WorkerCache>,
    /// Rebuild epoch of the data this node serves; a query from a
    /// different epoch drops the cache (its partials describe old data).
    epoch: u64,
    /// This node's tree-wide name (`l0p`, `m1_0`, ...), assigned with the
    /// role — the key chaos directives are matched against.
    name: String,
}

impl Role {
    /// Install a fresh role's cache + epoch (shared by `Load`/`Attach`).
    fn reset_cache(&mut self, cache_entries: u64, epoch: u64) {
        self.cache = (cache_entries > 0).then(|| WorkerCache::new(cache_entries as usize));
        self.epoch = epoch;
    }
}

fn handle(role: &mut Role, request: Request, queued: Duration) -> Result<Response> {
    match request {
        Request::Load(load) => {
            let (cache_entries, epoch) = (load.cache_entries, load.epoch);
            role.name = load.name.clone();
            let (leaf, meta) = build_leaf(*load)?;
            role.leaf = Some(leaf);
            // A role assignment is total: a node repurposed from merge
            // server to leaf must not keep (and silently prefer or leak)
            // its old child wiring, and any cached partials describe the
            // previous role's data.
            role.children = None;
            role.reset_cache(cache_entries, epoch);
            Ok(Response::Loaded(Box::new(meta)))
        }
        Request::Attach(attach) => {
            let compress = attach.compress;
            role.name = attach.name;
            role.children =
                Some(attach.children.into_iter().map(|c| ChildHandle::new(c, compress)).collect());
            // Same totality the other way: the old leaf store would shadow
            // the freshly attached subtree.
            role.leaf = None;
            role.reset_cache(attach.cache_entries, attach.epoch);
            Ok(Response::Ok)
        }
        Request::Append(append) => {
            let Some(leaf) = role.leaf.as_mut() else {
                return Err(Error::Data("Append sent to a node that is not a leaf".into()));
            };
            if append.shard != leaf.shard {
                return Err(Error::Data(format!(
                    "Append for shard {} sent to leaf {}",
                    append.shard, leaf.shard
                )));
            }
            let old_chunks = leaf.store.chunk_count();
            leaf.store.append_delta(&append.delta)?;
            // Re-derive the shard summary in place: the new chunks' zone
            // maps and the column blooms absorb exactly the delta rows, so
            // parent-side pruning stays sound without a re-summarize scan
            // of the resident data.
            let columns = append.delta.materialized_columns();
            let slices: Vec<&[Value]> = columns.iter().map(|c| c.as_slice()).collect();
            let part = leaf.store.partitioning();
            let new_chunk_rows: Vec<usize> =
                (old_chunks..part.chunk_count()).map(|c| part.chunk_range(c).len()).collect();
            let schema = leaf.store.schema().clone();
            leaf.meta.absorb_delta(&schema, &slices, &new_chunk_rows);
            // Every resident cache layer describes the pre-append data:
            // drop chunk results and tiered entries, invalidate the
            // subtree cache, and adopt the new epoch so queries carrying
            // it are served fresh.
            if let Some(results) = &leaf.ctx.result_cache {
                results.clear();
            }
            if let Some(tiered) = &leaf.ctx.tiered {
                tiered.clear();
            }
            let meta = leaf.meta.clone();
            if let Some(cache) = &role.cache {
                cache.invalidate();
            }
            role.epoch = append.epoch;
            Ok(Response::Loaded(Box::new(meta)))
        }
        Request::Query(mut query) => {
            // Decrement the budget by the time this request sat in our
            // queue. Spent budgets fail typed and *immediately* — children
            // are never asked to run a query nobody is waiting for.
            let budget = query.budget.saturating_sub(queued);
            if budget.is_zero() {
                return Err(Error::Rpc(RpcError::Deadline(format!(
                    "{}: budget spent after {queued:?} queued",
                    role.name
                ))));
            }
            query.budget = budget;
            if query.epoch != role.epoch {
                // The driver rebuilt the data since this node's cache was
                // filled: every cached partial is stale. (Fresh trees get
                // the new epoch at Load/Attach, so this path is the
                // guarantee for any node that survives a rebuild.)
                if let Some(cache) = &role.cache {
                    cache.invalidate();
                }
                role.epoch = query.epoch;
            }
            let signature = role.cache.as_ref().map(|_| {
                let sketch_m = role.leaf.as_ref().map_or(0, |leaf| leaf.ctx.sketch_m());
                query_signature(&query.query, sketch_m)
            });
            if let (Some(cache), Some(signature)) = (&role.cache, &signature) {
                if let Some(entry) = cache.get(signature) {
                    // The nearest-cache answer: identical partial, zero
                    // child hops, every row beneath accounted as cached.
                    return Ok(Response::Answer(Box::new(entry.to_answer(queued))));
                }
            }
            let started = Instant::now();
            let answer = if let Some(leaf) = &role.leaf {
                execute_leaf(leaf, &query, queued)?
            } else if let Some(children) = &role.children {
                let mut answer = fan_out(children, &query)?;
                for report in &mut answer.reports {
                    // This merge server's own queueing delays every shard
                    // beneath it.
                    report.queue += queued;
                }
                answer
            } else {
                return Err(Error::Data(
                    "node has neither a store (Load) nor children (Attach)".into(),
                ));
            };
            if let (Some(cache), Some(signature)) = (&role.cache, &signature) {
                // Admission is cost-aware: what this node just spent
                // computing the subtree answer (scan or fan-out + fold) is
                // exactly what a future miss would spend again.
                cache.put_costed(
                    signature,
                    Arc::new(CachedSubtree::capture(&answer)),
                    started.elapsed(),
                );
            }
            Ok(Response::Answer(Box::new(answer)))
        }
        // `Shutdown` never gets here: the executor loop (and a worker
        // process's connection thread) handles it first.
        Request::Ping | Request::Shutdown => Ok(Response::Ok),
    }
}

/// Import the shipped shard and summarize it. The returned [`ShardMeta`]
/// is the node's own account of its data — value sets and extremes from
/// the exact rows it serves, chunk count from the store it built — which
/// is what makes parent-side pruning sound.
fn build_leaf(load: LoadRequest) -> Result<(LeafStore, ShardMeta)> {
    let mut meta = ShardMeta::summarize(load.shard, &load.schema, &load.rows);
    let mut table = Table::new(load.schema);
    for row in load.rows {
        table.push_row(row)?;
    }
    let store = DataStore::build(&table, &load.build)?;
    meta.chunks = store.chunk_count() as u64;
    // The chunk-granular layers come from the *built* store: its
    // partitioning says which imported rows each chunk scan would visit,
    // so the per-chunk zone maps (and the blooms for degraded columns)
    // describe exactly the data every query-time verdict must hold for.
    let columns: Vec<&[Value]> =
        (0..table.schema().fields().len()).map(|i| table.column(i)).collect();
    meta.summarize_chunks(table.schema(), &columns, store.partitioning());
    meta.build_blooms(table.schema(), &columns);
    let ctx = ExecContext {
        sketch_m: 0,
        threads: load.threads as usize,
        result_cache: Some(Arc::new(ResultCache::new(1 << 14))),
        tiered: Some(Arc::new(TieredCache::new(
            CachePolicy::Arc,
            load.cache_budget as usize,
            load.cache_budget as usize / 2,
        ))),
        kernels: Default::default(),
    };
    Ok((LeafStore { shard: load.shard, store, ctx, meta: meta.clone() }, meta))
}

fn execute_leaf(leaf: &LeafStore, query: &QueryRequest, queued: Duration) -> Result<SubtreeAnswer> {
    let started = Instant::now();
    // Seed the scan with the metadata verdicts the parent already pruned
    // by: chunks the zone maps prove dead are skipped without consulting
    // the dictionaries, and the sound-verdict lattice composes the rest
    // with the local analysis (`seed.and(local)` — never less precise).
    let seeds = (query.chunk_pruning && !leaf.meta.chunk_metas.is_empty())
        .then(|| meta::chunk_verdicts(&query.query.restriction, &leaf.meta));
    let (partial, stats) =
        execute_partial_seeded(&leaf.store, &query.query, &leaf.ctx, seeds.as_deref())?;
    Ok(SubtreeAnswer {
        partial,
        stats,
        reports: vec![ShardReport {
            shard: leaf.shard,
            // The parent overwrites latency with its own wall-clock
            // observation; the compute time is the fallback.
            latency: started.elapsed(),
            queue: queued,
            failover: false,
            hedged: false,
            cache_hit: false,
        }],
    })
}

// --- local links -------------------------------------------------------------

/// The process-wide namespace of local node addresses: name → executor
/// queue. The in-process counterpart of the filesystem's socket paths.
fn local_nodes() -> &'static Mutex<HashMap<String, mpsc::Sender<Work>>> {
    static NODES: OnceLock<Mutex<HashMap<String, mpsc::Sender<Work>>>> = OnceLock::new();
    NODES.get_or_init(Default::default)
}

/// A node running on a thread of the current process, bound at
/// `local:<name>`. Dropping it shuts the node down and joins its thread —
/// the local counterpart of [`crate::ReapGuard`].
pub struct LocalNode {
    addr: Addr,
    queue: mpsc::Sender<Work>,
    thread: Option<JoinHandle<()>>,
}

impl LocalNode {
    /// Start a node's executor on its own thread and bind it at
    /// `local:<name>`; the name must be unique in this process.
    pub fn spawn(name: &str) -> Result<LocalNode> {
        let (queue, requests) = mpsc::channel();
        {
            let mut nodes = local_nodes().lock();
            if nodes.contains_key(name) {
                return Err(Error::Data(format!("local address `{name}` is already bound")));
            }
            nodes.insert(name.to_owned(), queue.clone());
        }
        let bound = name.to_owned();
        let thread = std::thread::Builder::new()
            .name("pd-node".into())
            .spawn(move || {
                run_executor(requests);
                // Like a dead process's socket, the address stops
                // resolving the moment the node ends.
                local_nodes().lock().remove(&bound);
            })
            .map_err(|e| {
                local_nodes().lock().remove(name);
                Error::Data(format!("spawn local node {name}: {e}"))
            })?;
        Ok(LocalNode { addr: Addr::Local(name.to_owned()), queue, thread: Some(thread) })
    }

    pub fn addr(&self) -> &Addr {
        &self.addr
    }
}

impl Drop for LocalNode {
    fn drop(&mut self) {
        // A queued `Shutdown` ends the executor after whatever is ahead of
        // it; a node a chaos kill already ended refuses the send.
        let (reply, _ignored) = mpsc::channel();
        let shutdown = Work {
            request: Request::Shutdown,
            reply: ReplyTo::new(reply),
            enqueued: Instant::now(),
        };
        let _ = self.queue.send(shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The caller's side of a local link: the node's executor queue, resolved
/// from the namespace on first use. Requests cross unencoded; replies are
/// delivered with the same fault semantics a socket peer shows — a node
/// that ended refuses the call, a node that dies mid-call leaves the
/// caller with `PeerGone`, and a chaos delay is slept here, on the
/// caller's side, interruptibly.
pub struct LocalClient {
    name: String,
    queue: Option<mpsc::Sender<Work>>,
    cancel: CancelToken,
}

impl LocalClient {
    pub fn new(name: String) -> LocalClient {
        LocalClient { name, queue: None, cancel: CancelToken::default() }
    }

    /// A token that interrupts this client's in-flight call from another
    /// thread.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Hand `request` to the node and wait up to `timeout` for its reply.
    pub fn call(&mut self, request: &Request, timeout: Duration) -> Result<Response> {
        let deadline = Instant::now() + timeout.max(Duration::from_millis(1));
        let refused = || {
            Error::Rpc(RpcError::ConnRefused(format!("rpc: no live node at local:{}", self.name)))
        };
        let queue = match &self.queue {
            Some(queue) => queue.clone(),
            None => local_nodes().lock().get(&self.name).cloned().ok_or_else(refused)?,
        };
        let (reply, wake) = mpsc::channel();
        self.cancel.arm_local(reply.clone());
        let work =
            Work { request: request.clone(), reply: ReplyTo::new(reply), enqueued: Instant::now() };
        let result = if queue.send(work).is_ok() {
            self.queue = Some(queue);
            wait_for_reply(&wake, deadline)
        } else {
            self.queue = None;
            Err(refused())
        };
        self.cancel.disarm();
        result
    }
}

/// Wait for the executor's reply, then deliver it as a socket would: the
/// chaos lag is slept first (cut short by a cancel or the deadline), then
/// a reset or torn reply surfaces as the dead connection it models.
fn wait_for_reply(wake: &mpsc::Receiver<Wake>, deadline: Instant) -> Result<Response> {
    let gone = |what: &str| Error::Rpc(RpcError::PeerGone(format!("rpc: {what}")));
    let expired = || Error::Rpc(RpcError::Deadline("rpc: call budget expired".into()));
    let left = deadline.saturating_duration_since(Instant::now());
    let (response, mode) = match wake.recv_timeout(left) {
        Ok(Wake::Reply(response, mode)) => (response, mode),
        Ok(Wake::Gone) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            return Err(gone("local node ended mid-call"))
        }
        Ok(Wake::Cancelled) => return Err(gone("call cancelled")),
        Err(mpsc::RecvTimeoutError::Timeout) => return Err(expired()),
    };
    if !mode.lag.is_zero() {
        let left = deadline.saturating_duration_since(Instant::now());
        match wake.recv_timeout(mode.lag.min(left)) {
            Ok(Wake::Cancelled) => return Err(gone("call cancelled")),
            _ if mode.lag > left => return Err(expired()),
            _ => {}
        }
    }
    match mode.fault {
        Some(WireFault::Reset) => Err(gone("peer closed the connection without a reply")),
        Some(WireFault::Torn) => Err(gone("peer closed the connection mid-frame")),
        None => Ok(response),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosDirective;
    use pd_core::BuildOptions;
    use pd_data::{generate_logs, LogsSpec};
    use pd_sql::{analyze, parse_query};

    fn loaded_leaf(name: &str) -> LocalNode {
        let node = LocalNode::spawn(name).unwrap();
        let table = generate_logs(&LogsSpec::scaled(200));
        let load = Request::Load(Box::new(LoadRequest {
            shard: 0,
            schema: table.schema().clone(),
            rows: table.iter_rows().collect(),
            build: BuildOptions::basic(),
            threads: 1,
            cache_budget: 1 << 20,
            cache_entries: 0,
            epoch: 1,
            name: "l0p".into(),
        }));
        let mut client = LocalClient::new(name.into());
        let loaded = client.call(&load, Duration::from_secs(30)).unwrap();
        assert!(matches!(loaded, Response::Loaded(_)));
        node
    }

    fn query(chaos: Vec<ChaosDirective>) -> Request {
        Request::Query(Box::new(QueryRequest {
            query: analyze(&parse_query("SELECT COUNT(*) FROM logs").unwrap()).unwrap(),
            budget: Duration::from_secs(30),
            hedge_micros: 0,
            epoch: 1,
            chaos,
            chunk_pruning: true,
        }))
    }

    fn aimed(fault: ChaosFault) -> Vec<ChaosDirective> {
        vec![ChaosDirective { node: "l0p".into(), fault }]
    }

    fn rpc_error(result: Result<Response>) -> RpcError {
        match result {
            Err(Error::Rpc(fault)) => fault,
            other => panic!("expected a typed rpc fault, got {other:?}"),
        }
    }

    #[test]
    fn local_faults_surface_like_a_socket_peer() {
        let node = loaded_leaf("test-node-faults");
        let mut client = LocalClient::new("test-node-faults".into());
        let budget = Duration::from_secs(30);
        assert!(matches!(client.call(&query(Vec::new()), budget), Ok(Response::Answer(_))));
        for sabotage in [ChaosFault::Reset, ChaosFault::Torn] {
            let fault = rpc_error(client.call(&query(aimed(sabotage)), budget));
            assert!(matches!(fault, RpcError::PeerGone(_)), "{sabotage:?}: {fault}");
        }
        // A delay past the call's deadline expires typed, on time.
        let started = Instant::now();
        let slow = query(aimed(ChaosFault::Delay(Duration::from_secs(20))));
        let fault = rpc_error(client.call(&slow, Duration::from_millis(100)));
        assert!(matches!(fault, RpcError::Deadline(_)), "{fault}");
        assert!(started.elapsed() < Duration::from_secs(5), "{:?}", started.elapsed());
        // A kill ends the node mid-call; later calls are refused.
        let fault = rpc_error(client.call(&query(aimed(ChaosFault::Kill)), budget));
        assert!(matches!(fault, RpcError::PeerGone(_)), "{fault}");
        let fault = rpc_error(client.call(&query(Vec::new()), budget));
        assert!(matches!(fault, RpcError::ConnRefused(_)), "{fault}");
        let fault =
            rpc_error(LocalClient::new("test-node-faults".into()).call(&Request::Ping, budget));
        assert!(matches!(fault, RpcError::ConnRefused(_)), "the address is unbound: {fault}");
        drop(node); // joins the already-ended executor
    }

    #[test]
    fn a_cancel_interrupts_a_chaos_delay() {
        let _node = loaded_leaf("test-node-cancel");
        let mut client = LocalClient::new("test-node-cancel".into());
        let token = client.cancel_token();
        let started = Instant::now();
        let slow = query(aimed(ChaosFault::Delay(Duration::from_secs(20))));
        let result = std::thread::scope(|scope| {
            let call = scope.spawn(|| client.call(&slow, Duration::from_secs(30)));
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
            call.join().unwrap()
        });
        let fault = rpc_error(result);
        assert!(matches!(fault, RpcError::PeerGone(_)), "{fault}");
        assert!(started.elapsed() < Duration::from_secs(5), "{:?}", started.elapsed());
        // The node itself is unharmed: the sleep was the caller's.
        assert!(matches!(
            client.call(&query(Vec::new()), Duration::from_secs(30)),
            Ok(Response::Answer(_))
        ));
    }
}

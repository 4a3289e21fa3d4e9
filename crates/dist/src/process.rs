//! Driver-side construction of the §4 computation tree.
//!
//! [`ProcessTree::build`] turns a sharded table into the paper's §4
//! topology: one node per shard replica (two per shard under replication —
//! the "send the query to both machines holding a partition" pair), plus
//! one merge server per group whenever the shard count exceeds the
//! [`crate::TreeShape`] fanout. The driver itself is the root: it queries
//! the frontier (the top-most tree level), folds the answers with the same
//! associative merge every other level uses, and finalizes.
//!
//! The [`Placement`] decides only where nodes run and so which [`Link`]
//! reaches them; the topology, the wiring messages and every query-time
//! rule are the same:
//!
//! - [`Placement::Local`]: every node is a [`LocalNode`] on a thread of
//!   the driver's process, reached through its executor queue;
//! - [`Placement::Processes`]: one `pd-dist-worker` OS process per node,
//!   listening on a Unix socket in a private temp directory
//!   ([`WorkerAddr::Unix`]) or an ephemeral TCP port ([`WorkerAddr::Tcp`],
//!   the multi-host shape exercised over loopback here); TCP workers
//!   announce their kernel-assigned port through a file the spawner polls.
//!   Every spawned process sits in a [`ReapGuard`], so a panic anywhere
//!   mid-build or mid-test kills and reaps the child on unwind — a wedged
//!   worker (the very failure mode the deadline path exists for) must not
//!   outlive its cluster, and a red test must not poison later suites with
//!   orphan processes.

use crate::chaos::ChaosDirective;
use crate::meta::ShardMeta;
use crate::node::LocalNode;
use crate::rpc::{
    backoff_sleep, encode_frame, fan_out, Addr, AppendRequest, AttachRequest, ChildHandle,
    ChildSpec, Link, LoadRequest, QueryRequest, Request, Response, RpcClient, SubtreeAnswer,
    BACKOFF_CAP, LOAD_TIMEOUT, STARTUP_TIMEOUT,
};
use pd_common::rng::Rng;
use pd_common::{fx_hash64, Error, Result};
use pd_core::BuildOptions;
use pd_data::Table;
use pd_encoding::TableDelta;
use pd_sql::AnalyzedQuery;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which socket shape spawned workers listen on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum WorkerAddr {
    /// Unix sockets in a private temp directory — the single-box default.
    #[default]
    Unix,
    /// TCP on the given interface (e.g. `127.0.0.1`), one ephemeral port
    /// per worker. Loopback today; the same wiring reaches real hosts once
    /// a remote spawner exists (the protocol is already host-agnostic —
    /// addresses travel as `tcp:host:port` strings).
    Tcp { host: String },
}

impl WorkerAddr {
    /// The conventional loopback TCP shape.
    pub fn loopback() -> WorkerAddr {
        WorkerAddr::Tcp { host: "127.0.0.1".into() }
    }
}

/// Kills and reaps a spawned worker on drop. Every child process the tree
/// spawns lives inside one of these from the instant `spawn` returns, so
/// unwinding (a failed build, a panicking test, an `assert!` mid-query)
/// reaps the process instead of leaking it to poison later suites.
pub struct ReapGuard {
    child: Option<Child>,
    /// Filesystem residue (unix socket paths, announce files) removed
    /// after the child is reaped, so a rerun in the same directory can
    /// never adopt a dead worker's stale address.
    cleanup: Vec<PathBuf>,
}

impl ReapGuard {
    pub fn new(child: Child) -> ReapGuard {
        ReapGuard { child: Some(child), cleanup: Vec::new() }
    }

    /// Register a path to delete once the child is reaped.
    pub fn remove_on_exit(&mut self, path: PathBuf) {
        self.cleanup.push(path);
    }

    /// Disarm the guard and hand the child back (the caller now owns
    /// reaping it — and the registered paths stay put).
    pub fn disarm(mut self) -> Child {
        self.cleanup.clear();
        self.child.take().expect("armed guard")
    }

    /// Has the child already exited? Non-blocking; `None` while running.
    pub fn try_wait(&mut self) -> Option<std::process::ExitStatus> {
        self.child.as_mut().and_then(|c| c.try_wait().ok().flatten())
    }
}

impl Drop for ReapGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        // Only after the kill: removing a live worker's socket path would
        // strand it listening on an unlinked inode.
        for path in self.cleanup.drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Where a tree's nodes run.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// On threads of the driver's own process, each reached through its
    /// executor queue.
    Local,
    /// In spawned `pd-dist-worker` processes listening on sockets of the
    /// given shape.
    Processes { worker_bin: PathBuf, addr: WorkerAddr },
}

/// Everything the tree builder needs beyond the shard tables.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    pub placement: Placement,
    /// Time budget for one whole query through the tree: decremented by
    /// every node's queueing delay on the way down, enforced absolutely
    /// by every caller on the way up.
    pub budget: Duration,
    /// Spawn a replica node per shard and fail primaries over to it.
    pub replication: bool,
    /// Children per merge server (the [`crate::TreeShape`] fanout).
    pub fanout: usize,
    /// Worker threads per leaf's chunk scan (0 = auto).
    pub threads: usize,
    /// Uncompressed-cache byte budget per shard.
    pub cache_budget_per_shard: usize,
    /// Capacity (signatures) of every tree node's own result cache —
    /// leaves and merge servers alike; 0 disables node-side caching.
    pub cache_entries: usize,
    /// Rebuild epoch the tree is built at; shipped in every `Load` and
    /// `Attach` so the nodes' cache-invalidation contract starts aligned
    /// with the driver.
    pub epoch: u64,
    /// Compress RPC frames (negotiated per connection, applied down the
    /// whole tree; local links never encode).
    pub compress: bool,
    /// Use the chunk-granular metadata layers (per-chunk zone maps) for
    /// edge pruning and leaf scan seeding; off, pruning is shard-granular
    /// only. Results are identical either way.
    pub chunk_pruning: bool,
}

/// Locate the worker binary: an explicit path, the `PD_DIST_WORKER_BIN`
/// environment variable, or `pd-dist-worker` next to the current
/// executable (where cargo puts workspace binaries relative to test
/// executables in `target/<profile>/deps/`).
pub fn resolve_worker_bin(explicit: Option<&Path>) -> Result<PathBuf> {
    if let Some(path) = explicit {
        return Ok(path.to_path_buf());
    }
    if let Ok(path) = std::env::var("PD_DIST_WORKER_BIN") {
        return Ok(PathBuf::from(path));
    }
    if let Ok(exe) = std::env::current_exe() {
        for dir in exe.ancestors().skip(1).take(3) {
            let candidate = dir.join("pd-dist-worker");
            if candidate.is_file() {
                return Ok(candidate);
            }
        }
    }
    Err(Error::Data(
        "rpc transport: cannot locate the pd-dist-worker binary \
         (set RpcConfig::worker_bin or PD_DIST_WORKER_BIN, or build the \
         `pd-dist-worker` bin target)"
            .into(),
    ))
}

/// A live computation tree, its nodes local or in worker processes.
pub struct ProcessTree {
    /// `pd-tree-<pid>-<seq>`: names the temp dir of a process tree's
    /// sockets and prefixes a local tree's node addresses.
    id: String,
    /// Spawned worker processes with their addresses (for shutdown).
    processes: Vec<(Addr, ReapGuard)>,
    /// Nodes running on threads of this process.
    locals: Vec<LocalNode>,
    /// The top tree level, queried (and failed over) by the driver root.
    frontier: Vec<ChildHandle>,
    /// Every tree node's name (`l0p`, `l0r`, `m1_0`, ...), in spawn
    /// order — the name space chaos directives target.
    names: Vec<String>,
    /// The leaf level's child specs (shard, addresses, current metadata),
    /// retained so an in-place [`ProcessTree::append`] can refresh the
    /// per-shard metas and re-wire the merge levels without a respawn.
    leaf_specs: Vec<ChildSpec>,
    /// Merge servers per level (bottom-up): address + tree name. Appends
    /// re-`Attach` each one so its pruning metas and epoch track the data.
    merge_levels: Vec<Vec<(Addr, String)>>,
    /// Cumulative serialized bytes of data-bearing requests (`Load` and
    /// `Append` frames) sent into the tree — the cost an incremental
    /// append is measured against a full rebuild by.
    bytes_shipped: u64,
    fanout: usize,
    cache_entries: usize,
    budget: Duration,
    compress: bool,
    chunk_pruning: bool,
}

static TREE_SEQ: AtomicU64 = AtomicU64::new(0);

impl ProcessTree {
    /// Spawn and wire the whole tree: load one node (pair) per shard
    /// (sub-tables come from `shard_table` one at a time and are dropped
    /// after shipping), then stack merge servers until one level fits the
    /// fanout.
    pub fn build(
        shard_count: usize,
        shard_table: impl Fn(usize) -> Result<Table>,
        build: &BuildOptions,
        config: &TreeConfig,
    ) -> Result<Self> {
        let id =
            format!("pd-tree-{}-{}", std::process::id(), TREE_SEQ.fetch_add(1, Ordering::Relaxed));
        if matches!(config.placement, Placement::Processes { .. }) {
            std::fs::create_dir_all(std::env::temp_dir().join(&id))?;
        }
        let mut tree = ProcessTree {
            id,
            processes: Vec::new(),
            locals: Vec::new(),
            frontier: Vec::new(),
            names: Vec::new(),
            leaf_specs: Vec::new(),
            merge_levels: Vec::new(),
            bytes_shipped: 0,
            fanout: config.fanout.max(2),
            cache_entries: config.cache_entries,
            budget: config.budget,
            compress: config.compress,
            chunk_pruning: config.chunk_pruning,
        };
        tree.populate(shard_count, shard_table, build, config)?;
        Ok(tree)
    }

    fn populate(
        &mut self,
        shard_count: usize,
        shard_table: impl Fn(usize) -> Result<Table>,
        build: &BuildOptions,
        config: &TreeConfig,
    ) -> Result<()> {
        // Leaves: one loaded node per shard replica. The primary's Load
        // ack carries the shard's metadata summary, which every parent up
        // the tree uses to prune non-matching subtrees.
        let mut level: Vec<ChildSpec> = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let table = shard_table(shard)?;
            let mut load = Request::Load(Box::new(LoadRequest {
                shard: shard as u64,
                schema: table.schema().clone(),
                rows: table.iter_rows().collect(),
                build: build.clone(),
                threads: config.threads as u64,
                cache_budget: config.cache_budget_per_shard as u64,
                cache_entries: config.cache_entries as u64,
                epoch: config.epoch,
                name: format!("l{shard}p"),
            }));
            drop(table);
            let (primary, meta) = self.spawn_node(config, &format!("l{shard}p"), &load)?;
            let meta = meta
                .ok_or_else(|| Error::Data(format!("shard {shard}: load ack carried no meta")))?;
            let replica = if config.replication {
                // Same shard bytes, its own name — retagged in place so
                // the shipped rows are not cloned per replica.
                if let Request::Load(l) = &mut load {
                    l.name = format!("l{shard}r");
                }
                Some(self.spawn_node(config, &format!("l{shard}r"), &load)?.0)
            } else {
                None
            };
            level.push(ChildSpec::Leaf { shard: shard as u64, primary, replica, meta });
        }
        self.leaf_specs = level.clone();

        // Merge levels: while one server cannot own the whole level, group
        // it into subtrees of `fanout` children each. Each node's spec
        // accumulates the shard summaries beneath it, so pruning works at
        // any depth.
        let fanout = self.fanout;
        let mut height = 1u64;
        while level.len() > fanout {
            let mut next = Vec::with_capacity(level.len().div_ceil(fanout));
            let mut servers = Vec::with_capacity(next.capacity());
            for (i, group) in level.chunks(fanout).enumerate() {
                let metas: Vec<ShardMeta> =
                    group.iter().flat_map(|c| c.metas().iter().cloned()).collect();
                let name = format!("m{height}_{i}");
                let attach = Request::Attach(AttachRequest {
                    children: group.to_vec(),
                    compress: config.compress,
                    cache_entries: config.cache_entries as u64,
                    epoch: config.epoch,
                    name: name.clone(),
                });
                let (addr, _) = self.spawn_node(config, &name, &attach)?;
                servers.push((addr.clone(), name));
                next.push(ChildSpec::Node { addr, metas });
            }
            self.merge_levels.push(servers);
            level = next;
            height += 1;
        }
        self.frontier =
            level.into_iter().map(|spec| ChildHandle::new(spec, config.compress)).collect();
        Ok(())
    }

    /// Start one node named `name` where the placement says, then send its
    /// role-assignment request (`Load` / `Attach`) over the node's link.
    /// Returns the node's address and, for a `Load`, the shard metadata it
    /// reported.
    fn spawn_node(
        &mut self,
        config: &TreeConfig,
        name: &str,
        role: &Request,
    ) -> Result<(Addr, Option<ShardMeta>)> {
        let (addr, mut link) = match &config.placement {
            Placement::Local => {
                let node = LocalNode::spawn(&format!("{}/{name}", self.id))?;
                let addr = node.addr().clone();
                self.locals.push(node);
                (addr.clone(), Link::new(addr, self.compress))
            }
            Placement::Processes { worker_bin, addr } => {
                let client = self.spawn_process(worker_bin, addr, name)?;
                (client.addr().clone(), Link::Process(client))
            }
        };
        self.names.push(name.to_string());
        let meta = expect_ack(link.call(role, LOAD_TIMEOUT)?, "role assignment")?;
        if matches!(role, Request::Load(_)) {
            // Data-bearing shipping cost: what an append path is compared
            // against. (Attach frames are wiring, not data.)
            self.bytes_shipped += encode_frame(role, self.compress)?.len() as u64;
        }
        Ok((addr, meta))
    }

    /// Spawn one worker process named `name` and wait until it answers
    /// `Ping` on a connected client.
    fn spawn_process(
        &mut self,
        worker_bin: &Path,
        shape: &WorkerAddr,
        name: &str,
    ) -> Result<RpcClient> {
        // Decide the address story once: a unix worker listens where the
        // driver says; a tcp worker binds port 0 and reports back through
        // its announce file.
        enum Endpoint {
            At(Addr),
            Announced(PathBuf),
        }
        let dir = std::env::temp_dir().join(&self.id);
        let mut command = Command::new(worker_bin);
        let endpoint = match shape {
            WorkerAddr::Unix => {
                let path = dir.join(format!("{name}.sock"));
                // A stale socket path from a dead worker would make the
                // fresh bind fail (or worse, a poller adopt a corpse's
                // address) — clear it before spawning.
                let _ = std::fs::remove_file(&path);
                let addr = Addr::Unix(path);
                command.arg("--listen").arg(addr.to_string());
                Endpoint::At(addr)
            }
            WorkerAddr::Tcp { host } => {
                let announce = dir.join(format!("{name}.addr"));
                // Same staleness rule: an old announce file would hand
                // the poller a dead worker's port.
                let _ = std::fs::remove_file(&announce);
                command
                    .arg("--listen")
                    .arg(format!("tcp:{host}:0"))
                    .arg("--announce")
                    .arg(&announce);
                Endpoint::Announced(announce)
            }
        };
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| Error::Data(format!("spawn {}: {e}", worker_bin.display())))?;
        let mut guard = ReapGuard::new(child);
        let addr = match &endpoint {
            Endpoint::At(addr) => {
                if let Addr::Unix(path) = addr {
                    guard.remove_on_exit(path.clone());
                }
                addr.clone()
            }
            Endpoint::Announced(announce) => {
                guard.remove_on_exit(announce.clone());
                wait_for_announce(announce, &mut guard)?
            }
        };
        self.processes.push((addr.clone(), guard));
        let mut client = RpcClient::new(addr, self.compress);
        client.connect_with_retry(STARTUP_TIMEOUT)?;
        expect_ack(client.call(&Request::Ping, STARTUP_TIMEOUT)?, "ping")?;
        Ok(client)
    }

    pub fn shard_count(&self) -> usize {
        self.leaf_specs.len()
    }

    /// The end-to-end time budget every query through this tree spends.
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// Cumulative serialized bytes of data-bearing requests (`Load` +
    /// `Append`) sent into the tree since it was built, counted as frames
    /// on either link.
    pub fn shipped_bytes(&self) -> u64 {
        self.bytes_shipped
    }

    /// Stream new rows into the live tree — the in-place alternative to a
    /// full respawn. `deltas[shard]` is the dictionary-delta table for
    /// that shard (`None` = shard unchanged: nothing is shipped; the epoch
    /// rule makes the leaf drop its caches at its next query). Each delta
    /// goes to the shard's primary *and* replica (both must serve the new
    /// rows or failover would travel back in time), the primary's ack
    /// refreshes the shard's metadata, and every merge server is then
    /// re-`Attach`ed bottom-up so parent-side pruning and the epoch track
    /// the appended data. Returns the serialized request bytes shipped.
    pub fn append(&mut self, deltas: &[Option<TableDelta>], epoch: u64) -> Result<u64> {
        if deltas.len() != self.leaf_specs.len() {
            return Err(Error::Data(format!(
                "append carries {} shard deltas for {} shards",
                deltas.len(),
                self.leaf_specs.len()
            )));
        }
        let mut shipped = 0u64;
        for (shard, delta) in deltas.iter().enumerate() {
            let Some(delta) = delta else { continue };
            let request = Request::Append(Box::new(AppendRequest {
                shard: shard as u64,
                delta: delta.clone(),
                epoch,
            }));
            let frame_len = encode_frame(&request, self.compress)?.len() as u64;
            let ChildSpec::Leaf { primary, replica, meta, .. } = &mut self.leaf_specs[shard] else {
                return Err(Error::Data("append: leaf level holds a non-leaf spec".into()));
            };
            let mut link = Link::new(primary.clone(), self.compress);
            let refreshed = expect_ack(link.call(&request, LOAD_TIMEOUT)?, "append")?
                .ok_or_else(|| Error::Data(format!("shard {shard}: append ack carried no meta")))?;
            shipped += frame_len;
            if let Some(replica) = replica {
                let mut link = Link::new(replica.clone(), self.compress);
                expect_ack(link.call(&request, LOAD_TIMEOUT)?, "append")?;
                shipped += frame_len;
            }
            *meta = refreshed;
        }
        self.reattach(epoch)?;
        self.bytes_shipped += shipped;
        Ok(shipped)
    }

    /// Re-wire the merge levels bottom-up from the current leaf specs:
    /// every merge server gets a fresh `Attach` (same children grouping,
    /// same tree name, refreshed metas, new epoch — a total role reset,
    /// so its cache is dropped with the wiring), and the driver's
    /// frontier handles are rebuilt from the top level.
    fn reattach(&mut self, epoch: u64) -> Result<()> {
        let mut level = self.leaf_specs.clone();
        for servers in &self.merge_levels {
            let mut next = Vec::with_capacity(servers.len());
            for ((addr, name), group) in servers.iter().zip(level.chunks(self.fanout)) {
                let metas: Vec<ShardMeta> =
                    group.iter().flat_map(|c| c.metas().iter().cloned()).collect();
                let attach = Request::Attach(AttachRequest {
                    children: group.to_vec(),
                    compress: self.compress,
                    cache_entries: self.cache_entries as u64,
                    epoch,
                    name: name.clone(),
                });
                let mut link = Link::new(addr.clone(), self.compress);
                expect_ack(link.call(&attach, LOAD_TIMEOUT)?, "re-attach")?;
                next.push(ChildSpec::Node { addr: addr.clone(), metas });
            }
            level = next;
        }
        self.frontier =
            level.into_iter().map(|spec| ChildHandle::new(spec, self.compress)).collect();
        Ok(())
    }

    /// Every tree node's name, in spawn order — the targets a
    /// [`crate::ChaosModel`] draws faults over.
    pub fn node_names(&self) -> &[String] {
        &self.names
    }

    /// Run one query through the tree: fan out to the frontier, fold in
    /// frontier order. `epoch` is the driver's current rebuild epoch,
    /// which every node checks against its result cache before answering;
    /// `hedge_micros` is the hedge delay for leaf replica races (unread
    /// without replicas); `chaos` carries this query's injected faults
    /// down the whole tree.
    pub fn query(
        &self,
        analyzed: &AnalyzedQuery,
        epoch: u64,
        hedge_micros: u64,
        chaos: Vec<ChaosDirective>,
    ) -> Result<SubtreeAnswer> {
        let request = QueryRequest {
            query: analyzed.clone(),
            budget: self.budget,
            hedge_micros,
            epoch,
            chaos,
            chunk_pruning: self.chunk_pruning,
        };
        fan_out(&self.frontier, &request)
    }
}

impl Drop for ProcessTree {
    fn drop(&mut self) {
        // Polite first: a Shutdown request lets workers exit cleanly.
        for (addr, _) in &self.processes {
            let mut client = RpcClient::new(addr.clone(), false);
            let _ = client.call(&Request::Shutdown, Duration::from_millis(200));
        }
        // Then force: dropping the guards kills and reaps whatever process
        // is left — a wedged worker must not leak past its cluster — and
        // local nodes shut down and join their threads.
        self.processes.clear();
        self.locals.clear();
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join(&self.id));
    }
}

/// Poll for a TCP worker's announce file (written atomically after bind).
/// A worker that dies before announcing (bad host, port in use) fails the
/// build immediately with its exit status instead of running out the full
/// startup timeout once per worker.
fn wait_for_announce(path: &Path, worker: &mut ReapGuard) -> Result<Addr> {
    let deadline = Instant::now() + STARTUP_TIMEOUT;
    // Jittered exponential backoff instead of a fixed busy-poll: dozens of
    // workers spawning at once must not all hammer the filesystem on the
    // same 2ms beat, and an overall deadline still bounds the wait.
    let mut backoff = Duration::from_millis(1);
    let mut jitter = Rng::seed_from_u64(fx_hash64(path.to_string_lossy().as_ref()));
    loop {
        match std::fs::read_to_string(path) {
            Ok(contents) if !contents.trim().is_empty() => {
                return Addr::parse(contents.trim());
            }
            _ => {
                if let Some(status) = worker.try_wait() {
                    return Err(Error::Data(format!(
                        "rpc: worker exited ({status}) before announcing its address \
                         (bad --listen host or port?)"
                    )));
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(Error::Data(format!(
                        "rpc: worker never announced its address at {}",
                        path.display()
                    )));
                }
                backoff_sleep(&mut backoff, BACKOFF_CAP, left, &mut jitter);
            }
        }
    }
}

fn expect_ack(response: Response, what: &str) -> Result<Option<ShardMeta>> {
    match response {
        Response::Ok => Ok(None),
        Response::Loaded(meta) => Ok(Some(*meta)),
        Response::Err(message) => Err(Error::Data(format!("worker {what} failed: {message}"))),
        Response::Fault(fault) => Err(Error::Rpc(fault)),
        Response::Malformed(message) => {
            Err(Error::Data(format!("worker rejected the {what} frame: {message}")))
        }
        Response::Answer(_) => {
            Err(Error::Data(format!("worker sent an answer to a {what} request")))
        }
    }
}

//! The worker process: a tree node served over sockets.
//!
//! `pd-dist-worker --listen <unix:path | tcp:host:port>` binds a socket in
//! either shape and serves the [`crate::rpc`] protocol to the node of
//! [`crate::node`] — the same leaf/merge-server code a local tree runs on
//! threads. With `--listen tcp:host:0` the OS picks the port;
//! `--announce <file>` makes the worker write its resolved address there
//! (atomically, via rename) so the spawner can find it.
//!
//! **Compression mirror.** The worker has no compression config of its
//! own: it compresses a response exactly when the request frame advertised
//! `FRAME_FLAG_COMPRESS_OK`, and (as a merge server) compresses frames to
//! its children when the `Attach` said to — the per-connection negotiation
//! travels down the tree with the wiring.
//!
//! **One executor, many connections.** Connections are accepted and read
//! on their own threads, but every request funnels through the node's
//! single executor, whose queue delay is the process's *real* queueing.
//! The connection thread carries out the chaos verdict for its own query:
//! it sleeps off an injected delay *after* the executor has moved on, and
//! wrecks the reply (reset or torn frame) on the wire. A chaos kill ends
//! the executor, and the process with it.

use crate::node::{run_executor, ReplyTo, Wake, WireFault, Work};
use crate::rpc::{
    encode_frame, read_frame_negotiated, write_frame, Addr, Listener, Request, Response, Stream,
};
use pd_common::{Error, Result};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Instant;

/// Entry point for the `pd-dist-worker` binary: parse the listen address,
/// serve forever (until a `Shutdown` request or a fatal error). Returns
/// the process exit code.
pub fn worker_main() -> i32 {
    let mut args = std::env::args().skip(1);
    let mut listen = None;
    let mut announce = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `--socket <path>` is the legacy unix-only spelling.
            "--socket" => listen = args.next().map(|p| format!("unix:{p}")),
            "--listen" => listen = args.next(),
            "--announce" => announce = args.next(),
            other => {
                eprintln!("pd-dist-worker: unknown argument `{other}`");
                return 2;
            }
        }
    }
    let Some(listen) = listen else {
        eprintln!("usage: pd-dist-worker --listen <unix:path|tcp:host:port> [--announce <file>]");
        return 2;
    };
    let addr = match Addr::parse(&listen) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("pd-dist-worker: {e}");
            return 2;
        }
    };
    match serve(&addr, announce.as_deref().map(Path::new)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("pd-dist-worker: {e}");
            1
        }
    }
}

/// The temp file an announce is staged in before its atomic rename. The
/// name keeps the *full* announce file name (two workers announcing to
/// `w.1` and `w.2` must not both stage in `w.tmp`, as `with_extension`
/// would have it) and appends the pid (two processes told to announce to
/// the *same* file must not stage in the same temp file either).
fn announce_tmp(announce: &Path) -> PathBuf {
    let name = announce.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    announce.with_file_name(format!("{name}.tmp.{}", std::process::id()))
}

/// Bind `addr` and serve the protocol, announcing the resolved address
/// (TCP: with the kernel-assigned port) to `announce` if given.
pub fn serve(addr: &Addr, announce: Option<&Path>) -> Result<()> {
    let listener = Listener::bind(addr)?;
    let local = listener.local_addr()?;
    if let Some(announce) = announce {
        // Atomic announce: spawners poll for the file, so it must never be
        // observable half-written.
        let tmp = announce_tmp(announce);
        std::fs::write(&tmp, local.to_string())?;
        std::fs::rename(&tmp, announce)?;
    }
    let (queue, requests) = mpsc::channel::<Work>();
    std::thread::Builder::new()
        .name("pd-worker-exec".into())
        .spawn(move || {
            run_executor(requests);
            // The executor only returns on a chaos kill (`Shutdown` is
            // answered on the connection thread, and this function keeps
            // the queue open): the process dies with it, mid-query.
            std::process::exit(9);
        })
        .map_err(|e| Error::Data(format!("spawn executor: {e}")))?;

    loop {
        let stream = listener.accept().map_err(|e| Error::Data(format!("accept: {e}")))?;
        let queue = queue.clone();
        std::thread::Builder::new()
            .name("pd-worker-conn".into())
            .spawn(move || connection_loop(stream, queue))
            .map_err(|e| Error::Data(format!("spawn connection: {e}")))?;
    }
}

/// Read frames off one connection until EOF, routing requests through the
/// executor queue. `Ping` answers inline (the startup handshake must not
/// wait behind a long import); `Shutdown` acks and exits the process.
/// Responses are compressed exactly when the request frame advertised
/// that compressed replies are welcome.
fn connection_loop(mut stream: Stream, queue: mpsc::Sender<Work>) {
    loop {
        let (request, compress_reply) = match read_frame_negotiated::<Request>(&mut stream) {
            Ok(Some(negotiated)) => negotiated,
            Ok(None) => return, // peer closed
            Err(e) => {
                // Corrupt frame: NAK and drop the connection — framing is
                // unrecoverable once desynchronized, and the `Malformed`
                // tag tells a leaf's parent to fail over (fresh bytes to
                // the replica) rather than abort the query.
                let _ = write_frame(&mut stream, &Response::Malformed(e.to_string()), false);
                return;
            }
        };
        match request {
            Request::Ping => {
                if write_frame(&mut stream, &Response::Ok, compress_reply).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                let _ = write_frame(&mut stream, &Response::Ok, compress_reply);
                std::process::exit(0);
            }
            request => {
                let (reply, wake) = mpsc::channel();
                let work = Work { request, reply: ReplyTo::new(reply), enqueued: Instant::now() };
                if queue.send(work).is_err() {
                    return; // executor gone; process is doomed anyway
                }
                let Ok(Wake::Reply(response, mode)) = wake.recv() else { return };
                if !mode.lag.is_zero() {
                    // A chaos delay: this query's answer is late from the
                    // caller's point of view, but the executor is already
                    // free — the sleep is this connection's alone.
                    std::thread::sleep(mode.lag);
                }
                match mode.fault {
                    // Chaos reset: vanish without a reply — the parent
                    // sees the connection die mid-conversation.
                    Some(WireFault::Reset) => return,
                    // Chaos torn frame: half the real reply, then gone —
                    // the parent's decode sees truncated bytes.
                    Some(WireFault::Torn) => {
                        if let Ok(frame) = encode_frame(&response, compress_reply) {
                            let _ = stream.write_all(&frame[..frame.len() / 2]);
                            let _ = stream.flush();
                        }
                        return;
                    }
                    None => {}
                }
                if write_frame(&mut stream, &response, compress_reply).is_err() {
                    // Peer gave up (budget expiry or a hedge loss): drop
                    // the connection; the answer is stale by definition.
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_tmp_paths_never_collide() {
        // The regression: `with_extension("tmp")` maps both `w.1` and
        // `w.2` to `w.tmp`, so two workers announcing side by side clobber
        // each other's staging file.
        let a = announce_tmp(Path::new("/tmp/tree/w.1"));
        let b = announce_tmp(Path::new("/tmp/tree/w.2"));
        assert_ne!(a, b, "announce files differing only by extension must stage separately");
        assert_eq!(a.parent(), Some(Path::new("/tmp/tree")), "staging stays in the same dir");
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("w.1.tmp."), "full original name is kept: {name}");
        assert!(
            name.ends_with(&std::process::id().to_string()),
            "pid-unique across processes: {name}"
        );
    }
}

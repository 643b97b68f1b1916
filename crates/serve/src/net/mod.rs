//! TCP / Unix-domain-socket front-end for the micro-batching server.
//!
//! A std-only network layer (no external runtime): each listener runs a
//! thread-per-connection accept loop, and each connection runs one
//! thread, its reader. The reader parses frames, submits queries through
//! [`crate::Server::submit_packed`] and writes every reply itself.
//!
//! **Buffered ingest.** The reader pulls bytes into a per-connection
//! user-space buffer, one `read` per refill, and parses frames out of it:
//! a window of pipelined frames costs one syscall, not three per frame.
//! A payload larger than the buffer is read straight into the query
//! words.
//!
//! **Zero-repack ingest.** The QUERY payload *is* the
//! [`hd_linalg::QueryBatchBuilder`] row layout: `count` rows of
//! `words_per_query` packed little-endian `u64`s. The reader hands the
//! whole payload to [`crate::Server::submit_packed`], which lands it in
//! the pending batch as one word copy under one queue-lock acquisition.
//!
//! **Settle points.** The reader keeps the replies it owes (answers,
//! HELLO_ACK, PONG, its grace PING, error frames, its GOAWAY) in an
//! outbox, in frame order, and settles the outbox:
//! * right before every socket read. The buffer reads only once it holds
//!   no more bytes, so every frame at hand has been submitted by then;
//! * whenever it holds [`WireConfig::conn_in_flight`] unanswered queries;
//! * once on exit, so a final error frame follows the answers before it.
//!
//! A settle flushes the server's pending batch inline (an *ingest
//! flush*, counted in [`crate::ServerStats::ingest_flushes`]), waits on
//! each answer in order, and writes every reply to the socket at once.
//! Pipelined frames that arrive together still coalesce into one batch,
//! while a lone frame is answered at once, and its round trip crosses
//! one server thread. A reader waits only after its ingest flush has
//! taken its queries, so the [`crate::ServeConfig::max_delay`] deadline
//! never applies to wire traffic. The connection's next frames wait in the
//! socket until the settle has written.
//!
//! **Backpressure.** Two independent bounds:
//! * per server — [`crate::ServeConfig::max_in_flight`] sheds whole
//!   frames at admission with a typed `OVERLOADED` error frame;
//! * per connection — [`WireConfig::conn_in_flight`] bounds queries
//!   submitted but not yet written back: at the bound the reader settles
//!   before it reads on. A peer that does not read its answers stalls the
//!   reader's write, and TCP flow control carries that back to the peer.
//!
//! **Malformed input never panics a worker.** Recoverable violations
//! (wrong dimensionality, `k == 0`, unknown model key, zero-query
//! frames, query ids past `u64::MAX - 1`, shed frames) answer with a
//! typed error frame and keep the connection open; unrecoverable ones
//! (bad magic, unknown frame type, oversized declarations) answer with a
//! final error frame and close — after every already-submitted query's
//! response has been written. Queries in flight are never lost to a
//! later bad frame.

mod client;
mod resilient;
pub mod wire;

pub use client::{WireClient, WireEvent};
pub use resilient::{ResilientClient, ResilientConfig, ResilientError, RetryLedger, Target};
pub use wire::{
    code, serve_error_code, ErrorBody, Header, WireError, CONNECTION_ERROR_ID, FLAG_DEGRADED,
    FLAG_LIVENESS, FT_ERROR, FT_GOAWAY, FT_HELLO, FT_HELLO_ACK, FT_PING, FT_PONG, FT_QUERY,
    FT_RESPONSE, GOAWAY_NONE, HEADER_LEN, MAGIC,
};

use crate::{PendingTopK, ServeError, Server};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wire front-end tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Largest query count a single QUERY frame may declare. A frame
    /// over the limit is connection-fatal ([`code::OVERSIZED_FRAME`]):
    /// its declared payload cannot be trusted enough to drain.
    pub max_frame_queries: u32,
    /// Per-connection bound on queries submitted but not yet written
    /// back. The reader blocks at the bound (TCP flow control carries
    /// the backpressure to the client).
    pub conn_in_flight: usize,
    /// Sets `TCP_NODELAY` on accepted TCP connections (response frames
    /// are small; Nagle batching would add artificial latency under the
    /// micro-batcher's own deadline).
    pub nodelay: bool,
    /// Per-connection liveness deadline. A connection that sends no
    /// bytes for this long is probed with a PING and reaped after one
    /// more period of silence (grace == `idle_timeout`, so an idle or
    /// slow-loris peer holds a reader thread for at most
    /// `idle_timeout + grace`). A peer stalled *mid-frame* is reaped on
    /// the same budget without a PING — it owes us bytes, not liveness.
    /// `None` disables reaping (connections may pin reader threads
    /// forever; only sensible for trusted co-located clients).
    pub idle_timeout: Option<Duration>,
    /// Accept-gate on concurrently served connections. A connect beyond
    /// the limit is answered with a typed [`code::CONNECTION_LIMIT`]
    /// error frame and closed before a reader thread is spawned, so a
    /// connection flood degrades into polite rejections instead of
    /// unbounded thread growth.
    pub max_connections: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_frame_queries: 4096,
            conn_in_flight: 4096,
            nodelay: true,
            idle_timeout: Some(Duration::from_secs(60)),
            max_connections: 1024,
        }
    }
}

impl WireConfig {
    fn validate(&self) -> crate::Result<()> {
        if self.max_frame_queries == 0 || self.conn_in_flight == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "max_frame_queries and conn_in_flight must be positive".into(),
            });
        }
        if self.idle_timeout.is_some_and(|t| t.is_zero()) {
            return Err(ServeError::InvalidConfig {
                reason: "idle_timeout must be positive (use None to disable reaping)".into(),
            });
        }
        if self.max_connections == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "max_connections must be positive (the front-end could accept nothing)"
                    .into(),
            });
        }
        Ok(())
    }
}

/// A duplex byte stream of either transport. Everything above this enum
/// is transport-agnostic.
#[derive(Debug)]
pub(crate) enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Shuts down both directions, unblocking any thread parked in a
    /// read or write on a clone of this stream.
    pub(crate) fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => drop(s.shutdown(std::net::Shutdown::Both)),
            #[cfg(unix)]
            Stream::Unix(s) => drop(s.shutdown(std::net::Shutdown::Both)),
        }
    }

    /// Bounds every blocking read on this stream (and its clones sharing
    /// the socket): a read that sees no bytes for `timeout` returns a
    /// [`std::io::ErrorKind::WouldBlock`] / `TimedOut` error instead of
    /// parking forever.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Bounds every blocking write on this stream and its clones, as
    /// [`Stream::set_read_timeout`] bounds reads.
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(timeout),
        }
    }
}

/// Whether an i/o error is a read-timeout expiry (`set_read_timeout`
/// surfaces as `WouldBlock` on Unix sockets and `TimedOut` on others).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// How a listener's accept loop is unblocked at shutdown: a throwaway
/// self-connection.
enum AcceptWaker {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl AcceptWaker {
    fn wake(&self) {
        match self {
            AcceptWaker::Tcp(addr) => drop(TcpStream::connect(addr)),
            #[cfg(unix)]
            AcceptWaker::Unix(path) => drop(UnixStream::connect(path)),
        }
    }
}

/// Per-connection state shared between the reader and the front-end's
/// drain/shutdown machinery.
struct ConnState {
    /// Id of the last query this connection accepted for answering
    /// ([`GOAWAY_NONE`] until the first one) — what a GOAWAY frame
    /// reports so the client knows which submissions will be answered.
    last_accepted: AtomicU64,
    /// Accepted answers not yet written back to the socket. Only the
    /// reader changes it: up at submission, back to zero (release) once
    /// its settle has written them or lost them with the connection.
    /// Drain waits for this to hit zero on every connection.
    in_flight: AtomicU64,
    /// Set by whichever of the reader and drain announces the drain's
    /// GOAWAY first, so the connection gets it once.
    goaway_sent: AtomicBool,
    /// The write side. The reader writes each settle's replies through
    /// it and drain its GOAWAY; the lock keeps their frames whole.
    out: Mutex<Stream>,
}

impl ConnState {
    fn new(out: Stream) -> Self {
        ConnState {
            last_accepted: AtomicU64::new(GOAWAY_NONE),
            in_flight: AtomicU64::new(0),
            goaway_sent: AtomicBool::new(false),
            out: Mutex::new(out),
        }
    }
}

/// One live connection in the front-end's registry.
struct ConnEntry {
    /// A clone of the socket, force-closed at shutdown without taking the
    /// `out` lock (a reader blocked writing to a peer that stopped
    /// reading holds it).
    stream: Stream,
    state: Arc<ConnState>,
    handle: JoinHandle<()>,
}

impl ConnEntry {
    /// Writes the drain's GOAWAY unless the reader has announced it, and
    /// returns whether the connection has it. `false` is retried at the
    /// next poll: while the reader holds the output, its write may be
    /// blocked on a peer that stopped reading, and drain must not wait
    /// past its deadline for it.
    fn announce_drain(&self, remaining: Duration) -> bool {
        let mut out = match self.state.out.try_lock() {
            Ok(out) => out,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return false,
        };
        if self.state.goaway_sent.swap(true, Ordering::Relaxed) {
            return true;
        }
        // A full send buffer could block even this one header: bound the
        // write by the deadline. The reader cannot write while the lock
        // is held, so the timeout applies to this write alone.
        let _ = self.stream.set_write_timeout(Some(remaining.max(Duration::from_millis(1))));
        let last_accepted = self.state.last_accepted.load(Ordering::Acquire);
        let written = wire::write_goaway(&mut *out, last_accepted).is_ok();
        let _ = self.stream.set_write_timeout(None);
        if !written {
            // A frame cut short leaves the stream unusable.
            self.stream.shutdown();
        }
        written
    }
}

struct WireShared {
    server: Arc<Server>,
    config: WireConfig,
    shutdown: AtomicBool,
    /// Set by [`WireServer::drain`]: stop accepting QUERY frames and
    /// answer them (and fresh connects) with GOAWAY while in-flight
    /// answers flush.
    draining: AtomicBool,
    /// Live connections, force-closed at shutdown. Entries of finished
    /// connections are pruned opportunistically.
    conns: Mutex<Vec<ConnEntry>>,
    wakers: Mutex<Vec<AcceptWaker>>,
    /// Unix socket paths to unlink at shutdown.
    #[cfg(unix)]
    uds_paths: Mutex<Vec<PathBuf>>,
}

/// The socket front-end: accepts TCP and/or Unix-domain connections and
/// serves the wire protocol over an inner [`Server`].
///
/// One `WireServer` can run several listeners at once (e.g. a TCP port
/// for remote clients and a UDS path for co-located ones); every
/// connection feeds the same micro-batcher, so cross-connection traffic
/// coalesces into shared flush cycles.
///
/// # Example
///
/// ```no_run
/// use hd_serve::net::{WireClient, WireServer};
/// use hd_serve::{Searchable, ServeConfig, Server};
/// use hd_linalg::{BitVector, SearchMemory};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let memory = SearchMemory::from_rows(&vec![BitVector::zeros(256); 4])?;
/// let server = Arc::new(Server::start(
///     Arc::new(memory) as Arc<dyn Searchable>,
///     ServeConfig::default(),
/// )?);
/// let wire = WireServer::start(Arc::clone(&server), Default::default())?;
/// let addr = wire.listen_tcp("127.0.0.1:0")?; // ephemeral port
/// let mut client = WireClient::connect_tcp(addr)?;
/// let ids = client.send_queries(&[BitVector::zeros(256)], 1)?;
/// let event = client.recv()?;
/// # Ok(())
/// # }
/// ```
pub struct WireServer {
    shared: Arc<WireShared>,
    accept_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("config", &self.shared.config)
            .field("shutdown", &self.shared.shutdown.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl WireServer {
    /// Creates a front-end over `server` with no listeners yet; add them
    /// with [`WireServer::listen_tcp`] / [`WireServer::listen_uds`].
    ///
    /// The front-end borrows the server: shutting the front-end down
    /// closes sockets but leaves `server` running for in-process
    /// callers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero limits in
    /// `config`.
    pub fn start(server: Arc<Server>, config: WireConfig) -> crate::Result<Self> {
        config.validate()?;
        Ok(WireServer {
            shared: Arc::new(WireShared {
                server,
                config,
                shutdown: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                conns: Mutex::new(Vec::new()),
                wakers: Mutex::new(Vec::new()),
                #[cfg(unix)]
                uds_paths: Mutex::new(Vec::new()),
            }),
            accept_threads: Mutex::new(Vec::new()),
        })
    }

    /// Binds a TCP listener on `addr` and spawns its accept loop.
    /// Returns the bound address — bind to port 0 for an ephemeral port.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] wrapping bind/spawn
    /// failures, or [`ServeError::Shutdown`] after shutdown.
    pub fn listen_tcp<A: ToSocketAddrs>(&self, addr: A) -> crate::Result<SocketAddr> {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(ServeError::Shutdown);
        }
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::InvalidConfig {
            reason: format!("failed to bind TCP listener: {e}"),
        })?;
        let local = listener.local_addr().map_err(|e| ServeError::InvalidConfig {
            reason: format!("failed to resolve bound TCP address: {e}"),
        })?;
        self.shared
            .wakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(AcceptWaker::Tcp(local));
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("hd-wire-tcp-{}", local.port()))
            .spawn(move || accept_loop(&shared, listener))
            .map_err(|e| ServeError::InvalidConfig {
                reason: format!("failed to spawn accept thread: {e}"),
            })?;
        self.accept_threads.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
        Ok(local)
    }

    /// Binds a Unix-domain listener on `path` (removing a stale socket
    /// file left by a previous process) and spawns its accept loop. The
    /// socket file is unlinked at shutdown.
    ///
    /// # Errors
    ///
    /// As [`WireServer::listen_tcp`].
    #[cfg(unix)]
    pub fn listen_uds<P: Into<PathBuf>>(&self, path: P) -> crate::Result<()> {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(ServeError::Shutdown);
        }
        let path = path.into();
        // A stale socket file from a crashed predecessor would fail the
        // bind; only ever remove sockets, not regular files.
        if let Ok(meta) = std::fs::symlink_metadata(&path) {
            use std::os::unix::fs::FileTypeExt;
            if meta.file_type().is_socket() {
                let _ = std::fs::remove_file(&path);
            }
        }
        let listener = UnixListener::bind(&path).map_err(|e| ServeError::InvalidConfig {
            reason: format!("failed to bind UDS listener on {}: {e}", path.display()),
        })?;
        let shared = Arc::clone(&self.shared);
        self.shared
            .wakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(AcceptWaker::Unix(path.clone()));
        self.shared.uds_paths.lock().unwrap_or_else(PoisonError::into_inner).push(path);
        let handle = std::thread::Builder::new()
            .name("hd-wire-uds".into())
            .spawn(move || accept_loop_uds(&shared, listener))
            .map_err(|e| ServeError::InvalidConfig {
                reason: format!("failed to spawn accept thread: {e}"),
            })?;
        self.accept_threads.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
        Ok(())
    }

    /// Live connections currently registered. Finished connections
    /// (disconnected, reaped for idling, or fatally errored) are pruned
    /// before counting.
    pub fn connections(&self) -> usize {
        let mut conns = self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
        conns.retain(|c| !c.handle.is_finished());
        conns.len()
    }

    /// Whether [`WireServer::drain`] has begun (or completed).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Gracefully drains the front-end, then shuts it down.
    ///
    /// In order: (1) fresh connects are answered with a GOAWAY frame and
    /// closed, (2) every live connection is sent a GOAWAY carrying the
    /// id of the last query it accepted — everything up to that id will
    /// still be answered, everything after it was never accepted and
    /// must be retried elsewhere, (3) QUERY frames arriving after the
    /// drain began are not submitted; their payloads are consumed and
    /// answered with (another) GOAWAY, (4) each connection's reader
    /// writes its in-flight answers at its next settle (see the module
    /// docs). Once every accepted answer is written — or `deadline`
    /// expires — the front-end shuts down exactly like
    /// [`WireServer::shutdown`].
    ///
    /// Returns `true` when every accepted in-flight answer was flushed
    /// before the deadline, `false` when the deadline cut the flush
    /// short (only possible if a peer stops reading its answers or the
    /// deadline is shorter than the micro-batcher's flush latency).
    /// Idempotent with [`WireServer::shutdown`]; a repeated call returns
    /// `true` immediately.
    pub fn drain(&self, deadline: Duration) -> bool {
        let start = Instant::now();
        self.shared.draining.store(true, Ordering::SeqCst);
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return true; // already shut down: nothing left to flush
        }
        let mut flushed = false;
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            let mut pending = 0u64;
            {
                let mut conns = self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
                conns.retain(|c| !c.handle.is_finished());
                for conn in conns.iter() {
                    pending += conn.state.in_flight.load(Ordering::Acquire);
                    // Tell the peer (once) that this connection stops
                    // accepting queries. Drain writes the GOAWAY itself:
                    // the reader may sit in an idle read for up to
                    // `idle_timeout` before it would.
                    if !conn.state.goaway_sent.load(Ordering::Relaxed)
                        && !conn.announce_drain(deadline.saturating_sub(start.elapsed()))
                    {
                        pending += 1; // not announced yet
                    }
                }
            }
            if pending == 0 {
                flushed = true;
                break;
            }
            if start.elapsed() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1).min(deadline));
        }
        self.shutdown();
        flushed
    }

    /// Shuts the front-end down: stops accepting, force-closes every
    /// connection's socket, joins all connection and accept threads, and
    /// unlinks UDS socket files. In-flight queries are still answered by
    /// the inner server (their responses are written if the peer is
    /// still reading). The inner [`Server`] itself keeps running — it
    /// belongs to the caller. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loops with throwaway self-connections, then
        // join them so no new connections register afterwards.
        for waker in self.shared.wakers.lock().unwrap_or_else(PoisonError::into_inner).drain(..) {
            waker.wake();
        }
        for handle in self.accept_threads.lock().unwrap_or_else(PoisonError::into_inner).drain(..) {
            let _ = handle.join();
        }
        let conns: Vec<ConnEntry> =
            self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect();
        for conn in &conns {
            conn.stream.shutdown();
        }
        for conn in conns {
            let _ = conn.handle.join();
        }
        #[cfg(unix)]
        for path in self.shared.uds_paths.lock().unwrap_or_else(PoisonError::into_inner).drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<WireShared>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if shared.config.nodelay {
                    let _ = stream.set_nodelay(true);
                }
                register_connection(shared, Stream::Tcp(stream));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                // Transient accept errors (EMFILE, aborted handshakes)
                // must not kill the listener.
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(unix)]
fn accept_loop_uds(shared: &Arc<WireShared>, listener: UnixListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                register_connection(shared, Stream::Unix(stream));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::yield_now();
            }
        }
    }
}

/// Accept-gates a fresh connection, then spawns its reader and
/// registers the entry for forced shutdown and drain broadcasts.
///
/// Gate order: a draining front-end answers with GOAWAY and closes
/// (nothing was accepted on this connection, so [`GOAWAY_NONE`]); a full
/// front-end ([`WireConfig::max_connections`]) answers with a typed
/// [`code::CONNECTION_LIMIT`] error frame and closes. Both answers are
/// written on the accept thread — the rejected socket never costs a
/// reader thread. A connection whose clone or spawn fails is simply
/// dropped (the client sees a closed socket).
fn register_connection(shared: &Arc<WireShared>, mut stream: Stream) {
    if shared.draining.load(Ordering::Relaxed) {
        let _ = wire::write_goaway(&mut stream, GOAWAY_NONE);
        let _ = stream.flush();
        stream.shutdown();
        return;
    }
    // The registry lock is held from the gate's count to the push: with
    // several listeners, their accept threads could otherwise both pass
    // the gate for the last free slot.
    let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
    // Reap finished connections so the registry doesn't grow with
    // churn and the gate counts only live peers.
    conns.retain(|c| !c.handle.is_finished());
    if conns.len() >= shared.config.max_connections {
        drop(conns); // don't hold the registry lock across a socket write
        let _ = wire::write_error(
            &mut stream,
            CONNECTION_ERROR_ID,
            code::CONNECTION_LIMIT,
            &format!(
                "server at its connection limit ({}); retry later",
                shared.config.max_connections
            ),
        );
        let _ = stream.flush();
        stream.shutdown();
        return;
    }
    let Ok(registry_half) = stream.try_clone() else { return };
    let Ok(out) = stream.try_clone() else { return };
    let state = Arc::new(ConnState::new(out));
    let conn_shared = Arc::clone(shared);
    let conn_state = Arc::clone(&state);
    let Ok(handle) = std::thread::Builder::new()
        .name("hd-wire-conn".into())
        .spawn(move || connection_reader(&conn_shared, stream, &conn_state))
    else {
        return;
    };
    conns.push(ConnEntry { stream: registry_half, state, handle });
}

/// A reply the reader owes its peer. The outbox holds them in frame
/// order, which is the order they are written in.
enum Reply {
    HelloAck,
    Answer {
        id: u64,
        pending: PendingTopK,
    },
    Error {
        id: u64,
        code: u16,
        message: String,
    },
    /// Server-initiated liveness probe (idle-timeout grace).
    Ping {
        nonce: u64,
    },
    /// Echo of a client PING.
    Pong {
        nonce: u64,
    },
    /// Drain announcement, stamped with the connection's last-accepted id
    /// when it is written.
    GoAway,
}

/// The connection's thread: reads frames until the connection ends (on
/// disconnect, fatal protocol error, idle-timeout reaping, a failed
/// write or forced socket shutdown), then settles once more, so every
/// in-flight query's response and a final error frame are written in
/// frame order, and closes the socket.
fn connection_reader(shared: &WireShared, mut stream: Stream, state: &ConnState) {
    if stream.set_read_timeout(shared.config.idle_timeout).is_ok() {
        let socket = IngestSocket {
            stream: &mut stream,
            server: &shared.server,
            state,
            outbox: Vec::new(),
            bytes: Vec::new(),
        };
        let mut ingest = BufReader::with_capacity(INGEST_BUFFER, socket);
        read_frames(shared, &mut ingest, state);
        let _ = ingest.get_mut().settle();
    }
    // Unblock a peer still writing into a connection we abandoned.
    stream.shutdown();
}

/// Bytes a connection's reader pulls from its socket per refill: a full
/// window of the pipelined frames typical clients send. A payload larger
/// than this bypasses the buffer.
const INGEST_BUFFER: usize = 64 << 10;

/// The socket under a connection's read buffer, with the replies the
/// reader owes. The buffer only reads from the socket once every buffered
/// byte has been parsed — every complete frame at hand is submitted by
/// then — so each read first settles the outbox (see the module docs).
struct IngestSocket<'a> {
    stream: &'a mut Stream,
    server: &'a Server,
    state: &'a ConnState,
    /// Replies owed, in frame order.
    outbox: Vec<Reply>,
    /// The outbox's frames, encoded by a settle (kept for its capacity).
    bytes: Vec<u8>,
}

impl IngestSocket<'_> {
    /// Settles the outbox: runs the ingest flush, waits on each answer in
    /// order with the output unlocked, then writes every reply under one
    /// lock acquisition. The answers leave `in_flight` whether the write
    /// reached the socket or failed, since a failed write loses the
    /// connection.
    fn settle(&mut self) -> std::io::Result<()> {
        self.server.flush_pending();
        if self.outbox.is_empty() {
            return Ok(());
        }
        let (server, state, bytes) = (self.server, self.state, &mut self.bytes);
        bytes.clear();
        for reply in self.outbox.drain(..) {
            let encoded = match reply {
                Reply::HelloAck => {
                    let clamp = |v: usize| u32::try_from(v).unwrap_or(u32::MAX);
                    let snapshot = server.registry().snapshot();
                    wire::write_hello_ack(
                        bytes,
                        FLAG_LIVENESS,
                        clamp(server.dim()),
                        clamp(snapshot.model().rows()),
                        snapshot.id(),
                    )
                }
                Reply::Answer { id, pending } => match pending.wait() {
                    Ok(hits) => wire::write_response(bytes, id, &hits),
                    Err(e) => wire::write_error(bytes, id, serve_error_code(&e), &e.to_string()),
                },
                Reply::Error { id, code, message } => wire::write_error(bytes, id, code, &message),
                Reply::Ping { nonce } => wire::write_ping(bytes, nonce),
                Reply::Pong { nonce } => wire::write_pong(bytes, nonce),
                Reply::GoAway => {
                    wire::write_goaway(bytes, state.last_accepted.load(Ordering::Acquire))
                }
            };
            encoded.expect("encoding into a Vec cannot fail");
        }
        let written = state.out.lock().unwrap_or_else(PoisonError::into_inner).write_all(bytes);
        state.in_flight.store(0, Ordering::Release);
        written
    }
}

impl Read for IngestSocket<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // A failed write ends the connection. As `Other`, the header
        // reader takes it for a close, never for an idle timeout.
        self.settle().map_err(std::io::Error::other)?;
        self.stream.read(buf)
    }
}

/// A connection's buffered read side.
type Ingest<'a> = BufReader<IngestSocket<'a>>;

/// Outcome of one budgeted header read (see [`read_header_budgeted`]).
enum HeaderRead {
    /// A complete, magic-valid header.
    Frame(Header),
    /// The read timed out with zero header bytes received: the
    /// connection is idle at a frame boundary (PING-able).
    Idle,
    /// The peer stalled or dribbled mid-header past the liveness budget
    /// (slow-loris): reap without a PING — the peer owes bytes.
    Stalled,
    /// Disconnect (clean EOF, reset, or forced shutdown).
    Closed,
    /// A complete header with the wrong magic.
    BadMagic(String),
}

/// Reads one frame header under the connection's liveness budget.
///
/// Unlike `read_exact`, partial progress survives a read timeout, so a
/// slow-but-live peer is never desynchronized by the probe: either the
/// full header eventually arrives ([`HeaderRead::Frame`]), or the caller
/// learns exactly what state the connection is in. Header bytes already
/// buffered count as progress the moment they are parsed. Total time
/// mid-header is bounded by `2 × idle` (the same `idle_timeout + grace`
/// budget an idle connection gets), which also caps a byte-at-a-time
/// slow-loris.
fn read_header_budgeted(stream: &mut impl Read, idle: Option<Duration>) -> HeaderRead {
    let mut buf = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    let mut started: Option<Instant> = None;
    while filled < HEADER_LEN {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return HeaderRead::Closed,
            Ok(n) => {
                started.get_or_insert_with(Instant::now);
                filled += n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => match started {
                // A full idle period with nothing at a frame boundary.
                None => return HeaderRead::Idle,
                // A full idle period of silence mid-header.
                Some(_) => return HeaderRead::Stalled,
            },
            Err(_) => return HeaderRead::Closed,
        }
        if let (Some(t), Some(idle)) = (started, idle) {
            if filled < HEADER_LEN && t.elapsed() > idle.saturating_add(idle) {
                return HeaderRead::Stalled;
            }
        }
    }
    match Header::decode(&buf) {
        Ok(header) => HeaderRead::Frame(header),
        Err(WireError::Protocol(what)) => HeaderRead::BadMagic(what),
        Err(_) => HeaderRead::Closed,
    }
}

/// A [`Read`] adapter that bounds the *total* time spent reading one
/// frame's payload: each chunk still runs under the socket's per-read
/// timeout, and any read past `deadline` fails immediately — so a peer
/// dribbling one byte per timeout period cannot stretch a frame forever.
struct DeadlineRead<'a, R> {
    inner: &'a mut R,
    deadline: Option<Instant>,
}

impl<R: Read> Read for DeadlineRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "frame payload exceeded the liveness budget",
                ));
            }
        }
        self.inner.read(buf)
    }
}

fn read_frames(shared: &WireShared, stream: &mut Ingest<'_>, state: &ConnState) {
    let words_per_query = shared.server.dim().div_ceil(64) as u32;
    let idle = shared.config.idle_timeout;
    let mut words: Vec<u64> = Vec::new();
    let mut pinged = false;
    let mut ping_nonce: u64 = 0;
    let fatal = |stream: &mut Ingest<'_>, code: u16, message: String| {
        stream.get_mut().outbox.push(Reply::Error { id: CONNECTION_ERROR_ID, code, message });
    };
    loop {
        // Announce a drain the moment the reader notices it (drain also
        // writes it, whichever side gets there first).
        if shared.draining.load(Ordering::Relaxed)
            && !state.goaway_sent.swap(true, Ordering::Relaxed)
        {
            stream.get_mut().outbox.push(Reply::GoAway);
        }
        let header = match read_header_budgeted(stream, idle) {
            HeaderRead::Frame(header) => {
                pinged = false;
                header
            }
            HeaderRead::Idle => {
                if pinged {
                    // The grace PING went unanswered: reap.
                    let message = "connection idle past idle_timeout and unresponsive to PING";
                    return fatal(stream, code::IDLE_TIMEOUT, message.into());
                }
                ping_nonce += 1;
                stream.get_mut().outbox.push(Reply::Ping { nonce: ping_nonce });
                pinged = true;
                continue;
            }
            HeaderRead::Stalled => {
                // Slow-loris: bytes owed, none arriving. No PING can
                // help; answer a typed reap notice and close.
                let message = "frame stalled past the liveness budget";
                return fatal(stream, code::IDLE_TIMEOUT, message.into());
            }
            HeaderRead::Closed => return,
            HeaderRead::BadMagic(what) => return fatal(stream, code::BAD_MAGIC, what),
        };
        match header.frame_type {
            FT_HELLO => stream.get_mut().outbox.push(Reply::HelloAck),
            FT_QUERY => {
                if !handle_query_frame(shared, stream, state, &header, words_per_query, &mut words)
                {
                    return;
                }
            }
            FT_PING => {
                if !header.is_payload_free() {
                    if !reject_liveness_payload(shared, stream, &header) {
                        return;
                    }
                } else {
                    stream.get_mut().outbox.push(Reply::Pong { nonce: header.model_key });
                }
            }
            FT_PONG | FT_GOAWAY => {
                // A PONG answers our grace probe; a client GOAWAY is a
                // polite leave notice. Either way the peer is alive and
                // there is nothing to answer.
                if !header.is_payload_free() && !reject_liveness_payload(shared, stream, &header) {
                    return;
                }
            }
            other if header.is_payload_free() => {
                // Unknown but header-only: the stream is still
                // synchronized, so reject recoverably (the
                // forward-compatibility contract for future frames).
                stream.get_mut().outbox.push(Reply::Error {
                    id: CONNECTION_ERROR_ID,
                    code: code::BAD_FRAME_TYPE,
                    message: format!("unknown header-only frame type {other} (skipped)"),
                });
            }
            other => {
                // Unknown type declaring payload bytes: the stream
                // position cannot be trusted. Fatal.
                let message = format!("unknown frame type {other} with declared payload");
                return fatal(stream, code::BAD_FRAME_TYPE, message);
            }
        }
    }
}

/// A liveness frame (PING/PONG/GOAWAY) that declared payload bytes
/// violates the header-only contract. If the declaration is within
/// limits, consume it and reject recoverably; an oversized declaration
/// is fatal exactly like a QUERY's. Returns `false` to close.
fn reject_liveness_payload(shared: &WireShared, stream: &mut Ingest<'_>, header: &Header) -> bool {
    let payload_words = header.count as u64 * header.words_per_query as u64;
    if header.count > shared.config.max_frame_queries || header.words_per_query > (1 << 16) {
        stream.get_mut().outbox.push(Reply::Error {
            id: CONNECTION_ERROR_ID,
            code: code::OVERSIZED_FRAME,
            message: format!(
                "liveness frame type {} declares {} x {} payload words (must be header-only)",
                header.frame_type, header.count, header.words_per_query
            ),
        });
        return false;
    }
    let idle = shared.config.idle_timeout;
    let mut bounded =
        DeadlineRead { inner: &mut *stream, deadline: idle.map(|d| Instant::now() + d + d) };
    if wire::drain(&mut bounded, payload_words * 8).is_err() {
        return false;
    }
    stream.get_mut().outbox.push(Reply::Error {
        id: CONNECTION_ERROR_ID,
        code: code::MALFORMED,
        message: format!(
            "liveness frame type {} must be header-only (declared payload ignored)",
            header.frame_type
        ),
    });
    true
}

/// Handles one QUERY frame; returns `false` when the connection must
/// close (fatal error, disconnect or a failed write).
fn handle_query_frame(
    shared: &WireShared,
    stream: &mut Ingest<'_>,
    state: &ConnState,
    header: &Header,
    words_per_query: u32,
    words: &mut Vec<u64>,
) -> bool {
    let server = &shared.server;
    let payload_words = header.count as u64 * header.words_per_query as u64;
    // Declared-size sanity first: everything past this point may trust
    // `count` and `words_per_query` enough to drain the payload.
    if header.count > shared.config.max_frame_queries
        || header.words_per_query > words_per_query.max(1 << 16)
    {
        stream.get_mut().outbox.push(Reply::Error {
            id: CONNECTION_ERROR_ID,
            code: code::OVERSIZED_FRAME,
            message: format!(
                "frame declares {} queries x {} words (limits: {} queries, {} words)",
                header.count,
                header.words_per_query,
                shared.config.max_frame_queries,
                words_per_query
            ),
        });
        return false;
    }
    // Every payload byte from here on is read under the liveness budget:
    // the per-read socket timeout catches outright stalls, the deadline
    // bounds a dribbling peer's total hold on this frame.
    let frame_deadline = shared.config.idle_timeout.map(|d| Instant::now() + d + d);
    let mut stream = DeadlineRead { inner: stream, deadline: frame_deadline };
    // A truncated frame (peer died mid-frame) exits silently.
    let Ok(first_id) = wire::read_u64(&mut stream) else { return false };
    let error = |code: u16, message: String| Reply::Error { id: first_id, code, message };
    // Recoverable rejections consume the declared payload so the next
    // frame parses, answer with a typed reply, and keep going. A
    // draining front-end accepts no further queries: it answers GOAWAY
    // again, whose last-accepted id tells the client where the cut was.
    let rejection = if shared.draining.load(Ordering::Relaxed) {
        state.goaway_sent.store(true, Ordering::Relaxed);
        Some(Reply::GoAway)
    } else if header.model_key != 0 {
        let message = format!("model key {} unknown (this server serves key 0)", header.model_key);
        Some(error(code::UNKNOWN_MODEL_KEY, message))
    } else if header.count == 0 {
        Some(error(code::MALFORMED, "QUERY frame declares zero queries".into()))
    } else if header.words_per_query != words_per_query {
        Some(error(
            code::DIMENSION_MISMATCH,
            format!(
                "frame packs {} words per query; D = {} needs {}",
                header.words_per_query,
                server.dim(),
                words_per_query
            ),
        ))
    } else if header.k == 0 {
        Some(error(code::BAD_K, "k must be at least 1".into()))
    } else if first_id.checked_add(u64::from(header.count)).is_none() {
        // The last id would overflow or be u64::MAX, which is reserved
        // for connection-level errors and GOAWAY_NONE.
        let message = format!("query ids {first_id} + {} run past u64::MAX - 1", header.count);
        Some(error(code::MALFORMED, message))
    } else {
        None
    };
    if let Some(reply) = rejection {
        if wire::drain(&mut stream, payload_words * 8).is_err() {
            return false;
        }
        stream.inner.get_mut().outbox.push(reply);
        return true;
    }
    if wire::read_words(&mut stream, payload_words as usize, words).is_err() {
        // Mid-frame disconnect: nothing was submitted for this frame;
        // earlier frames' answers still go out at the exit settle.
        return false;
    }
    let socket = stream.inner.get_mut();
    match server.submit_packed(words, header.k as usize) {
        Ok(pendings) => {
            let count = pendings.len() as u64;
            state.last_accepted.store(first_id + count - 1, Ordering::Release);
            // Counted before the settle so drain never observes a window
            // where an accepted answer is neither counted nor written.
            let unanswered = state.in_flight.fetch_add(count, Ordering::AcqRel) + count;
            for (pending, id) in pendings.into_iter().zip(first_id..) {
                socket.outbox.push(Reply::Answer { id, pending });
            }
            // At the bound, answer before reading on.
            unanswered < shared.config.conn_in_flight as u64 || socket.settle().is_ok()
        }
        Err(e @ ServeError::Shutdown) => {
            let message = e.to_string();
            socket.outbox.push(Reply::Error { id: first_id, code: code::SHUTDOWN, message });
            false
        }
        Err(e) => {
            socket.outbox.push(error(serve_error_code(&e), e.to_string()));
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Searchable, ServeConfig};
    use hd_linalg::BitVector;
    use std::time::Duration;

    fn tiny_server() -> Arc<Server> {
        let rows: Vec<BitVector> = (0..8)
            .map(|i| BitVector::from_bools(&(0..64).map(|b| (b + i) % 3 == 0).collect::<Vec<_>>()))
            .collect();
        let memory = hd_linalg::SearchMemory::from_rows(&rows).unwrap();
        Arc::new(
            Server::start(
                Arc::new(memory) as Arc<dyn Searchable>,
                ServeConfig {
                    max_batch: 4,
                    max_delay: Duration::from_micros(100),
                    ..Default::default()
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn config_rejects_zero_limits() {
        let server = tiny_server();
        for config in [
            WireConfig { max_frame_queries: 0, ..Default::default() },
            WireConfig { conn_in_flight: 0, ..Default::default() },
        ] {
            assert!(matches!(
                WireServer::start(Arc::clone(&server), config),
                Err(ServeError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_new_listeners() {
        let wire = WireServer::start(tiny_server(), WireConfig::default()).unwrap();
        let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
        assert_ne!(addr.port(), 0);
        wire.shutdown();
        wire.shutdown();
        assert!(matches!(wire.listen_tcp("127.0.0.1:0"), Err(ServeError::Shutdown)));
        assert_eq!(wire.connections(), 0);
    }

    #[test]
    fn serve_error_codes_cover_the_wire_variants() {
        assert_eq!(
            serve_error_code(&ServeError::DimensionMismatch { expected: 1, found: 2 }),
            code::DIMENSION_MISMATCH
        );
        assert_eq!(
            serve_error_code(&ServeError::MalformedPayload { reason: String::new() }),
            code::MALFORMED
        );
        assert_eq!(serve_error_code(&ServeError::Overloaded), code::OVERLOADED);
        assert_eq!(serve_error_code(&ServeError::Shutdown), code::SHUTDOWN);
        assert_eq!(serve_error_code(&ServeError::Model { reason: String::new() }), code::MODEL);
    }
}

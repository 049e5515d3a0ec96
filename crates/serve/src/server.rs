//! The serving core: one reactor, one worker pool and one background thread in
//! front of a [`Backend`] — the catalog [`Node`] that [`serve`] runs, or the
//! cluster [`Router`](crate::router::Router).
//!
//! Two wire framings share every layer below the socket: the line-delimited JSON
//! framing (one request or response per `\n`-terminated line; normative spec:
//! `docs/PROTOCOL.md`) and the HTTP/1.1 binding of the same protocol
//! ([`crate::http`]; `POST /v1/<op>`, `GET /v1/info`, curl-able).  A server binds
//! either or both through [`ServerConfig::builder`].  The core owns everything
//! but execution; the work splits across three kinds of threads:
//!
//! * **Reactor (1 thread).**  A `poll(2)` readiness loop (the vendored [`polling`]
//!   shim — the offline image has no tokio) owns the listeners and every
//!   connection: it accepts, reads, frames requests (lines or HTTP messages), and
//!   writes responses.  It never parses JSON or touches the backend, so a slow
//!   request cannot stall accepts or other connections' I/O.
//! * **Workers (`workers` threads).**  Pull framed requests from a queue, decode
//!   and execute them on the backend, and hand encoded responses back to the
//!   reactor.  Requests from *one* connection run strictly in order (responses
//!   come back in request order — no client-side correlation needed); requests
//!   from different connections run in parallel.  Each worker owns its
//!   backend's [`Backend::Worker`] state (the router's node connections).
//! * **Background (1 thread).**  Calls [`Backend::maintain`] every
//!   [`ServerConfig::maintenance_interval`], on request, and until shutdown.  The node expires idle ingest
//!   sessions and compacts its catalog; the router probes demoted nodes and
//!   expires its own ingest sessions.
//!
//! Overload is shed at two gates, both surfaced as the typed `overloaded` error
//! (HTTP `503`) and counted in [`ServerMetrics`]: past the connection cap a new
//! connection is answered and closed without ever reaching a worker; past the
//! queue-depth cap a framed request is refused but its connection stays usable, so
//! a client that backs off needs no reconnect.  Every request is timed into the
//! same metrics, and the core fills the `server` member of an `info {server:
//! true}` answer from them, whichever backend answered.
//!
//! A panic while executing a request costs that request a typed `internal`
//! error and nothing else: the worker lives on with fresh [`Backend::Worker`]
//! state, the connection's later requests are answered, and the `server` member
//! counts it under `panics`.
//!
//! In the [`Node`], readers never wait on writers.  Writes (ingest,
//! ingest-finish, drop, import, compaction, cold hydration and export) run one at
//! a time under a writer lock, and each publishes an immutable snapshot of the
//! index and of the catalog facts `info` reports before it replies.  A read
//! clones the published snapshot's pointer and ranks against it, so it sees the
//! catalog as of one committed write; a batch ranks its queries in order
//! against one snapshot.  Snapshots share their sketches: publishing copies one
//! pointer per column.
//!
//! Shard-partial ingest sessions ([`ShardedIngestState`]) live *outside* the writer
//! lock in a session map: `announce`/`submit` sketch with a clone of the catalog's
//! estimator and take no service lock at all, so any number of registration sessions
//! make progress while queries are served; only `ingest-finish` (the catalog commit)
//! takes the writer lock.

use crate::error::CatalogError;
use crate::http::{self, HttpRequest};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    check_cascade, sketch_queries, ErrorCode, InfoColumn, Mode, Request, RequestBody,
    RequestDecodeError, Response, ResponseBody, WireCompaction, WireError, WireNote, WireRanked,
    WireServiceStats, WireSketch,
};
use crate::service::{self, QueryColumn, QueryService, RankRequest, ShardedIngestState};
use crate::wire::Json;
use ipsketch_core::SketcherSpec;
use ipsketch_join::{SketchIndex, SketchedColumn};
use parking_lot::Mutex;
use polling::{Event, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller key of the line-delimited TCP listener.
const TCP_LISTENER_KEY: usize = 0;
/// Poller key of the HTTP/1.1 listener.
const HTTP_LISTENER_KEY: usize = 1;
/// First key handed to an accepted connection.
const FIRST_CONN_KEY: usize = 2;

/// Smallest accepted `max_line_bytes`: below this even an empty batch-query
/// cannot be expressed, so the bound would only manufacture `too_large` errors.
const MIN_LINE_BYTES: usize = 1024;

/// Default `max_line_bytes`: 64 MiB.
pub(crate) const DEFAULT_MAX_LINE_BYTES: usize = 64 << 20;

/// Validated tuning knobs for [`serve`]; built through [`ServerConfig::builder`].
///
/// The fields are private on purpose: every constructed `ServerConfig` has passed
/// [`ServerConfigBuilder::build`]'s validation, so the server never has to
/// re-check or silently "fix" a nonsensical value at bind time.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    tcp: Option<String>,
    http: Option<String>,
    workers: usize,
    max_line_bytes: usize,
    max_connections: usize,
    max_queue_depth: usize,
    maintenance_interval: Option<Duration>,
    session_ttl: Duration,
}

impl ServerConfig {
    /// Starts a builder with the defaults: 2 workers, 64 MiB request bound,
    /// 1024-connection and 1024-request caps, 30 s maintenance interval, 15 min
    /// session TTL — and *no* bind address, which [`ServerConfigBuilder::build`]
    /// rejects until [`tcp`](ServerConfigBuilder::tcp) and/or
    /// [`http`](ServerConfigBuilder::http) is set.
    #[must_use]
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder(ServerConfig {
            tcp: None,
            http: None,
            workers: 2,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            max_connections: 1024,
            max_queue_depth: 1024,
            maintenance_interval: Some(Duration::from_secs(30)),
            session_ttl: Duration::from_secs(15 * 60),
        })
    }

    /// The line-delimited TCP bind address, if one is configured.
    #[must_use]
    pub fn tcp(&self) -> Option<&str> {
        self.tcp.as_deref()
    }

    /// The HTTP/1.1 bind address, if one is configured.
    #[must_use]
    pub fn http(&self) -> Option<&str> {
        self.http.as_deref()
    }

    /// Request-executing worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Hard bound on one request (a line on the TCP framer, a body on the HTTP
    /// framer).
    #[must_use]
    pub fn max_line_bytes(&self) -> usize {
        self.max_line_bytes
    }

    /// Open-connection cap across both framers.
    #[must_use]
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// Cap on requests queued for workers before new ones are refused.
    #[must_use]
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Idle interval between periodic [`Backend::maintain`] passes (`None`: on
    /// demand only).  [`serve_router`](crate::router::serve_router) sets it to
    /// the router's `RouterConfig::probe_interval`.
    #[must_use]
    pub fn maintenance_interval(&self) -> Option<Duration> {
        self.maintenance_interval
    }

    /// How long a node's ingest session may sit untouched before it is expired.
    /// A router's comes from `RouterConfig::session_ttl`.
    #[must_use]
    pub fn session_ttl(&self) -> Duration {
        self.session_ttl
    }
}

/// Builder for [`ServerConfig`]; see [`ServerConfig::builder`] for the defaults.
/// It holds the configuration being built, unvalidated until
/// [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder(ServerConfig);

impl ServerConfigBuilder {
    /// Binds the line-delimited TCP framer on `addr` (port 0 for ephemeral).
    #[must_use]
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.0.tcp = Some(addr.into());
        self
    }

    /// Binds the HTTP/1.1 framer on `addr` (port 0 for ephemeral).
    #[must_use]
    pub fn http(mut self, addr: impl Into<String>) -> Self {
        self.0.http = Some(addr.into());
        self
    }

    /// Sets the worker-thread count.  Two by default: enough that a slow ingest
    /// does not block queries.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.0.workers = workers;
        self
    }

    /// Sets the per-request size bound.  Oversized TCP lines earn `too_large` and
    /// close the connection (line framing cannot resynchronize); oversized HTTP
    /// bodies earn `413` before the body is read.
    #[must_use]
    pub fn max_line_bytes(mut self, bytes: usize) -> Self {
        self.0.max_line_bytes = bytes;
        self
    }

    /// Sets the open-connection cap.  Connections past it are answered with the
    /// typed `overloaded` error and closed without reaching a worker.
    #[must_use]
    pub fn max_connections(mut self, connections: usize) -> Self {
        self.0.max_connections = connections;
        self
    }

    /// Sets the worker-queue depth cap.  Requests framed while the queue is full
    /// are answered `overloaded`; their connection stays open and usable.
    #[must_use]
    pub fn max_queue_depth(mut self, depth: usize) -> Self {
        self.0.max_queue_depth = depth;
        self
    }

    /// Sets how often the maintenance pass runs when idle (`None` disables
    /// periodic passes; ingest-triggered ones still run).  A node compacts its
    /// catalog then; [`serve_router`](crate::router::serve_router) sets this
    /// from `RouterConfig::probe_interval`.
    #[must_use]
    pub fn maintenance_interval(mut self, interval: Option<Duration>) -> Self {
        self.0.maintenance_interval = interval;
        self
    }

    /// Sets how long a node's ingest session may sit untouched before a
    /// maintenance pass expires it.  Sessions hold folded partial sketches, so
    /// abandoned ones (client crashed before `ingest-finish`) would otherwise
    /// leak for the server's lifetime.  A router's TTL is
    /// `RouterConfig::session_ttl`.
    #[must_use]
    pub fn session_ttl(mut self, ttl: Duration) -> Self {
        self.0.session_ttl = ttl;
        self
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first violated rule: at least one
    /// bind address, at least one worker, nonzero connection and queue caps, and
    /// a request bound of at least 1 KiB.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        let config = self.0;
        if config.tcp.is_none() && config.http.is_none() {
            return Err(ConfigError::NoBindAddress);
        }
        if config.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if config.max_connections == 0 {
            return Err(ConfigError::ZeroConnectionCap);
        }
        if config.max_queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if config.max_line_bytes < MIN_LINE_BYTES {
            return Err(ConfigError::LineBoundTooSmall {
                got: config.max_line_bytes,
                min: MIN_LINE_BYTES,
            });
        }
        Ok(config)
    }
}

/// A [`ServerConfigBuilder::build`] rejection: which rule the configuration broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Neither a TCP nor an HTTP bind address was set.
    NoBindAddress,
    /// `workers` was 0; the server needs at least one request executor.
    ZeroWorkers,
    /// `max_connections` was 0; the server could never accept anything.
    ZeroConnectionCap,
    /// `max_queue_depth` was 0; the server could never execute anything.
    ZeroQueueDepth,
    /// `max_line_bytes` was below the smallest useful request bound.
    LineBoundTooSmall {
        /// The configured bound.
        got: usize,
        /// The smallest accepted bound.
        min: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoBindAddress => {
                write!(f, "no bind address: set a TCP and/or an HTTP address")
            }
            ConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            ConfigError::ZeroConnectionCap => write!(f, "max connections must be at least 1"),
            ConfigError::ZeroQueueDepth => write!(f, "max queue depth must be at least 1"),
            ConfigError::LineBoundTooSmall { got, min } => {
                write!(
                    f,
                    "request bound of {got} bytes is below the {min}-byte minimum"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Running totals of the node's maintenance passes, exposed for observability
/// and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Completed compaction passes.
    pub passes: u64,
    /// Total unreferenced files removed across all passes.
    pub files_removed: u64,
    /// Passes that failed (I/O errors); the service keeps running.
    pub failures: u64,
    /// Ingest sessions expired for sitting idle past the configured TTL.
    pub sessions_expired: u64,
}

/// What the serving core runs requests on: the catalog [`Node`] or the cluster
/// [`Router`](crate::router::Router).
///
/// The core owns the listeners, the reactor, both framings, the queue, the
/// workers, shedding, metrics (the `server` member of `info` included) and one
/// background thread; a backend only executes decoded requests and runs its
/// upkeep.
pub trait Backend: Send + Sync + 'static {
    /// State each worker thread owns privately and lends to every request it
    /// executes: `()` for the node, the router's pooled node connections.
    type Worker: Default;

    /// Executes one decoded request.  An `info` answer leaves its `server`
    /// member unset; the core fills it.
    ///
    /// # Errors
    ///
    /// The typed protocol error the client receives.
    fn execute(
        &self,
        worker: &mut Self::Worker,
        body: &RequestBody,
    ) -> Result<ResponseBody, WireError>;

    /// One upkeep pass, run on the core's background thread every
    /// [`ServerConfig::maintenance_interval`] and on request.
    fn maintain(&self);

    /// Adopts the server's `config` before the first request: the router keeps
    /// every line it sends a node within [`ServerConfig::max_line_bytes`].  The
    /// node needs nothing from it.
    fn configure(&mut self, config: &ServerConfig) {
        let _ = config;
    }
}

/// Handle to a running server: address introspection, observability, shutdown.
///
/// Dropping the handle shuts the server down and joins its threads.
pub struct ServerHandle<B: Backend = Node> {
    shared: Arc<Shared<B>>,
    tcp_addr: Option<SocketAddr>,
    http_addr: Option<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
}

impl<B: Backend> ServerHandle<B> {
    /// The bound line-delimited TCP address (useful with port 0), if configured.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound HTTP/1.1 address (useful with port 0), if configured.
    #[must_use]
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The live observability state: per-op latency histograms, counters, gauges.
    #[must_use]
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.core.metrics
    }

    /// The backend this server runs.
    pub(crate) fn backend(&self) -> &B {
        &self.shared.backend
    }

    /// Stops accepting, drains nothing further, and joins every thread.  In-flight
    /// requests finish; queued-but-unstarted requests on other connections are
    /// dropped along with their connections.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Blocks until the server stops on its own — which only happens on a fatal
    /// reactor error (e.g. `poll(2)` failing) — and joins every thread.  This is
    /// what a serve-until-killed front end (the CLI) parks on: if it returns, the
    /// listeners are gone and the process should exit with an error instead of
    /// lingering as a live-looking corpse.
    pub fn wait(mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    fn shutdown_inner(&mut self) {
        self.shared.core.stop();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl ServerHandle<Node> {
    /// Maintenance totals so far.
    #[must_use]
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        *self.backend().maintenance_stats.lock()
    }

    /// Asks the background thread for an immediate maintenance pass.
    pub fn request_maintenance(&self) {
        self.shared.core.wakeup.request();
    }
}

impl<B: Backend> Drop for ServerHandle<B> {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// Starts a server over `service` with the validated `config` and returns
/// immediately with its handle.  Bind addresses may carry port 0 for an ephemeral
/// port; read them back with [`ServerHandle::tcp_addr`] / [`ServerHandle::http_addr`].
///
/// # Errors
///
/// Returns the OS error if a listener cannot bind or the reactor cannot be set up.
pub fn serve(service: QueryService, config: ServerConfig) -> io::Result<ServerHandle> {
    let node = Node::new(service, &config);
    let wakeup = Arc::clone(&node.wakeup);
    start(node, config, wakeup)
}

/// Starts a server over any [`Backend`] with the validated `config`; [`serve`]
/// is this over a [`Node`], and
/// [`serve_router`](crate::router::serve_router) over a router bound to one TCP
/// address.  `config`'s session TTL only matters to [`serve`].
///
/// # Errors
///
/// Returns the OS error if a listener cannot bind or the reactor cannot be set up.
pub fn serve_backend<B: Backend>(backend: B, config: ServerConfig) -> io::Result<ServerHandle<B>> {
    start(backend, config, Arc::default())
}

fn start<B: Backend>(
    mut backend: B,
    config: ServerConfig,
    wakeup: Arc<Wakeup>,
) -> io::Result<ServerHandle<B>> {
    backend.configure(&config);
    let poller = Poller::new()?;
    let bind = |addr: &str, key: usize| -> io::Result<(TcpListener, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        poller.add(&listener, Event::readable(key))?;
        Ok((listener, addr))
    };
    let tcp = config
        .tcp
        .as_deref()
        .map(|addr| bind(addr, TCP_LISTENER_KEY))
        .transpose()?;
    let http = config
        .http
        .as_deref()
        .map(|addr| bind(addr, HTTP_LISTENER_KEY))
        .transpose()?;
    let (tcp_listener, tcp_addr) = tcp.map_or((None, None), |(l, a)| (Some(l), Some(a)));
    let (http_listener, http_addr) = http.map_or((None, None), |(l, a)| (Some(l), Some(a)));

    let workers = config.workers;
    let shared = Arc::new(Shared {
        core: Core {
            queue: StdMutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            wakeup,
            metrics: ServerMetrics::default(),
            outbox: Mutex::new(Vec::new()),
            poller,
            shutdown: AtomicBool::new(false),
            config,
        },
        backend,
    });
    // The handle exists before any thread does, so a failed spawn drops it and
    // stops whatever already started.
    let mut handle = ServerHandle {
        shared: Arc::clone(&shared),
        tcp_addr,
        http_addr,
        threads: Vec::with_capacity(workers + 2),
    };
    let thread = |name: String| std::thread::Builder::new().name(name);
    let reactor_shared = Arc::clone(&shared);
    handle.threads.push(
        thread("ipsketch-reactor".to_string())
            .spawn(move || reactor_loop(&reactor_shared.core, tcp_listener, http_listener))?,
    );
    for worker in 0..workers {
        let worker_shared = Arc::clone(&shared);
        handle.threads.push(
            thread(format!("ipsketch-worker-{worker}"))
                .spawn(move || worker_loop(&worker_shared))?,
        );
    }
    handle
        .threads
        .push(thread("ipsketch-maintenance".to_string()).spawn(move || background_loop(&shared))?);
    Ok(handle)
}

/// Locks a std mutex, shrugging off poisoning: every critical section here
/// leaves its data consistent, even if a holder panicked.
fn lock<T>(mutex: &StdMutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which wire framing a connection speaks (fixed by the listener it arrived on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// One `\n`-terminated JSON line per request/response.
    Line,
    /// The HTTP/1.1 binding.
    Http,
}

/// A framed request waiting for a worker, in its framer's shape.
enum Payload {
    /// A raw request line (newline stripped).
    Line(Vec<u8>),
    /// A parsed HTTP message.
    Http(HttpRequest),
}

/// One framed request queued for the workers.
struct Job {
    conn: usize,
    payload: Payload,
}

/// An encoded response (complete wire bytes) waiting for the reactor.
struct Outgoing {
    conn: usize,
    bytes: Vec<u8>,
    /// Close the connection once these bytes flush (HTTP `Connection: close`).
    close_after: bool,
}

/// The background thread's "run a pass now" flag under its condvar.
#[derive(Default)]
struct Wakeup {
    pending: StdMutex<bool>,
    cv: Condvar,
}

impl Wakeup {
    fn request(&self) {
        *lock(&self.pending) = true;
        self.cv.notify_all();
    }
}

/// The backend-independent state of a server, shared by the reactor, the
/// workers and the background thread.
struct Core {
    queue: StdMutex<VecDeque<Job>>,
    queue_cv: Condvar,
    wakeup: Arc<Wakeup>,
    metrics: ServerMetrics,
    outbox: Mutex<Vec<Outgoing>>,
    poller: Poller,
    shutdown: AtomicBool,
    config: ServerConfig,
}

impl Core {
    /// Tells every thread to exit.  Each condvar's mutex is taken before its
    /// notify, so a thread between its shutdown check and its wait cannot miss
    /// the wakeup.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        drop(lock(&self.queue));
        self.queue_cv.notify_all();
        drop(lock(&self.wakeup.pending));
        self.wakeup.cv.notify_all();
        let _ = self.poller.notify();
    }
}

/// A server's core and the backend it runs requests on.
struct Shared<B> {
    core: Core,
    backend: B,
}

/// Splits complete `\n`-terminated lines off the front of `buf`, tolerating `\r\n`
/// and skipping empty lines.  Leaves the trailing partial line in place.
///
/// `scanned` carries over between calls: the first `scanned` bytes of `buf` are
/// known to hold no `\n`, so the search resumes after them and every byte is
/// searched once, however the stream is chunked.
fn drain_lines(buf: &mut Vec<u8>, scanned: &mut usize) -> Vec<Vec<u8>> {
    let mut lines = Vec::new();
    let mut start = 0;
    let mut from = *scanned;
    while let Some(offset) = buf[from..].iter().position(|&b| b == b'\n') {
        let nl = from + offset;
        let mut end = nl;
        if end > start && buf[end - 1] == b'\r' {
            end -= 1;
        }
        if end > start {
            lines.push(buf[start..end].to_vec());
        }
        start = nl + 1;
        from = start;
    }
    buf.drain(..start);
    *scanned = buf.len();
    lines
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    framing: Framing,
    read_buf: Vec<u8>,
    /// How much of `read_buf` line framing has already searched (see
    /// [`drain_lines`]).
    scanned: usize,
    write_buf: Vec<u8>,
    /// Requests framed but not yet dispatched (per-connection requests run in order).
    pending: VecDeque<Payload>,
    /// Whether a request from this connection is currently queued or executing.
    in_flight: bool,
    /// Peer sent FIN (or an HTTP exchange asked to close): serve what is in
    /// flight, flush, then drop.
    peer_closed: bool,
    /// Fatal framing state (oversized line, malformed HTTP): stop reading, answer
    /// everything framed before the break, then emit the error and drop.
    poisoned: bool,
    /// The encoded framing-error response, emitted only after every request framed
    /// before the poisoning bytes has been answered — preserving the documented
    /// per-connection response order.
    poison_response: Option<Vec<u8>>,
    /// Whether an interim `100 Continue` has been sent for the HTTP request
    /// currently being framed.
    sent_continue: bool,
}

impl Conn {
    fn new(stream: TcpStream, framing: Framing) -> Self {
        Conn {
            stream,
            framing,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            pending: VecDeque::new(),
            in_flight: false,
            peer_closed: false,
            poisoned: false,
            poison_response: None,
            sent_continue: false,
        }
    }

    fn wants_close(&self) -> bool {
        (self.peer_closed || self.poisoned)
            && self.write_buf.is_empty()
            && !self.in_flight
            && self.pending.is_empty()
            && self.poison_response.is_none()
    }
}

/// The reactor: owns the listeners and all connection I/O.
fn reactor_loop(core: &Core, tcp: Option<TcpListener>, http: Option<TcpListener>) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = FIRST_CONN_KEY;
    let mut events: Vec<Event> = Vec::new();
    loop {
        events.clear();
        // A modest timeout backstops lost wakeups; all real work is notify-driven.
        if core
            .poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .is_err()
        {
            // A failing poll(2) is unrecoverable for the reactor; shut down rather
            // than spin.
            core.stop();
            return;
        }
        if core.shutdown.load(Ordering::SeqCst) {
            for conn in conns.values() {
                let _ = core.poller.delete(&conn.stream);
            }
            return;
        }

        for event in &events {
            match event.key {
                TCP_LISTENER_KEY => {
                    if let Some(listener) = &tcp {
                        accept_ready(core, listener, Framing::Line, &mut conns, &mut next_key);
                    }
                }
                HTTP_LISTENER_KEY => {
                    if let Some(listener) = &http {
                        accept_ready(core, listener, Framing::Http, &mut conns, &mut next_key);
                    }
                }
                key => {
                    if let Some(conn) = conns.get_mut(&key) {
                        if event.readable {
                            read_ready(core, key, conn);
                        }
                        if event.writable {
                            flush(conn);
                        }
                    }
                }
            }
        }

        // Move completed responses from the workers into connection write buffers;
        // each response retires its connection's in-flight request.
        let outgoing = std::mem::take(&mut *core.outbox.lock());
        for out in outgoing {
            if let Some(conn) = conns.get_mut(&out.conn) {
                conn.write_buf.extend_from_slice(&out.bytes);
                conn.in_flight = false;
                if out.close_after {
                    conn.peer_closed = true;
                }
                dispatch_next(core, out.conn, conn);
                flush(conn);
            }
        }

        // Re-arm interests and reap finished connections.  Poisoned connections
        // drop read interest entirely: whatever the client keeps sending is
        // undecodable past a broken frame, so it is left in the kernel buffer and
        // the connection closes as soon as the error response flushes.
        conns.retain(|&key, conn| {
            if conn.wants_close() {
                let _ = core.poller.delete(&conn.stream);
                return false;
            }
            let interest = if conn.poisoned {
                Event::writable(key)
            } else if conn.write_buf.is_empty() {
                Event::readable(key)
            } else {
                Event::all(key)
            };
            let _ = core.poller.modify(&conn.stream, interest);
            true
        });
        core.metrics
            .connections_open
            .store(conns.len() as u64, Ordering::Relaxed);
    }
}

/// Accepts every pending connection on one listener; past the connection cap each
/// is answered `overloaded` in its framer's encoding and closed without ever
/// reaching a worker.
fn accept_ready(
    core: &Core,
    listener: &TcpListener,
    framing: Framing,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let key = *next_key;
                *next_key += 1;
                let mut conn = Conn::new(stream, framing);
                if conns.len() >= core.config.max_connections {
                    // Reject: pre-fill the response, poison so reads never arm and
                    // the connection drops as soon as the bytes flush.
                    core.metrics
                        .connections_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    let response = http::overloaded_response(&format!(
                        "connection cap of {} reached; retry after backoff",
                        core.config.max_connections
                    ));
                    conn.write_buf = encode_for(framing, &response, false);
                    conn.poisoned = true;
                }
                if core.poller.add(&conn.stream, Event::all(key)).is_ok() {
                    conns.insert(key, conn);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Per-connection failures (ECONNABORTED & co) and resource exhaustion
            // (EMFILE/ENFILE).  The latter leaves the backlogged connection pending,
            // so the level-triggered poller would re-report the listener instantly;
            // a brief backoff keeps the reactor from spinning at 100% while the
            // kernel backlog drains or descriptors free up.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                return;
            }
        }
    }
}

/// Encodes one protocol [`Response`] in a framing's wire shape.
fn encode_for(framing: Framing, response: &Response, keep_alive: bool) -> Vec<u8> {
    match framing {
        Framing::Line => {
            let mut bytes = response.encode().into_bytes();
            bytes.push(b'\n');
            bytes
        }
        Framing::Http => http::encode_protocol_response(response, keep_alive),
    }
}

/// How many socket reads one readable event may perform before yielding back to
/// the reactor loop: bounds one fast sender's monopoly on the reactor thread
/// (level-triggered polling re-reports whatever is left).
const READS_PER_EVENT: usize = 64;

/// Reads what is available (bounded per event), frames requests eagerly so the
/// size bound applies *per request* — a pipelined burst of individually legal
/// requests is never rejected on its aggregate size — and dispatches if idle.
fn read_ready(core: &Core, key: usize, conn: &mut Conn) {
    if conn.poisoned {
        // Nothing past a broken frame is decodable; stop consuming input so the
        // connection reaches its flush-then-close state instead of buffering an
        // unbounded stream.
        return;
    }
    let mut chunk = [0u8; 16 * 1024];
    for _ in 0..READS_PER_EVENT {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                match conn.framing {
                    Framing::Line => frame_lines(core, conn),
                    Framing::Http => frame_http(core, conn),
                }
                if conn.poisoned {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.peer_closed = true;
                break;
            }
        }
    }
    dispatch_next(core, key, conn);
}

/// Frames complete lines off a line-framed connection's read buffer.
fn frame_lines(core: &Core, conn: &mut Conn) {
    for line in drain_lines(&mut conn.read_buf, &mut conn.scanned) {
        if line.len() > core.config.max_line_bytes {
            poison_too_large(core, conn);
            return;
        }
        conn.pending.push_back(Payload::Line(line));
    }
    // Only the *unframed tail* is held to the bound: a single line still growing
    // past it can never complete legally.
    if conn.read_buf.len() > core.config.max_line_bytes {
        poison_too_large(core, conn);
    }
}

/// Frames complete HTTP requests off an HTTP connection's read buffer.  A framing
/// violation poisons the connection with the typed closing response; `Expect:
/// 100-continue` earns one interim response per request.
fn frame_http(core: &Core, conn: &mut Conn) {
    loop {
        match http::try_frame(&mut conn.read_buf, core.config.max_line_bytes) {
            Ok(http::FrameStep::Request(request)) => {
                conn.sent_continue = false;
                conn.pending.push_back(Payload::Http(request));
            }
            Ok(http::FrameStep::Incomplete { needs_continue }) => {
                if needs_continue && !conn.sent_continue {
                    conn.sent_continue = true;
                    conn.write_buf.extend_from_slice(http::CONTINUE_RESPONSE);
                }
                return;
            }
            Err(e) => {
                core.metrics.record("invalid", Duration::ZERO, true);
                conn.poison_response = Some(http::encode_framing_error(&e));
                conn.read_buf.clear();
                conn.poisoned = true;
                return;
            }
        }
    }
}

/// Poisons a line-framed connection on an oversized line (framing cannot resync):
/// reading stops, requests framed *before* the break still get answered in order,
/// and the `too_large` error goes out last (see [`dispatch_next`]) before the
/// close.  Idempotent: a line crossing the bound more than once still earns one
/// response.
fn poison_too_large(core: &Core, conn: &mut Conn) {
    if conn.poisoned {
        return;
    }
    core.metrics.record("invalid", Duration::ZERO, true);
    let response = Response {
        id: Json::Null,
        result: Err(WireError {
            code: ErrorCode::TooLarge,
            message: format!(
                "request line exceeds the {}-byte bound",
                core.config.max_line_bytes
            ),
        }),
    };
    conn.poison_response = Some(encode_for(Framing::Line, &response, false));
    conn.read_buf.clear();
    conn.scanned = 0;
    conn.poisoned = true;
}

/// Hands the next pending request of `conn` to the workers, if it is idle.  Past
/// the queue-depth cap the request is answered `overloaded` right here and the
/// connection stays usable.  On a poisoned connection, the stored framing error is
/// emitted only once every earlier request has been answered, preserving response
/// order.
fn dispatch_next(core: &Core, key: usize, conn: &mut Conn) {
    if conn.in_flight {
        return;
    }
    while let Some(payload) = conn.pending.pop_front() {
        let mut queue = lock(&core.queue);
        if queue.len() >= core.config.max_queue_depth {
            drop(queue);
            core.metrics.queue_rejected.fetch_add(1, Ordering::Relaxed);
            let response = http::overloaded_response(&format!(
                "request queue is full ({} queued); retry after backoff",
                core.config.max_queue_depth
            ));
            let keep_alive = match &payload {
                Payload::Line(_) => true,
                Payload::Http(request) => request.keep_alive,
            };
            conn.write_buf
                .extend_from_slice(&encode_for(conn.framing, &response, keep_alive));
            if !keep_alive {
                conn.peer_closed = true;
            }
            continue;
        }
        queue.push_back(Job { conn: key, payload });
        core.metrics
            .queue_depth
            .store(queue.len() as u64, Ordering::Relaxed);
        drop(queue);
        conn.in_flight = true;
        core.queue_cv.notify_one();
        return;
    }
    if let Some(bytes) = conn.poison_response.take() {
        conn.write_buf.extend_from_slice(&bytes);
    }
}

/// Writes as much buffered output as the socket accepts.
fn flush(conn: &mut Conn) {
    while !conn.write_buf.is_empty() {
        match conn.stream.write(&conn.write_buf) {
            Ok(0) => {
                conn.peer_closed = true;
                return;
            }
            Ok(n) => {
                conn.write_buf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.peer_closed = true;
                conn.write_buf.clear();
                return;
            }
        }
    }
}

/// A worker: executes framed requests on the backend, timing each one into the
/// metrics under its op label.
fn worker_loop<B: Backend>(shared: &Shared<B>) {
    let core = &shared.core;
    let mut worker = B::Worker::default();
    loop {
        let job = {
            let mut queue = lock(&core.queue);
            loop {
                if core.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    core.metrics
                        .queue_depth
                        .store(queue.len() as u64, Ordering::Relaxed);
                    break job;
                }
                queue = core
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let started = Instant::now();
        let execute = |body: &RequestBody| execute(shared, &mut worker, body);
        let (bytes, op, is_error, close_after) = match &job.payload {
            Payload::Line(line) => {
                let (response, op) = respond(decode_line(line), execute);
                let bytes = encode_for(Framing::Line, &response, true);
                (bytes, op, response.result.is_err(), false)
            }
            Payload::Http(request) => handle_http(request, execute),
        };
        core.metrics.record(op, started.elapsed(), is_error);
        core.outbox.lock().push(Outgoing {
            conn: job.conn,
            bytes,
            close_after,
        });
        let _ = core.poller.notify();
    }
}

/// Executes one decoded request on the backend; an `info {server: true}` answer
/// gets the core's metrics as its `server` member.  A panic in the backend
/// becomes a typed `internal` error, counted in the metrics, and the worker
/// starts over with fresh state, which may have been left mid-update.
fn execute<B: Backend>(
    shared: &Shared<B>,
    worker: &mut B::Worker,
    body: &RequestBody,
) -> Result<ResponseBody, WireError> {
    let executed = panic::catch_unwind(AssertUnwindSafe(|| shared.backend.execute(worker, body)));
    let mut result = executed.unwrap_or_else(|payload| {
        shared.core.metrics.panics.fetch_add(1, Ordering::Relaxed);
        *worker = B::Worker::default();
        let reason = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("no message");
        Err(WireError {
            code: ErrorCode::Internal,
            message: format!("`{}` panicked on the server: {reason}", body.op()),
        })
    });
    if let (RequestBody::Info { server: true }, Ok(ResponseBody::Info { server, .. })) =
        (body, &mut result)
    {
        *server = Some(shared.core.metrics.snapshot());
    }
    result
}

/// Answers a decoded request through `execute`, or a decode failure as is;
/// returns the response and the op label to account it under (`"invalid"` when
/// no op could be decoded).
fn respond(
    decoded: Result<Request, RequestDecodeError>,
    execute: impl FnOnce(&RequestBody) -> Result<ResponseBody, WireError>,
) -> (Response, &'static str) {
    match decoded {
        Ok(request) => {
            let op = request.body.op();
            let result = execute(&request.body);
            (
                Response {
                    id: request.id,
                    result,
                },
                op,
            )
        }
        Err(failure) => (
            Response {
                id: failure.id,
                result: Err(failure.error),
            },
            "invalid",
        ),
    }
}

/// Decodes one line-framed request.
fn decode_line(line: &[u8]) -> Result<Request, RequestDecodeError> {
    let text = std::str::from_utf8(line).map_err(|_| RequestDecodeError {
        id: Json::Null,
        error: WireError::bad_request("request line is not valid UTF-8"),
    })?;
    Request::decode(text)
}

/// Routes and decodes one HTTP request and runs it through `execute`; returns
/// the complete response bytes, the op label, whether the outcome was an error,
/// and whether the connection must close after the response flushes.
fn handle_http(
    request: &HttpRequest,
    execute: impl FnOnce(&RequestBody) -> Result<ResponseBody, WireError>,
) -> (Vec<u8>, &'static str, bool, bool) {
    let keep_alive = request.keep_alive;
    let close_after = !keep_alive;
    let (path, query_string) = http::split_target(&request.target);
    let Some(op) = http::route_op(path) else {
        let response = Response {
            id: Json::Null,
            result: Err(WireError {
                code: ErrorCode::UnknownOp,
                message: format!("no route `{path}` (see docs/PROTOCOL.md for the route table)"),
            }),
        };
        return (
            http::encode_protocol_response(&response, keep_alive),
            "invalid",
            true,
            close_after,
        );
    };
    let decoded = match request.method.as_str() {
        "POST" => http::decode_request(op, &request.body),
        "GET" if op == "info" => Ok(http::info_request(query_string)),
        method => {
            let response = Response {
                id: Json::Null,
                result: Err(WireError::bad_request(format!(
                    "method {method} not allowed on {path}; use POST (GET only on /v1/info)"
                ))),
            };
            return (
                http::encode_response(
                    405,
                    &encode_for(Framing::Line, &response, keep_alive),
                    keep_alive,
                ),
                "invalid",
                true,
                close_after,
            );
        }
    };
    let (response, op) = respond(decoded, execute);
    (
        http::encode_protocol_response(&response, keep_alive),
        op,
        response.result.is_err(),
        close_after,
    )
}

/// The single-catalog backend that [`serve`] runs: a [`QueryService`] that one
/// writer at a time changes, the published snapshot of it that reads rank
/// against, its shard-partial ingest sessions, and the totals of its maintenance
/// passes (expire idle sessions, then compact the catalog).
pub struct Node {
    /// The service, locked by each writer for the whole of its write: ingest,
    /// ingest-finish, drop, import, compaction, cold hydration and export.
    writer: Mutex<QueryService>,
    /// The snapshot reads rank against, replaced by every write before it
    /// replies; locked only long enough to clone or swap the pointer.
    published: Mutex<Arc<Snapshot>>,
    /// The catalog's primary spec, which `rank` checks query sketches against.
    spec: SketcherSpec,
    sessions: Mutex<SessionMap>,
    session_ttl: Duration,
    maintenance_stats: Mutex<MaintenanceStats>,
    /// Asks the core's background thread for a pass after a write leaves
    /// garbage behind.
    wakeup: Arc<Wakeup>,
}

/// What a read sees: the catalog as of one committed write.
struct Snapshot {
    index: Arc<SketchIndex>,
    /// Whether every cataloged column is in `index`; a cold catalog hydrates on
    /// its first ranking read.
    hydrated: bool,
    /// The `info` answer, captured with the index so the two agree.
    info: ResponseBody,
}

impl Snapshot {
    fn of(service: &QueryService, spec: &SketcherSpec) -> Snapshot {
        let stats = service.stats();
        let info = ResponseBody::Info {
            columns: service
                .catalog()
                .live_entries()
                .map(|e| InfoColumn {
                    table: e.table.clone(),
                    column: e.column.clone(),
                    rows: e.rows,
                })
                .collect(),
            stats: Some(WireServiceStats {
                columns: stats.columns as u64,
                hydrated: stats.hydrated as u64,
                bytes_on_disk: stats.bytes_on_disk,
                last_compaction: stats.last_compaction.as_ref().map(|report| WireCompaction {
                    removed_files: report.removed_files.len() as u64,
                    live_columns: report.live_columns as u64,
                }),
            }),
            sketcher: stats.sketcher,
            fingerprint: stats.fingerprint,
            method: stats.method,
            format: Some(stats.format),
            spec: Some(spec.encode()),
            server: None,
            // Single catalog nodes never report cluster state; only the router
            // synthesizes info responses with a `cluster` member.
            cluster: None,
        };
        Snapshot {
            index: service.snapshot(),
            hydrated: service.is_fully_hydrated(),
            info,
        }
    }
}

/// One live shard-partial ingest session.  The state slot holds `None` while
/// `ingest-finish` consumes it, so a racing operation on the same session gets a
/// clean `unknown_session` instead of blocking or corrupting it.
struct SessionSlot {
    state: Arc<Mutex<Option<ShardedIngestState>>>,
    /// When the session was last looked up; maintenance expires sessions whose
    /// idle time exceeds the configured TTL.
    touched: Instant,
}

struct SessionMap {
    next_id: u64,
    slots: HashMap<u64, SessionSlot>,
}

impl SessionMap {
    /// Looks up a session's state, refreshing its idle clock.
    fn touch(&mut self, session: u64) -> Option<Arc<Mutex<Option<ShardedIngestState>>>> {
        self.slots.get_mut(&session).map(|slot| {
            slot.touched = Instant::now();
            Arc::clone(&slot.state)
        })
    }
}

impl Node {
    fn new(service: QueryService, config: &ServerConfig) -> Node {
        let spec = service.catalog().spec();
        Node {
            published: Mutex::new(Arc::new(Snapshot::of(&service, &spec))),
            writer: Mutex::new(service),
            spec,
            sessions: Mutex::new(SessionMap {
                next_id: 1,
                slots: HashMap::new(),
            }),
            session_ttl: config.session_ttl,
            maintenance_stats: Mutex::new(MaintenanceStats::default()),
            wakeup: Arc::default(),
        }
    }

    /// The published snapshot, as of the last committed write.
    fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.published.lock())
    }

    /// The published snapshot with every cataloged column in its index: a cold
    /// catalog hydrates first, as a write.
    fn hydrated_snapshot(&self) -> Result<Arc<Snapshot>, WireError> {
        let snapshot = self.snapshot();
        if snapshot.hydrated {
            return Ok(snapshot);
        }
        self.write(QueryService::ensure_hydrated)?;
        Ok(self.snapshot())
    }

    /// Runs one write on the service under the writer lock and publishes the
    /// resulting snapshot before returning — also after a failed write, which
    /// may have changed some state before it failed.
    fn write<T>(
        &self,
        f: impl FnOnce(&mut QueryService) -> Result<T, CatalogError>,
    ) -> Result<T, WireError> {
        let mut service = self.writer.lock();
        let result = f(&mut service);
        let fresh = Arc::new(Snapshot::of(&service, &self.spec));
        // Freeing the replaced snapshot, when no reader holds it any more,
        // happens after the slot is unlocked.
        let replaced = std::mem::replace(&mut *self.published.lock(), fresh);
        drop(replaced);
        result.map_err(WireError::from)
    }

    /// Runs `f` on the live state of `session`, refreshing its idle clock.
    fn with_session<T>(
        &self,
        session: u64,
        f: impl FnOnce(&mut ShardedIngestState) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let slot = self
            .sessions
            .lock()
            .touch(session)
            .ok_or_else(|| unknown_session(session))?;
        let mut guard = slot.lock();
        let state = guard.as_mut().ok_or_else(|| unknown_session(session))?;
        f(state)
    }

    /// Ranks already-sketched query columns against one published snapshot
    /// through [`service::rank`], the path every in-process caller takes, so
    /// wire answers are bit-identical to in-process answers.  `query`,
    /// `batch-query` and `rank` all end here; `sketched[i]` summarizes
    /// `queries[i]`.
    fn rank<Q: QueryColumn<Error = WireError>>(
        &self,
        queries: &[Q],
        sketched: Vec<SketchedColumn>,
        mode: Mode,
        k: u64,
        min_join_size: f64,
        cascade: bool,
    ) -> Result<(Vec<Vec<WireRanked>>, Option<WireNote>), WireError> {
        // The whole batch ranks against one snapshot, so it sees one catalog
        // state however many writes commit meanwhile.
        let snapshot = self.hydrated_snapshot()?;
        let request = RankRequest {
            mode,
            k: usize::try_from(k).unwrap_or(usize::MAX),
            min_join_size,
            cascade,
        };
        let (rankings, note) = service::rank(&snapshot.index, queries, sketched, request)?;
        Ok((
            rankings
                .iter()
                .map(|ranking| ranking.iter().map(WireRanked::from).collect())
                .collect(),
            note.map(|note| WireNote {
                code: note.code.to_string(),
                message: note.message,
            }),
        ))
    }
}

impl Backend for Node {
    type Worker = ();

    fn execute(&self, (): &mut (), body: &RequestBody) -> Result<ResponseBody, WireError> {
        match body {
            RequestBody::Info { .. } => Ok(self.snapshot().info.clone()),
            RequestBody::Query {
                mode,
                k,
                min_join_size,
                cascade,
                query,
            } => {
                let query = std::slice::from_ref(query);
                let sketched =
                    sketch_queries(self.snapshot().index.estimator(), query, *mode, *cascade)?;
                let (rankings, note) =
                    self.rank(query, sketched, *mode, *k, *min_join_size, *cascade)?;
                let [ranking] = <[Vec<WireRanked>; 1]>::try_from(rankings)
                    .expect("one query yields one ranking");
                Ok(ResponseBody::Ranking { ranking, note })
            }
            RequestBody::BatchQuery {
                mode,
                k,
                min_join_size,
                cascade,
                queries,
            } => {
                let sketched =
                    sketch_queries(self.snapshot().index.estimator(), queries, *mode, *cascade)?;
                let (rankings, note) =
                    self.rank(queries, sketched, *mode, *k, *min_join_size, *cascade)?;
                Ok(ResponseBody::Rankings { rankings, note })
            }
            RequestBody::Rank {
                mode,
                k,
                min_join_size,
                cascade,
                queries,
            } => {
                check_cascade(*mode, *cascade)?;
                let sketched = queries
                    .iter()
                    .map(|query| query.to_sketched(&self.spec))
                    .collect::<Result<_, _>>()?;
                let (rankings, note) =
                    self.rank(queries, sketched, *mode, *k, *min_join_size, *cascade)?;
                Ok(ResponseBody::Rankings { rankings, note })
            }
            RequestBody::Ingest { table, partitions } => {
                let table = table.to_table()?;
                // Sketch outside the writer lock (the expensive part — seconds
                // for a large table), so queries keep flowing; only the commit
                // below needs exclusive access.
                let partitions = partitions.map(|p| usize::try_from(p).unwrap_or(usize::MAX));
                let sketched = service::sketch_table(&self.snapshot().index, &table, partitions)?;
                let report = self.write(|service| {
                    service.register_sketched_with_companions(sketched.columns, sketched.companions)
                })?;
                self.wakeup.request();
                Ok(ResponseBody::Report {
                    registered: report.registered,
                    skipped: sketched.skipped,
                })
            }
            RequestBody::IngestBegin { table } => {
                let state = ShardedIngestState::new(&self.snapshot().index, table.clone());
                let mut sessions = self.sessions.lock();
                let id = sessions.next_id;
                sessions.next_id += 1;
                sessions.slots.insert(
                    id,
                    SessionSlot {
                        state: Arc::new(Mutex::new(Some(state))),
                        touched: Instant::now(),
                    },
                );
                Ok(ResponseBody::Session(id))
            }
            RequestBody::IngestAnnounce { session, shard } => {
                self.with_session(*session, |state| {
                    state.announce(&shard.to_table()?).map_err(WireError::from)
                })?;
                Ok(ResponseBody::Session(*session))
            }
            RequestBody::IngestSubmit { session, shard } => {
                self.with_session(*session, |state| {
                    state.submit(&shard.to_table()?).map_err(WireError::from)
                })?;
                Ok(ResponseBody::Session(*session))
            }
            RequestBody::IngestFinish { session } => {
                let slot = self
                    .sessions
                    .lock()
                    .touch(*session)
                    .ok_or_else(|| unknown_session(*session))?;
                // Take the state out of its slot first, so a racing second finish (or
                // announce/submit) observes an empty slot — not a deadlock on the
                // writer lock below.
                let state = slot
                    .lock()
                    .take()
                    .ok_or_else(|| unknown_session(*session))?;
                // The session is consumed whether the commit succeeds or fails (its
                // partial sketches are moved into the registration); drop the map entry.
                self.sessions.lock().slots.remove(session);
                let report = self.write(|service| service.finish_sharded_ingest(state))?;
                self.wakeup.request();
                Ok(ResponseBody::Report {
                    registered: report.registered,
                    skipped: report.skipped,
                })
            }
            RequestBody::DropColumn { table, column } => {
                self.write(|service| service.drop_column(table, column))?;
                // The tombstoned blob is garbage now; let the next maintenance
                // pass reclaim it.
                self.wakeup.request();
                Ok(ResponseBody::Dropped {
                    table: table.clone(),
                    column: column.clone(),
                })
            }
            RequestBody::ExportColumn { table, column } => {
                // It reads a blob file, which compaction must not remove meanwhile.
                let (rows, bytes) = self
                    .writer
                    .lock()
                    .catalog()
                    .export_blob(table, column)
                    .map_err(WireError::from)?;
                Ok(ResponseBody::Sketch(WireSketch {
                    table: table.clone(),
                    column: column.clone(),
                    rows,
                    bytes,
                }))
            }
            RequestBody::ImportColumn { sketch } => {
                let registered = self.write(|service| {
                    service.import_sketched_blob(&sketch.table, &sketch.column, &sketch.bytes)
                })?;
                self.wakeup.request();
                Ok(ResponseBody::Report {
                    registered: if registered {
                        vec![(sketch.table.clone(), sketch.column.clone())]
                    } else {
                        Vec::new()
                    },
                    skipped: if registered {
                        Vec::new()
                    } else {
                        vec![sketch.column.clone()]
                    },
                })
            }
        }
    }

    /// Expires ingest sessions idle past the TTL, then compacts the catalog.
    fn maintain(&self) {
        // Sessions go first: their folded partial sketches are the only
        // server-side state a vanished client leaks.
        let expired = {
            let mut sessions = self.sessions.lock();
            let before = sessions.slots.len();
            sessions
                .slots
                .retain(|_, slot| slot.touched.elapsed() <= self.session_ttl);
            (before - sessions.slots.len()) as u64
        };
        let result = self.write(QueryService::compact);
        let mut stats = self.maintenance_stats.lock();
        stats.sessions_expired += expired;
        match result {
            Ok(report) => {
                stats.passes += 1;
                stats.files_removed += report.removed_files.len() as u64;
            }
            Err(_) => stats.failures += 1,
        }
    }
}

fn unknown_session(session: u64) -> WireError {
    WireError {
        code: ErrorCode::UnknownSession,
        message: format!("no live ingest session {session} (finished, failed, or never begun)"),
    }
}

/// The background thread: runs [`Backend::maintain`] every interval and
/// whenever a pass is requested, until shutdown.
fn background_loop<B: Backend>(shared: &Shared<B>) {
    let core = &shared.core;
    let interval = core.config.maintenance_interval;
    loop {
        {
            let mut pending = lock(&core.wakeup.pending);
            while !*pending && !core.shutdown.load(Ordering::SeqCst) {
                match interval {
                    Some(interval) => {
                        let (guard, timeout) = core
                            .wakeup
                            .cv
                            .wait_timeout(pending, interval)
                            .unwrap_or_else(PoisonError::into_inner);
                        pending = guard;
                        if timeout.timed_out() {
                            break; // Periodic pass.
                        }
                    }
                    None => {
                        pending = core
                            .wakeup
                            .cv
                            .wait(pending)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
            if core.shutdown.load(Ordering::SeqCst) {
                return;
            }
            *pending = false;
        }
        shared.backend.maintain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireQuery;
    use proptest::prelude::*;

    /// Frames `chunks` in order, as the reactor does read by read; returns the
    /// lines and the unframed tail.
    fn frame_chunked<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> (Vec<Vec<u8>>, Vec<u8>) {
        let mut buf = Vec::new();
        let mut scanned = 0;
        let mut lines = Vec::new();
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            lines.extend(drain_lines(&mut buf, &mut scanned));
        }
        (lines, buf)
    }

    #[test]
    fn drain_lines_frames_and_keeps_partials() {
        let mut buf = b"one\r\ntwo\n\n\r\npartial".to_vec();
        let mut scanned = 0;
        let lines = drain_lines(&mut buf, &mut scanned);
        assert_eq!(lines, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(buf, b"partial");
        assert_eq!(scanned, buf.len());
        let lines = drain_lines(&mut buf, &mut scanned);
        assert!(lines.is_empty());
        buf.extend_from_slice(b" more\n");
        assert_eq!(
            drain_lines(&mut buf, &mut scanned),
            vec![b"partial more".to_vec()]
        );
        assert!(buf.is_empty());
        assert_eq!(scanned, 0);
        // A `\r\n` split across reads frames as in one read.
        let (lines, tail) = frame_chunked([&b"a\r"[..], b"\nb\r", b"\n\r", b"\nc"]);
        assert_eq!(lines, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(tail, b"c");
    }

    proptest! {
        #[test]
        fn every_chunking_frames_like_one_shot(
            // Mostly `\n`, `\r` and `{`, so lines are short and empty lines and
            // `\r\n` pairs are common; any other byte now and then.
            stream in proptest::collection::vec(
                (0u8..8, any::<u8>()).prop_map(|(kind, byte)| match kind {
                    0 | 1 => b'\n',
                    2 | 3 => b'\r',
                    4 | 5 => b'{',
                    _ => byte,
                }),
                0..300,
            ),
            cuts in proptest::collection::vec(0usize..300, 0..24),
        ) {
            let (one_shot, one_shot_tail) = frame_chunked([stream.as_slice()]);
            // One-shot framing is the plain split: on `\n`, minus one trailing
            // `\r`, skipping empty lines, the last piece left as the tail.
            let mut pieces: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
            let tail = pieces.pop().expect("split yields at least one piece");
            let expected: Vec<Vec<u8>> = pieces
                .into_iter()
                .map(|piece| piece.strip_suffix(b"\r").unwrap_or(piece))
                .filter(|line| !line.is_empty())
                .map(<[u8]>::to_vec)
                .collect();
            prop_assert_eq!(&one_shot, &expected);
            prop_assert_eq!(one_shot_tail.as_slice(), tail);

            let mut cuts: Vec<usize> = cuts.into_iter().map(|cut| cut.min(stream.len())).collect();
            cuts.push(0);
            cuts.push(stream.len());
            cuts.sort_unstable();
            let (chunked, chunked_tail) =
                frame_chunked(cuts.windows(2).map(|w| &stream[w[0]..w[1]]));
            prop_assert_eq!(chunked, one_shot);
            prop_assert_eq!(chunked_tail, one_shot_tail);
        }
    }

    #[test]
    fn builder_defaults_keep_worker_headroom_small() {
        let config = ServerConfig::builder()
            .tcp("127.0.0.1:0")
            .build()
            .expect("valid");
        assert_eq!(config.workers(), 2);
        assert!(config.max_line_bytes() >= 1 << 20);
        assert!(config.maintenance_interval().is_some());
        assert!(config.max_connections() >= 1);
        assert!(config.max_queue_depth() >= 1);
        assert_eq!(config.tcp(), Some("127.0.0.1:0"));
        assert_eq!(config.http(), None);
    }

    #[test]
    fn builder_rejects_nonsense_with_typed_errors() {
        assert_eq!(
            ServerConfig::builder().build().expect_err("no address"),
            ConfigError::NoBindAddress
        );
        assert_eq!(
            ServerConfig::builder()
                .tcp("127.0.0.1:0")
                .workers(0)
                .build()
                .expect_err("zero workers"),
            ConfigError::ZeroWorkers
        );
        assert_eq!(
            ServerConfig::builder()
                .http("127.0.0.1:0")
                .max_connections(0)
                .build()
                .expect_err("zero connections"),
            ConfigError::ZeroConnectionCap
        );
        assert_eq!(
            ServerConfig::builder()
                .http("127.0.0.1:0")
                .max_queue_depth(0)
                .build()
                .expect_err("zero queue"),
            ConfigError::ZeroQueueDepth
        );
        assert!(matches!(
            ServerConfig::builder()
                .tcp("127.0.0.1:0")
                .max_line_bytes(16)
                .build()
                .expect_err("tiny bound"),
            ConfigError::LineBoundTooSmall { got: 16, .. }
        ));
        // Every error renders a human-readable sentence.
        for err in [
            ConfigError::NoBindAddress,
            ConfigError::ZeroWorkers,
            ConfigError::ZeroConnectionCap,
            ConfigError::ZeroQueueDepth,
            ConfigError::LineBoundTooSmall { got: 1, min: 2 },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ipsketch-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn reads_finish_while_a_writer_holds_the_writer_lock() {
        use crate::protocol::WireRankQuery;
        use ipsketch_core::method::{AnySketcher, SketchMethod};
        use ipsketch_data::{Column, Table};

        let root = temp_root("snapshot-reads");
        let spec = AnySketcher::for_budget(SketchMethod::Kmv, 128.0, 7)
            .expect("budget fits")
            .spec();
        let mut service = QueryService::create(&root, spec).expect("create");
        let lake = Table::new(
            "lake",
            (0..200).collect(),
            vec![Column::new("v", (0..200).map(f64::from).collect())],
        )
        .expect("table");
        service.ingest_table(&lake).expect("ingest");
        let config = ServerConfig::builder()
            .tcp("127.0.0.1:0")
            .build()
            .expect("valid");
        let node = Node::new(service, &config);
        let query = WireQuery {
            table: "q".to_string(),
            column: "c".to_string(),
            keys: (100..300).collect(),
            values: (100..300).map(|i| f64::from(i) + 1.0).collect(),
        };
        let sketched = sketch_queries(
            node.snapshot().index.estimator(),
            std::slice::from_ref(&query),
            Mode::Joinable,
            false,
        )
        .expect("sketch");
        let format = node.writer.lock().catalog().format();
        let reads = [
            RequestBody::Query {
                mode: Mode::Joinable,
                k: 3,
                min_join_size: 0.0,
                cascade: true,
                query: query.clone(),
            },
            RequestBody::Rank {
                mode: Mode::Joinable,
                k: 3,
                min_join_size: 0.0,
                cascade: true,
                queries: vec![WireRankQuery::new(query, &sketched[0], format)],
            },
            RequestBody::Info { server: false },
        ];

        let (tx, rx) = std::sync::mpsc::channel();
        let answers = std::thread::scope(|scope| {
            // Held inside the scope, so a failing wait below unwinds through its
            // drop and the reader thread can finish before the scope joins it.
            let writer = node.writer.lock();
            let (node, reads) = (&node, &reads);
            scope.spawn(move || {
                for body in reads {
                    tx.send(node.execute(&mut (), body))
                        .expect("receiver lives");
                }
            });
            let answers: Vec<ResponseBody> = reads
                .iter()
                .map(|body| {
                    rx.recv_timeout(Duration::from_secs(30))
                        .unwrap_or_else(|_| panic!("`{}` waited on the writer", body.op()))
                        .unwrap_or_else(|e| panic!("`{}` failed: {e:?}", body.op()))
                })
                .collect();
            drop(writer);
            answers
        });
        let (
            ResponseBody::Ranking { ranking, .. },
            ResponseBody::Rankings { rankings, .. },
            ResponseBody::Info { columns, .. },
        ) = (&answers[0], &answers[1], &answers[2])
        else {
            panic!("unexpected answers: {answers:?}");
        };
        assert_eq!(ranking[0].table, "lake");
        assert_eq!(rankings, &vec![ranking.clone()]);
        assert_eq!(columns.len(), 1);
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    /// Panics on `drop-column` of table `boom`; answers anything else with an
    /// empty `info`.
    struct PanicsOnBoom;

    impl Backend for PanicsOnBoom {
        type Worker = ();

        fn execute(&self, (): &mut (), body: &RequestBody) -> Result<ResponseBody, WireError> {
            if let RequestBody::DropColumn { table, .. } = body {
                assert_ne!(table, "boom", "the marker request");
            }
            Ok(ResponseBody::Info {
                sketcher: String::new(),
                fingerprint: String::new(),
                method: String::new(),
                format: None,
                spec: None,
                columns: Vec::new(),
                stats: None,
                server: None,
                cluster: None,
            })
        }

        fn maintain(&self) {}
    }

    #[test]
    fn a_panicking_request_costs_one_internal_error_not_the_worker() {
        use std::io::BufRead;

        let config = ServerConfig::builder()
            .tcp("127.0.0.1:0")
            .workers(1)
            .maintenance_interval(None)
            .build()
            .expect("valid");
        let handle = serve_backend(PanicsOnBoom, config).expect("serve");
        let mut stream = TcpStream::connect(handle.tcp_addr().expect("tcp")).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        // Pipelined: the second request rides the same connection and the only
        // worker, so it is answered only if that worker survived the first.
        stream
            .write_all(
                b"{\"v\": 1, \"id\": 1, \"op\": \"drop-column\", \"table\": \"boom\", \"column\": \"c\"}\n\
                  {\"v\": 1, \"id\": 2, \"op\": \"info\", \"server\": true}\n",
            )
            .expect("send");
        let mut lines = io::BufReader::new(stream).lines();
        let mut next = || {
            let line = lines.next().expect("a response").expect("read");
            Response::decode(&line).expect("decodes")
        };
        let failed = next();
        assert_eq!(failed.id.as_u64(), Some(1));
        let error = failed.result.expect_err("the marker request fails");
        assert_eq!(error.code, ErrorCode::Internal, "{}", error.message);
        let answered = next();
        assert_eq!(answered.id.as_u64(), Some(2));
        match answered.result.expect("the next request is answered") {
            ResponseBody::Info {
                server: Some(server),
                ..
            } => assert_eq!(server.panics, 1),
            other => panic!("expected info with a server member, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn dual_binds_accept_both_framers() {
        let config = ServerConfig::builder()
            .tcp("127.0.0.1:0")
            .http("127.0.0.1:0")
            .build()
            .expect("valid");
        assert!(config.tcp().is_some() && config.http().is_some());
    }
}

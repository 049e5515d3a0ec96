//! Serving-layer load generator: sustained throughput and latency quantiles for
//! the catalog server, measured over real sockets against both wire framers.
//!
//! ```sh
//! cargo run --release -p ipsketch-bench --features server --bin loadgen
//! ```
//!
//! Three scenarios run against each framer (line-TCP and HTTP/1.1):
//!
//! * `query` — single joinability queries against a warm catalog;
//! * `batch_query` — batched queries (the high-throughput shape);
//! * `query_under_ingest` — queries while a background client keeps
//!   registering fresh tables, exercising reads beside catalog writes.
//!
//! A fourth, `routed_query` (TCP only — `ipsketch route` binds the line
//! framing), sends the same single queries through an `ipsketch route`-style
//! router fronting three in-process nodes at replication 2, pricing the
//! fan-out/merge hop relative to the plain `query` rows.  A fifth,
//! `routed_query_flaky_node`, repeats that run with one node behind a
//! connection-resetting fault proxy: the router demotes it and serves from
//! the surviving replicas, pricing failover and the degraded fan-out.
//!
//! Each scenario first measures closed-loop capacity, then replays an
//! **open-loop** schedule at 70% of that capacity: arrivals are fixed in
//! advance, and each latency is measured from the *scheduled* arrival, so
//! server-side stalls surface as tail latency instead of being absorbed by a
//! slowing client (no coordinated omission).
//!
//! Results are written under a `quick` or `full` profile beside the committed
//! `BENCH_serve.json`'s other profile (carried over verbatim) to
//! `target/bench-reports/BENCH_serve.json`, through the harness the kernel and
//! cascade suites share ([`ipsketch_bench::report`]). Environment knobs:
//!
//! * `IPSKETCH_BENCH_QUICK=1` — CI-sized runs under the `quick` profile;
//! * `IPSKETCH_BENCH_ENFORCE=1` — exit non-zero if any scenario's sustained
//!   qps falls below 75% of the committed same-profile baseline;
//! * `IPSKETCH_BENCH_OUT` — write the merged report to this path instead.
//!   The committed file stays the enforcement baseline; a refresh of it names
//!   it here explicitly (`IPSKETCH_BENCH_OUT=$PWD/BENCH_serve.json`).
//!
//! Committed-baseline convention: single runs on shared machines jitter by
//! ±15%, so the committed `quick` numbers are a conservative floor (the
//! per-scenario minimum across repeated runs on the reference machine), not
//! one lucky run. Refresh them the same way: run quick a few times and keep
//! the minima.

use ipsketch_bench::report::{self, fixed, quantile, BenchReport};
use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_data::{DataLake, DataLakeConfig, Table};
use ipsketch_serve::faults::{FaultMode, FaultProxy};
use ipsketch_serve::protocol::{Mode, Request, RequestBody, Response, WireQuery, WireTable};
use ipsketch_serve::router::{serve_router, NodeSpec, Router, RouterHandle};
use ipsketch_serve::server::{serve, ServerConfig, ServerHandle};
use ipsketch_serve::wire::Json;
use ipsketch_serve::QueryService;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 7;
const OPEN_LOOP_FRACTION: f64 = 0.7;

struct Profile {
    /// Tables pre-ingested into the served catalog.
    tables: usize,
    /// Queries per batch-query request.
    batch: usize,
    /// Concurrent client connections.
    connections: usize,
    /// Closed-loop capacity measurement window.
    capacity: Duration,
    /// Open-loop measurement window.
    measure: Duration,
}

impl Profile {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                tables: 8,
                batch: 8,
                connections: 2,
                capacity: Duration::from_millis(300),
                measure: Duration::from_millis(600),
            }
        } else {
            Self {
                tables: 24,
                batch: 16,
                connections: 4,
                capacity: Duration::from_secs(1),
                measure: Duration::from_secs(3),
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct ScenarioResult {
    scenario: String,
    framer: String,
    capacity_qps: f64,
    sustained_qps: f64,
    p50_us: u64,
    p99_us: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Framer {
    Tcp,
    Http,
}

impl Framer {
    fn label(self) -> &'static str {
        match self {
            Framer::Tcp => "tcp",
            Framer::Http => "http",
        }
    }
}

/// One blocking client connection speaking either framer.
struct Conn {
    framer: Framer,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(framer: Framer, addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        stream.set_nodelay(true).expect("nodelay");
        Conn {
            framer,
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// One request/response round trip; panics on a protocol error (the load
    /// must stay a pure success path or the numbers measure error handling).
    fn call(&mut self, path: &str, line: &str) {
        match self.framer {
            Framer::Tcp => {
                self.writer.write_all(line.as_bytes()).expect("send");
                self.writer.write_all(b"\n").expect("send newline");
                let mut reply = String::new();
                let n = self.reader.read_line(&mut reply).expect("recv");
                assert!(n > 0, "server closed mid-run");
                let response = Response::decode(reply.trim_end()).expect("well-formed");
                assert!(response.result.is_ok(), "load request failed: {response:?}");
            }
            Framer::Http => {
                let head = format!(
                    "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n",
                    line.len()
                );
                self.writer.write_all(head.as_bytes()).expect("send");
                self.writer.write_all(line.as_bytes()).expect("send body");
                let mut status = String::new();
                let n = self.reader.read_line(&mut status).expect("recv status");
                assert!(n > 0, "server closed mid-run");
                assert!(
                    status.starts_with("HTTP/1.1 200"),
                    "load request failed: {status}"
                );
                let mut content_length = 0usize;
                loop {
                    let mut header = String::new();
                    self.reader.read_line(&mut header).expect("recv header");
                    let header = header.trim_end();
                    if header.is_empty() {
                        break;
                    }
                    if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                        content_length = v.trim().parse().expect("length");
                    }
                }
                let mut body = vec![0u8; content_length];
                self.reader.read_exact(&mut body).expect("recv body");
            }
        }
    }
}

/// The served lake plus prebuilt request lines for every scenario.
struct Workload {
    handle: ServerHandle,
    root: PathBuf,
    query_line: String,
    batch_line: String,
    ingest_template: WireTable,
}

/// An empty catalog in a fresh temporary directory named after `tag`.  JL
/// keeps per-request sketching cheap, so the measurement weighs the serving
/// path (framing, locks, queueing) rather than the sketch kernel.
fn create_catalog(tag: &str) -> (PathBuf, QueryService) {
    let root = std::env::temp_dir().join(format!("ipsketch-loadgen-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = AnySketcher::for_budget(SketchMethod::Jl, 256.0, SEED)
        .expect("budget fits")
        .spec();
    let service = QueryService::create(&root, spec).expect("create catalog");
    (root, service)
}

/// The lake every scenario serves.
fn lake(profile: &Profile) -> DataLake {
    DataLakeConfig {
        tables: profile.tables,
        columns_per_table: 2,
        min_rows: 100,
        max_rows: 300,
        key_universe: 1_000,
    }
    .generate(SEED)
    .expect("valid config")
}

/// `column` of `table` as a query from a table no catalog holds.
fn wire_query(table: &Table, column: &str) -> WireQuery {
    WireQuery {
        table: "loadgen".to_string(),
        column: column.to_string(),
        keys: table.keys().to_vec(),
        values: table
            .columns()
            .iter()
            .find(|c| c.name == column)
            .expect("column exists")
            .values
            .clone(),
    }
}

/// The single joinability query every `query` scenario sends: `table`'s
/// first column.
fn query_line(table: &Table) -> String {
    Request {
        id: Json::u64(1),
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade: false,
            query: wire_query(table, &table.columns()[0].name),
        },
    }
    .encode()
}

fn build_workload(tag: &str, profile: &Profile) -> Workload {
    let (root, mut service) = create_catalog(tag);
    let lake = lake(profile);
    for table in lake.tables() {
        service.ingest_table(table).expect("lake ingests");
    }
    // Hydrate up front so the measured window serves, not loads.
    service.ensure_hydrated().expect("catalog hydrates");

    let first = &lake.tables()[0];
    let query_line = query_line(first);
    let batch_line = Request {
        id: Json::u64(2),
        body: RequestBody::BatchQuery {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade: false,
            queries: first
                .columns()
                .iter()
                .cycle()
                .take(profile.batch)
                .map(|c| wire_query(first, &c.name))
                .collect(),
        },
    }
    .encode();
    let ingest_template = WireTable::from_table(&lake.tables()[1].clone());

    let handle = serve(
        service,
        ServerConfig::builder()
            .tcp("127.0.0.1:0")
            .http("127.0.0.1:0")
            .maintenance_interval(None)
            .build()
            .expect("valid config"),
    )
    .expect("serve");
    Workload {
        handle,
        root,
        query_line,
        batch_line,
        ingest_template,
    }
}

/// Three catalog nodes behind one router, the lake ingested *through* the
/// router so every `(table, column)` lands on its rendezvous owners.  With
/// `flaky`, node 0 sits behind a connection-resetting [`FaultProxy`]: the
/// router demotes it after the first failed read and serves from the two
/// healthy replicas, so the scenario prices a degraded-but-correct cluster.
struct RoutedWorkload {
    router: RouterHandle,
    nodes: Vec<ServerHandle>,
    proxy: Option<FaultProxy>,
    roots: Vec<PathBuf>,
    query_line: String,
}

fn build_routed_workload(profile: &Profile, flaky: bool) -> RoutedWorkload {
    let tag = if flaky { "flaky" } else { "routed" };
    let mut nodes = Vec::new();
    let mut roots = Vec::new();
    for i in 0..3 {
        let (root, service) = create_catalog(&format!("{tag}-{i}"));
        let handle = serve(
            service,
            ServerConfig::builder()
                .tcp("127.0.0.1:0")
                .maintenance_interval(None)
                .build()
                .expect("valid config"),
        )
        .expect("serve node");
        nodes.push(handle);
        roots.push(root);
    }
    let mut specs: Vec<NodeSpec> = nodes
        .iter()
        .map(|n| NodeSpec::tcp(n.tcp_addr().expect("tcp bound").to_string()))
        .collect();
    // The proxy starts honest so the ingest below places blobs everywhere;
    // the fault is switched on after warmup.
    let proxy = flaky.then(|| {
        let proxy =
            FaultProxy::start(specs[0].addr.clone(), FaultMode::Passthrough).expect("fault proxy");
        specs[0] = NodeSpec::tcp(proxy.addr());
        proxy
    });
    let router = Router::new(specs, 2).expect("valid router");
    let router = serve_router(router, "127.0.0.1:0".parse().expect("addr")).expect("route");

    let lake = lake(profile);
    let mut conn = Conn::connect(Framer::Tcp, router.addr());
    for table in lake.tables() {
        let line = Request {
            id: Json::Null,
            body: RequestBody::Ingest {
                table: WireTable::from_table(table),
                partitions: None,
            },
        }
        .encode();
        conn.call("/v1/ingest", &line);
    }

    let query_line = query_line(&lake.tables()[0]);
    // Warm every node's hydration path through the router before measuring.
    conn.call("/v1/query", &query_line);
    if let Some(proxy) = &proxy {
        proxy.handle().set_mode(FaultMode::Reset);
    }
    RoutedWorkload {
        router,
        nodes,
        proxy,
        roots,
        query_line,
    }
}

fn addr_for(handle: &ServerHandle, framer: Framer) -> SocketAddr {
    match framer {
        Framer::Tcp => handle.tcp_addr().expect("tcp bound"),
        Framer::Http => handle.http_addr().expect("http bound"),
    }
}

/// Closed-loop capacity: every connection fires back-to-back for the window.
fn measure_capacity(
    framer: Framer,
    addr: SocketAddr,
    path: &str,
    line: &str,
    profile: &Profile,
) -> f64 {
    let total = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let deadline = started + profile.capacity;
    std::thread::scope(|scope| {
        for _ in 0..profile.connections {
            let total = Arc::clone(&total);
            scope.spawn(move || {
                let mut conn = Conn::connect(framer, addr);
                while Instant::now() < deadline {
                    conn.call(path, line);
                    total.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    total.load(Ordering::Relaxed) as f64 / elapsed
}

/// Open loop at a fixed arrival rate; latencies are measured from scheduled
/// arrival times, so a stalling server accrues tail latency.
fn measure_open_loop(
    framer: Framer,
    addr: SocketAddr,
    path: &str,
    line: &str,
    profile: &Profile,
    target_qps: f64,
) -> (f64, Vec<u64>) {
    let per_conn = (target_qps / profile.connections as f64).max(1.0);
    let interval = Duration::from_secs_f64(1.0 / per_conn);
    let started = Instant::now();
    let deadline = started + profile.measure;
    let mut all = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..profile.connections {
            handles.push(scope.spawn(move || {
                let mut conn = Conn::connect(framer, addr);
                let mut latencies = Vec::new();
                for n in 0u32.. {
                    let scheduled = started + interval * n;
                    if scheduled >= deadline {
                        break;
                    }
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    conn.call(path, line);
                    latencies
                        .push(u64::try_from(scheduled.elapsed().as_micros()).unwrap_or(u64::MAX));
                }
                latencies
            }));
        }
        for handle in handles {
            all.extend(handle.join().expect("load thread"));
        }
    });
    let sustained = all.len() as f64 / started.elapsed().as_secs_f64();
    (sustained, all)
}

/// Runs one (scenario, framer) pair: capacity probe, then the open-loop window.
fn run_scenario(
    scenario: &str,
    framer: Framer,
    workload: &Workload,
    profile: &Profile,
) -> ScenarioResult {
    let (path, line) = match scenario {
        "query" | "query_under_ingest" => ("/v1/query", workload.query_line.as_str()),
        "batch_query" => ("/v1/batch-query", workload.batch_line.as_str()),
        other => panic!("unknown scenario {other}"),
    };
    let addr = addr_for(&workload.handle, framer);

    // An optional background ingester registering fresh tables over TCP.
    let stop = Arc::new(AtomicBool::new(false));
    let ingester = (scenario == "query_under_ingest").then(|| {
        let stop = Arc::clone(&stop);
        let tcp = workload.handle.tcp_addr().expect("tcp bound");
        let template = workload.ingest_template.clone();
        let label = framer.label().to_string();
        std::thread::spawn(move || {
            let mut conn = Conn::connect(Framer::Tcp, tcp);
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut table = template.clone();
                table.name = format!("load-{label}-{n}");
                let line = Request {
                    id: Json::Null,
                    body: RequestBody::Ingest {
                        table,
                        partitions: None,
                    },
                }
                .encode();
                conn.call("/v1/ingest", &line);
                n += 1;
            }
            n
        })
    });

    let result = measure(scenario, framer, addr, path, line, profile);
    stop.store(true, Ordering::Relaxed);
    match ingester.map(|t| t.join().expect("ingester")) {
        Some(n) => println!("{} | {n} concurrent ingests", result.line()),
        None => println!("{}", result.line()),
    }
    result
}

/// One scenario's numbers: the capacity probe, then the open-loop window at
/// [`OPEN_LOOP_FRACTION`] of that capacity.
fn measure(
    scenario: &str,
    framer: Framer,
    addr: SocketAddr,
    path: &str,
    line: &str,
    profile: &Profile,
) -> ScenarioResult {
    let capacity_qps = measure_capacity(framer, addr, path, line, profile);
    let target = capacity_qps * OPEN_LOOP_FRACTION;
    let (sustained_qps, mut latencies) =
        measure_open_loop(framer, addr, path, line, profile, target);
    latencies.sort_unstable();
    ScenarioResult {
        scenario: scenario.to_string(),
        framer: framer.label().to_string(),
        capacity_qps,
        sustained_qps,
        p50_us: quantile(&latencies, 0.50),
        p99_us: quantile(&latencies, 0.99),
    }
}

impl ScenarioResult {
    fn line(&self) -> String {
        format!(
            "{:>20} / {:<5} capacity {:>8.0} qps | sustained {:>8.0} qps | p50 {:>6} us | p99 {:>6} us",
            self.scenario,
            self.framer,
            self.capacity_qps,
            self.sustained_qps,
            self.p50_us,
            self.p99_us
        )
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scenario".into(), Json::str(&self.scenario)),
            ("framer".into(), Json::str(&self.framer)),
            ("capacity_qps".into(), fixed(self.capacity_qps, 1)),
            ("sustained_qps".into(), fixed(self.sustained_qps, 1)),
            ("p50_us".into(), Json::u64(self.p50_us)),
            ("p99_us".into(), Json::u64(self.p99_us)),
        ])
    }
}

fn main() {
    let report = BenchReport::open(
        "BENCH_serve.json",
        "cargo run --release -p ipsketch-bench --features server --bin loadgen",
    );
    let profile = Profile::new(report.profile() == report::Profile::Quick);
    let scenarios = ["query", "batch_query", "query_under_ingest"];
    let mut results = Vec::new();
    for scenario in scenarios {
        // A fresh server per scenario: the under-ingest run grows its catalog
        // and must not contaminate the others.
        let workload = build_workload(scenario, &profile);
        for framer in [Framer::Tcp, Framer::Http] {
            results.push(run_scenario(scenario, framer, &workload, &profile));
        }
        workload.handle.shutdown();
        let _ = std::fs::remove_dir_all(&workload.root);
    }

    // The routed scenarios measure the router's line-TCP binding only: the
    // serving core can bind HTTP for a router too, but `serve_router` (and so
    // `ipsketch route`) binds one TCP address.
    // `routed_query_flaky_node` repeats the run with one node resetting every
    // connection: the price of failover plus a 2-of-3 fan-out.
    for (name, flaky) in [("routed_query", false), ("routed_query_flaky_node", true)] {
        let routed = build_routed_workload(&profile, flaky);
        let addr = routed.router.addr();
        let line = routed.query_line.as_str();
        let result = measure(name, Framer::Tcp, addr, "/v1/query", line, &profile);
        println!("{}", result.line());
        results.push(result);
        routed.router.shutdown();
        if let Some(proxy) = routed.proxy {
            proxy.shutdown();
        }
        for node in routed.nodes {
            node.shutdown();
        }
        for root in routed.roots {
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    let parameters = Json::Obj(vec![
        ("tables".to_string(), Json::u64(profile.tables as u64)),
        ("batch".to_string(), Json::u64(profile.batch as u64)),
        (
            "connections".to_string(),
            Json::u64(profile.connections as u64),
        ),
        (
            "measure_ms".to_string(),
            Json::u64(profile.measure.as_millis() as u64),
        ),
        ("seed".to_string(), Json::u64(SEED)),
        (
            "open_loop_fraction".to_string(),
            Json::f64(OPEN_LOOP_FRACTION),
        ),
    ]);
    report
        .write(&[
            ("parameters", parameters),
            (
                "results",
                Json::Arr(results.iter().map(ScenarioResult::to_json).collect()),
            ),
        ])
        .expect("report writes");

    // 25% tolerance: shared CI runners are noisy; the gate is for real
    // regressions (a serialization bug, an accidental lock), not jitter.
    report::enforce(&report.relative_floors(
        &["scenario", "framer"],
        "sustained_qps",
        0.75,
        |key| {
            let now = results
                .iter()
                .find(|r| r.scenario == key[0] && r.framer == key[1])?;
            Some(now.sustained_qps)
        },
    ));
}

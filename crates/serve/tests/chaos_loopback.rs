//! Chaos loopback tests (`--features server`): a router fronting real `serve`
//! nodes, one of them behind a [`FaultProxy`], must keep answering
//! **bit-identically** to a healthy in-process twin while the proxied node
//! stalls, drops bytes mid-response, speaks garbage, or resets connections —
//! and no request may block past its configured deadlines.  The suite also
//! exercises the health lifecycle end to end (demotion on failure, probe
//! recovery), typed `deadline_exceeded` on writes to a stalled owner,
//! router-side ingest-session TTL expiry, and the copy-then-flip live
//! rebalance between disjoint node lists.

#![cfg(feature = "server")]

use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_core::SketcherSpec;
use ipsketch_data::{Column, Table};
use ipsketch_join::RankedColumn;
use ipsketch_serve::faults::{FaultMode, FaultProxy};
use ipsketch_serve::protocol::{
    ErrorCode, Mode, Request, RequestBody, Response, ResponseBody, WireQuery, WireRanked, WireTable,
};
use ipsketch_serve::router::{
    owners, rebalance, serve_router, NodeSpec, RetryPolicy, Router, RouterConfig, RouterHandle,
};
use ipsketch_serve::server::{serve, ServerConfig, ServerHandle};
use ipsketch_serve::service::{rank, RankRequest};
use ipsketch_serve::wire::Json;
use ipsketch_serve::{shard_rows, QueryService};
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// In-process ground truth: `table.column` ranked through the same path a
/// node's reads take.
fn ranked(
    service: &mut QueryService,
    table: &Table,
    column: &str,
    mode: Mode,
    k: usize,
    min_join_size: f64,
) -> Vec<RankedColumn> {
    let sketched = service
        .estimator()
        .sketch_column(table, column)
        .expect("sketch");
    service.ensure_hydrated().expect("hydrate");
    let request = RankRequest {
        mode,
        k,
        min_join_size,
        cascade: false,
    };
    let (mut rankings, _) =
        rank(service.index(), &[(table, column)], vec![sketched], request).expect("rank");
    rankings.remove(0)
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipsketch-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec_for(seed: u64) -> SketcherSpec {
    AnySketcher::for_budget(SketchMethod::Kmv, 256.0, seed)
        .expect("budget fits")
        .spec()
}

/// The service-test lake: "query.rides" joins heavily with "good.precip".
fn lake() -> (Table, Table, Table) {
    let query = Table::new(
        "query",
        (0..400).collect(),
        vec![Column::new(
            "rides",
            (0..400).map(|i| f64::from(i) + 1.0).collect(),
        )],
    )
    .expect("table");
    let good = Table::new(
        "good",
        (100..500).collect(),
        vec![
            Column::new(
                "precip",
                (100..500).map(|i| 2.0 * f64::from(i) + 3.0).collect(),
            ),
            Column::new(
                "noise",
                (0..400).map(|i| f64::from((i * 37) % 11) - 5.0).collect(),
            ),
        ],
    )
    .expect("table");
    let bad = Table::new(
        "bad",
        (10_000..10_400).collect(),
        vec![Column::new(
            "other",
            (0..400).map(|i| f64::from(i % 7) + 1.0).collect(),
        )],
    )
    .expect("table");
    (query, good, bad)
}

/// One running catalog node: its server handle plus its on-disk root.
struct Node {
    handle: ServerHandle,
    root: PathBuf,
}

fn boot_nodes(tag: &str, seed: u64, n: usize) -> Vec<Node> {
    (0..n)
        .map(|i| {
            let root = temp_root(&format!("{tag}-node{i}"));
            let service = QueryService::create(&root, spec_for(seed)).expect("create node");
            let config = ServerConfig::builder()
                .tcp("127.0.0.1:0")
                .build()
                .expect("valid config");
            let handle = serve(service, config).expect("serve node");
            Node { handle, root }
        })
        .collect()
}

fn node_addr(node: &Node) -> String {
    node.handle.tcp_addr().expect("tcp bound").to_string()
}

fn cleanup(nodes: Vec<Node>) {
    for node in nodes {
        node.handle.shutdown();
        let _ = fs::remove_dir_all(&node.root);
    }
}

/// Aggressive deadlines so fault scenarios resolve in test time: a stalled
/// node costs ~0.4 s per attempt instead of the production 10 s.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(400),
        read_timeout: Duration::from_millis(400),
        write_timeout: Duration::from_millis(400),
        read_attempts: 2,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(40),
        jitter_seed: 7,
    }
}

fn boot_router_cfg(config: RouterConfig) -> RouterHandle {
    let router = Router::with_config(config).expect("router config");
    serve_router(router, "127.0.0.1:0".parse().expect("addr")).expect("bind router")
}

/// A blocking line-protocol client for the router (or any node).
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
    }

    fn recv_raw(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "router closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    fn call(&mut self, request: &Request) -> Response {
        self.send_raw(&request.encode());
        Response::decode(&self.recv_raw()).expect("well-formed response")
    }

    fn ingest(&mut self, table: &Table) {
        let response = self.call(&Request {
            id: Json::Null,
            body: RequestBody::Ingest {
                table: WireTable::from_table(table),
                partitions: None,
            },
        });
        response.result.expect("routed ingest succeeds");
    }
}

fn wire_query(table: &Table, column: &str) -> WireQuery {
    let values = table
        .columns()
        .iter()
        .find(|c| c.name == column)
        .expect("column exists")
        .values
        .clone();
    WireQuery {
        table: table.name().to_string(),
        column: column.to_string(),
        keys: table.keys().to_vec(),
        values,
    }
}

fn query_request(id: u64, table: &Table, column: &str, k: u64) -> Request {
    Request {
        id: Json::u64(id),
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k,
            min_join_size: 0.0,
            cascade: false,
            query: wire_query(table, column),
        },
    }
}

/// Asserts a served ranking equals an in-process one bit for bit.
fn assert_bit_identical(served: &[WireRanked], in_process: &[RankedColumn]) {
    assert_eq!(served.len(), in_process.len(), "ranking lengths differ");
    for (s, p) in served.iter().zip(in_process) {
        assert_eq!(s.table, p.id.table);
        assert_eq!(s.column, p.id.column);
        assert_eq!(s.score.to_bits(), p.score.to_bits(), "score drift");
        assert_eq!(
            s.join_size.to_bits(),
            p.estimated_join_size.to_bits(),
            "join size drift"
        );
        assert_eq!(
            s.correlation.to_bits(),
            p.estimated_correlation.to_bits(),
            "correlation drift"
        );
    }
}

/// The shared chaos harness: a 3-node cluster with node 0 behind a fault
/// proxy, populated through the router while the proxy is honest, then the
/// proxy switched to `mode` — after which a fresh client's query must still
/// answer bit-identically to the healthy twin, within `budget`.
///
/// Returns the router and cluster so scenario-specific assertions can
/// continue; the caller shuts everything down.
fn run_fault_scenario(
    tag: &str,
    seed: u64,
    mode: FaultMode,
    budget: Duration,
    expect_failover: bool,
) -> (
    RouterHandle,
    FaultProxy,
    Vec<Node>,
    Vec<RankedColumn>,
    Table,
) {
    let (query, good, bad) = lake();

    let twin_root = temp_root(&format!("{tag}-twin"));
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    twin.ingest_table(&good).expect("good");
    twin.ingest_table(&bad).expect("bad");
    let expected = ranked(&mut twin, &query, "rides", Mode::Joinable, 5, 0.0);
    fs::remove_dir_all(&twin_root).expect("cleanup twin");

    let nodes = boot_nodes(tag, seed, 3);
    let proxy = FaultProxy::start(node_addr(&nodes[0]), FaultMode::Passthrough).expect("proxy");
    let specs = vec![
        NodeSpec::tcp(proxy.addr()),
        NodeSpec::tcp(node_addr(&nodes[1])),
        NodeSpec::tcp(node_addr(&nodes[2])),
    ];
    let router = boot_router_cfg(
        RouterConfig::new(specs)
            .replicas(2)
            .retry(fast_retry())
            .probe_interval(Some(Duration::from_millis(100))),
    );

    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);

    // Healthy sanity check (also warms every node).
    let response = client.call(&query_request(1, &query, "rides", 5));
    match response.result.expect("healthy query succeeds") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
        other => panic!("expected ranking, got {other:?}"),
    }

    // Turn the fault on (the proxy severs the router's pooled connections, so
    // the router reconnects into the fault) and query over a fresh connection.
    proxy.handle().set_mode(mode);
    let mut degraded = Client::connect(router.addr());
    let started = Instant::now();
    let response = degraded.call(&query_request(2, &query, "rides", 5));
    let elapsed = started.elapsed();
    match response.result.expect("degraded query succeeds") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
        other => panic!("expected ranking, got {other:?}"),
    }
    assert!(
        elapsed < budget,
        "query under {mode:?} took {elapsed:?}, budget {budget:?}: a deadline leaked"
    );

    if expect_failover {
        let stats = router.stats();
        assert!(stats.failovers >= 1, "failover not counted: {stats:?}");
        let faulty = &stats.nodes[0];
        assert!(faulty.errors >= 1, "faulty node has no errors: {stats:?}");
        assert!(!faulty.healthy, "faulty node still healthy: {stats:?}");
        assert!(faulty.demotions >= 1, "no demotion counted: {stats:?}");
        // Demoted nodes are skipped outright: the next fresh read must be
        // fast (no per-attempt deadline spent on the faulty node).
        let mut skipping = Client::connect(router.addr());
        let started = Instant::now();
        let response = skipping.call(&query_request(3, &query, "rides", 5));
        let elapsed = started.elapsed();
        match response.result.expect("skipping query succeeds") {
            ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
            other => panic!("expected ranking, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_millis(350),
            "demoted node was not skipped: {elapsed:?}"
        );
    }

    (router, proxy, nodes, expected, query)
}

#[test]
fn a_stalled_node_answers_bit_identically_within_deadlines() {
    // Budget: 2 attempts x 400 ms read timeout + backoff + the healthy work.
    let (router, proxy, nodes, _, _) = run_fault_scenario(
        "stall",
        43,
        FaultMode::StallForever,
        Duration::from_secs(3),
        true,
    );
    router.shutdown();
    proxy.shutdown();
    cleanup(nodes);
}

#[test]
fn a_connection_resetting_node_answers_bit_identically() {
    let (router, proxy, nodes, _, _) =
        run_fault_scenario("reset", 47, FaultMode::Reset, Duration::from_secs(3), true);
    router.shutdown();
    proxy.shutdown();
    cleanup(nodes);
}

#[test]
fn a_garbage_speaking_node_answers_bit_identically() {
    let (router, proxy, nodes, _, _) = run_fault_scenario(
        "garbage",
        53,
        FaultMode::Garbage,
        Duration::from_secs(3),
        true,
    );
    router.shutdown();
    proxy.shutdown();
    cleanup(nodes);
}

#[test]
fn a_mid_response_byte_drop_answers_bit_identically() {
    let (router, proxy, nodes, _, _) = run_fault_scenario(
        "dropafter",
        59,
        FaultMode::DropAfter(40),
        Duration::from_secs(3),
        true,
    );
    router.shutdown();
    proxy.shutdown();
    cleanup(nodes);
}

#[test]
fn a_brief_stall_within_the_deadline_is_not_a_failure() {
    // 150 ms pause < 400 ms read timeout: the node is slow, not dead.  The
    // router must wait it out — same bytes, no demotion, no failover.
    let (router, proxy, nodes, _, _) = run_fault_scenario(
        "brownout",
        61,
        FaultMode::StallThenResume(Duration::from_millis(150)),
        Duration::from_secs(3),
        false,
    );
    let stats = router.stats();
    assert_eq!(
        stats.failovers, 0,
        "brownout counted as failover: {stats:?}"
    );
    assert!(
        stats.nodes[0].healthy,
        "brownout demoted the node: {stats:?}"
    );
    assert_eq!(stats.nodes[0].demotions, 0);
    router.shutdown();
    proxy.shutdown();
    cleanup(nodes);
}

#[test]
fn a_demoted_node_is_probed_back_to_health_and_serves_again() {
    let (router, proxy, nodes, expected, query) = run_fault_scenario(
        "probe",
        67,
        FaultMode::StallForever,
        Duration::from_secs(3),
        true,
    );

    // Heal the node; the background prober (100 ms cadence) must promote it
    // without any client traffic touching it.
    proxy.handle().set_mode(FaultMode::Passthrough);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = router.stats();
        let node = &stats.nodes[0];
        if node.healthy && node.promotions >= 1 && node.probes >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "prober never restored the node: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Back in rotation: a fresh read over the full fan-out is still
    // bit-identical.
    let mut client = Client::connect(router.addr());
    let response = client.call(&query_request(9, &query, "rides", 5));
    match response.result.expect("recovered query succeeds") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
        other => panic!("expected ranking, got {other:?}"),
    }

    router.shutdown();
    proxy.shutdown();
    cleanup(nodes);
}

#[test]
fn a_write_to_a_stalled_owner_fails_typed_as_deadline_exceeded() {
    let nodes = boot_nodes("wstall", 71, 3);
    let proxy = FaultProxy::start(node_addr(&nodes[0]), FaultMode::Passthrough).expect("proxy");
    let specs = vec![
        NodeSpec::tcp(proxy.addr()),
        NodeSpec::tcp(node_addr(&nodes[1])),
        NodeSpec::tcp(node_addr(&nodes[2])),
    ];

    // Pick a table whose single column is owned by the proxied node, so the
    // routed ingest must write through the fault.
    let table_name = (0..200)
        .map(|i| format!("t{i}"))
        .find(|name| owners(&specs, 2, name, "v").contains(&0))
        .expect("some table hashes onto node 0");
    let table = Table::new(
        &table_name,
        (0..50).collect(),
        vec![Column::new(
            "v",
            (0..50).map(|i| f64::from(i) + 1.0).collect(),
        )],
    )
    .expect("table");

    let router = boot_router_cfg(
        RouterConfig::new(specs)
            .replicas(2)
            .retry(fast_retry())
            .probe_interval(None),
    );

    proxy.handle().set_mode(FaultMode::StallForever);
    let mut client = Client::connect(router.addr());
    let started = Instant::now();
    let response = client.call(&Request {
        id: Json::u64(1),
        body: RequestBody::Ingest {
            table: WireTable::from_table(&table),
            partitions: None,
        },
    });
    let elapsed = started.elapsed();
    let error = response.result.expect_err("write through a stall fails");
    assert_eq!(error.code, ErrorCode::DeadlineExceeded, "{error:?}");
    assert!(
        error.message.contains("deadline") || error.message.contains("timed out"),
        "unhelpful message: {}",
        error.message
    );
    // One attempt per owner, never retried: bounded by a single write+read
    // deadline plus the healthy owner's work.
    assert!(
        elapsed < Duration::from_secs(2),
        "non-idempotent op blocked past its deadline: {elapsed:?}"
    );

    router.shutdown();
    proxy.shutdown();
    cleanup(nodes);
}

#[test]
fn an_expired_ingest_session_is_unknown_and_commits_nothing() {
    let nodes = boot_nodes("ttl", 73, 2);
    let specs: Vec<NodeSpec> = nodes.iter().map(|n| NodeSpec::tcp(node_addr(n))).collect();
    let router = boot_router_cfg(
        RouterConfig::new(specs)
            .replicas(2)
            .retry(fast_retry())
            .probe_interval(Some(Duration::from_millis(50)))
            .session_ttl(Duration::from_millis(200)),
    );

    let extra = Table::new(
        "extra",
        (0..100).collect(),
        vec![Column::new(
            "depth",
            (0..100).map(|i| f64::from(i) * 0.25 + 1.0).collect(),
        )],
    )
    .expect("table");
    let wire_shards: Vec<WireTable> = shard_rows(&extra, 2)
        .iter()
        .map(WireTable::from_table)
        .collect();

    let mut client = Client::connect(router.addr());
    let session = match client
        .call(&Request {
            id: Json::Null,
            body: RequestBody::IngestBegin {
                table: extra.name().to_string(),
            },
        })
        .result
        .expect("begin")
    {
        ResponseBody::Session(session) => session,
        other => panic!("expected session, got {other:?}"),
    };
    client
        .call(&Request {
            id: Json::Null,
            body: RequestBody::IngestAnnounce {
                session,
                shard: wire_shards[0].clone(),
            },
        })
        .result
        .expect("announce within the ttl");

    // Let the TTL lapse; the prober thread reaps idle sessions.
    std::thread::sleep(Duration::from_millis(800));

    // Every subsequent touch of the session is the typed error — over the
    // original connection and a fresh one alike.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::IngestSubmit {
            session,
            shard: wire_shards[0].clone(),
        },
    });
    assert_eq!(
        response.result.expect_err("expired submit").code,
        ErrorCode::UnknownSession
    );
    let mut fresh = Client::connect(router.addr());
    let response = fresh.call(&Request {
        id: Json::Null,
        body: RequestBody::IngestFinish { session },
    });
    assert_eq!(
        response.result.expect_err("expired finish").code,
        ErrorCode::UnknownSession
    );

    // Nothing was committed anywhere: the cluster still has zero columns.
    let response = fresh.call(&Request {
        id: Json::Null,
        body: RequestBody::Info { server: false },
    });
    match response.result.expect("info succeeds") {
        ResponseBody::Info { columns, .. } => {
            assert!(
                columns.is_empty(),
                "expired session left a partial commit: {columns:?}"
            );
        }
        other => panic!("expected info, got {other:?}"),
    }

    router.shutdown();
    cleanup(nodes);
}

#[test]
fn rebalance_preserves_byte_identity_before_during_and_after_the_flip() {
    let (query, good, bad) = lake();
    let seed = 79;

    let twin_root = temp_root("rebalance-twin");
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    twin.ingest_table(&good).expect("good");
    twin.ingest_table(&bad).expect("bad");
    let expected = ranked(&mut twin, &query, "rides", Mode::Joinable, 5, 0.0);
    fs::remove_dir_all(&twin_root).expect("cleanup twin");

    let assert_ranking = |client: &mut Client, id: u64| {
        let response = client.call(&query_request(id, &query, "rides", 5));
        match response.result.expect("query succeeds") {
            ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
            other => panic!("expected ranking, got {other:?}"),
        }
    };

    // Old cluster: 2 nodes, fully replicated.  New cluster: 3 empty nodes.
    let old_nodes = boot_nodes("rebalance-old", seed, 2);
    let new_nodes = boot_nodes("rebalance-new", seed, 3);
    let old_specs: Vec<NodeSpec> = old_nodes
        .iter()
        .map(|n| NodeSpec::tcp(node_addr(n)))
        .collect();
    let new_specs: Vec<NodeSpec> = new_nodes
        .iter()
        .map(|n| NodeSpec::tcp(node_addr(n)))
        .collect();

    let router = boot_router_cfg(RouterConfig::new(old_specs.clone()).replicas(2));
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);
    assert_ranking(&mut client, 1); // before

    // Copy phase: every (table, column) lands on its new owners, blobs
    // shipped verbatim.
    let report = rebalance(&old_specs, &new_specs, 2, &RetryPolicy::default()).expect("rebalance");
    assert_eq!(report.keys, 3, "good.precip, good.noise, bad.other");
    assert_eq!(report.copied, 6, "3 keys x 2 replicas onto empty nodes");
    assert_eq!(report.already_placed, 0);

    // During: the router still serves the old list — copying is invisible.
    assert_ranking(&mut client, 2);

    // Flip: atomic swap to the new list.  Both the pre-flip connection
    // (whose pool re-syncs) and a fresh one answer bit-identically.
    router.set_nodes(new_specs.clone()).expect("flip");
    assert_ranking(&mut client, 3);
    let mut fresh = Client::connect(router.addr());
    assert_ranking(&mut fresh, 4);

    // A second pass is a no-op: everything is already placed.
    let report = rebalance(&old_specs, &new_specs, 2, &RetryPolicy::default()).expect("re-run");
    assert_eq!(report.copied, 0, "rebalance is idempotent: {report:?}");
    assert_eq!(report.already_placed, 6);

    // A brand-new router over only the new nodes agrees byte for byte.
    let second = boot_router_cfg(RouterConfig::new(new_specs).replicas(2));
    let mut via_second = Client::connect(second.addr());
    assert_ranking(&mut via_second, 5);

    router.shutdown();
    second.shutdown();
    cleanup(old_nodes);
    cleanup(new_nodes);
}

//! Cluster loopback tests (`--features server`): a router fronting ≥3 real
//! `serve` nodes must answer **bit-identically** to one node holding the whole
//! catalog — across insertion orders, with a replica-covered node stopped, and
//! while a node-overlapping sharded ingest runs through the router.

#![cfg(feature = "server")]

use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_core::SketcherSpec;
use ipsketch_data::{Column, Table};
use ipsketch_join::{JoinEstimator, RankedColumn};
use ipsketch_serve::protocol::{
    sketch_queries, ErrorCode, Mode, Request, RequestBody, Response, ResponseBody, WireQuery,
    WireRankQuery, WireRanked, WireTable,
};
use ipsketch_serve::router::{serve_router, NodeSpec, Router, RouterHandle};
use ipsketch_serve::server::{serve, serve_backend, ServerConfig, ServerHandle};
use ipsketch_serve::service::{rank, RankRequest};
use ipsketch_serve::wire::Json;
use ipsketch_serve::{shard_rows, CascadeNote, QueryService};
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// In-process ground truth: the queries ranked through the same path a
/// node's reads take.
fn ranked(
    service: &mut QueryService,
    columns: &[(&Table, &str)],
    mode: Mode,
    k: usize,
    min_join_size: f64,
    cascade: bool,
) -> (Vec<Vec<RankedColumn>>, Option<CascadeNote>) {
    let sketched = columns
        .iter()
        .map(|(table, column)| service.estimator().sketch_column(table, column))
        .collect::<Result<_, _>>()
        .expect("sketch");
    service.ensure_hydrated().expect("hydrate");
    let request = RankRequest {
        mode,
        k,
        min_join_size,
        cascade,
    };
    rank(service.index(), columns, sketched, request).expect("rank")
}

/// [`ranked`] for one flat query.
fn ranked_one(
    service: &mut QueryService,
    table: &Table,
    column: &str,
    mode: Mode,
    k: usize,
    min_join_size: f64,
) -> Vec<RankedColumn> {
    let (mut rankings, _) = ranked(service, &[(table, column)], mode, k, min_join_size, false);
    rankings.remove(0)
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipsketch-cluster-{tag}-{}", std::process::id()));
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

/// Four tables whose only column is value-identical, so all four tie exactly
/// and only the deterministic `(table, column)` tie-break orders them.
fn tie_tables() -> Vec<Table> {
    ["tie_c", "tie_a", "tie_d", "tie_b"]
        .into_iter()
        .map(|name| {
            Table::new(
                name,
                (200..700).collect(),
                vec![Column::new(
                    "v",
                    (200..700).map(|i| f64::from(i) * 0.5 + 1.0).collect(),
                )],
            )
            .expect("table")
        })
        .collect()
}

/// One running catalog node: its server handle plus its on-disk root.
struct Node {
    handle: ServerHandle,
    root: PathBuf,
}

/// Boots `n` empty catalog nodes of the same spec, each with a TCP and an
/// HTTP listener on ephemeral ports.
fn boot_nodes(tag: &str, seed: u64, n: usize) -> Vec<Node> {
    boot_nodes_opts(tag, seed, n, true)
}

/// As [`boot_nodes`], but `companions: false` boots catalogs that store no
/// companion sketches (the pre-cascade layout).
fn boot_nodes_opts(tag: &str, seed: u64, n: usize, companions: bool) -> Vec<Node> {
    (0..n)
        .map(|i| {
            let root = temp_root(&format!("{tag}-node{i}"));
            let service = if companions {
                QueryService::create(&root, spec_for(seed)).expect("create node")
            } else {
                QueryService::create_with_companion(&root, spec_for(seed), None)
                    .expect("create node")
            };
            let config = ServerConfig::builder()
                .tcp("127.0.0.1:0")
                .build()
                .expect("valid config");
            let handle = serve(service, config).expect("serve node");
            Node { handle, root }
        })
        .collect()
}

fn tcp_specs(nodes: &[Node]) -> Vec<NodeSpec> {
    nodes
        .iter()
        .map(|n| NodeSpec::tcp(n.handle.tcp_addr().expect("tcp bound").to_string()))
        .collect()
}

fn boot_router(specs: Vec<NodeSpec>, replicas: usize) -> RouterHandle {
    let router = Router::new(specs, replicas).expect("router config");
    serve_router(router, "127.0.0.1:0".parse().expect("addr")).expect("bind router")
}

fn cleanup(nodes: Vec<Node>) {
    for node in nodes {
        node.handle.shutdown();
        let _ = fs::remove_dir_all(&node.root);
    }
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

fn cascade_request(id: u64, table: &Table, column: &str, k: u64) -> Request {
    Request {
        id: Json::u64(id),
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k,
            min_join_size: 0.0,
            cascade: true,
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

#[test]
fn routed_cluster_answers_bit_identical_to_a_single_node() {
    let (query, good, bad) = lake();
    let seed = 17;

    // Single-node ground truth, in process.
    let twin_root = temp_root("bitident-twin");
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    twin.ingest_table(&good).expect("good");
    twin.ingest_table(&bad).expect("bad");
    let (expected_batch, _) = ranked(
        &mut twin,
        &[(&query, "rides"), (&good, "precip")],
        Mode::Joinable,
        5,
        0.0,
        false,
    );
    let expected_related = ranked_one(&mut twin, &query, "rides", Mode::Related, 3, 10.0);

    // A 3-node cluster populated *through the router*.
    let nodes = boot_nodes("bitident", seed, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);

    let response = client.call(&Request {
        id: Json::u64(1),
        body: RequestBody::BatchQuery {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade: false,
            queries: vec![wire_query(&query, "rides"), wire_query(&good, "precip")],
        },
    });
    assert_eq!(response.id.as_u64(), Some(1));
    match response.result.expect("batch succeeds") {
        ResponseBody::Rankings { rankings, .. } => {
            assert_eq!(rankings.len(), expected_batch.len());
            for (served, in_process) in rankings.iter().zip(&expected_batch) {
                assert_bit_identical(served, in_process);
            }
        }
        other => panic!("expected rankings, got {other:?}"),
    }

    // Related mode (score = |corr|, join-size floor applied node-side).
    let response = client.call(&Request {
        id: Json::str("rel"),
        body: RequestBody::Query {
            mode: Mode::Related,
            k: 3,
            min_join_size: 10.0,
            cascade: false,
            query: wire_query(&query, "rides"),
        },
    });
    match response.result.expect("related succeeds") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected_related),
        other => panic!("expected ranking, got {other:?}"),
    }

    // `info` aggregates the cluster: the distinct column set matches the twin
    // and only the router emits the `cluster` member.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Info { server: true },
    });
    match response.result.expect("info succeeds") {
        ResponseBody::Info {
            columns,
            stats,
            cluster,
            server,
            ..
        } => {
            assert_eq!(columns.len(), 3, "good.precip, good.noise, bad.other");
            let stats = stats.expect("service stats");
            assert_eq!(stats.columns, 3);
            let cluster = cluster.expect("routers report cluster state");
            assert_eq!(cluster.replicas, 2);
            assert_eq!(cluster.nodes.len(), 3);
            assert!(cluster.nodes.iter().all(|n| n.healthy && n.errors == 0));
            assert!(cluster.fanouts >= 3, "ingests and queries fanned out");
            assert_eq!(cluster.failovers, 0);
            let server = server.expect("router per-op metrics");
            assert!(server.ops.iter().any(|o| o.op == "ingest"));
        }
        other => panic!("expected info, got {other:?}"),
    }

    // `drop-column` through the router tombstones every replica: the key
    // disappears from merged rankings, and a second drop is `not_found`.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::DropColumn {
            table: "good".to_string(),
            column: "precip".to_string(),
        },
    });
    match response.result.expect("drop succeeds") {
        ResponseBody::Dropped { table, column } => {
            assert_eq!((table.as_str(), column.as_str()), ("good", "precip"));
        }
        other => panic!("expected dropped, got {other:?}"),
    }
    let response = client.call(&query_request(9, &query, "rides", 5));
    match response.result.expect("query succeeds") {
        ResponseBody::Ranking { ranking, .. } => {
            assert!(
                ranking.iter().all(|r| r.column != "precip"),
                "dropped column still ranked: {ranking:?}"
            );
        }
        other => panic!("expected ranking, got {other:?}"),
    }
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::DropColumn {
            table: "good".to_string(),
            column: "precip".to_string(),
        },
    });
    assert_eq!(
        response.result.expect_err("second drop fails").code,
        ErrorCode::NotFound
    );

    router.shutdown();
    cleanup(nodes);
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

#[test]
fn rankings_are_identical_for_any_ingest_order_and_cluster_shape() {
    let (query, good, bad) = lake();
    let mut tables = tie_tables();
    tables.push(good);
    tables.push(bad);
    let seed = 29;

    // Ground truth includes four exactly-tied tables, so this only passes if
    // node merges honor the same deterministic tie-break a single index uses.
    let twin_root = temp_root("order-twin");
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    for table in &tables {
        twin.ingest_table(table).expect("ingest");
    }
    let expected = ranked_one(
        &mut twin,
        &query,
        "rides",
        Mode::Joinable,
        tables.len() + 1,
        0.0,
    );
    let tie_rank: Vec<&str> = expected
        .iter()
        .filter(|r| r.id.table.starts_with("tie_"))
        .map(|r| r.id.table.as_str())
        .collect();
    assert_eq!(
        tie_rank,
        ["tie_a", "tie_b", "tie_c", "tie_d"],
        "ties must order by (table, column)"
    );

    // Three clusters: 3 nodes forward order, 3 nodes reversed ingest order,
    // 4 nodes interleaved order.  Every wire answer must be byte-identical.
    let shapes: [(usize, Vec<usize>); 3] = [
        (3, (0..tables.len()).collect()),
        (3, (0..tables.len()).rev().collect()),
        (
            4,
            (0..tables.len()).map(|i| (i * 5) % tables.len()).collect(),
        ),
    ];
    let mut encoded: Vec<String> = Vec::new();
    for (shape, (node_count, order)) in shapes.into_iter().enumerate() {
        let nodes = boot_nodes(&format!("order{shape}"), seed, node_count);
        let router = boot_router(tcp_specs(&nodes), 2);
        let mut client = Client::connect(router.addr());
        for &idx in &order {
            client.ingest(&tables[idx]);
        }
        let request = query_request(77, &query, "rides", (tables.len() + 1) as u64);
        client.send_raw(&request.encode());
        let raw = client.recv_raw();
        let response = Response::decode(&raw).expect("well-formed");
        match response.result.expect("query succeeds") {
            ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
            other => panic!("expected ranking, got {other:?}"),
        }
        encoded.push(raw);
        router.shutdown();
        cleanup(nodes);
    }
    assert_eq!(encoded[0], encoded[1], "ingest order changed the bytes");
    assert_eq!(encoded[0], encoded[2], "cluster shape changed the bytes");
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

#[test]
fn a_stopped_node_fails_over_to_its_replicas_bit_identically() {
    let (query, good, bad) = lake();
    let seed = 31;

    let twin_root = temp_root("failover-twin");
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    twin.ingest_table(&good).expect("good");
    twin.ingest_table(&bad).expect("bad");
    let expected = ranked_one(&mut twin, &query, "rides", Mode::Joinable, 5, 0.0);

    let mut nodes = boot_nodes("failover", seed, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);

    // Healthy-cluster sanity check first.
    let response = client.call(&query_request(1, &query, "rides", 5));
    match response.result.expect("query succeeds") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
        other => panic!("expected ranking, got {other:?}"),
    }

    // Stop one node.  Replication 2 guarantees every key survives on another
    // node, and replicas hold bit-identical blobs — so the merged answer must
    // not change by a single bit.
    let stopped = nodes.remove(2);
    let stopped_addr = stopped.handle.tcp_addr().expect("tcp bound").to_string();
    stopped.handle.shutdown();
    let _ = fs::remove_dir_all(&stopped.root);

    // The router's pooled connection to the stopped node breaks first (a free
    // reconnect, not a node error); the reconnect then fails outright.
    let mut degraded = Client::connect(router.addr());
    let response = degraded.call(&query_request(2, &query, "rides", 5));
    match response.result.expect("query still succeeds") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
        other => panic!("expected ranking, got {other:?}"),
    }

    // The failover is surfaced in router stats, against the right node.
    let stats = router.stats();
    assert!(stats.failovers >= 1, "failover not counted: {stats:?}");
    let lost = stats
        .nodes
        .iter()
        .find(|n| n.addr == stopped_addr)
        .expect("stopped node listed");
    assert!(!lost.healthy, "stopped node still marked healthy");
    assert!(lost.errors >= 1);

    // Writes that need the lost node are refused with a typed `io` error
    // rather than silently under-replicated... unless no owned column landed
    // there, in which case they succeed; either way the op must not hang or
    // panic, and queries keep working after it.
    let response = degraded.call(&Request {
        id: Json::Null,
        body: RequestBody::Ingest {
            table: WireTable::from_table(&tie_tables()[0]),
            partitions: None,
        },
    });
    if let Err(error) = response.result {
        assert_eq!(error.code, ErrorCode::Io, "write failure must be typed io");
    }
    let response = degraded.call(&query_request(3, &query, "rides", 5));
    match response.result.expect("query succeeds after failed write") {
        ResponseBody::Ranking { ranking, .. } => {
            assert_eq!(ranking.len(), expected.len().max(ranking.len()).min(5));
        }
        other => panic!("expected ranking, got {other:?}"),
    }

    router.shutdown();
    cleanup(nodes);
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

#[test]
fn fanouts_count_one_per_node_request() {
    // `fanouts` is per node request, as the protocol documents: one routed read
    // on a healthy cluster adds exactly the number of nodes it called.
    let (query, good, bad) = lake();
    let nodes = boot_nodes("fanouts", 41, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);
    // The first read on a node list also fetches the nodes' spec with one
    // `info` per node; warm that up so the baseline sees only the query.
    let response = client.call(&query_request(1, &query, "rides", 5));
    assert!(response.result.is_ok(), "warm-up query succeeds");

    let before = router.stats();
    let response = client.call(&query_request(1, &query, "rides", 5));
    assert!(response.result.is_ok(), "query succeeds");
    let after = router.stats();
    assert_eq!(after.requests - before.requests, 1);
    assert_eq!(
        after.fanouts - before.fanouts,
        3,
        "one query reads all three nodes"
    );
    assert_eq!(after.failovers, before.failovers);

    // `info` fans out too, and reports its own node requests in the member.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Info { server: false },
    });
    match response.result.expect("info succeeds") {
        ResponseBody::Info { cluster, .. } => {
            let cluster = cluster.expect("routers report cluster state");
            assert_eq!(cluster.fanouts - after.fanouts, 3);
        }
        other => panic!("expected info, got {other:?}"),
    }

    router.shutdown();
    cleanup(nodes);
}

#[test]
fn node_overlapping_sharded_ingest_yields_only_consistent_states() {
    let (query, good, bad) = lake();
    let seed = 41;
    let shards = 3;
    // One column, so it lands on exactly `replicas` nodes: every mid-state
    // (some owners finished, some not) merges to the same bytes as the final
    // state, because replica blobs are bit-identical and the merge dedups.
    let extra = Table::new(
        "extra",
        (150..550).collect(),
        vec![Column::new(
            "depth",
            (150..550).map(|i| 3.0 * f64::from(i) - 7.0).collect(),
        )],
    )
    .expect("table");

    // Twin computes both consistent answers via the *same* sharded path.
    let twin_root = temp_root("overlap-twin");
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    twin.ingest_table(&good).expect("good");
    twin.ingest_table(&bad).expect("bad");
    let before = ranked_one(&mut twin, &query, "rides", Mode::Joinable, 5, 0.0);
    {
        let mut session = twin.begin_sharded_ingest(extra.name());
        for shard in &shard_rows(&extra, shards) {
            session.announce(shard).expect("announce");
        }
        for shard in &shard_rows(&extra, shards) {
            session.submit(shard).expect("submit");
        }
        twin.finish_sharded_ingest(session).expect("finish");
    }
    let after = ranked_one(&mut twin, &query, "rides", Mode::Joinable, 5, 0.0);
    assert_ne!(before, after, "the extra table must change the top-5");

    let nodes = boot_nodes("overlap", seed, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut seed_client = Client::connect(router.addr());
    seed_client.ingest(&good);
    seed_client.ingest(&bad);

    // Queriers hammer the router while the main thread drives the two-pass
    // announced-norm protocol through it — a real cross-node round: the
    // router opens per-node sessions and forwards each owner its sub-shards.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let queriers: Vec<_> = (0..2)
        .map(|worker| {
            let stop = std::sync::Arc::clone(&stop);
            let query = query.clone();
            let before = before.clone();
            let after = after.clone();
            let mut client = Client::connect(router.addr());
            std::thread::spawn(move || {
                let mut rounds = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || rounds == 0 {
                    rounds += 1;
                    let response =
                        client.call(&query_request(u64::from(rounds), &query, "rides", 5));
                    assert_eq!(response.id.as_u64(), Some(u64::from(rounds)));
                    let ranking = match response.result.expect("query succeeds") {
                        ResponseBody::Ranking { ranking, .. } => ranking,
                        other => panic!("worker {worker}: expected ranking, got {other:?}"),
                    };
                    // Every observation is one of the two consistent states.
                    let matches_before = ranking.len() == before.len()
                        && ranking
                            .iter()
                            .zip(&before)
                            .all(|(s, p)| s.table == p.id.table && s.column == p.id.column);
                    if matches_before {
                        assert_bit_identical(&ranking, &before);
                    } else {
                        assert_bit_identical(&ranking, &after);
                    }
                }
            })
        })
        .collect();

    // Announce and submit arrive over *different* connections: the router's
    // session map is shared, exactly like a single node's.
    let mut announce_client = Client::connect(router.addr());
    let session = match announce_client
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
    let wire_shards: Vec<WireTable> = shard_rows(&extra, shards)
        .iter()
        .map(WireTable::from_table)
        .collect();
    for shard in &wire_shards {
        let response = announce_client.call(&Request {
            id: Json::Null,
            body: RequestBody::IngestAnnounce {
                session,
                shard: shard.clone(),
            },
        });
        assert_eq!(
            response.result.expect("announce"),
            ResponseBody::Session(session)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut submit_client = Client::connect(router.addr());
    for shard in &wire_shards {
        submit_client
            .call(&Request {
                id: Json::Null,
                body: RequestBody::IngestSubmit {
                    session,
                    shard: shard.clone(),
                },
            })
            .result
            .expect("submit");
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = submit_client
        .call(&Request {
            id: Json::Null,
            body: RequestBody::IngestFinish { session },
        })
        .result
        .expect("finish");
    match report {
        ResponseBody::Report {
            registered,
            skipped,
        } => {
            assert_eq!(registered, vec![("extra".to_string(), "depth".to_string())]);
            assert!(skipped.is_empty());
        }
        other => panic!("expected report, got {other:?}"),
    }

    // A finished session is consumed.
    let response = submit_client.call(&Request {
        id: Json::Null,
        body: RequestBody::IngestFinish { session },
    });
    assert_eq!(
        response.result.expect_err("double finish").code,
        ErrorCode::UnknownSession
    );

    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for querier in queriers {
        querier.join().expect("querier");
    }

    // Post-ingest answers are the after state, bit for bit.
    let response = seed_client.call(&query_request(99, &query, "rides", 5));
    match response.result.expect("post-ingest query") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &after),
        other => panic!("expected ranking, got {other:?}"),
    }

    router.shutdown();
    cleanup(nodes);
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

#[test]
fn cascaded_queries_route_bit_identically_and_fall_back_deterministically() {
    let (query, good, bad) = lake();
    let seed = 43;

    // In-process twin with companions (the default layout): ground truth for
    // both the cascade answer and the flat answer it must equal.
    let twin_root = temp_root("cascade-twin");
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    twin.ingest_table(&good).expect("good");
    twin.ingest_table(&bad).expect("bad");
    assert!(
        twin.companion_estimator().is_some(),
        "created catalogs store companions by default"
    );
    let (mut cascaded, twin_note) = ranked(
        &mut twin,
        &[(&query, "rides")],
        Mode::Joinable,
        5,
        0.0,
        true,
    );
    assert!(twin_note.is_none());
    let expected = cascaded.remove(0);
    assert_eq!(
        expected,
        ranked_one(&mut twin, &query, "rides", Mode::Joinable, 5, 0.0),
        "cascade must equal the flat scan at the default margin"
    );

    // A 3-node cluster populated through the router answers the cascade
    // bit-identically to the twin, and byte-identically to its own flat
    // answer — the knob must be invisible in the response bytes.
    let nodes = boot_nodes("cascade", seed, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);

    client.send_raw(&cascade_request(11, &query, "rides", 5).encode());
    let raw_cascade = client.recv_raw();
    let response = Response::decode(&raw_cascade).expect("well-formed");
    match response.result.expect("routed cascade succeeds") {
        ResponseBody::Ranking { ranking, note } => {
            assert!(note.is_none(), "companion cluster must not fall back");
            assert_bit_identical(&ranking, &expected);
        }
        other => panic!("expected ranking, got {other:?}"),
    }
    client.send_raw(&query_request(11, &query, "rides", 5).encode());
    let raw_flat = client.recv_raw();
    assert_eq!(raw_cascade, raw_flat, "cascade changed the answer bytes");

    // Batch cascades route too, with no note.
    let response = client.call(&Request {
        id: Json::u64(12),
        body: RequestBody::BatchQuery {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade: true,
            queries: vec![wire_query(&query, "rides")],
        },
    });
    match response.result.expect("routed batch cascade succeeds") {
        ResponseBody::Rankings { rankings, note } => {
            assert!(note.is_none());
            assert_eq!(rankings.len(), 1);
            assert_bit_identical(&rankings[0], &expected);
        }
        other => panic!("expected rankings, got {other:?}"),
    }

    // A cascade against `related` mode is refused node-side and the router
    // forwards the typed error verbatim.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Query {
            mode: Mode::Related,
            k: 3,
            min_join_size: 0.0,
            cascade: true,
            query: wire_query(&query, "rides"),
        },
    });
    assert_eq!(
        response.result.expect_err("related cascade refused").code,
        ErrorCode::BadRequest
    );

    router.shutdown();
    cleanup(nodes);

    // Companion-less cluster: the same cascade request falls back to the flat
    // scan with the typed note, byte-identical to one companion-less node
    // holding the whole catalog — the note carries no node-local detail.
    let old_nodes = boot_nodes_opts("cascade-nocmp", seed, 3, false);
    let old_router = boot_router(tcp_specs(&old_nodes), 2);
    let mut old_client = Client::connect(old_router.addr());
    old_client.ingest(&good);
    old_client.ingest(&bad);

    let single = boot_nodes_opts("cascade-nocmp-single", seed, 1, false);
    let mut single_client = Client::connect(single[0].handle.tcp_addr().expect("tcp"));
    single_client.ingest(&good);
    single_client.ingest(&bad);

    let request = cascade_request(21, &query, "rides", 5);
    old_client.send_raw(&request.encode());
    let via_router = old_client.recv_raw();
    single_client.send_raw(&request.encode());
    let via_single = single_client.recv_raw();
    assert_eq!(
        via_router, via_single,
        "fallback answer must not depend on cluster shape"
    );
    let response = Response::decode(&via_router).expect("well-formed");
    match response.result.expect("fallback succeeds") {
        ResponseBody::Ranking { ranking, note } => {
            let note = note.expect("companion-less catalogs must attach the note");
            assert_eq!(note.code, "cascade_fallback");
            assert!(!ranking.is_empty());
        }
        other => panic!("expected ranking, got {other:?}"),
    }

    old_router.shutdown();
    cleanup(old_nodes);
    cleanup(single);
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

/// Serves `router` through the shared core with `config` on ephemeral ports.
fn serve_router_with(specs: Vec<NodeSpec>, config: ServerConfig) -> RouterHandle {
    let router = Router::new(specs, 2).expect("router config");
    serve_backend(router, config).expect("bind router")
}

/// Sends one `POST` over a fresh HTTP/1.1 connection; returns status and body.
fn http_post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    write!(
        writer,
        "POST {path} HTTP/1.1\r\nHost: cluster\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("numeric status");
    let mut length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        let header = header.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header.strip_prefix("content-length:") {
            length = value.trim().parse().expect("numeric length");
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

#[test]
fn a_router_on_both_bindings_answers_http_byte_identically_to_tcp_and_one_node() {
    let (query, good, bad) = lake();
    let seed = 47;
    let nodes = boot_nodes("bindings", seed, 3);
    let config = ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .http("127.0.0.1:0")
        .build()
        .expect("valid config");
    let router = serve_router_with(tcp_specs(&nodes), config);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);

    let single = boot_nodes("bindings-single", seed, 1);
    let mut single_client = Client::connect(single[0].handle.tcp_addr().expect("tcp"));
    single_client.ingest(&good);
    single_client.ingest(&bad);

    let request = query_request(7, &query, "rides", 5).encode();
    client.send_raw(&request);
    let via_tcp = client.recv_raw();
    single_client.send_raw(&request);
    let via_single = single_client.recv_raw();
    let (status, via_http) = http_post(
        router.http_addr().expect("http bound"),
        "/v1/query",
        &request,
    );
    assert_eq!(status, 200);
    assert_eq!(
        via_http,
        format!("{via_tcp}\n"),
        "HTTP body differs from the TCP line"
    );
    assert_eq!(via_tcp, via_single, "routed answer differs from one node");

    router.shutdown();
    cleanup(nodes);
    cleanup(single);
}

#[test]
fn a_router_past_its_connection_cap_answers_overloaded() {
    let nodes = boot_nodes("conncap", 53, 2);
    let config = ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .max_connections(1)
        .build()
        .expect("valid config");
    let router = serve_router_with(tcp_specs(&nodes), config);

    // The first connection is served (one round trip proves it is registered).
    let mut first = Client::connect(router.addr());
    let response = first.call(&Request {
        id: Json::u64(1),
        body: RequestBody::Info { server: false },
    });
    assert!(response.result.is_ok(), "first connection is served");

    // The second is answered `overloaded` without being asked anything, then closed.
    let mut second = Client::connect(router.addr());
    let response = Response::decode(&second.recv_raw()).expect("well-formed");
    assert_eq!(
        response.result.expect_err("over the cap").code,
        ErrorCode::Overloaded
    );
    let mut rest = String::new();
    assert_eq!(second.reader.read_line(&mut rest).expect("clean close"), 0);

    // The first connection is unaffected.
    let response = first.call(&Request {
        id: Json::u64(2),
        body: RequestBody::Info { server: false },
    });
    assert!(response.result.is_ok(), "first connection still served");

    router.shutdown();
    cleanup(nodes);
}

#[test]
fn a_router_reports_the_shared_core_server_metrics() {
    let (query, good, bad) = lake();
    let nodes = boot_nodes("metrics", 59, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);
    assert!(client
        .call(&query_request(1, &query, "rides", 5))
        .result
        .is_ok());
    // A second connection, registered by one round trip of its own.
    let mut idle = Client::connect(router.addr());
    assert!(idle
        .call(&Request {
            id: Json::Null,
            body: RequestBody::Info { server: false },
        })
        .result
        .is_ok());

    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Info { server: true },
    });
    let server = match response.result.expect("info succeeds") {
        ResponseBody::Info { server, .. } => server.expect("server member requested"),
        other => panic!("expected info, got {other:?}"),
    };
    assert_eq!(server.connections_open, 2, "{server:?}");
    assert_eq!(server.connections_rejected, 0);
    assert_eq!(server.queue_rejected, 0);
    let count = |op: &str| {
        server
            .ops
            .iter()
            .find(|o| o.op == op)
            .map_or(0, |o| o.count)
    };
    assert_eq!(count("ingest"), 2, "{server:?}");
    assert_eq!(count("query"), 1, "{server:?}");
    // The idle connection's `info`; this one is timed only after it answers.
    assert_eq!(count("info"), 1, "{server:?}");
    // The same core metrics are on the handle.
    let snapshot = router.metrics().snapshot();
    assert_eq!(
        snapshot
            .ops
            .iter()
            .find(|o| o.op == "info")
            .map(|o| o.count),
        Some(2)
    );

    router.shutdown();
    cleanup(nodes);
}

#[test]
fn a_router_frames_lines_like_a_node() {
    let nodes = boot_nodes("toolarge", 61, 2);
    let config = ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .max_line_bytes(1024)
        .build()
        .expect("valid config");
    let router = serve_router_with(tcp_specs(&nodes), config);

    // Two small requests around a line that is not UTF-8, then an oversized
    // line, pipelined in one write.
    let mut client = Client::connect(router.addr());
    let info = |id| {
        let mut line = Request {
            id: Json::u64(id),
            body: RequestBody::Info { server: false },
        }
        .encode()
        .into_bytes();
        line.push(b'\n');
        line
    };
    let mut burst = info(1);
    burst.extend_from_slice(b"{\"v\": 1, \"op\": \"info\xff\"}\n");
    burst.extend(info(2));
    burst.extend(vec![b'x'; 2000]);
    burst.push(b'\n');
    client.writer.write_all(&burst).expect("send burst");

    let response = Response::decode(&client.recv_raw()).expect("well-formed");
    assert_eq!(response.id.as_u64(), Some(1));
    assert!(response.result.is_ok());
    let response = Response::decode(&client.recv_raw()).expect("well-formed");
    let error = response.result.expect_err("non-UTF-8 line");
    assert_eq!(error.code, ErrorCode::BadRequest);
    assert!(error.message.contains("UTF-8"), "{error:?}");
    let response = Response::decode(&client.recv_raw()).expect("well-formed");
    assert_eq!(
        response.id.as_u64(),
        Some(2),
        "answers come in request order"
    );
    assert!(response.result.is_ok());
    let response = Response::decode(&client.recv_raw()).expect("well-formed");
    assert_eq!(response.id, Json::Null);
    assert_eq!(
        response.result.expect_err("oversized line").code,
        ErrorCode::TooLarge
    );
    let mut rest = String::new();
    assert_eq!(
        client.reader.read_line(&mut rest).expect("clean close"),
        0,
        "the connection closes after `too_large`"
    );

    router.shutdown();
    cleanup(nodes);
}

/// Boots one catalog node of `seed` holding `tables`, ingested over the wire
/// exactly as the router would ingest them.
fn boot_single(tag: &str, seed: u64, tables: &[&Table]) -> Node {
    let node = boot_nodes(tag, seed, 1).remove(0);
    let mut client = Client::connect(node.handle.tcp_addr().expect("tcp bound"));
    for table in tables {
        client.ingest(table);
    }
    node
}

/// One request line's raw reply from `addr`.
fn raw_reply(addr: std::net::SocketAddr, line: &str) -> String {
    let mut client = Client::connect(addr);
    client.send_raw(line);
    client.recv_raw()
}

/// The per-op request counts of a node, from its `info {server: true}`.
fn node_op_counts(node: &Node) -> std::collections::BTreeMap<String, u64> {
    let mut client = Client::connect(node.handle.tcp_addr().expect("tcp bound"));
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Info { server: true },
    });
    match response.result.expect("info succeeds") {
        ResponseBody::Info { server, .. } => server
            .expect("server member requested")
            .ops
            .into_iter()
            .map(|op| (op.op, op.count))
            .collect(),
        other => panic!("expected info, got {other:?}"),
    }
}

#[test]
fn routed_reads_reach_nodes_as_one_rank_per_node_request() {
    let (query, good, bad) = lake();
    let nodes = boot_nodes("rankonly", 61, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);
    // Warm up the spec fetch (one `info` per node), which counts in `fanouts`.
    let warm_up = client.call(&query_request(0, &query, "rides", 5));
    assert!(warm_up.result.is_ok(), "warm-up query succeeds");
    let before = router.stats();
    let ranks_before: u64 = nodes
        .iter()
        .map(|n| node_op_counts(n).get("rank").copied().unwrap_or(0))
        .sum();

    for request in [
        query_request(1, &query, "rides", 5),
        cascade_request(2, &query, "rides", 5),
        Request {
            id: Json::u64(3),
            body: RequestBody::BatchQuery {
                mode: Mode::Related,
                k: 3,
                min_join_size: 10.0,
                cascade: false,
                queries: vec![wire_query(&query, "rides"), wire_query(&good, "noise")],
            },
        },
    ] {
        assert!(client.call(&request).result.is_ok(), "routed read succeeds");
    }

    let after = router.stats();
    let counts: Vec<_> = nodes.iter().map(node_op_counts).collect();
    let ranks: u64 = counts
        .iter()
        .map(|c| c.get("rank").copied().unwrap_or(0))
        .sum();
    assert_eq!(
        ranks - ranks_before,
        after.fanouts - before.fanouts,
        "every node request of a routed read is a `rank`"
    );
    assert_eq!(ranks - ranks_before, 9, "three reads, three nodes each");
    for count in &counts {
        assert_eq!(
            count.get("query"),
            None,
            "no node sketched a query: {count:?}"
        );
        assert_eq!(count.get("batch-query"), None, "{count:?}");
    }

    router.shutdown();
    cleanup(nodes);
}

#[test]
fn routed_error_replies_are_byte_identical_to_a_single_node() {
    let (_, good, bad) = lake();
    let seed = 67;
    let single = boot_single("errors-single", seed, &[&good, &bad]);
    let nodes = boot_nodes("errors", seed, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);

    let column = |keys: &str, values: &str| {
        format!(r#"{{"table":"q","column":"c","keys":[{keys}],"values":[{values}]}}"#)
    };
    let fine = column("1,2,3", "1.0,2.0,3.0");
    let bad_columns = [
        column("1,2,3", "1.0,2.0"),
        column("1,1,2", "1.0,2.0,3.0"),
        column("", ""),
        column("1,2", "1.0,1e999"),
    ];
    let mut lines = Vec::new();
    for (i, bad_column) in bad_columns.iter().enumerate() {
        lines.push(format!(
            r#"{{"v":1,"id":{i},"op":"query","k":5,"query":{bad_column}}}"#
        ));
        lines.push(format!(
            r#"{{"v":1,"id":{i},"op":"batch-query","k":5,"queries":[{fine},{bad_column}]}}"#
        ));
    }
    lines.push(format!(
        r#"{{"v":1,"id":9,"op":"query","mode":"related","cascade":true,"query":{fine}}}"#
    ));
    lines.push(format!(
        r#"{{"v":1,"id":9,"op":"batch-query","mode":"related","cascade":true,"queries":[{fine}]}}"#
    ));
    let single_addr = single.handle.tcp_addr().expect("tcp bound");
    for line in &lines {
        let expected = raw_reply(single_addr, line);
        assert!(expected.contains(r#""ok":false"#), "{line} → {expected}");
        assert_eq!(raw_reply(router.addr(), line), expected, "{line}");
    }

    router.shutdown();
    cleanup(nodes);
    cleanup(vec![single]);
}

#[test]
fn a_router_over_nodes_of_different_seeds_refuses_queries() {
    let (query, good, _) = lake();
    let mut nodes = boot_nodes("seeds-a", 71, 2);
    nodes.extend(boot_nodes("seeds-b", 72, 1));
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut client = Client::connect(router.addr());
    for request in [
        query_request(1, &query, "rides", 5),
        Request {
            id: Json::u64(2),
            body: RequestBody::BatchQuery {
                mode: Mode::Joinable,
                k: 5,
                min_join_size: 0.0,
                cascade: false,
                queries: vec![wire_query(&good, "precip")],
            },
        },
    ] {
        let error = client
            .call(&request)
            .result
            .expect_err("incomparable sketches must not be merged");
        assert_eq!(error.code, ErrorCode::Incompatible, "{}", error.message);
    }

    router.shutdown();
    cleanup(nodes);
}

#[test]
fn a_router_moved_onto_another_seed_answers_like_a_node_of_the_new_spec() {
    let (query, good, bad) = lake();
    let old_nodes = boot_nodes("moved-old", 73, 3);
    let new_nodes = boot_nodes("moved-new", 74, 3);
    let router = boot_router(tcp_specs(&old_nodes), 2);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);
    let line = query_request(1, &query, "rides", 5).encode();
    let old_single = boot_single("moved-old-single", 73, &[&good, &bad]);
    assert_eq!(
        raw_reply(router.addr(), &line),
        raw_reply(old_single.handle.tcp_addr().expect("tcp bound"), &line),
        "the first read fetches the old nodes' spec"
    );

    router
        .set_nodes(tcp_specs(&new_nodes))
        .expect("new node list");
    client.ingest(&good);
    client.ingest(&bad);
    let new_single = boot_single("moved-new-single", 74, &[&good, &bad]);
    let routed = raw_reply(router.addr(), &line);
    assert_eq!(
        routed,
        raw_reply(new_single.handle.tcp_addr().expect("tcp bound"), &line),
        "a new node list brings its own spec"
    );
    assert!(routed.contains(r#""ok":true"#), "{routed}");

    router.shutdown();
    cleanup(old_nodes);
    cleanup(new_nodes);
    cleanup(vec![old_single, new_single]);
}

#[test]
fn a_node_ranks_sketches_like_the_queries_they_came_from() {
    let (query, good, bad) = lake();
    let seed = 79;
    let node = boot_single("rank-node", seed, &[&good, &bad]);
    let addr = node.handle.tcp_addr().expect("tcp bound");
    let spec = spec_for(seed);
    let queries = vec![wire_query(&query, "rides"), wire_query(&good, "noise")];
    let sketched = sketch_queries(
        &JoinEstimator::new(spec.build().expect("builds")),
        &queries,
        Mode::Joinable,
        true,
    )
    .expect("sketches");
    let ranked: Vec<_> = queries
        .iter()
        .zip(&sketched)
        .map(|(q, s)| WireRankQuery::new(q.clone(), s, spec.format))
        .collect();
    let request = |queries: Vec<WireRankQuery>| {
        Request {
            id: Json::u64(4),
            body: RequestBody::Rank {
                mode: Mode::Joinable,
                k: 5,
                min_join_size: 0.0,
                cascade: true,
                queries,
            },
        }
        .encode()
    };
    let batch = Request {
        id: Json::u64(4),
        body: RequestBody::BatchQuery {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade: true,
            queries: queries.clone(),
        },
    }
    .encode();
    let expected = raw_reply(addr, &batch);
    assert!(expected.contains(r#""ok":true"#), "{expected}");
    assert_eq!(raw_reply(addr, &request(ranked.clone())), expected);

    // One hostile sketch fails the whole request, as in `batch-query`.
    let mut truncated = ranked.clone();
    truncated[1].sketch.truncate(10);
    let reply = raw_reply(addr, &request(truncated));
    assert!(reply.contains(r#""code":"corrupt""#), "{reply}");
    let mut foreign = ranked;
    let other_spec = spec_for(seed + 1);
    foreign[0] = WireRankQuery::new(
        queries[0].clone(),
        &JoinEstimator::new(other_spec.build().expect("builds"))
            .sketch_column(&query, "rides")
            .expect("sketches"),
        other_spec.format,
    );
    let reply = raw_reply(addr, &request(foreign));
    assert!(reply.contains(r#""code":"incompatible""#), "{reply}");

    cleanup(vec![node]);
}

/// Boots `n` empty catalog nodes of `seed` whose request bound is `max_line_bytes`.
fn boot_bounded_nodes(tag: &str, seed: u64, n: usize, max_line_bytes: usize) -> Vec<Node> {
    (0..n)
        .map(|i| {
            let root = temp_root(&format!("{tag}-node{i}"));
            let service = QueryService::create(&root, spec_for(seed)).expect("create node");
            let config = ServerConfig::builder()
                .tcp("127.0.0.1:0")
                .max_line_bytes(max_line_bytes)
                .build()
                .expect("valid config");
            let handle = serve(service, config).expect("serve node");
            Node { handle, root }
        })
        .collect()
}

/// A `rows`-row column `t{i}.c` whose keys overlap the lake's `good` table.
fn small_query(i: u32, rows: u32) -> WireQuery {
    WireQuery {
        table: format!("t{i}"),
        column: "c".to_string(),
        keys: (0..rows).map(|r| u64::from(100 + 7 * i + 3 * r)).collect(),
        values: (0..rows).map(|r| f64::from(r + i) + 0.5).collect(),
    }
}

#[test]
fn routed_reads_whose_sketches_pass_the_line_bound_split_and_demote_no_node() {
    // A `rank` line carries each query's sketch, so it is far longer than the
    // client's line.  Router and nodes share a small bound here: a batch the
    // router accepts must reach the nodes as several `rank`s, each within the
    // bound, answer exactly as one node does, and leave every node healthy.
    let (_, good, bad) = lake();
    let seed = 83;
    let bound = 64 << 10;
    let nodes = boot_bounded_nodes("bounded", seed, 3, bound);
    let config = ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .max_line_bytes(bound)
        .build()
        .expect("valid config");
    let router = serve_router_with(tcp_specs(&nodes), config);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);
    let single = boot_single("bounded-single", seed, &[&good, &bad]);
    let single_addr = single.handle.tcp_addr().expect("tcp bound");

    // KMV keeps up to 256 entries per sketch, so 300-row columns carry full ones.
    let queries: Vec<WireQuery> = (0..8).map(|i| small_query(i, 300)).collect();
    let batch = |cascade: bool| Request {
        id: Json::u64(5),
        body: RequestBody::BatchQuery {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade,
            queries: queries.clone(),
        },
    };
    // The premise: the client's line fits, its `rank` would not.
    let spec = spec_for(seed);
    let estimator = JoinEstimator::new(spec.build().expect("builds"));
    let sketched = sketch_queries(&estimator, &queries, Mode::Joinable, false).expect("sketches");
    let rank_line = Request {
        id: Json::Null,
        body: RequestBody::Rank {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade: false,
            queries: (queries.iter().zip(&sketched))
                .map(|(q, s)| WireRankQuery::new(q.clone(), s, spec.format))
                .collect(),
        },
    }
    .encode();
    assert!(
        batch(true).encode().len() < bound / 2,
        "{} bytes",
        batch(true).encode().len()
    );
    assert!(rank_line.len() > 2 * bound, "{} bytes", rank_line.len());

    // Warm up the spec fetch so the counts below see only the batches.
    let warm_up = client.call(&query_request(0, &good, "noise", 5));
    assert!(warm_up.result.is_ok(), "warm-up query succeeds");
    let before = router.stats();
    let ranks_before: u64 = nodes
        .iter()
        .map(|n| node_op_counts(n).get("rank").copied().unwrap_or(0))
        .sum();
    for cascade in [false, true] {
        let line = batch(cascade).encode();
        let expected = raw_reply(single_addr, &line);
        assert!(expected.contains(r#""ok":true"#), "{expected}");
        assert_eq!(
            raw_reply(router.addr(), &line),
            expected,
            "cascade {cascade}"
        );
    }

    let after = router.stats();
    let ranks: u64 = nodes
        .iter()
        .map(|n| node_op_counts(n).get("rank").copied().unwrap_or(0))
        .sum();
    assert_eq!(ranks - ranks_before, after.fanouts - before.fanouts);
    assert!(
        ranks - ranks_before >= 2 * 3 * 3,
        "each batch went to every node in at least three parts"
    );
    assert_eq!(after.failovers, before.failovers);
    for node in &after.nodes {
        assert!(node.healthy, "{node:?}");
        assert_eq!((node.errors, node.demotions), (0, 0), "{node:?}");
    }

    // A query whose own `rank` line cannot fit is refused before any node
    // hears of it.
    let wide = small_query(9, 5_000);
    let line = Request {
        id: Json::u64(6),
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade: false,
            query: wide,
        },
    }
    .encode();
    assert!(
        line.len() < bound,
        "the client's line fits: {} bytes",
        line.len()
    );
    let before = router.stats();
    let reply = raw_reply(router.addr(), &line);
    assert!(reply.contains(r#""code":"too_large""#), "{reply}");
    let after = router.stats();
    assert_eq!(after.fanouts, before.fanouts, "no node was called");
    assert!(after.nodes.iter().all(|node| node.healthy));

    router.shutdown();
    cleanup(nodes);
    cleanup(vec![single]);
}

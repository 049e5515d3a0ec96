//! Loopback integration tests of the network front end (`--features server`).
//!
//! The acceptance bar: answers served over the wire are **bit-identical** to the
//! single-threaded in-process `QueryService` answers — including while concurrent
//! clients overlap with a shard-partial ingest.

#![cfg(feature = "server")]

use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_core::SketcherSpec;
use ipsketch_data::{Column, Table};
use ipsketch_join::RankedColumn;
use ipsketch_serve::protocol::{
    ErrorCode, Mode, Request, RequestBody, Response, ResponseBody, WireQuery, WireRanked, WireTable,
};
use ipsketch_serve::server::{serve, ServerConfig, ServerHandle};
use ipsketch_serve::service::{rank, RankRequest};
use ipsketch_serve::wire::Json;
use ipsketch_serve::{shard_rows, Catalog, QueryService};
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

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
    let dir = std::env::temp_dir().join(format!("ipsketch-loopback-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec_for(method: SketchMethod, seed: u64) -> SketcherSpec {
    AnySketcher::for_budget(method, 256.0, seed)
        .expect("budget fits")
        .spec()
}

/// The service-test lake: "query.rides" joins heavily with "good.precip", not "bad".
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

/// The stock test config: TCP framer on an ephemeral port, everything else default.
fn tcp_config() -> ServerConfig {
    ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .build()
        .expect("valid config")
}

/// A blocking line-protocol client.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.tcp_addr().expect("tcp bound")).expect("connect");
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
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    fn call(&mut self, request: &Request) -> Response {
        self.send_raw(&request.encode());
        Response::decode(&self.recv_raw()).expect("well-formed response")
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
fn served_batch_queries_are_bit_identical_to_in_process_answers() {
    let root = temp_root("bitident");
    let (query, good, bad) = lake();
    let mut service =
        QueryService::create(&root, spec_for(SketchMethod::WeightedMinHash, 11)).expect("create");
    service.ingest_table(&good).expect("good");
    service.ingest_table(&bad).expect("bad");

    // In-process ground truth, through the exact public batch path.
    let columns = [(&query, "rides"), (&good, "precip")];
    let sketched = columns
        .iter()
        .map(|(table, column)| service.estimator().sketch_column(table, column))
        .collect::<Result<_, _>>()
        .expect("sketch");
    service.ensure_hydrated().expect("hydrate");
    let request = RankRequest {
        mode: Mode::Joinable,
        k: 5,
        min_join_size: 0.0,
        cascade: false,
    };
    let (expected, _) =
        rank(service.index(), &columns, sketched, request).expect("in-process batch");
    let expected_related = ranked(&mut service, &query, "rides", Mode::Related, 3, 10.0);

    let handle = serve(service, tcp_config()).expect("serve");
    let mut client = Client::connect(&handle);

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
            assert_eq!(rankings.len(), expected.len());
            for (served, in_process) in rankings.iter().zip(&expected) {
                assert_bit_identical(served, in_process);
            }
        }
        other => panic!("expected rankings, got {other:?}"),
    }

    // Single-query related mode matches too.
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

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn reopened_catalogs_hydrate_lazily_behind_the_read_write_lock() {
    let root = temp_root("hydrate");
    let (query, good, bad) = lake();
    let spec = spec_for(SketchMethod::Kmv, 5);
    {
        let mut service = QueryService::create(&root, spec).expect("create");
        service.ingest_table(&good).expect("good");
        service.ingest_table(&bad).expect("bad");
    }
    // Ground truth from a separately reopened service.
    let mut in_process = QueryService::open(&root).expect("open");
    let expected = ranked(&mut in_process, &query, "rides", Mode::Joinable, 3, 0.0);

    // The served service starts cold (nothing hydrated): the first wire query takes
    // the write lock to hydrate, then answers under the read lock.
    let cold = QueryService::open(&root).expect("open cold");
    assert_eq!(cold.hydrated_len(), 0);
    let handle = serve(cold, tcp_config()).expect("serve");
    let mut client = Client::connect(&handle);
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k: 3,
            min_join_size: 0.0,
            cascade: false,
            query: wire_query(&query, "rides"),
        },
    });
    match response.result.expect("query succeeds") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
        other => panic!("expected ranking, got {other:?}"),
    }
    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn parallel_clients_during_sharded_ingest_see_only_consistent_states() {
    let root = temp_root("overlap");
    let (query, good, bad) = lake();
    let extra = Table::new(
        "extra",
        (150..550).collect(),
        vec![Column::new(
            "depth",
            (150..550).map(|i| 3.0 * f64::from(i) - 7.0).collect(),
        )],
    )
    .expect("table");
    let spec = spec_for(SketchMethod::WeightedMinHash, 23);
    let shards = 3;

    // Twin catalog computes both consistent answers in-process: before the extra
    // table lands, and after it lands via the *same* sharded path (identical shard
    // split, identical estimator → bit-identical partial folds).
    let twin_root = temp_root("overlap-twin");
    let mut twin = QueryService::create(&twin_root, spec).expect("twin");
    twin.ingest_table(&good).expect("good");
    twin.ingest_table(&bad).expect("bad");
    let before = ranked(&mut twin, &query, "rides", Mode::Joinable, 5, 0.0);
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
    let after = ranked(&mut twin, &query, "rides", Mode::Joinable, 5, 0.0);
    assert_ne!(
        before, after,
        "the extra table must change the top-5 so the assertion below has teeth"
    );

    let mut service = QueryService::create(&root, spec).expect("create");
    service.ingest_table(&good).expect("good");
    service.ingest_table(&bad).expect("bad");
    let handle = serve(service, tcp_config()).expect("serve");

    // Queriers hammer the server from their own connections while the main thread
    // drives the sharded ingest over the wire.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let queriers: Vec<_> = (0..2)
        .map(|worker| {
            let stop = std::sync::Arc::clone(&stop);
            let query = query.clone();
            let before = before.clone();
            let after = after.clone();
            let mut client = Client::connect(&handle);
            std::thread::spawn(move || {
                let mut observed_after = false;
                let mut rounds = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || rounds == 0 {
                    rounds += 1;
                    let response = client.call(&Request {
                        id: Json::u64(u64::from(rounds)),
                        body: RequestBody::BatchQuery {
                            mode: Mode::Joinable,
                            k: 5,
                            min_join_size: 0.0,
                            cascade: false,
                            queries: vec![wire_query(&query, "rides")],
                        },
                    });
                    assert_eq!(response.id.as_u64(), Some(u64::from(rounds)));
                    let rankings = match response.result.expect("query succeeds") {
                        ResponseBody::Rankings { rankings, .. } => rankings,
                        other => panic!("worker {worker}: expected rankings, got {other:?}"),
                    };
                    let ranking = &rankings[0];
                    // Every observation must be one of the two consistent states —
                    // never a torn mix — and bit-identical to in-process answers.
                    let matches_before = ranking.len() == before.len()
                        && ranking
                            .iter()
                            .zip(&before)
                            .all(|(s, p)| s.table == p.id.table && s.column == p.id.column);
                    if matches_before {
                        assert_bit_identical(ranking, &before);
                    } else {
                        assert_bit_identical(ranking, &after);
                        observed_after = true;
                    }
                }
                observed_after
            })
        })
        .collect();

    // Drive the two-pass protocol over its own connection, with pauses so queriers
    // interleave with every phase.
    let mut ingest_client = Client::connect(&handle);
    let session = match ingest_client
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
        ingest_client
            .call(&Request {
                id: Json::Null,
                body: RequestBody::IngestAnnounce {
                    session,
                    shard: shard.clone(),
                },
            })
            .result
            .expect("announce");
        std::thread::sleep(Duration::from_millis(10));
    }
    for shard in &wire_shards {
        ingest_client
            .call(&Request {
                id: Json::Null,
                body: RequestBody::IngestSubmit {
                    session,
                    shard: shard.clone(),
                },
            })
            .result
            .expect("submit");
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = ingest_client
        .call(&Request {
            id: Json::Null,
            body: RequestBody::IngestFinish { session },
        })
        .result
        .expect("finish");
    match report {
        ResponseBody::Report { registered, .. } => {
            assert_eq!(registered, vec![("extra".to_string(), "depth".to_string())]);
        }
        other => panic!("expected report, got {other:?}"),
    }

    // Post-ingest queries must observe the after state.
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let saw_after: Vec<bool> = queriers
        .into_iter()
        .map(|t| t.join().expect("querier"))
        .collect();
    let mut confirm = Client::connect(&handle);
    let response = confirm.call(&Request {
        id: Json::Null,
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade: false,
            query: wire_query(&query, "rides"),
        },
    });
    match response.result.expect("post-ingest query") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &after),
        other => panic!("expected ranking, got {other:?}"),
    }
    // At least the confirming query saw the new state; typically the background
    // queriers did too (they may legitimately all finish before the ingest lands).
    drop(saw_after);

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

#[test]
fn protocol_errors_leave_the_connection_usable() {
    let root = temp_root("errors");
    let (_, good, _) = lake();
    let mut service = QueryService::create(&root, spec_for(SketchMethod::Kmv, 3)).expect("create");
    service.ingest_table(&good).expect("good");
    let handle = serve(service, tcp_config()).expect("serve");
    let mut client = Client::connect(&handle);

    // Malformed JSON.
    client.send_raw("this is not json");
    let response = Response::decode(&client.recv_raw()).expect("decodes");
    assert_eq!(
        response.result.expect_err("fails").code,
        ErrorCode::BadRequest
    );

    // Wrong version, id echoed.
    client.send_raw(r#"{"v":99,"id":"x","op":"info"}"#);
    let response = Response::decode(&client.recv_raw()).expect("decodes");
    assert_eq!(response.id.as_str(), Some("x"));
    assert_eq!(
        response.result.expect_err("fails").code,
        ErrorCode::UnsupportedVersion
    );

    // Unknown op.
    client.send_raw(r#"{"v":1,"op":"frobnicate"}"#);
    let response = Response::decode(&client.recv_raw()).expect("decodes");
    assert_eq!(
        response.result.expect_err("fails").code,
        ErrorCode::UnknownOp
    );

    // Unknown session.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::IngestFinish { session: 424_242 },
    });
    assert_eq!(
        response.result.expect_err("fails").code,
        ErrorCode::UnknownSession
    );

    // Query for a column the request does not carry → join-layer error.
    client.send_raw(
        r#"{"v":1,"op":"query","query":{"table":"t","column":"c","keys":[1,1],"values":[1.0,2.0]}}"#,
    );
    let response = Response::decode(&client.recv_raw()).expect("decodes");
    assert_eq!(
        response.result.expect_err("fails").code,
        ErrorCode::BadRequest
    );

    // The same connection still serves real requests.
    let response = client.call(&Request {
        id: Json::u64(7),
        body: RequestBody::Info { server: false },
    });
    match response.result.expect("info succeeds") {
        ResponseBody::Info {
            method, columns, ..
        } => {
            assert_eq!(method, "KMV");
            assert_eq!(columns.len(), 2);
        }
        other => panic!("expected info, got {other:?}"),
    }

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn pipelined_requests_answer_in_order() {
    let root = temp_root("pipeline");
    let (query, good, _) = lake();
    let mut service = QueryService::create(&root, spec_for(SketchMethod::Jl, 9)).expect("create");
    service.ingest_table(&good).expect("good");
    let handle = serve(service, tcp_config()).expect("serve");
    let mut client = Client::connect(&handle);

    // Three requests in one burst; responses must come back in request order.
    let mut burst = String::new();
    for id in 0..3u64 {
        let request = Request {
            id: Json::u64(id),
            body: if id == 1 {
                RequestBody::Info { server: false }
            } else {
                RequestBody::Query {
                    mode: Mode::Joinable,
                    k: 2,
                    min_join_size: 0.0,
                    cascade: false,
                    query: wire_query(&query, "rides"),
                }
            },
        };
        burst.push_str(&request.encode());
        burst.push('\n');
    }
    client.writer.write_all(burst.as_bytes()).expect("burst");
    for id in 0..3u64 {
        let response = Response::decode(&client.recv_raw()).expect("decodes");
        assert_eq!(response.id.as_u64(), Some(id), "responses out of order");
        assert!(response.result.is_ok());
    }

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn oversized_lines_fail_typed_and_close() {
    let root = temp_root("toolarge");
    let service = QueryService::create(&root, spec_for(SketchMethod::Kmv, 1)).expect("create");
    let config = ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .max_line_bytes(1024)
        .build()
        .expect("valid config");
    let handle = serve(service, config).expect("serve");
    let mut client = Client::connect(&handle);
    // An oversized line followed by a perfectly valid request: the valid request
    // must never be answered (framing is broken past the bound), and exactly one
    // error comes back even though the client kept sending.
    client.send_raw(&"x".repeat(4096));
    client.send_raw(r#"{"v":1,"id":1,"op":"info"}"#);
    let response = Response::decode(&client.recv_raw()).expect("decodes");
    assert_eq!(
        response.result.expect_err("fails").code,
        ErrorCode::TooLarge
    );
    // The connection is closed after the single error (framing cannot
    // resynchronize).  Closing with the client's follow-up bytes still unread
    // makes the kernel send RST, so a reset is as valid a close as a clean FIN.
    let mut rest = String::new();
    match client.reader.read_line(&mut rest) {
        Ok(0) => {}
        Ok(n) => panic!("server must close a poisoned connection, got {n} bytes: {rest}"),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("unexpected read error after poison: {e}"),
    }
    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn requests_framed_before_a_poisoning_line_are_answered_in_order() {
    let root = temp_root("poisonorder");
    let (_, good, _) = lake();
    let mut service = QueryService::create(&root, spec_for(SketchMethod::Kmv, 4)).expect("create");
    service.ingest_table(&good).expect("good");
    let config = ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .max_line_bytes(1024)
        .build()
        .expect("valid config");
    let handle = serve(service, config).expect("serve");
    let mut client = Client::connect(&handle);

    // One burst: a valid info request, then an oversized line.  The protocol
    // promises per-connection response order, so the info answer must arrive
    // first and the too_large error last, before the close.
    let mut burst = String::from("{\"v\":1,\"id\":7,\"op\":\"info\"}\n");
    burst.push_str(&"x".repeat(4096));
    burst.push('\n');
    client.writer.write_all(burst.as_bytes()).expect("burst");

    let first = Response::decode(&client.recv_raw()).expect("decodes");
    assert_eq!(first.id.as_u64(), Some(7), "info must be answered first");
    assert!(first.result.is_ok());
    let second = Response::decode(&client.recv_raw()).expect("decodes");
    assert!(second.id.is_null());
    assert_eq!(
        second.result.expect_err("fails").code,
        ErrorCode::TooLarge,
        "the poisoning line's error comes after earlier answers"
    );
    let mut rest = String::new();
    match client.reader.read_line(&mut rest) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected close after the error, got {n} bytes: {rest}"),
    }

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn abandoned_ingest_sessions_expire_after_their_ttl() {
    let root = temp_root("sessionttl");
    let service = QueryService::create(&root, spec_for(SketchMethod::Kmv, 2)).expect("create");
    let config = ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .session_ttl(Duration::from_millis(50))
        .maintenance_interval(None)
        .build()
        .expect("valid config");
    let handle = serve(service, config).expect("serve");
    let mut client = Client::connect(&handle);
    let begin = |client: &mut Client, table: &str| -> u64 {
        match client
            .call(&Request {
                id: Json::Null,
                body: RequestBody::IngestBegin {
                    table: table.to_string(),
                },
            })
            .result
            .expect("begin")
        {
            ResponseBody::Session(session) => session,
            other => panic!("expected session, got {other:?}"),
        }
    };
    let shard_for = |table: &str| WireTable {
        name: table.to_string(),
        keys: vec![1, 2],
        columns: vec![ipsketch_serve::protocol::WireColumn {
            name: "c".to_string(),
            values: vec![1.0, 2.0],
        }],
    };

    // Simulate a vanished client: the session idles past its TTL, then a
    // maintenance pass sweeps it.
    let abandoned = begin(&mut client, "abandoned");
    std::thread::sleep(Duration::from_millis(120));
    handle.request_maintenance();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while handle.maintenance_stats().sessions_expired == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "session never expired: {:?}",
            handle.maintenance_stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::IngestAnnounce {
            session: abandoned,
            shard: shard_for("abandoned"),
        },
    });
    assert_eq!(
        response.result.expect_err("expired").code,
        ErrorCode::UnknownSession
    );

    // A freshly touched session survives a sweep and stays usable.
    let alive = begin(&mut client, "alive");
    handle.request_maintenance();
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::IngestAnnounce {
            session: alive,
            shard: shard_for("alive"),
        },
    });
    assert!(
        response.result.is_ok(),
        "fresh sessions must survive sweeps"
    );

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn wire_ingest_registers_and_compaction_runs_on_demand() {
    let root = temp_root("wireingest");
    let (query, good, _) = lake();
    let service = QueryService::create(&root, spec_for(SketchMethod::Icws, 13)).expect("create");
    let handle = serve(service, tcp_config()).expect("serve");
    let mut client = Client::connect(&handle);

    // Partitioned wire ingest, including an all-zero column that must be skipped.
    let mut table = WireTable::from_table(&good);
    table.columns.push(ipsketch_serve::protocol::WireColumn {
        name: "zeros".to_string(),
        values: vec![0.0; good.rows()],
    });
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Ingest {
            table,
            partitions: Some(4),
        },
    });
    match response.result.expect("ingest succeeds") {
        ResponseBody::Report {
            registered,
            skipped,
        } => {
            assert_eq!(registered.len(), 2);
            assert_eq!(skipped, vec!["zeros".to_string()]);
        }
        other => panic!("expected report, got {other:?}"),
    }

    // The ingest signaled maintenance; ask for another pass and wait for both.
    handle.request_maintenance();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while handle.maintenance_stats().passes == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "maintenance never ran: {:?}",
            handle.maintenance_stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.maintenance_stats().failures, 0);

    // Queries see the ingested table.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k: 2,
            min_join_size: 0.0,
            cascade: false,
            query: wire_query(&query, "rides"),
        },
    });
    match response.result.expect("query succeeds") {
        ResponseBody::Ranking { ranking, .. } => {
            assert!(!ranking.is_empty());
            assert_eq!(ranking[0].table, "good");
        }
        other => panic!("expected ranking, got {other:?}"),
    }

    // Wire ingest stores what in-process ingest stores, bit for bit, both
    // tiers.  Fractional values make the partition merge order show in the
    // companion's CountSketch buckets.
    let frac = Table::new(
        "frac",
        (20_000..20_400).collect(),
        vec![Column::new(
            "w",
            (0..400).map(|i| f64::from(i).sqrt() * 0.37 + 0.1).collect(),
        )],
    )
    .expect("table");
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Ingest {
            table: WireTable::from_table(&frac),
            partitions: Some(4),
        },
    });
    assert!(response.result.is_ok(), "{:?}", response.result);
    handle.shutdown();
    let twin_root = temp_root("wireingest-twin");
    let mut twin =
        QueryService::create(&twin_root, spec_for(SketchMethod::Icws, 13)).expect("create");
    for table in [&good, &frac] {
        twin.ingest_table_partitioned(table, 4).expect("ingest");
    }
    let wire = Catalog::open(&root).expect("open");
    let stored = |catalog: &Catalog, table: &str, column: &str| {
        let companion = catalog.load_companion(table, column).expect("companion");
        (
            catalog.export_blob(table, column).expect("primary").1,
            companion.map(|c| c.encode(catalog.format())),
        )
    };
    assert_eq!(wire.len(), 3);
    assert_eq!(wire.len(), twin.catalog().len());
    for entry in wire.live_entries() {
        let (primary, companion) = stored(&wire, &entry.table, &entry.column);
        assert!(companion.is_some(), "{}.{}", entry.table, entry.column);
        // Compared without printing: a mismatch would dump kilobytes of blob.
        assert!(
            (primary, companion) == stored(twin.catalog(), &entry.table, &entry.column),
            "{}.{} is stored differently by wire and in-process ingest",
            entry.table,
            entry.column
        );
    }
    fs::remove_dir_all(&root).expect("cleanup");
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

#[test]
fn drop_column_over_the_wire_tombstones_and_info_reports_the_format() {
    let root = temp_root("wiredrop");
    let (query, good, _) = lake();
    let mut service = QueryService::create(&root, spec_for(SketchMethod::Kmv, 11)).expect("create");
    service.ingest_table(&good).expect("ingest");
    let handle = serve(service, tcp_config()).expect("serve");
    let mut client = Client::connect(&handle);

    // Info names the current on-disk format and both live columns.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Info { server: false },
    });
    match response.result.expect("info succeeds") {
        ResponseBody::Info {
            format, columns, ..
        } => {
            assert_eq!(format.as_deref(), Some("v2"));
            assert_eq!(columns.len(), 2);
        }
        other => panic!("expected info, got {other:?}"),
    }

    // Drop the joinable column over the wire.
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

    // Rankings and info no longer see it, on this same connection.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade: false,
            query: wire_query(&query, "rides"),
        },
    });
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
        body: RequestBody::Info { server: false },
    });
    match response.result.expect("info succeeds") {
        ResponseBody::Info { columns, .. } => {
            assert_eq!(columns.len(), 1, "tombstoned column still listed");
        }
        other => panic!("expected info, got {other:?}"),
    }

    // Dropping it again is a typed `not_found`.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::DropColumn {
            table: "good".to_string(),
            column: "precip".to_string(),
        },
    });
    let error = response.result.expect_err("second drop fails");
    assert_eq!(error.code, ErrorCode::NotFound);

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

/// A table bulky enough that a one-worker server falls behind while decoding it.
fn bulky(name: &str) -> WireTable {
    let table = Table::new(
        name,
        (0..120_000).collect(),
        vec![Column::new(
            "v",
            (0..120_000).map(|i| f64::from(i % 97) + 1.0).collect(),
        )],
    )
    .expect("table");
    WireTable::from_table(&table)
}

#[test]
fn connection_cap_rejects_with_typed_overloaded_then_recovers() {
    let root = temp_root("conncap");
    let service =
        QueryService::create(&root, spec_for(SketchMethod::WeightedMinHash, 5)).expect("create");
    let config = ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .max_connections(1)
        .build()
        .expect("valid config");
    let handle = serve(service, config).expect("serve");

    // The first client occupies the only slot; a round trip guarantees the
    // reactor has registered it before anyone else knocks.
    let mut first = Client::connect(&handle);
    let response = first.call(&Request {
        id: Json::Null,
        body: RequestBody::Info { server: false },
    });
    assert!(response.result.is_ok());

    // The second connection is turned away with a typed `overloaded` error…
    let stream = TcpStream::connect(handle.tcp_addr().expect("tcp bound")).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("rejection line");
    let rejection = Response::decode(line.trim_end()).expect("typed rejection");
    let error = rejection
        .result
        .expect_err("rejected connections get an error");
    assert_eq!(error.code, ErrorCode::Overloaded);
    // …and then closed, so clients know to back off rather than retry in place.
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("clean close"),
        0,
        "server must close rejected connections"
    );

    // The established client is unaffected, and the rejection shows up in the
    // server stats it can ask for.
    let response = first.call(&Request {
        id: Json::Null,
        body: RequestBody::Info { server: true },
    });
    match response
        .result
        .expect("established connection still served")
    {
        ResponseBody::Info { server, .. } => {
            let server = server.expect("server stats requested");
            assert_eq!(server.connections_rejected, 1);
            let info_op = server
                .ops
                .iter()
                .find(|o| o.op == "info")
                .expect("info op recorded");
            assert!(info_op.count >= 1);
            assert_eq!(info_op.errors, 0);
        }
        other => panic!("expected info, got {other:?}"),
    }

    // After the occupant departs the slot frees, and new clients are served.
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let mut retry = Client::connect(&handle);
        let response = retry.call(&Request {
            id: Json::Null,
            body: RequestBody::Info { server: false },
        });
        match response.result {
            Ok(_) => break,
            Err(error) => {
                assert_eq!(error.code, ErrorCode::Overloaded);
                assert!(
                    std::time::Instant::now() < deadline,
                    "connection slot never freed after the occupant closed"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn queue_cap_sheds_load_but_keeps_connections_usable() {
    let root = temp_root("queuecap");
    let service =
        QueryService::create(&root, spec_for(SketchMethod::WeightedMinHash, 6)).expect("create");
    let config = ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .workers(1)
        .max_queue_depth(1)
        .build()
        .expect("valid config");
    let handle = serve(service, config).expect("serve");

    // Six clients fire bulky ingests at a one-worker, one-deep server: at most
    // two requests can be in flight, so the burst must be shed, not buffered.
    let mut clients: Vec<Client> = (0..6).map(|_| Client::connect(&handle)).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let request = Request {
            id: Json::Null,
            body: RequestBody::Ingest {
                table: bulky(&format!("t{i}")),
                partitions: None,
            },
        };
        client.send_raw(&request.encode());
    }
    let mut served = 0u64;
    let mut shed = 0u64;
    for client in &mut clients {
        let response = Response::decode(&client.recv_raw()).expect("well-formed response");
        match response.result {
            Ok(_) => served += 1,
            Err(error) => {
                assert_eq!(error.code, ErrorCode::Overloaded);
                shed += 1;
            }
        }
    }
    assert_eq!(served + shed, 6);
    assert!(served >= 1, "the worker must serve what it can");
    assert!(
        shed >= 1,
        "a one-deep queue cannot absorb a six-request burst"
    );

    // Shedding is per-request, not per-connection: the same sockets answer
    // follow-up requests once the queue drains.
    for client in &mut clients {
        let response = client.call(&Request {
            id: Json::Null,
            body: RequestBody::Info { server: true },
        });
        match response.result.expect("connection survives shedding") {
            ResponseBody::Info { server, .. } => {
                let server = server.expect("server stats requested");
                assert_eq!(server.queue_rejected, shed);
            }
            other => panic!("expected info, got {other:?}"),
        }
    }

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

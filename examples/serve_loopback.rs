//! End-to-end loopback demo of the network front end (requires `--features server`):
//!
//! ```sh
//! cargo run --release --features server --example serve_loopback
//! ```
//!
//! Builds a catalog in a temp directory, serves it on an ephemeral loopback port,
//! connects a real TCP client, runs a batched joinability query plus the sharded
//! two-pass ingest over the wire, and asserts the served answers are **bit-identical**
//! to the in-process `QueryService` answers — the acceptance criterion of the
//! serving layer.  A final step repeats a query over the HTTP/1.1 framer and checks
//! the response body is byte-identical to the TCP line.  Exits non-zero on any
//! mismatch, so CI can run it as a smoke test.

use ipsketch::core::method::{AnySketcher, SketchMethod};
use ipsketch::data::{Column, Table};
use ipsketch::serve::protocol::{
    Mode, Request, RequestBody, Response, ResponseBody, WireQuery, WireTable,
};
use ipsketch::serve::server::{serve, ServerConfig};
use ipsketch::serve::service::{rank, RankRequest};
use ipsketch::serve::wire::Json;
use ipsketch::serve::{shard_rows, QueryService};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("ipsketch-serve-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // A tiny lake: "weather.precip" joins heavily with the taxi query column.
    let taxi = Table::new(
        "taxi",
        (0..300).collect(),
        vec![Column::new(
            "rides",
            (0..300).map(|i| f64::from(i % 23) + 1.0).collect(),
        )],
    )?;
    let weather = Table::new(
        "weather",
        (100..400).collect(),
        vec![Column::new(
            "precip",
            (100..400).map(|i| 3.0 * f64::from(i % 23) + 2.0).collect(),
        )],
    )?;
    let depth = Table::new(
        "river",
        (50..350).collect(),
        vec![Column::new(
            "depth",
            (50..350).map(|i| 2.0 * f64::from(i) - 9.0).collect(),
        )],
    )?;

    let spec = AnySketcher::for_budget(SketchMethod::WeightedMinHash, 300.0, 7)?.spec();
    let mut service = QueryService::create(&root, spec)?;
    service.ingest_table(&weather)?;

    // In-process ground truth for the batched query (computed before serving, and —
    // for the post-ingest check — on a twin ingest of the same shards).
    let request = RankRequest {
        mode: Mode::Joinable,
        k: 3,
        min_join_size: 0.0,
        cascade: false,
    };
    let q = service.estimator().sketch_column(&taxi, "rides")?;
    service.ensure_hydrated()?;
    let (expected, _) = rank(
        service.index(),
        &[(&taxi, "rides")],
        vec![q.clone()],
        request,
    )?;
    {
        let mut session = service.begin_sharded_ingest(depth.name());
        for shard in &shard_rows(&depth, 3) {
            session.announce(shard)?;
        }
        for shard in &shard_rows(&depth, 3) {
            session.submit(shard)?;
        }
        service.finish_sharded_ingest(session)?;
    }
    let (mut expected_after, _) = rank(service.index(), &[(&taxi, "rides")], vec![q], request)?;
    let expected_after = expected_after.remove(0);

    // Rebuild the served catalog without the river table: the client will ingest it
    // over the wire and must then see `expected_after`.
    let _ = std::fs::remove_dir_all(&root);
    let mut service = QueryService::create(&root, spec)?;
    service.ingest_table(&weather)?;

    let config = ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .http("127.0.0.1:0")
        .build()?;
    let handle = serve(service, config)?;
    let tcp_addr = handle.tcp_addr().expect("tcp bound");
    let http_addr = handle.http_addr().expect("http bound");
    println!("serving tcp on {tcp_addr}, http on {http_addr}");

    let stream = TcpStream::connect(tcp_addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut send = |request: &Request| -> Result<Response, Box<dyn std::error::Error>> {
        let mut line = request.encode();
        line.push('\n');
        (&stream).write_all(line.as_bytes())?;
        let mut reply = String::new();
        reader.read_line(&mut reply)?;
        Ok(Response::decode(reply.trim_end())?)
    };

    // 1. Batched query over the wire: bit-identical to the in-process batch.
    let query = WireQuery {
        table: "taxi".to_string(),
        column: "rides".to_string(),
        keys: taxi.keys().to_vec(),
        values: taxi.columns()[0].values.clone(),
    };
    let response = send(&Request {
        id: Json::u64(1),
        body: RequestBody::BatchQuery {
            mode: Mode::Joinable,
            k: 3,
            min_join_size: 0.0,
            cascade: false,
            queries: vec![query.clone()],
        },
    })?;
    let ResponseBody::Rankings { rankings, .. } = response.result.map_err(|e| e.to_string())?
    else {
        return Err("expected rankings".into());
    };
    assert_eq!(rankings.len(), 1);
    for (served, in_process) in rankings[0].iter().zip(&expected[0]) {
        assert_eq!(served.table, in_process.id.table);
        assert_eq!(served.column, in_process.id.column);
        assert_eq!(
            served.join_size.to_bits(),
            in_process.estimated_join_size.to_bits(),
            "served join size must be bit-identical to the in-process estimate"
        );
    }
    println!(
        "batch query over the wire: {} results, top hit {}.{} (join size {:.1}) — bit-identical",
        rankings[0].len(),
        rankings[0][0].table,
        rankings[0][0].column,
        rankings[0][0].join_size,
    );

    // 2. Sharded two-pass ingest over the wire.
    let ResponseBody::Session(session) = send(&Request {
        id: Json::u64(2),
        body: RequestBody::IngestBegin {
            table: depth.name().to_string(),
        },
    })?
    .result
    .map_err(|e| e.to_string())?
    else {
        return Err("expected session".into());
    };
    let shards: Vec<WireTable> = shard_rows(&depth, 3)
        .iter()
        .map(WireTable::from_table)
        .collect();
    for shard in &shards {
        send(&Request {
            id: Json::Null,
            body: RequestBody::IngestAnnounce {
                session,
                shard: shard.clone(),
            },
        })?
        .result
        .map_err(|e| e.to_string())?;
    }
    for shard in &shards {
        send(&Request {
            id: Json::Null,
            body: RequestBody::IngestSubmit {
                session,
                shard: shard.clone(),
            },
        })?
        .result
        .map_err(|e| e.to_string())?;
    }
    let ResponseBody::Report { registered, .. } = send(&Request {
        id: Json::Null,
        body: RequestBody::IngestFinish { session },
    })?
    .result
    .map_err(|e| e.to_string())?
    else {
        return Err("expected report".into());
    };
    println!("sharded wire ingest registered {registered:?}");

    // 3. Post-ingest query: bit-identical to the in-process post-ingest answer.
    let response = send(&Request {
        id: Json::u64(3),
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k: 3,
            min_join_size: 0.0,
            cascade: false,
            query: query.clone(),
        },
    })?;
    let ResponseBody::Ranking { ranking, .. } = response.result.map_err(|e| e.to_string())? else {
        return Err("expected ranking".into());
    };
    assert_eq!(ranking.len(), expected_after.len());
    for (served, in_process) in ranking.iter().zip(&expected_after) {
        assert_eq!(served.table, in_process.id.table);
        assert_eq!(
            served.join_size.to_bits(),
            in_process.estimated_join_size.to_bits(),
            "post-ingest served answers must stay bit-identical"
        );
    }
    println!(
        "post-ingest query: top hit {}.{} — bit-identical to the in-process twin",
        ranking[0].table, ranking[0].column
    );

    // 4. The same query over the HTTP/1.1 framer: the response body must be
    // byte-identical to the line the TCP framer sends.
    let raw_request = Request {
        id: Json::u64(4),
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k: 3,
            min_join_size: 0.0,
            cascade: false,
            query,
        },
    }
    .encode();
    (&stream).write_all(raw_request.as_bytes())?;
    (&stream).write_all(b"\n")?;
    let mut tcp_line = String::new();
    reader.read_line(&mut tcp_line)?;

    let http_stream = TcpStream::connect(http_addr)?;
    let mut http_reader = BufReader::new(http_stream.try_clone()?);
    (&http_stream).write_all(
        format!(
            "POST /v1/query HTTP/1.1\r\nHost: demo\r\nContent-Length: {}\r\n\r\n{raw_request}",
            raw_request.len()
        )
        .as_bytes(),
    )?;
    let mut status = String::new();
    http_reader.read_line(&mut status)?;
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("expected 200 over HTTP, got {}", status.trim_end()).into());
    }
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        http_reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = value.trim().parse()?;
        }
    }
    let mut body = vec![0u8; content_length];
    http_reader.read_exact(&mut body)?;
    assert_eq!(
        String::from_utf8(body)?,
        tcp_line,
        "HTTP response body must be byte-identical to the TCP line"
    );
    println!("http query on {http_addr}: 200, body byte-identical to the TCP framer");

    handle.shutdown();
    std::fs::remove_dir_all(&root)?;
    println!("loopback smoke passed");
    Ok(())
}

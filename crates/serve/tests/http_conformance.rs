//! HTTP/1.1 binding conformance (`--features server`).
//!
//! `docs/PROTOCOL.md` promises the HTTP binding is a *framing*, not a dialect:
//! the HTTP response body for any request is byte-identical to the line the TCP
//! framer would send.  This suite replays every annotated request example from
//! the doc against twin servers — one TCP-only, one HTTP-only, over identically
//! seeded catalogs — and holds the binding to that promise, plus the parts of
//! the HTTP surface that have no TCP counterpart (GET routes, op injection,
//! typed framing rejections, overload statuses).

#![cfg(feature = "server")]

use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_core::SketcherSpec;
use ipsketch_serve::http;
use ipsketch_serve::protocol::{ErrorCode, Request, Response, ResponseBody};
use ipsketch_serve::server::{serve, ServerConfig, ServerHandle};
use ipsketch_serve::QueryService;
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

const PROTOCOL_DOC: &str = include_str!("../../../docs/PROTOCOL.md");

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipsketch-httpconf-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec() -> SketcherSpec {
    AnySketcher::for_budget(SketchMethod::WeightedMinHash, 256.0, 7)
        .expect("budget fits")
        .spec()
}

/// An annotated example harvested from the doc (same convention as the tier-1
/// `protocol_doc` suite: `<!-- conformance: … -->` over a ```json fence).
struct DocExample {
    kind: String,
    json: String,
    line: usize,
}

fn harvest() -> Vec<DocExample> {
    let lines: Vec<&str> = PROTOCOL_DOC.lines().collect();
    let mut examples = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if let Some(rest) = lines[i].trim().strip_prefix("<!-- conformance:") {
            let kind = rest
                .strip_suffix("-->")
                .expect("unterminated annotation")
                .trim()
                .to_string();
            let mut body = String::new();
            let mut j = i + 2;
            while j < lines.len() && lines[j].trim() != "```" {
                body.push_str(lines[j]);
                body.push('\n');
                j += 1;
            }
            examples.push(DocExample {
                kind,
                json: body,
                line: i + 1,
            });
            i = j + 1;
        } else {
            i += 1;
        }
    }
    examples
}

/// A blocking line-protocol client that returns the raw response line,
/// trailing newline included, for byte-level comparison.
struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    fn connect(addr: SocketAddr) -> LineClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        LineClient {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn call(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        response
    }
}

/// One parsed HTTP response.
struct HttpResponse {
    status: u16,
    body: Vec<u8>,
}

impl HttpResponse {
    fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("UTF-8 body")
    }

    fn decode(&self) -> Response {
        Response::decode(self.body_str().trim_end()).expect("protocol body")
    }
}

/// A blocking HTTP/1.1 client, hand-rolled so the tests control the exact
/// bytes on the wire.
struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    fn connect(addr: SocketAddr) -> HttpClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        HttpClient {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            stream,
        }
    }

    fn send(&mut self, raw: &[u8]) {
        self.stream.write_all(raw).expect("send");
    }

    fn read_response(&mut self) -> HttpResponse {
        let mut status_line = String::new();
        let n = self
            .reader
            .read_line(&mut status_line)
            .expect("status line");
        assert!(n > 0, "server closed before answering");
        assert!(
            status_line.starts_with("HTTP/1.1 "),
            "not an HTTP/1.1 status line: {status_line:?}"
        );
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).expect("header line");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(value) = header
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = value.parse().expect("numeric content-length");
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        HttpResponse { status, body }
    }

    fn post(&mut self, path: &str, body: &str) -> HttpResponse {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: conformance\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.send(raw.as_bytes());
        self.read_response()
    }

    fn get(&mut self, target: &str) -> HttpResponse {
        self.send(format!("GET {target} HTTP/1.1\r\nHost: conformance\r\n\r\n").as_bytes());
        self.read_response()
    }

    /// Asserts the server closes the connection (a clean EOF follows).
    fn expect_eof(&mut self) {
        let mut byte = [0u8; 1];
        assert_eq!(
            self.reader.read(&mut byte).expect("clean close"),
            0,
            "server must close this connection"
        );
    }
}

/// Drops live server measurements from an info response so twin servers can be
/// compared typed: latencies and gauges legitimately differ between processes.
fn null_server(mut response: Response) -> Response {
    if let Ok(ResponseBody::Info { server, .. }) = &mut response.result {
        *server = None;
    }
    response
}

/// Extracts the `"op"` token from a possibly-invalid request body.
fn body_op(json: &str) -> Option<&str> {
    json.split("\"op\"").nth(1)?.split('"').nth(1)
}

fn await_passes(handle: &ServerHandle, at_least: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while handle.maintenance_stats().passes < at_least {
        assert!(
            std::time::Instant::now() < deadline,
            "maintenance never caught up: {:?}",
            handle.maintenance_stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn http_responses_are_byte_identical_to_tcp_responses_for_every_doc_example() {
    let tcp_root = temp_root("doc-tcp");
    let http_root = temp_root("doc-http");
    // Twin catalogs under identical specs; maintenance stays signal-driven so
    // the twins can be held in lockstep between mutating examples.
    let tcp_handle = serve(
        QueryService::create(&tcp_root, spec()).expect("create"),
        ServerConfig::builder()
            .tcp("127.0.0.1:0")
            .maintenance_interval(None)
            .build()
            .expect("config"),
    )
    .expect("serve tcp");
    let http_handle = serve(
        QueryService::create(&http_root, spec()).expect("create"),
        ServerConfig::builder()
            .http("127.0.0.1:0")
            .maintenance_interval(None)
            .build()
            .expect("config"),
    )
    .expect("serve http");
    let mut tcp = LineClient::connect(tcp_handle.tcp_addr().expect("tcp bound"));
    let mut http = HttpClient::connect(http_handle.http_addr().expect("http bound"));

    let mut replayed = 0;
    let mut expected_passes = 0;
    for example in harvest() {
        let at = format!("docs/PROTOCOL.md line {}", example.line);
        // Doc examples are wrapped for readability; the wire form is one line.
        let compact = example.json.replace('\n', " ");
        match example
            .kind
            .split_whitespace()
            .collect::<Vec<_>>()
            .as_slice()
        {
            ["request"] => {
                let request =
                    Request::decode(&compact).unwrap_or_else(|e| panic!("{at}: {}", e.error));
                let (path, _) = http::ROUTES
                    .iter()
                    .find(|(_, op)| *op == request.body.op())
                    .expect("every op has a route");
                let tcp_line = tcp.call(&compact);
                let response = http.post(path, &compact);
                let decoded = Response::decode(tcp_line.trim_end()).expect("tcp line decodes");
                if request.body.op() == "rank" {
                    // The doc's sketches are built under this fixture's spec.
                    assert!(decoded.result.is_ok(), "{at}: rank refused: {tcp_line}");
                }
                let expected_status = match &decoded.result {
                    Ok(_) => 200,
                    Err(e) => e.code.http_status(),
                };
                assert_eq!(response.status, expected_status, "{at}: HTTP status");
                if matches!(
                    &decoded.result,
                    Ok(ResponseBody::Info {
                        server: Some(_),
                        ..
                    })
                ) {
                    // Live server stats are process-local measurements; hold
                    // everything else to typed equality.
                    assert_eq!(
                        null_server(decoded.clone()),
                        null_server(response.decode()),
                        "{at}: info responses drifted between framers"
                    );
                } else {
                    assert_eq!(
                        response.body_str(),
                        tcp_line,
                        "{at}: HTTP body must be byte-identical to the TCP line"
                    );
                }
                // Registrations signal a compaction pass; wait for both twins
                // to absorb it so later `info` examples see identical catalogs.
                if matches!(&decoded.result, Ok(ResponseBody::Report { .. })) {
                    expected_passes += 1;
                    await_passes(&tcp_handle, expected_passes);
                    await_passes(&http_handle, expected_passes);
                }
                replayed += 1;
            }
            // A decode rejection and a request the server refuses once
            // decoded both promise one error code on both framers.
            ["request-error", code] | ["request-fails", code] => {
                let expected = ErrorCode::parse(code)
                    .unwrap_or_else(|| panic!("{at}: `{code}` is not a documented error code"));
                let tcp_line = tcp.call(&compact);
                let tcp_decoded = Response::decode(tcp_line.trim_end()).expect("tcp line decodes");
                assert_eq!(
                    tcp_decoded.result.expect_err("doc promises rejection").code,
                    expected,
                    "{at}: TCP error code"
                );
                // Route by the body's op token: routable ops go to their route,
                // unknown ops to the path that spells them (answered 404), and
                // op-less bodies to an arbitrary op route.
                let path = match body_op(&compact) {
                    Some(op) => http::ROUTES
                        .iter()
                        .find(|(_, o)| *o == op)
                        .map_or_else(|| format!("/v1/{op}"), |(p, _)| (*p).to_string()),
                    None => "/v1/query".to_string(),
                };
                let response = http.post(&path, &compact);
                assert_eq!(response.status, expected.http_status(), "{at}: HTTP status");
                assert_eq!(
                    response.decode().result.expect_err("rejected").code,
                    expected,
                    "{at}: HTTP error code"
                );
                replayed += 1;
            }
            // Response examples are outputs; the tier-1 doc suite round-trips
            // them typed.
            _ => {}
        }
    }
    assert!(
        replayed >= 11,
        "suspiciously few doc examples replayed: {replayed}"
    );

    tcp_handle.shutdown();
    http_handle.shutdown();
    fs::remove_dir_all(&tcp_root).expect("cleanup");
    fs::remove_dir_all(&http_root).expect("cleanup");
}

#[test]
fn the_http_surface_covers_gets_injection_and_typed_rejections() {
    let root = temp_root("surface");
    let handle = serve(
        QueryService::create(&root, spec()).expect("create"),
        ServerConfig::builder()
            .http("127.0.0.1:0")
            .maintenance_interval(None)
            .build()
            .expect("config"),
    )
    .expect("serve");
    let addr = handle.http_addr().expect("http bound");
    let mut client = HttpClient::connect(addr);

    // GET /v1/info always carries service stats; server stats are opt-in.
    let response = client.get("/v1/info");
    assert_eq!(response.status, 200);
    match response.decode().result.expect("info") {
        ResponseBody::Info { stats, server, .. } => {
            assert!(stats.is_some(), "the server always sends service stats");
            assert!(server.is_none(), "server stats must be requested");
        }
        other => panic!("expected info, got {other:?}"),
    }
    let response = client.get("/v1/info?server=1");
    match response.decode().result.expect("info") {
        ResponseBody::Info { server, .. } => {
            let server = server.expect("?server=1 opts into server stats");
            assert_eq!(server.connections_open, 1);
        }
        other => panic!("expected info, got {other:?}"),
    }

    // POST with the op omitted: the route injects it.
    let response = client.post("/v1/info", r#"{"v": 1, "id": 41}"#);
    assert_eq!(response.status, 200);
    assert!(matches!(
        response.decode().result,
        Ok(ResponseBody::Info { .. })
    ));

    // A body op that contradicts the route is refused, not silently rerouted.
    let response = client.post("/v1/query", r#"{"v": 1, "op": "info"}"#);
    assert_eq!(response.status, 400);
    assert_eq!(
        response.decode().result.expect_err("contradiction").code,
        ErrorCode::BadRequest
    );

    // Unknown routes answer `unknown_op`, 404.
    let response = client.post("/v1/compact", r#"{"v": 1}"#);
    assert_eq!(response.status, 404);
    assert_eq!(
        response.decode().result.expect_err("unrouted").code,
        ErrorCode::UnknownOp
    );

    // The op routes are POST-only.
    client.send(b"GET /v1/query HTTP/1.1\r\nHost: conformance\r\n\r\n");
    let response = client.read_response();
    assert_eq!(response.status, 405);

    // Expect: 100-continue gets the interim response before the final one.
    let body = r#"{"v": 1, "id": 42}"#;
    client.send(
        format!(
            "POST /v1/info HTTP/1.1\r\nHost: conformance\r\nExpect: 100-continue\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    let interim = client.read_response();
    assert_eq!(interim.status, 100);
    client.send(body.as_bytes());
    let response = client.read_response();
    assert_eq!(response.status, 200);

    // Connection: close is honored once the response is written.
    client.send(
        b"POST /v1/info HTTP/1.1\r\nHost: conformance\r\nConnection: close\r\n\
          Content-Length: 8\r\n\r\n{\"v\": 1}",
    );
    let response = client.read_response();
    assert_eq!(response.status, 200);
    client.expect_eof();

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn http_framing_violations_get_typed_statuses_and_close() {
    let root = temp_root("framing");
    let handle = serve(
        QueryService::create(&root, spec()).expect("create"),
        ServerConfig::builder()
            .http("127.0.0.1:0")
            .max_line_bytes(1024)
            .maintenance_interval(None)
            .build()
            .expect("config"),
    )
    .expect("serve");
    let addr = handle.http_addr().expect("http bound");

    // Unsupported HTTP version.
    let mut client = HttpClient::connect(addr);
    client.send(b"POST /v1/info HTTP/2.0\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    let response = client.read_response();
    assert_eq!(response.status, 505);
    // `unsupported_version` is reserved for the protocol's own `v` field; an
    // alien HTTP version is a malformed framing, i.e. `bad_request`.
    assert_eq!(
        response.decode().result.expect_err("rejected").code,
        ErrorCode::BadRequest
    );
    client.expect_eof();

    // Chunked bodies are not implemented.
    let mut client = HttpClient::connect(addr);
    client.send(b"POST /v1/info HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n");
    assert_eq!(client.read_response().status, 501);
    client.expect_eof();

    // Conflicting Content-Length headers are a smuggling hazard: refused.
    let mut client = HttpClient::connect(addr);
    client.send(
        b"POST /v1/info HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
    );
    assert_eq!(client.read_response().status, 400);
    client.expect_eof();

    // RFC 9110 `1*DIGIT`: a signed Content-Length (which `parse::<usize>()`
    // would accept for `+`) is malformed framing, typed and closed.
    for bad in ["+17", "-1", "", "2 2"] {
        let mut client = HttpClient::connect(addr);
        client.send(
            format!("POST /v1/info HTTP/1.1\r\nHost: t\r\nContent-Length: {bad}\r\n\r\n")
                .as_bytes(),
        );
        let response = client.read_response();
        assert_eq!(response.status, 400, "Content-Length `{bad}`");
        assert_eq!(
            response.decode().result.expect_err("rejected").code,
            ErrorCode::BadRequest,
            "Content-Length `{bad}`"
        );
        client.expect_eof();
    }

    // Header blocks beyond the fixed bound.
    let mut client = HttpClient::connect(addr);
    client.send(
        format!(
            "GET /v1/info HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(17 * 1024)
        )
        .as_bytes(),
    );
    assert_eq!(client.read_response().status, 431);
    client.expect_eof();

    // Bodies beyond the configured request bound, rejected from the header
    // alone with the protocol's `too_large`.
    let mut client = HttpClient::connect(addr);
    let big = "x".repeat(4096);
    let response = client.post("/v1/query", &big);
    assert_eq!(response.status, 413);
    assert_eq!(
        response.decode().result.expect_err("rejected").code,
        ErrorCode::TooLarge
    );
    client.expect_eof();

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn http_connection_cap_rejects_with_503_and_closes() {
    let root = temp_root("conncap");
    let handle = serve(
        QueryService::create(&root, spec()).expect("create"),
        ServerConfig::builder()
            .http("127.0.0.1:0")
            .max_connections(1)
            .maintenance_interval(None)
            .build()
            .expect("config"),
    )
    .expect("serve");
    let addr = handle.http_addr().expect("http bound");

    // Occupy the only slot, with a round trip to make the occupancy visible.
    let mut first = HttpClient::connect(addr);
    assert_eq!(first.get("/v1/info").status, 200);

    // The next connection is answered 503 without ever sending a request…
    let mut second = HttpClient::connect(addr);
    let rejection = second.read_response();
    assert_eq!(rejection.status, 503);
    assert_eq!(
        rejection.decode().result.expect_err("rejected").code,
        ErrorCode::Overloaded
    );
    // …and closed, so load balancers can fail over immediately.
    second.expect_eof();

    // The occupant is unaffected.
    assert_eq!(first.get("/v1/info?server=1").status, 200);

    handle.shutdown();
    fs::remove_dir_all(&root).expect("cleanup");
}

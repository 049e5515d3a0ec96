//! Doc-driven protocol conformance: `docs/PROTOCOL.md` is the normative spec, and
//! this test parses its annotated examples against the implementation, so the spec
//! and the code cannot silently drift apart.
//!
//! The doc marks each fenced ```json example with an HTML comment on the preceding
//! line:
//!
//! * `<!-- conformance: request -->` — must decode as a [`Request`], and survive a
//!   decode → encode → decode round trip unchanged.
//! * `<!-- conformance: response -->` — must decode as a [`Response`], and survive
//!   the same round trip.
//! * `<!-- conformance: request-error <code> -->` — must be *rejected* by
//!   [`Request::decode`] with exactly that error code.
//! * `<!-- conformance: request-fails <code> -->` — must decode and round-trip
//!   like a request, and a server must answer it with exactly that error code
//!   (the HTTP conformance suite replays it; for a `rank` request this suite
//!   checks the sketch check fails so).
//!
//! A `rank` example carries query sketches built under the doc fixture spec
//! (the catalog the HTTP conformance suite replays the doc against); this
//! suite rebuilds every such sketch and holds the doc to it byte for byte.
//!
//! The error-code table is also harvested: its backticked first-column tokens must
//! match [`ErrorCode::ALL`] exactly, in order.
//!
//! This runs in the tier-1 suite (no `server` feature): the protocol model is pure
//! data.

use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_core::SketcherSpec;
use ipsketch_join::JoinEstimator;
use ipsketch_serve::http;
use ipsketch_serve::protocol::{sketch_queries, ErrorCode, Request, RequestBody, Response};

const PROTOCOL_DOC: &str = include_str!("../../../docs/PROTOCOL.md");

/// An annotated example harvested from the doc.
#[derive(Debug)]
struct DocExample {
    /// The annotation payload, e.g. `request` or `request-error bad_request`.
    kind: String,
    /// The JSON text, with the doc's line breaks joined (examples are wrapped for
    /// readability; the wire form is one line, and JSON ignores the whitespace).
    json: String,
    /// 1-based line of the annotation, for failure messages.
    line: usize,
}

/// Harvests every `<!-- conformance: … -->` + fenced-json pair.
fn harvest() -> Vec<DocExample> {
    let lines: Vec<&str> = PROTOCOL_DOC.lines().collect();
    let mut examples = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim();
        if let Some(rest) = line.strip_prefix("<!-- conformance:") {
            let kind = rest
                .strip_suffix("-->")
                .expect("unterminated conformance annotation")
                .trim()
                .to_string();
            // The fence must open on the next line.
            assert!(
                lines
                    .get(i + 1)
                    .is_some_and(|l| l.trim().starts_with("```json")),
                "line {}: conformance annotation `{kind}` not followed by a ```json fence",
                i + 1,
            );
            let mut body = String::new();
            let mut j = i + 2;
            while j < lines.len() && lines[j].trim() != "```" {
                body.push_str(lines[j]);
                body.push('\n');
                j += 1;
            }
            assert!(j < lines.len(), "line {}: unterminated fence", i + 2);
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

#[test]
fn every_annotated_example_conforms_to_the_implementation() {
    let examples = harvest();
    let mut requests = 0;
    let mut responses = 0;
    let mut request_errors = 0;
    for example in &examples {
        let at = format!("docs/PROTOCOL.md line {} ({})", example.line, example.kind);
        match example
            .kind
            .split_whitespace()
            .collect::<Vec<_>>()
            .as_slice()
        {
            ["request"] | ["request-fails", _] => {
                requests += 1;
                let decoded = Request::decode(&example.json)
                    .unwrap_or_else(|e| panic!("{at}: does not decode: {}", e.error));
                let reencoded = Request::decode(&decoded.encode())
                    .unwrap_or_else(|e| panic!("{at}: re-encoding broke: {}", e.error));
                assert_eq!(reencoded, decoded, "{at}: decode→encode→decode drifted");
            }
            ["response"] => {
                responses += 1;
                let decoded = Response::decode(&example.json)
                    .unwrap_or_else(|e| panic!("{at}: does not decode: {e}"));
                let reencoded = Response::decode(&decoded.encode())
                    .unwrap_or_else(|e| panic!("{at}: re-encoding broke: {e}"));
                assert_eq!(reencoded, decoded, "{at}: decode→encode→decode drifted");
            }
            ["request-error", code] => {
                request_errors += 1;
                let expected = ErrorCode::parse(code)
                    .unwrap_or_else(|| panic!("{at}: `{code}` is not a documented error code"));
                let failure = Request::decode(&example.json)
                    .expect_err(&format!("{at}: decoded but the doc promises rejection"));
                assert_eq!(
                    failure.error.code, expected,
                    "{at}: rejected with `{}`, doc promises `{}` ({})",
                    failure.error.code, expected, failure.error.message
                );
            }
            other => panic!("{at}: unknown conformance kind {other:?}"),
        }
    }
    // The harvest itself is load-bearing: if the doc is restructured and the
    // annotations stop matching, this catches the silent loss of coverage.
    assert!(
        requests >= 10 && responses >= 9 && request_errors >= 4,
        "suspiciously few examples harvested: {requests} requests, {responses} responses, \
         {request_errors} request-errors"
    );
}

/// The spec of the catalog `tests/http_conformance.rs` replays the doc
/// against: the doc's `rank` sketches are built under it.
fn doc_fixture_spec() -> SketcherSpec {
    AnySketcher::for_budget(SketchMethod::WeightedMinHash, 256.0, 7)
        .expect("budget fits")
        .spec()
}

#[test]
fn rank_examples_carry_the_fixture_sketches_of_their_queries() {
    let spec = doc_fixture_spec();
    let estimator = JoinEstimator::new(spec.build().expect("the fixture spec builds"));
    let mut honest = 0;
    let mut failing = 0;
    for example in harvest() {
        let at = format!("docs/PROTOCOL.md line {} ({})", example.line, example.kind);
        let Ok(Request {
            id,
            body:
                RequestBody::Rank {
                    mode,
                    k,
                    min_join_size,
                    cascade,
                    queries,
                },
        }) = Request::decode(&example.json)
        else {
            continue;
        };
        match example
            .kind
            .split_whitespace()
            .collect::<Vec<_>>()
            .as_slice()
        {
            ["request"] => {
                honest += 1;
                let plain: Vec<_> = queries.iter().map(|q| q.query.clone()).collect();
                let sketched = sketch_queries(&estimator, &plain, mode, cascade)
                    .unwrap_or_else(|e| panic!("{at}: the query does not sketch: {e}"));
                let rebuilt: Vec<_> = plain
                    .into_iter()
                    .zip(&sketched)
                    .map(|(query, sketch)| {
                        ipsketch_serve::protocol::WireRankQuery::new(query, sketch, spec.format)
                    })
                    .collect();
                let expected = Request {
                    id,
                    body: RequestBody::Rank {
                        mode,
                        k,
                        min_join_size,
                        cascade,
                        queries: rebuilt.clone(),
                    },
                };
                assert!(
                    queries == rebuilt,
                    "{at}: the sketch is not the fixture's; the request should read\n{}",
                    expected.encode()
                );
            }
            ["request-fails", code] => {
                failing += 1;
                let expected = ErrorCode::parse(code)
                    .unwrap_or_else(|| panic!("{at}: `{code}` is not a documented error code"));
                let error = queries
                    .iter()
                    .find_map(|q| q.to_sketched(&spec).err())
                    .unwrap_or_else(|| panic!("{at}: every sketch passes the fixture's check"));
                assert_eq!(error.code, expected, "{at}: {}", error.message);
            }
            _ => {}
        }
    }
    assert!(
        honest >= 1 && failing >= 1,
        "the doc shows a `rank` and a refused `rank`"
    );
}

#[test]
fn the_error_code_table_matches_the_implementation_exactly() {
    // Harvest backticked tokens from the first column of the table under
    // "## Error codes".
    let section = PROTOCOL_DOC
        .split("## Error codes")
        .nth(1)
        .expect("doc has an `## Error codes` section");
    let mut documented = Vec::new();
    for line in section.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let code = rest.split('`').next().expect("closing backtick");
        documented.push(code.to_string());
    }
    let implemented: Vec<String> = ErrorCode::ALL
        .iter()
        .map(|c| c.as_str().to_string())
        .collect();
    assert_eq!(
        documented, implemented,
        "docs/PROTOCOL.md error table and ErrorCode::ALL must list the same codes in the same order"
    );
}

#[test]
fn the_http_status_column_matches_the_implementation_exactly() {
    // The second cell of each error-table row is the code's HTTP status in the
    // HTTP/1.1 binding.
    let section = PROTOCOL_DOC
        .split("## Error codes")
        .nth(1)
        .expect("doc has an `## Error codes` section");
    let mut documented = Vec::new();
    for line in section.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let mut cells = rest.split('|');
        let code = cells
            .next()
            .expect("code cell")
            .trim()
            .trim_matches('`')
            .to_string();
        let status: u16 = cells
            .next()
            .expect("status cell")
            .trim()
            .parse()
            .expect("HTTP column holds a status number");
        documented.push((code, status));
    }
    let implemented: Vec<(String, u16)> = ErrorCode::ALL
        .iter()
        .map(|c| (c.as_str().to_string(), c.http_status()))
        .collect();
    assert_eq!(
        documented, implemented,
        "docs/PROTOCOL.md HTTP column and ErrorCode::http_status must agree, in order"
    );
}

#[test]
fn the_route_table_matches_the_http_binding_exactly() {
    // Harvest `| `/v1/…` | `op` |` rows between the HTTP binding heading and the
    // error-code section.
    let section = PROTOCOL_DOC
        .split("## HTTP/1.1 binding")
        .nth(1)
        .expect("doc has an `## HTTP/1.1 binding` section")
        .split("## Error codes")
        .next()
        .expect("error codes follow the binding");
    let mut documented = Vec::new();
    for line in section.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("| `/") else {
            continue;
        };
        let mut cells = rest.split('|');
        let path = format!(
            "/{}",
            cells.next().expect("path cell").trim().trim_matches('`')
        );
        let op = cells
            .next()
            .expect("op cell")
            .trim()
            .trim_matches('`')
            .to_string();
        documented.push((path, op));
    }
    let implemented: Vec<(String, String)> = http::ROUTES
        .iter()
        .map(|(path, op)| ((*path).to_string(), (*op).to_string()))
        .collect();
    assert_eq!(
        documented, implemented,
        "docs/PROTOCOL.md route table and http::ROUTES must list the same routes in the same order"
    );
    for (path, _) in http::ROUTES {
        assert!(
            section.contains(path),
            "route `{path}` is implemented but undocumented"
        );
    }
}

#[test]
fn the_documented_version_matches_the_implementation() {
    assert!(
        PROTOCOL_DOC
            .lines()
            .next()
            .is_some_and(|title| title.contains(&format!(
                "(v{})",
                ipsketch_serve::protocol::PROTOCOL_VERSION
            ))),
        "the doc title must name the implemented protocol version"
    );
}

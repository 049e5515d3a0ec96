//! The HTTP/1.1 binding of the protocol: framing, routing, and status mapping.
//!
//! Normative rules live in `docs/PROTOCOL.md` § "HTTP/1.1 binding"; this module is
//! their executable counterpart, and — like [`crate::protocol`] — it is pure data:
//! no sockets, no feature gate, tier-1 tested.  The server (feature `server`) wires
//! [`try_frame`] into its reactor as a second framer next to the line-delimited one
//! and [`encode_response`] into its workers; any HTTP client (curl included) gets
//! the exact bytes a raw-TCP client would read, wrapped in an HTTP envelope:
//!
//! * `POST /v1/<op>` carries one request document as the body.  The route names
//!   the op, so the body may omit `"op"` (it is injected); a body that *does* name
//!   an op must agree with the route.
//! * `GET /v1/info` (optionally `?server=1`) needs no body at all.
//! * The response body is exactly the line the TCP framer would send — same JSON,
//!   same trailing `\n` — with the status derived from the outcome
//!   ([`ErrorCode::http_status`]).
//!
//! Framing is deliberately minimal but strict where it matters: `Content-Length`
//! only (chunked uploads are refused with `501`), bounded header blocks, bounded
//! bodies, keep-alive by HTTP/1.1 default, and `Expect: 100-continue` honored so
//! curl's large-upload handshake works.

use crate::protocol::{ErrorCode, Request, RequestBody, RequestDecodeError, Response, WireError};
use crate::wire::Json;

/// Upper bound on a request's header block (request line + headers + CRLFs).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Route table: URL path ↔ op token, one route per op.  `GET` is only valid on
/// `/v1/info`; every route accepts `POST`.
pub const ROUTES: [(&str, &str); 12] = [
    ("/v1/info", "info"),
    ("/v1/query", "query"),
    ("/v1/batch-query", "batch-query"),
    ("/v1/rank", "rank"),
    ("/v1/ingest", "ingest"),
    ("/v1/ingest-begin", "ingest-begin"),
    ("/v1/ingest-announce", "ingest-announce"),
    ("/v1/ingest-submit", "ingest-submit"),
    ("/v1/ingest-finish", "ingest-finish"),
    ("/v1/drop-column", "drop-column"),
    ("/v1/export-column", "export-column"),
    ("/v1/import-column", "import-column"),
];

/// Looks up the op a URL path routes to (query strings already stripped).
#[must_use]
pub fn route_op(path: &str) -> Option<&'static str> {
    ROUTES.iter().find(|(p, _)| *p == path).map(|(_, op)| *op)
}

/// One parsed HTTP request, ready for a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The method token, uppercase as received (`GET`, `POST`, …).
    pub method: String,
    /// The request target: path plus optional query string, as received.
    pub target: String,
    /// Whether the connection stays open after the response (HTTP/1.1 default
    /// unless `Connection: close`; HTTP/1.0 only with `Connection: keep-alive`).
    pub keep_alive: bool,
    /// The request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

/// A framing-layer failure: the HTTP status to answer with plus the protocol
/// error to carry as the response body.  Framing failures poison the connection
/// (the byte stream is no longer trustworthy), so responses to them always close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status code.
    pub status: u16,
    /// The protocol-level error for the JSON body.
    pub error: WireError,
}

impl HttpError {
    fn new(status: u16, code: ErrorCode, message: impl Into<String>) -> Self {
        HttpError {
            status,
            error: WireError {
                code,
                message: message.into(),
            },
        }
    }
}

/// What [`try_frame`] found at the front of the read buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameStep {
    /// Not enough bytes for a complete request yet.  When `needs_continue` is
    /// set, the headers are complete and carried `Expect: 100-continue` — the
    /// caller should emit [`CONTINUE_RESPONSE`] once, then keep reading the body.
    Incomplete {
        /// Whether an interim `100 Continue` is owed before the client sends
        /// the body.
        needs_continue: bool,
    },
    /// One complete request, consumed from the buffer.
    Request(HttpRequest),
}

/// The interim response owed to `Expect: 100-continue`.
pub const CONTINUE_RESPONSE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Tries to frame one HTTP request off the front of `buf`, consuming its bytes on
/// success.  `max_body_bytes` bounds the declared `Content-Length` (the server
/// passes its line-size bound, so both framers accept the same payload sizes).
///
/// # Errors
///
/// Returns [`HttpError`] when the byte stream is not a well-formed HTTP/1.1
/// request the binding accepts; the connection cannot be re-synchronized after
/// that, so the caller must answer and close.
pub fn try_frame(buf: &mut Vec<u8>, max_body_bytes: usize) -> Result<FrameStep, HttpError> {
    let Some(header_end) = find_header_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(HttpError::new(
                431,
                ErrorCode::TooLarge,
                format!("header block exceeds {MAX_HEADER_BYTES} bytes"),
            ));
        }
        return Ok(FrameStep::Incomplete {
            needs_continue: false,
        });
    };
    if header_end > MAX_HEADER_BYTES {
        return Err(HttpError::new(
            431,
            ErrorCode::TooLarge,
            format!("header block exceeds {MAX_HEADER_BYTES} bytes"),
        ));
    }
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| HttpError::new(400, ErrorCode::BadRequest, "header block is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::new(
            400,
            ErrorCode::BadRequest,
            format!("malformed request line `{request_line}`"),
        ));
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError::new(
                505,
                ErrorCode::BadRequest,
                format!("unsupported HTTP version `{other}`"),
            ))
        }
    };

    let mut content_length: Option<usize> = None;
    let mut connection: Option<String> = None;
    let mut expect_continue = false;
    let mut transfer_encoding = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(
                400,
                ErrorCode::BadRequest,
                format!("malformed header line `{line}`"),
            ));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                // RFC 9110 §8.6: Content-Length is `1*DIGIT`.  `parse::<usize>()`
                // alone would also accept a leading `+` (`+17`), so require the
                // digits-only form explicitly before parsing.
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(HttpError::new(
                        400,
                        ErrorCode::BadRequest,
                        format!("unparseable Content-Length `{value}`"),
                    ));
                }
                let parsed = value.parse::<usize>().map_err(|_| {
                    HttpError::new(
                        400,
                        ErrorCode::BadRequest,
                        format!("unparseable Content-Length `{value}`"),
                    )
                })?;
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Err(HttpError::new(
                        400,
                        ErrorCode::BadRequest,
                        "conflicting Content-Length headers",
                    ));
                }
                content_length = Some(parsed);
            }
            "connection" => connection = Some(value.to_ascii_lowercase()),
            "expect" => expect_continue = value.eq_ignore_ascii_case("100-continue"),
            "transfer-encoding" => transfer_encoding = true,
            _ => {}
        }
    }
    if transfer_encoding {
        return Err(HttpError::new(
            501,
            ErrorCode::BadRequest,
            "Transfer-Encoding is not supported; send Content-Length",
        ));
    }
    let body_len = content_length.unwrap_or(0);
    if body_len > max_body_bytes {
        return Err(HttpError::new(
            413,
            ErrorCode::TooLarge,
            format!("request body of {body_len} bytes exceeds the {max_body_bytes}-byte bound"),
        ));
    }
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };

    let total = header_end + body_len;
    if buf.len() < total {
        return Ok(FrameStep::Incomplete {
            needs_continue: expect_continue,
        });
    }
    let body = buf[header_end..total].to_vec();
    let request = HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        keep_alive,
        body,
    };
    buf.drain(..total);
    Ok(FrameStep::Request(request))
}

/// Finds the end of the header block (the index just past `\r\n\r\n`).
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Decodes a `POST` body into a typed [`Request`], injecting the route's op when
/// the body omits `"op"` and rejecting a body whose op contradicts the route.
///
/// # Errors
///
/// Same contract as [`Request::decode`] (best-effort recovered `id`).
pub fn decode_request(route_op: &str, body: &[u8]) -> Result<Request, RequestDecodeError> {
    let text = std::str::from_utf8(body).map_err(|_| RequestDecodeError {
        id: Json::Null,
        error: WireError::bad_request("request body is not UTF-8"),
    })?;
    let doc = Json::parse(text.trim_end_matches(['\r', '\n'])).map_err(|e| RequestDecodeError {
        id: Json::Null,
        error: WireError::bad_request(e.to_string()),
    })?;
    let doc = match doc {
        Json::Obj(mut members) => {
            match members
                .iter()
                .find(|(k, _)| k == "op")
                .and_then(|(_, v)| v.as_str())
            {
                None => members.push(("op".to_string(), Json::str(route_op))),
                Some(op) if op == route_op => {}
                Some(op) => {
                    let id = members
                        .iter()
                        .find(|(k, _)| k == "id")
                        .map_or(Json::Null, |(_, v)| v.clone());
                    return Err(RequestDecodeError {
                        id,
                        error: WireError::bad_request(format!(
                            "body op `{op}` contradicts route op `{route_op}`"
                        )),
                    });
                }
            }
            Json::Obj(members)
        }
        _ => {
            return Err(RequestDecodeError {
                id: Json::Null,
                error: WireError::bad_request("request body must be a JSON object"),
            })
        }
    };
    Request::from_json(&doc)
}

/// Builds the `GET /v1/info` request a query-string selects: `?server=1` (or
/// `true`) opts into live server stats.
#[must_use]
pub fn info_request(query_string: Option<&str>) -> Request {
    let server = query_string.is_some_and(|qs| {
        qs.split('&')
            .any(|kv| matches!(kv.split_once('='), Some(("server", "1" | "true"))))
    });
    Request {
        id: Json::Null,
        body: RequestBody::Info { server },
    }
}

/// Splits a request target into its path and optional query string.
#[must_use]
pub fn split_target(target: &str) -> (&str, Option<&str>) {
    match target.split_once('?') {
        Some((path, qs)) => (path, Some(qs)),
        None => (target, None),
    }
}

/// The status code for a protocol response: `200` for success, else the error
/// code's mapping.
#[must_use]
pub fn response_status(response: &Response) -> u16 {
    match &response.result {
        Ok(_) => 200,
        Err(e) => e.code.http_status(),
    }
}

/// The reason phrase for the status codes this binding emits.
#[must_use]
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Encodes a complete HTTP response.  `body` is the protocol line (the encoded
/// [`Response`], trailing `\n` included — byte-identical to the TCP framer's
/// line).
#[must_use]
pub fn encode_response(status: u16, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Encodes the full HTTP answer for a protocol [`Response`]: status from the
/// outcome, body byte-identical to the TCP line.
#[must_use]
pub fn encode_protocol_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut line = response.encode();
    line.push('\n');
    encode_response(response_status(response), line.as_bytes(), keep_alive)
}

/// Encodes the closing answer for a framing-layer [`HttpError`].
#[must_use]
pub fn encode_framing_error(e: &HttpError) -> Vec<u8> {
    let response = Response {
        id: Json::Null,
        result: Err(e.error.clone()),
    };
    let mut line = response.encode();
    line.push('\n');
    encode_response(e.status, line.as_bytes(), false)
}

/// The `overloaded` failure response for a capacity rejection, as a protocol
/// [`Response`] both framers encode their own way.
#[must_use]
pub fn overloaded_response(detail: &str) -> Response {
    Response {
        id: Json::Null,
        result: Err(WireError {
            code: ErrorCode::Overloaded,
            message: detail.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Mode, PROTOCOL_VERSION};

    fn frame_all(input: &[u8], max_body: usize) -> (Vec<HttpRequest>, Vec<u8>) {
        let mut buf = input.to_vec();
        let mut out = Vec::new();
        loop {
            match try_frame(&mut buf, max_body).expect("frames") {
                FrameStep::Request(r) => out.push(r),
                FrameStep::Incomplete { .. } => return (out, buf),
            }
        }
    }

    #[test]
    fn frames_a_post_with_body_and_keeps_the_tail() {
        let body = r#"{"v":1,"id":7}"#;
        let raw = format!(
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}GET",
            body.len()
        );
        let (requests, rest) = frame_all(raw.as_bytes(), 1024);
        assert_eq!(requests.len(), 1);
        let r = &requests[0];
        assert_eq!(
            (r.method.as_str(), r.target.as_str()),
            ("POST", "/v1/query")
        );
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(r.body, body.as_bytes());
        assert_eq!(rest, b"GET", "pipelined tail stays buffered");
    }

    #[test]
    fn pipelined_requests_frame_in_order() {
        let raw = "GET /v1/info HTTP/1.1\r\n\r\nPOST /v1/ingest-finish HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let (requests, rest) = frame_all(raw.as_bytes(), 1024);
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[0].target, "/v1/info");
        assert_eq!(requests[1].body, b"{}");
        assert!(rest.is_empty());
    }

    #[test]
    fn incomplete_frames_wait_without_consuming() {
        let mut buf = b"POST /v1/query HTTP/1.1\r\nContent-Le".to_vec();
        assert_eq!(
            try_frame(&mut buf, 1024).expect("incomplete"),
            FrameStep::Incomplete {
                needs_continue: false
            }
        );
        assert_eq!(buf.len(), 35, "nothing consumed");
        // Headers complete, body outstanding, with Expect: the caller owes a 100.
        let mut buf =
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\nab"
                .to_vec();
        assert_eq!(
            try_frame(&mut buf, 1024).expect("incomplete"),
            FrameStep::Incomplete {
                needs_continue: true
            }
        );
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        let keep = |raw: &str| {
            let (requests, _) = frame_all(raw.as_bytes(), 64);
            requests[0].keep_alive
        };
        assert!(keep("GET /v1/info HTTP/1.1\r\n\r\n"));
        assert!(!keep("GET /v1/info HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!keep("GET /v1/info HTTP/1.0\r\n\r\n"));
        assert!(keep(
            "GET /v1/info HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        ));
    }

    #[test]
    fn framing_violations_are_typed_with_statuses() {
        let err = |raw: &[u8], max_body: usize| {
            let mut buf = raw.to_vec();
            try_frame(&mut buf, max_body).expect_err("rejects")
        };
        assert_eq!(
            err(b"POST /v1/query HTTP/2\r\n\r\n", 64).status,
            505,
            "unsupported version"
        );
        assert_eq!(err(b"nonsense\r\n\r\n", 64).status, 400, "bad request line");
        assert_eq!(
            err(
                b"POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                64
            )
            .status,
            501,
            "chunked refused"
        );
        let too_big = err(
            b"POST /v1/ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
            64,
        );
        assert_eq!(too_big.status, 413);
        assert_eq!(too_big.error.code, ErrorCode::TooLarge);
        let mut huge_header = b"GET /v1/info HTTP/1.1\r\nX-Pad: ".to_vec();
        huge_header.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 8));
        let e = err(&huge_header, 64);
        assert_eq!((e.status, e.error.code), (431, ErrorCode::TooLarge));
        assert_eq!(
            err(
                b"POST /v1/query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x",
                64
            )
            .status,
            400,
            "conflicting lengths"
        );
        // RFC 9110 requires `1*DIGIT`: a leading sign (which `parse::<usize>()`
        // would happily accept), an empty value, or any other non-digit form is
        // a 400, never a silently tolerated frame length.
        for bad in [
            b"POST /v1/query HTTP/1.1\r\nContent-Length: +17\r\n\r\n".as_slice(),
            b"POST /v1/query HTTP/1.1\r\nContent-Length: -2\r\n\r\n".as_slice(),
            b"POST /v1/query HTTP/1.1\r\nContent-Length:\r\n\r\n".as_slice(),
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 1e2\r\n\r\n".as_slice(),
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n".as_slice(),
        ] {
            let e = err(bad, 64);
            assert_eq!(
                (e.status, e.error.code),
                (400, ErrorCode::BadRequest),
                "non-digit Content-Length must be rejected: {:?}",
                String::from_utf8_lossy(bad)
            );
        }
        // Plain digits still frame: `017` is unusual but is `1*DIGIT`.
        let mut buf =
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 017\r\n\r\n{\"v\":1,\"op\":\"xy\"}"
                .to_vec();
        match try_frame(&mut buf, 64).expect("digit form frames") {
            FrameStep::Request(request) => assert_eq!(request.body.len(), 17),
            other => panic!("expected a framed request, got {other:?}"),
        }
    }

    #[test]
    fn routes_cover_every_op_and_nothing_else() {
        use crate::metrics::{op_index, INVALID_OP};
        for (path, op) in ROUTES {
            assert_eq!(route_op(path), Some(op));
            assert_ne!(op_index(op), INVALID_OP, "route op `{op}` is a real op");
        }
        assert_eq!(route_op("/v1/compact"), None);
        assert_eq!(route_op("/v1/query/"), None);
        assert_eq!(route_op("/"), None);
    }

    #[test]
    fn post_bodies_inherit_the_route_op() {
        // No `op` in the body: the route provides it.
        let r = decode_request("ingest-finish", br#"{"v":1,"id":4,"session":9}"#).expect("decodes");
        assert_eq!(r.body.op(), "ingest-finish");
        assert_eq!(r.id.as_u64(), Some(4));
        // Matching op is fine.
        let r = decode_request(
            "query",
            br#"{"v":1,"op":"query","query":{"table":"t","column":"c","keys":[1],"values":[2.0]}}"#,
        )
        .expect("decodes");
        match r.body {
            RequestBody::Query { mode, .. } => assert_eq!(mode, Mode::Joinable),
            other => panic!("wrong body {other:?}"),
        }
        // Contradicting op is rejected, id still recovered.
        let e = decode_request("query", br#"{"v":1,"id":8,"op":"info"}"#).expect_err("mismatch");
        assert_eq!(e.error.code, ErrorCode::BadRequest);
        assert_eq!(e.id.as_u64(), Some(8));
        // Non-object bodies are rejected.
        let e = decode_request("query", b"[1,2]").expect_err("array");
        assert_eq!(e.error.code, ErrorCode::BadRequest);
        // Version rules still apply through this path.
        let e = decode_request("info", br#"{"v":2}"#).expect_err("v2");
        assert_eq!(e.error.code, ErrorCode::UnsupportedVersion);
    }

    #[test]
    fn info_requests_parse_the_server_flag_from_the_query_string() {
        assert_eq!(info_request(None).body, RequestBody::Info { server: false });
        assert_eq!(
            info_request(Some("server=1")).body,
            RequestBody::Info { server: true }
        );
        assert_eq!(
            info_request(Some("a=b&server=true")).body,
            RequestBody::Info { server: true }
        );
        assert_eq!(
            info_request(Some("server=0")).body,
            RequestBody::Info { server: false }
        );
        assert_eq!(
            split_target("/v1/info?server=1"),
            ("/v1/info", Some("server=1"))
        );
        assert_eq!(split_target("/v1/query"), ("/v1/query", None));
    }

    #[test]
    fn responses_carry_the_protocol_line_verbatim() {
        let response = Response {
            id: Json::u64(3),
            result: Err(WireError {
                code: ErrorCode::UnknownSession,
                message: "no session 9".to_string(),
            }),
        };
        let bytes = encode_protocol_response(&response, true);
        let text = String::from_utf8(bytes).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        let body = text.split("\r\n\r\n").nth(1).expect("body");
        assert!(body.ends_with('\n'));
        assert_eq!(
            Response::decode(body.trim_end()).expect("decodes"),
            response,
            "HTTP body is the TCP line"
        );
        let declared: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("length header")
            .trim()
            .parse()
            .expect("number");
        assert_eq!(declared, body.len());
        // Success → 200; overload → 503 and a parseable protocol error.
        assert_eq!(response_status(&overloaded_response("full")), 503);
        let closing = encode_framing_error(&HttpError::new(
            431,
            ErrorCode::TooLarge,
            "header block exceeds bound",
        ));
        let text = String::from_utf8(closing).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 431 "));
        assert!(text.contains("Connection: close\r\n"));
        assert_eq!(PROTOCOL_VERSION, 1, "doc examples pin v1");
    }
}

//! Typed request/response model of the network protocol.
//!
//! The wire format itself — line-delimited JSON over TCP, one request or response
//! per `\n`-terminated line — is specified normatively in `docs/PROTOCOL.md`; this
//! module is its executable counterpart: typed [`Request`] / [`Response`] values
//! with `encode`/`decode` that both the server and clients (the example client, the
//! loopback tests, and the doc-driven conformance test that parses the spec's
//! embedded examples) share.  Everything here is pure data: it compiles and runs
//! without the `server` feature, so protocol conformance is locked by the tier-1
//! test suite even on builds that never open a socket.
//!
//! Versioning (normative rules in `docs/PROTOCOL.md` § Versioning): every request
//! carries `"v": 1` ([`PROTOCOL_VERSION`]); servers answer requests of exactly that
//! major version and reject others with [`ErrorCode::UnsupportedVersion`].  Unknown
//! *fields* are ignored (forward-compatible additions); unknown *ops* are
//! [`ErrorCode::UnknownOp`].

use crate::catalog::decode_column_blob;
use crate::error::CatalogError;
pub use crate::service::Mode;
use crate::service::QueryColumn;
use crate::wire::Json;
use ipsketch_core::{FormatVersion, SketcherSpec};
use ipsketch_data::{Column, Table};
use ipsketch_join::{JoinError, JoinEstimator, RankedColumn, SketchedColumn};
use std::fmt;

/// The protocol major version this build speaks, sent and required as `"v"`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Default ranking depth when a query omits `"k"`.
pub const DEFAULT_TOP_K: u64 = 10;

/// Machine-readable error classes carried in `error.code` of failure responses.
///
/// The catalog-layer codes mirror [`CatalogError`] variant for variant, so a wire
/// client can distinguish exactly what a library caller could; the protocol-layer
/// codes cover failures that only exist on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON, or a field was missing or mistyped.
    BadRequest,
    /// The request's `"v"` is not a version this server speaks.
    UnsupportedVersion,
    /// The request's `"op"` names no known operation.
    UnknownOp,
    /// The request line exceeded the server's size bound.
    TooLarge,
    /// An `ingest-*` op referenced a session id that does not exist (or was
    /// already finished).
    UnknownSession,
    /// The server is at a configured capacity limit (connection cap or request
    /// queue depth); retry after a backoff.
    Overloaded,
    /// A per-attempt deadline elapsed before the remote side answered.  Routers
    /// answer this for non-idempotent operations that timed out against a node
    /// whose true outcome is therefore unknown — clients must check state (e.g.
    /// `info`) before retrying.  Idempotent reads never surface this code from a
    /// router; they fail over to replicas instead.
    DeadlineExceeded,
    /// A filesystem operation failed ([`CatalogError::Io`]).
    Io,
    /// Stored catalog data did not decode ([`CatalogError::Corrupt`]).
    Corrupt,
    /// The served directory is not a catalog ([`CatalogError::NotACatalog`]).
    NotACatalog,
    /// Sketch/spec mismatch or protocol-state violation
    /// ([`CatalogError::Incompatible`]).
    Incompatible,
    /// The `(table, column)` key is already registered
    /// ([`CatalogError::DuplicateColumn`]).
    DuplicateColumn,
    /// No such `(table, column)` key ([`CatalogError::NotFound`]).
    NotFound,
    /// A sketching-layer failure ([`CatalogError::Sketch`]).
    Sketch,
    /// A join/estimation-layer failure ([`CatalogError::Join`]).
    Join,
    /// The server hit an unexpected internal state.
    Internal,
}

impl ErrorCode {
    /// Every code, in the order documented in `docs/PROTOCOL.md`'s error table
    /// (the doc conformance test asserts the two lists match).
    pub const ALL: [ErrorCode; 16] = [
        ErrorCode::BadRequest,
        ErrorCode::UnsupportedVersion,
        ErrorCode::UnknownOp,
        ErrorCode::TooLarge,
        ErrorCode::UnknownSession,
        ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Io,
        ErrorCode::Corrupt,
        ErrorCode::NotACatalog,
        ErrorCode::Incompatible,
        ErrorCode::DuplicateColumn,
        ErrorCode::NotFound,
        ErrorCode::Sketch,
        ErrorCode::Join,
        ErrorCode::Internal,
    ];

    /// The stable wire token for this code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Io => "io",
            ErrorCode::Corrupt => "corrupt",
            ErrorCode::NotACatalog => "not_a_catalog",
            ErrorCode::Incompatible => "incompatible",
            ErrorCode::DuplicateColumn => "duplicate_column",
            ErrorCode::NotFound => "not_found",
            ErrorCode::Sketch => "sketch",
            ErrorCode::Join => "join",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire token produced by [`as_str`](Self::as_str).
    #[must_use]
    pub fn parse(token: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.as_str() == token)
    }

    /// The HTTP status the HTTP/1.1 binding answers this code with (the table in
    /// `docs/PROTOCOL.md` § HTTP/1.1 binding; the doc conformance test asserts the
    /// two stay in lockstep).  Client-state failures map into 4xx, server-side
    /// failures into 5xx, so HTTP-generic middleware (retries, alerting) classifies
    /// them correctly without reading the JSON body.
    #[must_use]
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::BadRequest | ErrorCode::UnsupportedVersion => 400,
            ErrorCode::UnknownOp | ErrorCode::UnknownSession | ErrorCode::NotFound => 404,
            ErrorCode::TooLarge => 413,
            ErrorCode::Overloaded => 503,
            ErrorCode::DeadlineExceeded => 504,
            ErrorCode::Incompatible | ErrorCode::DuplicateColumn => 409,
            ErrorCode::Sketch | ErrorCode::Join => 422,
            ErrorCode::Io | ErrorCode::Corrupt | ErrorCode::NotACatalog | ErrorCode::Internal => {
                500
            }
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A protocol-level failure: a machine-readable code plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The error class.
    pub code: ErrorCode,
    /// Human-readable detail (never required for dispatch).
    pub message: String,
}

impl WireError {
    /// Constructs a [`ErrorCode::BadRequest`] error.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        WireError {
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

impl From<CatalogError> for WireError {
    fn from(e: CatalogError) -> Self {
        let code = match &e {
            CatalogError::Io { .. } => ErrorCode::Io,
            CatalogError::Corrupt { .. } => ErrorCode::Corrupt,
            CatalogError::NotACatalog { .. } => ErrorCode::NotACatalog,
            CatalogError::Incompatible { .. } => ErrorCode::Incompatible,
            CatalogError::DuplicateColumn { .. } => ErrorCode::DuplicateColumn,
            CatalogError::NotFound { .. } => ErrorCode::NotFound,
            CatalogError::Sketch(_) => ErrorCode::Sketch,
            CatalogError::Join(_) => ErrorCode::Join,
        };
        WireError {
            code,
            message: e.to_string(),
        }
    }
}

impl From<JoinError> for WireError {
    fn from(e: JoinError) -> Self {
        WireError {
            code: ErrorCode::Join,
            message: e.to_string(),
        }
    }
}

/// One value column of a wire table.
#[derive(Debug, Clone, PartialEq)]
pub struct WireColumn {
    /// Column name.
    pub name: String,
    /// One `f64` value per key, in key order.
    pub values: Vec<f64>,
}

/// A table shipped over the wire: named columns over shared `u64` join keys —
/// exactly the in-memory [`Table`] shape, in JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTable {
    /// Table name.
    pub name: String,
    /// The join keys (JSON integers — `u64` precision is preserved end to end).
    pub keys: Vec<u64>,
    /// The value columns, each aligned with `keys`.
    pub columns: Vec<WireColumn>,
}

impl WireTable {
    /// Converts into the in-memory [`Table`], enforcing its invariants (aligned
    /// columns, unique keys).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::BadRequest`] describing the violated invariant.
    pub fn to_table(&self) -> Result<Table, WireError> {
        Table::new(
            self.name.clone(),
            self.keys.clone(),
            self.columns
                .iter()
                .map(|c| Column::new(c.name.clone(), c.values.clone()))
                .collect(),
        )
        .map_err(|e| WireError::bad_request(format!("invalid table: {e}")))
    }

    /// Builds the wire form of an in-memory table.
    #[must_use]
    pub fn from_table(table: &Table) -> Self {
        WireTable {
            name: table.name().to_string(),
            keys: table.keys().to_vec(),
            columns: table
                .columns()
                .iter()
                .map(|c| WireColumn {
                    name: c.name.clone(),
                    values: c.values.clone(),
                })
                .collect(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::str(&self.name)),
            (
                "keys".to_string(),
                Json::Arr(self.keys.iter().map(|&k| Json::u64(k)).collect()),
            ),
            (
                "columns".to_string(),
                Json::Arr(
                    self.columns
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("name".to_string(), Json::str(&c.name)),
                                (
                                    "values".to_string(),
                                    Json::Arr(c.values.iter().map(|&v| Json::f64(v)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        let name = require_str(value, "name")?;
        let keys = require_u64_array(value, "keys")?;
        let columns_json = value
            .get("columns")
            .and_then(Json::as_arr)
            .ok_or_else(|| WireError::bad_request("table needs a `columns` array"))?;
        let mut columns = Vec::with_capacity(columns_json.len());
        for column in columns_json {
            columns.push(WireColumn {
                name: require_str(column, "name")?,
                values: require_f64_array(column, "values")?,
            });
        }
        Ok(WireTable {
            name,
            keys,
            columns,
        })
    }
}

/// A query column shipped over the wire: one named column of keyed values.  The
/// server sketches it with the catalog's configuration (queries are sketched fresh,
/// never registered), exactly as an in-process caller sketches one for
/// [`rank`](crate::service::rank).
#[derive(Debug, Clone, PartialEq)]
pub struct WireQuery {
    /// Name of the (virtual) table the query column belongs to.  Candidates from a
    /// cataloged table of the same name are excluded from its ranking, mirroring the
    /// in-process behavior.
    pub table: String,
    /// The query column's name.
    pub column: String,
    /// The join keys.
    pub keys: Vec<u64>,
    /// One value per key.
    pub values: Vec<f64>,
}

impl WireQuery {
    /// Converts into a single-column [`Table`] ready for sketching.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::BadRequest`] when keys and values misalign or repeat.
    pub fn to_table(&self) -> Result<Table, WireError> {
        Table::new(
            self.table.clone(),
            self.keys.clone(),
            vec![Column::new(self.column.clone(), self.values.clone())],
        )
        .map_err(|e| WireError::bad_request(format!("invalid query column: {e}")))
    }

    fn members(&self) -> Vec<(String, Json)> {
        vec![
            ("table".to_string(), Json::str(&self.table)),
            ("column".to_string(), Json::str(&self.column)),
            (
                "keys".to_string(),
                Json::Arr(self.keys.iter().map(|&k| Json::u64(k)).collect()),
            ),
            (
                "values".to_string(),
                Json::Arr(self.values.iter().map(|&v| Json::f64(v)).collect()),
            ),
        ]
    }

    fn to_json(&self) -> Json {
        Json::Obj(self.members())
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        Ok(WireQuery {
            table: require_str(value, "table")?,
            column: require_str(value, "column")?,
            keys: require_u64_array(value, "keys")?,
            values: require_f64_array(value, "values")?,
        })
    }
}

impl QueryColumn for WireQuery {
    type Error = WireError;

    fn sketch_with(&self, estimator: &JoinEstimator) -> Result<SketchedColumn, WireError> {
        Ok(estimator.sketch_column(&self.to_table()?, &self.column)?)
    }
}

/// Refuses `cascade` outside `joinable` mode (the cascade's margin is sized for
/// join sizes only).
///
/// # Errors
///
/// [`ErrorCode::BadRequest`] for a cascaded `related` request.
pub fn check_cascade(mode: Mode, cascade: bool) -> Result<(), WireError> {
    if cascade && mode == Mode::Related {
        return Err(WireError::bad_request(
            "`cascade` applies to `joinable` queries only",
        ));
    }
    Ok(())
}

/// Checks a ranking request's preconditions and sketches its query columns with
/// `estimator`, in request order.  This is the one query-sketching path: a node
/// runs it for `query` and `batch-query`, and a router runs it once per client
/// read before sending `rank`, so both answer the same errors in the same order.
///
/// # Errors
///
/// [`ErrorCode::BadRequest`] for a cascaded `related` request or an invalid
/// query column (misaligned or repeated keys); [`ErrorCode::Join`] for a column
/// the estimator cannot sketch (no value mass, non-finite values).
pub fn sketch_queries(
    estimator: &JoinEstimator,
    queries: &[WireQuery],
    mode: Mode,
    cascade: bool,
) -> Result<Vec<SketchedColumn>, WireError> {
    check_cascade(mode, cascade)?;
    queries
        .iter()
        .map(|query| query.sketch_with(estimator))
        .collect()
}

/// A query column shipped with its primary sketch already built — one entry of
/// a `rank` request.  A router sketches each client query column once, under
/// the cluster's spec, and sends the sketch to every node, which checks it
/// ([`to_sketched`](Self::to_sketched)) instead of sketching the column again.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRankQuery {
    /// The query column, as `query` carries it.  Its keys and values stay in
    /// the request: a cascade builds the companion (cheap-tier) sketch from
    /// them on the node.
    pub query: WireQuery,
    /// [`SketchedColumn::encode`] of the query column under the catalog's
    /// primary spec and format — the blob layout `export-column` ships (hex on
    /// the wire).
    pub sketch: Vec<u8>,
}

impl WireRankQuery {
    /// Pairs `query` with the blob of its primary sketch under `format`.
    #[must_use]
    pub fn new(query: WireQuery, sketched: &SketchedColumn, format: FormatVersion) -> Self {
        WireRankQuery {
            query,
            sketch: sketched.encode(format),
        }
    }

    /// Decodes the sketch and checks it against the catalog's `spec` and
    /// against the query column it claims to summarize.
    ///
    /// # Errors
    ///
    /// As [`decode_column_blob`] (`corrupt` for bytes that do not decode,
    /// `incompatible` for a sketch not built under `spec`), plus
    /// [`ErrorCode::BadRequest`] when the blob names another column or row
    /// count than the query.
    pub fn to_sketched(&self, spec: &SketcherSpec) -> Result<SketchedColumn, WireError> {
        let sketched = decode_column_blob(spec, &self.sketch)?;
        let query = &self.query;
        if sketched.table != query.table
            || sketched.column != query.column
            || sketched.rows != query.keys.len()
        {
            return Err(WireError::bad_request(format!(
                "`sketch` summarizes `{}.{}` ({} rows) but the query is `{}.{}` ({} rows)",
                sketched.table,
                sketched.column,
                sketched.rows,
                query.table,
                query.column,
                query.keys.len()
            )));
        }
        Ok(sketched)
    }

    fn to_json(&self) -> Json {
        let mut members = self.query.members();
        members.push(("sketch".to_string(), Json::str(encode_hex(&self.sketch))));
        Json::Obj(members)
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        Ok(WireRankQuery {
            query: WireQuery::from_json(value)?,
            sketch: decode_hex(&require_str(value, "sketch")?, "sketch")?,
        })
    }
}

impl QueryColumn for WireRankQuery {
    type Error = WireError;

    fn sketch_with(&self, estimator: &JoinEstimator) -> Result<SketchedColumn, WireError> {
        self.query.sketch_with(estimator)
    }
}

/// A registered column's sketch blob in transit between catalog nodes — the
/// payload of `export-column` responses and `import-column` requests.  The
/// `bytes` are the node's verified on-disk blob verbatim (hex-encoded on the
/// wire), so a copy registered elsewhere decodes to the identical sketch and
/// rankings stay byte-identical across a rebalance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSketch {
    /// Table name of the sketched column.
    pub table: String,
    /// Column name of the sketched column.
    pub column: String,
    /// Row count of the source column.
    pub rows: u64,
    /// The encoded sketch blob, exactly as stored in the exporting catalog.
    pub bytes: Vec<u8>,
}

impl WireSketch {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("table".to_string(), Json::str(&self.table)),
            ("column".to_string(), Json::str(&self.column)),
            ("rows".to_string(), Json::u64(self.rows)),
            ("bytes".to_string(), Json::str(encode_hex(&self.bytes))),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        Ok(WireSketch {
            table: require_str(value, "table")?,
            column: require_str(value, "column")?,
            rows: require_u64(value, "rows")?,
            bytes: decode_hex(&require_str(value, "bytes")?, "bytes")?,
        })
    }
}

/// Lowercase hex, two digits per byte, from a 16-entry table: sketch blobs run
/// to tens of kilobytes, so no per-byte formatting.
fn encode_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)]);
        out.push(DIGITS[usize::from(b & 0x0f)]);
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decodes the hex string of member `member` (either case); errors name that
/// member.
fn decode_hex(text: &str, member: &str) -> Result<Vec<u8>, WireError> {
    if text.len() % 2 != 0 {
        return Err(WireError::bad_request(format!(
            "`{member}` must be an even-length hex string"
        )));
    }
    let nibble = |digit: u8| match digit {
        b'0'..=b'9' => Some(digit - b'0'),
        b'a'..=b'f' => Some(digit - b'a' + 10),
        b'A'..=b'F' => Some(digit - b'A' + 10),
        _ => None,
    };
    let mut out = Vec::with_capacity(text.len() / 2);
    for pair in text.as_bytes().chunks_exact(2) {
        let (Some(hi), Some(lo)) = (nibble(pair[0]), nibble(pair[1])) else {
            return Err(WireError::bad_request(format!(
                "`{member}` must hold only hex digits"
            )));
        };
        out.push(hi << 4 | lo);
    }
    Ok(out)
}

/// The operation a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Catalog metadata: sketcher, fingerprint, registered columns, service stats.
    Info {
        /// When `true`, the response additionally carries live server observability
        /// (`server`: per-op latency quantiles, counters, gauges).  Off by default
        /// because those numbers are nondeterministic — replayed transcripts stay
        /// byte-identical unless a client opts in.
        server: bool,
    },
    /// Rank one query column against the catalog.
    Query {
        /// Ranking statistic.
        mode: Mode,
        /// How many results to return.
        k: u64,
        /// Minimum estimated join size (`related` mode only).
        min_join_size: f64,
        /// Answer through the tiered cascade (cheap-sketch prefilter, WMH
        /// rerank) when the catalog stores companion sketches (`joinable` mode
        /// only).  Catalogs without companions answer by the flat scan and
        /// attach an advisory `note`.
        cascade: bool,
        /// The query column.
        query: WireQuery,
    },
    /// Rank many query columns in one round trip, in order, against one
    /// snapshot of the catalog.
    BatchQuery {
        /// Ranking statistic.
        mode: Mode,
        /// How many results to return per query.
        k: u64,
        /// Minimum estimated join size (`related` mode only).
        min_join_size: f64,
        /// Answer through the tiered cascade; see [`RequestBody::Query`].
        cascade: bool,
        /// The query columns; response ranking `i` answers query `i`.
        queries: Vec<WireQuery>,
    },
    /// Rank query columns whose primary sketches arrive already built, answered
    /// like `batch-query`.  This is the read a router sends its nodes: it
    /// sketches each client query column once and every node ranks the same
    /// sketch, instead of every node sketching the column again.
    Rank {
        /// Ranking statistic.
        mode: Mode,
        /// How many results to return per query.
        k: u64,
        /// Minimum estimated join size (`related` mode only).
        min_join_size: f64,
        /// Answer through the tiered cascade; see [`RequestBody::Query`].
        cascade: bool,
        /// The sketched query columns; response ranking `i` answers query `i`.
        queries: Vec<WireRankQuery>,
    },
    /// Sketch and register a complete table (optionally via the chunk-and-merge
    /// partitioned path).
    Ingest {
        /// The table to register.
        table: WireTable,
        /// If set, sketch as this many row-chunks merged through the
        /// mergeable-sketcher path.
        partitions: Option<u64>,
    },
    /// Open a shard-partial ingest session for a table (two-pass announced-norm
    /// protocol; see `ShardedIngest`).
    IngestBegin {
        /// The logical table name every shard of this session must carry.
        table: String,
    },
    /// First pass: fold a shard's `Σv²` partial sums into the session's norms.
    IngestAnnounce {
        /// Session id from `ingest-begin`.
        session: u64,
        /// The shard (a row range of the logical table).
        shard: WireTable,
    },
    /// Second pass: sketch a shard against the announced norms and fold it in.
    IngestSubmit {
        /// Session id from `ingest-begin`.
        session: u64,
        /// The shard (a row range of the logical table).
        shard: WireTable,
    },
    /// Register the session's folded columns into the catalog.
    IngestFinish {
        /// Session id from `ingest-begin`.
        session: u64,
    },
    /// Drop a registered column: the catalog writes a deletion tombstone, the
    /// column disappears from rankings immediately, and its blob bytes are
    /// reclaimed by the next compaction.  Read-only (format-v1) catalogs answer
    /// `incompatible`.
    DropColumn {
        /// Table name of the column to drop.
        table: String,
        /// Column name of the column to drop.
        column: String,
    },
    /// Read one registered column's sketch blob, verbatim and verified, for
    /// node-to-node transfer (rebalance).  Idempotent and read-only.
    ExportColumn {
        /// Table name of the column to export.
        table: String,
        /// Column name of the column to export.
        column: String,
    },
    /// Register a sketch blob previously produced by `export-column`.  The blob
    /// bytes are stored verbatim, so the imported column is byte-identical to
    /// the exported one.  Importing an already-registered key is a no-op (the
    /// report lists the column under `skipped`), making the op safe to retry.
    ImportColumn {
        /// The sketch blob to register.
        sketch: WireSketch,
    },
}

impl RequestBody {
    /// The `"op"` token for this body.
    #[must_use]
    pub fn op(&self) -> &'static str {
        match self {
            RequestBody::Info { .. } => "info",
            RequestBody::Query { .. } => "query",
            RequestBody::BatchQuery { .. } => "batch-query",
            RequestBody::Rank { .. } => "rank",
            RequestBody::Ingest { .. } => "ingest",
            RequestBody::IngestBegin { .. } => "ingest-begin",
            RequestBody::IngestAnnounce { .. } => "ingest-announce",
            RequestBody::IngestSubmit { .. } => "ingest-submit",
            RequestBody::IngestFinish { .. } => "ingest-finish",
            RequestBody::DropColumn { .. } => "drop-column",
            RequestBody::ExportColumn { .. } => "export-column",
            RequestBody::ImportColumn { .. } => "import-column",
        }
    }
}

/// One request line: a client-chosen `id` (echoed verbatim in the response, any
/// JSON value) plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client correlation id; `Json::Null` when omitted.
    pub id: Json,
    /// The operation.
    pub body: RequestBody,
}

/// A decode failure carrying whatever `id` could be recovered, so the server can
/// still correlate its error response.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestDecodeError {
    /// The request's `id` if the line parsed far enough to find one, else null.
    pub id: Json,
    /// The failure.
    pub error: WireError,
}

impl Request {
    /// Encodes the request as one line of JSON (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut members = vec![("v".to_string(), Json::u64(PROTOCOL_VERSION))];
        if !self.id.is_null() {
            members.push(("id".to_string(), self.id.clone()));
        }
        members.push(("op".to_string(), Json::str(self.body.op())));
        match &self.body {
            RequestBody::Info { server } => {
                if *server {
                    members.push(("server".to_string(), Json::Bool(true)));
                }
            }
            RequestBody::Query {
                mode,
                k,
                min_join_size,
                cascade,
                query,
            } => {
                push_ranking_knobs(&mut members, *mode, *k, *min_join_size, *cascade);
                members.push(("query".to_string(), query.to_json()));
            }
            RequestBody::BatchQuery {
                mode,
                k,
                min_join_size,
                cascade,
                queries,
            } => {
                push_ranking_knobs(&mut members, *mode, *k, *min_join_size, *cascade);
                members.push((
                    "queries".to_string(),
                    Json::Arr(queries.iter().map(WireQuery::to_json).collect()),
                ));
            }
            RequestBody::Rank {
                mode,
                k,
                min_join_size,
                cascade,
                queries,
            } => {
                push_ranking_knobs(&mut members, *mode, *k, *min_join_size, *cascade);
                members.push((
                    "queries".to_string(),
                    Json::Arr(queries.iter().map(WireRankQuery::to_json).collect()),
                ));
            }
            RequestBody::Ingest { table, partitions } => {
                members.push(("table".to_string(), table.to_json()));
                if let Some(partitions) = partitions {
                    members.push(("partitions".to_string(), Json::u64(*partitions)));
                }
            }
            RequestBody::IngestBegin { table } => {
                members.push(("table".to_string(), Json::str(table)));
            }
            RequestBody::IngestAnnounce { session, shard }
            | RequestBody::IngestSubmit { session, shard } => {
                members.push(("session".to_string(), Json::u64(*session)));
                members.push(("shard".to_string(), shard.to_json()));
            }
            RequestBody::IngestFinish { session } => {
                members.push(("session".to_string(), Json::u64(*session)));
            }
            RequestBody::DropColumn { table, column }
            | RequestBody::ExportColumn { table, column } => {
                members.push(("table".to_string(), Json::str(table)));
                members.push(("column".to_string(), Json::str(column)));
            }
            RequestBody::ImportColumn { sketch } => {
                members.push(("sketch".to_string(), sketch.to_json()));
            }
        }
        Json::Obj(members).to_string()
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns [`RequestDecodeError`] with the best-effort recovered `id` and a
    /// [`WireError`] whose code is `bad_request`, `unsupported_version`, or
    /// `unknown_op`.
    pub fn decode(line: &str) -> Result<Request, RequestDecodeError> {
        let doc = Json::parse(line).map_err(|e| RequestDecodeError {
            id: Json::Null,
            error: WireError::bad_request(e.to_string()),
        })?;
        Request::from_json(&doc)
    }

    /// Decodes a request from an already-parsed JSON document — the shared tail of
    /// [`decode`](Self::decode) and the HTTP binding (which parses the body itself
    /// so it can inject the route's `op`; see `http::decode_request`).
    ///
    /// # Errors
    ///
    /// Same contract as [`decode`](Self::decode).
    pub fn from_json(doc: &Json) -> Result<Request, RequestDecodeError> {
        let id = doc.get("id").cloned().unwrap_or(Json::Null);
        let fail = |error: WireError| RequestDecodeError {
            id: id.clone(),
            error,
        };
        let version = doc
            .get("v")
            .and_then(Json::as_u64)
            .ok_or_else(|| fail(WireError::bad_request("missing protocol version field `v`")))?;
        if version != PROTOCOL_VERSION {
            return Err(fail(WireError {
                code: ErrorCode::UnsupportedVersion,
                message: format!(
                    "protocol version {version} is not supported (this server speaks {PROTOCOL_VERSION})"
                ),
            }));
        }
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| fail(WireError::bad_request("missing operation field `op`")))?;
        let body = match op {
            "info" => RequestBody::Info {
                server: doc.get("server").and_then(Json::as_bool).unwrap_or(false),
            },
            "query" => RequestBody::Query {
                mode: decode_mode(doc).map_err(&fail)?,
                k: decode_k(doc).map_err(&fail)?,
                min_join_size: decode_min_join_size(doc).map_err(&fail)?,
                cascade: decode_cascade(doc).map_err(&fail)?,
                query: WireQuery::from_json(
                    doc.get("query")
                        .ok_or_else(|| fail(WireError::bad_request("missing `query` object")))?,
                )
                .map_err(&fail)?,
            },
            "batch-query" => RequestBody::BatchQuery {
                // Fields evaluate in written order: `queries` is checked first.
                queries: decode_queries(doc, WireQuery::from_json).map_err(&fail)?,
                mode: decode_mode(doc).map_err(&fail)?,
                k: decode_k(doc).map_err(&fail)?,
                min_join_size: decode_min_join_size(doc).map_err(&fail)?,
                cascade: decode_cascade(doc).map_err(&fail)?,
            },
            "rank" => RequestBody::Rank {
                // Fields evaluate in written order: `queries` is checked first.
                queries: decode_queries(doc, WireRankQuery::from_json).map_err(&fail)?,
                mode: decode_mode(doc).map_err(&fail)?,
                k: decode_k(doc).map_err(&fail)?,
                min_join_size: decode_min_join_size(doc).map_err(&fail)?,
                cascade: decode_cascade(doc).map_err(&fail)?,
            },
            "ingest" => RequestBody::Ingest {
                table: WireTable::from_json(
                    doc.get("table")
                        .ok_or_else(|| fail(WireError::bad_request("missing `table` object")))?,
                )
                .map_err(&fail)?,
                partitions: match doc.get("partitions") {
                    None => None,
                    Some(p) => Some(p.as_u64().ok_or_else(|| {
                        fail(WireError::bad_request("`partitions` must be an integer"))
                    })?),
                },
            },
            "ingest-begin" => RequestBody::IngestBegin {
                table: require_str(doc, "table").map_err(&fail)?,
            },
            "ingest-announce" | "ingest-submit" => {
                let session = doc
                    .get("session")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| fail(WireError::bad_request("missing integer `session`")))?;
                let shard = WireTable::from_json(
                    doc.get("shard")
                        .ok_or_else(|| fail(WireError::bad_request("missing `shard` object")))?,
                )
                .map_err(&fail)?;
                if op == "ingest-announce" {
                    RequestBody::IngestAnnounce { session, shard }
                } else {
                    RequestBody::IngestSubmit { session, shard }
                }
            }
            "ingest-finish" => RequestBody::IngestFinish {
                session: doc
                    .get("session")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| fail(WireError::bad_request("missing integer `session`")))?,
            },
            "drop-column" => RequestBody::DropColumn {
                table: require_str(doc, "table").map_err(&fail)?,
                column: require_str(doc, "column").map_err(&fail)?,
            },
            "export-column" => RequestBody::ExportColumn {
                table: require_str(doc, "table").map_err(&fail)?,
                column: require_str(doc, "column").map_err(&fail)?,
            },
            "import-column" => RequestBody::ImportColumn {
                sketch: WireSketch::from_json(
                    doc.get("sketch")
                        .ok_or_else(|| fail(WireError::bad_request("missing `sketch` object")))?,
                )
                .map_err(&fail)?,
            },
            other => {
                return Err(fail(WireError {
                    code: ErrorCode::UnknownOp,
                    message: format!("unknown op `{other}`"),
                }))
            }
        };
        Ok(Request { id, body })
    }
}

/// The members `query`, `batch-query` and `rank` share, in wire order.
fn push_ranking_knobs(
    members: &mut Vec<(String, Json)>,
    mode: Mode,
    k: u64,
    min_join_size: f64,
    cascade: bool,
) {
    members.push(("mode".to_string(), Json::str(mode.as_str())));
    members.push(("k".to_string(), Json::u64(k)));
    if mode == Mode::Related {
        members.push(("min_join_size".to_string(), Json::f64(min_join_size)));
    }
    if cascade {
        members.push(("cascade".to_string(), Json::Bool(true)));
    }
}

fn decode_k(doc: &Json) -> Result<u64, WireError> {
    doc.get("k").map_or(Ok(DEFAULT_TOP_K), |k| {
        k.as_u64()
            .ok_or_else(|| WireError::bad_request("`k` must be an integer"))
    })
}

fn decode_queries<T>(
    doc: &Json,
    decode: impl Fn(&Json) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    doc.get("queries")
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError::bad_request("missing `queries` array"))?
        .iter()
        .map(decode)
        .collect()
}

fn decode_mode(doc: &Json) -> Result<Mode, WireError> {
    match doc.get("mode") {
        None => Ok(Mode::default()),
        Some(m) => m
            .as_str()
            .and_then(Mode::parse)
            .ok_or_else(|| WireError::bad_request("`mode` must be \"joinable\" or \"related\"")),
    }
}

fn decode_cascade(doc: &Json) -> Result<bool, WireError> {
    match doc.get("cascade") {
        None => Ok(false),
        Some(c) => c
            .as_bool()
            .ok_or_else(|| WireError::bad_request("`cascade` must be a boolean")),
    }
}

fn decode_min_join_size(doc: &Json) -> Result<f64, WireError> {
    match doc.get("min_join_size") {
        None => Ok(0.0),
        Some(m) => m
            .as_f64()
            .ok_or_else(|| WireError::bad_request("`min_join_size` must be a number")),
    }
}

/// One ranked result of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRanked {
    /// The candidate's table name.
    pub table: String,
    /// The candidate's column name.
    pub column: String,
    /// The ranking score (join size or |correlation| depending on the mode).
    pub score: f64,
    /// Estimated join size with the query column.
    pub join_size: f64,
    /// Estimated post-join correlation with the query column.
    pub correlation: f64,
}

impl From<&RankedColumn> for WireRanked {
    fn from(r: &RankedColumn) -> Self {
        WireRanked {
            table: r.id.table.clone(),
            column: r.id.column.clone(),
            score: r.score,
            join_size: r.estimated_join_size,
            correlation: r.estimated_correlation,
        }
    }
}

impl WireRanked {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("table".to_string(), Json::str(&self.table)),
            ("column".to_string(), Json::str(&self.column)),
            ("score".to_string(), Json::f64(self.score)),
            ("join_size".to_string(), Json::f64(self.join_size)),
            ("correlation".to_string(), Json::f64(self.correlation)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        Ok(WireRanked {
            table: require_str(value, "table")?,
            column: require_str(value, "column")?,
            score: require_f64(value, "score")?,
            join_size: require_f64(value, "join_size")?,
            correlation: require_f64(value, "correlation")?,
        })
    }
}

/// An advisory note attached to a ranking response: the answer is still correct
/// and complete, but the server took a different path than the request asked
/// for (e.g. a `cascade` query against a catalog with no companion sketches is
/// answered by the flat scan).  Notes are never errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireNote {
    /// Stable machine-readable note code (e.g. `"cascade_fallback"`).
    pub code: String,
    /// Human-readable explanation.
    pub message: String,
}

impl WireNote {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("code".to_string(), Json::str(&self.code)),
            ("message".to_string(), Json::str(&self.message)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        Ok(WireNote {
            code: require_str(value, "code")?,
            message: require_str(value, "message")?,
        })
    }
}

/// One registered column entry in an [`ResponseBody::Info`] response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoColumn {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Row count of the source column.
    pub rows: u64,
}

/// Deterministic service statistics in an `info` response — `QueryService::stats()`
/// on the wire.  Every field is a pure function of the catalog's ingest/compaction
/// history, so twin servers that processed the same request sequence answer with
/// byte-identical `stats` (the HTTP conformance suite relies on this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireServiceStats {
    /// Registered column count.
    pub columns: u64,
    /// How many registered sketches are resident in memory.
    pub hydrated: u64,
    /// Total bytes of sketch blobs on disk (manifest blob lengths).
    pub bytes_on_disk: u64,
    /// The most recent compaction's report, if one ran in this process.
    pub last_compaction: Option<WireCompaction>,
}

/// The outcome of the service's most recent compaction pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCompaction {
    /// How many orphaned blob files the pass removed.
    pub removed_files: u64,
    /// How many live columns the rewritten manifest holds.
    pub live_columns: u64,
}

/// Live server observability in an `info` response (requires `"server": true` in
/// the request).  Latency quantiles come from the server's lock-free log-bucketed
/// histograms, so they are upper bounds of power-of-two nanosecond buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireServerStats {
    /// Currently open client connections.
    pub connections_open: u64,
    /// Connections refused because the configured connection cap was reached.
    pub connections_rejected: u64,
    /// Requests currently queued for a worker.
    pub queue_depth: u64,
    /// Requests answered `overloaded` because the queue depth cap was reached.
    pub queue_rejected: u64,
    /// Requests whose execution panicked and was answered `internal`; absent
    /// (read as 0) in transcripts of older servers.
    pub panics: u64,
    /// Per-op counters and latency quantiles, in the server's stable op order;
    /// ops that have never been called are omitted.
    pub ops: Vec<WireOpStats>,
}

/// One op's counters in [`WireServerStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireOpStats {
    /// The op label (an `"op"` token, or `"invalid"` for undecodable requests).
    pub op: String,
    /// Requests handled.
    pub count: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Median handling latency, microseconds (bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile handling latency, microseconds (bucket upper bound).
    pub p99_us: u64,
}

/// Cluster routing observability in an `info` response — present only when the
/// answering process is a router (`ipsketch route`), never a single catalog
/// node.  See `docs/PROTOCOL.md`, "Cluster routing".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireClusterStats {
    /// How many nodes each `(table, column)` key is written to.
    pub replicas: u64,
    /// Client requests the router has handled.
    pub requests: u64,
    /// Node requests the router has sent: one per node a client request went
    /// to, however many attempts it took.
    pub fanouts: u64,
    /// Reads answered complete despite a node connect/IO failure — the failed
    /// node's columns were covered by replicas on the surviving nodes.
    pub failovers: u64,
    /// The routed nodes, in the router's configured order.
    pub nodes: Vec<WireNodeStats>,
}

/// One catalog node's status in [`WireClusterStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireNodeStats {
    /// The node's address, as configured on the router.
    pub addr: String,
    /// The transport the router speaks to this node: always `"tcp"` (the
    /// line-delimited framing).  The member stays so `info` answers keep
    /// their shape.
    pub transport: String,
    /// Whether the node answered the router's most recent exchange with it.
    pub healthy: bool,
    /// Connect/IO errors the router has observed against this node.
    pub errors: u64,
    /// Times the router demoted this node (consecutive failures reached the
    /// configured threshold); demoted nodes are skipped by read fan-out until a
    /// probe restores them.
    pub demotions: u64,
    /// Times a background probe restored this node to `healthy`.
    pub promotions: u64,
    /// Background health probes attempted against this node while demoted.
    pub probes: u64,
}

impl WireClusterStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("replicas".to_string(), Json::u64(self.replicas)),
            ("requests".to_string(), Json::u64(self.requests)),
            ("fanouts".to_string(), Json::u64(self.fanouts)),
            ("failovers".to_string(), Json::u64(self.failovers)),
            (
                "nodes".to_string(),
                Json::Arr(
                    self.nodes
                        .iter()
                        .map(|n| {
                            Json::Obj(vec![
                                ("addr".to_string(), Json::str(&n.addr)),
                                ("transport".to_string(), Json::str(&n.transport)),
                                ("healthy".to_string(), Json::Bool(n.healthy)),
                                ("errors".to_string(), Json::u64(n.errors)),
                                ("demotions".to_string(), Json::u64(n.demotions)),
                                ("promotions".to_string(), Json::u64(n.promotions)),
                                ("probes".to_string(), Json::u64(n.probes)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        let nodes_json = value
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or_else(|| WireError::bad_request("cluster stats need a `nodes` array"))?;
        let mut nodes = Vec::with_capacity(nodes_json.len());
        for n in nodes_json {
            nodes.push(WireNodeStats {
                addr: require_str(n, "addr")?,
                transport: require_str(n, "transport")?,
                healthy: n
                    .get("healthy")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| WireError::bad_request("cluster node needs `healthy`"))?,
                errors: require_u64(n, "errors")?,
                // Optional on decode for compatibility with pre-health-lifecycle
                // transcripts; this server always sends them.
                demotions: n.get("demotions").and_then(Json::as_u64).unwrap_or(0),
                promotions: n.get("promotions").and_then(Json::as_u64).unwrap_or(0),
                probes: n.get("probes").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        Ok(WireClusterStats {
            replicas: require_u64(value, "replicas")?,
            requests: require_u64(value, "requests")?,
            fanouts: require_u64(value, "fanouts")?,
            failovers: require_u64(value, "failovers")?,
            nodes,
        })
    }
}

impl WireServiceStats {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("columns".to_string(), Json::u64(self.columns)),
            ("hydrated".to_string(), Json::u64(self.hydrated)),
            ("bytes_on_disk".to_string(), Json::u64(self.bytes_on_disk)),
        ];
        if let Some(c) = &self.last_compaction {
            members.push((
                "last_compaction".to_string(),
                Json::Obj(vec![
                    ("removed_files".to_string(), Json::u64(c.removed_files)),
                    ("live_columns".to_string(), Json::u64(c.live_columns)),
                ]),
            ));
        }
        Json::Obj(members)
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        Ok(WireServiceStats {
            columns: require_u64(value, "columns")?,
            hydrated: require_u64(value, "hydrated")?,
            bytes_on_disk: require_u64(value, "bytes_on_disk")?,
            last_compaction: match value.get("last_compaction") {
                None => None,
                Some(c) => Some(WireCompaction {
                    removed_files: require_u64(c, "removed_files")?,
                    live_columns: require_u64(c, "live_columns")?,
                }),
            },
        })
    }
}

impl WireServerStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "connections".to_string(),
                Json::Obj(vec![
                    ("open".to_string(), Json::u64(self.connections_open)),
                    ("rejected".to_string(), Json::u64(self.connections_rejected)),
                ]),
            ),
            (
                "queue".to_string(),
                Json::Obj(vec![
                    ("depth".to_string(), Json::u64(self.queue_depth)),
                    ("rejected".to_string(), Json::u64(self.queue_rejected)),
                ]),
            ),
            ("panics".to_string(), Json::u64(self.panics)),
            (
                "ops".to_string(),
                Json::Arr(
                    self.ops
                        .iter()
                        .map(|o| {
                            Json::Obj(vec![
                                ("op".to_string(), Json::str(&o.op)),
                                ("count".to_string(), Json::u64(o.count)),
                                ("errors".to_string(), Json::u64(o.errors)),
                                ("p50_us".to_string(), Json::u64(o.p50_us)),
                                ("p99_us".to_string(), Json::u64(o.p99_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        let connections = value
            .get("connections")
            .ok_or_else(|| WireError::bad_request("server stats need `connections`"))?;
        let queue = value
            .get("queue")
            .ok_or_else(|| WireError::bad_request("server stats need `queue`"))?;
        let ops_json = value
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or_else(|| WireError::bad_request("server stats need an `ops` array"))?;
        let mut ops = Vec::with_capacity(ops_json.len());
        for o in ops_json {
            ops.push(WireOpStats {
                op: require_str(o, "op")?,
                count: require_u64(o, "count")?,
                errors: require_u64(o, "errors")?,
                p50_us: require_u64(o, "p50_us")?,
                p99_us: require_u64(o, "p99_us")?,
            });
        }
        Ok(WireServerStats {
            connections_open: require_u64(connections, "open")?,
            connections_rejected: require_u64(connections, "rejected")?,
            queue_depth: require_u64(queue, "depth")?,
            queue_rejected: require_u64(queue, "rejected")?,
            panics: value.get("panics").and_then(Json::as_u64).unwrap_or(0),
            ops,
        })
    }
}

/// Payload of a successful response.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Answer to `info`.
    Info {
        /// Human-readable sketcher configuration (the `SketcherSpec` display form).
        sketcher: String,
        /// The spec fingerprint, 16 lowercase hex digits.
        fingerprint: String,
        /// The sketch method label (`SketchMethod::label`).
        method: String,
        /// The catalog's on-disk format version label (e.g. `"v2"`); `"v1"`
        /// catalogs serve read-only until migrated.  Always sent by this server;
        /// optional on decode for compatibility with older transcripts.
        format: Option<String>,
        /// `SketcherSpec::encode` of the catalog's primary spec (hex on the
        /// wire): what a router needs to sketch query columns the way its nodes
        /// would.  Always sent by this server; optional on decode for
        /// compatibility with older transcripts.
        spec: Option<Vec<u8>>,
        /// Every registered column.
        columns: Vec<InfoColumn>,
        /// Deterministic service statistics (always sent by this server; optional
        /// on decode for compatibility with older transcripts).
        stats: Option<WireServiceStats>,
        /// Live server observability; present only when the request set
        /// `"server": true`.
        server: Option<WireServerStats>,
        /// Cluster routing observability; present only when the answering
        /// process is a router fronting multiple catalog nodes.
        cluster: Option<Box<WireClusterStats>>,
    },
    /// Answer to `query`: the ranking for the one query column.
    Ranking {
        /// The ranked results, best first.
        ranking: Vec<WireRanked>,
        /// Advisory note when the server answered by a different path than the
        /// request asked for (e.g. cascade fallback); absent otherwise.
        note: Option<WireNote>,
    },
    /// Answer to `batch-query`: ranking `i` answers query `i`.
    Rankings {
        /// The rankings, one per query, each best first.
        rankings: Vec<Vec<WireRanked>>,
        /// Advisory note covering the whole batch; see
        /// [`ResponseBody::Ranking`].
        note: Option<WireNote>,
    },
    /// Answer to `ingest` and `ingest-finish`: what was registered/skipped.
    Report {
        /// `(table, column)` keys registered by this operation.
        registered: Vec<(String, String)>,
        /// Columns skipped for carrying no value mass.
        skipped: Vec<String>,
    },
    /// Answer to `ingest-begin` / `ingest-announce` / `ingest-submit`: the session
    /// the operation touched.
    Session(u64),
    /// Answer to `drop-column`: the key that was tombstoned.
    Dropped {
        /// Table name of the dropped column.
        table: String,
        /// Column name of the dropped column.
        column: String,
    },
    /// Answer to `export-column`: the column's verified sketch blob.
    Sketch(WireSketch),
}

/// One response line: the request's echoed `id` plus either a result or an error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's `id`, echoed verbatim.
    pub id: Json,
    /// The outcome.
    pub result: Result<ResponseBody, WireError>,
}

impl Response {
    /// Encodes the response as one line of JSON (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut members = vec![
            ("v".to_string(), Json::u64(PROTOCOL_VERSION)),
            ("id".to_string(), self.id.clone()),
        ];
        match &self.result {
            Ok(body) => {
                members.push(("ok".to_string(), Json::Bool(true)));
                members.push(("result".to_string(), body.to_json()));
            }
            Err(error) => {
                members.push(("ok".to_string(), Json::Bool(false)));
                members.push((
                    "error".to_string(),
                    Json::Obj(vec![
                        ("code".to_string(), Json::str(error.code.as_str())),
                        ("message".to_string(), Json::str(&error.message)),
                    ]),
                ));
            }
        }
        Json::Obj(members).to_string()
    }

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns a `bad_request` [`WireError`] when the line is not a well-formed
    /// response of this protocol version.
    pub fn decode(line: &str) -> Result<Response, WireError> {
        let doc = Json::parse(line).map_err(|e| WireError::bad_request(e.to_string()))?;
        let version = doc
            .get("v")
            .and_then(Json::as_u64)
            .ok_or_else(|| WireError::bad_request("missing protocol version field `v`"))?;
        if version != PROTOCOL_VERSION {
            return Err(WireError {
                code: ErrorCode::UnsupportedVersion,
                message: format!("response carries protocol version {version}"),
            });
        }
        let id = doc.get("id").cloned().unwrap_or(Json::Null);
        let ok = doc
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| WireError::bad_request("missing boolean `ok`"))?;
        if !ok {
            let error = doc
                .get("error")
                .ok_or_else(|| WireError::bad_request("failure response missing `error`"))?;
            let code = require_str(error, "code")?;
            let code = ErrorCode::parse(&code)
                .ok_or_else(|| WireError::bad_request(format!("unknown error code `{code}`")))?;
            return Ok(Response {
                id,
                result: Err(WireError {
                    code,
                    message: require_str(error, "message")?,
                }),
            });
        }
        let result = doc
            .get("result")
            .ok_or_else(|| WireError::bad_request("success response missing `result`"))?;
        Ok(Response {
            id,
            result: Ok(ResponseBody::from_json(result)?),
        })
    }
}

impl ResponseBody {
    fn to_json(&self) -> Json {
        match self {
            ResponseBody::Info {
                sketcher,
                fingerprint,
                method,
                format,
                spec,
                columns,
                stats,
                server,
                cluster,
            } => {
                let mut info = vec![
                    ("sketcher".to_string(), Json::str(sketcher)),
                    ("fingerprint".to_string(), Json::str(fingerprint)),
                    ("method".to_string(), Json::str(method)),
                ];
                if let Some(format) = format {
                    info.push(("format".to_string(), Json::str(format)));
                }
                if let Some(spec) = spec {
                    info.push(("spec".to_string(), Json::str(encode_hex(spec))));
                }
                info.push((
                    "columns".to_string(),
                    Json::Arr(
                        columns
                            .iter()
                            .map(|c| {
                                Json::Obj(vec![
                                    ("table".to_string(), Json::str(&c.table)),
                                    ("column".to_string(), Json::str(&c.column)),
                                    ("rows".to_string(), Json::u64(c.rows)),
                                ])
                            })
                            .collect(),
                    ),
                ));
                if let Some(stats) = stats {
                    info.push(("stats".to_string(), stats.to_json()));
                }
                if let Some(server) = server {
                    info.push(("server".to_string(), server.to_json()));
                }
                if let Some(cluster) = cluster {
                    info.push(("cluster".to_string(), cluster.to_json()));
                }
                Json::Obj(vec![("info".to_string(), Json::Obj(info))])
            }
            ResponseBody::Ranking { ranking, note } => {
                let mut members = vec![(
                    "ranking".to_string(),
                    Json::Arr(ranking.iter().map(WireRanked::to_json).collect()),
                )];
                if let Some(note) = note {
                    members.push(("note".to_string(), note.to_json()));
                }
                Json::Obj(members)
            }
            ResponseBody::Rankings { rankings, note } => {
                let mut members = vec![(
                    "rankings".to_string(),
                    Json::Arr(
                        rankings
                            .iter()
                            .map(|r| Json::Arr(r.iter().map(WireRanked::to_json).collect()))
                            .collect(),
                    ),
                )];
                if let Some(note) = note {
                    members.push(("note".to_string(), note.to_json()));
                }
                Json::Obj(members)
            }
            ResponseBody::Report {
                registered,
                skipped,
            } => Json::Obj(vec![
                (
                    "registered".to_string(),
                    Json::Arr(
                        registered
                            .iter()
                            .map(|(t, c)| {
                                Json::Obj(vec![
                                    ("table".to_string(), Json::str(t)),
                                    ("column".to_string(), Json::str(c)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "skipped".to_string(),
                    Json::Arr(skipped.iter().map(Json::str).collect()),
                ),
            ]),
            ResponseBody::Session(session) => {
                Json::Obj(vec![("session".to_string(), Json::u64(*session))])
            }
            ResponseBody::Dropped { table, column } => Json::Obj(vec![(
                "dropped".to_string(),
                Json::Obj(vec![
                    ("table".to_string(), Json::str(table)),
                    ("column".to_string(), Json::str(column)),
                ]),
            )]),
            ResponseBody::Sketch(sketch) => {
                Json::Obj(vec![("sketch".to_string(), sketch.to_json())])
            }
        }
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        if let Some(info) = value.get("info") {
            let columns_json = info
                .get("columns")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::bad_request("info needs a `columns` array"))?;
            let mut columns = Vec::with_capacity(columns_json.len());
            for c in columns_json {
                columns.push(InfoColumn {
                    table: require_str(c, "table")?,
                    column: require_str(c, "column")?,
                    rows: c
                        .get("rows")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| WireError::bad_request("info column needs `rows`"))?,
                });
            }
            return Ok(ResponseBody::Info {
                sketcher: require_str(info, "sketcher")?,
                fingerprint: require_str(info, "fingerprint")?,
                method: require_str(info, "method")?,
                format: info
                    .get("format")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                spec: match info.get("spec") {
                    None => None,
                    Some(_) => Some(decode_hex(&require_str(info, "spec")?, "spec")?),
                },
                columns,
                stats: match info.get("stats") {
                    None => None,
                    Some(s) => Some(WireServiceStats::from_json(s)?),
                },
                server: match info.get("server") {
                    None => None,
                    Some(s) => Some(WireServerStats::from_json(s)?),
                },
                cluster: match info.get("cluster") {
                    None => None,
                    Some(c) => Some(Box::new(WireClusterStats::from_json(c)?)),
                },
            });
        }
        if let Some(ranking) = value.get("ranking").and_then(Json::as_arr) {
            return Ok(ResponseBody::Ranking {
                ranking: decode_ranking(ranking)?,
                note: decode_note(value)?,
            });
        }
        if let Some(rankings) = value.get("rankings").and_then(Json::as_arr) {
            let mut out = Vec::with_capacity(rankings.len());
            for ranking in rankings {
                let items = ranking
                    .as_arr()
                    .ok_or_else(|| WireError::bad_request("`rankings` must hold arrays"))?;
                out.push(decode_ranking(items)?);
            }
            return Ok(ResponseBody::Rankings {
                rankings: out,
                note: decode_note(value)?,
            });
        }
        if let Some(registered) = value.get("registered").and_then(Json::as_arr) {
            let mut pairs = Vec::with_capacity(registered.len());
            for entry in registered {
                pairs.push((require_str(entry, "table")?, require_str(entry, "column")?));
            }
            let skipped_json = value
                .get("skipped")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::bad_request("report needs a `skipped` array"))?;
            let mut skipped = Vec::with_capacity(skipped_json.len());
            for s in skipped_json {
                skipped.push(
                    s.as_str()
                        .ok_or_else(|| WireError::bad_request("`skipped` must hold strings"))?
                        .to_string(),
                );
            }
            return Ok(ResponseBody::Report {
                registered: pairs,
                skipped,
            });
        }
        if let Some(session) = value.get("session").and_then(Json::as_u64) {
            return Ok(ResponseBody::Session(session));
        }
        if let Some(dropped) = value.get("dropped") {
            return Ok(ResponseBody::Dropped {
                table: require_str(dropped, "table")?,
                column: require_str(dropped, "column")?,
            });
        }
        if let Some(sketch) = value.get("sketch") {
            return Ok(ResponseBody::Sketch(WireSketch::from_json(sketch)?));
        }
        Err(WireError::bad_request(
            "unrecognized result payload (expected info/ranking/rankings/registered/session/dropped/sketch)",
        ))
    }
}

fn decode_ranking(items: &[Json]) -> Result<Vec<WireRanked>, WireError> {
    items.iter().map(WireRanked::from_json).collect()
}

fn decode_note(value: &Json) -> Result<Option<WireNote>, WireError> {
    match value.get("note") {
        None => Ok(None),
        Some(note) => Ok(Some(WireNote::from_json(note)?)),
    }
}

fn require_str(value: &Json, key: &str) -> Result<String, WireError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| WireError::bad_request(format!("missing string field `{key}`")))
}

fn require_u64(value: &Json, key: &str) -> Result<u64, WireError> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError::bad_request(format!("missing integer field `{key}`")))
}

fn require_f64(value: &Json, key: &str) -> Result<f64, WireError> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| WireError::bad_request(format!("missing number field `{key}`")))
}

fn require_u64_array(value: &Json, key: &str) -> Result<Vec<u64>, WireError> {
    let items = value
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError::bad_request(format!("missing array field `{key}`")))?;
    items
        .iter()
        .map(|item| {
            item.as_u64().ok_or_else(|| {
                WireError::bad_request(format!(
                    "`{key}` must hold non-negative JSON integers (64-bit join keys)"
                ))
            })
        })
        .collect()
}

fn require_f64_array(value: &Json, key: &str) -> Result<Vec<f64>, WireError> {
    let items = value
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError::bad_request(format!("missing array field `{key}`")))?;
    items
        .iter()
        .map(|item| {
            item.as_f64()
                .ok_or_else(|| WireError::bad_request(format!("`{key}` must hold numbers")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_core::method::{AnySketch, AnySketcher, SketchMethod};
    use proptest::prelude::*;

    fn sample_query() -> WireQuery {
        WireQuery {
            table: "taxi".to_string(),
            column: "rides".to_string(),
            keys: vec![1, 2, u64::MAX],
            values: vec![0.5, -1.25, 3.0],
        }
    }

    fn sample_table() -> WireTable {
        WireTable {
            name: "weather".to_string(),
            keys: vec![10, 11],
            columns: vec![
                WireColumn {
                    name: "precip".to_string(),
                    values: vec![1.0, 2.5],
                },
                WireColumn {
                    name: "wind".to_string(),
                    values: vec![0.0, -3.5],
                },
            ],
        }
    }

    #[test]
    fn every_request_round_trips() {
        let bodies = vec![
            RequestBody::Info { server: false },
            RequestBody::Info { server: true },
            RequestBody::Query {
                mode: Mode::Related,
                k: 5,
                min_join_size: 42.5,
                cascade: false,
                query: sample_query(),
            },
            RequestBody::Query {
                mode: Mode::Joinable,
                k: 5,
                min_join_size: 0.0,
                cascade: true,
                query: sample_query(),
            },
            RequestBody::BatchQuery {
                mode: Mode::Joinable,
                k: 3,
                min_join_size: 0.0,
                cascade: false,
                queries: vec![sample_query(), sample_query()],
            },
            RequestBody::BatchQuery {
                mode: Mode::Joinable,
                k: 3,
                min_join_size: 0.0,
                cascade: true,
                queries: vec![sample_query()],
            },
            RequestBody::Ingest {
                table: sample_table(),
                partitions: Some(4),
            },
            RequestBody::Ingest {
                table: sample_table(),
                partitions: None,
            },
            RequestBody::IngestBegin {
                table: "weather".to_string(),
            },
            RequestBody::IngestAnnounce {
                session: 9,
                shard: sample_table(),
            },
            RequestBody::IngestSubmit {
                session: 9,
                shard: sample_table(),
            },
            RequestBody::IngestFinish { session: 9 },
            RequestBody::DropColumn {
                table: "weather".to_string(),
                column: "precip".to_string(),
            },
            RequestBody::ExportColumn {
                table: "weather".to_string(),
                column: "precip".to_string(),
            },
            RequestBody::ImportColumn {
                sketch: WireSketch {
                    table: "weather".to_string(),
                    column: "precip".to_string(),
                    rows: 730,
                    bytes: vec![0x00, 0x1f, 0xab, 0xff],
                },
            },
        ];
        for body in bodies {
            let request = Request {
                id: Json::u64(77),
                body,
            };
            let line = request.encode();
            let decoded = Request::decode(&line).unwrap_or_else(|e| {
                panic!("round trip of `{line}` failed: {}", e.error);
            });
            assert_eq!(decoded, request, "{line}");
        }
    }

    #[test]
    fn every_response_round_trips() {
        let ranked = WireRanked {
            table: "weather".to_string(),
            column: "precip".to_string(),
            score: 123.456,
            join_size: 123.456,
            correlation: -0.75,
        };
        let bodies = vec![
            ResponseBody::Info {
                sketcher: "WMH(m=64, L=16777216, seed=7)".to_string(),
                fingerprint: "00ff00ff00ff00ff".to_string(),
                method: "WMH".to_string(),
                format: None,
                spec: None,
                columns: vec![InfoColumn {
                    table: "weather".to_string(),
                    column: "precip".to_string(),
                    rows: 730,
                }],
                stats: None,
                server: None,
                cluster: None,
            },
            ResponseBody::Info {
                sketcher: "WMH(m=64, L=16777216, seed=7)".to_string(),
                fingerprint: "00ff00ff00ff00ff".to_string(),
                method: "WMH".to_string(),
                format: Some("v2".to_string()),
                spec: Some(vec![0x02, 0x05, 0xff]),
                columns: vec![],
                stats: Some(WireServiceStats {
                    columns: 3,
                    hydrated: 2,
                    bytes_on_disk: 4096,
                    last_compaction: Some(WireCompaction {
                        removed_files: 1,
                        live_columns: 3,
                    }),
                }),
                server: Some(WireServerStats {
                    connections_open: 4,
                    connections_rejected: 1,
                    queue_depth: 0,
                    queue_rejected: 7,
                    panics: 1,
                    ops: vec![WireOpStats {
                        op: "query".to_string(),
                        count: 100,
                        errors: 2,
                        p50_us: 512,
                        p99_us: 4096,
                    }],
                }),
                cluster: Some(Box::new(WireClusterStats {
                    replicas: 2,
                    requests: 41,
                    fanouts: 123,
                    failovers: 1,
                    nodes: vec![
                        WireNodeStats {
                            addr: "127.0.0.1:7001".to_string(),
                            transport: "tcp".to_string(),
                            healthy: true,
                            errors: 0,
                            demotions: 0,
                            promotions: 0,
                            probes: 0,
                        },
                        WireNodeStats {
                            addr: "127.0.0.1:7002".to_string(),
                            transport: "tcp".to_string(),
                            healthy: false,
                            errors: 3,
                            demotions: 2,
                            promotions: 1,
                            probes: 9,
                        },
                    ],
                })),
            },
            ResponseBody::Ranking {
                ranking: vec![ranked.clone()],
                note: None,
            },
            ResponseBody::Ranking {
                ranking: vec![ranked.clone()],
                note: Some(WireNote {
                    code: "cascade_fallback".to_string(),
                    message: "catalog stores no companion sketches".to_string(),
                }),
            },
            ResponseBody::Rankings {
                rankings: vec![vec![ranked.clone()], vec![]],
                note: None,
            },
            ResponseBody::Rankings {
                rankings: vec![vec![ranked.clone()]],
                note: Some(WireNote {
                    code: "cascade_fallback".to_string(),
                    message: "catalog stores no companion sketches".to_string(),
                }),
            },
            ResponseBody::Report {
                registered: vec![("weather".to_string(), "precip".to_string())],
                skipped: vec!["zeros".to_string()],
            },
            ResponseBody::Session(3),
            ResponseBody::Dropped {
                table: "weather".to_string(),
                column: "precip".to_string(),
            },
            ResponseBody::Sketch(WireSketch {
                table: "weather".to_string(),
                column: "precip".to_string(),
                rows: 730,
                bytes: (0..=255).collect(),
            }),
        ];
        for body in bodies {
            let response = Response {
                id: Json::str("abc"),
                result: Ok(body),
            };
            let line = response.encode();
            assert_eq!(
                Response::decode(&line).expect("round trips"),
                response,
                "{line}"
            );
        }
        let failure = Response {
            id: Json::Null,
            result: Err(WireError {
                code: ErrorCode::DuplicateColumn,
                message: "column `weather.precip` is already in the catalog".to_string(),
            }),
        };
        assert_eq!(
            Response::decode(&failure.encode()).expect("round trips"),
            failure
        );
    }

    #[test]
    fn version_and_op_rules_are_enforced() {
        // Missing version.
        let err = Request::decode(r#"{"op":"info"}"#).expect_err("no v");
        assert_eq!(err.error.code, ErrorCode::BadRequest);
        // Wrong version, id still recovered for correlation.
        let err = Request::decode(r#"{"v":2,"id":8,"op":"info"}"#).expect_err("v2");
        assert_eq!(err.error.code, ErrorCode::UnsupportedVersion);
        assert_eq!(err.id.as_u64(), Some(8));
        // Unknown op.
        let err = Request::decode(r#"{"v":1,"op":"frobnicate"}"#).expect_err("op");
        assert_eq!(err.error.code, ErrorCode::UnknownOp);
        // Not JSON at all.
        let err = Request::decode("hello").expect_err("not json");
        assert_eq!(err.error.code, ErrorCode::BadRequest);
        assert!(err.id.is_null());
        // Unknown fields are ignored (forward compatibility).
        let ok = Request::decode(r#"{"v":1,"op":"info","future_field":[1,2,3]}"#).expect("ok");
        assert_eq!(ok.body, RequestBody::Info { server: false });
    }

    #[test]
    fn defaults_apply_when_fields_are_omitted() {
        let line =
            r#"{"v":1,"op":"query","query":{"table":"t","column":"c","keys":[1],"values":[2.0]}}"#;
        match Request::decode(line).expect("decodes").body {
            RequestBody::Query {
                mode,
                k,
                min_join_size,
                cascade,
                ..
            } => {
                assert_eq!(mode, Mode::Joinable);
                assert_eq!(k, DEFAULT_TOP_K);
                assert_eq!(min_join_size, 0.0);
                assert!(!cascade);
            }
            other => panic!("wrong body {other:?}"),
        }
    }

    #[test]
    fn cascade_knob_is_strict_and_encodes_only_when_set() {
        // Omitting `cascade` and `cascade: false` encode identically — replayed
        // pre-cascade transcripts stay byte-stable.
        let flat = Request {
            id: Json::Null,
            body: RequestBody::Query {
                mode: Mode::Joinable,
                k: 3,
                min_join_size: 0.0,
                cascade: false,
                query: sample_query(),
            },
        };
        assert!(!flat.encode().contains("cascade"));
        let cascaded = Request {
            id: Json::Null,
            body: RequestBody::Query {
                mode: Mode::Joinable,
                k: 3,
                min_join_size: 0.0,
                cascade: true,
                query: sample_query(),
            },
        };
        assert!(cascaded.encode().contains(r#""cascade":true"#));
        // Non-boolean `cascade` is rejected, not coerced.
        let err = Request::decode(
            r#"{"v":1,"op":"query","cascade":1,"query":{"table":"t","column":"c","keys":[1],"values":[2.0]}}"#,
        )
        .expect_err("non-bool cascade");
        assert_eq!(err.error.code, ErrorCode::BadRequest);
    }

    #[test]
    fn ranking_notes_encode_only_when_present() {
        let plain = Response {
            id: Json::Null,
            result: Ok(ResponseBody::Ranking {
                ranking: vec![],
                note: None,
            }),
        };
        assert!(!plain.encode().contains("note"));
        let noted = Response {
            id: Json::Null,
            result: Ok(ResponseBody::Ranking {
                ranking: vec![],
                note: Some(WireNote {
                    code: "cascade_fallback".to_string(),
                    message: "flat scan answered".to_string(),
                }),
            }),
        };
        let line = noted.encode();
        assert!(
            line.contains(r#""note":{"code":"cascade_fallback""#),
            "{line}"
        );
        // A note without both members is a malformed response.
        let err = Response::decode(
            r#"{"v":1,"id":null,"ok":true,"result":{"ranking":[],"note":{"code":"x"}}}"#,
        )
        .expect_err("note missing message");
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn tables_enforce_invariants_on_conversion() {
        let ragged = WireTable {
            name: "t".to_string(),
            keys: vec![1, 2],
            columns: vec![WireColumn {
                name: "c".to_string(),
                values: vec![1.0],
            }],
        };
        assert_eq!(
            ragged.to_table().expect_err("ragged").code,
            ErrorCode::BadRequest
        );
        let duplicate_keys = WireQuery {
            table: "t".to_string(),
            column: "c".to_string(),
            keys: vec![1, 1],
            values: vec![1.0, 2.0],
        };
        assert_eq!(
            duplicate_keys.to_table().expect_err("dup keys").code,
            ErrorCode::BadRequest
        );
        // A valid round trip Table → WireTable → Table preserves everything.
        let table = sample_table().to_table().expect("valid");
        assert_eq!(WireTable::from_table(&table), sample_table());
    }

    #[test]
    fn error_codes_have_stable_distinct_tokens() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        let mut tokens: Vec<&str> = ErrorCode::ALL.iter().map(|c| c.as_str()).collect();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), ErrorCode::ALL.len());
        assert_eq!(ErrorCode::parse("made_up"), None);
    }

    #[test]
    fn http_statuses_are_sane_for_every_code() {
        for code in ErrorCode::ALL {
            let status = code.http_status();
            assert!(
                (400..=599).contains(&status),
                "{code} maps to non-error status {status}"
            );
        }
        assert_eq!(ErrorCode::Overloaded.http_status(), 503);
        assert_eq!(ErrorCode::UnknownOp.http_status(), 404);
        assert_eq!(ErrorCode::TooLarge.http_status(), 413);
        assert_eq!(ErrorCode::DeadlineExceeded.http_status(), 504);
    }

    #[test]
    fn sketch_blobs_survive_hex_encoding_and_reject_bad_hex() {
        let blob: Vec<u8> = (0..=255).collect();
        assert_eq!(
            decode_hex(&encode_hex(&blob), "bytes").expect("round trips"),
            blob
        );
        assert_eq!(encode_hex(&[0x00, 0xff, 0x0a]), "00ff0a");
        for (text, member) in [("abc", "bytes"), ("zz", "bytes"), ("0g", "sketch")] {
            let error = decode_hex(text, member).expect_err("not even-length hex");
            assert_eq!(error.code, ErrorCode::BadRequest);
            assert!(
                error.message.contains(&format!("`{member}`")),
                "the error names the decoded member: {}",
                error.message
            );
        }
    }

    /// The hex encoder before the table encoder replaced it: one `format!`
    /// per byte.  The table encoder must match it byte for byte.
    fn encode_hex_reference(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn table_hex_encoder_matches_the_formatting_reference_for_every_byte() {
        for b in 0..=u8::MAX {
            assert_eq!(
                encode_hex(&[b]),
                encode_hex_reference(&[b]),
                "byte {b:#04x}"
            );
        }
        let blob: Vec<u8> = (0..=u8::MAX).rev().chain(0..=u8::MAX).collect();
        assert_eq!(encode_hex(&blob), encode_hex_reference(&blob));
        assert_eq!(
            decode_hex(&encode_hex(&blob), "bytes").expect("round trips"),
            blob
        );
    }

    /// A WMH spec and `sample_query` shipped with its sketch under that spec.
    fn rank_fixture() -> (SketcherSpec, WireRankQuery) {
        let sketcher =
            AnySketcher::for_budget(SketchMethod::WeightedMinHash, 64.0, 7).expect("budget fits");
        let spec = sketcher.spec();
        let query = sample_query();
        let sketched = sketch_queries(
            &JoinEstimator::new(sketcher),
            std::slice::from_ref(&query),
            Mode::Joinable,
            false,
        )
        .expect("the sample query sketches")
        .remove(0);
        (spec, WireRankQuery::new(query, &sketched, spec.format))
    }

    /// Byte offsets of every `f64` in the hash and value arrays of the three
    /// WMH sketches of `rank`'s blob, checked against the decoded sketches.
    fn wmh_payload_offsets(spec: &SketcherSpec, rank: &WireRankQuery) -> (Vec<usize>, Vec<usize>) {
        let blob = &rank.sketch;
        let column = rank.to_sketched(spec).expect("the fixture ranks");
        // magic, format byte, two length-prefixed names, the row count.
        let mut at = 4 + 1 + 4 + column.table.len() + 4 + column.column.len() + 8;
        let (mut hashes, mut values) = (Vec::new(), Vec::new());
        for sketch in column.sketches() {
            let len = u32::from_le_bytes(blob[at..at + 4].try_into().expect("4 bytes")) as usize;
            let AnySketch::WeightedMinHash(wmh) = sketch else {
                panic!("the fixture is WMH");
            };
            let m = wmh.hashes().len();
            // Sketch header (6), samples, seed, L (8 each), variant (1), norm
            // (8), then the length-prefixed hash and value arrays.
            let first_hash = at + 4 + 6 + 24 + 1 + 8 + 8;
            let first_value = first_hash + 8 * m + 8;
            for i in 0..m {
                let read = |offset: usize| {
                    f64::from_le_bytes(blob[offset..offset + 8].try_into().expect("8 bytes"))
                };
                assert_eq!(
                    read(first_hash + 8 * i).to_bits(),
                    wmh.hashes()[i].to_bits()
                );
                assert_eq!(
                    read(first_value + 8 * i).to_bits(),
                    wmh.values()[i].to_bits()
                );
                hashes.push(first_hash + 8 * i);
                values.push(first_value + 8 * i);
            }
            at += 4 + len;
        }
        assert_eq!(at, blob.len(), "three sketches fill the blob");
        (hashes, values)
    }

    fn patched(rank: &WireRankQuery, offset: usize, value: f64) -> WireRankQuery {
        let mut rank = rank.clone();
        rank.sketch[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        rank
    }

    #[test]
    fn rank_requests_round_trip_and_rank_sketches_decode() {
        let (spec, rank) = rank_fixture();
        let request = Request {
            id: Json::u64(5),
            body: RequestBody::Rank {
                mode: Mode::Joinable,
                k: 4,
                min_join_size: 0.0,
                cascade: true,
                queries: vec![rank.clone(), rank.clone()],
            },
        };
        let line = request.encode();
        assert!(line.contains(r#""op":"rank""#), "{line}");
        assert_eq!(Request::decode(&line).expect("decodes"), request);
        let sketched = rank.to_sketched(&spec).expect("an honest sketch ranks");
        assert_eq!(sketched.encode(spec.format), rank.sketch);
    }

    #[test]
    fn hostile_rank_sketches_get_typed_errors() {
        let (spec, good) = rank_fixture();
        // On the wire: the `sketch` member must be present and even-length hex.
        for member in [
            r#","sketch":"abc""#,
            r#","sketch":"zz""#,
            r#","sketch":7"#,
            "",
        ] {
            let line = format!(
                r#"{{"v":1,"op":"rank","queries":[{{"table":"t","column":"c","keys":[1],"values":[1.0]{member}}}]}}"#
            );
            let error = Request::decode(&line).expect_err(&line).error;
            assert_eq!(error.code, ErrorCode::BadRequest, "{line}");
            assert!(error.message.contains("`sketch`"), "{}", error.message);
        }
        let code = |rank: WireRankQuery| {
            rank.to_sketched(&spec)
                .expect_err("a hostile sketch must not rank")
                .code
        };
        let with_blob = |sketch: Vec<u8>| WireRankQuery {
            sketch,
            ..good.clone()
        };
        let blob = &good.sketch;
        // Bytes that do not decode.
        assert_eq!(code(with_blob(Vec::new())), ErrorCode::Corrupt);
        assert_eq!(
            code(with_blob(blob[..blob.len() / 2].to_vec())),
            ErrorCode::Corrupt
        );
        let mut bad_magic = blob.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(code(with_blob(bad_magic)), ErrorCode::Corrupt);
        let (hashes, values) = wmh_payload_offsets(&spec, &good);
        // The sample count field of the first sketch disagrees with its arrays.
        let samples_at = hashes[0] - 8 - 8 - 1 - 24;
        let mut miscounted = blob.clone();
        miscounted[samples_at] ^= 1;
        assert_eq!(code(with_blob(miscounted)), ErrorCode::Corrupt);
        // Sketches of a foreign spec: another seed, budget or method.
        let table = good.query.to_table().expect("valid query");
        for (method, budget, seed) in [
            (SketchMethod::WeightedMinHash, 64.0, 8),
            (SketchMethod::WeightedMinHash, 128.0, 7),
            (SketchMethod::Kmv, 64.0, 7),
        ] {
            let foreign = AnySketcher::for_budget(method, budget, seed).expect("budget fits");
            let sketched = JoinEstimator::new(foreign)
                .sketch_column(&table, &good.query.column)
                .expect("sketches");
            let rank = WireRankQuery::new(good.query.clone(), &sketched, spec.format);
            assert_eq!(
                code(rank),
                ErrorCode::Incompatible,
                "{method:?} {budget} {seed}"
            );
        }
        // A format-v1 blob sent to a format-v2 catalog.
        let column = good.to_sketched(&spec).expect("the fixture ranks");
        assert_eq!(
            code(with_blob(column.encode(FormatVersion::V1))),
            ErrorCode::Incompatible
        );
        // Hashes no sampler produces, and non-finite values.
        for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.25, 1.5] {
            assert_eq!(
                code(patched(&good, hashes[0], hostile)),
                ErrorCode::Incompatible
            );
        }
        for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                code(patched(&good, values[0], hostile)),
                ErrorCode::Incompatible
            );
        }
        // A sketch of another column, or of the query with another row count.
        let mut renamed = good.clone();
        renamed.query.table = "other".to_string();
        assert_eq!(code(renamed), ErrorCode::BadRequest);
        let mut recolumned = good.clone();
        recolumned.query.column = "other".to_string();
        assert_eq!(code(recolumned), ErrorCode::BadRequest);
        let mut longer = good.clone();
        longer.query.keys.push(99);
        longer.query.values.push(1.0);
        assert_eq!(code(longer), ErrorCode::BadRequest);
    }

    proptest! {
        #[test]
        fn rank_sketch_decoding_is_total(
            flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
            cut in any::<usize>(),
            target in 0usize..2,
            slot in any::<usize>(),
            kind in 0usize..5,
            magnitude in 1e-6f64..1e6,
        ) {
            let (spec, good) = rank_fixture();
            // Arbitrary damage: byte flips, then a truncation.  Any outcome is
            // allowed except a panic; a sketch that still decodes passed every
            // check `to_sketched` makes.
            let mut damaged = good.clone();
            for (at, mask) in flips {
                let len = damaged.sketch.len();
                damaged.sketch[at % len] ^= mask;
            }
            damaged.sketch.truncate(cut % (good.sketch.len() + 1));
            if let Ok(column) = damaged.to_sketched(&spec) {
                prop_assert_eq!(column.rows, good.query.keys.len());
            }
            // One hostile number in a hash or value array never ranks.
            let (hashes, values) = wmh_payload_offsets(&spec, &good);
            let (offsets, hostile) = if target == 0 {
                let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -magnitude, 1.0 + magnitude][kind];
                (&hashes, value)
            } else {
                let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::INFINITY][kind];
                (&values, value)
            };
            let rank = patched(&good, offsets[slot % offsets.len()], hostile);
            let error = rank.to_sketched(&spec).expect_err("a hostile sketch must not rank");
            prop_assert_eq!(error.code, ErrorCode::Incompatible);
        }
    }

    #[test]
    fn info_requests_without_server_flag_encode_without_the_member() {
        let plain = Request {
            id: Json::Null,
            body: RequestBody::Info { server: false },
        };
        assert!(!plain.encode().contains("server"));
        let observed = Request {
            id: Json::Null,
            body: RequestBody::Info { server: true },
        };
        assert!(observed.encode().contains(r#""server":true"#));
    }

    #[test]
    fn catalog_errors_map_onto_distinct_codes() {
        let cases: Vec<(CatalogError, ErrorCode)> = vec![
            (
                CatalogError::Io {
                    path: "/x".into(),
                    detail: "denied".into(),
                },
                ErrorCode::Io,
            ),
            (
                CatalogError::Corrupt {
                    detail: "short".into(),
                },
                ErrorCode::Corrupt,
            ),
            (
                CatalogError::NotACatalog {
                    path: "/x".into(),
                    detail: "no manifest".into(),
                },
                ErrorCode::NotACatalog,
            ),
            (
                CatalogError::Incompatible {
                    detail: "seed".into(),
                },
                ErrorCode::Incompatible,
            ),
            (
                CatalogError::DuplicateColumn {
                    table: "t".into(),
                    column: "c".into(),
                },
                ErrorCode::DuplicateColumn,
            ),
            (
                CatalogError::NotFound {
                    table: "t".into(),
                    column: "c".into(),
                },
                ErrorCode::NotFound,
            ),
            (
                CatalogError::Sketch(ipsketch_core::SketchError::EmptySketch),
                ErrorCode::Sketch,
            ),
            (
                CatalogError::Join(JoinError::NotIndexed {
                    table: "t".into(),
                    column: "c".into(),
                }),
                ErrorCode::Join,
            ),
        ];
        for (error, code) in cases {
            let wire: WireError = error.into();
            assert_eq!(wire.code, code);
            assert!(!wire.message.is_empty());
        }
    }
}

//! The `ipsketch` command-line interface.
//!
//! Drives the whole serving workflow without writing code:
//!
//! ```text
//! ipsketch catalog init <dir> --method wmh --budget 400 [--seed 7] [--wmh-l 16777216]
//!                             [--no-companion]
//! ipsketch catalog compact <dir>
//! ipsketch catalog migrate <dir> <dest-dir>
//! ipsketch ingest <dir> <csv> [--table <name>] [--partitions <n>]
//! ipsketch ingest-partial <dir> <csv> --shards <n> [--table <name>]
//! ipsketch query <dir> <csv> --column <name> [--table <name>] [--top <k>]
//!                            [--relatedness] [--min-join-size <x>]
//!                            [--cascade | --no-cascade]
//! ipsketch info <dir>
//! ```
//!
//! CSV files are `key,<col>,…` with a u64 join key (see [`crate::csv`]).  Argument
//! parsing is hand-rolled: the build environment is offline, and the surface is small
//! enough that a dependency would cost more than it saves.

use crate::catalog::Catalog;
use crate::csv::{load_table, CsvError};
use crate::error::CatalogError;
use crate::service::{rank, shard_rows, IngestReport, Mode, QueryService, RankRequest};
use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_join::JoinError;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Errors surfaced by the CLI, each mapping to a distinct failure the user can act on.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was malformed.
    Usage(String),
    /// A catalog/service operation failed.
    Catalog(CatalogError),
    /// A join-layer operation failed (e.g. the query column is missing).
    Join(JoinError),
    /// A CSV file did not parse.
    Csv(CsvError),
    /// Writing output failed.
    Io(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(detail) => write!(f, "usage error: {detail}"),
            CliError::Catalog(e) => write!(f, "{e}"),
            CliError::Join(e) => write!(f, "{e}"),
            CliError::Csv(e) => write!(f, "{e}"),
            CliError::Io(detail) => write!(f, "output error: {detail}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<CatalogError> for CliError {
    fn from(e: CatalogError) -> Self {
        CliError::Catalog(e)
    }
}

impl From<JoinError> for CliError {
    fn from(e: JoinError) -> Self {
        CliError::Join(e)
    }
}

impl From<CsvError> for CliError {
    fn from(e: CsvError) -> Self {
        CliError::Csv(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e.to_string())
    }
}

/// The usage text printed for `help` and usage errors.
#[must_use]
pub fn usage() -> String {
    "ipsketch — persistent sketch catalogs and joinability/relatedness queries

USAGE:
  ipsketch catalog init <dir> --method <jl|cs|mh|kmv|wmh|simhash|icws> --budget <doubles>
                       [--seed <n>] [--wmh-l <L>] [--no-companion]
  ipsketch catalog compact <dir>
  ipsketch catalog migrate <dir> <dest-dir>
  ipsketch ingest <dir> <csv> [--table <name>] [--partitions <n>]
  ipsketch ingest-partial <dir> <csv> --shards <n> [--table <name>]
  ipsketch query <dir> <csv> --column <name> [--table <name>] [--top <k>]
                       [--relatedness] [--min-join-size <x>]
                       [--cascade | --no-cascade]
  ipsketch info <dir>
  ipsketch serve <dir> [--addr <host:port>] [--http <host:port>] [--workers <n>]
                       [--max-connections <n>] [--queue-depth <n>]
                       [--session-ttl-secs <s>] [--maintenance-secs <s>]
                       (requires the `server` feature; at least one bind address)
  ipsketch route --addr <host:port> --node <host:port> [--node <host:port> …]
                       [--replicas <n>] [--read-timeout-ms <ms>] [--probe-ms <ms>]
                       [--failure-threshold <n>]
                       (requires the `server` feature)
  ipsketch rebalance --from <host:port> [--from …] --to <host:port> [--to …]
                       [--replicas <n>] [--read-timeout-ms <ms>]
                       (requires the `server` feature)
  ipsketch help

CSV files carry a header `key,<col>,…`: a u64 join key, then f64 value columns.
`ingest` sketches each column once (optionally via the chunk-and-merge path);
`ingest-partial` splits the rows into shards and runs the two-pass announced-norm
protocol, folding per-shard partial sketches exactly as a distributed deployment
would.  `query` ranks every cataloged column against the query column by estimated
join size (default) or |post-join correlation| (--relatedness); `--cascade` answers
joinability through the tiered cascade (cheap-sketch prefilter, then the primary
rerank — same ranking, fewer full estimates) when the catalog stores companion
sketches, falling back to the flat scan with a printed note when it does not.
`serve` puts the
catalog behind the concurrent network front end — line-delimited JSON over TCP
(--addr) and/or the HTTP/1.1 binding (--http, curl-able) — and runs until killed;
protocol spec in docs/PROTOCOL.md.  `route` fronts several `serve` nodes as one
cluster: `(table, column)` keys are placed on --replicas nodes by rendezvous
hashing, queries fan out and merge deterministically, and a lost node fails over
to its replicas (docs/PROTOCOL.md § Cluster routing; --node speaks line-TCP).
Routed requests run under per-attempt
deadlines (--read-timeout-ms, default 10000): idempotent reads retry and fail
over, writes fail fast with `deadline_exceeded`; a node that fails
--failure-threshold reads in a row (default 1) is demoted and re-probed every
--probe-ms (default 1000, 0 disables) until it answers again (docs/PROTOCOL.md
§ Timeouts, retries, and idempotency).  `rebalance` live-migrates a cluster:
every sketch on the --from nodes is copied byte-identically onto its rendezvous
owners among the --to nodes (resumable — already-placed copies are skipped);
flip routers to the new node list once it reports done.  `catalog compact`
reclaims tombstoned and
orphaned sketch blobs; `catalog migrate` transcodes an old-format catalog into a
fresh directory at the current format (the source is never modified, and an
interrupted migration resumes where it stopped)."
        .to_string()
}

/// Minimal parsed command line: positional arguments, `--flag value` pairs, and
/// boolean `--switch`es.
struct ParsedArgs {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl ParsedArgs {
    /// Splits `args` into positionals, value flags and switches.  `flag_names` lists
    /// the flags that take a value and `switch_names` those that do not; anything
    /// else starting with `--` is a usage error, so a misspelled option can never be
    /// silently ignored and run the command with defaults.
    fn parse(
        args: &[String],
        flag_names: &[&str],
        switch_names: &[&str],
    ) -> Result<Self, CliError> {
        let mut parsed = ParsedArgs {
            positional: Vec::new(),
            flags: Vec::new(),
            switches: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(name) = arg.strip_prefix("--") {
                if switch_names.contains(&name) {
                    parsed.switches.push(name.to_string());
                } else if flag_names.contains(&name) {
                    let value = args.get(i + 1).ok_or_else(|| {
                        CliError::Usage(format!("flag `--{name}` expects a value"))
                    })?;
                    parsed.flags.push((name.to_string(), value.clone()));
                    i += 1;
                } else {
                    let mut known: Vec<String> = flag_names
                        .iter()
                        .chain(switch_names)
                        .map(|n| format!("--{n}"))
                        .collect();
                    known.sort();
                    return Err(CliError::Usage(format!(
                        "unknown flag `--{name}` (this command accepts: {})",
                        if known.is_empty() {
                            "no flags".to_string()
                        } else {
                            known.join(", ")
                        }
                    )));
                }
            } else {
                parsed.positional.push(arg.clone());
            }
            i += 1;
        }
        Ok(parsed)
    }

    /// Every value given for a repeatable flag, in command-line order.
    fn flag_values(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn positional(&self, index: usize, what: &str) -> Result<&str, CliError> {
        self.positional
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing {what}")))
    }

    fn parsed_flag<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.flag(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("flag `--{name}` has invalid value `{raw}`"))),
        }
    }
}

/// Runs one CLI invocation, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns [`CliError`]; the binary maps [`CliError::Usage`] to exit code 2 and
/// everything else to exit code 1.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let command = args
        .first()
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage("no command given".to_string()))?;
    match command {
        "catalog" => {
            let sub = args.get(1).map(String::as_str).ok_or_else(|| {
                CliError::Usage("`catalog` expects `init`, `compact` or `migrate`".to_string())
            })?;
            match sub {
                "init" => catalog_init(&args[2..], out),
                "compact" => catalog_compact(&args[2..], out),
                "migrate" => catalog_migrate(&args[2..], out),
                other => Err(CliError::Usage(format!(
                    "unknown catalog subcommand `{other}` (expected `init`, `compact` or `migrate`)"
                ))),
            }
        }
        "ingest" => ingest(&args[1..], out),
        "ingest-partial" => ingest_partial(&args[1..], out),
        "query" => query(&args[1..], out),
        "info" => info(&args[1..], out),
        "serve" => serve(&args[1..], out),
        "route" => route(&args[1..], out),
        "rebalance" => rebalance(&args[1..], out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{}", usage())?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn catalog_init(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(
        args,
        &["method", "budget", "seed", "wmh-l"],
        &["no-companion"],
    )?;
    let dir = parsed.positional(0, "catalog directory")?;
    let method_name = parsed
        .flag("method")
        .ok_or_else(|| CliError::Usage("`catalog init` requires --method".to_string()))?;
    let method = SketchMethod::parse(method_name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown method `{method_name}` (expected jl, cs, mh, kmv, wmh, simhash or icws)"
        ))
    })?;
    let budget: f64 = parsed
        .parsed_flag("budget")?
        .ok_or_else(|| CliError::Usage("`catalog init` requires --budget".to_string()))?;
    let seed: u64 = parsed.parsed_flag("seed")?.unwrap_or(1);
    let spec = match parsed.parsed_flag::<u64>("wmh-l")? {
        Some(l) => AnySketcher::for_budget_with_discretization(method, budget, seed, l)
            .map_err(CatalogError::Sketch)?
            .spec(),
        None => AnySketcher::for_budget(method, budget, seed)
            .map_err(CatalogError::Sketch)?
            .spec(),
    };
    // Companions on by default, matching `QueryService::create`: a fresh
    // catalog should serve `query --cascade` without falling back.
    let companion = (!parsed.switch("no-companion")).then(|| Catalog::default_companion_spec(spec));
    let catalog = Catalog::init_with_companion(dir, spec, companion)?;
    let companion_label = match catalog.companion_spec() {
        Some(c) => format!("companion {c}"),
        None => "no companion".to_string(),
    };
    writeln!(
        out,
        "initialized catalog at {} with sketcher {}, {companion_label} (fingerprint {:016x})",
        catalog.root().display(),
        spec,
        spec.fingerprint()
    )?;
    Ok(())
}

/// `catalog compact <dir>`: drop unreferenced and tombstoned sketch blobs and
/// print what was reclaimed.
fn catalog_compact(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(args, &[], &[])?;
    let dir = parsed.positional(0, "catalog directory")?;
    let mut catalog = Catalog::open(dir)?;
    let report = catalog.compact()?;
    for file in &report.removed_files {
        writeln!(out, "removed {file}")?;
    }
    writeln!(
        out,
        "compacted catalog at {}: removed {} files, {} live columns",
        catalog.root().display(),
        report.removed_files.len(),
        report.live_columns
    )?;
    Ok(())
}

/// `catalog migrate <dir> <dest-dir>`: transcode an old-format catalog into a fresh
/// directory at the current format, printing per-column progress.  The source is
/// never modified; rerunning after an interruption resumes where it stopped.
fn catalog_migrate(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(args, &[], &[])?;
    let src = parsed.positional(0, "source catalog directory")?;
    let dest = parsed.positional(1, "destination directory")?;
    let mut lines: Vec<String> = Vec::new();
    let report = crate::migrate::migrate_catalog(src, dest, |p| {
        lines.push(format!(
            "[{}/{}] {}.{} {}",
            p.done,
            p.total,
            p.table,
            p.column,
            if p.resumed {
                "already migrated (resumed)"
            } else {
                "transcoded"
            }
        ));
    })?;
    for line in lines {
        writeln!(out, "{line}")?;
    }
    writeln!(
        out,
        "migrated catalog {src} ({} -> {}) into {}: {} columns ({} transcoded, {} resumed)",
        report.from.label(),
        report.to.label(),
        report.dest.display(),
        report.columns,
        report.transcoded,
        report.resumed
    )?;
    Ok(())
}

fn write_report(out: &mut dyn Write, report: &IngestReport, how: &str) -> Result<(), CliError> {
    for (table, column) in &report.registered {
        writeln!(out, "registered {table}.{column} ({how})")?;
    }
    for column in &report.skipped {
        writeln!(out, "skipped {column}: no value mass (all zeros)")?;
    }
    Ok(())
}

fn ingest(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(args, &["table", "partitions"], &[])?;
    let dir = parsed.positional(0, "catalog directory")?;
    let csv = parsed.positional(1, "CSV file")?;
    let table = load_table(Path::new(csv), parsed.flag("table"))?;
    let mut service = QueryService::open(dir)?;
    let (report, path) = match parsed.parsed_flag::<usize>("partitions")? {
        Some(partitions) => (
            service.ingest_table_partitioned(&table, partitions)?,
            format!("{partitions} merged partitions"),
        ),
        None => (service.ingest_table(&table)?, "one-shot".to_string()),
    };
    write_report(out, &report, &path)?;
    writeln!(
        out,
        "catalog now holds {} columns ({} new)",
        service.catalog().len(),
        report.registered.len()
    )?;
    Ok(())
}

fn ingest_partial(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(args, &["shards", "table"], &[])?;
    let dir = parsed.positional(0, "catalog directory")?;
    let csv = parsed.positional(1, "CSV file")?;
    let shards: usize = parsed
        .parsed_flag("shards")?
        .ok_or_else(|| CliError::Usage("`ingest-partial` requires --shards".to_string()))?;
    if shards == 0 {
        return Err(CliError::Usage("--shards must be at least 1".to_string()));
    }
    let table = load_table(Path::new(csv), parsed.flag("table"))?;
    let mut service = QueryService::open(dir)?;
    let shard_tables = shard_rows(&table, shards);
    let mut session = service.begin_sharded_ingest(table.name());
    // First pass: every shard announces its Σv² partial sums.
    for shard in &shard_tables {
        session.announce(shard)?;
    }
    // Second pass: every shard sketches against the agreed norms; partials fold.
    for shard in &shard_tables {
        session.submit(shard)?;
    }
    let report = service.finish_sharded_ingest(session)?;
    write_report(
        out,
        &report,
        &format!("{} shard partials folded", shard_tables.len()),
    )?;
    writeln!(
        out,
        "catalog now holds {} columns ({} new)",
        service.catalog().len(),
        report.registered.len()
    )?;
    Ok(())
}

fn query(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(
        args,
        &["column", "table", "top", "min-join-size"],
        &["relatedness", "cascade", "no-cascade"],
    )?;
    let dir = parsed.positional(0, "catalog directory")?;
    let csv = parsed.positional(1, "query CSV file")?;
    let column = parsed
        .flag("column")
        .ok_or_else(|| CliError::Usage("`query` requires --column".to_string()))?;
    let top: usize = parsed.parsed_flag("top")?.unwrap_or(10);
    let min_join_size: f64 = parsed.parsed_flag("min-join-size")?.unwrap_or(0.0);
    let cascade = parsed.switch("cascade");
    if cascade && parsed.switch("no-cascade") {
        return Err(CliError::Usage(
            "--cascade and --no-cascade are mutually exclusive".to_string(),
        ));
    }
    let related = parsed.switch("relatedness");
    if cascade && related {
        return Err(CliError::Usage(
            "--cascade applies to joinability queries only (drop --relatedness)".to_string(),
        ));
    }
    let table = load_table(Path::new(csv), parsed.flag("table"))?;
    let mut service = QueryService::open(dir)?;
    let query_sketch = service.estimator().sketch_column(&table, column)?;
    service.ensure_hydrated()?;
    let request = RankRequest {
        mode: if related {
            Mode::Related
        } else {
            Mode::Joinable
        },
        k: top,
        min_join_size,
        cascade,
    };
    let (rankings, note) = rank(
        service.index(),
        &[(&table, column)],
        vec![query_sketch],
        request,
    )?;
    if let Some(note) = note {
        writeln!(out, "note ({}): {}", note.code, note.message)?;
    }
    let ranked = &rankings[0];
    let metric = if related { "|corr|" } else { "join" };
    writeln!(
        out,
        "top {} columns by estimated {metric} for {}.{column} over {} cataloged columns:",
        ranked.len(),
        table.name(),
        service.catalog().len()
    )?;
    writeln!(
        out,
        "{:<4} {:<28} {:>12} {:>10}",
        "rank", "column", "join_size", "corr"
    )?;
    for (position, result) in ranked.iter().enumerate() {
        writeln!(
            out,
            "{:<4} {:<28} {:>12.2} {:>10.4}",
            position + 1,
            format!("{}.{}", result.id.table, result.id.column),
            result.estimated_join_size,
            result.estimated_correlation,
        )?;
    }
    Ok(())
}

/// Everything the `serve` subcommand parses, resolved outside the feature gate so a
/// build without the `server` feature still validates flags and reports a helpful
/// error instead of "unknown command".
#[cfg_attr(not(feature = "server"), allow(dead_code))]
struct ServeOptions {
    tcp: Option<String>,
    http: Option<String>,
    workers: Option<usize>,
    max_connections: Option<usize>,
    queue_depth: Option<usize>,
    session_ttl_secs: Option<u64>,
    maintenance_secs: Option<u64>,
}

/// `serve <dir> [--addr host:port] [--http host:port] [--workers n] …`: run the
/// network front end over a catalog until the process is killed.  At least one of
/// `--addr` (line-delimited TCP) and `--http` (HTTP/1.1 binding) is required.
fn serve(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(
        args,
        &[
            "addr",
            "http",
            "workers",
            "max-connections",
            "queue-depth",
            "session-ttl-secs",
            "maintenance-secs",
        ],
        &[],
    )?;
    let dir = parsed.positional(0, "catalog directory")?;
    let options = ServeOptions {
        tcp: parsed.flag("addr").map(str::to_string),
        http: parsed.flag("http").map(str::to_string),
        workers: parsed.parsed_flag("workers")?,
        max_connections: parsed.parsed_flag("max-connections")?,
        queue_depth: parsed.parsed_flag("queue-depth")?,
        session_ttl_secs: parsed.parsed_flag("session-ttl-secs")?,
        maintenance_secs: parsed.parsed_flag("maintenance-secs")?,
    };
    if options.tcp.is_none() && options.http.is_none() {
        return Err(CliError::Usage(
            "`serve` requires at least one bind address: --addr host:port (TCP) \
             and/or --http host:port (HTTP/1.1)"
                .to_string(),
        ));
    }
    serve_impl(dir, &options, out)
}

#[cfg(feature = "server")]
fn serve_impl(dir: &str, options: &ServeOptions, out: &mut dyn Write) -> Result<(), CliError> {
    use std::time::Duration;
    let mut builder = crate::server::ServerConfig::builder();
    if let Some(addr) = &options.tcp {
        builder = builder.tcp(addr);
    }
    if let Some(addr) = &options.http {
        builder = builder.http(addr);
    }
    if let Some(workers) = options.workers {
        builder = builder.workers(workers);
    }
    if let Some(cap) = options.max_connections {
        builder = builder.max_connections(cap);
    }
    if let Some(depth) = options.queue_depth {
        builder = builder.max_queue_depth(depth);
    }
    if let Some(secs) = options.session_ttl_secs {
        builder = builder.session_ttl(Duration::from_secs(secs));
    }
    if let Some(secs) = options.maintenance_secs {
        builder = builder.maintenance_interval(if secs == 0 {
            None
        } else {
            Some(Duration::from_secs(secs))
        });
    }
    // Config validation first, then the catalog, then sockets: a bad flag should
    // never leave a half-bound server behind.
    let config = builder
        .build()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let service = QueryService::open(dir)?;
    let columns = service.catalog().len();
    let handle = crate::server::serve(service, config)
        .map_err(|e| CliError::Io(format!("cannot serve catalog `{dir}`: {e}")))?;
    if let Some(addr) = handle.tcp_addr() {
        writeln!(
            out,
            "serving catalog {dir} ({columns} columns) on tcp {addr} — protocol v{}, one JSON request per line (docs/PROTOCOL.md)",
            crate::protocol::PROTOCOL_VERSION
        )?;
    }
    if let Some(addr) = handle.http_addr() {
        writeln!(
            out,
            "serving catalog {dir} ({columns} columns) on http {addr} — POST /v1/<op>, GET /v1/info (docs/PROTOCOL.md, HTTP/1.1 binding)",
        )?;
    }
    out.flush()?;
    // Serve until killed.  `wait` only returns if the server dies on its own (a
    // fatal reactor error dropped the listeners); exiting with an error then is
    // strictly better than lingering as a live-looking process nothing can reach.
    handle.wait();
    Err(CliError::Io(
        "server terminated unexpectedly (fatal reactor I/O error); the listeners are closed"
            .to_string(),
    ))
}

#[cfg(not(feature = "server"))]
fn serve_impl(_dir: &str, _options: &ServeOptions, _out: &mut dyn Write) -> Result<(), CliError> {
    Err(CliError::Usage(
        "this build has no network front end; rebuild with `--features server` \
         (cargo build --release -p ipsketch-serve --features server --bin ipsketch)"
            .to_string(),
    ))
}

/// Everything the `route` subcommand parses; resolved outside the feature gate
/// like [`ServeOptions`].
#[cfg_attr(not(feature = "server"), allow(dead_code))]
struct RouteOptions {
    addr: String,
    nodes: Vec<String>,
    replicas: usize,
    read_timeout_ms: Option<u64>,
    probe_ms: Option<u64>,
    failure_threshold: Option<u64>,
}

/// `route --addr host:port --node host:port [--node …] [--replicas n] [--read-timeout-ms ms] [--probe-ms ms]
/// [--failure-threshold n]`: front several catalog nodes as one cluster,
/// running until the process is killed.
fn route(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(
        args,
        &[
            "addr",
            "node",
            "replicas",
            "read-timeout-ms",
            "probe-ms",
            "failure-threshold",
        ],
        &[],
    )?;
    if let Some(extra) = parsed.positional.first() {
        return Err(CliError::Usage(format!(
            "`route` takes no positional arguments (got `{extra}`)"
        )));
    }
    let options = RouteOptions {
        addr: parsed
            .flag("addr")
            .ok_or_else(|| CliError::Usage("`route` requires --addr host:port".to_string()))?
            .to_string(),
        nodes: parsed
            .flag_values("node")
            .iter()
            .map(|s| s.to_string())
            .collect(),
        replicas: parsed.parsed_flag("replicas")?.unwrap_or(2),
        read_timeout_ms: parsed.parsed_flag("read-timeout-ms")?,
        probe_ms: parsed.parsed_flag("probe-ms")?,
        failure_threshold: parsed.parsed_flag("failure-threshold")?,
    };
    if options.read_timeout_ms == Some(0) {
        return Err(CliError::Usage(
            "`--read-timeout-ms 0` would let every routed request block forever; \
             pick a positive deadline"
                .to_string(),
        ));
    }
    if options.nodes.is_empty() {
        return Err(CliError::Usage(
            "`route` requires at least one catalog node: --node host:port (line-TCP)".to_string(),
        ));
    }
    route_impl(&options, out)
}

#[cfg(feature = "server")]
fn route_impl(options: &RouteOptions, out: &mut dyn Write) -> Result<(), CliError> {
    use crate::router::{serve_router, NodeSpec, RetryPolicy, Router, RouterConfig};
    use std::net::ToSocketAddrs;
    use std::time::Duration;
    let bind = options
        .addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .ok_or_else(|| {
            CliError::Usage(format!(
                "--addr `{}` is not a bindable host:port",
                options.addr
            ))
        })?;
    let nodes: Vec<NodeSpec> = options.nodes.iter().map(NodeSpec::tcp).collect();
    let mut config = RouterConfig::new(nodes).replicas(options.replicas);
    if let Some(ms) = options.read_timeout_ms {
        config = config.retry(RetryPolicy::with_timeout(Duration::from_millis(ms)));
    }
    if let Some(ms) = options.probe_ms {
        // 0 turns the background prober off; demoted nodes then only return
        // when regular traffic reaches them again.
        config = config.probe_interval((ms > 0).then(|| Duration::from_millis(ms)));
    }
    if let Some(threshold) = options.failure_threshold {
        config = config.failure_threshold(threshold);
    }
    // Placement is validated before any socket binds, like `serve`.
    let router = Router::with_config(config).map_err(|e| CliError::Usage(e.to_string()))?;
    let replicas = router.replicas();
    let node_count = router.nodes().len();
    let handle = serve_router(router, bind)
        .map_err(|e| CliError::Io(format!("cannot bind router on `{}`: {e}", options.addr)))?;
    writeln!(
        out,
        "routing {node_count} catalog nodes (replication {replicas}) on tcp {} — protocol v{}, \
         one JSON request per line (docs/PROTOCOL.md § Cluster routing)",
        handle.addr(),
        crate::protocol::PROTOCOL_VERSION
    )?;
    out.flush()?;
    // Route until killed; nodes are dialed lazily, so a node that is still
    // booting only fails the requests that need it.  As with `serve`, `wait`
    // only returns if the serving core dies on its own.
    handle.wait();
    Err(CliError::Io(
        "router terminated unexpectedly (fatal reactor I/O error); the listener is closed"
            .to_string(),
    ))
}

#[cfg(not(feature = "server"))]
fn route_impl(_options: &RouteOptions, _out: &mut dyn Write) -> Result<(), CliError> {
    Err(CliError::Usage(
        "this build has no network front end; rebuild with `--features server` \
         (cargo build --release -p ipsketch-serve --features server --bin ipsketch)"
            .to_string(),
    ))
}

/// Everything the `rebalance` subcommand parses; resolved outside the feature
/// gate like [`RouteOptions`].
#[cfg_attr(not(feature = "server"), allow(dead_code))]
struct RebalanceOptions {
    from: Vec<String>,
    to: Vec<String>,
    replicas: usize,
    read_timeout_ms: Option<u64>,
}

/// `rebalance --from host:port [--from …] --to host:port [--to …]
/// [--replicas n] [--read-timeout-ms ms]`: copy every sketch held by the old
/// node list onto its rendezvous owners in the new list, then report.
fn rebalance(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(args, &["from", "to", "replicas", "read-timeout-ms"], &[])?;
    if let Some(extra) = parsed.positional.first() {
        return Err(CliError::Usage(format!(
            "`rebalance` takes no positional arguments (got `{extra}`)"
        )));
    }
    let options = RebalanceOptions {
        from: parsed
            .flag_values("from")
            .iter()
            .map(|s| s.to_string())
            .collect(),
        to: parsed
            .flag_values("to")
            .iter()
            .map(|s| s.to_string())
            .collect(),
        replicas: parsed.parsed_flag("replicas")?.unwrap_or(2),
        read_timeout_ms: parsed.parsed_flag("read-timeout-ms")?,
    };
    if options.from.is_empty() || options.to.is_empty() {
        return Err(CliError::Usage(
            "`rebalance` requires at least one --from host:port and one --to host:port \
             (both line-TCP catalog nodes)"
                .to_string(),
        ));
    }
    rebalance_impl(&options, out)
}

#[cfg(feature = "server")]
fn rebalance_impl(options: &RebalanceOptions, out: &mut dyn Write) -> Result<(), CliError> {
    use crate::router::{rebalance, NodeSpec, RetryPolicy};
    use std::time::Duration;
    let from: Vec<NodeSpec> = options.from.iter().map(NodeSpec::tcp).collect();
    let to: Vec<NodeSpec> = options.to.iter().map(NodeSpec::tcp).collect();
    let retry = options
        .read_timeout_ms
        .map_or_else(RetryPolicy::default, |ms| {
            RetryPolicy::with_timeout(Duration::from_millis(ms))
        });
    let report = rebalance(&from, &to, options.replicas, &retry)
        .map_err(|e| CliError::Io(format!("rebalance failed: {} ({})", e.message, e.code)))?;
    writeln!(
        out,
        "rebalanced {} column sketches onto {} nodes (replication {}): {} copied, {} already \
         placed — flip routers to the new node list now (byte-identical answers before, during \
         and after; re-running is a no-op)",
        report.keys,
        options.to.len(),
        options.replicas.min(options.to.len()),
        report.copied,
        report.already_placed
    )?;
    Ok(())
}

#[cfg(not(feature = "server"))]
fn rebalance_impl(_options: &RebalanceOptions, _out: &mut dyn Write) -> Result<(), CliError> {
    Err(CliError::Usage(
        "this build has no network front end; rebuild with `--features server` \
         (cargo build --release -p ipsketch-serve --features server --bin ipsketch)"
            .to_string(),
    ))
}

fn info(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(args, &[], &[])?;
    let dir = parsed.positional(0, "catalog directory")?;
    let service = QueryService::open(dir)?;
    let stats = service.stats();
    writeln!(out, "catalog: {}", service.catalog().root().display())?;
    writeln!(out, "format: {}", stats.format)?;
    writeln!(out, "sketcher: {}", stats.sketcher)?;
    writeln!(out, "fingerprint: {}", stats.fingerprint)?;
    writeln!(out, "method: {}", stats.method)?;
    writeln!(
        out,
        "columns: {} ({} hydrated, {} sketch bytes on disk)",
        stats.columns, stats.hydrated, stats.bytes_on_disk
    )?;
    if let Some(compaction) = &stats.last_compaction {
        writeln!(
            out,
            "last compaction: removed {} files, {} live columns",
            compaction.removed_files.len(),
            compaction.live_columns
        )?;
    }
    for entry in service.catalog().live_entries() {
        writeln!(
            out,
            "  {}.{} — {} rows, {} bytes ({})",
            entry.table, entry.column, entry.rows, entry.blob_len, entry.file
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipsketch-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).expect("command succeeds");
        String::from_utf8(out).expect("utf8 output")
    }

    fn run_err(args: &[&str]) -> CliError {
        let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).expect_err("command fails")
    }

    /// Two joinable tables as CSV files: keys 0..200 and 100..300.
    fn write_lake(dir: &Path) -> (PathBuf, PathBuf) {
        let mut left = String::from("key,rides\n");
        for i in 0..200 {
            left.push_str(&format!("{i},{}\n", f64::from(i) + 1.0));
        }
        let mut right = String::from("key,precip,noise\n");
        for i in 100..300 {
            right.push_str(&format!("{i},{},{}\n", 2 * i + 3, (i * 37) % 11));
        }
        let left_path = dir.join("taxi.csv");
        let right_path = dir.join("weather.csv");
        fs::write(&left_path, left).expect("write left");
        fs::write(&right_path, right).expect("write right");
        (left_path, right_path)
    }

    #[test]
    fn full_cli_round_trip_matches_between_ingest_paths() {
        let dir = temp_dir("roundtrip");
        let (taxi, weather) = write_lake(&dir);
        let catalog_one = dir.join("catalog-one");
        let catalog_shard = dir.join("catalog-shard");
        for catalog in [&catalog_one, &catalog_shard] {
            let text = run_ok(&[
                "catalog",
                "init",
                catalog.to_str().expect("utf8"),
                "--method",
                "wmh",
                "--budget",
                "300",
                "--seed",
                "9",
            ]);
            assert!(text.contains("initialized catalog"), "{text}");
        }
        // One catalog ingests one-shot, the other shard-partial; queries must agree
        // (WMH shard partials are estimate-equivalent, and the ranking identical).
        run_ok(&[
            "ingest",
            catalog_one.to_str().expect("utf8"),
            weather.to_str().expect("utf8"),
        ]);
        let sharded = run_ok(&[
            "ingest-partial",
            catalog_shard.to_str().expect("utf8"),
            weather.to_str().expect("utf8"),
            "--shards",
            "4",
        ]);
        assert!(sharded.contains("4 shard partials folded"), "{sharded}");

        let query_one = run_ok(&[
            "query",
            catalog_one.to_str().expect("utf8"),
            taxi.to_str().expect("utf8"),
            "--column",
            "rides",
            "--top",
            "2",
        ]);
        let query_shard = run_ok(&[
            "query",
            catalog_shard.to_str().expect("utf8"),
            taxi.to_str().expect("utf8"),
            "--column",
            "rides",
            "--top",
            "2",
        ]);
        assert!(query_one.contains("weather.precip"), "{query_one}");
        // Both paths rank precip first (the noise column has near-random overlap).
        let first_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("1 "))
                .map(str::to_string)
                .unwrap_or_default()
        };
        assert!(first_line(&query_one).contains("weather."), "{query_one}");
        assert!(
            first_line(&query_shard).contains("weather."),
            "{query_shard}"
        );

        let info_text = run_ok(&["info", catalog_one.to_str().expect("utf8")]);
        assert!(info_text.contains("columns: 2"), "{info_text}");
        assert!(info_text.contains("WMH"), "{info_text}");
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn usage_errors_are_typed_and_informative() {
        assert!(matches!(run_err(&[]), CliError::Usage(_)));
        assert!(matches!(run_err(&["frobnicate"]), CliError::Usage(_)));
        assert!(matches!(run_err(&["catalog"]), CliError::Usage(_)));
        assert!(matches!(run_err(&["catalog", "drop"]), CliError::Usage(_)));
        assert!(matches!(
            run_err(&["catalog", "init", "/tmp/x", "--budget", "100"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["catalog", "init", "/tmp/x", "--method", "nope", "--budget", "100"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["catalog", "init", "/tmp/x", "--method", "wmh", "--budget", "lots"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["catalog", "compact"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["catalog", "migrate", "/tmp/x"]),
            CliError::Usage(_)
        ));
        assert!(matches!(run_err(&["ingest", "/tmp/x"]), CliError::Usage(_)));
        // Misspelled flags are rejected, never silently ignored: `--partition`
        // (instead of --partitions) must not quietly fall back to one-shot ingest.
        let err = run_err(&["ingest", "/tmp/x", "/tmp/y.csv", "--partition", "4"]);
        assert!(
            matches!(&err, CliError::Usage(detail) if detail.contains("--partitions")),
            "unknown flags must name the accepted set: {err}"
        );
        assert!(matches!(
            run_err(&[
                "query",
                "/tmp/x",
                "/tmp/y.csv",
                "--column",
                "v",
                "--tpo",
                "5"
            ]),
            CliError::Usage(_)
        ));
        let help = run_ok(&["help"]);
        assert!(help.contains("USAGE"), "{help}");
    }

    #[test]
    fn serve_subcommand_parses_and_gates_on_the_feature() {
        // Missing both bind addresses is a usage error with or without the feature.
        let err = run_err(&["serve", "/tmp/x"]);
        assert!(
            matches!(&err, CliError::Usage(detail) if detail.contains("--addr") && detail.contains("--http")),
            "no bind address must name both flags: {err}"
        );
        #[cfg(not(feature = "server"))]
        {
            let err = run_err(&["serve", "/tmp/x", "--addr", "127.0.0.1:0"]);
            assert!(
                matches!(&err, CliError::Usage(detail) if detail.contains("--features server")),
                "featureless builds must point at the server feature: {err}"
            );
            // An HTTP-only bind parses and hits the same feature gate.
            let err = run_err(&["serve", "/tmp/x", "--http", "127.0.0.1:0"]);
            assert!(matches!(err, CliError::Usage(_)), "{err}");
        }
        #[cfg(feature = "server")]
        {
            // Config validation and catalog opening run before any socket binds.
            let err = run_err(&["serve", "/tmp/x", "--addr", "127.0.0.1:0", "--workers", "0"]);
            assert!(matches!(err, CliError::Usage(_)), "zero workers: {err}");
            let err = run_err(&[
                "serve",
                "/tmp/x",
                "--http",
                "127.0.0.1:0",
                "--max-connections",
                "0",
            ]);
            assert!(matches!(err, CliError::Usage(_)), "zero connections: {err}");
            let dir = temp_dir("serve-nocat");
            let missing = dir.join("nope");
            let err = run_err(&[
                "serve",
                missing.to_str().expect("utf8"),
                "--addr",
                "127.0.0.1:0",
            ]);
            assert!(
                matches!(err, CliError::Catalog(CatalogError::NotACatalog { .. })),
                "{err}"
            );
            fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    #[test]
    fn route_subcommand_parses_and_gates_on_the_feature() {
        // Both the bind address and at least one node are required.
        let err = run_err(&["route"]);
        assert!(
            matches!(&err, CliError::Usage(detail) if detail.contains("--addr")),
            "{err}"
        );
        let err = run_err(&["route", "--addr", "127.0.0.1:0"]);
        assert!(
            matches!(&err, CliError::Usage(detail) if detail.contains("--node")),
            "no nodes must name the node flag: {err}"
        );
        // Routers reach nodes over line-TCP only; `--http-node` is no flag.
        let err = run_err(&["route", "--addr", "127.0.0.1:0", "--http-node", "h:1"]);
        assert!(
            matches!(&err, CliError::Usage(detail) if detail.contains("http-node")),
            "{err}"
        );
        let err = run_err(&["route", "stray", "--addr", "127.0.0.1:0", "--node", "h:1"]);
        assert!(
            matches!(&err, CliError::Usage(detail) if detail.contains("positional")),
            "{err}"
        );
        let err = run_err(&[
            "route",
            "--addr",
            "127.0.0.1:0",
            "--node",
            "h:1",
            "--replicas",
            "two",
        ]);
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        #[cfg(not(feature = "server"))]
        {
            let err = run_err(&["route", "--addr", "127.0.0.1:0", "--node", "127.0.0.1:1"]);
            assert!(
                matches!(&err, CliError::Usage(detail) if detail.contains("--features server")),
                "featureless builds must point at the server feature: {err}"
            );
        }
        #[cfg(feature = "server")]
        {
            // Validation runs before any socket binds.
            let err = run_err(&["route", "--addr", "not an address", "--node", "127.0.0.1:1"]);
            assert!(
                matches!(&err, CliError::Usage(detail) if detail.contains("host:port")),
                "{err}"
            );
            let err = run_err(&[
                "route",
                "--addr",
                "127.0.0.1:0",
                "--node",
                "127.0.0.1:1",
                "--replicas",
                "0",
            ]);
            assert!(
                matches!(&err, CliError::Usage(detail) if detail.contains("replication")),
                "{err}"
            );
        }
        // A zero read deadline is rejected in parsing, before the feature gate.
        let err = run_err(&[
            "route",
            "--addr",
            "127.0.0.1:0",
            "--node",
            "h:1",
            "--read-timeout-ms",
            "0",
        ]);
        assert!(
            matches!(&err, CliError::Usage(detail) if detail.contains("deadline")),
            "{err}"
        );
        #[cfg(feature = "server")]
        {
            let err = run_err(&[
                "route",
                "--addr",
                "127.0.0.1:0",
                "--node",
                "127.0.0.1:1",
                "--failure-threshold",
                "0",
            ]);
            assert!(
                matches!(&err, CliError::Usage(detail) if detail.contains("threshold")),
                "{err}"
            );
        }
    }

    #[test]
    fn rebalance_subcommand_parses_and_gates_on_the_feature() {
        // Both node lists are required, and stray positionals are rejected.
        let err = run_err(&["rebalance"]);
        assert!(
            matches!(&err, CliError::Usage(detail) if detail.contains("--from") && detail.contains("--to")),
            "{err}"
        );
        let err = run_err(&["rebalance", "--from", "h:1"]);
        assert!(
            matches!(&err, CliError::Usage(detail) if detail.contains("--to")),
            "{err}"
        );
        let err = run_err(&["rebalance", "stray", "--from", "h:1", "--to", "h:2"]);
        assert!(
            matches!(&err, CliError::Usage(detail) if detail.contains("positional")),
            "{err}"
        );
        let err = run_err(&[
            "rebalance",
            "--from",
            "h:1",
            "--to",
            "h:2",
            "--replicas",
            "x",
        ]);
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        #[cfg(not(feature = "server"))]
        {
            let err = run_err(&["rebalance", "--from", "127.0.0.1:1", "--to", "127.0.0.1:2"]);
            assert!(
                matches!(&err, CliError::Usage(detail) if detail.contains("--features server")),
                "featureless builds must point at the server feature: {err}"
            );
        }
        #[cfg(feature = "server")]
        {
            // With nothing listening the copy phase fails as a typed I/O error
            // — never a usage error, so scripts can tell the cases apart.
            let err = run_err(&[
                "rebalance",
                "--from",
                "127.0.0.1:1",
                "--to",
                "127.0.0.1:2",
                "--read-timeout-ms",
                "100",
            ]);
            assert!(
                matches!(&err, CliError::Io(detail) if detail.contains("rebalance failed")),
                "{err}"
            );
        }
    }

    #[test]
    fn compact_and_migrate_subcommands() {
        let dir = temp_dir("compact-migrate");
        let (taxi, _) = write_lake(&dir);
        let catalog = dir.join("catalog");
        run_ok(&[
            "catalog",
            "init",
            catalog.to_str().expect("utf8"),
            "--method",
            "kmv",
            "--budget",
            "100",
        ]);
        run_ok(&[
            "ingest",
            catalog.to_str().expect("utf8"),
            taxi.to_str().expect("utf8"),
        ]);
        // A fresh catalog has nothing to reclaim but the command still reports.
        let text = run_ok(&["catalog", "compact", catalog.to_str().expect("utf8")]);
        assert!(text.contains("removed 0 files, 1 live columns"), "{text}");
        // Info surfaces the on-disk format.
        let info_text = run_ok(&["info", catalog.to_str().expect("utf8")]);
        assert!(info_text.contains("format: v2"), "{info_text}");
        // Migrating a current-format catalog is refused, typed as a catalog error.
        let dest = dir.join("migrated");
        let err = run_err(&[
            "catalog",
            "migrate",
            catalog.to_str().expect("utf8"),
            dest.to_str().expect("utf8"),
        ]);
        assert!(
            matches!(&err, CliError::Catalog(CatalogError::Incompatible { detail })
                if detail.contains("already format v2")),
            "{err}"
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn runtime_errors_are_typed() {
        let dir = temp_dir("errors");
        let missing_catalog = dir.join("nope");
        let (taxi, _) = write_lake(&dir);
        // Querying a directory that is not a catalog.
        assert!(matches!(
            run_err(&[
                "query",
                missing_catalog.to_str().expect("utf8"),
                taxi.to_str().expect("utf8"),
                "--column",
                "rides"
            ]),
            CliError::Catalog(CatalogError::NotACatalog { .. })
        ));
        // Ingesting a CSV that does not exist.
        let catalog = dir.join("catalog");
        run_ok(&[
            "catalog",
            "init",
            catalog.to_str().expect("utf8"),
            "--method",
            "kmv",
            "--budget",
            "100",
        ]);
        assert!(matches!(
            run_err(&[
                "ingest",
                catalog.to_str().expect("utf8"),
                dir.join("ghost.csv").to_str().expect("utf8")
            ]),
            CliError::Csv(_)
        ));
        // Querying a column the CSV does not have.
        run_ok(&[
            "ingest",
            catalog.to_str().expect("utf8"),
            taxi.to_str().expect("utf8"),
        ]);
        assert!(matches!(
            run_err(&[
                "query",
                catalog.to_str().expect("utf8"),
                taxi.to_str().expect("utf8"),
                "--column",
                "ghost"
            ]),
            CliError::Join(_)
        ));
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

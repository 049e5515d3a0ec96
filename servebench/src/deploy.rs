//! In-process deployments over real TCP: one catalog server, or three catalog
//! nodes behind a router. Every catalog is a WMH primary at budget 400 with the
//! default Count-Sketch companion, as the command line's documented example
//! creates it.

use crate::client::Conn;
use crate::inputs::{Inputs, Kind, K};
use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_core::SketcherSpec;
use ipsketch_data::Table;
use ipsketch_serve::protocol::{
    Request, RequestBody, Response, ResponseBody, WireQuery, WireTable,
};
use ipsketch_serve::router::{serve_router, NodeSpec, Router, RouterHandle};
use ipsketch_serve::server::{serve, ServerConfig, ServerHandle};
use ipsketch_serve::wire::Json;
use ipsketch_serve::QueryService;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The sketcher every catalog uses: WMH at a 400-double budget, seed 7.
const BUDGET: f64 = 400.0;
const SKETCH_SEED: u64 = 7;
const ROUTED_NODES: usize = 3;
const REPLICAS: usize = 2;

pub fn spec() -> SketcherSpec {
    AnySketcher::for_budget(SketchMethod::WeightedMinHash, BUDGET, SKETCH_SEED)
        .expect("budget 400 fits WMH")
        .spec()
}

/// Default server settings, except that periodic compaction is off: a run is
/// shorter than its interval, and its timing would otherwise depend on when
/// the run started.
fn server_config() -> ServerConfig {
    ServerConfig::builder()
        .tcp("127.0.0.1:0")
        .maintenance_interval(None)
        .build()
        .expect("valid server configuration")
}

pub enum Deployment {
    Single {
        server: ServerHandle,
        root: PathBuf,
    },
    Routed {
        router: RouterHandle,
        nodes: Vec<ServerHandle>,
        roots: Vec<PathBuf>,
    },
}

fn start_server(root: &Path) -> Result<ServerHandle, String> {
    let service = QueryService::create(root, spec())
        .map_err(|e| format!("creating the catalog at {}: {e}", root.display()))?;
    serve(service, server_config()).map_err(|e| format!("starting a server: {e}"))
}

impl Deployment {
    pub fn start(kind: Kind, dir: &Path) -> Result<Deployment, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        if kind != Kind::Routed {
            let root = dir.join("catalog");
            return Ok(Deployment::Single {
                server: start_server(&root)?,
                root,
            });
        }
        let roots: Vec<PathBuf> = (0..ROUTED_NODES)
            .map(|i| dir.join(format!("node{i}")))
            .collect();
        let nodes = roots
            .iter()
            .map(|root| start_server(root))
            .collect::<Result<Vec<_>, _>>()?;
        let specs = nodes
            .iter()
            .map(|n| NodeSpec::tcp(n.tcp_addr().expect("nodes bind TCP").to_string()))
            .collect();
        let router = Router::new(specs, REPLICAS).map_err(|e| format!("router: {e}"))?;
        let router = serve_router(router, "127.0.0.1:0".parse().expect("literal address"))
            .map_err(|e| format!("starting the router: {e}"))?;
        Ok(Deployment::Routed {
            router,
            nodes,
            roots,
        })
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Deployment::Single { server, .. } => server.tcp_addr().expect("server binds TCP"),
            Deployment::Routed { router, .. } => router.addr(),
        }
    }

    pub fn roots(&self) -> Vec<PathBuf> {
        match self {
            Deployment::Single { root, .. } => vec![root.clone()],
            Deployment::Routed { roots, .. } => roots.clone(),
        }
    }

    pub fn servers(&self) -> Vec<&ServerHandle> {
        match self {
            Deployment::Single { server, .. } => vec![server],
            Deployment::Routed { nodes, .. } => nodes.iter().collect(),
        }
    }

    /// The catalog nodes behind a router; empty for a single server.
    pub fn node_addrs(&self) -> Vec<SocketAddr> {
        match self {
            Deployment::Single { .. } => Vec::new(),
            Deployment::Routed { nodes, .. } => nodes
                .iter()
                .map(|n| n.tcp_addr().expect("nodes bind TCP"))
                .collect(),
        }
    }

    pub fn router(&self) -> Option<&RouterHandle> {
        match self {
            Deployment::Single { .. } => None,
            Deployment::Routed { router, .. } => Some(router),
        }
    }

    /// Stops every server and router thread and waits for them.
    pub fn shutdown(self) {
        match self {
            Deployment::Single { server, .. } => server.shutdown(),
            Deployment::Routed { router, nodes, .. } => {
                router.shutdown();
                for node in nodes {
                    node.shutdown();
                }
            }
        }
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copies a catalog directory and makes the copy durable, so that commits
/// timed on the copy do not also pay for flushing the copy itself.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
            std::fs::File::open(&target)?.sync_all()?;
        }
    }
    std::fs::File::open(to)?.sync_all()
}

fn wire_query(table: &Table) -> WireQuery {
    let column = &table.columns()[0];
    WireQuery {
        table: table.name().to_string(),
        column: column.name.clone(),
        keys: table.keys().to_vec(),
        values: column.values.clone(),
    }
}

/// The request line of distinct request `id`: a `query` for one query column,
/// a `batch-query` for several.
pub fn query_line(id: u64, queries: &[Table], inputs: &Inputs) -> String {
    let body = match queries {
        [one] => RequestBody::Query {
            mode: inputs.mode,
            k: K as u64,
            min_join_size: inputs.min_join_size,
            cascade: inputs.cascade,
            query: wire_query(one),
        },
        many => RequestBody::BatchQuery {
            mode: inputs.mode,
            k: K as u64,
            min_join_size: inputs.min_join_size,
            cascade: inputs.cascade,
            queries: many.iter().map(wire_query).collect(),
        },
    };
    Request {
        id: Json::u64(id),
        body,
    }
    .encode()
}

pub fn ingest_line(id: u64, table: &Table) -> String {
    Request {
        id: Json::u64(id),
        body: RequestBody::Ingest {
            table: WireTable::from_table(table),
            partitions: None,
        },
    }
    .encode()
}

/// The reply an ingest must get: every column registered, in column order
/// from a node, in key order from the router (both orders agree here, since a
/// table's columns are named in ascending order).
pub fn ingest_reply(id: u64, table: &Table) -> String {
    Response {
        id: Json::u64(id),
        result: Ok(ResponseBody::Report {
            registered: table
                .columns()
                .iter()
                .map(|c| (table.name().to_string(), c.name.clone()))
                .collect(),
            skipped: Vec::new(),
        }),
    }
    .encode()
}

/// Operations sent and how they went.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    pub attempted: u64,
    pub failed: u64,
}

impl OpLog {
    pub fn add(&mut self, other: &OpLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One ingest stream's outcome.
#[derive(Debug, Clone, Default)]
pub struct IngestRun {
    pub ops: OpLog,
    pub latencies: Vec<Duration>,
    pub rows: u64,
    pub wall: Duration,
    /// How far behind its schedule a paced writer started a request.
    pub lateness: Duration,
}

/// Ingests `tables` over `connections` connections, table `i` on connection
/// `i % connections`, checking every reply.
pub fn ingest(addr: SocketAddr, tables: &[Table], connections: usize) -> IngestRun {
    let started = Instant::now();
    let parts: Vec<IngestRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut run = IngestRun::default();
                    let mut conn = Conn::connect(addr).ok();
                    for (i, table) in tables.iter().enumerate().skip(c).step_by(connections) {
                        let line = ingest_line(i as u64, table);
                        let expected = ingest_reply(i as u64, table);
                        let sent = Instant::now();
                        let reply = conn.as_mut().map(|conn| conn.call(&line));
                        run.ops.attempted += 1;
                        match reply {
                            Some(Ok(reply)) if reply == expected => {
                                run.latencies.push(sent.elapsed());
                                run.rows += table.rows() as u64;
                            }
                            Some(Ok(reply)) => {
                                eprintln!("ingest {i}: unexpected reply {}", clip(&reply));
                                run.ops.failed += 1;
                            }
                            Some(Err(e)) => {
                                eprintln!("ingest {i}: {e}");
                                run.ops.failed += 1;
                                conn = Conn::connect(addr).ok();
                            }
                            None => run.ops.failed += 1,
                        }
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest thread panicked"))
            .collect()
    });
    let mut total = IngestRun {
        wall: started.elapsed(),
        ..IngestRun::default()
    };
    for part in parts {
        total.ops.add(&part.ops);
        total.latencies.extend(part.latencies);
        total.rows += part.rows;
    }
    total
}

/// The first 200 characters of a reply, for error messages.
pub fn clip(text: &str) -> &str {
    match text.char_indices().nth(200) {
        Some((at, _)) => &text[..at],
        None => text,
    }
}

//! One benchmark run: set-up (repeated), the in-process reference, the timed
//! closed loop on two connections, answer checks, and the metrics.

use crate::client::Conn;
use crate::deploy::{
    self, clip, copy_dir, dir_bytes, ingest, ingest_line, ingest_reply, query_line, Deployment,
    IngestRun, OpLog,
};
use crate::host::{peak_rss_mb, HostSample};
use crate::inputs::{self, Inputs, Kind, K};
use crate::report::{Metric, Report};
use crate::stats::{self, median, millis, quantile, ratio};
use crate::trace::{self, Tracer};
use ipsketch_core::runner::{default_threads, parallel_map};
use ipsketch_data::Table;
use ipsketch_join::{
    exact_join_statistics, JoinEstimator, RankedColumn, SketchIndex, SketchedColumn,
    DEFAULT_CASCADE_CONFIDENCE,
};
use ipsketch_serve::protocol::{
    Mode, Request, RequestBody, Response, ResponseBody, WireClusterStats, WireRanked,
    WireServerStats,
};
use ipsketch_serve::wire::Json;
use ipsketch_serve::{Catalog, QueryService};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 4;
/// Client connections of every workload, each kept busy.
const CONNECTIONS: usize = 2;
/// Untimed requests per connection before the timed phase.
const WARMUP_PER_CONNECTION: usize = 1;
/// In a traced run, every this-many-th traced request is replayed in process.
const REPLAY_EVERY: u64 = 4;
/// Pre-sketched tables committed one by one to time a catalog commit, after
/// untimed warm-up commits (the first commits into a fresh copy are slower).
const COMMIT_PROBES: usize = 16;
const COMMIT_WARMUP: usize = 4;

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A deployment that finished set-up, with what set-up measured.
struct Rep {
    inputs: Inputs,
    lines: Vec<String>,
    deployment: Deployment,
    setup: Duration,
    ingest: IngestRun,
    warmup: OpLog,
}

/// Generates inputs, starts the servers, ingests the catalog over the wire on
/// two connections and sends untimed warm-up requests: everything a user pays
/// before the first answer.
fn set_up(args: &Args, slice: Duration, dir: &Path) -> Result<Rep, String> {
    let started = Instant::now();
    let inputs = Inputs::generate(args.kind, args.seed, slice);
    let lines: Vec<String> = inputs
        .requests
        .iter()
        .enumerate()
        .map(|(i, queries)| query_line(i as u64, queries, &inputs))
        .collect();
    let deployment = Deployment::start(args.kind, dir)?;
    let ingest = ingest(deployment.addr(), &inputs.catalog, CONNECTIONS);
    let warmup = warm_up(deployment.addr(), &lines);
    Ok(Rep {
        setup: started.elapsed(),
        inputs,
        lines,
        deployment,
        ingest,
        warmup,
    })
}

fn warm_up(addr: SocketAddr, lines: &[String]) -> OpLog {
    let parts: Vec<OpLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut ops = OpLog::default();
                    let mut conn = Conn::connect(addr).ok();
                    for j in 0..WARMUP_PER_CONNECTION {
                        let line = &lines[(c * lines.len() / CONNECTIONS + j) % lines.len()];
                        ops.attempted += 1;
                        let ok = conn
                            .as_mut()
                            .and_then(|conn| conn.call(line).ok())
                            .and_then(|reply| Response::decode(&reply).ok())
                            .is_some_and(|response| response.result.is_ok());
                        if !ok {
                            ops.failed += 1;
                        }
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let mut ops = OpLog::default();
    for part in &parts {
        ops.add(part);
    }
    ops
}

/// The answers the servers must give, computed in process: a single-node
/// index over the served columns, ranked by the flat scan.
struct Reference {
    index: SketchIndex,
    open_hydrate: Duration,
    replies: Vec<String>,
}

fn build_reference(rep: &Rep) -> Result<Reference, String> {
    let started = Instant::now();
    let index = match &rep.deployment {
        Deployment::Single { root, .. } => {
            let mut service =
                QueryService::open(root).map_err(|e| format!("reopening the catalog: {e}"))?;
            service
                .ensure_hydrated()
                .map_err(|e| format!("hydrating the catalog: {e}"))?;
            service.index().clone()
        }
        Deployment::Routed { roots, .. } => merged_index(roots)?,
    };
    let open_hydrate = started.elapsed();

    let queries: Vec<&Table> = rep.inputs.queries().collect();
    let sketched = parallel_map(&queries, CONNECTIONS, |q| {
        index.sketch_query(q, &q.columns()[0].name)
    });
    let mut sketched = sketched.into_iter();
    let mut replies = Vec::with_capacity(rep.inputs.requests.len());
    for (i, request) in rep.inputs.requests.iter().enumerate() {
        let mut rankings = Vec::with_capacity(request.len());
        for _ in request {
            let query = sketched
                .next()
                .expect("one sketch per query")
                .map_err(|e| format!("sketching a query: {e}"))?;
            let ranking = match rep.inputs.mode {
                Mode::Joinable => index.top_k_joinable(&query, K),
                Mode::Related => index.top_k_correlated(&query, K, rep.inputs.min_join_size),
            }
            .map_err(|e| format!("ranking a query: {e}"))?;
            rankings.push(ranking);
        }
        replies.push(ranking_reply(i as u64, &rankings).encode());
    }
    Ok(Reference {
        index,
        open_hydrate,
        replies,
    })
}

/// One index over every column of the routed nodes, as a single node would hold them.
fn merged_index(roots: &[PathBuf]) -> Result<SketchIndex, String> {
    let spec = deploy::spec();
    let build = |spec: ipsketch_core::SketcherSpec| {
        spec.build()
            .map(JoinEstimator::new)
            .map_err(|e| format!("building a sketcher: {e}"))
    };
    let mut index = SketchIndex::new(build(spec)?);
    index.set_companion_estimator(Some(build(Catalog::default_companion_spec(spec))?));
    for root in roots {
        let catalog = Catalog::open(root).map_err(|e| format!("opening a node catalog: {e}"))?;
        for entry in catalog.live_entries() {
            if index.contains(&entry.table, &entry.column) {
                continue;
            }
            let load_err = |e: ipsketch_serve::CatalogError| format!("loading a sketch: {e}");
            let column = catalog.load_entry(entry).map_err(load_err)?;
            let companion = catalog.load_companion_entry(entry).map_err(load_err)?;
            index
                .insert_sketched_with_companion(column, companion)
                .map_err(|e| format!("indexing a sketch: {e}"))?;
        }
    }
    Ok(index)
}

fn ranking_reply(id: u64, rankings: &[Vec<RankedColumn>]) -> Response {
    let wire = |ranking: &Vec<RankedColumn>| ranking.iter().map(WireRanked::from).collect();
    let body = match rankings {
        [one] => ResponseBody::Ranking {
            ranking: wire(one),
            note: None,
        },
        many => ResponseBody::Rankings {
            rankings: many.iter().map(wire).collect(),
            note: None,
        },
    };
    Response {
        id: Json::u64(id),
        result: Ok(body),
    }
}

/// The exact top-k of one query column over the catalog tables, by join size
/// (joinable) or by |correlation| among joins of at least `min_join_size` rows
/// (related), with the service's `(score, table, column)` order.
fn exact_top(
    query: &Table,
    catalog: &[Table],
    mode: Mode,
    min_join_size: f64,
) -> Vec<(String, String)> {
    let column = &query.columns()[0].name;
    let mut scored: Vec<(f64, String, String)> = Vec::new();
    for table in catalog.iter().filter(|t| t.name() != query.name()) {
        for candidate in table.columns() {
            let exact = exact_join_statistics(query, column, table, &candidate.name)
                .expect("both columns exist");
            let score = match mode {
                Mode::Joinable if exact.join_size > 0.0 => exact.join_size,
                Mode::Related if exact.join_size >= min_join_size.max(1.0) => {
                    exact.correlation.abs()
                }
                _ => continue,
            };
            scored.push((score, table.name().to_string(), candidate.name.clone()));
        }
    }
    scored.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| (&a.1, &a.2).cmp(&(&b.1, &b.2)))
    });
    scored
        .into_iter()
        .take(K)
        .map(|(_, table, column)| (table, column))
        .collect()
}

/// Mean overlap of each served top-k with the exact top-k.
fn recall(inputs: &Inputs, served: &BTreeMap<usize, String>) -> f64 {
    let mut pairs: Vec<(&Table, Vec<(String, String)>)> = Vec::new();
    for (&r, line) in served {
        let Ok(Response {
            result: Ok(body), ..
        }) = Response::decode(line)
        else {
            continue;
        };
        let rankings = match body {
            ResponseBody::Ranking { ranking, .. } => vec![ranking],
            ResponseBody::Rankings { rankings, .. } => rankings,
            _ => continue,
        };
        for (query, ranking) in inputs.requests[r].iter().zip(rankings) {
            let ids = ranking.into_iter().map(|w| (w.table, w.column)).collect();
            pairs.push((query, ids));
        }
    }
    let overlaps = parallel_map(&pairs, CONNECTIONS, |(query, served)| {
        let exact = exact_top(query, &inputs.catalog, inputs.mode, inputs.min_join_size);
        stats::overlap(served, &exact)
    });
    stats::mean(&overlaps)
}

/// Read-only state the client threads share.
struct Ctx<'a> {
    kind: Kind,
    inputs: &'a Inputs,
    lines: &'a [String],
    replies: &'a [String],
    index: &'a SketchIndex,
    addr: SocketAddr,
    node_addrs: Vec<SocketAddr>,
    trace: bool,
    origin: Instant,
    /// In a traced run, requests sent from this instant on are traced.
    traced_from: Instant,
}

impl Ctx<'_> {
    fn traced_now(&self) -> bool {
        self.trace && Instant::now() >= self.traced_from
    }
}

/// One client request's outcome.
struct Sample {
    latency: Duration,
    traced: bool,
    replayed: bool,
}

/// One client connection's thread state.
struct Client<'a> {
    ctx: &'a Ctx<'a>,
    thread: u64,
    conn: Option<Conn>,
    ops: OpLog,
    queries_ok: u64,
    samples: Vec<Sample>,
    served: BTreeMap<usize, String>,
    ingest: IngestRun,
    tracer: Tracer,
    seq: u64,
    /// Survivors and candidates of the replayed cascades.
    cascade: (u64, u64),
    node_conns: Vec<Option<Conn>>,
    node_calls: Vec<Vec<Duration>>,
    /// The catalog replayed ingests commit to (the writer of `ingest_mix`).
    replay_copy: Option<QueryService>,
}

impl<'a> Client<'a> {
    fn new(ctx: &'a Ctx<'a>, thread: u64) -> Client<'a> {
        Client {
            ctx,
            thread,
            conn: Conn::connect(ctx.addr).ok(),
            ops: OpLog::default(),
            queries_ok: 0,
            samples: Vec::new(),
            served: BTreeMap::new(),
            ingest: IngestRun::default(),
            tracer: Tracer::new(ctx.origin),
            seq: 0,
            cascade: (0, 0),
            node_conns: ctx.node_addrs.iter().map(|_| None).collect(),
            node_calls: vec![Vec::new(); ctx.node_addrs.len()],
            replay_copy: None,
        }
    }

    /// One round trip; a broken connection is reopened for the next call.
    fn call(&mut self, line: &str) -> Result<String, String> {
        if self.conn.is_none() {
            self.conn = Conn::connect(self.ctx.addr).ok();
        }
        let conn = self.conn.as_mut().ok_or("cannot connect")?;
        conn.call(line).map_err(|e| {
            self.conn = None;
            e.to_string()
        })
    }

    /// Sends distinct request `r`, checks the reply byte for byte and, when
    /// traced, records it and maybe replays its layers.
    fn query(&mut self, r: usize) {
        let ctx = self.ctx;
        let traced = ctx.traced_now();
        let start = Instant::now();
        let reply = self.call(&ctx.lines[r]);
        let end = Instant::now();
        self.ops.attempted += 1;
        let queries = ctx.inputs.requests[r].len() as u64;
        match &reply {
            Ok(line) if *line == ctx.replies[r] => self.queries_ok += queries,
            Ok(line) => {
                self.ops.failed += 1;
                eprintln!(
                    "request {r}: reply differs from the reference: {}",
                    clip(line)
                );
            }
            Err(e) => {
                self.ops.failed += 1;
                eprintln!("request {r}: {e}");
            }
        }
        if let Ok(line) = reply {
            self.served.entry(r).or_insert(line);
        }
        let mut replayed = false;
        if traced {
            self.seq += 1;
            let id = self.thread << 32 | self.seq;
            self.tracer.record("request", id, None, start, end, queries);
            if self.seq.is_multiple_of(REPLAY_EVERY) {
                self.replay_query(r, id);
                replayed = true;
            }
        }
        self.samples.push(Sample {
            latency: end - start,
            traced,
            replayed,
        });
    }

    /// Replays request `r` in process, layer by layer in the server's order
    /// (decode, primary sketch, companion sketch, rank, encode), then probes
    /// the flat scan and, behind a router, calls each node directly.
    fn replay_query(&mut self, r: usize, id: u64) {
        let ctx = self.ctx;
        let index = ctx.index;
        let line = &ctx.lines[r];
        let tracer = &mut self.tracer;
        let root = tracer.open("replay", id, None);
        let tables = tracer.time("protocol.decode", id, Some(root), line.len() as u64, || {
            match Request::decode(line).expect("request lines decode").body {
                RequestBody::Query { query, .. } => vec![query.to_table()],
                RequestBody::BatchQuery { queries, .. } => {
                    queries.iter().map(|q| q.to_table()).collect()
                }
                _ => unreachable!("query lines carry queries"),
            }
            .into_iter()
            .collect::<Result<Vec<Table>, _>>()
            .expect("query columns are valid tables")
        });
        let sketch = |tracer: &mut Tracer, name, est: &JoinEstimator| -> Vec<SketchedColumn> {
            tables
                .iter()
                .map(|t| {
                    tracer.time(name, id, Some(root), t.rows() as u64, || {
                        est.sketch_column(t, &t.columns()[0].name)
                            .expect("query columns sketch")
                    })
                })
                .collect()
        };
        let primaries = sketch(tracer, "core.wmh_sketch", index.estimator());
        let cascade = ctx.inputs.cascade;
        let companions = if cascade {
            let companion = index
                .companion_estimator()
                .expect("catalogs carry companions");
            sketch(tracer, "core.companion_sketch", companion)
        } else {
            Vec::new()
        };
        let pairs: Vec<(SketchedColumn, SketchedColumn)> = primaries
            .iter()
            .cloned()
            .zip(companions.iter().cloned())
            .collect();
        let n = tables.len() as u64;
        let rankings = tracer
            .time("join.rank", id, Some(root), n, || match ctx.inputs.mode {
                Mode::Joinable if cascade => {
                    index.top_k_joinable_cascade_batch(&pairs, K, DEFAULT_CASCADE_CONFIDENCE)
                }
                Mode::Joinable => index.top_k_joinable_batch(&primaries, K),
                Mode::Related => {
                    index.top_k_correlated_batch(&primaries, K, ctx.inputs.min_join_size)
                }
            })
            .expect("reference ranks");
        let response = ranking_reply(r as u64, &rankings);
        tracer.time("protocol.encode", id, Some(root), 1, || response.encode());
        tracer.close(root, n);

        tracer.time("join.flat_rank", id, None, n, || {
            for query in &primaries {
                index.top_k_joinable(query, K).expect("reference ranks");
            }
        });
        for (primary, companion) in &pairs {
            let (_, stats) = index
                .top_k_joinable_cascade(primary, companion, K, DEFAULT_CASCADE_CONFIDENCE)
                .expect("reference ranks");
            self.cascade.0 += stats.survivors as u64;
            self.cascade.1 += stats.candidates as u64;
        }
        if !ctx.node_addrs.is_empty() {
            let direct = self.tracer.open("router.direct", id, None);
            for node in 0..ctx.node_addrs.len() {
                if self.node_conns[node].is_none() {
                    self.node_conns[node] = Conn::connect(ctx.node_addrs[node]).ok();
                }
                let start = Instant::now();
                let ok = self.node_conns[node]
                    .as_mut()
                    .is_some_and(|conn| conn.call(line).is_ok());
                let end = Instant::now();
                if ok {
                    self.tracer
                        .record("router.node_call", id, Some(direct), start, end, 1);
                    self.node_calls[node].push(end - start);
                } else {
                    self.node_conns[node] = None;
                }
            }
            self.tracer.close(direct, ctx.node_addrs.len() as u64);
        }
    }

    /// Ingests fresh table `j` once it is `due`, checks the report, and
    /// times it from `due`, so a writer that falls behind its schedule
    /// counts the backlog in the latency.
    fn ingest_fresh(&mut self, j: usize, due: Instant) {
        let ctx = self.ctx;
        let table = &ctx.inputs.fresh[j];
        let line = ingest_line(j as u64, table);
        let expected = ingest_reply(j as u64, table);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let traced = ctx.traced_now();
        let start = Instant::now();
        self.ingest.lateness = self.ingest.lateness.max(start - due);
        let reply = self.call(&line);
        let end = Instant::now();
        self.ops.attempted += 1;
        self.ingest.ops.attempted += 1;
        match reply {
            Ok(reply) if reply == expected => {
                self.ingest.latencies.push(end - due);
                self.ingest.rows += table.rows() as u64;
            }
            other => {
                self.ops.failed += 1;
                self.ingest.ops.failed += 1;
                eprintln!(
                    "fresh ingest {j}: {:?}",
                    other.map(|l| clip(&l).to_string())
                );
            }
        }
        if traced {
            self.seq += 1;
            let id = self.thread << 32 | self.seq;
            self.tracer
                .record("ingest", id, None, start, end, table.rows() as u64);
            if self.seq.is_multiple_of(REPLAY_EVERY) {
                self.replay_ingest(&line, id);
            }
        }
    }

    /// Replays an ingest in process: decode, sketch both tiers, commit to a
    /// copy of the catalog.
    fn replay_ingest(&mut self, line: &str, id: u64) {
        let index = self.ctx.index;
        let tracer = &mut self.tracer;
        let root = tracer.open("replay_ingest", id, None);
        let table = tracer.time("protocol.decode", id, Some(root), line.len() as u64, || {
            match Request::decode(line).expect("ingest lines decode").body {
                RequestBody::Ingest { table, .. } => {
                    table.to_table().expect("fresh tables are valid")
                }
                _ => unreachable!("ingest lines carry tables"),
            }
        });
        let rows = table.rows() as u64;
        let mut primaries = Vec::new();
        let mut companions = Vec::new();
        let companion = index
            .companion_estimator()
            .expect("catalogs carry companions");
        for column in table.columns() {
            primaries.push(tracer.time("core.wmh_sketch", id, Some(root), rows, || {
                index
                    .estimator()
                    .sketch_column(&table, &column.name)
                    .expect("sketches")
            }));
            companions.push(Some(tracer.time(
                "core.companion_sketch",
                id,
                Some(root),
                rows,
                || {
                    companion
                        .sketch_column(&table, &column.name)
                        .expect("sketches")
                },
            )));
        }
        if let Some(replay_copy) = self.replay_copy.as_mut() {
            tracer.time("catalog.commit", id, Some(root), 1, || {
                replay_copy
                    .register_sketched_with_companions(primaries, companions)
                    .expect("commit to the replay copy")
            });
        }
        tracer.close(root, 1);
    }
}

/// What the timed phase produced, over both clients.
struct Timed {
    wall: Duration,
    ops: OpLog,
    queries_ok: u64,
    samples: Vec<Sample>,
    served: BTreeMap<usize, String>,
    ingest: IngestRun,
    tracer: Tracer,
    cascade: (u64, u64),
    node_calls: Vec<Vec<Duration>>,
    /// `runner::default_threads()` while the servers run.
    runner_threads: usize,
}

impl Timed {
    /// Adds the results of another client or a later slice.
    fn absorb(&mut self, other: Timed) {
        self.wall += other.wall;
        self.ops.add(&other.ops);
        self.queries_ok += other.queries_ok;
        self.samples.extend(other.samples);
        for (r, line) in other.served {
            self.served.entry(r).or_insert(line);
        }
        self.ingest.ops.add(&other.ingest.ops);
        self.ingest.latencies.extend(other.ingest.latencies);
        self.ingest.rows += other.ingest.rows;
        self.ingest.wall += other.ingest.wall;
        self.ingest.lateness = self.ingest.lateness.max(other.ingest.lateness);
        self.tracer.absorb(other.tracer);
        self.cascade.0 += other.cascade.0;
        self.cascade.1 += other.cascade.1;
        self.node_calls.resize(
            self.node_calls.len().max(other.node_calls.len()),
            Vec::new(),
        );
        for (all, mine) in self.node_calls.iter_mut().zip(other.node_calls) {
            all.extend(mine);
        }
    }
}

fn timed_phase(ctx: &Ctx<'_>, length: Duration, replay_copy: Option<QueryService>) -> Timed {
    let n = ctx.lines.len();
    let runner_threads = default_threads();
    let started = Instant::now();
    let deadline = started + length;
    let writer_done = AtomicBool::new(false);
    let clients: Vec<Client<'_>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        if ctx.kind == Kind::IngestMix {
            let writer_done = &writer_done;
            handles.push(scope.spawn(move || {
                let mut client = Client::new(ctx, 0);
                client.replay_copy = replay_copy;
                // The writer ingests its fixed sequence on a fixed schedule
                // spread over the run; readers query until the last ingest
                // is acknowledged.
                let total = ctx.inputs.fresh.len();
                let interval = length / total.max(1) as u32;
                for j in 0..total {
                    client.ingest_fresh(j, started + interval * j as u32);
                }
                client.ingest.wall = started.elapsed();
                writer_done.store(true, Ordering::Relaxed);
                client
            }));
            handles.push(scope.spawn(move || {
                let mut client = Client::new(ctx, 1);
                let mut r = 0;
                while !writer_done.load(Ordering::Relaxed) {
                    client.query(r % n);
                    r += 1;
                }
                client
            }));
        } else {
            for c in 0..CONNECTIONS {
                handles.push(scope.spawn(move || {
                    let mut client = Client::new(ctx, c as u64);
                    let mut r = c * n / CONNECTIONS;
                    while Instant::now() < deadline {
                        client.query(r % n);
                        r += 1;
                    }
                    client
                }));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut timed = Timed {
        wall: started.elapsed(),
        ops: OpLog::default(),
        queries_ok: 0,
        samples: Vec::new(),
        served: BTreeMap::new(),
        ingest: IngestRun::default(),
        tracer: Tracer::new(ctx.origin),
        cascade: (0, 0),
        node_calls: Vec::new(),
        runner_threads,
    };
    for client in clients {
        timed.absorb(Timed {
            wall: Duration::ZERO,
            ops: client.ops,
            queries_ok: client.queries_ok,
            samples: client.samples,
            served: client.served,
            ingest: client.ingest,
            tracer: client.tracer,
            cascade: client.cascade,
            node_calls: client.node_calls,
            runner_threads,
        });
    }
    timed
}

/// A durable copy of `catalog` at `copy`, opened and hydrated.
fn open_copy(catalog: &Path, copy: &Path) -> Result<QueryService, String> {
    copy_dir(catalog, copy).map_err(|e| format!("copying the catalog: {e}"))?;
    let mut service = QueryService::open(copy).map_err(|e| format!("opening a copy: {e}"))?;
    service
        .ensure_hydrated()
        .map_err(|e| format!("hydrating a copy: {e}"))?;
    Ok(service)
}

/// Commits each pre-sketched probe table to both catalogs, alternating which
/// goes first so that both see the same disk conditions; returns each
/// catalog's commit times after the first [`COMMIT_WARMUP`].
fn commit_probes(
    small: &mut QueryService,
    large: &mut QueryService,
    index: &SketchIndex,
    probes: &[Table],
) -> Result<(Vec<Duration>, Vec<Duration>), String> {
    let companion = index
        .companion_estimator()
        .expect("catalogs carry companions");
    let mut times = (Vec::new(), Vec::new());
    for (i, table) in probes.iter().enumerate() {
        let mut primaries = Vec::new();
        let mut companions = Vec::new();
        for column in table.columns() {
            let sketch = |est: &JoinEstimator| {
                est.sketch_column(table, &column.name)
                    .map_err(|e| format!("sketching a probe: {e}"))
            };
            primaries.push(sketch(index.estimator())?);
            companions.push(Some(sketch(companion)?));
        }
        let mut pair = [(&mut *small, &mut times.0), (&mut *large, &mut times.1)];
        if i % 2 == 1 {
            pair.reverse();
        }
        for (service, times) in pair {
            let started = Instant::now();
            service
                .register_sketched_with_companions(primaries.clone(), companions.clone())
                .map_err(|e| format!("committing a probe: {e}"))?;
            if i >= COMMIT_WARMUP {
                times.push(started.elapsed());
            }
        }
    }
    Ok(times)
}

/// What a traced run measures around its single slice.
struct TraceExtras {
    server_stats: Vec<WireServerStats>,
    router: Option<(WireClusterStats, WireClusterStats)>,
    served_columns: usize,
    commit_start: Vec<Duration>,
    commit_end: Vec<Duration>,
}

/// Runs the workload and returns its result line. `dir` holds the catalogs
/// and is removed at the end; a traced run writes its spans to `spans_file`.
pub fn run(args: &Args, dir: &Path, spans_file: &Path) -> Result<Report, String> {
    // An untraced run sets up three times and serves one slice of the timed
    // phase from each deployment: the host's speed wanders over seconds, and
    // slices spread over the run average that out far better than one block.
    let slices = if args.trace { 1 } else { SETUP_REPS };
    let slice = Duration::from_secs_f64(args.seconds as f64 / slices as f64);
    let mut ops = OpLog::default();
    let mut setups = Vec::new();
    let mut setup_ingests = Vec::new();
    let mut reference: Option<Reference> = None;
    let mut catalog_bytes = 0;
    let mut timed: Option<Timed> = None;
    let (mut steal_pcts, mut cpu_s) = (Vec::new(), 0.0);
    let mut extras = None;
    let mut last = None;
    for r in 0..slices {
        // Earlier set-ups' catalogs stay on disk until the run ends: deleting
        // thousands of files would load the file system journal just when the
        // next set-up's commits wait for it.
        let rep_dir = dir.join(format!("rep{r}"));
        let host = HostSample::now();
        let rep = set_up(args, slice, &rep_dir)?;
        let host_after = HostSample::now();
        ops.add(&rep.ingest.ops);
        ops.add(&rep.warmup);
        eprintln!(
            "set-up {}: {:.3} s, {} tables ingested at {:.0} rows/s; host steal {:.2}%, cpu {:.2} s",
            r + 1,
            rep.setup.as_secs_f64(),
            rep.inputs.catalog.len(),
            ratio(rep.ingest.rows as f64, rep.ingest.wall.as_secs_f64()),
            host.steal_pct(&host_after),
            host.cpu_seconds(&host_after)
        );
        setups.push(rep.setup.as_secs_f64());
        setup_ingests.push(rep.ingest.clone());

        let roots = rep.deployment.roots();
        // Every set-up builds the same catalog, so one reference serves all.
        if reference.is_none() {
            catalog_bytes = roots.iter().map(|r| dir_bytes(r)).sum();
            reference = Some(build_reference(&rep)?);
            eprintln!(
                "catalogs under {} ({:.3} MiB); reference ready",
                rep_dir.display(),
                catalog_bytes as f64 / 1048576.0
            );
        }
        let reference = reference.as_ref().expect("built above");

        // Traced runs snapshot the catalog at its set-up size, to time
        // commits on a copy of it after the timed phase, beside a copy at the
        // end size; `ingest_mix` also replays its writes into a copy.
        let start_snapshot = dir.join("start_snapshot");
        let replay_copy = if args.trace {
            copy_dir(&roots[0], &start_snapshot)
                .map_err(|e| format!("copying the catalog: {e}"))?;
            if args.kind == Kind::IngestMix {
                Some(open_copy(&roots[0], &dir.join("replay"))?)
            } else {
                None
            }
        } else {
            None
        };

        let ctx = Ctx {
            kind: args.kind,
            inputs: &rep.inputs,
            lines: &rep.lines,
            replies: &reference.replies,
            index: &reference.index,
            addr: rep.deployment.addr(),
            node_addrs: rep.deployment.node_addrs(),
            trace: args.trace,
            origin: Instant::now(),
            traced_from: Instant::now() + slice / 2,
        };
        let router_before = rep.deployment.router().map(|r| r.stats());
        let host_before = HostSample::now();
        let part = timed_phase(&ctx, slice, replay_copy);
        let host_after = HostSample::now();
        steal_pcts.push(host_before.steal_pct(&host_after));
        cpu_s += host_before.cpu_seconds(&host_after);
        ops.add(&part.ops);
        match timed.as_mut() {
            Some(all) => all.absorb(part),
            None => timed = Some(part),
        }
        if args.trace {
            extras = Some(TraceExtras {
                server_stats: rep
                    .deployment
                    .servers()
                    .iter()
                    .map(|s| s.metrics().snapshot())
                    .collect(),
                router: router_before.zip(rep.deployment.router().map(|r| r.stats())),
                served_columns: roots
                    .iter()
                    .map(|root| Catalog::open(root).map_or(0, |c| c.len()))
                    .sum(),
                commit_start: Vec::new(),
                commit_end: Vec::new(),
            });
        }
        rep.deployment.shutdown();
        if let Some(extras) = extras.as_mut() {
            let probes = inputs::probe_tables(COMMIT_WARMUP + COMMIT_PROBES, args.seed);
            // The copy made last commits faster for a while, so each size is
            // copied and timed twice, once in each creation order.
            for round in 0..2 {
                let copy = |source: &Path, name: &str| {
                    open_copy(source, &dir.join(format!("commit_{name}{round}")))
                };
                let (mut start, mut end) = if round == 0 {
                    let start = copy(&start_snapshot, "start")?;
                    (start, copy(&roots[0], "end")?)
                } else {
                    let end = copy(&roots[0], "end")?;
                    (copy(&start_snapshot, "start")?, end)
                };
                let (small, large) =
                    commit_probes(&mut start, &mut end, &reference.index, &probes)?;
                extras.commit_start.extend(small);
                extras.commit_end.extend(large);
            }
        }
        last = Some((rep.inputs, rep.lines));
    }
    let (inputs, lines) = last.expect("at least one slice");
    let reference = reference.expect("built with the first set-up");
    let timed = timed.expect("at least one slice");
    let steal_pct = stats::mean(&steal_pcts);

    if args.trace {
        let written = spans_file
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(spans_file, trace::to_json_lines(timed.tracer.spans())));
        match written {
            Ok(()) => eprintln!("spans written to {}", spans_file.display()),
            Err(e) => return Err(format!("writing {}: {e}", spans_file.display())),
        }
    }
    if args.kind == Kind::IngestMix {
        eprintln!(
            "writer: {} tables in {:.3} s, at most {:.1} ms behind its schedule",
            timed.ingest.latencies.len(),
            timed.ingest.wall.as_secs_f64(),
            timed.ingest.lateness.as_secs_f64() * 1e3
        );
    }
    let recall = recall(&inputs, &timed.served);
    let correct = ops.failed == 0;
    eprintln!(
        "{}: {} operations, {} failed, {} of {} distinct requests served; host steal {:.2}%, cpu {:.2} s",
        args.kind.name(),
        ops.attempted,
        ops.failed,
        timed.served.len(),
        lines.len(),
        steal_pct,
        cpu_s
    );

    let metrics = match &extras {
        Some(extras) => layer_metrics(&LayerInputs {
            kind: args.kind,
            inputs: &inputs,
            lines: &lines,
            reference: &reference,
            timed: &timed,
            extras,
            catalog_bytes,
            steal_pct,
            cpu_s,
        }),
        None => {
            let query_ms: Vec<f64> =
                millis(&timed.samples.iter().map(|s| s.latency).collect::<Vec<_>>());
            let (ingest_ms, ingest_rate) = if args.kind == Kind::IngestMix {
                (
                    median(&millis(&timed.ingest.latencies)),
                    ratio(timed.ingest.rows as f64, timed.ingest.wall.as_secs_f64()),
                )
            } else {
                let all: Vec<Duration> = setup_ingests
                    .iter()
                    .flat_map(|i| i.latencies.clone())
                    .collect();
                let rates: Vec<f64> = setup_ingests
                    .iter()
                    .map(|i| ratio(i.rows as f64, i.wall.as_secs_f64()))
                    .collect();
                (median(&millis(&all)), median(&rates).unwrap_or(0.0))
            };
            vec![
                Metric::new(
                    "qps",
                    ratio(timed.queries_ok as f64, timed.wall.as_secs_f64()),
                    "1/s",
                ),
                Metric::new("p50_ms", median(&query_ms).unwrap_or(0.0), "ms"),
                Metric::new("p95_ms", quantile(&query_ms, 0.95).unwrap_or(0.0), "ms"),
                Metric::new("setup_s", median(&setups).unwrap_or(0.0), "s"),
                Metric::new("ingest_p50_ms", ingest_ms.unwrap_or(0.0), "ms"),
                Metric::new("ingest_rows_per_s", ingest_rate, "1/s"),
                Metric::new("recall_at_10", recall, "ratio"),
                Metric::new(
                    "ok_ratio",
                    1.0 - ratio(ops.failed as f64, ops.attempted as f64),
                    "ratio",
                ),
                Metric::new("rss_mb", peak_rss_mb(), "MiB"),
                Metric::new("catalog_mb", catalog_bytes as f64 / 1048576.0, "MiB"),
            ]
        }
    };
    let _ = std::fs::remove_dir_all(dir);
    Ok(Report {
        correct,
        attempted: ops.attempted.max(1),
        failed: ops.failed,
        metrics,
    })
}

struct LayerInputs<'a> {
    kind: Kind,
    inputs: &'a Inputs,
    lines: &'a [String],
    reference: &'a Reference,
    timed: &'a Timed,
    extras: &'a TraceExtras,
    catalog_bytes: u64,
    steal_pct: f64,
    cpu_s: f64,
}

/// The per-layer metrics of a traced run, and the self-time table on stderr.
fn layer_metrics(l: &LayerInputs<'_>) -> Vec<Metric> {
    let spans = l.timed.tracer.spans();
    print_layer_table(l.kind, spans);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let per_work_us = |name: &str| {
        let (total, work) = trace::totals(spans, name);
        ratio(us(total), work as f64)
    };
    let median_us =
        |name: &str| median(&millis(&trace::durations(spans, name))).map_or(0.0, |ms| ms * 1e3);
    let p50_ms = |traced: bool| {
        let ms: Vec<f64> = l
            .timed
            .samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        median(&ms).unwrap_or(0.0)
    };
    let service_us = median_us("replay");
    let op = if l.inputs.requests[0].len() > 1 {
        "batch-query"
    } else {
        "query"
    };
    let op_p50: Vec<f64> = l
        .extras
        .server_stats
        .iter()
        .filter_map(|s| s.ops.iter().find(|o| o.op == op))
        .map(|o| o.p50_us as f64)
        .collect();
    let node_p50: Vec<f64> = l
        .timed
        .node_calls
        .iter()
        .filter_map(|calls| median(&millis(calls)))
        .map(|ms| ms * 1e3)
        .collect();
    let routed_p50_us = median(
        &l.timed
            .samples
            .iter()
            .filter(|s| s.replayed)
            .map(|s| s.latency.as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let (fanouts, failovers) = l.extras.router.as_ref().map_or((0.0, 0.0), |(a, b)| {
        (
            ratio(
                b.fanouts.saturating_sub(a.fanouts) as f64,
                b.requests.saturating_sub(a.requests) as f64,
            ),
            b.failovers.saturating_sub(a.failovers) as f64,
        )
    });
    let survivor_ratio = if l.inputs.cascade {
        ratio(l.timed.cascade.0 as f64, l.timed.cascade.1 as f64)
    } else {
        1.0
    };
    let mut line_bytes: Vec<f64> = l.lines.iter().map(|s| s.len() as f64).collect();
    line_bytes.extend(
        l.inputs
            .fresh
            .iter()
            .enumerate()
            .map(|(j, t)| ingest_line(j as u64, t).len() as f64),
    );
    let ms = |d: &[Duration]| median(&millis(d)).unwrap_or(0.0);
    vec![
        Metric::new(
            "core.wmh_sketch_us_per_row",
            per_work_us("core.wmh_sketch"),
            "us",
        ),
        Metric::new(
            "core.companion_sketch_us_per_row",
            per_work_us("core.companion_sketch"),
            "us",
        ),
        Metric::new(
            "core.runner_threads",
            l.timed.runner_threads as f64,
            "count",
        ),
        Metric::new("join.rank_us", per_work_us("join.rank"), "us"),
        Metric::new("join.batch_rank_us", median_us("join.rank"), "us"),
        Metric::new("join.flat_rank_us", per_work_us("join.flat_rank"), "us"),
        Metric::new("join.survivor_ratio", survivor_ratio, "ratio"),
        Metric::new("protocol.decode_us", median_us("protocol.decode"), "us"),
        Metric::new(
            "protocol.request_kb",
            stats::mean(&line_bytes) / 1024.0,
            "KiB",
        ),
        Metric::new("protocol.encode_us", median_us("protocol.encode"), "us"),
        Metric::new("service.query_us", service_us, "us"),
        Metric::new("server.overhead_us", p50_ms(false) * 1e3 - service_us, "us"),
        Metric::new("server.op_p50_us", stats::mean(&op_p50), "us"),
        Metric::new(
            "server.queue_rejected",
            l.extras
                .server_stats
                .iter()
                .map(|s| s.queue_rejected as f64)
                .sum(),
            "count",
        ),
        Metric::new("catalog.commit_ms", ms(&l.extras.commit_start), "ms"),
        Metric::new("catalog.commit_end_ms", ms(&l.extras.commit_end), "ms"),
        Metric::new(
            "catalog.open_hydrate_ms",
            l.reference.open_hydrate.as_secs_f64() * 1e3,
            "ms",
        ),
        Metric::new(
            "catalog.bytes_per_column",
            ratio(l.catalog_bytes as f64, l.extras.served_columns as f64),
            "B",
        ),
        Metric::new("router.node_call_us", stats::mean(&node_p50), "us"),
        Metric::new(
            "router.overhead_us",
            if node_p50.is_empty() {
                0.0
            } else {
                routed_p50_us - node_p50.iter().sum::<f64>()
            },
            "us",
        ),
        Metric::new("router.fanouts_per_query", fanouts, "count"),
        Metric::new("router.failovers", failovers, "count"),
        Metric::new("host.steal_pct", l.steal_pct, "%"),
        Metric::new("host.cpu_s", l.cpu_s, "s"),
        Metric::new("trace.overhead_ms", p50_ms(true) - p50_ms(false), "ms"),
    ]
}

/// Prints every span name's count, total and self time; layers of the
/// replays also get their share of the replays' total time.
fn print_layer_table(kind: Kind, spans: &[trace::Span]) {
    // Parents are recorded before their children, so one pass finds roots.
    let mut roots: Vec<&str> = Vec::with_capacity(spans.len());
    for span in spans {
        let root = span.parent.map_or(span.name, |p| roots[p]);
        roots.push(root);
    }
    let replayed: std::collections::BTreeSet<&str> = spans
        .iter()
        .zip(&roots)
        .filter(|(_, root)| root.starts_with("replay"))
        .map(|(span, _)| span.name)
        .collect();
    let rows = trace::layer_table(spans);
    let replay_total: Duration = rows
        .iter()
        .filter(|r| r.name.starts_with("replay"))
        .map(|r| r.total)
        .sum();
    eprintln!("{} spans (share: of the replays' time):", kind.name());
    eprintln!(
        "  {:<24} {:>7} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "share"
    );
    for row in rows {
        let share = if replayed.contains(row.name) {
            let pct = 100.0 * ratio(row.self_time.as_secs_f64(), replay_total.as_secs_f64());
            format!("{pct:.1}%")
        } else {
            "-".to_string()
        };
        eprintln!(
            "  {:<24} {:>7} {:>12.3} {:>12.3} {:>7}",
            row.name,
            row.count,
            row.total.as_secs_f64() * 1e3,
            row.self_time.as_secs_f64() * 1e3,
            share
        );
    }
}

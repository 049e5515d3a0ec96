//! The serving layer: persistent sketch catalogs and a query service over them.
//!
//! The paper's headline workflow — sketch every column of a data lake *once*, then
//! answer joinability/relatedness queries "using a fraction of the computational
//! resources" of materialized joins — only pays off if sketches outlive the process
//! that built them.  This crate makes them durable and servable:
//!
//! * [`catalog`] — an on-disk store of [`SketchedColumn`](ipsketch_join::SketchedColumn)
//!   blobs under a versioned manifest ([`manifest`]) that records the full sketcher
//!   configuration, so incompatible sketches are rejected at load time.
//! * [`service`] — a [`QueryService`] that lazily hydrates
//!   catalog sketches into an in-memory
//!   [`SketchIndex`](ipsketch_join::SketchIndex), ingests new tables (one-shot,
//!   chunk-partitioned, or shard-partial via the two-pass announced-norm protocol),
//!   plus [`service::rank`], the one ranking path the node and the CLI both
//!   answer queries through.
//! * [`cli`] + the `ipsketch` binary — `catalog init` / `ingest` / `ingest-partial` /
//!   `query` / `info` / `serve`, driving the whole flow from CSV files with no code.
//! * [`csv`] — the tiny dependency-free CSV-to-[`Table`](ipsketch_data::Table) reader
//!   the CLI uses.
//! * [`wire`] + [`protocol`] — the line-delimited JSON wire format (normative spec in
//!   `docs/PROTOCOL.md`) and its typed request/response model, compiled and tested
//!   with or without the server itself.
//! * [`http`] — the HTTP/1.1 binding of the same protocol (routes, framing, status
//!   mapping), pure data like [`protocol`]: the server wires it to sockets, but the
//!   parser and encoder are tier-1 tested featureless.
//! * [`migrate`] — crash-safe, resumable transcoding of a read-only format-v1
//!   catalog into the current format (`ipsketch catalog migrate`), with estimates
//!   preserved bit-for-bit.
//! * [`metrics`] — lock-free server observability: per-op log-bucketed latency
//!   histograms, request/error counters, connection/queue gauges, snapshotted into
//!   the `info` op's optional `server` member.
//! * [`server`] (feature `server`) — the serving core: a `poll(2)` reactor driving
//!   both framers (line-delimited TCP and HTTP/1.1), a worker pool, configured
//!   overload shedding, metrics and one background thread, in front of a
//!   `Backend` — the catalog node (a [`QueryService`] whose writes publish
//!   immutable index snapshots that reads rank against without waiting,
//!   concurrent shard-partial ingest sessions, background catalog compaction)
//!   or the router.
//! * [`router`] (feature `server`) — the multi-node backend: rendezvous-hashed
//!   column placement with replication, fan-out reads merged under the
//!   deterministic total order, per-attempt deadlines with idempotent-only
//!   retries, a health lifecycle (threshold demotion, background probing),
//!   live rebalance between node lists, and the cross-node announced-norm
//!   round for wire-driven sharded ingest (`docs/PROTOCOL.md` § Cluster
//!   routing and § Timeouts, retries, and idempotency).
//! * [`faults`] (feature `server`) — the fault-injection TCP proxy the chaos
//!   suite and CI drive to prove the router's deadlines, failover, and
//!   health lifecycle under stalled, byte-dropping, garbage-speaking, and
//!   connection-resetting nodes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod cli;
pub mod csv;
pub mod error;
#[cfg(feature = "server")]
pub mod faults;
pub mod http;
pub mod manifest;
pub mod metrics;
pub mod migrate;
pub mod protocol;
#[cfg(feature = "server")]
pub mod router;
#[cfg(feature = "server")]
pub mod server;
pub mod service;
pub mod wire;

pub use catalog::Catalog;
pub use error::CatalogError;
pub use manifest::{CompanionRef, Manifest, ManifestEntry};
pub use migrate::{derived_companion_spec, migrate_catalog, MigrationReport};
pub use service::{
    shard_rows, CascadeNote, IngestReport, QueryService, ServiceStats, ShardedIngestState,
    NOTE_CASCADE_FALLBACK,
};

//! Lock-free server observability: per-op latency histograms, request/error
//! counters, and connection/queue gauges.
//!
//! Everything here is plain atomics — recording a latency is one relaxed
//! `fetch_add` on a log-linear histogram, so workers never contend on a lock for
//! bookkeeping.  Like `protocol`, the module is pure data: it compiles and is
//! tested without the `server` feature; the server merely owns one
//! [`ServerMetrics`] and calls [`record`](ServerMetrics::record) around each
//! request.  Snapshots surface on the wire through the `info` op's optional
//! `server` member ([`crate::protocol::WireServerStats`]).
//!
//! Histogram design: log-linear buckets.  Each power of two `[2^e, 2^(e+1))`
//! nanoseconds is split into eight equal sub-buckets of width `2^(e−3)` (values
//! below 16 ns get a bucket each), so from 8 ns up a bucket is at most an eighth as
//! wide as the smallest value in it.  The bucket of a value is its top four significant bits
//! and their position — a shift and a few integer operations, no search.  496
//! buckets cover every representable `u64` nanosecond value; quantiles walk the
//! cumulative counts and report the matched bucket's exclusive upper bound — an
//! overestimate of at most 12.5%, biased the right way for tail-latency gates.

use crate::protocol::{WireOpStats, WireServerStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per power of two, as a bit count: eight sub-buckets.
const SUB_BITS: u32 = 3;

/// Number of histogram buckets: the index of `u64::MAX` plus one.
const BUCKETS: usize = (((u64::BITS - 1 - SUB_BITS) as usize) << SUB_BITS) + (2 << SUB_BITS);

/// The op labels the server tracks, in the stable order they appear in wire
/// snapshots.  The final `"invalid"` slot absorbs requests whose op could not be
/// decoded (bad JSON, unknown op, oversized lines).
pub const OP_LABELS: [&str; 13] = [
    "info",
    "query",
    "batch-query",
    "rank",
    "ingest",
    "ingest-begin",
    "ingest-announce",
    "ingest-submit",
    "ingest-finish",
    "drop-column",
    "export-column",
    "import-column",
    "invalid",
];

/// Index of the `"invalid"` slot in [`OP_LABELS`].
pub const INVALID_OP: usize = OP_LABELS.len() - 1;

/// Maps an op label onto its [`OP_LABELS`] slot; unknown labels land on
/// [`INVALID_OP`].
#[must_use]
pub fn op_index(op: &str) -> usize {
    OP_LABELS
        .iter()
        .position(|&l| l == op)
        .unwrap_or(INVALID_OP)
}

/// A lock-free log-linear latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// The bucket index for a nanosecond value: with `shift` the number of low bits
    /// below its top `SUB_BITS + 1` significant bits, the index is `shift` sub-bucket
    /// rows plus those top bits (`ns` itself below 16).
    fn bucket(ns: u64) -> usize {
        let shift = (u64::BITS - ns.leading_zeros()).saturating_sub(SUB_BITS + 1);
        ((shift as usize) << SUB_BITS) + (ns >> shift) as usize
    }

    /// The exclusive upper bound of bucket `i` in nanoseconds (`u64::MAX` for the
    /// last bucket, whose bound does not fit).
    fn upper_bound_ns(i: usize) -> u64 {
        let shift = (i >> SUB_BITS).saturating_sub(1);
        let top = (i - (shift << SUB_BITS)) as u128;
        u64::try_from((top + 1) << shift).unwrap_or(u64::MAX)
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The upper bound (ns) of the bucket containing the `q`-quantile observation,
    /// or 0 when the histogram is empty.  `q` is clamped into `[0, 1]`.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based: ceil(q * total), clamped.
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_bound_ns(i);
            }
        }
        u64::MAX
    }
}

/// Counters and a latency histogram for one op.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Requests handled.
    pub count: AtomicU64,
    /// Requests answered with an error.
    pub errors: AtomicU64,
    /// Handling latency (decode + execute + encode, as measured by the worker).
    pub latency: LatencyHistogram,
}

/// All server observability state; one instance per server, shared by reference.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    ops: [OpMetrics; OP_LABELS.len()],
    /// Currently open client connections.
    pub connections_open: AtomicU64,
    /// Connections refused at the configured connection cap.
    pub connections_rejected: AtomicU64,
    /// Requests currently queued for a worker.
    pub queue_depth: AtomicU64,
    /// Requests answered `overloaded` at the configured queue-depth cap.
    pub queue_rejected: AtomicU64,
    /// Requests whose execution panicked and was answered `internal`.
    pub panics: AtomicU64,
}

impl ServerMetrics {
    /// Records one handled request under `op` (an `"op"` token, or anything else
    /// for the `"invalid"` slot).
    pub fn record(&self, op: &str, latency: Duration, is_error: bool) {
        let slot = &self.ops[op_index(op)];
        slot.count.fetch_add(1, Ordering::Relaxed);
        if is_error {
            slot.errors.fetch_add(1, Ordering::Relaxed);
        }
        slot.latency.record(latency);
    }

    /// The metrics for one op label (unknown labels alias the `"invalid"` slot).
    #[must_use]
    pub fn op(&self, op: &str) -> &OpMetrics {
        &self.ops[op_index(op)]
    }

    /// A wire-ready snapshot.  Ops never called are omitted; the rest appear in
    /// [`OP_LABELS`] order.  Latency quantiles are reported in whole microseconds
    /// (bucket upper bound, rounded up).
    #[must_use]
    pub fn snapshot(&self) -> WireServerStats {
        let ops = OP_LABELS
            .iter()
            .zip(&self.ops)
            .filter_map(|(&label, m)| {
                let count = m.count.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                Some(WireOpStats {
                    op: label.to_string(),
                    count,
                    errors: m.errors.load(Ordering::Relaxed),
                    p50_us: m.latency.quantile_ns(0.50).div_ceil(1_000),
                    p99_us: m.latency.quantile_ns(0.99).div_ceil(1_000),
                })
            })
            .collect();
        WireServerStats {
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_rejected: self.queue_rejected.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_u64_range_in_order() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 1);
        assert_eq!(LatencyHistogram::bucket(15), 15);
        assert_eq!(LatencyHistogram::bucket(16), 16);
        assert_eq!(LatencyHistogram::bucket(17), 16);
        assert_eq!(LatencyHistogram::bucket(18), 17);
        assert_eq!(LatencyHistogram::bucket(1024), 64);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), BUCKETS - 1);
        // Every bucket's exclusive upper bound is the next bucket's first value.
        for i in 0..BUCKETS - 1 {
            let bound = LatencyHistogram::upper_bound_ns(i);
            assert_eq!(LatencyHistogram::bucket(bound - 1), i, "bucket {i}");
            assert_eq!(LatencyHistogram::bucket(bound), i + 1, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_overestimate_by_at_most_an_eighth() {
        // One latency at a time across twelve decades: the reported quantile is
        // above the latency and within an eighth of it (within 1 ns below 8 ns).
        let mut ns = 1u64;
        while ns < 10_000_000_000_000 {
            for latency in [ns, ns + 1, ns * 3 / 2, ns * 2 - 1] {
                let h = LatencyHistogram::default();
                h.record(Duration::from_nanos(latency));
                let reported = h.quantile_ns(0.5);
                assert!(reported > latency, "{latency} ns reported as {reported}");
                assert!(
                    reported - latency <= (latency / 8).max(1),
                    "{latency} ns reported as {reported}"
                );
            }
            ns = ns * 7 / 4 + 1;
        }
        // A spread of latencies: every quantile brackets the exact nearest-rank one.
        let h = LatencyHistogram::default();
        let mut latencies: Vec<u64> = (1..=2_000u64).map(|i| i * i * 37 + i).collect();
        for &latency in &latencies {
            h.record(Duration::from_nanos(latency));
        }
        latencies.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * latencies.len() as f64).ceil() as usize).max(1);
            let exact = latencies[rank - 1];
            let reported = h.quantile_ns(q);
            assert!(reported > exact && reported - exact <= exact / 8, "q {q}");
        }
    }

    #[test]
    fn max_value_lands_in_the_last_bucket_with_max_upper_bound() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_secs(u64::MAX / 1_000_000_000));
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_ns(0.99), u64::MAX);
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(Duration::from_nanos(700)); // bucket [640, 704)
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(700)); // bucket [655360, 720896)
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ns(0.50), 704);
        assert_eq!(h.quantile_ns(0.90), 704);
        assert_eq!(h.quantile_ns(0.99), 720_896);
        assert_eq!(h.quantile_ns(1.0), 720_896);
        assert_eq!(h.quantile_ns(0.0), 704);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
    }

    #[test]
    fn snapshot_omits_untouched_ops_and_keeps_stable_order() {
        let m = ServerMetrics::default();
        m.record("query", Duration::from_micros(100), false);
        m.record("query", Duration::from_micros(200), true);
        m.record("info", Duration::from_micros(1), false);
        m.record("no-such-op", Duration::from_micros(5), true);
        let snap = m.snapshot();
        let labels: Vec<&str> = snap.ops.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(labels, vec!["info", "query", "invalid"]);
        let query = &snap.ops[1];
        assert_eq!((query.count, query.errors), (2, 1));
        assert!(query.p99_us >= query.p50_us);
        assert!(
            query.p50_us >= 100,
            "upper bounds round up: {}",
            query.p50_us
        );
    }

    #[test]
    fn gauges_are_plain_atomics() {
        let m = ServerMetrics::default();
        m.connections_open.fetch_add(3, Ordering::Relaxed);
        m.connections_open.fetch_sub(1, Ordering::Relaxed);
        m.queue_rejected.fetch_add(2, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.connections_open, 2);
        assert_eq!(snap.queue_rejected, 2);
        assert!(snap.ops.is_empty());
    }

    #[test]
    fn every_protocol_op_has_a_slot() {
        use crate::protocol::{Mode, RequestBody, WireQuery};
        let q = WireQuery {
            table: "t".into(),
            column: "c".into(),
            keys: vec![1],
            values: vec![1.0],
        };
        let t = crate::protocol::WireTable {
            name: "t".into(),
            keys: vec![1],
            columns: vec![],
        };
        let bodies = [
            RequestBody::Info { server: false },
            RequestBody::Query {
                mode: Mode::Joinable,
                k: 1,
                min_join_size: 0.0,
                cascade: false,
                query: q.clone(),
            },
            RequestBody::BatchQuery {
                mode: Mode::Joinable,
                k: 1,
                min_join_size: 0.0,
                cascade: false,
                queries: vec![q.clone()],
            },
            RequestBody::Rank {
                mode: Mode::Joinable,
                k: 1,
                min_join_size: 0.0,
                cascade: false,
                queries: vec![crate::protocol::WireRankQuery {
                    query: q,
                    sketch: vec![0],
                }],
            },
            RequestBody::Ingest {
                table: t.clone(),
                partitions: None,
            },
            RequestBody::IngestBegin { table: "t".into() },
            RequestBody::IngestAnnounce {
                session: 1,
                shard: t.clone(),
            },
            RequestBody::IngestSubmit {
                session: 1,
                shard: t,
            },
            RequestBody::IngestFinish { session: 1 },
            RequestBody::DropColumn {
                table: "t".into(),
                column: "c".into(),
            },
            RequestBody::ExportColumn {
                table: "t".into(),
                column: "c".into(),
            },
            RequestBody::ImportColumn {
                sketch: crate::protocol::WireSketch {
                    table: "t".into(),
                    column: "c".into(),
                    rows: 1,
                    bytes: vec![0],
                },
            },
        ];
        for body in &bodies {
            assert_ne!(
                op_index(body.op()),
                INVALID_OP,
                "op `{}` has no metrics slot",
                body.op()
            );
        }
    }
}

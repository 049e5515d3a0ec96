//! Lock-free server observability: per-op latency histograms, request/error
//! counters, and connection/queue gauges.
//!
//! Everything here is plain atomics — recording a latency is one relaxed
//! `fetch_add` on a log-bucketed histogram, so workers never contend on a lock for
//! bookkeeping.  Like `protocol`, the module is pure data: it compiles and is
//! tested without the `server` feature; the server merely owns one
//! [`ServerMetrics`] and calls [`record`](ServerMetrics::record) around each
//! request.  Snapshots surface on the wire through the `info` op's optional
//! `server` member ([`crate::protocol::WireServerStats`]).
//!
//! Histogram design: bucket `i` holds latencies in `[2^(i-1), 2^i)` nanoseconds
//! (bucket 0 holds `0..2` ns), i.e. `i = bit_length(ns)`.  Sixty-four buckets
//! cover every representable `u64` nanosecond value, quantiles walk the
//! cumulative counts and report the matched bucket's upper bound — a ≤2×
//! overestimate, which is the right bias for tail-latency gates.

use crate::protocol::{WireOpStats, WireServerStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: one per possible `u64` bit length.
const BUCKETS: usize = 64;

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

/// A lock-free log-bucketed latency histogram.
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

    /// The bucket index for a nanosecond value: its bit length, with the top two
    /// powers sharing the last bucket so 64-bit values cannot wrap.
    fn bucket(ns: u64) -> usize {
        ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// The exclusive upper bound of bucket `i` in nanoseconds (`u64::MAX` for the
    /// last bucket).
    fn upper_bound_ns(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
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
        assert_eq!(LatencyHistogram::bucket(2), 2);
        assert_eq!(LatencyHistogram::bucket(3), 2);
        assert_eq!(LatencyHistogram::bucket(1024), 11);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), BUCKETS - 1);
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
            h.record(Duration::from_nanos(700)); // bucket 10, upper bound 1024
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(700)); // bucket 20, upper bound ~1.05 ms
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ns(0.50), 1 << 10);
        assert_eq!(h.quantile_ns(0.90), 1 << 10);
        assert_eq!(h.quantile_ns(0.99), 1 << 20);
        assert_eq!(h.quantile_ns(1.0), 1 << 20);
        assert_eq!(h.quantile_ns(0.0), 1 << 10);
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

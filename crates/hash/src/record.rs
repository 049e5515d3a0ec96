//! Deterministic record streams for the "active index" Weighted MinHash sketcher.
//!
//! # Background
//!
//! Algorithm 3 of the paper conceptually hashes every position of an *expanded* vector
//! `ā` of length `n·L`, where block `j` contains `ã[j]²·L` non-zero positions.  Doing
//! this literally costs `O(L)` hash evaluations per block.  The active-index technique
//! (Gollapudi & Panigrahy; exposition in Manasse et al.) instead generates only the
//! *records* of the implicit hash stream — the successive minima — because the minimum
//! over any block prefix is determined entirely by the last record inside that prefix.
//!
//! # Consistency
//!
//! The estimator (Algorithm 5) compares hash values across sketches computed
//! *independently* for different vectors.  For those comparisons to be meaningful, the
//! implicit hash value of expanded position `t` of block `j` under sample `i` must be a
//! deterministic function of `(seed, i, j, t)`, identical for every vector.  A
//! [`RecordStream`] achieves this by seeding its generator with exactly `(seed, i, j)`:
//! two vectors that both contain block `j` replay the *same* record sequence and merely
//! stop at their own prefix lengths.  The minimum over a prefix of length `k` is then
//! the value of the last record with `position < k` — bit-identical across vectors
//! whenever the expanded-vector model says the minima coincide.
//!
//! # Distribution
//!
//! For i.i.d. `Uniform[0,1)` values, the record process is: the first record sits at
//! position 0 with a `Uniform[0,1)` value; given a record with value `z` at position
//! `p`, the next record sits at `p + Geometric(z)` and its value is `Uniform[0, z)`.
//! [`RecordStream`] samples this process directly, so the minimum over a prefix of
//! length `k` has exactly the distribution of `min` of `k` i.i.d. uniforms, and the
//! joint distribution across nested prefixes matches the idealized model as well.
//!
//! # Skipping streams that cannot win
//!
//! A sketch keeps, per sample, the minimum over all of a vector's blocks, so a block's
//! stream matters only if its prefix minimum is *strictly* below the running minimum
//! `h` of the blocks before it.  Once `h` is small, most streams cannot get there:
//! their first record below `h` lands past the prefix.  [`undercut_v2`] decides that
//! for the v2 stream without replaying it.  It walks only the value chain (one
//! multiply per record, the skip draws kept as raw words) down to the first value
//! below `h`, and evaluates that one record's skip, usually from
//! logarithm-free bounds on it.  Because values strictly decrease and every position
//! is at least the skip that reached it, a skip at or past the prefix length proves
//! the stream cannot change the minimum; the function's docs give the full argument.

use crate::geometric::{geometric_skip, geometric_skip_v2};
use crate::log2::fast_log2;
use crate::mix::{mix2, mix2_key, mix3, splitmix64, u64_to_open_unit_f64};
use crate::rng::Xoshiro256PlusPlus;

/// A single record (running minimum) of the implicit hash stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Zero-based position within the block at which this minimum occurs.
    pub position: u64,
    /// The hash value at that position; strictly decreasing from record to record.
    pub value: f64,
}

/// The deterministic stream of successive minima of an implicit sequence of uniform
/// hash values, identified by `(seed, sample, block)`.
#[derive(Debug, Clone)]
pub struct RecordStream {
    rng: Xoshiro256PlusPlus,
    /// The most recently emitted record, if any.
    current: Option<Record>,
    /// Position of the next candidate record (position of current + sampled skip).
    next_position: Option<u64>,
}

impl RecordStream {
    /// Creates the record stream for hash sample `sample` and expanded block `block`
    /// under master seed `seed`.
    #[must_use]
    pub fn new(seed: u64, sample: u64, block: u64) -> Self {
        let stream_seed = mix3(seed ^ 0x5EC0_4D57_4EA3, sample, block);
        Self {
            rng: Xoshiro256PlusPlus::new(stream_seed),
            current: None,
            next_position: Some(0),
        }
    }

    /// The precomputed `(seed, sample)` half of the stream seed mix; see
    /// [`from_states`](Self::from_states).
    #[inline]
    #[must_use]
    pub fn sample_state(seed: u64, sample: u64) -> u64 {
        mix2(seed ^ 0x5EC0_4D57_4EA3, sample)
    }

    /// The precomputed per-block half of the stream seed mix; see
    /// [`from_states`](Self::from_states).
    #[inline]
    #[must_use]
    pub fn block_state(block: u64) -> u64 {
        mix2_key(block)
    }

    /// Builds the stream from hoisted mix halves: bit-identical to
    /// [`new`](Self::new)`(seed, sample, block)` when `sample_state ==
    /// sample_state(seed, sample)` and `block_state == block_state(block)`.
    ///
    /// The Weighted MinHash kernel sweeps one block across many samples (and many
    /// blocks across one sketch), so both halves of the seed mix are reused heavily;
    /// this constructor leaves only one `splitmix64` on the per-stream path.
    #[inline]
    #[must_use]
    pub fn from_states(sample_state: u64, block_state: u64) -> Self {
        Self {
            rng: Xoshiro256PlusPlus::new(splitmix64(sample_state ^ block_state)),
            current: None,
            next_position: Some(0),
        }
    }

    /// Returns the next record, advancing the stream.
    ///
    /// Positions are strictly increasing and values strictly decreasing.  Returns
    /// `None` once the next record position would exceed `u64::MAX` (practically
    /// unreachable) or the value has underflowed to zero.
    pub fn next_record(&mut self) -> Option<Record> {
        let position = self.next_position?;
        let value = match self.current {
            // First record: a fresh Uniform[0,1) value at position 0.
            None => self.rng.next_unit_f64(),
            // Subsequent records: uniform below the previous minimum.
            Some(prev) => prev.value * self.rng.next_unit_f64(),
        };
        if value <= 0.0 {
            // The value has underflowed; no meaningful further records exist.
            self.next_position = None;
            return None;
        }
        let record = Record { position, value };
        self.current = Some(record);
        let skip = geometric_skip(value, self.rng.next_open_unit_f64());
        self.next_position = position.checked_add(skip);
        Some(record)
    }

    /// The v2 analogue of [`next_record`](Self::next_record): identical draw order and
    /// underflow handling, but the geometric skip is sampled with
    /// [`geometric_skip_v2`] (deterministic `fast_log2` instead of libm `ln`).
    ///
    /// A stream must be driven by one family only — mixing v1 and v2 calls on the same
    /// stream samples neither definition.
    pub fn next_record_v2(&mut self) -> Option<Record> {
        let position = self.next_position?;
        let value = match self.current {
            None => self.rng.next_unit_f64(),
            Some(prev) => prev.value * self.rng.next_unit_f64(),
        };
        if value <= 0.0 {
            self.next_position = None;
            return None;
        }
        let record = Record { position, value };
        self.current = Some(record);
        let skip = geometric_skip_v2(value, self.rng.next_open_unit_f64());
        self.next_position = position.checked_add(skip);
        Some(record)
    }

    /// Returns the minimum hash value over the prefix of the first `len` positions,
    /// together with the position where it occurs.
    ///
    /// Returns `None` when `len == 0` (an empty prefix has no minimum).  The stream is
    /// advanced; calling this repeatedly with increasing `len` values is supported and
    /// efficient, but calling it with a *smaller* `len` than a previous call would give
    /// stale results, so prefer one call per stream.
    pub fn prefix_min(&mut self, len: u64) -> Option<Record> {
        if len == 0 {
            return None;
        }
        // Emit records until the next record would land at or beyond `len`.
        loop {
            match self.next_position {
                Some(p) if p < len => {
                    if self.next_record().is_none() {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.current.filter(|r| r.position < len)
    }

    /// The v2 analogue of [`prefix_min`](Self::prefix_min), driving the stream with
    /// [`next_record_v2`](Self::next_record_v2).  This is the scalar *reference* for
    /// the v2 stream; [`prefix_min_replay_v2_scalar`] and the packed
    /// [`prefix_min_replay_v2_sweep`] are its bit-identical fast twins.
    pub fn prefix_min_v2(&mut self, len: u64) -> Option<Record> {
        if len == 0 {
            return None;
        }
        loop {
            match self.next_position {
                Some(p) if p < len => {
                    if self.next_record_v2().is_none() {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.current.filter(|r| r.position < len)
    }
}

/// Convenience wrapper: the minimum hash value over the first `len` positions of the
/// implicit stream identified by `(seed, sample, block)`.
///
/// Returns `None` if `len == 0`.
#[must_use]
pub fn prefix_min(seed: u64, sample: u64, block: u64, len: u64) -> Option<Record> {
    RecordStream::new(seed, sample, block).prefix_min(len)
}

/// The prefix minimum via a tight, fully inlined replay of the record stream:
/// bit-identical to `RecordStream::from_states(sample_state, block_state)
/// .prefix_min(len)`, cheaper per record.
///
/// This is the inner kernel of the vectorized Weighted MinHash sketcher.  Two things
/// make it faster than the general-purpose [`RecordStream`] iterator, neither of which
/// changes a single output bit:
///
/// * **No per-record bookkeeping.**  The replay keeps the raw `(position, value)` pair
///   in registers instead of threading `Option<Record>` state through method calls.
/// * **The most probable skip is resolved without logarithms.**  The geometric skip is
///   `ceil(ln u / ln(1−p))`, which equals 1 *exactly* when `u ≥ 1 − p` (dividing the
///   log inequality by the negative `ln(1−p)` flips it; the comparison is against the
///   same rounded `1 − p` the logarithm would see, and a computed quotient ≤ 1 can
///   never round above 1, so `ceil` yields 1 on both paths — `geometric.rs` locks this
///   boundary with an ulp-adjacent test).  That branch fires with probability equal to
///   the current minimum, which is exactly the hot early-record regime, and saves both
///   `ln` calls and the divide.
///
/// Everything else — the deterministic draw order, underflow handling, and position
/// saturation — replicates [`RecordStream::next_record`] step for step.
#[must_use]
pub fn prefix_min_replay(sample_state: u64, block_state: u64, len: u64) -> Option<Record> {
    if len == 0 {
        return None;
    }
    let mut rng = Xoshiro256PlusPlus::new(splitmix64(sample_state ^ block_state));
    // First record: a fresh Uniform[0,1) value at position 0 (zero draws underflow
    // immediately, exactly as `next_record` reports no record).
    let mut value = rng.next_unit_f64();
    if value <= 0.0 {
        return None;
    }
    let mut position = 0u64;
    loop {
        let u = rng.next_open_unit_f64();
        let skip = if u >= 1.0 - value {
            1
        } else {
            geometric_skip(value, u)
        };
        let Some(next) = position.checked_add(skip) else {
            break;
        };
        if next >= len {
            break;
        }
        let next_value = value * rng.next_unit_f64();
        if next_value <= 0.0 {
            break;
        }
        position = next;
        value = next_value;
    }
    Some(Record { position, value })
}

/// Convenience wrapper: the v2-stream prefix minimum for `(seed, sample, block)`.
///
/// Returns `None` if `len == 0`.
#[must_use]
pub fn prefix_min_v2(seed: u64, sample: u64, block: u64, len: u64) -> Option<Record> {
    RecordStream::new(seed, sample, block).prefix_min_v2(len)
}

/// Replays the v2 prefix minima of *every* stream in `sample_states` over one shared
/// block at up to `N` prefix lengths, calling `emit(sample_index, records)` exactly
/// once per stream, where `records[i]` is the minimum over the first `lens[i]`
/// positions — bit-identical to [`prefix_min_replay_v2_scalar`] for that stream, in
/// some order.
///
/// This is the Weighted MinHash sweep's kernel.  Streams terminate after a
/// geometrically-distributed number of records, so a fixed batch of lanes would run
/// until its *slowest* member finishes while the others burn slots drawing discarded
/// values — around a fifth of all lane work at realistic prefix lengths.  The sweep
/// instead keeps three lanes saturated by reloading each finished lane with the next
/// pending stream, so the only discarded work is the partial iteration around each
/// reload and the tail once fewer than three streams remain.
///
/// The lengths let one replay serve several vectors.  The three Figure-3 vectors of a
/// table column share their keys, and the stream of `(seed, sample, key)` is the same
/// for all of them, so their prefix minima at one key are nested prefixes of a single
/// stream: replaying it once up to the longest length and keeping, per length, the
/// last record below it replaces up to `N` replays by one.  A zero length means that
/// vector has no block at this key; its record is `None`.
///
/// Emission order follows lane completion, not sample order; callers reducing into
/// per-sample slots (as the WMH min-reduction does) are order-insensitive.  Each
/// record is the same `Option` a separate replay at its length returns (`None` only
/// for a zero length or a zero first draw).
#[allow(unsafe_code)]
pub fn prefix_min_replay_v2_sweep<const N: usize>(
    sample_states: &[u64],
    block_state: u64,
    lens: [u64; N],
    emit: &mut dyn FnMut(usize, [Option<Record>; N]),
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence was just checked.
        unsafe { avx2::prefix_min_replay_v2_sweep(sample_states, block_state, lens, emit) };
        return;
    }
    for (sample, state) in sample_states.iter().enumerate() {
        emit(
            sample,
            prefix_min_replay_v2_scalar(*state, block_state, lens),
        );
    }
}

/// The portable scalar v2 replay — the reference the packed sweep is tested against.
///
/// Replays the stream of `(sample_state, block_state)` once, up to the largest of
/// `lens`, and returns for every `lens[i]` the minimum over that prefix: the last
/// record whose position is below it (`None` for a zero length or a zero first draw).
/// Each answer is bit-identical to `RecordStream::from_states(sample_state,
/// block_state).prefix_min_v2(lens[i])`, because a shorter prefix's minimum is a
/// record the longer replay passes through.
///
/// Unlike the v1 pair — where [`prefix_min_replay`] adds a shortcut that a theorem
/// (locked in by a `geometric.rs` test) proves consistent with the slow path — the v2
/// replay samples the *same definition* as [`geometric_skip_v2`], shortcut included,
/// so bit-parity is structural.  The skip is computed by `skip_v2`, the definition
/// with its domain asserts elided: the replay's `value` is in `(0, 1)` and `u` in
/// `(0, 1]` by construction, so the asserts are vacuous here and eliding them keeps
/// the per-draw path branch-free up to the two [`fast_log2`] evaluations that define
/// the stream.  Every arithmetic step — `1 − p` rounding, the `log₂` quotient, `ceil`,
/// and the saturation ladder — is the definition's, in the definition's order.  The
/// remaining wins are the same as v1's: no per-record `Option` bookkeeping, state kept
/// in registers.
#[must_use]
pub fn prefix_min_replay_v2_scalar<const N: usize>(
    sample_state: u64,
    block_state: u64,
    lens: [u64; N],
) -> [Option<Record>; N] {
    let limit = lens.iter().copied().max().unwrap_or(0);
    if limit == 0 {
        return [None; N];
    }
    let mut rng = Xoshiro256PlusPlus::new(splitmix64(sample_state ^ block_state));
    let mut value = rng.next_unit_f64();
    if value <= 0.0 {
        return [None; N];
    }
    let mut position = 0u64;
    let mut best = [Record { position, value }; N];
    loop {
        let skip = skip_v2(value, rng.next_open_unit_f64());
        let Some(next) = position.checked_add(skip) else {
            break;
        };
        if next >= limit {
            break;
        }
        let next_value = value * rng.next_unit_f64();
        if next_value <= 0.0 {
            break;
        }
        position = next;
        value = next_value;
        for (record, &len) in best.iter_mut().zip(&lens) {
            if position < len {
                *record = Record { position, value };
            }
        }
    }
    std::array::from_fn(|i| (lens[i] > 0).then_some(best[i]))
}

/// [`geometric_skip_v2`]`(value, u)` with its domain asserts elided, for callers whose
/// `value` is in `(0, 1)` and `u` in `(0, 1]` by construction: the skip from a record
/// of value `value` to the next, step for step the definition's arithmetic.
#[inline(always)]
fn skip_v2(value: f64, u: f64) -> u64 {
    let fail = 1.0 - value;
    if u >= fail {
        return 1;
    }
    let denom = fast_log2(fail);
    if denom == 0.0 {
        return u64::MAX;
    }
    let quotient = (fast_log2(u) / denom).ceil();
    if !quotient.is_finite() || quotient >= u64::MAX as f64 {
        u64::MAX
    } else if quotient < 1.0 {
        1
    } else {
        quotient as u64
    }
}

/// The draws-only undercut test: which of `lens` can the v2 stream of `(sample_state,
/// block_state)` still win at, against running minima `bounds`?
///
/// Returns `lens` with a zero wherever the prefix minimum over the first `lens[i]`
/// positions provably cannot be *strictly* below `bounds[i]` — so a min-reduction that
/// keeps a new record only on strict `<` would discard it — and `lens[i]` unchanged
/// wherever it may be.  Zero lengths stay zero.  All zeros means the stream need not be
/// replayed at all; otherwise a replay at the returned lengths reproduces every record
/// that can matter.
///
/// The test walks only the value chain.  It seeds the generator exactly as the replay
/// does and draws `d₀`, then one `(u_k, d_k)` pair per step with `v_k = v_{k−1}·d_k`;
/// the skip draws `u_k` are kept as raw words and no logarithm is taken.  For each
/// vector it finds the first `k` with `v_k < bounds[i]` and prunes the vector when that
/// single skip `s = skip(v_{k−1}, u_k)` is at least `lens[i]` — decided by
/// `skip_reaches`, from logarithm-free bounds on `s` where they are conclusive and
/// with the replay's own arithmetic otherwise.  This is exact:
///
/// * the draw order is positionally fixed (see the `avx2` module docs), so `v_k` is
///   the value of the replay's `k`-th record whenever the replay reaches it;
/// * values strictly decrease, so the record for a prefix beats `bounds[i]` only if it
///   is record `k` or a later one;
/// * positions are at least the skip that reached them (`pos_k = pos_{k−1} + s`), and
///   records after `k` lie further still, so `s ≥ lens[i]` puts every such record
///   outside the prefix;
/// * a value that underflows to zero ends the stream before `k`, so the vectors still
///   waiting are pruned.  (A position overflow would also end it early; the test does
///   not track positions and simply does not prune on it.)
///
/// A first record below a bound (`k = 0`, position 0) always wins, and a bound the walk
/// has not crossed within `UNDERCUT_STEPS` records is left unpruned.  The fixed-length
/// replays ([`prefix_min_replay_v2_scalar`] and [`prefix_min_replay_v2_sweep`]) stay
/// unpruned; this test only decides which of their calls can be skipped.
#[must_use]
pub fn undercut_v2<const N: usize>(
    sample_state: u64,
    block_state: u64,
    lens: [u64; N],
    bounds: [f64; N],
) -> [u64; N] {
    // Record values are positive, so only a positive bound can be undercut; the walk
    // runs until it is below the lowest one.
    let lowest = (0..N)
        .filter(|&i| lens[i] > 0 && bounds[i] > 0.0)
        .map(|i| bounds[i])
        .fold(f64::INFINITY, f64::min);
    if lowest == f64::INFINITY {
        return lens;
    }
    let mut rng = Xoshiro256PlusPlus::new(splitmix64(sample_state ^ block_state));
    // values[k] = v_k and words[k] = the raw draw of u_k (words[0] is unused).
    let mut values = [0.0f64; UNDERCUT_STEPS];
    let mut words = [0u64; UNDERCUT_STEPS];
    let mut value = rng.next_unit_f64();
    values[0] = value;
    let mut walked = 1;
    // An underflow to zero is below every positive bound, so it ends the walk too.
    while value >= lowest && walked < UNDERCUT_STEPS {
        words[walked] = rng.next_u64();
        value *= rng.next_unit_f64();
        values[walked] = value;
        walked += 1;
    }
    let values = &values[..walked];
    std::array::from_fn(|i| {
        let (len, bound) = (lens[i], bounds[i]);
        let undercuttable = len > 0 && bound > 0.0;
        if !undercuttable {
            return len;
        }
        // Values strictly decrease (until an underflow to zero), so the first record
        // below the bound is the one after every record at or above it.
        let k = values.iter().filter(|&&v| v >= bound).count();
        match values.get(k) {
            // The walk stopped (buffer full) before crossing: nothing is known.
            None => len,
            // Underflow: the stream ends before record k.
            Some(&v) if v <= 0.0 => 0,
            // Record 0 sits at position 0, inside every prefix.
            Some(_) if k == 0 => len,
            Some(_) if skip_reaches(values[k - 1], u64_to_open_unit_f64(words[k]), len) => 0,
            Some(_) => len,
        }
    })
}

/// The slack [`skip_reaches`] leaves between its logarithm-free bounds and the
/// length: `1 + 2⁻¹⁰`, against a [`fast_log2`] relative error below `2⁻²⁰` on `(0, 1)`
/// (locked by a `log2.rs` test) and a few roundings of `2⁻⁵³` each.
const SKIP_BOUND_SLACK: f64 = 1.0 + 1.0 / 1024.0;

/// Whether `skip_v2(value, u) ≥ len`, mostly without taking a logarithm.
///
/// The skip is `ceil(q)` for the computed quotient `q ≈ R = ln u / ln(1 − p)` (after
/// the `u ≥ 1 − p` shortcut, which is exact and cheap).  With `fail = 1 − p` as the
/// skip rounds it, `w = 1 − fail` (exact by Sterbenz) and `t = 1 − u`, the inequalities
/// `1 − x ≤ −ln x ≤ (1 − x)/x` bound `R` within `[t·fail/w, t/(u·w)]`.  When the lower
/// bound clears `len` by the slack, `q > len` and the skip is at least `len`; when the
/// upper bound stays under `len − 1` by the slack, `q < len − 1` and the skip is below
/// `len`.  The slack covers `fast_log2`'s relative error in both logarithms and every
/// rounding, so either answer is the one the exact skip gives.  Only the rare ratio
/// within the slack of `len` falls through to [`skip_v2`] itself.  (`fail == 1` makes
/// `w = 0`: the lower bound is then infinite and the skip is the saturated `u64::MAX`,
/// which agree.)
#[inline(always)]
fn skip_reaches(value: f64, u: f64, len: u64) -> bool {
    let fail = 1.0 - value;
    if u >= fail {
        return len <= 1;
    }
    let w = 1.0 - fail;
    let t = 1.0 - u;
    let len_f = len as f64;
    if t * fail > SKIP_BOUND_SLACK * len_f * w {
        true
    } else if t * SKIP_BOUND_SLACK < (len_f - 1.0) * u * w {
        false
    } else {
        skip_v2(value, u) >= len
    }
}

/// The longest value chain [`undercut_v2`] walks.  A walk that has not crossed a bound
/// by then leaves that length unpruned.  Each step multiplies by a uniform draw, so
/// crossing a bound `h` takes about `ln(1/h)` steps; a running minimum sits near
/// `1/L`, so the serving `L = 2²⁴` needs about 17, and 64 leave a wide margin up to
/// `L` around `2⁶⁰`.
const UNDERCUT_STEPS: usize = 64;

/// AVX2 replays of the v2 record stream, bit-identical to the scalar reference.
///
/// # Why speculation is sound
///
/// The replay's draw order is positionally fixed: iteration `k` always consumes one
/// open-unit draw `u_k` (the skip) and then one unit draw `d_k` (the next value),
/// regardless of what any skip computes to — the loop only decides *whether the
/// results are used*, never *whether the draws happen* (a terminating iteration's
/// value draw is made and discarded on every exit path of the scalar loop too, except
/// the final break-on-skip, where the generator is simply never read again).  So a
/// kernel may pull the next two iterations' draws `u₁ d₁ u₂ d₂` up front, compute
/// both skips speculatively, and resolve the loop-exit conditions afterwards in
/// order: discarded draws never influenced any output bit, and used draws are the
/// same numbers the scalar loop would have drawn.
///
/// # Why the packed arithmetic is exact
///
/// Every step of the skip definition maps to an instruction IEEE 754 requires to
/// round identically to its scalar form: the two `fast_log2` evaluations become
/// lanes of [`fast_log2_x4`](crate::log2::fast_log2_x4), the quotient a packed
/// divide, and `f64::ceil` a `roundpd` toward +∞.  The saturation ladder collapses to a saturating
/// float-to-int cast (Rust's `as` already clamps both ends) plus two selects:
/// quotients below 1 clamp up to 1, and a *negative* quotient — which on a
/// non-shortcut lane can only be the `−∞` of the definition's `denom == 0` escape
/// hatch (`log u < 0` divided by a zero log) — saturates to `u64::MAX` exactly as
/// the ladder's non-finite arm does.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod avx2 {
    use super::Record;
    use crate::log2::fast_log2_x4;
    use crate::mix::splitmix64;
    use crate::rng::Xoshiro256PlusPlus;
    use core::arch::x86_64::*;

    /// The geometric-skip saturation ladder for an already-`ceil`ed quotient, with the
    /// `−∞ → u64::MAX` arm folded in (see the module docs).
    #[inline(always)]
    fn saturate(q: f64) -> u64 {
        if q < 0.0 {
            u64::MAX
        } else {
            (q as u64).max(1)
        }
    }

    /// `ceil(a/b)` for both lane pairs of `[a₁, b₁, a₂, b₂]`, returned as
    /// `[q₁, q₂]`: the two skip quotients of one speculated iteration pair.
    #[inline(always)]
    unsafe fn quotient_pair(logs: __m256d) -> (f64, f64) {
        let lo = _mm256_castpd256_pd128(logs);
        let hi = _mm256_extractf128_pd(logs, 1);
        let num = _mm_unpacklo_pd(lo, hi);
        let den = _mm_unpackhi_pd(lo, hi);
        let q = _mm_round_pd(
            _mm_div_pd(num, den),
            _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC,
        );
        (_mm_cvtsd_f64(q), _mm_cvtsd_f64(_mm_unpackhi_pd(q, q)))
    }

    /// The shared per-block inputs of a sweep: the block's seed-mix half, the prefix
    /// lengths, and the order in which a replay passes them.
    struct Block<const N: usize> {
        state: u64,
        lens: [u64; N],
        /// The lengths' indices by ascending length.
        order: [usize; N],
        /// The lengths in that order; the last is the longest, where replays stop.
        stops: [u64; N],
        /// How many lengths are zero (they sort first and are never replayed).
        zeros: usize,
    }

    impl<const N: usize> Block<N> {
        fn new(state: u64, lens: [u64; N]) -> Self {
            let mut order: [usize; N] = std::array::from_fn(|i| i);
            order.sort_by_key(|&i| lens[i]);
            Self {
                state,
                lens,
                order,
                stops: order.map(|i| lens[i]),
                zeros: lens.iter().filter(|&&len| len == 0).count(),
            }
        }

        #[inline(always)]
        fn limit(&self) -> u64 {
            self.stops[N - 1]
        }
    }

    /// One stream of the sweep: generator, running record, and whether the stream has
    /// terminated (its lanes then carry stale-but-in-domain values whose results are
    /// never committed).  `stage` counts the block's lengths passed so far (in
    /// ascending order), and `frozen` holds the record each passed length ended on.
    struct Lane<const N: usize> {
        rng: Xoshiro256PlusPlus,
        value: f64,
        position: u64,
        stage: usize,
        frozen: [Record; N],
        done: bool,
        empty: bool,
    }

    impl<const N: usize> Lane<N> {
        #[inline(always)]
        fn new(sample_state: u64, block: &Block<N>) -> Self {
            let mut rng = Xoshiro256PlusPlus::new(splitmix64(sample_state ^ block.state));
            let value = rng.next_unit_f64();
            let empty = value <= 0.0;
            Self {
                rng,
                value,
                position: 0,
                stage: block.zeros,
                frozen: [Record { position: 0, value }; N],
                done: empty,
                empty,
            }
        }

        /// Applies one resolved iteration: the scalar loop's exit conditions, in order.
        /// A next record at or past a shorter length ends that length on the current
        /// record — the last one below it — exactly as the scalar loop keeps it.
        #[inline(always)]
        fn commit(&mut self, shortcut: bool, quotient: f64, value_draw: f64, block: &Block<N>) {
            if self.done {
                return;
            }
            let skip = if shortcut { 1 } else { saturate(quotient) };
            match self.position.checked_add(skip) {
                Some(next) if next < block.limit() => {
                    // `next` is below the last stop, so this stays in bounds.
                    while next >= block.stops[self.stage] {
                        self.frozen[block.order[self.stage]] = Record {
                            position: self.position,
                            value: self.value,
                        };
                        self.stage += 1;
                    }
                    let next_value = self.value * value_draw;
                    if next_value <= 0.0 {
                        self.done = true;
                    } else {
                        self.position = next;
                        self.value = next_value;
                    }
                }
                _ => self.done = true,
            }
        }

        /// Every length's record once the stream is done: lengths not passed end on
        /// the final record.
        #[inline(always)]
        fn records(&self, block: &Block<N>) -> [Option<Record>; N] {
            let mut records = self.frozen;
            for &i in &block.order[self.stage..] {
                records[i] = Record {
                    position: self.position,
                    value: self.value,
                };
            }
            std::array::from_fn(|i| (!self.empty && block.lens[i] > 0).then_some(records[i]))
        }
    }

    /// One slot of the sweep replay: the running lane, which stream it is replaying,
    /// and whether the slot has drained the queue (its lane then idles done).
    struct Slot<const N: usize> {
        lane: Lane<N>,
        sample: usize,
        exhausted: bool,
    }

    impl<const N: usize> Slot<N> {
        /// Loads stream `next` into a fresh slot, or parks the slot if the queue is
        /// drained (the parked lane is `done`, so its slots never commit).
        #[inline(always)]
        fn load(next: &mut usize, states: &[u64], block: &Block<N>) -> Self {
            if *next < states.len() {
                let sample = *next;
                *next += 1;
                Self {
                    lane: Lane::new(states[sample], block),
                    sample,
                    exhausted: false,
                }
            } else {
                let mut lane = Lane::new(0, block);
                lane.done = true;
                Self {
                    lane,
                    sample: 0,
                    exhausted: true,
                }
            }
        }

        /// Emits every finished stream in this slot and reloads until the lane is
        /// live again or the queue drains.  (A freshly loaded lane can itself be
        /// finished — an empty stream — hence the loop.)
        #[inline(always)]
        fn turn_over(
            &mut self,
            next: &mut usize,
            states: &[u64],
            block: &Block<N>,
            emit: &mut dyn FnMut(usize, [Option<Record>; N]),
        ) {
            while !self.exhausted && self.lane.done {
                emit(self.sample, self.lane.records(block));
                *self = Self::load(next, states, block);
            }
        }
    }

    /// The packed sweep replay: three streams in lockstep, two speculated iterations
    /// each.  Six logarithm pairs fill three packed evaluations exactly, with no lane
    /// idle, and three interleaved generators overlap their serial state-update chains
    /// — the widest shape whose working set still fits the register file (four-stream
    /// lockstep spills and measures slower).  Finished lanes are reloaded from the
    /// pending-stream queue instead of idling until the slowest member terminates (see
    /// the safe dispatcher's docs).
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn prefix_min_replay_v2_sweep<const N: usize>(
        sample_states: &[u64],
        block_state: u64,
        lens: [u64; N],
        emit: &mut dyn FnMut(usize, [Option<Record>; N]),
    ) {
        let block = &Block::new(block_state, lens);
        if block.zeros == N {
            for sample in 0..sample_states.len() {
                emit(sample, [None; N]);
            }
            return;
        }
        let mut next = 0usize;
        let mut a = Slot::load(&mut next, sample_states, block);
        let mut b = Slot::load(&mut next, sample_states, block);
        let mut c = Slot::load(&mut next, sample_states, block);
        loop {
            a.turn_over(&mut next, sample_states, block, emit);
            b.turn_over(&mut next, sample_states, block, emit);
            c.turn_over(&mut next, sample_states, block, emit);
            if a.exhausted && b.exhausted && c.exhausted {
                return;
            }
            let ua1 = a.lane.rng.next_open_unit_f64();
            let da1 = a.lane.rng.next_unit_f64();
            let ub1 = b.lane.rng.next_open_unit_f64();
            let db1 = b.lane.rng.next_unit_f64();
            let uc1 = c.lane.rng.next_open_unit_f64();
            let dc1 = c.lane.rng.next_unit_f64();
            let ua2 = a.lane.rng.next_open_unit_f64();
            let da2 = a.lane.rng.next_unit_f64();
            let ub2 = b.lane.rng.next_open_unit_f64();
            let db2 = b.lane.rng.next_unit_f64();
            let uc2 = c.lane.rng.next_open_unit_f64();
            let dc2 = c.lane.rng.next_unit_f64();
            let va2 = a.lane.value * da1;
            let vb2 = b.lane.value * db1;
            let vc2 = c.lane.value * dc1;
            let fa1 = 1.0 - a.lane.value;
            let fb1 = 1.0 - b.lane.value;
            let fc1 = 1.0 - c.lane.value;
            let fa2 = 1.0 - va2;
            let fb2 = 1.0 - vb2;
            let fc2 = 1.0 - vc2;
            let (qa1, qb1) = quotient_pair(fast_log2_x4(_mm256_set_pd(fb1, ub1, fa1, ua1)));
            let (qc1, qa2) = quotient_pair(fast_log2_x4(_mm256_set_pd(fa2, ua2, fc1, uc1)));
            let (qb2, qc2) = quotient_pair(fast_log2_x4(_mm256_set_pd(fc2, uc2, fb2, ub2)));
            a.lane.commit(ua1 >= fa1, qa1, da1, block);
            a.lane.commit(ua2 >= fa2, qa2, da2, block);
            b.lane.commit(ub1 >= fb1, qb1, db1, block);
            b.lane.commit(ub2 >= fb2, qb2, db2, block);
            c.lane.commit(uc1 >= fc1, qc1, dc1, block);
            c.lane.commit(uc2 >= fc2, qc2, dc2, block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_have_increasing_positions_and_decreasing_values() {
        let mut stream = RecordStream::new(1, 2, 3);
        let mut prev: Option<Record> = None;
        for _ in 0..50 {
            let Some(r) = stream.next_record() else { break };
            if let Some(p) = prev {
                assert!(r.position > p.position);
                assert!(r.value < p.value);
            } else {
                assert_eq!(r.position, 0);
            }
            assert!(r.value > 0.0 && r.value < 1.0);
            prev = Some(r);
        }
        assert!(prev.is_some());
    }

    #[test]
    fn stream_is_deterministic() {
        let collect = || {
            let mut s = RecordStream::new(7, 11, 13);
            (0..20).map_while(|_| s.next_record()).collect::<Vec<_>>()
        };
        let a = collect();
        let b = collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.position, y.position);
            assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
    }

    #[test]
    fn distinct_streams_differ() {
        let first = |seed, sample, block| {
            RecordStream::new(seed, sample, block)
                .next_record()
                .unwrap()
                .value
        };
        let base = first(1, 2, 3);
        assert_ne!(base.to_bits(), first(2, 2, 3).to_bits());
        assert_ne!(base.to_bits(), first(1, 3, 3).to_bits());
        assert_ne!(base.to_bits(), first(1, 2, 4).to_bits());
    }

    #[test]
    fn prefix_min_zero_len_is_none() {
        assert!(prefix_min(1, 0, 0, 0).is_none());
    }

    #[test]
    fn from_states_matches_new_bit_for_bit() {
        for seed in [0u64, 9, 0xABCD] {
            for sample in [0u64, 3, 71] {
                let state = RecordStream::sample_state(seed, sample);
                for block in [0u64, 1, 999_999] {
                    let mut direct = RecordStream::new(seed, sample, block);
                    let mut hoisted =
                        RecordStream::from_states(state, RecordStream::block_state(block));
                    for _ in 0..10 {
                        match (direct.next_record(), hoisted.next_record()) {
                            (Some(a), Some(b)) => {
                                assert_eq!(a.position, b.position);
                                assert_eq!(a.value.to_bits(), b.value.to_bits());
                            }
                            (None, None) => break,
                            other => panic!("streams diverged: {other:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_min_replay_matches_record_stream_bit_for_bit() {
        for seed in [0u64, 11, 0xFEED_F00D] {
            for sample in 0..40u64 {
                let sample_state = RecordStream::sample_state(seed, sample);
                for block in [0u64, 5, 9_999] {
                    let block_state = RecordStream::block_state(block);
                    for len in [1u64, 2, 7, 100, 100_000, 1 << 40] {
                        let fast = prefix_min_replay(sample_state, block_state, len);
                        let slow = prefix_min(seed, sample, block, len);
                        match (fast, slow) {
                            (Some(a), Some(b)) => {
                                assert_eq!(a.position, b.position, "s{sample} b{block} l{len}");
                                assert_eq!(a.value.to_bits(), b.value.to_bits());
                            }
                            (None, None) => {}
                            other => panic!("diverged at s{sample} b{block} l{len}: {other:?}"),
                        }
                    }
                }
            }
        }
        assert!(prefix_min_replay(1, 2, 0).is_none());
    }

    /// Records as comparable bit patterns.
    fn bits(record: Option<Record>) -> Option<(u64, u64)> {
        record.map(|r| (r.position, r.value.to_bits()))
    }

    #[test]
    fn prefix_min_replay_v2_matches_record_stream_bit_for_bit() {
        // One multi-length replay must answer every length exactly as a separate
        // `RecordStream` replay at that length alone.
        const LENS: [u64; 7] = [1, 2, 7, 100, 100_000, 1 << 40, 0];
        for seed in [0u64, 11, 0xFEED_F00D] {
            for sample in 0..40u64 {
                let sample_state = RecordStream::sample_state(seed, sample);
                for block in [0u64, 5, 9_999] {
                    let block_state = RecordStream::block_state(block);
                    let multi = prefix_min_replay_v2_scalar(sample_state, block_state, LENS);
                    for (len, fast) in LENS.into_iter().zip(multi) {
                        let single = prefix_min_replay_v2_scalar(sample_state, block_state, [len]);
                        let slow = prefix_min_v2(seed, sample, block, len);
                        assert_eq!(bits(fast), bits(slow), "s{sample} b{block} l{len}");
                        assert_eq!(bits(single[0]), bits(slow), "s{sample} b{block} l{len}");
                    }
                }
            }
        }
        assert_eq!(prefix_min_replay_v2_scalar(1, 2, [0, 0, 0]), [None; 3]);
    }

    #[test]
    fn packed_replays_match_the_scalar_replay_bit_for_bit() {
        // The sweep dispatches to the AVX2 kernel when the CPU has it; every length of
        // every stream must reproduce a separate scalar replay at that length alone.
        // The triples mix equal, nested, absent (zero) and huge lengths in every lane
        // position; the huge ones drive streams all the way to value underflow, which
        // exercises the saturation ladder's non-finite arm (`denom == 0` →
        // `u64::MAX`) that the packed path folds into a sign test.
        let triples: [[u64; 3]; 7] = [
            [1, 2, 3],
            [7, 0, 100],
            [5_000, 5_000, 1],
            [1 << 40, 100, 0],
            [0, 3, 1 << 40],
            [2, 1 << 40, 2],
            [0, 0, 0],
        ];
        let states: Vec<u64> = (0..5).map(|s| RecordStream::sample_state(9, s)).collect();
        for lens in triples {
            for block in 0..4_000u64 {
                let block_state = RecordStream::block_state(block);
                let mut emitted = 0usize;
                prefix_min_replay_v2_sweep(&states, block_state, lens, &mut |sample, records| {
                    emitted += 1;
                    for (len, record) in lens.into_iter().zip(records) {
                        let alone = prefix_min_replay_v2_scalar(states[sample], block_state, [len]);
                        assert_eq!(
                            bits(record),
                            bits(alone[0]),
                            "lens {lens:?} block {block} sample {sample} len {len}"
                        );
                    }
                });
                assert_eq!(emitted, states.len(), "lens {lens:?} block {block}");
            }
        }
    }

    #[test]
    fn sweep_replay_emits_every_stream_bit_for_bit() {
        // The sweep reloads finished lanes with pending streams, so its emission order
        // is completion order — but every stream must be emitted exactly once, with
        // exactly the scalar replay's record.  Stream counts around the lane width
        // (0..=8) exercise empty slots, partial first loads, and queue draining while
        // other lanes are mid-stream; the lens span shortcut-dominated short prefixes
        // through underflow-driven long ones.
        for len in [1u64, 3, 100, 5_000, 1 << 40] {
            for block in 0..600u64 {
                let block_state = RecordStream::block_state(block);
                for m in 0..=8usize {
                    let states: Vec<u64> = (0..m as u64)
                        .map(|s| RecordStream::sample_state(9, s))
                        .collect();
                    let mut got: Vec<Option<(u64, u64)>> = vec![None; m];
                    let mut emitted = 0usize;
                    prefix_min_replay_v2_sweep(&states, block_state, [len], &mut |sample, rec| {
                        assert!(rec[0].is_some(), "len >= 1");
                        assert!(got[sample].is_none(), "sample {sample} emitted twice");
                        got[sample] = bits(rec[0]);
                        emitted += 1;
                    });
                    assert_eq!(emitted, m, "len {len} block {block}");
                    for (sample, state) in states.iter().enumerate() {
                        let r = prefix_min_replay_v2_scalar(*state, block_state, [len]);
                        assert_eq!(
                            got[sample],
                            bits(r[0]),
                            "len {len} block {block} sample {sample}"
                        );
                    }
                }
            }
        }
        let mut calls = 0;
        prefix_min_replay_v2_sweep(&[1, 2], 3, [0], &mut |_, rec| {
            assert!(rec[0].is_none());
            calls += 1;
        });
        assert_eq!(calls, 2);
    }

    /// `x` one ulp up or down (for positive finite `x`), without `f64::next_up`.
    fn ulp_step(x: f64, up: bool) -> f64 {
        f64::from_bits(if up { x.to_bits() + 1 } else { x.to_bits() - 1 })
    }

    #[test]
    fn undercut_never_prunes_a_stream_that_can_win() {
        // Random streams at lengths up to 2^24 against bounds drawn around the stream's
        // own prefix minima: equal (a tie, which must not count as a win), one ulp
        // either side, scaled, or infinite.  A pruned length must have a prefix
        // minimum at or above its bound; an unpruned one is returned unchanged.
        let mut rng = Xoshiro256PlusPlus::new(0x0DDC);
        let draw_len =
            |rng: &mut Xoshiro256PlusPlus| 1 + rng.next_u64() % (1 << (rng.next_u64() % 25));
        let (mut pruned, mut kept) = (0u64, 0u64);
        for _ in 0..6_000 {
            let (sample_state, block_state) = (rng.next_u64(), rng.next_u64());
            let truth = |len: u64| {
                RecordStream::from_states(sample_state, block_state)
                    .prefix_min_v2(len)
                    .expect("len >= 1")
                    .value
            };
            let lens: [u64; 3] = std::array::from_fn(|_| {
                if rng.next_u64() % 6 == 0 {
                    0
                } else {
                    draw_len(&mut rng)
                }
            });
            let bounds: [f64; 3] = std::array::from_fn(|_| {
                let near = truth(draw_len(&mut rng));
                match rng.next_u64() % 6 {
                    0 => near,
                    1 => ulp_step(near, true),
                    2 => ulp_step(near, false),
                    3 => f64::INFINITY,
                    _ => near * rng.next_range_f64(0.25, 4.0),
                }
            });
            let got = undercut_v2(sample_state, block_state, lens, bounds);
            for i in 0..3 {
                if lens[i] > 0 && got[i] == 0 {
                    assert!(
                        truth(lens[i]) >= bounds[i],
                        "pruned a win: len {} bound {:e}",
                        lens[i],
                        bounds[i]
                    );
                    pruned += 1;
                } else {
                    assert_eq!(got[i], lens[i]);
                    kept += 1;
                }
            }
        }
        // Both answers are common, so neither direction is checked vacuously.
        assert!(
            pruned > 3_000 && kept > 3_000,
            "pruned {pruned}, kept {kept}"
        );
        assert_eq!(undercut_v2(1, 2, [0, 0], [0.5, 0.5]), [0, 0]);
        assert_eq!(undercut_v2(1, 2, [7], [f64::INFINITY]), [7]);
    }

    #[test]
    fn skip_bounds_agree_with_the_exact_skip_at_its_boundary() {
        // The logarithm-free bounds must answer `skip >= len` exactly as the skip
        // itself does, most sharply for lengths right around the skip.
        let mut rng = Xoshiro256PlusPlus::new(0x5C1B);
        let mut exact_only = 0u64;
        for _ in 0..100_000 {
            // Values across the record range, from first records to deep minima.
            let value = rng.next_unit_f64().powi(1 + (rng.next_u64() % 40) as i32);
            if value <= 0.0 {
                continue;
            }
            let u = rng.next_open_unit_f64();
            let skip = skip_v2(value, u);
            for len in [
                1,
                2,
                skip.saturating_sub(1),
                skip,
                skip.saturating_add(1),
                skip.saturating_mul(2),
            ] {
                let len = len.max(1);
                assert_eq!(
                    skip_reaches(value, u, len),
                    skip >= len,
                    "value {value:e} u {u} len {len} skip {skip}"
                );
            }
            exact_only += u64::from(skip > 2);
        }
        assert!(exact_only > 10_000);
    }

    #[test]
    fn v2_stream_shares_values_with_v1_but_may_reposition() {
        // Both streams draw the same value sequence from the same generator; only the
        // skips (and hence positions / which records survive a prefix) can differ, and
        // then only at log-rounding boundaries.  In particular the first record is
        // always bit-identical.
        for block in 0..100u64 {
            let v1 = RecordStream::new(3, 1, block).next_record().unwrap();
            let v2 = RecordStream::new(3, 1, block).next_record_v2().unwrap();
            assert_eq!(v1.position, 0);
            assert_eq!(v2.position, 0);
            assert_eq!(v1.value.to_bits(), v2.value.to_bits());
        }
    }

    #[test]
    fn v2_prefix_min_distribution_matches_min_of_uniforms() {
        // The v2 stream must model the same idealized process: E[min of k uniforms]
        // = 1/(k+1).
        for &k in &[1u64, 4, 16, 64, 256] {
            let n = 4000u64;
            let mean: f64 = (0..n)
                .map(|b| prefix_min_v2(0xABC, 0, b, k).unwrap().value)
                .sum::<f64>()
                / n as f64;
            let expected = 1.0 / (k as f64 + 1.0);
            let tol = 4.0 * expected / (n as f64).sqrt() + 1e-4;
            assert!(
                (mean - expected).abs() < 4.0 * tol,
                "k={k}: mean {mean}, expected {expected}"
            );
        }
    }

    #[test]
    fn v2_nested_prefixes_share_records() {
        // The consistency property the estimator relies on holds for the v2 stream
        // definition as well.
        let mut shared = 0;
        for block in 0..200u64 {
            let short = prefix_min_v2(3, 1, block, 50).unwrap();
            let long = prefix_min_v2(3, 1, block, 80).unwrap();
            if long.position < 50 {
                assert_eq!(long.value.to_bits(), short.value.to_bits());
                assert_eq!(long.position, short.position);
                shared += 1;
            } else {
                assert!(long.value < short.value);
            }
        }
        assert!(
            shared > 80,
            "only {shared} of 200 blocks shared the minimum"
        );
    }

    #[test]
    fn v2_large_prefix_len_terminates_quickly() {
        let r = prefix_min_v2(4, 2, 9, 1u64 << 60).unwrap();
        assert!(r.value > 0.0);
        assert!(r.position < 1u64 << 60);
    }

    #[test]
    fn prefix_min_len_one_is_first_record() {
        let mut s1 = RecordStream::new(5, 6, 7);
        let first = s1.next_record().unwrap();
        let m = prefix_min(5, 6, 7, 1).unwrap();
        assert_eq!(m.position, 0);
        assert_eq!(m.value.to_bits(), first.value.to_bits());
    }

    #[test]
    fn prefix_min_is_monotone_in_len() {
        // A longer prefix can only have a smaller (or equal) minimum.
        for block in 0..20u64 {
            let short = prefix_min(9, 0, block, 10).unwrap();
            let long = prefix_min(9, 0, block, 1000).unwrap();
            assert!(long.value <= short.value);
            assert!(long.position < 1000 && short.position < 10);
        }
    }

    #[test]
    fn nested_prefixes_share_records() {
        // If the longer prefix's minimum falls inside the shorter prefix, the minima are
        // bit-identical — the consistency property the WMH estimator relies on.
        let mut shared = 0;
        for block in 0..200u64 {
            let short = prefix_min(3, 1, block, 50).unwrap();
            let long = prefix_min(3, 1, block, 80).unwrap();
            if long.position < 50 {
                assert_eq!(long.value.to_bits(), short.value.to_bits());
                assert_eq!(long.position, short.position);
                shared += 1;
            } else {
                assert!(long.value < short.value);
            }
        }
        // The minimum of 80 uniforms falls in the first 50 positions with prob. 5/8.
        assert!(
            shared > 80,
            "only {shared} of 200 blocks shared the minimum"
        );
    }

    #[test]
    fn prefix_min_distribution_matches_min_of_uniforms() {
        // E[min of k uniforms] = 1/(k+1).
        for &k in &[1u64, 4, 16, 64, 256] {
            let n = 4000u64;
            let mean: f64 = (0..n)
                .map(|b| prefix_min(0xABC, 0, b, k).unwrap().value)
                .sum::<f64>()
                / n as f64;
            let expected = 1.0 / (k as f64 + 1.0);
            let tol = 4.0 * expected / (n as f64).sqrt() + 1e-4;
            assert!(
                (mean - expected).abs() < 4.0 * tol,
                "k={k}: mean {mean}, expected {expected}"
            );
        }
    }

    #[test]
    fn prefix_min_positions_are_uniform() {
        // The argmin of k i.i.d. uniforms is uniform over the k positions; check the
        // mean position for k = 10 is around (k-1)/2.
        let k = 10u64;
        let n = 20_000u64;
        let mean_pos: f64 = (0..n)
            .map(|b| prefix_min(0xDEF, 0, b, k).unwrap().position as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_pos - 4.5).abs() < 0.15,
            "mean argmin position {mean_pos}, expected 4.5"
        );
    }

    #[test]
    fn large_prefix_len_terminates_quickly() {
        // Even for a huge L the number of records is O(log L); this must return fast.
        let r = prefix_min(4, 2, 9, 1u64 << 60).unwrap();
        assert!(r.value > 0.0);
        assert!(r.position < 1u64 << 60);
    }
}

//! Ioffe's Improved Consistent Weighted Sampling (ICWS), adapted to inner-product
//! estimation.
//!
//! The paper's related-work section notes that the Consistent Weighted Sampling family
//! (Manasse et al.; Ioffe) is "essentially equivalent, but computationally cheaper to
//! apply" than explicit expansion-based Weighted MinHash.  This module implements
//! Ioffe's ICWS as an alternative weighted sampler and reuses the paper's
//! inverse-probability estimator structure (Algorithm 5) on top of it, giving a second,
//! independent implementation of weighted inner-product sketching that the extension
//! experiment (A4 in `DESIGN.md`) compares against WMH.
//!
//! ICWS samples index `k` with probability proportional to its weight `S_k` (here
//! `S_k = ã[k]²`, the squared entries of the normalized vector, matching WMH's sampling
//! distribution), and two vectors produce the *same* sample — the pair `(k, t_k)` — with
//! probability equal to their weighted Jaccard similarity.  Unlike Algorithm 3 no
//! discretization parameter is needed: ICWS handles real-valued weights exactly.

use crate::error::{incompatible, SketchError};
use crate::traits::{MergeableSketcher, Sketch, Sketcher};
use crate::wmh::check_reference_norm;
use ipsketch_hash::mix::{mix2, mix2_key, splitmix64};
use ipsketch_hash::rng::Xoshiro256PlusPlus;
use ipsketch_vector::SparseVector;

/// One ICWS sample: the selected index, the integer "consistency token" `t`, and the
/// normalized vector entry at the selected index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcwsSample {
    /// The selected index of the original vector.
    pub index: u64,
    /// Ioffe's quantized log-weight token; two sketches collide only if both the index
    /// and the token agree.
    pub token: i64,
    /// The normalized vector entry `ã[index]` (signed).
    pub value: f64,
}

/// The ICWS sketch: `m` samples plus the vector norm.
#[derive(Debug, Clone, PartialEq)]
pub struct IcwsSketch {
    pub(crate) seed: u64,
    pub(crate) samples: Vec<IcwsSample>,
    pub(crate) norm: f64,
}

impl IcwsSketch {
    /// The seed the sketch was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The retained samples.
    #[must_use]
    pub fn samples(&self) -> &[IcwsSample] {
        &self.samples
    }

    /// The stored Euclidean norm of the sketched vector.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.norm
    }
}

impl Sketch for IcwsSketch {
    fn len(&self) -> usize {
        self.samples.len()
    }

    fn storage_doubles(&self) -> f64 {
        // Index (64 bits) + token (64 bits) + value (64 bits) per sample, plus the norm.
        self.samples.len() as f64 * 3.0 + 1.0
    }
}

/// The ICWS sketcher and estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcwsSketcher {
    samples: usize,
    seed: u64,
    /// The variate seed namespace, hoisted at construction so per-sample scoring does
    /// not re-derive it.
    variate_seed: u64,
}

impl IcwsSketcher {
    /// Creates an ICWS sketcher with `samples` samples.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `samples == 0`.
    pub fn new(samples: usize, seed: u64) -> Result<Self, SketchError> {
        if samples == 0 {
            return Err(SketchError::InvalidParameter {
                name: "samples",
                allowed: ">= 1",
            });
        }
        Ok(Self {
            samples,
            seed,
            variate_seed: seed ^ 0x1C57_5EED,
        })
    }

    /// The number of samples `m`.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Ioffe's sample score for a normalized entry `(index, value)` of sample `sample`;
    /// the sketch keeps the argmin.  Returns the score together with the quantized
    /// token `t`.  The per-(sample, index) variates are drawn from
    /// `splitmix64(mix2(variate_seed, sample) ^ mix2_key(index))` — the exact
    /// decomposition of the historical `mix3(variate_seed, sample, index)` seeding,
    /// so sketches are unchanged bit-for-bit.
    fn score_of(&self, sample: u64, index: u64, value: f64) -> (f64, i64) {
        let state = splitmix64(mix2(self.variate_seed, sample) ^ mix2_key(index));
        let mut rng = Xoshiro256PlusPlus::new(state);
        // Gamma(2, 1) variates as the sum of two unit exponentials.
        let r = -rng.next_open_unit_f64().ln() - rng.next_open_unit_f64().ln();
        let c = -rng.next_open_unit_f64().ln() - rng.next_open_unit_f64().ln();
        let beta = rng.next_unit_f64();
        // Ioffe's ICWS: t = floor(ln S / r + β), y = exp(r (t − β)), score = c / (y e^r).
        let t = ((value * value).ln() / r + beta).floor();
        let y = (r * (t - beta)).exp();
        (c / (y * r.exp()), t as i64)
    }

    /// The score a stored sample minimized.  Scores are deterministic in `(seed,
    /// sample, index, value)`, so they need not be persisted: merging recomputes them
    /// on demand, keeping the wire format unchanged.  The all-zero sentinel sample of a
    /// never-updated slot scores `+∞` (it loses every comparison).
    fn stored_score(&self, sample: u64, s: &IcwsSample) -> f64 {
        if s.value == 0.0 {
            return f64::INFINITY;
        }
        self.score_of(sample, s.index, s.value).0
    }

    /// The empty partial sketch of a vector whose Euclidean norm is announced to be
    /// `reference_norm` — the starting point for streaming updates under the two-pass
    /// (announced-norm) protocol, exactly as for Weighted MinHash.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `reference_norm` is not positive
    /// and finite.
    pub fn empty_sketch_with_norm(&self, reference_norm: f64) -> Result<IcwsSketch, SketchError> {
        check_reference_norm(reference_norm)?;
        Ok(IcwsSketch {
            seed: self.seed,
            samples: vec![
                IcwsSample {
                    index: 0,
                    token: 0,
                    value: 0.0,
                };
                self.samples
            ],
            norm: reference_norm,
        })
    }

    /// Sketches one partition of a vector under the announced-norm protocol
    /// (`reference_norm` is the Euclidean norm of the *full* vector).  Unlike WMH no
    /// discretization is involved, so merging partition sketches reproduces the
    /// one-shot sketch bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `reference_norm` is not positive
    /// and finite or is smaller than the partition's own norm.
    pub fn sketch_partition(
        &self,
        vector: &SparseVector,
        reference_norm: f64,
    ) -> Result<IcwsSketch, SketchError> {
        check_reference_norm(reference_norm)?;
        if vector.norm() > reference_norm * (1.0 + 1e-9) {
            return Err(SketchError::InvalidParameter {
                name: "reference_norm",
                allowed: "at least the partition's own Euclidean norm",
            });
        }
        Ok(self.sketch_normalized(vector, reference_norm))
    }

    /// Sketches `vector / norm`: for each sample, the argmin of the scores over
    /// the entries, in entry order on strict `<`.  A sample with no entry keeps
    /// the all-zero sentinel of a never-updated slot.
    fn sketch_normalized(&self, vector: &SparseVector, norm: f64) -> IcwsSketch {
        let normalized = vector.scaled(1.0 / norm);
        let samples = (0..self.samples as u64)
            .map(|sample| {
                let mut best_score = f64::INFINITY;
                let mut best = IcwsSample {
                    index: 0,
                    token: 0,
                    value: 0.0,
                };
                for (index, value) in normalized.iter() {
                    let (score, token) = self.score_of(sample, index, value);
                    if score < best_score {
                        best_score = score;
                        best = IcwsSample {
                            index,
                            token,
                            value,
                        };
                    }
                }
                best
            })
            .collect();
        IcwsSketch {
            seed: self.seed,
            samples,
            norm,
        }
    }
}

impl Sketcher for IcwsSketcher {
    type Output = IcwsSketch;

    fn sketch(&self, vector: &SparseVector) -> Result<IcwsSketch, SketchError> {
        let norm = vector.norm();
        if norm == 0.0 {
            return Err(SketchError::Vector(
                ipsketch_vector::VectorError::ZeroVector,
            ));
        }
        Ok(self.sketch_normalized(vector, norm))
    }

    /// Estimates `⟨a, b⟩` using the Algorithm-5 estimator structure on top of ICWS
    /// samples.
    ///
    /// Collisions (same index and token) occur with probability equal to the weighted
    /// Jaccard similarity `J̄` of the squared normalized vectors; since both vectors are
    /// unit-norm, the weighted union size is `2 / (1 + J̄)`, which is estimated from the
    /// observed collision rate.
    fn estimate_inner_product(&self, a: &IcwsSketch, b: &IcwsSketch) -> Result<f64, SketchError> {
        for (label, sketch) in [("first", a), ("second", b)] {
            if sketch.seed != self.seed || sketch.samples.len() != self.samples {
                return Err(incompatible(format!(
                    "{label} ICWS sketch does not match this sketcher's seed/sample count"
                )));
            }
        }
        let m = self.samples as f64;
        let mut collisions = 0usize;
        let mut collision_sum = 0.0;
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            // Real samples always carry a non-zero normalized value; a zero value is
            // the sentinel of a never-updated slot in a streaming sketch and must not
            // be counted as a collision.
            if sa.index == sb.index && sa.token == sb.token && sa.value != 0.0 && sb.value != 0.0 {
                collisions += 1;
                let q = (sa.value * sa.value).min(sb.value * sb.value);
                collision_sum += sa.value * sb.value / q;
            }
        }
        let jaccard_estimate = collisions as f64 / m;
        let weighted_union = 2.0 / (1.0 + jaccard_estimate);
        Ok(a.norm * b.norm * weighted_union / m * collision_sum)
    }

    fn name(&self) -> &'static str {
        "ICWS"
    }
}

impl MergeableSketcher for IcwsSketcher {
    /// The trait-level empty sketch carries no announced norm (`norm == 0`); it is the
    /// merge identity, but `update` rejects it — start ICWS streaming from
    /// [`IcwsSketcher::empty_sketch_with_norm`].
    fn empty_sketch(&self) -> IcwsSketch {
        IcwsSketch {
            seed: self.seed,
            samples: vec![
                IcwsSample {
                    index: 0,
                    token: 0,
                    value: 0.0,
                };
                self.samples
            ],
            norm: 0.0,
        }
    }

    /// Insertion update under the announced-norm protocol.  Each index must be
    /// presented at most once (the score is derived from the full value at the index).
    fn update(&self, sketch: &mut IcwsSketch, index: u64, delta: f64) -> Result<(), SketchError> {
        if sketch.seed != self.seed || sketch.samples.len() != self.samples {
            return Err(incompatible(
                "ICWS sketch does not match this sketcher's seed/sample count",
            ));
        }
        if !(sketch.norm > 0.0 && sketch.norm.is_finite()) {
            return Err(SketchError::InvalidParameter {
                name: "norm",
                allowed: "> 0 — start ICWS streaming from `empty_sketch_with_norm` (announced-norm protocol)",
            });
        }
        // Multiply by the reciprocal exactly as `SparseVector::scaled` does, so
        // streamed values are bit-identical to one-shot normalization.
        let value = delta * (1.0 / sketch.norm);
        if value == 0.0 {
            return Ok(());
        }
        for (i, slot) in sketch.samples.iter_mut().enumerate() {
            let (score, token) = self.score_of(i as u64, index, value);
            if score < self.stored_score(i as u64, slot) {
                *slot = IcwsSample {
                    index,
                    token,
                    value,
                };
            }
        }
        Ok(())
    }

    /// Min-merge over the ICWS samples: per slot, keep the sample with the smaller
    /// score.  Scores are recomputed deterministically from the stored `(index,
    /// value)`, so no extra state travels with the sketch and the serialized format is
    /// unchanged.  Both sketches must share the announced norm; the no-norm empty
    /// sketch is the identity.
    fn merge(&self, a: &IcwsSketch, b: &IcwsSketch) -> Result<IcwsSketch, SketchError> {
        for (label, sketch) in [("first", a), ("second", b)] {
            if sketch.seed != self.seed || sketch.samples.len() != self.samples {
                return Err(incompatible(format!(
                    "{label} ICWS sketch does not match this sketcher's seed/sample count"
                )));
            }
        }
        if a.norm == 0.0 {
            return Ok(b.clone());
        }
        if b.norm == 0.0 {
            return Ok(a.clone());
        }
        if a.norm != b.norm {
            return Err(incompatible(format!(
                "ICWS partials were normalized by different announced norms ({} vs {}); \
                 all partitions must share the full vector's norm",
                a.norm, b.norm
            )));
        }
        let mut merged = a.clone();
        for (i, (slot, other)) in merged.samples.iter_mut().zip(&b.samples).enumerate() {
            if self.stored_score(i as u64, other) < self.stored_score(i as u64, slot) {
                *slot = *other;
            }
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_vector::{inner_product, weighted_jaccard};

    #[test]
    fn constructor_validates() {
        assert!(IcwsSketcher::new(0, 1).is_err());
        let s = IcwsSketcher::new(64, 2).unwrap();
        assert_eq!(s.samples(), 64);
        assert_eq!(s.seed(), 2);
        assert_eq!(s.name(), "ICWS");
    }

    #[test]
    fn sketch_shape_and_storage() {
        let s = IcwsSketcher::new(32, 1).unwrap();
        let v = SparseVector::from_pairs([(0, 1.0), (7, -3.0)]).unwrap();
        let sk = s.sketch(&v).unwrap();
        assert_eq!(sk.len(), 32);
        assert_eq!(sk.samples().len(), 32);
        assert!((sk.norm() - v.norm()).abs() < 1e-12);
        assert!((sk.storage_doubles() - 97.0).abs() < 1e-12);
        // Every sampled index must belong to the support.
        assert!(sk.samples().iter().all(|s| v.contains(s.index)));
    }

    #[test]
    fn rejects_empty_vector() {
        let s = IcwsSketcher::new(8, 1).unwrap();
        assert!(s.sketch(&SparseVector::new()).is_err());
    }

    #[test]
    fn deterministic_and_scale_invariant_samples() {
        let v = SparseVector::from_pairs([(1, 1.0), (4, 2.0), (9, -1.5)]).unwrap();
        let s = IcwsSketcher::new(64, 3).unwrap();
        let a = s.sketch(&v).unwrap();
        let b = s.sketch(&v).unwrap();
        assert_eq!(a, b);
        // Scaling changes only the norm: the normalized weights are identical, so the
        // selected (index, token) pairs are identical too.
        let c = s.sketch(&v.scaled(5.0)).unwrap();
        for (x, y) in a.samples().iter().zip(c.samples()) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.token, y.token);
        }
        assert!((c.norm() - 5.0 * a.norm()).abs() < 1e-9);
    }

    #[test]
    fn samples_follow_squared_weight_distribution() {
        // Index 0 carries 90% of the squared mass; it should be selected ~90% of the
        // time.
        let v = SparseVector::from_pairs([(0, 3.0), (1, 1.0)]).unwrap();
        let s = IcwsSketcher::new(4000, 17).unwrap();
        let sk = s.sketch(&v).unwrap();
        let heavy = sk.samples().iter().filter(|s| s.index == 0).count() as f64 / 4000.0;
        assert!((heavy - 0.9).abs() < 0.03, "heavy fraction {heavy}");
    }

    #[test]
    fn collision_rate_matches_weighted_jaccard() {
        let a = SparseVector::from_pairs((0..40u64).map(|i| (i, 1.0 + (i % 3) as f64))).unwrap();
        let b = SparseVector::from_pairs((20..60u64).map(|i| (i, 2.0 - (i % 2) as f64))).unwrap();
        let expected = weighted_jaccard(&a.normalized().unwrap(), &b.normalized().unwrap());
        let s = IcwsSketcher::new(4000, 23).unwrap();
        let sa = s.sketch(&a).unwrap();
        let sb = s.sketch(&b).unwrap();
        let rate = sa
            .samples()
            .iter()
            .zip(sb.samples())
            .filter(|(x, y)| x.index == y.index && x.token == y.token)
            .count() as f64
            / 4000.0;
        assert!(
            (rate - expected).abs() < 0.03,
            "collision rate {rate}, weighted Jaccard {expected}"
        );
    }

    #[test]
    fn estimates_inner_products() {
        let a = SparseVector::from_pairs((0..200u64).map(|i| (i, 1.0 + (i % 5) as f64))).unwrap();
        let b = SparseVector::from_pairs((100..300u64).map(|i| (i, 0.5 + (i % 4) as f64))).unwrap();
        let exact = inner_product(&a, &b);
        let scale = a.norm() * b.norm();
        let trials = 25;
        let mut total = 0.0;
        for seed in 0..trials {
            let s = IcwsSketcher::new(400, seed).unwrap();
            let sa = s.sketch(&a).unwrap();
            let sb = s.sketch(&b).unwrap();
            total += s.estimate_inner_product(&sa, &sb).unwrap();
        }
        let mean = total / f64::from(trials as u32);
        assert!(
            (mean - exact).abs() < 0.05 * scale,
            "mean {mean}, exact {exact}, scale {scale}"
        );
    }

    #[test]
    fn disjoint_supports_estimate_zero() {
        let s = IcwsSketcher::new(128, 5).unwrap();
        let a = s.sketch(&SparseVector::indicator(0..50u64)).unwrap();
        let b = s.sketch(&SparseVector::indicator(100..150u64)).unwrap();
        assert_eq!(s.estimate_inner_product(&a, &b).unwrap(), 0.0);
    }

    #[test]
    fn handles_heavy_outlier_entries() {
        let mut pairs_a: Vec<(u64, f64)> = (0..200u64).map(|i| (i, 0.2)).collect();
        let mut pairs_b: Vec<(u64, f64)> = (100..300u64).map(|i| (i, 0.2)).collect();
        pairs_a.push((500, 25.0));
        pairs_b.push((500, 30.0));
        let a = SparseVector::from_pairs(pairs_a).unwrap();
        let b = SparseVector::from_pairs(pairs_b).unwrap();
        let exact = inner_product(&a, &b);
        let scale = a.norm() * b.norm();
        let trials = 15;
        let mut total_err = 0.0;
        for seed in 0..trials {
            let s = IcwsSketcher::new(256, seed).unwrap();
            let sa = s.sketch(&a).unwrap();
            let sb = s.sketch(&b).unwrap();
            total_err += (s.estimate_inner_product(&sa, &sb).unwrap() - exact).abs();
        }
        let mean_err = total_err / f64::from(trials as u32) / scale;
        assert!(mean_err < 0.1, "mean scaled error {mean_err}");
    }

    #[test]
    fn incompatible_sketches_rejected() {
        let s1 = IcwsSketcher::new(16, 1).unwrap();
        let s2 = IcwsSketcher::new(16, 2).unwrap();
        let s3 = IcwsSketcher::new(8, 1).unwrap();
        let v = SparseVector::from_pairs([(0, 1.0), (1, 2.0)]).unwrap();
        let a = s1.sketch(&v).unwrap();
        assert!(s1
            .estimate_inner_product(&a, &s2.sketch(&v).unwrap())
            .is_err());
        assert!(s1
            .estimate_inner_product(&a, &s3.sketch(&v).unwrap())
            .is_err());
        assert!(s1.estimate_inner_product(&a, &a).is_ok());
    }

    #[test]
    fn merged_partitions_are_bit_identical_to_one_shot() {
        // No discretization is involved, so the announced-norm partition path must
        // reproduce the one-shot sketch exactly.
        let v =
            SparseVector::from_pairs((0..90u64).map(|i| (i * 2, 1.0 + (i % 7) as f64))).unwrap();
        let s = IcwsSketcher::new(64, 11).unwrap();
        let norm = v.norm();
        let pairs: Vec<(u64, f64)> = v.iter().collect();
        let mut merged = s.empty_sketch();
        for chunk in pairs.chunks(25) {
            let part = SparseVector::from_pairs(chunk.iter().copied()).unwrap();
            let partial = s.sketch_partition(&part, norm).unwrap();
            merged = s.merge(&merged, &partial).unwrap();
        }
        assert_eq!(merged, s.sketch(&v).unwrap());
    }

    #[test]
    fn update_stream_is_bit_identical_to_one_shot() {
        let v = SparseVector::from_pairs((0..40u64).map(|i| (i * 5, (i as f64) - 17.0))).unwrap();
        let s = IcwsSketcher::new(32, 7).unwrap();
        let mut streamed = s.empty_sketch_with_norm(v.norm()).unwrap();
        for (index, value) in v.iter() {
            s.update(&mut streamed, index, value).unwrap();
        }
        assert_eq!(streamed, s.sketch(&v).unwrap());
    }

    #[test]
    fn empty_sketches_estimate_zero_against_real_sketches() {
        // Sentinel slots must not register as collisions.
        let s = IcwsSketcher::new(16, 3).unwrap();
        let v = SparseVector::from_pairs([(0, 1.0), (1, 2.0)]).unwrap();
        let sk = s.sketch(&v).unwrap();
        let empty = s.empty_sketch();
        let est = s.estimate_inner_product(&empty, &sk).unwrap();
        assert_eq!(est, 0.0);
        assert_eq!(s.estimate_inner_product(&empty, &empty).unwrap(), 0.0);
    }

    #[test]
    fn merge_and_update_reject_mismatches() {
        let s = IcwsSketcher::new(8, 1).unwrap();
        let v = SparseVector::from_pairs([(0, 3.0), (1, 4.0)]).unwrap(); // norm 5
        let a = s.sketch_partition(&v, 10.0).unwrap();
        let b = s.sketch_partition(&v, 20.0).unwrap();
        assert!(s.merge(&a, &b).is_err());
        assert_eq!(s.merge(&s.empty_sketch(), &a).unwrap(), a);
        let mut no_norm = s.empty_sketch();
        assert!(matches!(
            s.update(&mut no_norm, 0, 1.0),
            Err(SketchError::InvalidParameter { name: "norm", .. })
        ));
        assert!(s.sketch_partition(&v, 1.0).is_err());
        assert!(s.empty_sketch_with_norm(-1.0).is_err());
        let other = IcwsSketcher::new(8, 2).unwrap();
        assert!(other.merge(&a, &a).is_err());
        let mut foreign = other.empty_sketch();
        assert!(s.update(&mut foreign, 0, 1.0).is_err());
    }
}

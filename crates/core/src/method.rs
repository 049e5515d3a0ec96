//! Dynamic, budget-driven front end over all sketching methods.
//!
//! The experiment harness and the examples compare several methods at equal *storage
//! budgets* (the paper's Section 5 protocol).  [`SketchMethod`] enumerates the
//! methods, [`AnySketcher`] wraps each concrete sketcher behind one type, and
//! [`AnySketcher::for_budget`] performs the budget → parameter conversion using the
//! accounting rules in [`crate::storage`].

use crate::countsketch::{CountSketch, CountSketcher};
use crate::error::{incompatible, SketchError};
use crate::icws::{IcwsSketch, IcwsSketcher};
use crate::jl::{JlSketch, JlSketcher};
use crate::kmv::{KmvSketch, KmvSketcher};
use crate::minhash::{MinHashSketch, MinHasher};
use crate::simhash::{SimHashSketch, SimHashSketcher};
use crate::storage;
use crate::traits::{MergeableSketcher, Sketch, Sketcher};
use crate::wmh::{WeightedMinHashSketch, WeightedMinHasher, WmhStream};
use ipsketch_vector::SparseVector;

/// The default discretization parameter `L` used when building WMH sketchers through
/// this front end (2²⁴ ≈ 16.7M, comfortably above the non-zero counts used anywhere in
/// the experiments, per the paper's guidance that `L` should exceed `n` by 100–1000×).
pub const DEFAULT_WMH_DISCRETIZATION: u64 = 1 << 24;

/// An inner-product sketching method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SketchMethod {
    /// Johnson–Lindenstrauss / AMS dense random projection.
    Jl,
    /// CountSketch with 5 repetitions and median estimation.
    CountSketch,
    /// Unweighted MinHash sampling (Algorithm 1).
    MinHash,
    /// k-minimum-values sampling.
    Kmv,
    /// Weighted MinHash sampling (Algorithm 3, the paper's method).
    WeightedMinHash,
    /// SimHash 1-bit random projections (extension).
    SimHash,
    /// Ioffe's consistent weighted sampling (extension).
    Icws,
}

impl SketchMethod {
    /// The five methods compared in the paper's experiments (Section 5), in the order
    /// they appear in the plots.
    #[must_use]
    pub fn paper_baselines() -> [SketchMethod; 5] {
        [
            SketchMethod::Jl,
            SketchMethod::CountSketch,
            SketchMethod::MinHash,
            SketchMethod::Kmv,
            SketchMethod::WeightedMinHash,
        ]
    }

    /// All implemented methods, including the extensions.
    #[must_use]
    pub fn all() -> [SketchMethod; 7] {
        [
            SketchMethod::Jl,
            SketchMethod::CountSketch,
            SketchMethod::MinHash,
            SketchMethod::Kmv,
            SketchMethod::WeightedMinHash,
            SketchMethod::SimHash,
            SketchMethod::Icws,
        ]
    }

    /// The short label used in the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SketchMethod::Jl => "JL",
            SketchMethod::CountSketch => "CS",
            SketchMethod::MinHash => "MH",
            SketchMethod::Kmv => "KMV",
            SketchMethod::WeightedMinHash => "WMH",
            SketchMethod::SimHash => "SimHash",
            SketchMethod::Icws => "ICWS",
        }
    }

    /// Parses a label produced by [`label`](Self::label) (case-insensitive).
    #[must_use]
    pub fn parse(label: &str) -> Option<SketchMethod> {
        match label.to_ascii_lowercase().as_str() {
            "jl" => Some(SketchMethod::Jl),
            "cs" | "countsketch" => Some(SketchMethod::CountSketch),
            "mh" | "minhash" => Some(SketchMethod::MinHash),
            "kmv" => Some(SketchMethod::Kmv),
            "wmh" | "weightedminhash" => Some(SketchMethod::WeightedMinHash),
            "simhash" => Some(SketchMethod::SimHash),
            "icws" => Some(SketchMethod::Icws),
            _ => None,
        }
    }
}

/// A sketch produced by [`AnySketcher`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnySketch {
    /// A JL sketch.
    Jl(JlSketch),
    /// A CountSketch.
    CountSketch(CountSketch),
    /// A MinHash sketch.
    MinHash(MinHashSketch),
    /// A KMV sketch.
    Kmv(KmvSketch),
    /// A Weighted MinHash sketch.
    WeightedMinHash(WeightedMinHashSketch),
    /// A SimHash sketch.
    SimHash(SimHashSketch),
    /// An ICWS sketch.
    Icws(IcwsSketch),
}

impl Sketch for AnySketch {
    fn len(&self) -> usize {
        match self {
            AnySketch::Jl(s) => s.len(),
            AnySketch::CountSketch(s) => s.len(),
            AnySketch::MinHash(s) => s.len(),
            AnySketch::Kmv(s) => s.len(),
            AnySketch::WeightedMinHash(s) => s.len(),
            AnySketch::SimHash(s) => s.len(),
            AnySketch::Icws(s) => s.len(),
        }
    }

    fn storage_doubles(&self) -> f64 {
        match self {
            AnySketch::Jl(s) => s.storage_doubles(),
            AnySketch::CountSketch(s) => s.storage_doubles(),
            AnySketch::MinHash(s) => s.storage_doubles(),
            AnySketch::Kmv(s) => s.storage_doubles(),
            AnySketch::WeightedMinHash(s) => s.storage_doubles(),
            AnySketch::SimHash(s) => s.storage_doubles(),
            AnySketch::Icws(s) => s.storage_doubles(),
        }
    }
}

/// The six inner products of a (query, candidate) column pair that the paper's
/// post-join statistics are built from, as `(query vector, candidate vector)` indices
/// into the Figure-3 triple (0 key indicator, 1 values, 2 squared values), in the
/// order [`AnySketcher::estimate_column_pair`] returns them: join size, `Σa`, `Σb`,
/// `Σa²`, `Σb²` and `⟨a, b⟩` over the joined rows.
pub const COLUMN_PAIR_PRODUCTS: [(usize, usize); 6] =
    [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)];

/// Evaluates `estimate(i, j)` for each pair of [`COLUMN_PAIR_PRODUCTS`] in order,
/// stopping at the first error.
pub(crate) fn column_pair_products(
    mut estimate: impl FnMut(usize, usize) -> Result<f64, SketchError>,
) -> Result<[f64; 6], SketchError> {
    let mut products = [0.0; 6];
    for (product, &(i, j)) in products.iter_mut().zip(&COLUMN_PAIR_PRODUCTS) {
        *product = estimate(i, j)?;
    }
    Ok(products)
}

/// How [`AnySketcher::sketch_triple`] sketches each of its vectors — the three
/// column-sketching paths of `ipsketch-join`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SketchPath {
    /// One-shot, as [`Sketcher::sketch`].
    OneShot,
    /// Split into row chunks and merged, as [`AnySketcher::sketch_chunked`] with this
    /// many partitions.
    Chunked(usize),
    /// One shard against announced full-vector norms (one per vector, in order), as
    /// [`AnySketcher::sketch_partial`].
    Announced([f64; 3]),
}

/// A runtime-selected sketcher.
#[derive(Debug, Clone)]
pub enum AnySketcher {
    /// Johnson–Lindenstrauss.
    Jl(JlSketcher),
    /// CountSketch.
    CountSketch(CountSketcher),
    /// MinHash.
    MinHash(MinHasher),
    /// KMV.
    Kmv(KmvSketcher),
    /// Weighted MinHash.
    WeightedMinHash(WeightedMinHasher),
    /// SimHash.
    SimHash(SimHashSketcher),
    /// ICWS.
    Icws(IcwsSketcher),
}

impl AnySketcher {
    /// Builds a sketcher of the given method sized to (at most) `budget_doubles`
    /// 64-bit-double equivalents of storage, using the paper's accounting rules.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] when the budget is too small to give
    /// the method at least one sample/row/bucket.
    pub fn for_budget(
        method: SketchMethod,
        budget_doubles: f64,
        seed: u64,
    ) -> Result<Self, SketchError> {
        Self::for_budget_with_discretization(
            method,
            budget_doubles,
            seed,
            DEFAULT_WMH_DISCRETIZATION,
        )
    }

    /// Like [`for_budget`](Self::for_budget) but with an explicit WMH discretization
    /// parameter `L` (ignored by the other methods).
    pub fn for_budget_with_discretization(
        method: SketchMethod,
        budget_doubles: f64,
        seed: u64,
        discretization: u64,
    ) -> Result<Self, SketchError> {
        Ok(match method {
            SketchMethod::Jl => AnySketcher::Jl(JlSketcher::new(
                storage::jl_rows_for_budget(budget_doubles),
                seed,
            )?),
            SketchMethod::CountSketch => AnySketcher::CountSketch(CountSketcher::new(
                storage::countsketch_buckets_for_budget(budget_doubles),
                seed,
            )?),
            SketchMethod::MinHash => AnySketcher::MinHash(MinHasher::new(
                storage::sampling_samples_for_budget(budget_doubles),
                seed,
            )?),
            SketchMethod::Kmv => AnySketcher::Kmv(KmvSketcher::new(
                storage::sampling_samples_for_budget(budget_doubles),
                seed,
            )?),
            // Freshly configured sketchers sample the v2 record stream: deterministic
            // across platforms and faster to build.  Re-opening an existing catalog
            // goes through `SketcherSpec::build`, which preserves the recorded stream.
            SketchMethod::WeightedMinHash => {
                AnySketcher::WeightedMinHash(WeightedMinHasher::with_stream(
                    storage::wmh_samples_for_budget(budget_doubles),
                    seed,
                    discretization,
                    WmhStream::V2,
                )?)
            }
            SketchMethod::SimHash => AnySketcher::SimHash(SimHashSketcher::new(
                storage::simhash_bits_for_budget(budget_doubles),
                seed,
            )?),
            SketchMethod::Icws => AnySketcher::Icws(IcwsSketcher::new(
                storage::icws_samples_for_budget(budget_doubles),
                seed,
            )?),
        })
    }

    /// Combines two sketches of this sketcher's method into the sketch of the sum of
    /// their vectors (see [`MergeableSketcher`] for the per-family semantics).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleSketches`] when the sketch types do not match
    /// the method or were built with a different configuration, and for SimHash, which
    /// quantizes to single bits and cannot be merged.
    pub fn merge_sketches(&self, a: &AnySketch, b: &AnySketch) -> Result<AnySketch, SketchError> {
        match (self, a, b) {
            (AnySketcher::Jl(s), AnySketch::Jl(x), AnySketch::Jl(y)) => {
                Ok(AnySketch::Jl(s.merge(x, y)?))
            }
            (AnySketcher::CountSketch(s), AnySketch::CountSketch(x), AnySketch::CountSketch(y)) => {
                Ok(AnySketch::CountSketch(s.merge(x, y)?))
            }
            (AnySketcher::MinHash(s), AnySketch::MinHash(x), AnySketch::MinHash(y)) => {
                Ok(AnySketch::MinHash(s.merge(x, y)?))
            }
            (AnySketcher::Kmv(s), AnySketch::Kmv(x), AnySketch::Kmv(y)) => {
                Ok(AnySketch::Kmv(s.merge(x, y)?))
            }
            (
                AnySketcher::WeightedMinHash(s),
                AnySketch::WeightedMinHash(x),
                AnySketch::WeightedMinHash(y),
            ) => Ok(AnySketch::WeightedMinHash(s.merge(x, y)?)),
            (AnySketcher::Icws(s), AnySketch::Icws(x), AnySketch::Icws(y)) => {
                Ok(AnySketch::Icws(s.merge(x, y)?))
            }
            (AnySketcher::SimHash(_), _, _) => Err(incompatible(
                "SimHash sketches quantize to single bits and cannot be merged",
            )),
            _ => Err(incompatible(
                "sketch types do not match this sketcher's method",
            )),
        }
    }

    /// Sketches `vector` by splitting its support into `partitions` contiguous chunks,
    /// sketching each chunk independently, and merging — the distributed-sketching path
    /// exercised end to end by `ipsketch-join`.
    ///
    /// For the normalized samplers (WMH, ICWS) the full vector's norm is computed first
    /// and announced to every chunk (the two-pass protocol); in a genuinely distributed
    /// setting that first pass is a cheap shard-local `Σv²` reduction.  The result is
    /// bit-identical to one-shot sketching for MinHash, KMV and ICWS, identical up to
    /// floating-point addition order for JL and CountSketch, and estimate-equivalent
    /// (identical up to the Algorithm-4 mass absorption) for WMH.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `partitions == 0`, the sketching
    /// errors of [`Sketcher::sketch`], and [`SketchError::IncompatibleSketches`] for
    /// SimHash (not mergeable).
    pub fn sketch_chunked(
        &self,
        vector: &SparseVector,
        partitions: usize,
    ) -> Result<AnySketch, SketchError> {
        if partitions == 0 {
            return Err(zero_partitions());
        }
        if matches!(self, AnySketcher::SimHash(_)) {
            return Err(incompatible(
                "SimHash sketches quantize to single bits and cannot be merged",
            ));
        }
        // Degenerate inputs take the one-shot path: either nothing to split, or the
        // method's own empty-vector handling should apply unchanged.
        if partitions == 1 || vector.nnz() <= 1 {
            return self.sketch(vector);
        }
        let pairs: Vec<(u64, f64)> = vector.iter().collect();
        let chunk_len = pairs.len().div_ceil(partitions);
        // Only the normalized samplers need the announced norm; skip the extra pass
        // over the vector for everyone else.
        let norm = match self {
            AnySketcher::WeightedMinHash(_) | AnySketcher::Icws(_) => vector.norm(),
            _ => 0.0,
        };
        let mut merged: Option<AnySketch> = None;
        for chunk in pairs.chunks(chunk_len) {
            let part = SparseVector::from_pairs(chunk.iter().copied())?;
            let sketch = match self {
                AnySketcher::WeightedMinHash(s) => {
                    AnySketch::WeightedMinHash(s.sketch_partition(&part, norm)?)
                }
                AnySketcher::Icws(s) => AnySketch::Icws(s.sketch_partition(&part, norm)?),
                other => other.sketch(&part)?,
            };
            merged = Some(match merged {
                None => sketch,
                Some(acc) => self.merge_sketches(&acc, &sketch)?,
            });
        }
        merged.map_or_else(|| self.sketch(vector), Ok)
    }

    /// Sketches one partition of a larger vector under the announced-norm protocol:
    /// the single-shard building block of distributed ingest.  `vector` holds the
    /// shard's subset of the full vector's support and `announced_norm` is the
    /// Euclidean norm of the *full* vector (obtained by exchanging shard-local `Σv²`
    /// partial sums first).  The normalized samplers (WMH, ICWS) sketch against the
    /// announced norm via their `sketch_partition` entry points; the other mergeable
    /// methods ignore the norm and sketch the shard directly.  Partials built this way
    /// fold with [`merge_sketches`](Self::merge_sketches) into the sketch of the whole
    /// vector.
    ///
    /// An empty shard (a row range whose values are all zero) yields the method's
    /// empty sketch — the merge identity — rather than an error, so coordinators can
    /// fold shard results without special-casing.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleSketches`] for SimHash (not mergeable),
    /// [`SketchError::InvalidParameter`] if a normalized sampler's `announced_norm` is
    /// not positive and finite or is smaller than the shard's own norm, and the
    /// sketching errors of [`Sketcher::sketch`].
    pub fn sketch_partial(
        &self,
        vector: &SparseVector,
        announced_norm: f64,
    ) -> Result<AnySketch, SketchError> {
        match self {
            AnySketcher::SimHash(_) => Err(incompatible(
                "SimHash sketches quantize to single bits and cannot be merged",
            )),
            AnySketcher::WeightedMinHash(s) => {
                if vector.is_empty() {
                    return Ok(AnySketch::WeightedMinHash(
                        s.empty_sketch_with_norm(announced_norm)?,
                    ));
                }
                Ok(AnySketch::WeightedMinHash(
                    s.sketch_partition(vector, announced_norm)?,
                ))
            }
            AnySketcher::Icws(s) => {
                if vector.is_empty() {
                    return Ok(AnySketch::Icws(s.empty_sketch_with_norm(announced_norm)?));
                }
                Ok(AnySketch::Icws(s.sketch_partition(vector, announced_norm)?))
            }
            AnySketcher::Jl(s) => Ok(AnySketch::Jl(if vector.is_empty() {
                s.empty_sketch()
            } else {
                s.sketch(vector)?
            })),
            AnySketcher::CountSketch(s) => Ok(AnySketch::CountSketch(if vector.is_empty() {
                s.empty_sketch()
            } else {
                s.sketch(vector)?
            })),
            AnySketcher::MinHash(s) => Ok(AnySketch::MinHash(if vector.is_empty() {
                s.empty_sketch()
            } else {
                s.sketch(vector)?
            })),
            AnySketcher::Kmv(s) => Ok(AnySketch::Kmv(if vector.is_empty() {
                s.empty_sketch()
            } else {
                s.sketch(vector)?
            })),
        }
    }

    /// Sketches the three Figure-3 vectors of one table column (key indicator,
    /// values, squared values) along `path` — the column-level entry point.
    ///
    /// The result is bit-identical to three separate calls of the path's per-vector
    /// method, and so is the error: the first one in vector order.  That is also how
    /// every method but Weighted MinHash computes it.  WMH sketches the three in one
    /// pass instead ([`WeightedMinHasher::sketch_many`]): the vectors share their keys,
    /// so each `(sample, key)` record stream is replayed once for all three.  A
    /// chunked WMH sketch needs no chunks there: min-merging in-order chunk partials
    /// against the full norm is exactly one partition sketch of the whole vector
    /// against that norm (both keep the earliest key on ties), and the one-shot
    /// fallback for `partitions == 1` or a single entry is kept.
    ///
    /// # Errors
    ///
    /// As [`Sketcher::sketch`], [`sketch_chunked`](Self::sketch_chunked) or
    /// [`sketch_partial`](Self::sketch_partial) for the first vector that fails.
    pub fn sketch_triple(
        &self,
        vectors: [&SparseVector; 3],
        path: SketchPath,
    ) -> Result<[AnySketch; 3], SketchError> {
        if let AnySketcher::WeightedMinHash(s) = self {
            let announced: [Option<f64>; 3] = match path {
                SketchPath::OneShot => [None; 3],
                SketchPath::Chunked(0) => return Err(zero_partitions()),
                SketchPath::Chunked(partitions) => {
                    vectors.map(|v| (partitions > 1 && v.nnz() > 1).then(|| v.norm()))
                }
                SketchPath::Announced(norms) => norms.map(Some),
            };
            let inputs = std::array::from_fn(|i| (vectors[i], announced[i]));
            return Ok(s
                .sketch_many(inputs, crate::kernel::KernelMode::Vectorized)?
                .map(AnySketch::WeightedMinHash));
        }
        let one = |i: usize| match path {
            SketchPath::OneShot => self.sketch(vectors[i]),
            SketchPath::Chunked(partitions) => self.sketch_chunked(vectors[i], partitions),
            SketchPath::Announced(norms) => self.sketch_partial(vectors[i], norms[i]),
        };
        Ok([one(0)?, one(1)?, one(2)?])
    }

    /// The six inner products of a (query, candidate) column pair, in
    /// [`COLUMN_PAIR_PRODUCTS`] order: `a` and `b` are the two columns' (key
    /// indicator, values, squared values) sketches — the column-level entry point of
    /// estimation, as [`sketch_triple`](Self::sketch_triple) is of sketching.
    ///
    /// The result is bit-identical to six
    /// [`estimate_inner_product`](Sketcher::estimate_inner_product) calls in that
    /// order, and so is the error: the first one.  Every method but Weighted MinHash
    /// makes those six calls.  WMH computes all six in one pass over the samples
    /// instead ([`WeightedMinHasher::estimate_column_pair`]).
    ///
    /// # Errors
    ///
    /// The first error of the six sequential calls.
    pub fn estimate_column_pair(
        &self,
        a: [&AnySketch; 3],
        b: [&AnySketch; 3],
    ) -> Result<[f64; 6], SketchError> {
        if let (AnySketcher::WeightedMinHash(s), Some(a), Some(b)) =
            (self, wmh_triple(a), wmh_triple(b))
        {
            return s.estimate_column_pair(a, b);
        }
        column_pair_products(|i, j| self.estimate_inner_product(a[i], b[j]))
    }

    /// The method of this sketcher.
    #[must_use]
    pub fn method(&self) -> SketchMethod {
        match self {
            AnySketcher::Jl(_) => SketchMethod::Jl,
            AnySketcher::CountSketch(_) => SketchMethod::CountSketch,
            AnySketcher::MinHash(_) => SketchMethod::MinHash,
            AnySketcher::Kmv(_) => SketchMethod::Kmv,
            AnySketcher::WeightedMinHash(_) => SketchMethod::WeightedMinHash,
            AnySketcher::SimHash(_) => SketchMethod::SimHash,
            AnySketcher::Icws(_) => SketchMethod::Icws,
        }
    }
}

/// The WMH sketches of a column triple, or `None` if any is another method's.
fn wmh_triple(triple: [&AnySketch; 3]) -> Option<[&WeightedMinHashSketch; 3]> {
    match triple {
        [AnySketch::WeightedMinHash(x), AnySketch::WeightedMinHash(y), AnySketch::WeightedMinHash(z)] => {
            Some([x, y, z])
        }
        _ => None,
    }
}

/// The error for a chunked sketch asked for zero partitions.
fn zero_partitions() -> SketchError {
    SketchError::InvalidParameter {
        name: "partitions",
        allowed: ">= 1",
    }
}

impl Sketcher for AnySketcher {
    type Output = AnySketch;

    fn sketch(&self, vector: &SparseVector) -> Result<AnySketch, SketchError> {
        Ok(match self {
            AnySketcher::Jl(s) => AnySketch::Jl(s.sketch(vector)?),
            AnySketcher::CountSketch(s) => AnySketch::CountSketch(s.sketch(vector)?),
            AnySketcher::MinHash(s) => AnySketch::MinHash(s.sketch(vector)?),
            AnySketcher::Kmv(s) => AnySketch::Kmv(s.sketch(vector)?),
            AnySketcher::WeightedMinHash(s) => AnySketch::WeightedMinHash(s.sketch(vector)?),
            AnySketcher::SimHash(s) => AnySketch::SimHash(s.sketch(vector)?),
            AnySketcher::Icws(s) => AnySketch::Icws(s.sketch(vector)?),
        })
    }

    fn estimate_inner_product(&self, a: &AnySketch, b: &AnySketch) -> Result<f64, SketchError> {
        match (self, a, b) {
            (AnySketcher::Jl(s), AnySketch::Jl(x), AnySketch::Jl(y)) => {
                s.estimate_inner_product(x, y)
            }
            (AnySketcher::CountSketch(s), AnySketch::CountSketch(x), AnySketch::CountSketch(y)) => {
                s.estimate_inner_product(x, y)
            }
            (AnySketcher::MinHash(s), AnySketch::MinHash(x), AnySketch::MinHash(y)) => {
                s.estimate_inner_product(x, y)
            }
            (AnySketcher::Kmv(s), AnySketch::Kmv(x), AnySketch::Kmv(y)) => {
                s.estimate_inner_product(x, y)
            }
            (
                AnySketcher::WeightedMinHash(s),
                AnySketch::WeightedMinHash(x),
                AnySketch::WeightedMinHash(y),
            ) => s.estimate_inner_product(x, y),
            (AnySketcher::SimHash(s), AnySketch::SimHash(x), AnySketch::SimHash(y)) => {
                s.estimate_inner_product(x, y)
            }
            (AnySketcher::Icws(s), AnySketch::Icws(x), AnySketch::Icws(y)) => {
                s.estimate_inner_product(x, y)
            }
            _ => Err(incompatible(
                "sketch types do not match this sketcher's method",
            )),
        }
    }

    fn name(&self) -> &'static str {
        self.method().label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_vector::inner_product;

    fn vectors() -> (SparseVector, SparseVector) {
        let a = SparseVector::from_pairs((0..400u64).map(|i| (i, 1.0 + (i % 3) as f64))).unwrap();
        let b = SparseVector::from_pairs((200..600u64).map(|i| (i, 2.0 - (i % 2) as f64))).unwrap();
        (a, b)
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for method in SketchMethod::all() {
            assert_eq!(SketchMethod::parse(method.label()), Some(method));
        }
        assert_eq!(SketchMethod::parse("unknown"), None);
        assert_eq!(
            SketchMethod::parse("wmh"),
            Some(SketchMethod::WeightedMinHash)
        );
    }

    #[test]
    fn paper_baselines_is_subset_of_all() {
        let all = SketchMethod::all();
        for m in SketchMethod::paper_baselines() {
            assert!(all.contains(&m));
        }
    }

    #[test]
    fn budget_construction_respects_storage() {
        let (a, _) = vectors();
        for method in SketchMethod::all() {
            let sketcher = AnySketcher::for_budget(method, 400.0, 1).unwrap();
            assert_eq!(sketcher.method(), method);
            let sketch = sketcher.sketch(&a).unwrap();
            assert!(
                sketch.storage_doubles() <= 400.0 + 1e-9,
                "{method:?} exceeded its budget: {}",
                sketch.storage_doubles()
            );
            assert!(sketch.len() > 0);
        }
    }

    #[test]
    fn too_small_budget_is_rejected() {
        assert!(AnySketcher::for_budget(SketchMethod::Jl, 0.0, 1).is_err());
        assert!(AnySketcher::for_budget(SketchMethod::WeightedMinHash, 1.0, 1).is_err());
        assert!(AnySketcher::for_budget(SketchMethod::Kmv, 2.0, 1).is_err());
    }

    #[test]
    fn all_methods_estimate_reasonably_at_large_budget() {
        let (a, b) = vectors();
        let exact = inner_product(&a, &b);
        let scale = a.norm() * b.norm();
        for method in SketchMethod::all() {
            let mut total = 0.0;
            let trials = 10;
            for seed in 0..trials {
                let sketcher = AnySketcher::for_budget(method, 800.0, seed).unwrap();
                let sa = sketcher.sketch(&a).unwrap();
                let sb = sketcher.sketch(&b).unwrap();
                total += sketcher.estimate_inner_product(&sa, &sb).unwrap();
            }
            let mean = total / f64::from(trials as u32);
            assert!(
                (mean - exact).abs() < 0.2 * scale,
                "{method:?}: mean {mean}, exact {exact}, scale {scale}"
            );
        }
    }

    #[test]
    fn mismatched_sketch_types_rejected() {
        let (a, b) = vectors();
        let jl = AnySketcher::for_budget(SketchMethod::Jl, 100.0, 1).unwrap();
        let mh = AnySketcher::for_budget(SketchMethod::MinHash, 100.0, 1).unwrap();
        let sa = jl.sketch(&a).unwrap();
        let sb = mh.sketch(&b).unwrap();
        assert!(matches!(
            jl.estimate_inner_product(&sa, &sb),
            Err(SketchError::IncompatibleSketches { .. })
        ));
    }

    #[test]
    fn chunked_sketching_matches_one_shot_for_every_mergeable_method() {
        let (a, b) = vectors();
        let exact_scale = a.norm() * b.norm();
        for method in [
            SketchMethod::Jl,
            SketchMethod::CountSketch,
            SketchMethod::MinHash,
            SketchMethod::Kmv,
            SketchMethod::WeightedMinHash,
            SketchMethod::Icws,
        ] {
            let sketcher = AnySketcher::for_budget(method, 300.0, 7).unwrap();
            for partitions in [1, 3, 8] {
                let ca = sketcher.sketch_chunked(&a, partitions).unwrap();
                let cb = sketcher.sketch_chunked(&b, partitions).unwrap();
                let one_a = sketcher.sketch(&a).unwrap();
                let one_b = sketcher.sketch(&b).unwrap();
                if matches!(
                    method,
                    SketchMethod::MinHash | SketchMethod::Kmv | SketchMethod::Icws
                ) {
                    assert_eq!(ca, one_a, "{method:?}/{partitions}");
                }
                let est_chunked = sketcher.estimate_inner_product(&ca, &cb).unwrap();
                let est_one = sketcher.estimate_inner_product(&one_a, &one_b).unwrap();
                let tolerance = match method {
                    // WMH partials floor every grid count; one-shot absorbs lost mass
                    // at the max entry, so estimates agree only up to that rounding.
                    SketchMethod::WeightedMinHash => 0.05 * exact_scale,
                    _ => 1e-6 * (1.0 + est_one.abs()),
                };
                assert!(
                    (est_chunked - est_one).abs() <= tolerance,
                    "{method:?}/{partitions}: chunked {est_chunked} vs one-shot {est_one}"
                );
            }
        }
    }

    #[test]
    fn merge_sketches_rejects_simhash_and_mixed_types() {
        let (a, b) = vectors();
        let simhash = AnySketcher::for_budget(SketchMethod::SimHash, 100.0, 1).unwrap();
        let sa = simhash.sketch(&a).unwrap();
        let sb = simhash.sketch(&b).unwrap();
        assert!(simhash.merge_sketches(&sa, &sb).is_err());
        assert!(simhash.sketch_chunked(&a, 4).is_err());
        let jl = AnySketcher::for_budget(SketchMethod::Jl, 100.0, 1).unwrap();
        let ja = jl.sketch(&a).unwrap();
        assert!(jl.merge_sketches(&ja, &sa).is_err());
        assert!(jl.sketch_chunked(&a, 0).is_err());
    }

    #[test]
    fn name_matches_method_label() {
        let s = AnySketcher::for_budget(SketchMethod::WeightedMinHash, 100.0, 1).unwrap();
        assert_eq!(s.name(), "WMH");
    }

    #[test]
    fn explicit_discretization_is_used() {
        let s = AnySketcher::for_budget_with_discretization(
            SketchMethod::WeightedMinHash,
            100.0,
            1,
            1 << 10,
        )
        .unwrap();
        match s {
            AnySketcher::WeightedMinHash(w) => assert_eq!(w.discretization(), 1 << 10),
            _ => panic!("expected a WMH sketcher"),
        }
    }
}

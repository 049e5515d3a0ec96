//! Hashing substrate for inner-product sketching.
//!
//! This crate provides every source of (pseudo-)randomness used by the sketching
//! algorithms in `ipsketch-core`:
//!
//! * [`mix`] — avalanching 64-bit mixers (SplitMix64 finalizer and friends) used to
//!   derive independent streams from a single master seed.
//! * [`rng`] — small, self-contained pseudo-random number generators (SplitMix64 and
//!   Xoshiro256++) with a stable output sequence, so sketches are reproducible across
//!   builds and platforms.
//! * [`prime`] — modular arithmetic over the Mersenne primes `2^31 − 1` and `2^61 − 1`.
//! * [`universal`] — Carter–Wegman 2-universal and k-wise independent polynomial hash
//!   functions, plus the multiply-shift scheme.
//! * [`tabulation`] — simple tabulation hashing (3-universal, and much stronger in
//!   practice).
//! * [`unit`](mod@unit) — the [`UnitHasher`] trait mapping 64-bit keys to
//!   uniform values in `[0, 1)`, with implementations backed by each hash family.
//! * [`family`] — seeded families of independent unit hashers, as required by MinHash
//!   style sketches that need `m` independent hash functions.
//! * [`sign`] — ±1 sign hashes and bucket hashes used by Johnson–Lindenstrauss,
//!   CountSketch and SimHash.
//! * [`geometric`] — inverse-CDF geometric sampling, in two frozen definitions: the v1
//!   sampler bound to libm's `ln` and the v2 sampler built on [`log2`].
//! * [`log2`] — a deterministic, cross-platform `log₂` from exactly-specified f64
//!   arithmetic, the foundation of the format-v2 record stream.
//! * [`record`] — deterministic *record streams*: the sequence of successive minima of
//!   an implicit stream of uniform hash values, used to implement the "active index"
//!   technique that makes Weighted MinHash sketching run in `O(nnz · m · log L)` time
//!   instead of `O(nnz · m · L)`.
//!
//! All functionality is deterministic given a seed and uses no global state and no
//! interior mutability.  `unsafe` is denied crate-wide with exactly one carve-out:
//! the AVX2 twins of the deterministic logarithm and the v2 record replay
//! ([`log2::fast_log2_x4`] and [`record::avx2`]), which consist solely of
//! `core::arch` SIMD intrinsics behind runtime feature detection and are tested
//! bit-for-bit against their safe scalar references.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod family;
pub mod geometric;
pub mod log2;
pub mod mix;
pub mod prime;
pub mod record;
pub mod rng;
pub mod sign;
pub mod tabulation;
pub mod unit;
pub mod universal;

pub use error::HashError;
pub use family::{HashFamily, HashFamilyKind, UnitHashFamily};
pub use geometric::{geometric_skip, geometric_skip_v2};
pub use log2::fast_log2;
pub use record::{Record, RecordStream};
pub use rng::{SplitMix64, Xoshiro256PlusPlus};
pub use sign::{BucketHasher, SignHasher};
pub use unit::{MixUnitHasher, UnitHasher, Wegman31UnitHasher, Wegman61UnitHasher};
pub use universal::{CarterWegman31, CarterWegman61, MultiplyShift, PolynomialHash};

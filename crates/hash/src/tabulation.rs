//! Simple tabulation hashing.
//!
//! Tabulation hashing splits a 64-bit key into 8 bytes and XORs together 8 random
//! 64-bit table entries, one per byte value.  It is only 3-wise independent but is known
//! to behave like a fully random hash function for many algorithms (Pătraşcu & Thorup),
//! which makes it a useful "stronger hash" ablation point for the sketching algorithms
//! (ablation A3, `hash_sweep`, in the experiment table of
//! `crates/bench/src/experiments/mod.rs`).

use crate::rng::Xoshiro256PlusPlus;

/// Number of byte-indexed tables (one per byte of a 64-bit key).
const NUM_TABLES: usize = 8;
/// Entries per table (one per possible byte value).
const TABLE_SIZE: usize = 256;

/// A simple tabulation hash on 64-bit keys.
///
/// Uses 8 tables of 256 random 64-bit entries (16 KiB of state per hash function).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabulationHash {
    tables: Box<[[u64; TABLE_SIZE]; NUM_TABLES]>,
}

impl TabulationHash {
    /// Creates a tabulation hash whose tables are filled deterministically from `seed`.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Xoshiro256PlusPlus::from_seed_and_stream(seed, 0x7AB_1E5);
        let mut tables = Box::new([[0u64; TABLE_SIZE]; NUM_TABLES]);
        for table in tables.iter_mut() {
            for entry in table.iter_mut() {
                *entry = rng.next_u64();
            }
        }
        Self { tables }
    }

    /// Evaluates the hash.
    #[inline]
    #[must_use]
    pub fn hash(&self, key: u64) -> u64 {
        let bytes = key.to_le_bytes();
        let mut acc = 0u64;
        for (i, &b) in bytes.iter().enumerate() {
            acc ^= self.tables[i][usize::from(b)];
        }
        acc
    }

    /// Evaluates the hash and maps it to `[0, 1)`.
    #[inline]
    #[must_use]
    pub fn hash_unit(&self, key: u64) -> f64 {
        crate::mix::u64_to_unit_f64(self.hash(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = TabulationHash::from_seed(1);
        let b = TabulationHash::from_seed(1);
        for key in [0u64, 5, 0xFFFF_FFFF_FFFF_FFFF, 1 << 40] {
            assert_eq!(a.hash(key), b.hash(key));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TabulationHash::from_seed(1);
        let b = TabulationHash::from_seed(2);
        let same = (0..100u64).filter(|&k| a.hash(k) == b.hash(k)).count();
        assert!(same < 5, "{same} agreements is suspiciously many");
    }

    #[test]
    fn hash_of_zero_key_is_xor_of_zero_entries() {
        let h = TabulationHash::from_seed(3);
        let expected = (0..NUM_TABLES).fold(0u64, |acc, i| acc ^ h.tables[i][0]);
        assert_eq!(h.hash(0), expected);
    }

    #[test]
    fn unit_values_in_range_with_mean_near_half() {
        let h = TabulationHash::from_seed(7);
        let n = 20_000u64;
        let mut sum = 0.0;
        for k in 0..n {
            let v = h.hash_unit(k);
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn few_collisions_on_sequential_keys() {
        let h = TabulationHash::from_seed(11);
        let mut values: Vec<u64> = (0..10_000u64).map(|k| h.hash(k)).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 10_000);
    }

    #[test]
    fn byte_locality_does_not_leak() {
        // Keys differing in a single byte should produce unrelated hashes.
        let h = TabulationHash::from_seed(13);
        let base = h.hash(0x0102_0304_0506_0708);
        let other = h.hash(0x0102_0304_0506_0709);
        assert_ne!(base, other);
        // Hamming distance should be substantial (~32 bits on average).
        assert!((base ^ other).count_ones() > 10);
    }
}

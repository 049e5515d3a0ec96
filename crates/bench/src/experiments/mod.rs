//! Experiment drivers, one per evaluation artifact of the paper.
//!
//! | Module | Artifact |
//! |---|---|
//! | [`table1`] | Table 1 — error-bound comparison (empirical check) |
//! | [`fig4`] | Figure 4(a–d) — synthetic vectors, error vs. storage for four overlap ratios |
//! | [`fig5`] | Figure 5(a–b) — World-Bank-like column pairs, winning tables binned by overlap × kurtosis |
//! | [`fig6`] | Figure 6(a–b) — text similarity, error vs. storage for all / long documents |
//! | [`storage`] | Section 5 "Storage Size" accounting check |
//! | [`l_sweep`] | Ablation A2 — WMH accuracy vs. discretization parameter `L` |
//! | [`hash_sweep`] | Ablation A3 — accuracy vs. hash family |
//! | [`extensions`] | Extension A4 — SimHash and ICWS added to the Figure-4 sweep |
//! | [`merge`] | Mergeable sketches — chunk-and-merge cost vs. one-shot sketching |

pub mod extensions;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod hash_sweep;
pub mod l_sweep;
pub mod merge;
pub mod storage;
pub mod table1;

use ipsketch_core::method::AnySketcher;
use ipsketch_core::traits::Sketcher;
use ipsketch_core::SketchError;
use ipsketch_vector::{inner_product, scaled_absolute_error, SparseVector};

/// How large an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced parameters that finish in seconds; used by default and by tests.
    Quick,
    /// The paper's full parameters (5000 column pairs, all document pairs, 10 trials).
    Paper,
}

impl Scale {
    /// Parses `--full` / `--paper` style flags from command-line arguments.
    #[must_use]
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        for arg in args {
            if arg == "--full" || arg == "--paper" {
                return Scale::Paper;
            }
        }
        Scale::Quick
    }
}

/// Sketches both vectors with `sketcher` and returns the paper's scaled estimation
/// error `|est − ⟨a,b⟩| / (‖a‖‖b‖)`.
///
/// # Errors
///
/// Propagates any sketching/estimation error.
pub fn sketched_error(
    sketcher: &AnySketcher,
    a: &SparseVector,
    b: &SparseVector,
) -> Result<f64, SketchError> {
    let sa = sketcher.sketch(a)?;
    let sb = sketcher.sketch(b)?;
    let estimate = sketcher.estimate_inner_product(&sa, &sb)?;
    Ok(scaled_absolute_error(
        estimate,
        inner_product(a, b),
        a.norm(),
        b.norm(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_core::method::SketchMethod;

    #[test]
    fn scale_from_args() {
        assert_eq!(Scale::from_args(Vec::<String>::new()), Scale::Quick);
        assert_eq!(Scale::from_args(vec!["--full".to_string()]), Scale::Paper);
        assert_eq!(Scale::from_args(vec!["--paper".to_string()]), Scale::Paper);
        assert_eq!(Scale::from_args(vec!["other".to_string()]), Scale::Quick);
    }

    #[test]
    fn sketched_error_is_small_for_identical_vectors_at_large_budget() {
        let v = SparseVector::from_pairs((0..200u64).map(|i| (i, 1.0 + (i % 3) as f64))).unwrap();
        let sketcher = AnySketcher::for_budget(SketchMethod::Jl, 600.0, 1).unwrap();
        let err = sketched_error(&sketcher, &v, &v).unwrap();
        assert!(err < 0.2, "error {err}");
    }
}

//! The benchmark catalogue: the paper's Table 4.
//!
//! Each entry carries the Default input value range and the paper's input
//! size; [`BenchKind::dims`] derives concrete problem dimensions from a
//! size scale so tests can run tiny instances while experiments run
//! paper-scale ones.

use core::fmt;

/// The fourteen Polybench applications the paper evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BenchKind {
    /// 2-D convolution (3×3 stencil).
    TwoDConv,
    /// Two chained matrix multiplications.
    TwoMM,
    /// 3-D convolution.
    ThreeDConv,
    /// Three chained matrix multiplications.
    ThreeMM,
    /// `y = Aᵀ(Ax)`.
    Atax,
    /// BiCG sub-kernel: `q = Ap`, `s = Aᵀr`.
    Bicg,
    /// Correlation matrix.
    Corr,
    /// Covariance matrix.
    Covar,
    /// 2-D finite-difference time domain.
    Fdtd2d,
    /// `C = αAB + βC`.
    Gemm,
    /// `y = αAx + βBx`.
    Gesummv,
    /// `x1 += Ay1; x2 += Aᵀy2`.
    Mvt,
    /// Symmetric rank-2k update.
    Syr2k,
    /// Symmetric rank-k update.
    Syrk,
}

impl BenchKind {
    /// All benchmarks in the paper's (alphabetical) order.
    pub const ALL: [BenchKind; 14] = [
        BenchKind::TwoDConv,
        BenchKind::TwoMM,
        BenchKind::ThreeDConv,
        BenchKind::ThreeMM,
        BenchKind::Atax,
        BenchKind::Bicg,
        BenchKind::Corr,
        BenchKind::Covar,
        BenchKind::Fdtd2d,
        BenchKind::Gemm,
        BenchKind::Gesummv,
        BenchKind::Mvt,
        BenchKind::Syr2k,
        BenchKind::Syrk,
    ];

    /// The paper's name for the benchmark.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            BenchKind::TwoDConv => "2DCONV",
            BenchKind::TwoMM => "2MM",
            BenchKind::ThreeDConv => "3DCONV",
            BenchKind::ThreeMM => "3MM",
            BenchKind::Atax => "ATAX",
            BenchKind::Bicg => "BICG",
            BenchKind::Corr => "CORR",
            BenchKind::Covar => "COVAR",
            BenchKind::Fdtd2d => "FDTD-2D",
            BenchKind::Gemm => "GEMM",
            BenchKind::Gesummv => "GESUMMV",
            BenchKind::Mvt => "MVT",
            BenchKind::Syr2k => "SYR2K",
            BenchKind::Syrk => "SYRK",
        }
    }

    /// The Default input value range from Table 4.
    #[must_use]
    pub fn default_range(self) -> (f64, f64) {
        match self {
            BenchKind::TwoDConv => (0.0, 1.0),
            BenchKind::TwoMM => (0.0, 2051.0),
            BenchKind::ThreeDConv => (0.0, 59.0),
            BenchKind::ThreeMM => (0.0, 515.0),
            BenchKind::Atax => (0.0, 4094.0),
            BenchKind::Bicg => (0.0, 4096.0 * core::f64::consts::PI),
            BenchKind::Corr => (0.0, 2047.0),
            BenchKind::Covar => (0.0, 2048.0),
            BenchKind::Fdtd2d => (-9.01, 2041.0),
            BenchKind::Gemm => (0.0, 513.0),
            BenchKind::Gesummv => (0.0, 4096.0),
            BenchKind::Mvt => (0.0, 2.0),
            BenchKind::Syr2k => (0.0, 2050.0),
            BenchKind::Syrk => (0.0, 1026.0),
        }
    }

    /// The paper's input size in megabytes (Table 4).
    #[must_use]
    pub const fn paper_input_mb(self) -> f64 {
        match self {
            BenchKind::TwoDConv
            | BenchKind::TwoMM
            | BenchKind::Atax
            | BenchKind::Bicg
            | BenchKind::Gesummv
            | BenchKind::Mvt => 16.0,
            BenchKind::Corr | BenchKind::Covar | BenchKind::Fdtd2d | BenchKind::Syr2k => 4.0,
            BenchKind::ThreeDConv => 16.0,
            BenchKind::ThreeMM | BenchKind::Syrk => 1.0,
            BenchKind::Gemm => 0.25,
        }
    }

    /// Whether the paper's Fig. 4 categorizes the program as
    /// kernel-execution dominated (`true`) or data-transfer dominated.
    #[must_use]
    pub const fn compute_intensive(self) -> bool {
        matches!(
            self,
            BenchKind::TwoMM
                | BenchKind::ThreeMM
                | BenchKind::Corr
                | BenchKind::Covar
                | BenchKind::Fdtd2d
                | BenchKind::Gemm
                | BenchKind::Syr2k
                | BenchKind::Syrk
        )
    }

    /// Concrete dimensions at a given scale (`1.0` ≈ the experiment sizes
    /// used for the figures in this reproduction; smaller values shrink
    /// every axis proportionally, preserving the compute/transfer
    /// character).
    #[must_use]
    pub fn dims(self, scale: f64) -> Dims {
        let s = scale.max(0.01);
        let sq = |base: usize| ((base as f64 * s.sqrt()) as usize).max(4);
        let cube = |base: usize| ((base as f64 * s.cbrt()) as usize).max(4);
        match self {
            // Data-intensive: large 2-D arrays, O(N²) work.
            BenchKind::TwoDConv => Dims::square(sq(1448)),
            BenchKind::Atax => Dims::square(sq(1200)),
            BenchKind::Bicg => Dims::square(sq(1200)),
            BenchKind::Gesummv => Dims::square(sq(1024)),
            BenchKind::Mvt => Dims::square(sq(1200)),
            // 3-D conv: O(N³) data *and* work per element is small.
            BenchKind::ThreeDConv => Dims::cube(cube(128)),
            // Compute-intensive: O(N³) work on O(N²) data.
            BenchKind::Gemm => Dims::square(cube(320)),
            BenchKind::TwoMM => Dims::square(cube(288)),
            BenchKind::ThreeMM => Dims::square(cube(224)),
            BenchKind::Syrk => Dims::square(cube(288)),
            BenchKind::Syr2k => Dims::square(cube(256)),
            BenchKind::Corr => Dims::square(cube(288)),
            BenchKind::Covar => Dims::square(cube(288)),
            // FDTD: O(N²) data, TMAX sweeps.
            BenchKind::Fdtd2d => {
                let n = sq(416);
                Dims {
                    ni: n,
                    nj: n,
                    nk: n,
                    tmax: 24,
                }
            }
        }
    }

    /// Tiny dimensions for unit tests (exact shape, minimal work).
    #[must_use]
    pub fn test_dims(self) -> Dims {
        match self {
            BenchKind::Fdtd2d => Dims {
                ni: 8,
                nj: 8,
                nk: 8,
                tmax: 3,
            },
            BenchKind::ThreeDConv => Dims::cube(6),
            _ => Dims::square(8),
        }
    }
}

impl fmt::Display for BenchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem dimensions. Interpretation is per-benchmark: matrix benchmarks
/// use `ni`/`nj`/`nk` as their standard Polybench sizes, FDTD adds the
/// time-step count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dims {
    /// First dimension.
    pub ni: usize,
    /// Second dimension.
    pub nj: usize,
    /// Third dimension (inner/reduction axis where applicable).
    pub nk: usize,
    /// FDTD-2D time steps (ignored elsewhere).
    pub tmax: usize,
}

impl Dims {
    /// Square dims `n × n × n`.
    #[must_use]
    pub fn square(n: usize) -> Dims {
        Dims {
            ni: n,
            nj: n,
            nk: n,
            tmax: 0,
        }
    }

    /// Cubic dims (alias of [`Dims::square`], for 3-D kernels).
    #[must_use]
    pub fn cube(n: usize) -> Dims {
        Dims::square(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_benchmarks_with_unique_names() {
        let mut names: Vec<&str> = BenchKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn table4_ranges_spot_checks() {
        assert_eq!(BenchKind::TwoDConv.default_range(), (0.0, 1.0));
        assert_eq!(BenchKind::Mvt.default_range(), (0.0, 2.0));
        assert_eq!(BenchKind::Fdtd2d.default_range().0, -9.01);
        let (lo, hi) = BenchKind::Bicg.default_range();
        assert_eq!(lo, 0.0);
        assert!((hi - 12867.96).abs() < 0.1);
    }

    #[test]
    fn paper_sizes_match_table4() {
        assert_eq!(BenchKind::Gemm.paper_input_mb(), 0.25);
        assert_eq!(BenchKind::TwoMM.paper_input_mb(), 16.0);
        assert_eq!(BenchKind::Corr.paper_input_mb(), 4.0);
        assert_eq!(BenchKind::Syrk.paper_input_mb(), 1.0);
    }

    #[test]
    fn figure4_categorization() {
        assert!(BenchKind::Gemm.compute_intensive());
        assert!(BenchKind::Corr.compute_intensive());
        assert!(!BenchKind::TwoDConv.compute_intensive());
        assert!(!BenchKind::Mvt.compute_intensive());
        let compute = BenchKind::ALL
            .iter()
            .filter(|k| k.compute_intensive())
            .count();
        assert_eq!(compute, 8);
    }

    #[test]
    fn dims_scale_monotonically() {
        for k in BenchKind::ALL {
            let small = k.dims(0.05);
            let full = k.dims(1.0);
            assert!(small.ni <= full.ni, "{k}");
            assert!(small.ni >= 4);
        }
    }

    #[test]
    fn test_dims_are_tiny() {
        for k in BenchKind::ALL {
            let d = k.test_dims();
            assert!(d.ni <= 8, "{k} test dims must be tiny");
        }
    }
}

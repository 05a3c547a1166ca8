//! Offline shim of the `rand` API surface this workspace uses.
//!
//! Provides `rngs::StdRng`, `SeedableRng::seed_from_u64`, and
//! `Rng::gen_range` over `f64` ranges, backed by a splitmix64
//! generator. The stream is deterministic and stable across platforms but
//! is **not** bit-compatible with upstream rand 0.8 (which uses ChaCha12
//! for `StdRng`) — seeded inputs remain reproducible, just with different
//! values than the upstream generator would produce.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Seedable generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Value-producing generator methods (subset of `rand::Rng`).
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample from a range.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

/// Ranges that can produce uniform samples (subset of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample<R: Rng>(self, rng: &mut R) -> T;
}

fn unit_f64<R: Rng>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + unit_f64(rng) * (self.end - self.start);
        // Floating rounding can land exactly on `end`; fold it back.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample<R: Rng>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + unit_f64(rng) * (hi - lo)
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: splitmix64 (deterministic,
    /// fast; not the upstream ChaCha12).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng { state: seed }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let x: f64 = a.gen_range(0.005..0.05);
            let y: f64 = b.gen_range(0.005..0.05);
            assert_eq!(x, y);
            assert!((0.005..0.05).contains(&x));
        }
        let mut c = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let v: f64 = c.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&v));
        }
    }
}

//! Deterministic input generation for the three input sets of the paper's
//! Table 4: Default (per-benchmark value range), Image (0–255 luminance
//! data standing in for ILSVRC-2012 images), and Random (0–1).

use prescaler_sim::hash::Fnv1a;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The input set an experiment runs with (paper Table 4 / Fig. 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InputSet {
    /// The benchmark's own value range.
    Default,
    /// Image data: 0.0–255.0 luminance with spatial smoothness.
    Image,
    /// Uniform random values in 0.0–1.0.
    Random,
}

impl InputSet {
    /// All three sets, in the paper's order.
    pub const ALL: [InputSet; 3] = [InputSet::Default, InputSet::Image, InputSet::Random];

    /// Display label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            InputSet::Default => "Default",
            InputSet::Image => "Image",
            InputSet::Random => "Random",
        }
    }
}

/// Generates `len` input values for a benchmark whose Default range is
/// `range`, deterministically from `seed`.
///
/// * `Default` draws uniformly from `range`;
/// * `Image` synthesizes a smooth 0–255 luminance field (the value-range
///   property is what drives the paper's accuracy behaviour);
/// * `Random` draws uniformly from 0–1.
#[must_use]
pub fn generate(set: InputSet, range: (f64, f64), len: usize, seed: u64) -> Vec<f64> {
    match set {
        InputSet::Default => uniform(range, len, seed),
        InputSet::Random => uniform((0.0, 1.0), len, seed),
        InputSet::Image => image(len, seed),
    }
}

fn uniform(range: (f64, f64), len: usize, seed: u64) -> Vec<f64> {
    let (lo, hi) = range;
    assert!(hi >= lo, "invalid range {lo}..{hi}");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// A synthetic "photograph": smooth low-frequency luminance plus sensor
/// noise, clamped to 0–255. The spatial layout assumes row-major square-ish
/// data, which is how every Polybench array consumes it.
fn image(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = (len as f64).sqrt().ceil().max(1.0) as usize;
    // Random low-frequency components.
    let (fx, fy): (f64, f64) = (rng.gen_range(0.005..0.05), rng.gen_range(0.005..0.05));
    let tau = core::f64::consts::TAU;
    let (px, py): (f64, f64) = (rng.gen_range(0.0..tau), rng.gen_range(0.0..tau));
    let base: f64 = rng.gen_range(80.0..160.0);
    let amp: f64 = rng.gen_range(40.0..90.0);
    (0..len)
        .map(|i| {
            let x = (i % width) as f64;
            let y = (i / width) as f64;
            let smooth = base + amp * ((x * fx + px).sin() * (y * fy + py).cos());
            let noise: f64 = rng.gen_range(-6.0..6.0);
            (smooth + noise).clamp(0.0, 255.0)
        })
        .collect()
}

/// A per-benchmark input source: derives a distinct deterministic stream
/// for each named array from `(seed, tag)`.
#[derive(Clone, Debug)]
pub struct InputGen {
    /// Which input set to draw from.
    pub set: InputSet,
    /// The benchmark's Default value range.
    pub range: (f64, f64),
    /// Base seed.
    pub seed: u64,
    /// Multiplicative gain applied to every generated value — models
    /// production input drift. `1.0` is an exact no-op (the multiply is
    /// skipped entirely, so drift-free runs stay bit-identical).
    pub gain: f64,
}

impl InputGen {
    /// Creates a generator (gain `1.0`, i.e. no drift).
    #[must_use]
    pub fn new(set: InputSet, range: (f64, f64), seed: u64) -> InputGen {
        InputGen {
            set,
            range,
            seed,
            gain: 1.0,
        }
    }

    /// A copy with the given drift gain.
    #[must_use]
    pub fn with_gain(mut self, gain: f64) -> InputGen {
        self.gain = gain;
        self
    }

    /// Generates the named input array as host-side doubles.
    #[must_use]
    pub fn array(&self, tag: &str, len: usize) -> prescaler_ir::FloatVec {
        let sub = mix_seed(self.seed, tag);
        let mut values = generate(self.set, self.range, len, sub);
        if self.gain != 1.0 {
            for v in &mut values {
                *v *= self.gain;
            }
        }
        prescaler_ir::FloatVec::F64(values)
    }
}

/// FNV-1a mix of a tag into a seed.
fn mix_seed(seed: u64, tag: &str) -> u64 {
    Fnv1a::seeded(seed).write(tag.as_bytes()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_gen_streams_differ_by_tag_and_seed() {
        let g = InputGen::new(InputSet::Default, (0.0, 10.0), 1);
        let a = g.array("A", 16);
        let b = g.array("B", 16);
        assert_ne!(a, b, "different tags draw different data");
        assert_eq!(a, g.array("A", 16), "same tag is reproducible");
        let g2 = InputGen::new(InputSet::Default, (0.0, 10.0), 2);
        assert_ne!(a, g2.array("A", 16), "different seeds differ");
    }

    #[test]
    fn unit_gain_is_bit_identical_and_drift_scales() {
        let g = InputGen::new(InputSet::Random, (0.0, 1.0), 3);
        let plain = g.array("A", 64);
        assert_eq!(plain, g.clone().with_gain(1.0).array("A", 64));
        let drifted = g.clone().with_gain(3.0).array("A", 64).to_f64_vec();
        let base = plain.to_f64_vec();
        for (d, b) in drifted.iter().zip(&base) {
            assert_eq!(*d, b * 3.0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(InputSet::Default, (0.0, 100.0), 256, 42);
        let b = generate(InputSet::Default, (0.0, 100.0), 256, 42);
        assert_eq!(a, b);
        let c = generate(InputSet::Default, (0.0, 100.0), 256, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn default_respects_the_range() {
        let xs = generate(InputSet::Default, (-9.01, 2041.0), 10_000, 7);
        assert!(xs.iter().all(|&x| (-9.01..=2041.0).contains(&x)));
        // And actually spans most of it.
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > 1500.0);
    }

    #[test]
    fn random_is_unit_range() {
        let xs = generate(InputSet::Random, (0.0, 9999.0), 10_000, 7);
        assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn image_looks_like_luminance() {
        let xs = generate(InputSet::Image, (0.0, 1.0), 64 * 64, 11);
        assert!(xs.iter().all(|&x| (0.0..=255.0).contains(&x)));
        // Smoothness: neighbouring pixels differ far less than the range.
        let width = 64;
        let mut diffs = 0.0;
        let mut count = 0;
        for i in 0..xs.len() - 1 {
            if (i + 1) % width != 0 {
                diffs += (xs[i + 1] - xs[i]).abs();
                count += 1;
            }
        }
        assert!(diffs / f64::from(count) < 30.0, "mean |Δ| too large");
        // Non-trivial content.
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((20.0..=235.0).contains(&mean));
    }

    #[test]
    fn labels() {
        assert_eq!(InputSet::Default.label(), "Default");
        assert_eq!(InputSet::ALL.len(), 3);
    }
}

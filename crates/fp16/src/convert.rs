//! Bit-level conversion routines between binary16, binary32 and binary64.
//!
//! All narrowing conversions use round-to-nearest, ties-to-even, computed on
//! bit patterns so the result is identical on every host platform.
//!
//! The binary32 ↔ binary16 pair is on the hot path of every half-precision
//! kernel, so both use the classic branch-light formulations: narrowing
//! rebiases the exponent and rounds with one carry-propagating add (a
//! magic-number f32 add aligns subnormal results), widening shifts the
//! fields into place and rebiases (a magic-number f32 subtract normalizes
//! subnormal inputs). The general softfloat kernel (`narrow_to_f16`) stays
//! the binary64 path and, under `cfg(test)`, the oracle both fast routines
//! are checked against bit for bit.

/// `2^16` as binary32 bits: the smallest magnitude whose binary16 result
/// is infinite regardless of rounding (everything from here up is
/// infinity or NaN).
const F32_F16_OVERFLOW: u32 = (127 + 16) << 23;
/// `2^-14` as binary32 bits: the smallest binary16 normal.
const F32_F16_MIN_NORMAL: u32 = (127 - 14) << 23;
/// `0.5` as binary32 bits. Its unit in the last place is `2^-24`, the
/// binary16 subnormal step, so `x + 0.5` rounds `x` (RNE, in hardware) to
/// a binary16 subnormal whose integer significand sits in the low bits.
const F32_DENORM_MAGIC: u32 = ((127 - 15) + (23 - 10) + 1) << 23;

/// Converts a binary32 bit pattern to a binary16 bit pattern (RNE).
///
/// Bit-identical to the softfloat path on all 2^32 inputs, NaN payloads
/// included (see the tests).
#[inline]
pub(crate) fn f32_to_f16_bits(bits: u32) -> u16 {
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7FFF_FFFF;
    let magnitude = if abs >= F32_F16_OVERFLOW {
        if abs > 0x7F80_0000 {
            // Quiet NaN keeping the top payload bits; the forced quiet bit
            // keeps a signalling NaN from narrowing to infinity.
            0x7E00 | ((abs >> 13) & 0x03FF) as u16
        } else {
            0x7C00
        }
    } else if abs < F32_F16_MIN_NORMAL {
        // Subnormal or zero result: the hardware add does the rounding.
        let aligned = f32::from_bits(abs) + f32::from_bits(F32_DENORM_MAGIC);
        (aligned.to_bits() - F32_DENORM_MAGIC) as u16
    } else {
        // Normal result: rebias the exponent, then add just under half an
        // ulp plus the kept lsb (ties to even). The carry may bump the
        // exponent, up to and including infinity.
        let odd = (abs >> 13) & 1;
        ((abs - ((127 - 15) << 23) + 0x0FFF + odd) >> 13) as u16
    };
    sign | magnitude
}

/// Converts a binary64 bit pattern to a binary16 bit pattern (RNE).
///
/// A single rounding step: this is *not* equivalent to rounding through
/// binary32 first, which would double-round.
pub(crate) fn f64_to_f16_bits(bits: u64) -> u16 {
    narrow_to_f16(
        bits >> 63,
        i32::try_from((bits >> 52) & 0x7FF).expect("11-bit field"),
        bits & 0x000F_FFFF_FFFF_FFFF,
        52,
        1023,
        0x7FF,
    )
}

/// Shared narrowing kernel.
///
/// * `sign` is 0 or 1.
/// * `exp` is the biased source exponent, `frac` the source fraction field.
/// * `frac_bits` / `bias` / `exp_max` describe the source format.
fn narrow_to_f16(sign: u64, exp: i32, frac: u64, frac_bits: u32, bias: i32, exp_max: i32) -> u16 {
    let sign16 = (sign as u16) << 15;

    if exp == exp_max {
        // Infinity or NaN.
        if frac == 0 {
            return sign16 | 0x7C00;
        }
        // Quiet NaN preserving the top payload bits; always set the quiet
        // bit so a signalling NaN does not narrow to infinity.
        let payload = (frac >> (frac_bits - 10)) as u16 & 0x03FF;
        return sign16 | 0x7C00 | 0x0200 | payload;
    }

    // Unbiased source exponent. Source subnormals (exp == 0) carry no
    // implicit bit; they sit far below f16's subnormal range and fall
    // through the generic underflow path to zero.
    let unbiased = exp - bias;

    // Biased target exponent if the value stays normal.
    let e16 = unbiased + 15;

    if e16 >= 0x1F {
        return sign16 | 0x7C00; // overflow to infinity
    }

    let implicit = u64::from(exp != 0) << frac_bits;
    let sig = implicit | frac;

    if e16 >= 1 {
        // Normal result: `rounded` keeps the implicit bit at position 10,
        // so it represents [0x400, 0x800]; adding it to (e16-1)<<10 both
        // composes the fields and lets a rounding carry bump the exponent
        // (including MAX → infinity).
        let rounded = shift_round_rne(sig, frac_bits - 10) as u16;
        return sign16 | (((e16 as u16 - 1) << 10) + rounded);
    }

    // Subnormal or zero result. One unit in the last place of an f16
    // subnormal is 2^-24; shift so the significand is in those units.
    let extra = (1 - e16) as u32; // >= 1 here
    let shift = frac_bits - 10 + extra;
    if shift >= 64 {
        return sign16; // vanishes entirely
    }
    // `rounded` <= 0x400; the carry case is exactly the promotion to the
    // smallest normal number.
    sign16 | shift_round_rne(sig, shift) as u16
}

/// Shifts `sig` right by `shift` bits, rounding to nearest with ties to
/// even. `shift` must be < 64.
fn shift_round_rne(sig: u64, shift: u32) -> u64 {
    if shift == 0 {
        return sig;
    }
    let kept = sig >> shift;
    let round_bit = (sig >> (shift - 1)) & 1;
    let sticky = shift >= 2 && (sig & ((1u64 << (shift - 1)) - 1)) != 0;
    if round_bit == 1 && (sticky || kept & 1 == 1) {
        kept + 1
    } else {
        kept
    }
}

/// Converts a binary16 bit pattern to a binary32 bit pattern. Exact.
///
/// Bit-identical to the softfloat path on all 2^16 inputs (see the tests).
#[inline]
pub(crate) fn f16_bits_to_f32(bits: u16) -> u32 {
    const SHIFTED_EXP: u32 = 0x7C00 << 13;
    let h = u32::from(bits);
    let shifted = (h & 0x7FFF) << 13;
    let exp = shifted & SHIFTED_EXP;
    let mut out = shifted + ((127 - 15) << 23);
    if exp == SHIFTED_EXP {
        // Infinity / NaN: push the exponent to all-ones, payload in place.
        out += (128 - 16) << 23;
    } else if exp == 0 {
        // Zero / subnormal: give the significand an implicit bit at
        // 2^-14, then subtract that bit back out in f32, which is exact
        // and normalizes the result.
        out = (f32::from_bits(out + (1 << 23)) - f32::from_bits(F32_F16_MIN_NORMAL)).to_bits();
    }
    out | ((h & 0x8000) << 16)
}

/// The softfloat binary32 → binary16 narrowing the fast path replaced,
/// kept as its test oracle.
#[cfg(test)]
pub(crate) fn f32_to_f16_bits_softfloat(bits: u32) -> u16 {
    narrow_to_f16(
        u64::from(bits >> 31),
        i32::try_from((bits >> 23) & 0xFF).expect("8-bit field"),
        u64::from(bits & 0x007F_FFFF),
        23,
        127,
        0xFF,
    )
}

/// The field-by-field binary16 → binary32 widening the fast path
/// replaced, kept as its test oracle.
#[cfg(test)]
pub(crate) fn f16_bits_to_f32_softfloat(bits: u16) -> u32 {
    let sign = u32::from(bits >> 15) << 31;
    let exp = u32::from((bits >> 10) & 0x1F);
    let frac = u32::from(bits & 0x03FF);

    if exp == 0x1F {
        // Infinity / NaN: widen payload into the top fraction bits.
        return sign | 0x7F80_0000 | (frac << 13);
    }
    if exp == 0 {
        if frac == 0 {
            return sign; // signed zero
        }
        // Subnormal: value = frac × 2^-24. Normalize into f32.
        let lz = frac.leading_zeros() - 22; // zeros above bit 9
        let shifted = frac << (lz + 1); // implicit bit now at bit 10
        let e32 = 127 - 15 - lz;
        return sign | (e32 << 23) | ((shifted & 0x03FF) << 13);
    }
    // Normal.
    let e32 = exp + 127 - 15;
    sign | (e32 << 23) | (frac << 13)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_to_f16(x: f32) -> u16 {
        f32_to_f16_bits(x.to_bits())
    }

    fn f16_to_f32(bits: u16) -> f32 {
        f32::from_bits(f16_bits_to_f32(bits))
    }

    #[test]
    fn exact_small_integers() {
        for i in -2048..=2048i32 {
            let x = i as f32;
            let h = f32_to_f16(x);
            assert_eq!(f16_to_f32(h), x, "integer {i} must be exact in f16");
        }
    }

    #[test]
    fn powers_of_two_round_trip() {
        for e in -24..=15i32 {
            let x = (2.0f64).powi(e);
            let h = f64_to_f16_bits(x.to_bits());
            assert_eq!(f64::from(f16_to_f32(h)), x, "2^{e}");
        }
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        // 65520 is the midpoint between MAX=65504 and the next step 65536;
        // ties-to-even picks the "even" 65536 which overflows to infinity.
        assert_eq!(f32_to_f16(65520.0), 0x7C00);
        assert_eq!(f32_to_f16(1e9), 0x7C00);
        assert_eq!(f32_to_f16(-1e9), 0xFC00);
        // Just below the rounding boundary stays MAX.
        assert_eq!(f32_to_f16(65519.0), 0x7BFF);
    }

    #[test]
    fn underflow_rounds_to_zero_or_subnormal() {
        assert_eq!(f32_to_f16(1e-10), 0x0000);
        assert_eq!(f32_to_f16(-1e-10), 0x8000);
        // 2^-24 is the smallest subnormal.
        assert_eq!(f32_to_f16((2.0f32).powi(-24)), 0x0001);
        // 2^-25 is a tie between 0 and the smallest subnormal: even → 0.
        assert_eq!(f32_to_f16((2.0f32).powi(-25)), 0x0000);
        // Slightly above the tie rounds up.
        assert_eq!(f32_to_f16((2.0f32).powi(-25) * 1.5), 0x0001);
        // f32's own subnormals vanish.
        assert_eq!(f32_to_f16(f32::from_bits(1)), 0x0000);
        assert_eq!(f64_to_f16_bits(f64::from_bits(1).to_bits()), 0x0000);
    }

    #[test]
    fn ties_round_to_even() {
        // 1.0 + 2^-11 is exactly between 1.0 and 1.0+2^-10 → even → 1.0.
        let tie = 1.0f32 + (2.0f32).powi(-11);
        assert_eq!(f32_to_f16(tie), 0x3C00);
        // 1.0 + 3×2^-11 is between 1+2^-10 and 1+2^-9 → even → 1+2^-9.
        let tie2 = 1.0f32 + 3.0 * (2.0f32).powi(-11);
        assert_eq!(f32_to_f16(tie2), 0x3C02);
    }

    #[test]
    fn rounding_carry_promotes_subnormal_to_normal() {
        // Largest subnormal is 0x3FF × 2^-24; halfway to MIN_POSITIVE
        // rounds up into the normal range (tie → even 0x400).
        let largest_sub = 1023.0f64 * (2.0f64).powi(-24);
        let min_normal = (2.0f64).powi(-14);
        let mid = (largest_sub + min_normal) / 2.0;
        assert_eq!(f64_to_f16_bits(mid.to_bits()), 0x0400);
    }

    #[test]
    fn nan_narrowing_stays_nan() {
        let h = f32_to_f16(f32::NAN);
        assert!((h & 0x7FFF) > 0x7C00, "bits {h:#06x} must be NaN");
        let h64 = f64_to_f16_bits(f64::NAN.to_bits());
        assert!((h64 & 0x7FFF) > 0x7C00);
    }

    #[test]
    fn signalling_nan_does_not_become_infinity() {
        // An f32 NaN whose payload sits only in the low fraction bits
        // would shift to zero without the forced quiet bit.
        let h = f32_to_f16_bits(0x7F80_0001);
        assert!((h & 0x7FFF) > 0x7C00, "bits {h:#06x}");
        let h64 = f64_to_f16_bits(0x7FF0_0000_0000_0001);
        assert!((h64 & 0x7FFF) > 0x7C00, "bits {h64:#06x}");
    }

    #[test]
    fn f64_direct_narrowing_is_correctly_rounded_near_ties() {
        // A value a hair below the f16 tie 1 + 2^-11 must round down to
        // 1.0; compare against ground truth via neighbours.
        let tie = 1.0f64 + (2.0f64).powi(-11);
        let below = tie - (2.0f64).powi(-40);
        let lo = f64::from(f16_to_f32(0x3C00));
        let hi = f64::from(f16_to_f32(0x3C01));
        assert!(below - lo < hi - below);
        assert_eq!(f64_to_f16_bits(below.to_bits()), 0x3C00);
        // And a hair above rounds up.
        let above = tie + (2.0f64).powi(-40);
        assert_eq!(f64_to_f16_bits(above.to_bits()), 0x3C01);
    }

    #[test]
    fn widening_subnormals_is_exact() {
        for bits in 1u16..0x0400 {
            let wide = f16_to_f32(bits);
            let expected = f64::from(bits) * (2.0f64).powi(-24);
            assert_eq!(f64::from(wide), expected, "subnormal {bits:#06x}");
        }
    }

    #[test]
    fn every_f16_round_trips_through_f32() {
        for bits in 0..=u16::MAX {
            let is_nan = (bits & 0x7FFF) > 0x7C00;
            let wide = f16_to_f32(bits);
            let back = f32_to_f16(wide);
            if is_nan {
                assert!((back & 0x7FFF) > 0x7C00, "{bits:#06x} NaN preserved");
            } else {
                assert_eq!(back, bits, "{bits:#06x} must survive f16→f32→f16");
            }
        }
    }

    #[test]
    fn every_f16_round_trips_through_f64() {
        for bits in 0..=u16::MAX {
            if (bits & 0x7FFF) > 0x7C00 {
                continue;
            }
            let wide = f64::from(f16_to_f32(bits));
            assert_eq!(f64_to_f16_bits(wide.to_bits()), bits, "{bits:#06x}");
        }
    }

    #[test]
    fn narrowing_agrees_with_exhaustive_nearest_neighbour_search() {
        // For a dense sample of f32 inputs, check RNE against a brute
        // force over all finite f16 values.
        let mut finite: Vec<(u16, f64)> = (0..=u16::MAX)
            .filter(|b| (b & 0x7C00) != 0x7C00)
            .map(|b| (b, f64::from(f16_to_f32(b))))
            .collect();
        finite.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

        let mut x = -70000.0f32;
        while x < 70000.0 {
            let got = f32_to_f16(x);
            let xd = f64::from(x);
            // Brute-force nearest (ties to even bit pattern).
            let mut best = finite[0];
            let mut best_d = (finite[0].1 - xd).abs();
            for &(b, v) in &finite {
                let d = (v - xd).abs();
                if d < best_d || (d == best_d && (b & 1) == 0 && (best.0 & 1) == 1) {
                    best = (b, v);
                    best_d = d;
                }
            }
            let expected = if xd.abs() > 65504.0 + 16.0 {
                // beyond the halfway point past MAX → infinity
                if x > 0.0 {
                    0x7C00
                } else {
                    0xFC00
                }
            } else if best.1 == 0.0 {
                // keep the input's sign on zero results
                if x.is_sign_negative() {
                    0x8000
                } else {
                    0x0000
                }
            } else {
                best.0
            };
            assert_eq!(got, expected, "x = {x}");
            x += 977.7573; // irregular stride to hit varied fractions
        }
    }

    /// SplitMix64: a tiny seeded generator so the sampled sweep is the
    /// same on every run without a dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn assert_narrowing_matches_oracle(bits: u32) {
        let fast = f32_to_f16_bits(bits);
        let soft = f32_to_f16_bits_softfloat(bits);
        assert_eq!(
            fast, soft,
            "f32 bits {bits:#010x}: fast {fast:#06x} vs softfloat {soft:#06x}"
        );
    }

    #[test]
    fn every_f16_widening_matches_the_softfloat_oracle() {
        for bits in 0..=u16::MAX {
            let fast = f16_bits_to_f32(bits);
            let soft = f16_bits_to_f32_softfloat(bits);
            assert_eq!(
                fast, soft,
                "f16 bits {bits:#06x}: fast {fast:#010x} vs softfloat {soft:#010x}"
            );
        }
    }

    #[test]
    fn seeded_f32_narrowings_match_the_softfloat_oracle() {
        // 2^24 inputs: every f32 whose exponent borders a binary16
        // boundary (around 2^-25, 2^-14 and 2^16) with its low fraction
        // bits swept densely, then random bit patterns. Half of the random
        // draws keep their exponent within binary16's reach so the
        // rounding paths, not the saturating ones, get most of the sample.
        for exp in [102u32, 103, 112, 113, 142, 143, 255] {
            for low in 0..1u32 << 16 {
                for sign in [0, 0x8000_0000] {
                    let frac = (low << 7) | (low & 0x7F);
                    assert_narrowing_matches_oracle(sign | (exp << 23) | frac);
                }
            }
        }
        let mut state = 0x5EED_F16F_0000_0001;
        for i in 0..(1u32 << 24) - 7 * (1 << 17) {
            let r = splitmix(&mut state);
            let bits = if i % 2 == 0 {
                r as u32
            } else {
                let exp = 100 + (r >> 32) as u32 % 46;
                (r as u32 & 0x807F_FFFF) | (exp << 23)
            };
            assert_narrowing_matches_oracle(bits);
        }
    }

    /// The full 2^32 sweep, ~20 s in release mode:
    /// `cargo test --release -p prescaler-fp16 -- --ignored every_f32`.
    #[test]
    #[ignore = "exhaustive 2^32 sweep; run explicitly in release mode"]
    fn every_f32_narrowing_matches_the_softfloat_oracle() {
        for bits in 0..=u32::MAX {
            assert_narrowing_matches_oracle(bits);
        }
    }
}

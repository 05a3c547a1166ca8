//! Deterministic identity: the one FNV-1a hasher and the one splitmix64
//! stream step behind every fingerprint, digest and seeded draw.
//!
//! Hardware fingerprints, app identities, input-generation seeds, spec
//! fingerprints (which double as fault-fork salts), decision digests and
//! serving digests are all persisted or compared across runs, so their
//! byte encodings are part of the reproduction's contracts. Keeping the
//! primitives here means there is exactly one definition to keep stable.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One splitmix64 step: a bijective 64-bit mix, used both to derive
/// decorrelated seeds (`splitmix64(seed ^ salt)`) and to advance a stream
/// (`state = splitmix64(state)`).
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits of `bits`.
#[must_use]
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// 64-bit FNV-1a over an explicit little-endian byte encoding.
///
/// The hasher adds nothing of its own: no length prefixes, no field
/// separators. An encoder that needs a field boundary writes it
/// (`write_u8(0)`), so the encoding is exactly the bytes written.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// A hasher whose state is the offset basis XOR `seed` — a seeded
    /// family of hashes (`seeded(0)` is [`Fnv1a::new`]).
    #[must_use]
    pub fn seeded(seed: u64) -> Fnv1a {
        Fnv1a(FNV_OFFSET ^ seed)
    }

    /// Folds in `bytes`.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv1a {
        for &b in bytes {
            self.write_u8(b);
        }
        self
    }

    /// Folds in one byte.
    pub fn write_u8(&mut self, b: u8) -> &mut Fnv1a {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self
    }

    /// Folds in the eight little-endian bytes of `v`.
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv1a {
        self.write(&v.to_le_bytes())
    }

    /// The hash of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv1a::new().write(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn writes_compose_bytewise() {
        let mut split = Fnv1a::seeded(7);
        split.write(b"ab").write_u8(b'c').write_u64(0x0102);
        let mut whole = Fnv1a::seeded(7);
        whole.write(b"abc\x02\x01\0\0\0\0\0\0");
        assert_eq!(split.finish(), whole.finish());
    }

    #[test]
    fn unit_draws_stay_in_the_half_open_interval() {
        assert_eq!(unit(0), 0.0);
        assert!(unit(u64::MAX) < 1.0);
        let mut state = 1;
        for _ in 0..1000 {
            state = splitmix64(state);
            assert!((0.0..1.0).contains(&unit(state)));
        }
    }
}

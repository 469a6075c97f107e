//! Seeded generation: every input the benchmark hands the program is a
//! pure function of `--seed`, so one seed always yields the same tree,
//! the same op streams and the same file bytes.

/// SplitMix64: tiny, fast, and good enough to drive op mixes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed, 0x1DB0_C0DE))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Combine two words into one well-mixed key.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut r = Rng(a ^ b.rotate_left(29) ^ 0x5851_F42D_4C95_7F2D);
    r.next_u64()
}

/// A stable key for a path under a seed (FNV-1a, then mixed).
pub fn path_key(seed: u64, path: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in path.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    mix(seed, h)
}

/// The seeded content of `len` bytes for `key`.
pub fn content(key: u64, len: usize) -> Vec<u8> {
    let mut r = Rng(key);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&r.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn content_is_keyed_and_sized() {
        assert_eq!(content(1, 13).len(), 13);
        assert_eq!(content(1, 4096), content(1, 4096));
        assert_ne!(content(1, 64), content(2, 64));
        assert_ne!(path_key(1, "/a"), path_key(1, "/b"));
        assert_ne!(path_key(1, "/a"), path_key(2, "/a"));
    }
}

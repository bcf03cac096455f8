//! Seed derivation: every input a workload generates comes from `--seed`
//! through these SplitMix64 streams.

/// SplitMix64 finalizer.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for stream `salt` derived from `seed`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    splitmix(seed ^ splitmix(salt))
}

/// A SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_separate() {
        let a: Vec<u64> = {
            let mut r = Rng::new(derive(1, 2));
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(derive(1, 2));
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
        let mut r = Rng::new(5);
        assert!((0..1000).map(|_| r.unit()).all(|u| u > 0.0 && u < 1.0));
    }
}

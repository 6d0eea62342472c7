//! Seeded input generation: the op stream of the KV workloads.

/// SplitMix64: a small, fast generator whose stream is a pure function
/// of its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// How op keys are drawn from the preloaded key space.
#[derive(Clone, Copy, Debug)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Key rank `r` (1-based) drawn with weight `r^-s`.
    Zipf(f64),
}

/// Draws key indices in `0..n`. Zipf uses an inverted cumulative table,
/// so a draw is one uniform variate and a binary search.
pub struct KeySampler {
    n: usize,
    cdf: Vec<f64>,
}

impl KeySampler {
    /// A sampler over `n` keys.
    pub fn new(n: usize, dist: KeyDist) -> KeySampler {
        let cdf = match dist {
            KeyDist::Uniform => Vec::new(),
            KeyDist::Zipf(s) => {
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (1..=n)
                    .map(|r| {
                        acc += (r as f64).powf(-s);
                        acc
                    })
                    .collect();
                cdf.iter_mut().for_each(|c| *c /= acc);
                cdf
            }
        };
        KeySampler { n, cdf }
    }

    /// One key index.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        if self.cdf.is_empty() {
            return rng.below(self.n);
        }
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.n - 1)
    }
}

/// One generated client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Index into the preloaded key space.
    pub key: usize,
    /// A put (else a get).
    pub is_put: bool,
}

/// `count` ops: each a put with probability `put_share`, on a key drawn
/// from `keys`.
pub fn op_stream(seed: u64, count: usize, put_share: f64, keys: &KeySampler) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            let is_put = rng.unit() < put_share;
            Op {
                key: keys.draw(&mut rng),
                is_put,
            }
        })
        .collect()
}

/// The key string of key index `i`.
pub fn key_name(i: usize) -> String {
    format!("k{i:06}")
}

/// A value of exactly `len` bytes naming the write it came from, so a
/// read-back can tell which write it sees.
pub fn value_for(key: usize, write: u64, len: usize) -> String {
    let mut v = format!("{key}:{write}:");
    while v.len() < len {
        v.push((b'a' + (v.len() % 26) as u8) as char);
    }
    v.truncate(len);
    v
}

/// Host-side CPU per op: the process's measured CPU per op minus the
/// time per op the traced sans-io calls account for. Clamped at zero,
/// since the two come from different runs.
pub fn host_us_per_op(cpu_us_per_op: f64, sansio_us_per_op: f64) -> f64 {
    (cpu_us_per_op - sansio_us_per_op).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_stream_is_deterministic() {
        let zipf = KeySampler::new(4_000, KeyDist::Zipf(1.1));
        let a = op_stream(7, 5_000, 0.9, &zipf);
        assert_eq!(a, op_stream(7, 5_000, 0.9, &zipf));
        assert_ne!(a, op_stream(8, 5_000, 0.9, &zipf));
        let uni = KeySampler::new(1_000, KeyDist::Uniform);
        assert_eq!(
            op_stream(3, 1_000, 0.1, &uni),
            op_stream(3, 1_000, 0.1, &uni)
        );
    }

    #[test]
    fn mix_and_key_shapes() {
        let zipf = KeySampler::new(4_000, KeyDist::Zipf(1.1));
        let ops = op_stream(11, 100_000, 0.9, &zipf);
        let puts = ops.iter().filter(|o| o.is_put).count() as f64 / ops.len() as f64;
        assert!((puts - 0.9).abs() < 0.01, "put share {puts}");
        assert!(ops.iter().all(|o| o.key < 4_000));
        // Rank 1 carries 1/H(4000, 1.1) of the draws, about 16 %.
        let top = ops.iter().filter(|o| o.key == 0).count() as f64 / ops.len() as f64;
        assert!((0.14..0.18).contains(&top), "top key share {top}");
        let uni = KeySampler::new(1_000, KeyDist::Uniform);
        let ops = op_stream(11, 100_000, 0.1, &uni);
        let top = ops.iter().filter(|o| o.key == 0).count();
        assert!((50..160).contains(&top), "uniform key 0 drawn {top} times");
    }

    #[test]
    fn values_have_exact_length_and_name_their_write() {
        let v = value_for(42, 7, 256);
        assert_eq!(v.len(), 256);
        assert!(v.starts_with("42:7:"));
        assert_ne!(v, value_for(42, 8, 256));
    }

    #[test]
    fn host_residual() {
        assert_eq!(host_us_per_op(450.0, 120.0), 330.0);
        assert_eq!(host_us_per_op(100.0, 130.0), 0.0);
    }
}

//! The benchmark's own input RNG (SplitMix64). Operation traces, insert
//! orders, arrival schedules and probe samples come from here rather
//! than from the program under test, so a change to the program cannot
//! change the inputs it is measured on. Key sets come from
//! `alex_datasets`, the program's dataset layer.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipfian ranks over `0..n` with YCSB's θ = 0.99 (Gray et al.'s
/// method, as in YCSB), drawn from an [`Rng`]. The rank space can grow
/// as keys are inserted. Rank 0 is the most popular.
pub struct Zipf {
    n: usize,
    zeta_n: f64,
    zeta_2: f64,
    eta: f64,
    rng: Rng,
}

impl Zipf {
    const THETA: f64 = 0.99;

    pub fn new(n: usize, rng: Rng) -> Self {
        assert!(n >= 2, "a Zipf rank space needs two ranks");
        let mut zipf = Zipf {
            n: 0,
            zeta_n: 0.0,
            zeta_2: 1.0 + 0.5f64.powf(Self::THETA),
            eta: 0.0,
            rng,
        };
        zipf.extend_to(n);
        zipf
    }

    /// Grow the rank space to `n` ranks.
    pub fn extend_to(&mut self, n: usize) {
        if n <= self.n {
            return;
        }
        for i in self.n..n {
            self.zeta_n += 1.0 / ((i + 1) as f64).powf(Self::THETA);
        }
        self.n = n;
        self.eta =
            (1.0 - (2.0 / n as f64).powf(1.0 - Self::THETA)) / (1.0 - self.zeta_2 / self.zeta_n);
    }

    pub fn next_rank(&mut self) -> usize {
        let u = self.rng.unit();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.zeta_2 {
            return 1;
        }
        let alpha = 1.0 / (1.0 - Self::THETA);
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(alpha)) as usize;
        rank.min(self.n - 1)
    }
}

/// The SplitMix64 finalizer; also derives a key's payload, so every
/// response can be checked against `payload(key)`.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::new(1, 0);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        let mut items: Vec<u32> = (0..100).collect();
        r.shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_skewed_and_grows() {
        let mut zipf = Zipf::new(10_000, Rng::new(3, 0));
        let mut counts = vec![0u32; 20_000];
        for _ in 0..100_000 {
            counts[zipf.next_rank()] += 1;
        }
        assert_eq!(counts.iter().max(), Some(&counts[0]));
        assert!(counts[..10].iter().sum::<u32>() > 10_000);
        zipf.extend_to(20_000);
        assert!((0..100_000).any(|_| zipf.next_rank() >= 10_000));
    }
}

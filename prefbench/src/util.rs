//! Small self-contained helpers: the seeded generator the statement
//! lists are drawn from, order statistics, the result checksum, and the
//! two host probes (`VmHWM`, a calibration spin loop).

use std::hint::black_box;
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness. Everything a
/// run feeds the engine derives from `--seed` through this generator,
/// so the same seed gives the same tables and the same statements.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (one stream per
    /// table, client and statement class).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
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

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// A uniformly chosen element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// The `p`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule;
/// 0 for an empty sample so absent layers report 0, never NaN.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample in place and return it (NaN-free by construction:
/// every sample is a measured duration or a count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// FNV-1a over one rendered row. Row hashes are *added* into the result
/// checksum, so it does not depend on row order (BMO sets are sets).
pub fn row_hash(line: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in line.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`); 0 where procfs is absent.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall time in ms of a fixed integer spin loop. Timed before and after
/// a workload: the work is constant, so a changed reading means the host
/// (not the program) got slower or faster.
pub fn calib_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    // `black_box` every round, or the compiler folds the recurrence.
    for _ in 0..20_000_000u32 {
        x = black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_differs_per_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn row_hash_sums_are_order_free() {
        let (a, b) = (row_hash("1\tx"), row_hash("2\ty"));
        assert_ne!(a, b);
        assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
    }
}

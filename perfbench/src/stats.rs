//! Small numeric helpers: order statistics, a seeded PRNG, peak RSS.

/// Latency reported for a request that failed or was refused: it misses
/// every latency limit (the limits are milliseconds to seconds).
pub const MISS_MS: f64 = 1.0e9;

/// Nearest-rank quantile (`q` in `[0, 1]`) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (the mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// SplitMix64: a tiny seeded generator for schedules and pool draws.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Pool indices in seeded order: each pass visits every index once, in a
/// fresh shuffle, so every pool plan is drawn equally often.
#[derive(Debug)]
pub struct PoolOrder {
    order: Vec<usize>,
    at: usize,
    rng: SplitMix,
}

impl PoolOrder {
    pub fn new(len: usize, rng: SplitMix) -> PoolOrder {
        PoolOrder {
            order: (0..len).collect(),
            at: len,
            rng,
        }
    }

    pub fn next(&mut self) -> usize {
        if self.at == self.order.len() {
            shuffle(&mut self.order, &mut self.rng);
            self.at = 0;
        }
        self.at += 1;
        self.order[self.at - 1]
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

impl rand::RngCore for SplitMix {
    fn next_u64(&mut self) -> u64 {
        SplitMix::next_u64(self)
    }
}

/// Peak resident set size (`VmHWM`) of a process in MiB, read from
/// `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: &str) -> crate::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| crate::BenchError(format!("/proc/{pid}/status: no VmHWM")))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}

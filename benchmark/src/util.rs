//! Small numeric helpers the harness needs and the repo's crates do not
//! export: a seeded generator, the answer digest, order statistics.

use std::time::Duration;

/// SplitMix64: the whole benchmark's only source of randomness, so a seed
/// fixes the anchor names and the `mixed_concurrent` schedule.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values of `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        assert!(k <= n, "cannot draw {k} distinct values below {n}");
        let mut out: Vec<usize> = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a-64, fed incrementally.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What an answer is reduced to before comparison: its path count and the
/// FNV-1a-64 of its canonical path lines, each terminated by `\n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub paths: usize,
    pub fnv: u64,
}

pub fn digest_lines<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> Digest {
    let mut fnv = Fnv::new();
    let mut paths = 0;
    for line in lines {
        fnv.write(line.as_ref().as_bytes());
        fnv.write(b"\n");
        paths += 1;
    }
    Digest {
        paths,
        fnv: fnv.finish(),
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile (`p` in 0..=1) of an unsorted, non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for even sizes); 0 for an empty
/// sample, which only per-layer metrics with nothing to measure produce.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

//! The host probe: what the numbers were measured on, and the measured
//! memory bandwidth kernels are reported against.

use std::hint::black_box;
use std::time::Instant;

use crate::metrics::Report;

/// The cheap part of the fingerprint (no measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Host {
    /// `available_parallelism`.
    pub nproc: usize,
    /// f32 lanes of the SIMD level the kernels dispatch to (1 = scalar).
    pub simd_f32_lanes: usize,
    /// The SIMD level's name.
    pub simd: &'static str,
    /// Per-core L2 bytes (0 when the host does not say).
    pub l2_bytes: u64,
    /// Last-level cache bytes (0 when the host does not say).
    pub llc_bytes: u64,
}

/// Parses sysfs cache sizes such as `4096K` or `260M`.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// Size of cpu0's cache at `level` (unified or data), from sysfs.
fn cache_bytes(level: u32) -> u64 {
    (0..8)
        .filter_map(|ix| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{ix}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let lvl: u32 = read("level")?.trim().parse().ok()?;
            let kind = read("type")?;
            (lvl == level && kind.trim() != "Instruction")
                .then(|| parse_size(&read("size")?))
                .flatten()
        })
        .max()
        .unwrap_or(0)
}

/// Probes the host.
pub fn host() -> Host {
    let level = mf_sgd::simd::level();
    let l3 = cache_bytes(3);
    let l2 = cache_bytes(2);
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
        simd_f32_lanes: match level.name() {
            "avx512" => 16,
            "avx2" => 8,
            _ => 1,
        },
        simd: level.name(),
        l2_bytes: l2,
        llc_bytes: if l3 > 0 { l3 } else { l2 },
    }
}

impl Host {
    /// One line for the output header.
    pub fn fingerprint(&self) -> String {
        format!(
            "nproc={} simd={} l2={}B llc={}B",
            self.nproc, self.simd, self.l2_bytes, self.llc_bytes
        )
    }

    /// Records the `machine.*` metrics that need no measurement.
    pub fn report(&self, report: &mut Report) {
        report.set("machine.nproc", self.nproc as f64);
        report.set("machine.simd_f32_lanes", self.simd_f32_lanes as f64);
        report.set("machine.l2_bytes", self.l2_bytes as f64);
        report.set("machine.llc_bytes", self.llc_bytes as f64);
    }

    /// Bytes per STREAM array: four times the LLC, clamped to
    /// [32 MiB, 128 MiB] so a virtualized host advertising a
    /// quarter-gigabyte L3 does not make the probe allocate gigabytes
    /// (three arrays of 128 MiB still overflow it).
    pub fn triad_array_bytes(&self) -> usize {
        (4 * self.llc_bytes as usize).clamp(32 << 20, 128 << 20)
    }
}

/// STREAM triad (`a[i] = b[i] + s·c[i]`) on one thread over arrays of
/// `array_bytes` each: best of `runs`, in GB/s counting the three
/// streams the source touches (two reads, one write).
pub fn stream_triad_gbs(array_bytes: usize, runs: usize) -> f64 {
    let n = array_bytes / std::mem::size_of::<f32>();
    let mut a = vec![0.0f32; n];
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut best = f64::INFINITY;
    for r in 0..runs.max(1) {
        let s = 1.0 + r as f32;
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    3.0 * array_bytes as f64 / best / 1e9
}

/// Records `mf-par.*`: the global pool's width and what one empty
/// `run_indexed` batch (one no-op task per thread) costs.
pub fn pool_probe(report: &mut Report) {
    const BATCHES: usize = 2_000;
    let pool = mf_par::ThreadPool::global();
    report.set("mf-par.threads", pool.threads() as f64);
    let t0 = Instant::now();
    for _ in 0..BATCHES {
        pool.run_indexed(pool.threads(), |i| {
            black_box(i);
        });
    }
    report.set(
        "mf-par.run_indexed_empty_us",
        t0.elapsed().as_secs_f64() * 1e6 / BATCHES as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_sizes_and_clamps_the_triad() {
        assert_eq!(parse_size("4096K\n"), Some(4 << 20));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
        let h = Host {
            nproc: 2,
            simd_f32_lanes: 8,
            simd: "avx2",
            l2_bytes: 0,
            llc_bytes: 0,
        };
        assert_eq!(h.triad_array_bytes(), 32 << 20);
        assert!(stream_triad_gbs(1 << 20, 2) > 0.0);
    }
}

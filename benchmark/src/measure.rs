//! Clocks, counters and the slice recorder.
//!
//! Everything here observes the process from outside the product crates:
//! wall time from `Instant`, CPU time from `clock_gettime`, memory and
//! scheduler figures from `/proc`. The [`Recorder`] cuts a run into
//! one-second slices and keeps one summary per slice; every reported figure
//! is the median over the slices, which holds as long as fewer than half of
//! them were disturbed by a co-tenant.

use std::time::{Duration, Instant};

/// Length of one slice of the timed window.
pub const SLICE: Duration = Duration::from_secs(1);

/// The four operation kinds the workloads issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read = 0,
    Write = 1,
    List = 2,
    Jini = 3,
}

pub const KINDS: usize = 4;

/// Median of `values`; NaN when there are none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile by linear interpolation between closest ranks; NaN when
/// there are no values, so a figure over nothing measured cannot pass for a
/// measurement.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile of integer samples, reordering them in place.
fn percentile_ns(samples: &mut [u32], q: f64) -> f64 {
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    *samples.select_nth_unstable(idx).1 as f64
}

/// What one slice of the timed window produced.
#[derive(Clone, Debug, Default)]
pub struct SliceStat {
    pub ops_per_s: f64,
    /// Process CPU (all threads) spent in the slice ÷ its operations.
    pub cpu_us_per_op: f64,
    pub p50_us: [Option<f64>; KINDS],
    pub p99_us: [Option<f64>; KINDS],
    pub samples: [u64; KINDS],
}

/// Per-op latency samples, cut into slices as the run goes.
pub struct Recorder {
    cur: [Vec<u32>; KINDS],
    slice_start: Instant,
    slice_cpu: Duration,
    slice_ops: u64,
    pub slices: Vec<SliceStat>,
    pub attempted: u64,
    pub failed: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            cur: std::array::from_fn(|_| Vec::with_capacity(1 << 16)),
            slice_start: Instant::now(),
            slice_cpu: process_cpu(),
            slice_ops: 0,
            slices: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Count one finished operation. A refused or wrong reply is a
    /// failure, not a latency sample.
    pub fn record(&mut self, kind: Kind, start: Instant, end: Instant, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            return;
        }
        let ns = end.duration_since(start).as_nanos().min(u32::MAX as u128) as u32;
        self.cur[kind as usize].push(ns);
        self.slice_ops += 1;
        if end.duration_since(self.slice_start) >= SLICE {
            self.close_slice(end);
        }
    }

    fn close_slice(&mut self, end: Instant) {
        let secs = end.duration_since(self.slice_start).as_secs_f64();
        let cpu = process_cpu();
        let mut stat = SliceStat {
            ops_per_s: self.slice_ops as f64 / secs,
            cpu_us_per_op: (cpu - self.slice_cpu).as_secs_f64() * 1e6 / self.slice_ops as f64,
            ..Default::default()
        };
        for (k, samples) in self.cur.iter_mut().enumerate() {
            stat.samples[k] = samples.len() as u64;
            if !samples.is_empty() {
                stat.p50_us[k] = Some(percentile_ns(samples, 0.50) / 1e3);
                stat.p99_us[k] = Some(percentile_ns(samples, 0.99) / 1e3);
            }
            samples.clear();
        }
        self.slices.push(stat);
        self.slice_ops = 0;
        // The summary above is bookkeeping, not load: start the next slice
        // after it so it is in no slice's rate.
        self.slice_cpu = process_cpu();
        self.slice_start = Instant::now();
    }

    /// Start a fresh slice now, keeping the closed ones: whatever happened
    /// since the last recorded operation is not this recorder's.
    pub fn resume(&mut self) {
        for samples in &mut self.cur {
            samples.clear();
        }
        self.slice_ops = 0;
        self.slice_cpu = process_cpu();
        self.slice_start = Instant::now();
    }

    /// One figure per closed slice, for the slices that have it.
    fn per_slice(&self, figure: impl Fn(&SliceStat) -> Option<f64>) -> Vec<f64> {
        self.slices.iter().filter_map(figure).collect()
    }

    pub fn ops_per_s(&self) -> f64 {
        median(&self.per_slice(|s| Some(s.ops_per_s)))
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        median(&self.per_slice(|s| Some(s.cpu_us_per_op)))
    }

    /// (p75 − p25) ÷ median of the slices' rates: the run's own noise gauge.
    pub fn slice_spread(&self) -> f64 {
        let rates = self.per_slice(|s| Some(s.ops_per_s));
        (quantile(&rates, 0.75) - quantile(&rates, 0.25)) / median(&rates)
    }

    /// Median over the slices of the per-slice p50 of `kind`.
    pub fn p50_us(&self, kind: Kind) -> f64 {
        median(&self.per_slice(|s| s.p50_us[kind as usize]))
    }

    /// Median over the slices of the per-slice p99 of `kind`.
    pub fn p99_us(&self, kind: Kind) -> f64 {
        median(&self.per_slice(|s| s.p99_us[kind as usize]))
    }

    pub fn samples(&self, kind: Kind) -> u64 {
        self.slices.iter().map(|s| s.samples[kind as usize]).sum()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) that
    // outlives the call, and the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Involuntary context switches summed over every thread of the process.
fn involuntary_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| {
            s.lines()
                .find(|l| l.starts_with("nonvoluntary_ctxt_switches:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .sum()
}

/// (steal, total) jiffies from the aggregate `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// A fixed arithmetic loop, best of three; its wall time before and after
/// a run says whether the host itself changed speed underneath the
/// measurement.
fn calibration_loop() -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..10_000_000u64 {
                x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7)).wrapping_add(i);
            }
            std::hint::black_box(x);
            start.elapsed()
        })
        .min()
        .expect("three rounds")
}

/// Host gauges bracketing a run. They mark a disturbed run; they never
/// fail it.
pub struct HostProbe {
    calib_before: Duration,
    switches: u64,
    jiffies: (u64, u64),
    started: Instant,
}

pub struct HostReport {
    pub calib_spread: f64,
    pub steal_share: f64,
    pub invol_ctxsw_per_s: f64,
}

impl HostProbe {
    pub fn start() -> HostProbe {
        HostProbe {
            calib_before: calibration_loop(),
            switches: involuntary_switches(),
            jiffies: cpu_jiffies(),
            started: Instant::now(),
        }
    }

    pub fn finish(self) -> HostReport {
        let secs = self.started.elapsed().as_secs_f64();
        let switches = involuntary_switches().saturating_sub(self.switches);
        let (steal, total) = cpu_jiffies();
        let after = calibration_loop().as_secs_f64();
        let before = self.calib_before.as_secs_f64();
        HostReport {
            calib_spread: (after - before).abs() / before,
            steal_share: steal.saturating_sub(self.jiffies.0) as f64
                / total.saturating_sub(self.jiffies.1).max(1) as f64,
            invol_ctxsw_per_s: switches as f64 / secs,
        }
    }
}

impl HostReport {
    /// The run shared its cores: slices were probably disturbed.
    pub fn noisy(&self) -> bool {
        self.calib_spread > 0.05 || self.steal_share > 0.02
    }
}

/// A short stable fingerprint of the machine, for the ledger.
pub fn host_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown-cpu".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown-kernel".into());
    format!("{cpus}x {model}; linux {kernel}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn failures_are_not_latency_samples() {
        let mut rec = Recorder::new();
        let t0 = Instant::now();
        rec.record(Kind::Read, t0, t0 + Duration::from_micros(5), true);
        rec.record(Kind::Read, t0, t0 + Duration::from_micros(9), false);
        rec.record(Kind::Write, t0, t0 + SLICE, true);
        assert_eq!((rec.attempted, rec.failed), (3, 1));
        assert_eq!(rec.slices.len(), 1);
        assert_eq!(rec.samples(Kind::Read), 1);
        assert_eq!(rec.p50_us(Kind::Read), 5.0);
    }

    #[test]
    fn a_disturbed_minority_of_slices_does_not_move_the_figure() {
        let mut rates = vec![100.0; 16];
        rates.extend([60.0; 14]);
        assert_eq!(median(&rates), 100.0);
    }

    #[test]
    fn cpu_clock_advances() {
        let before = process_cpu();
        calibration_loop();
        assert!(process_cpu() > before);
    }
}

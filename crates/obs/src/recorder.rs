//! The flight recorder: always-on anomaly capture.
//!
//! Post-hoc debugging of a latency collapse shouldn't require reproducing
//! it. The recorder watches per-`(provider, op)` durations with a pair of
//! rotating log2 histograms; when an observation exceeds a configurable
//! multiple of the *trailing* p99 (the previous full epoch, so the anomaly
//! itself can't raise its own threshold), or the error rate over a window
//! spikes past a threshold, it snapshots the trace ring plus the metrics
//! delta since the last dump into a JSONL file under `rndi.obs.flight-dir`.
//!
//! The watches are one provider → op table behind one mutex. A client
//! pipeline and the server pipeline serving it never share a watch: a
//! `NetClient`'s provider label is `net-client:<endpoint>`, so the client's
//! durations, which include the wire, train their own baseline.
//!
//! The unarmed fast path is one relaxed atomic load; armed, an observation
//! clones the recorder handle under the slot's read lock and makes a short
//! mutex-guarded bucket update. Dumps are serialized by a cooldown on the
//! recorder's [`Clock`] so an anomaly storm can't become the anomaly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use serde::Serialize as _;
use serde_json::json;

use crate::clock::Clock;
use crate::metrics::{self, quantile_over, Histogram, HISTOGRAM_BUCKETS};
use crate::snapshot::MetricsSnapshot;
use crate::trace;

/// Observations per epoch before the watch rotates its histograms; the
/// trailing window therefore spans between one and two epochs.
const EPOCH_SAMPLES: u64 = 1024;

/// Flight-recorder tuning. A pipeline arms it with `dir` and `min_samples`
/// from `rndi.obs.flight-dir` and `rndi.obs.flight.min-samples`, and the
/// rest at their defaults.
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Directory for dump files; arming creates it if missing.
    pub dir: String,
    /// Slow-op trigger: duration > `p99_multiple × trailing p99`.
    pub p99_multiple: u64,
    /// Observations required per op before the slow-op trigger arms.
    pub min_samples: u64,
    /// Error-rate window length, in observations.
    pub err_window: u64,
    /// Error-spike trigger: percent of the window that errored.
    pub err_rate_pct: u64,
    /// Minimum spacing between dumps.
    pub cooldown_ms: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            dir: String::new(),
            p99_multiple: 4,
            min_samples: 64,
            err_window: 256,
            err_rate_pct: 50,
            cooldown_ms: 1000,
        }
    }
}

/// Why a dump was taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Trigger {
    SlowOp,
    ErrorSpike,
}

impl Trigger {
    fn label(self) -> &'static str {
        match self {
            Trigger::SlowOp => "slow_op",
            Trigger::ErrorSpike => "error_spike",
        }
    }
}

/// Two-epoch rotating duration watch for one `(provider, op)` pair.
#[derive(Clone)]
struct OpWatch {
    cur: [u64; HISTOGRAM_BUCKETS],
    cur_sum: u64,
    cur_n: u64,
    prev: [u64; HISTOGRAM_BUCKETS],
    prev_sum: u64,
    prev_n: u64,
    /// p99 of `prev`, computed once at epoch rotation — the steady-state
    /// [`OpWatch::trailing_p99`] answer must not rescan the buckets on
    /// every observed op.
    prev_p99: Option<f64>,
    win_n: u64,
    win_err: u64,
}

impl Default for OpWatch {
    fn default() -> Self {
        OpWatch {
            cur: [0; HISTOGRAM_BUCKETS],
            cur_sum: 0,
            cur_n: 0,
            prev: [0; HISTOGRAM_BUCKETS],
            prev_sum: 0,
            prev_n: 0,
            prev_p99: None,
            win_n: 0,
            win_err: 0,
        }
    }
}

impl OpWatch {
    /// The p99 of the most recent *complete* view: the previous epoch once
    /// one exists, else the current epoch once it has enough samples.
    fn trailing_p99(&self, min_samples: u64) -> Option<f64> {
        if self.prev_n >= min_samples {
            self.prev_p99
        } else if self.cur_n >= min_samples {
            quantile_over(&self.cur, self.cur_sum, 0.99)
        } else {
            None
        }
    }

    fn absorb(&mut self, duration_ns: u64) {
        self.cur[Histogram::bucket_index(duration_ns)] += 1;
        self.cur_sum = self.cur_sum.saturating_add(duration_ns);
        self.cur_n += 1;
        if self.cur_n >= EPOCH_SAMPLES {
            self.prev = self.cur;
            self.prev_sum = self.cur_sum;
            self.prev_n = self.cur_n;
            self.prev_p99 = quantile_over(&self.prev, self.prev_sum, 0.99);
            self.cur = [0; HISTOGRAM_BUCKETS];
            self.cur_sum = 0;
            self.cur_n = 0;
        }
    }
}

/// The recorder itself; normally a process-wide singleton managed through
/// [`arm`]/[`observe`], but constructible directly for tests.
pub struct FlightRecorder {
    config: FlightConfig,
    /// Watches keyed provider → op. Two levels so the armed hot path looks
    /// up by `&str` without building a joined key string.
    watches: Mutex<HashMap<String, HashMap<String, OpWatch>>>,
    baseline: Mutex<MetricsSnapshot>,
    clock: Arc<dyn Clock>,
    last_dump_ms: Mutex<Option<u64>>,
    started_ms: u64,
    dumps: AtomicU64,
}

impl FlightRecorder {
    pub fn new(config: FlightConfig, clock: Arc<dyn Clock>) -> Self {
        let _ = std::fs::create_dir_all(&config.dir);
        FlightRecorder {
            config,
            watches: Mutex::new(HashMap::new()),
            baseline: Mutex::new(metrics::snapshot()),
            last_dump_ms: Mutex::new(None),
            started_ms: clock.now_ms(),
            clock,
            dumps: AtomicU64::new(0),
        }
    }

    /// Dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Observations of `(provider, op)` in its trailing window.
    pub fn samples(&self, provider: &str, op: &str) -> u64 {
        let watches = self.watches.lock();
        let watch = watches.get(provider).and_then(|ops| ops.get(op));
        watch.map_or(0, |watch| watch.prev_n + watch.cur_n)
    }

    /// Feed one finished operation. Cheap unless it trips a trigger.
    pub fn observe(&self, provider: &str, op: &str, duration_ns: u64, err: bool) {
        let (trigger, p99) = {
            let mut watches = self.watches.lock();
            // Avoid allocating map keys on the hit path — this runs once
            // per finished pipeline op while armed.
            if !watches.get(provider).is_some_and(|m| m.contains_key(op)) {
                watches
                    .entry(provider.to_string())
                    .or_default()
                    .insert(op.to_string(), OpWatch::default());
            }
            let watch = watches
                .get_mut(provider)
                .and_then(|m| m.get_mut(op))
                .expect("watch just ensured");
            let mut fired = None;
            let p99 = watch.trailing_p99(self.config.min_samples);
            if let Some(p99) = p99 {
                if duration_ns as f64 > p99 * self.config.p99_multiple as f64 {
                    fired = Some(Trigger::SlowOp);
                }
            }
            watch.absorb(duration_ns);
            watch.win_n += 1;
            watch.win_err += u64::from(err);
            if watch.win_n >= self.config.err_window.max(1) {
                let pct = 100 * watch.win_err / watch.win_n;
                if fired.is_none() && pct >= self.config.err_rate_pct {
                    fired = Some(Trigger::ErrorSpike);
                }
                watch.win_n = 0;
                watch.win_err = 0;
            }
            (fired, p99)
        };
        if let Some(trigger) = trigger {
            self.dump(trigger, provider, op, duration_ns, p99);
        }
    }

    /// Snapshot ring + metrics delta to a fresh JSONL file. Never fails
    /// the observing op: a file that is not written is counted in
    /// `rndi_obs_sink_errors_total{sink="flight"}`, and neither [`dumps`]
    /// nor the delta's baseline moves, so the next dump still carries it.
    ///
    /// [`dumps`]: FlightRecorder::dumps
    fn dump(&self, trigger: Trigger, provider: &str, op: &str, duration_ns: u64, p99: Option<f64>) {
        let now_ms = self.clock.now_ms();
        {
            let mut last = self.last_dump_ms.lock();
            if last.is_some_and(|at| now_ms.saturating_sub(at) < self.config.cooldown_ms) {
                return;
            }
            *last = Some(now_ms);
        }
        // Held to the end: dumps are numbered, and the baseline advanced,
        // one at a time.
        let mut baseline = self.baseline.lock();
        let seq = self.dumps.load(Ordering::Relaxed);
        let spans = trace::ring().snapshot();
        let current = metrics::snapshot();
        let delta = current.delta_since(&baseline);
        let p99 = p99.unwrap_or(0.0);
        let header = json!({
            "flight": {
                "seq": seq,
                "trigger": (trigger.label()),
                "provider": provider,
                "op": op,
                "duration_ns": duration_ns,
                "trailing_p99_ns": p99,
                "threshold_ns": (p99 * self.config.p99_multiple as f64),
                "uptime_ms": (now_ms.saturating_sub(self.started_ms)),
                "spans": (spans.len() as u64),
                "trace_dropped": (trace::ring().dropped())
            }
        });
        let mut text = format!("{header}\n");
        for span in &spans {
            text.push_str(&format!("{}\n", json!({ "span": (span.to_value()) })));
        }
        text.push_str(&format!(
            "{}\n",
            json!({ "metrics_delta": (delta.to_value()) })
        ));
        let path = std::path::Path::new(&self.config.dir).join(format!("flight-{seq:04}.jsonl"));
        match std::fs::write(path, text) {
            Ok(()) => {
                self.dumps.fetch_add(1, Ordering::Relaxed);
                *baseline = current;
            }
            Err(_) => trace::sink_errors("flight").inc(),
        }
    }
}

// ------------------------------------------------------ global wiring --

static ARMED: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static RwLock<Option<Arc<FlightRecorder>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<FlightRecorder>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Arm the process-wide recorder, its cooldown read off `clock`.
/// Re-arming with the same dump directory keeps the running recorder (its
/// baselines and its clock); a new directory swaps the recorder out.
pub fn arm(config: FlightConfig, clock: Arc<dyn Clock>) -> Arc<FlightRecorder> {
    {
        let guard = slot().read();
        if let Some(existing) = guard.as_ref() {
            if existing.config.dir == config.dir {
                return existing.clone();
            }
        }
    }
    let recorder = Arc::new(FlightRecorder::new(config, clock));
    *slot().write() = Some(recorder.clone());
    ARMED.store(true, Ordering::Release);
    recorder
}

/// Disarm and drop the process-wide recorder.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *slot().write() = None;
}

/// The armed recorder, if any.
pub fn current() -> Option<Arc<FlightRecorder>> {
    slot().read().clone()
}

/// Hot-path hook: no-op unless armed (one relaxed load).
pub fn observe(provider: &str, op: &str, duration_ns: u64, err: bool) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    if let Some(recorder) = current() {
        recorder.observe(provider, op, duration_ns, err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(config: FlightConfig) -> FlightRecorder {
        FlightRecorder::new(config, crate::clock::ManualClock::new())
    }

    fn test_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!(
            "rndi-flight-{tag}-{}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        dir.to_str().unwrap().to_string()
    }

    fn dump_files(dir: &str) -> Vec<std::path::PathBuf> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default();
        files.sort();
        files
    }

    #[test]
    fn slow_op_past_trailing_p99_dumps_once() {
        let dir = test_dir("slow");
        let rec = recorder(FlightConfig {
            dir: dir.clone(),
            p99_multiple: 3,
            min_samples: 16,
            cooldown_ms: 0,
            ..Default::default()
        });
        // Steady state ~1µs; no dump while learning.
        for _ in 0..32 {
            rec.observe("hdns", "lookup", 1_000, false);
        }
        assert_eq!(rec.dumps(), 0);
        // 100× the trailing p99 → slow_op dump.
        rec.observe("hdns", "lookup", 100_000, false);
        assert_eq!(rec.dumps(), 1);
        let files = dump_files(&dir);
        assert_eq!(files.len(), 1);
        let text = std::fs::read_to_string(&files[0]).unwrap();
        let header: serde_json::Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        let flight = header.get("flight").unwrap();
        assert_eq!(
            flight.get("trigger").and_then(|t| t.as_str()),
            Some("slow_op")
        );
        assert_eq!(flight.get("op").and_then(|o| o.as_str()), Some("lookup"));
        assert!(text.lines().last().unwrap().contains("metrics_delta"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_spike_dumps_and_cooldown_limits_rate() {
        let dir = test_dir("err");
        let rec = recorder(FlightConfig {
            dir: dir.clone(),
            err_window: 16,
            err_rate_pct: 50,
            cooldown_ms: 60_000,
            ..Default::default()
        });
        for _ in 0..64 {
            rec.observe("ldap", "bind", 1_000, true);
        }
        // Four windows closed all-error, but the cooldown allows one dump.
        assert_eq!(rec.dumps(), 1);
        let text = std::fs::read_to_string(&dump_files(&dir)[0]).unwrap();
        assert!(text.contains("error_spike"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_dump_that_is_not_written_is_counted_and_keeps_its_delta() {
        // The dump directory is a regular file, so no dump can be created.
        let dir = test_dir("unwritable");
        std::fs::write(&dir, b"not a directory").unwrap();
        let rec = recorder(FlightConfig {
            dir: dir.clone(),
            err_window: 4,
            cooldown_ms: 0,
            ..Default::default()
        });
        let failed = || metrics::counter_total(metrics::names::SINK_ERRORS);
        let before = failed();
        let moved = "rndi_test_flight_delta_total";
        metrics::counter(moved, &[]).add(3);
        for _ in 0..4 {
            rec.observe("ldap", "bind", 1_000, true);
        }
        assert_eq!(rec.dumps(), 0, "nothing reached disk");
        assert_eq!(failed() - before, 1, "the failed dump is counted");

        // Once the directory exists, the next dump carries what moved
        // before the failed one.
        std::fs::remove_file(&dir).unwrap();
        std::fs::create_dir(&dir).unwrap();
        for _ in 0..4 {
            rec.observe("ldap", "bind", 1_000, true);
        }
        assert_eq!(rec.dumps(), 1);
        let text = std::fs::read_to_string(&dump_files(&dir)[0]).unwrap();
        assert!(text.contains(moved), "the first delta was kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_op_watches_do_not_cross_contaminate() {
        let dir = test_dir("keyed");
        let rec = recorder(FlightConfig {
            dir: dir.clone(),
            p99_multiple: 3,
            min_samples: 16,
            cooldown_ms: 0,
            ..Default::default()
        });
        // A fast in-process op trains at ~1µs…
        for _ in 0..32 {
            rec.observe("mem", "lookup", 1_000, false);
        }
        // …and a 100× slower wire op for a *different* key must not trip
        // the fast op's threshold.
        for _ in 0..32 {
            rec.observe("net", "lookup", 100_000, false);
        }
        assert_eq!(rec.dumps(), 0, "separate keys, separate baselines");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The closed-loop load generator (paper §7).
//!
//! "A single client machine issues a series of requests from an increasing
//! number of client threads (between 1 and 100). Each client thread issues
//! consecutive requests … with 50 ms pauses between requests. We measured
//! the ability of the service to withstand the increasing load as a number
//! of requests per second that have been successfully handled."

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use simnet::{JobOutcome, QueueingServer, Sim, SimRng, SimTime, ThroughputMeter};

use rndi_core::context::DirContext;
use rndi_core::op::{dispatch, NamingOp};
use rndi_obs::{SpanOutcome, SpanRecord, TraceCtx};

/// Completion callback: `(sim, ok)`.
pub type DoneFn = Box<dyn FnOnce(&Sim, bool)>;
/// Real-backend work executed at op completion.
pub type WorkFn = Rc<dyn Fn(&Sim)>;
/// Extra completion delay computed at completion time.
// Public as the type `RoundTrips::with_extra_delay` takes.
pub type DelayFn = Rc<dyn Fn(&Sim) -> Duration>;

/// Build a [`WorkFn`] that dispatches one reified [`NamingOp`] against a
/// context each time the sampled work slot fires. Figure workloads use this
/// to route their real backend traffic through the same op values the
/// provider pipeline observes, so pipeline telemetry covers benchmark
/// traffic too.
pub fn op_work(ctx: Arc<dyn DirContext>, op: NamingOp) -> WorkFn {
    Rc::new(move |_| {
        dispatch(ctx.as_ref(), &op).expect("benchmark op succeeds");
    })
}

/// One logical client operation against a backend.
pub trait Operation {
    /// Start the operation at virtual "now"; call `done(sim, ok)` when it
    /// completes (or fails).
    fn issue(&self, sim: &Sim, done: DoneFn);
}

/// The standard operation shape: a sequence of client↔server round trips
/// (one per protocol exchange), each paying half-RTT + queued service +
/// half-RTT, plus optional *real backend work* and an optional extra delay
/// (e.g. an anti-DoS throttle verdict) evaluated at completion time.
pub struct RoundTrips {
    pub server: QueueingServer,
    pub rng: SimRng,
    pub net_rtt: Duration,
    /// Mean service time of each round trip, in order.
    pub segments: Vec<Duration>,
    /// Executes the real backend logic once per logical op (sampled).
    pub work: Option<WorkFn>,
    /// Run `work` on every k-th op only (1 = always); keeps heavyweight
    /// backends (full HDNS replication) affordable inside big sweeps.
    pub work_every: u32,
    /// Extra completion delay, e.g. the LDAP throttle's verdict.
    pub extra_delay: Option<DelayFn>,
    /// When set, each logical op mints a root trace whose id groups the
    /// per-segment server spans; the label names the client-layer span.
    pub trace_label: Option<String>,
    counter: RefCell<u32>,
}

impl RoundTrips {
    pub fn new(
        server: QueueingServer,
        rng: SimRng,
        net_rtt: Duration,
        segments: Vec<Duration>,
    ) -> Self {
        assert!(
            !segments.is_empty(),
            "an operation needs at least one round trip"
        );
        RoundTrips {
            server,
            rng,
            net_rtt,
            segments,
            work: None,
            work_every: 1,
            extra_delay: None,
            trace_label: None,
            counter: RefCell::new(0),
        }
    }

    pub fn with_work(mut self, work: WorkFn, every: u32) -> Self {
        self.work = Some(work);
        self.work_every = every.max(1);
        self
    }

    pub fn with_extra_delay(mut self, f: DelayFn) -> Self {
        self.extra_delay = Some(f);
        self
    }

    /// Trace every logical op under `label` (see [`RoundTrips::trace_label`]).
    // Kept: how a workload opts into client→server trace trees; the
    // module's tests drive it.
    pub fn with_trace_label(mut self, label: impl Into<String>) -> Self {
        self.trace_label = Some(label.into());
        self
    }

    fn run_segment(self: &Rc<Self>, sim: &Sim, idx: usize, trace: Option<TraceCtx>, done: DoneFn) {
        let mean = self.segments[idx];
        // ±15% uniform jitter decorrelates clients without changing means.
        let service = self.rng.jittered(mean, 0.15);
        let this = self.clone();
        let half_rtt = self.net_rtt / 2;
        sim.schedule(half_rtt, move |_sim| {
            let this2 = this.clone();
            let complete = move |sim: &Sim, outcome: JobOutcome| {
                if outcome != JobOutcome::Completed {
                    done(sim, false);
                    return;
                }
                let last = idx + 1 == this2.segments.len();
                if !last {
                    this2.run_segment(sim, idx + 1, trace, done);
                    return;
                }
                // Real backend logic (sampled) + throttle verdict.
                let mut extra = Duration::ZERO;
                {
                    let mut c = this2.counter.borrow_mut();
                    *c += 1;
                    if this2.work_every == 1 || (*c).is_multiple_of(this2.work_every) {
                        if let Some(work) = &this2.work {
                            work(sim);
                        }
                    }
                }
                if let Some(delay_fn) = &this2.extra_delay {
                    extra = delay_fn(sim);
                }
                sim.schedule(extra + this2.net_rtt / 2, move |sim| done(sim, true));
            };
            // Untraced ops keep the exact pre-observability submit path so
            // tracing stays strictly opt-in for throughput sweeps.
            match trace {
                Some(_) => this.server.submit_traced(service, trace, complete),
                None => this.server.submit(service, complete),
            }
        });
    }
}

impl Operation for Rc<RoundTrips> {
    fn issue(&self, sim: &Sim, done: DoneFn) {
        let Some(label) = &self.trace_label else {
            self.run_segment(sim, 0, None, done);
            return;
        };
        // One root span per logical op; every segment's server span links
        // under it, so `--obs-dump` can show whole-op traces.
        let ctx = TraceCtx::root();
        let label = label.clone();
        let issued = sim.now();
        let wrapped: DoneFn = Box::new(move |sim, ok| {
            let elapsed = sim.now() - issued;
            rndi_obs::trace::record(SpanRecord::new(
                &ctx,
                "client",
                "loadgen",
                label,
                if ok {
                    SpanOutcome::Ok
                } else {
                    SpanOutcome::Err
                },
                elapsed,
            ));
            done(sim, ok);
        });
        self.run_segment(sim, 0, Some(ctx), wrapped);
    }
}

/// What one sweep point produces.
#[derive(Clone, Debug)]
pub struct LoadResult {
    pub clients: usize,
    /// Successfully completed operations per second inside the window.
    pub throughput: f64,
    /// Operations per second that completed *within the deadline budget*
    /// inside the window. Equal to `throughput` when no budget was set —
    /// the gap between the two is work the server finished after the
    /// caller would have given up.
    pub goodput: f64,
    pub mean_latency_ms: f64,
    pub p50_latency_ms: f64,
    pub p95_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub completed: u64,
    /// Completions inside the window that beat the deadline budget.
    pub in_budget: u64,
    /// Operations the server refused or lost inside the window (bounded
    /// queues shedding, crashes); the "shed" column in figure tables.
    pub failed: u64,
}

struct LoadState {
    meter: ThroughputMeter,
    /// The same log2-bucket histogram the pipeline's telemetry uses — one
    /// quantile implementation serves both the figures and the exposition.
    latencies: rndi_obs::Histogram,
    failed: u64,
    /// Goodput budget; `ZERO` = no budget (every completion is in budget).
    deadline: Duration,
    in_budget: u64,
    window_start: SimTime,
    window_end: SimTime,
    /// Per-iteration think jitter, like real threads' scheduling drift —
    /// prevents artificial phase lock when many clients fail (and hence
    /// would retry) at the same instant.
    rng: SimRng,
}

/// Run `clients` closed-loop clients against `op` for `warmup + measure`
/// of virtual time; throughput/latency are measured inside the window
/// `[warmup, warmup+measure)`.
pub fn run_closed_loop(
    sim: &Sim,
    op: Rc<dyn Operation>,
    clients: usize,
    think: Duration,
    warmup: Duration,
    measure: Duration,
    rng: &SimRng,
) -> LoadResult {
    run_closed_loop_with_deadline(
        sim,
        op,
        clients,
        think,
        Duration::ZERO,
        warmup,
        measure,
        rng,
    )
}

/// [`run_closed_loop`] with a goodput budget: completions slower than
/// `deadline` still count toward throughput, but not toward
/// [`LoadResult::goodput`]. `Duration::ZERO` disables the budget.
#[allow(clippy::too_many_arguments)]
pub fn run_closed_loop_with_deadline(
    sim: &Sim,
    op: Rc<dyn Operation>,
    clients: usize,
    think: Duration,
    deadline: Duration,
    warmup: Duration,
    measure: Duration,
    rng: &SimRng,
) -> LoadResult {
    let window_start = SimTime::ZERO + warmup;
    let window_end = window_start + measure;
    let state = Rc::new(RefCell::new(LoadState {
        meter: ThroughputMeter::new(),
        latencies: rndi_obs::Histogram::new(),
        failed: 0,
        deadline,
        in_budget: 0,
        window_start,
        window_end,
        rng: rng.fork(),
    }));
    state.borrow_mut().meter.open(window_start);
    state.borrow_mut().meter.close(window_end);

    for _ in 0..clients {
        // Stagger client starts uniformly across one think period to avoid
        // phase lock (real threads never start in lockstep either).
        let start = rng.jittered(think, 0.99).min(think);
        let op = op.clone();
        let state = state.clone();
        sim.schedule(start, move |sim| client_iteration(sim, op, think, state));
    }
    sim.run_until(window_end);

    let st = state.borrow();
    let throughput = st.meter.rate().unwrap_or(0.0);
    let goodput = if deadline.is_zero() {
        throughput
    } else {
        st.in_budget as f64 / measure.as_secs_f64()
    };
    let quantile_ms = |q: f64| st.latencies.quantile(q).map(|ns| ns / 1e6).unwrap_or(0.0);
    LoadResult {
        clients,
        throughput,
        goodput,
        mean_latency_ms: st.latencies.mean().map(|ns| ns / 1e6).unwrap_or(0.0),
        p50_latency_ms: quantile_ms(0.5),
        p95_latency_ms: quantile_ms(0.95),
        p99_latency_ms: quantile_ms(0.99),
        completed: st.meter.count(),
        in_budget: st.in_budget,
        failed: st.failed,
    }
}

fn client_iteration(
    sim: &Sim,
    op: Rc<dyn Operation>,
    think: Duration,
    state: Rc<RefCell<LoadState>>,
) {
    let issued_at = sim.now();
    if issued_at >= state.borrow().window_end {
        return;
    }
    let op2 = op.clone();
    let state2 = state.clone();
    op.issue(
        sim,
        Box::new(move |sim, ok| {
            {
                let mut st = state2.borrow_mut();
                let now = sim.now();
                if ok {
                    st.meter.record(now);
                    if now >= st.window_start && now < st.window_end {
                        let took = now - issued_at;
                        st.latencies.record_duration(took);
                        if st.deadline.is_zero() || took <= st.deadline {
                            st.in_budget += 1;
                        }
                    }
                } else if now >= st.window_start && now < st.window_end {
                    st.failed += 1;
                }
            }
            let state3 = state2.clone();
            let pause = state2.borrow().rng.jittered(think, 0.2);
            sim.schedule(pause, move |sim| client_iteration(sim, op2, think, state3));
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::ServerConfig;

    fn quick(clients: usize, service: Duration, config: ServerConfig) -> LoadResult {
        let sim = Sim::new();
        let rng = SimRng::seed_from_u64(1);
        let server = QueueingServer::new(&sim, config);
        let op = Rc::new(RoundTrips::new(
            server,
            rng.fork(),
            Duration::from_micros(200),
            vec![service],
        ));
        run_closed_loop(
            &sim,
            Rc::new(op) as Rc<dyn Operation>,
            clients,
            Duration::from_millis(50),
            Duration::from_secs(2),
            Duration::from_secs(10),
            &rng,
        )
    }

    #[test]
    fn unloaded_client_runs_at_think_rate() {
        // One client, negligible service: ~1/(0.050 + small) ≈ 19.8/s.
        let r = quick(1, Duration::from_micros(100), ServerConfig::default());
        assert!(
            (18.0..20.5).contains(&r.throughput),
            "rate {}",
            r.throughput
        );
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn saturation_caps_at_capacity() {
        // service 5 ms ⇒ capacity 200/s; 60 clients offer 1200/s.
        let r = quick(60, Duration::from_millis(5), ServerConfig::default());
        assert!(
            (170.0..215.0).contains(&r.throughput),
            "saturated rate {}",
            r.throughput
        );
        assert!(r.mean_latency_ms > 100.0, "queueing delay visible");
    }

    #[test]
    fn linear_region_scales_with_clients() {
        let r10 = quick(10, Duration::from_micros(500), ServerConfig::default());
        let r40 = quick(40, Duration::from_micros(500), ServerConfig::default());
        assert!(
            r40.throughput > 3.0 * r10.throughput,
            "{} vs {}",
            r40.throughput,
            r10.throughput
        );
    }

    #[test]
    fn memory_crash_collapses_throughput() {
        let healthy = quick(60, Duration::from_millis(5), ServerConfig::default());
        // 60 closed-loop clients keep ~50 jobs queued at saturation; a
        // budget of 8 queued jobs crashes the server repeatedly.
        let crashy = quick(
            60,
            Duration::from_millis(5),
            ServerConfig {
                bytes_per_job: 2048,
                memory_limit: Some(16 * 1024),
                restart_after: Some(Duration::from_secs(3)),
                ..Default::default()
            },
        );
        assert!(
            crashy.throughput < healthy.throughput * 0.7,
            "collapse: {} vs healthy {}",
            crashy.throughput,
            healthy.throughput
        );
        assert!(crashy.failed > 0, "crashed jobs reported as failures");
    }

    #[test]
    fn multi_segment_ops_cost_more() {
        let sim = Sim::new();
        let rng = SimRng::seed_from_u64(2);
        let server = QueueingServer::new(&sim, ServerConfig::default());
        let seg = Duration::from_millis(2);
        let op = Rc::new(RoundTrips::new(
            server,
            rng.fork(),
            Duration::from_micros(200),
            vec![seg; 12],
        ));
        let r = run_closed_loop(
            &sim,
            Rc::new(op) as Rc<dyn Operation>,
            40,
            Duration::from_millis(50),
            Duration::from_secs(2),
            Duration::from_secs(10),
            &rng,
        );
        // 12 segments × 2 ms ⇒ ~24 ms server time per op ⇒ ≈41/s cap.
        assert!(
            (30.0..48.0).contains(&r.throughput),
            "rate {}",
            r.throughput
        );
    }

    #[test]
    fn trace_label_links_client_and_server_spans() {
        let sim = Sim::new();
        let rng = SimRng::seed_from_u64(4);
        let server = QueueingServer::new(&sim, ServerConfig::default());
        server.set_obs_label("obs-loadgen-test");
        let op = Rc::new(
            RoundTrips::new(
                server,
                rng.fork(),
                Duration::from_micros(200),
                vec![Duration::from_millis(1); 2],
            )
            .with_trace_label("obs-loadgen-op"),
        );
        let r = run_closed_loop(
            &sim,
            Rc::new(op) as Rc<dyn Operation>,
            1,
            Duration::from_millis(50),
            Duration::ZERO,
            Duration::from_secs(1),
            &rng,
        );
        assert!(r.completed > 0);
        let spans = rndi_obs::trace::ring().snapshot();
        let client = spans
            .iter()
            .rev()
            .find(|s| s.op == "obs-loadgen-op")
            .expect("client root span recorded");
        assert_eq!(client.layer, "client");
        assert_eq!(client.parent_span, 0, "root span has no parent");
        // Both segments' server spans hang off this op's root.
        let children: Vec<_> = rndi_obs::trace::ring()
            .trace(client.trace_id)
            .into_iter()
            .filter(|s| s.parent_span == client.span_id && s.layer == "server")
            .collect();
        assert_eq!(children.len(), 2, "one server span per round trip");
        assert!(children.iter().all(|s| &*s.provider == "obs-loadgen-test"));
    }

    #[test]
    fn work_and_extra_delay_run() {
        let sim = Sim::new();
        let rng = SimRng::seed_from_u64(3);
        let server = QueueingServer::new(&sim, ServerConfig::default());
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        let op = Rc::new(
            RoundTrips::new(
                server,
                rng.fork(),
                Duration::ZERO,
                vec![Duration::from_millis(1)],
            )
            .with_work(
                Rc::new(move |_| {
                    *h.borrow_mut() += 1;
                }),
                1,
            )
            .with_extra_delay(Rc::new(|_| Duration::from_millis(100))),
        );
        let r = run_closed_loop(
            &sim,
            Rc::new(op) as Rc<dyn Operation>,
            1,
            Duration::from_millis(50),
            Duration::ZERO,
            Duration::from_secs(5),
            &rng,
        );
        assert!(*hits.borrow() > 0, "work executed");
        // 1 ms service + 100 ms delay + 50 ms think ⇒ ≈6.6 ops/s.
        assert!((5.0..8.0).contains(&r.throughput), "rate {}", r.throughput);
        assert!(r.mean_latency_ms > 100.0, "delay charged to latency");
    }
}

//! Queueing service centres.
//!
//! [`QueueingServer`] models a backend server as a FIFO queue drained by a
//! fixed pool of workers, with three knobs the paper's measurements hinge on:
//!
//! * **capacity** — `workers / service_time` bounds sustainable throughput
//!   (the saturation plateaus of Figs. 2–4 and 6);
//! * **contention degradation** — effective service time grows with queue
//!   depth, so throughput *declines* past saturation instead of levelling
//!   off (visible for Jini in Figs. 2–3);
//! * **memory budget** — each queued job holds buffer memory; exceeding the
//!   budget crashes the server, as the unbounded JGroups queues did in the
//!   paper's HDNS write test (Fig. 5). An optional restart delay brings the
//!   server back with an empty queue.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use crate::sched::Sim;

/// What happened to a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job was served to completion.
    Completed,
    /// The job was refused on arrival (bounded queue full, or server down).
    Rejected,
    /// The job was queued but the server crashed before finishing it.
    Crashed,
}

/// Server behaviour knobs. See the module docs for how each maps onto the
/// paper's observations.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Concurrent jobs in service.
    pub workers: usize,
    /// Maximum queued (not yet in service) jobs; `None` = unbounded.
    pub queue_limit: Option<usize>,
    /// Effective service time multiplier: `1 + degradation * queue_len`.
    pub degradation: f64,
    /// Bytes of buffer memory held per queued job.
    pub bytes_per_job: u64,
    /// Crash the server when queued bytes exceed this; `None` = never.
    pub memory_limit: Option<u64>,
    /// If set, a crashed server restarts (with an empty queue) after this
    /// delay; otherwise it stays down.
    pub restart_after: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            queue_limit: None,
            degradation: 0.0,
            bytes_per_job: 1024,
            memory_limit: None,
            restart_after: None,
        }
    }
}

type DoneFn = Box<dyn FnOnce(&Sim, JobOutcome)>;
type WorkFn = Box<dyn FnOnce(&Sim)>;

struct Job {
    service_time: Duration,
    work: Option<WorkFn>,
    done: DoneFn,
}

/// Aggregate counters, exposed for experiment reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub completed: u64,
    pub rejected: u64,
    pub crashed_jobs: u64,
    pub crashes: u64,
}

struct Core {
    config: ServerConfig,
    queue: Vec<Job>,
    busy: usize,
    up: bool,
    /// Monotonic incarnation; jobs finishing from a previous incarnation
    /// (pre-crash) are ignored.
    epoch: u64,
    stats: ServerStats,
    /// The `rndi_server_*` instruments and span labels traced submissions
    /// report under: resolved once per server — by `set_obs_label`, or as
    /// `"simnet"` by the first traced job — not per job.
    obs: Option<Rc<rndi_obs::ServerOp>>,
}

/// A simulated queueing server. Cloneable handle.
#[derive(Clone)]
pub struct QueueingServer {
    sim: Sim,
    core: Rc<RefCell<Core>>,
}

impl QueueingServer {
    pub fn new(sim: &Sim, config: ServerConfig) -> Self {
        assert!(config.workers >= 1, "server needs at least one worker");
        QueueingServer {
            sim: sim.clone(),
            core: Rc::new(RefCell::new(Core {
                config,
                queue: Vec::new(),
                busy: 0,
                up: true,
                epoch: 0,
                stats: ServerStats::default(),
                obs: None,
            })),
        }
    }

    /// Name this server in the process-wide observability registry; traced
    /// submissions ([`QueueingServer::submit_traced`]) report under it.
    pub fn set_obs_label(&self, label: impl Into<std::sync::Arc<str>>) {
        self.core.borrow_mut().obs = Some(Rc::new(rndi_obs::ServerOp::new(label, "job")));
    }

    /// Submit a job needing `service_time` of a worker. When the job finishes
    /// (or fails), `done` is invoked with the outcome.
    pub fn submit<F>(&self, service_time: Duration, done: F)
    where
        F: FnOnce(&Sim, JobOutcome) + 'static,
    {
        self.submit_with_work(service_time, |_| {}, done)
    }

    /// Like [`QueueingServer::submit`], but observable: the job is counted
    /// and its *virtual* sojourn time (queueing + service) recorded under
    /// the server's obs label, and when the submitter ships a trace context
    /// a `server`-layer span is linked into its trace.
    pub fn submit_traced<F>(
        &self,
        service_time: Duration,
        trace: Option<rndi_obs::TraceCtx>,
        done: F,
    ) where
        F: FnOnce(&Sim, JobOutcome) + 'static,
    {
        let obs = self
            .core
            .borrow_mut()
            .obs
            .get_or_insert_with(|| Rc::new(rndi_obs::ServerOp::new("simnet", "job")))
            .clone();
        let submitted_ns = self.sim.now().as_nanos();
        self.submit(service_time, move |sim, outcome| {
            let sojourn = Duration::from_nanos(sim.now().as_nanos().saturating_sub(submitted_ns));
            obs.observe(sojourn, outcome == JobOutcome::Completed, trace.as_ref());
            done(sim, outcome);
        });
    }

    /// Like [`QueueingServer::submit`], but runs `work` at service-completion
    /// time — this is where the benchmark harness executes the *real* backend
    /// operation whose virtual cost the job models.
    fn submit_with_work<W, F>(&self, service_time: Duration, work: W, done: F)
    where
        W: FnOnce(&Sim) + 'static,
        F: FnOnce(&Sim, JobOutcome) + 'static,
    {
        let job = Job {
            service_time,
            work: Some(Box::new(work)),
            done: Box::new(done),
        };
        let crash_now = {
            let mut core = self.core.borrow_mut();
            if !core.up {
                core.stats.rejected += 1;
                drop(core);
                (job.done)(&self.sim, JobOutcome::Rejected);
                return;
            }
            if let Some(limit) = core.config.queue_limit {
                if core.queue.len() >= limit {
                    core.stats.rejected += 1;
                    drop(core);
                    (job.done)(&self.sim, JobOutcome::Rejected);
                    return;
                }
            }
            core.queue.push(job);
            core.config
                .memory_limit
                .is_some_and(|limit| core.queue.len() as u64 * core.config.bytes_per_job > limit)
        };
        if crash_now {
            self.crash();
            return;
        }
        self.pump();
    }

    /// Start queued jobs while workers are free.
    fn pump(&self) {
        loop {
            let started = {
                let mut core = self.core.borrow_mut();
                if !core.up || core.busy >= core.config.workers || core.queue.is_empty() {
                    None
                } else {
                    let job = core.queue.remove(0);
                    core.busy += 1;
                    let factor = 1.0 + core.config.degradation * core.queue.len() as f64;
                    let effective =
                        Duration::from_nanos((job.service_time.as_nanos() as f64 * factor) as u64);
                    Some((job, effective, core.epoch))
                }
            };
            let Some((mut job, effective, epoch)) = started else {
                break;
            };
            let server = self.clone();
            self.sim.schedule(effective, move |sim| {
                let stale = {
                    let mut core = server.core.borrow_mut();
                    if core.epoch != epoch {
                        true
                    } else {
                        core.busy -= 1;
                        core.stats.completed += 1;
                        false
                    }
                };
                if !stale {
                    if let Some(work) = job.work.take() {
                        work(sim);
                    }
                    (job.done)(sim, JobOutcome::Completed);
                    server.pump();
                }
            });
        }
    }

    /// Crash the server: every queued job fails with [`JobOutcome::Crashed`],
    /// in-service jobs are abandoned, and — if configured — a restart is
    /// scheduled.
    pub fn crash(&self) {
        let (victims, restart_after) = {
            let mut core = self.core.borrow_mut();
            if !core.up {
                return;
            }
            core.up = false;
            core.epoch += 1;
            core.busy = 0;
            core.stats.crashes += 1;
            core.stats.crashed_jobs += core.queue.len() as u64;
            let victims: Vec<Job> = core.queue.drain(..).collect();
            (victims, core.config.restart_after)
        };
        for job in victims {
            (job.done)(&self.sim, JobOutcome::Crashed);
        }
        if let Some(delay) = restart_after {
            let server = self.clone();
            self.sim.schedule(delay, move |_| server.restart());
        }
    }

    /// Bring a crashed server back with an empty queue.
    pub fn restart(&self) {
        {
            let mut core = self.core.borrow_mut();
            if core.up {
                return;
            }
            core.up = true;
        }
        self.pump();
    }

    /// Jobs waiting (excludes jobs in service).
    #[cfg(test)]
    fn queue_len(&self) -> usize {
        self.core.borrow().queue.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.core.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    type OutcomeLog = Rc<RefCell<Vec<(SimTime, JobOutcome)>>>;

    fn outcomes() -> (OutcomeLog, impl Fn() -> DoneFn + Clone) {
        let log: Rc<RefCell<Vec<(SimTime, JobOutcome)>>> = Rc::default();
        let mk = {
            let log = log.clone();
            move || -> DoneFn {
                let log = log.clone();
                Box::new(move |sim: &Sim, out| log.borrow_mut().push((sim.now(), out)))
            }
        };
        (log, mk)
    }

    #[test]
    fn single_worker_serializes() {
        let sim = Sim::new();
        let srv = QueueingServer::new(&sim, ServerConfig::default());
        let (log, mk) = outcomes();
        for _ in 0..3 {
            let done = mk();
            srv.submit(Duration::from_millis(10), move |s, o| done(s, o));
        }
        sim.run();
        let log = log.borrow();
        let times: Vec<u64> = log.iter().map(|(t, _)| t.as_nanos() / 1_000_000).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert!(log.iter().all(|(_, o)| *o == JobOutcome::Completed));
    }

    #[test]
    fn multiple_workers_run_in_parallel() {
        let sim = Sim::new();
        let srv = QueueingServer::new(
            &sim,
            ServerConfig {
                workers: 3,
                ..Default::default()
            },
        );
        let (log, mk) = outcomes();
        for _ in 0..3 {
            let done = mk();
            srv.submit(Duration::from_millis(10), move |s, o| done(s, o));
        }
        sim.run();
        assert!(log
            .borrow()
            .iter()
            .all(|(t, _)| *t == SimTime::from_millis(10)));
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let sim = Sim::new();
        let srv = QueueingServer::new(
            &sim,
            ServerConfig {
                workers: 1,
                queue_limit: Some(1),
                ..Default::default()
            },
        );
        let (log, mk) = outcomes();
        for _ in 0..3 {
            let done = mk();
            srv.submit(Duration::from_millis(10), move |s, o| done(s, o));
        }
        // job0 in service, job1 queued, job2 rejected immediately.
        assert_eq!(srv.queue_len(), 1);
        sim.run();
        let outs: Vec<JobOutcome> = log.borrow().iter().map(|(_, o)| *o).collect();
        assert_eq!(outs[0], JobOutcome::Rejected);
        assert_eq!(
            outs[1..]
                .iter()
                .filter(|o| **o == JobOutcome::Completed)
                .count(),
            2
        );
    }

    #[test]
    fn memory_exhaustion_crashes_and_restarts() {
        let sim = Sim::new();
        let srv = QueueingServer::new(
            &sim,
            ServerConfig {
                workers: 1,
                bytes_per_job: 1000,
                memory_limit: Some(2500), // crashes at 3rd queued job
                restart_after: Some(Duration::from_millis(100)),
                ..Default::default()
            },
        );
        let (log, mk) = outcomes();
        for _ in 0..4 {
            let done = mk();
            srv.submit(Duration::from_secs(1), move |s, o| done(s, o));
        }
        assert_eq!(srv.stats().crashes, 1, "down as the 4th job arrives");
        sim.run_until(SimTime::from_millis(50));
        let crashed = log
            .borrow()
            .iter()
            .filter(|(_, o)| *o == JobOutcome::Crashed)
            .count();
        assert_eq!(crashed, 3, "queued jobs fail on crash");
        sim.run_until(SimTime::from_millis(200));
        // Restarted after the delay: new work completes.
        let done = mk();
        srv.submit(Duration::from_millis(10), move |s, o| done(s, o));
        sim.run();
        assert_eq!(
            log.borrow().last().map(|(_, o)| *o),
            Some(JobOutcome::Completed)
        );
    }

    #[test]
    fn in_service_job_is_abandoned_on_crash() {
        let sim = Sim::new();
        let srv = QueueingServer::new(&sim, ServerConfig::default());
        let (log, mk) = outcomes();
        let done = mk();
        srv.submit(Duration::from_secs(1), move |s, o| done(s, o));
        let s2 = srv.clone();
        sim.schedule(Duration::from_millis(100), move |_| s2.crash());
        sim.run();
        // The in-flight job never reports Completed; queue was empty so no
        // Crashed callbacks either.
        assert!(log.borrow().is_empty());
        assert_eq!(srv.stats().completed, 0);
    }

    #[test]
    fn degradation_slows_service_under_load() {
        let sim = Sim::new();
        let srv = QueueingServer::new(
            &sim,
            ServerConfig {
                degradation: 0.1,
                ..Default::default()
            },
        );
        let (log, mk) = outcomes();
        for _ in 0..3 {
            let done = mk();
            srv.submit(Duration::from_millis(100), move |s, o| done(s, o));
        }
        sim.run();
        // Job 0 starts on an empty queue (100 ms). Job 1 starts while job 2
        // still waits → 1.1×100 ms. Job 2 starts on an empty queue (100 ms).
        let times: Vec<u64> = log
            .borrow()
            .iter()
            .map(|(t, _)| t.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(times, vec![100, 210, 310]);
    }

    #[test]
    fn work_closure_runs_before_done() {
        let sim = Sim::new();
        let srv = QueueingServer::new(&sim, ServerConfig::default());
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let (o1, o2) = (order.clone(), order.clone());
        srv.submit_with_work(
            Duration::from_millis(1),
            move |_| o1.borrow_mut().push("work"),
            move |_, _| o2.borrow_mut().push("done"),
        );
        sim.run();
        assert_eq!(*order.borrow(), vec!["work", "done"]);
    }

    #[test]
    fn traced_submit_reports_span_and_metrics() {
        let sim = Sim::new();
        let srv = QueueingServer::new(&sim, ServerConfig::default());
        srv.set_obs_label("obs-simnet-test");
        let ctx = rndi_obs::TraceCtx::root();
        srv.submit_traced(Duration::from_millis(5), Some(ctx), |_, _| {});
        sim.run();
        let spans = rndi_obs::trace::ring().snapshot();
        let span = spans
            .iter()
            .rev()
            .find(|s| &*s.provider == "obs-simnet-test")
            .expect("server span recorded");
        assert_eq!(span.layer, "server");
        assert_eq!(span.trace_id, ctx.trace_id);
        assert_eq!(span.parent_span, ctx.span_id, "span links to submitter");
        assert_eq!(span.duration_ns, 5_000_000, "virtual sojourn time");
        assert!(rndi_obs::metrics::render().contains("rndi_server_ops_total"));
    }

    #[test]
    fn rejected_when_down_without_restart() {
        let sim = Sim::new();
        let srv = QueueingServer::new(&sim, ServerConfig::default());
        srv.crash();
        let (log, mk) = outcomes();
        let done = mk();
        srv.submit(Duration::from_millis(1), move |s, o| done(s, o));
        sim.run();
        assert_eq!(log.borrow()[0].1, JobOutcome::Rejected);
        assert_eq!(srv.stats().rejected, 1);
    }
}

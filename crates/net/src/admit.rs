//! Admission: the overload plane's policy as a sans-IO state machine.
//!
//! A [`Shard`](crate::shard::Shard) is a serial executor. Every
//! call it reads is [`offer`](Admission::offer)ed here first: a
//! connection's [`Quota`] (a token bucket) may refuse it, the queue bound
//! may refuse it, and otherwise it waits in FIFO order. The shard then
//! takes calls back with [`next`](Admission::next), which decides once
//! whether a call is still worth running or spent its deadline budget in
//! queue, and reports each run with [`complete`](Admission::complete),
//! which feeds the service-time estimate and the AIMD bound.
//!
//! Every call takes the caller's `now`: the module reads no clock and holds
//! no socket or thread, so a simulated clock drives it through the shard
//! exactly as a server thread's does (`tests/admission_model.rs`).
//!
//! A bound on *waiting* calls is the shard's concurrency limit: by
//! Little's law it caps queue wait at roughly `bound × service time`,
//! which the AIMD controller walks down until admitted calls stop missing
//! their deadlines. A queue depth of `0` is an unbounded queue.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rndi_core::error::NamingError;

/// Multiplicative decrease the adaptive bound takes on a deadline signal
/// (a call expired in queue or overran its budget).
const AIMD_DECREASE: f64 = 0.7;

/// Floor of the adaptive bound: never stop admitting entirely.
const AIMD_MIN_LIMIT: f64 = 1.0;

/// Weight of the newest sample in the service-time EMA that prices the
/// `retry_after_ms` hints.
const SERVICE_EMA_ALPHA: f64 = 0.1;

/// Ceiling on any `retry_after_ms` hint.
const MAX_RETRY_AFTER_MS: u64 = 10_000;

/// A token bucket's unit: one token is this many token-nanoseconds, and a
/// nanosecond of refill adds `rate` of them, so refill and hint are exact
/// integer arithmetic.
const TOKEN: u64 = 1_000_000_000;

/// Why a call was refused before dispatch; doubles as an index into a
/// three-slot table of per-reason counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue was at its (possibly adaptive) bound.
    Queue = 0,
    /// The connection's token bucket was empty.
    Rate = 1,
    /// The call's deadline budget was spent while it waited in queue.
    Deadline = 2,
}

/// A refusal and the backoff it asks of the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shed {
    pub reason: ShedReason,
    pub retry_after_ms: u64,
}

impl Shed {
    /// What the caller is told: the retryable `Overloaded`, never `Timeout`.
    pub fn error(&self) -> NamingError {
        NamingError::overloaded(self.retry_after_ms)
    }
}

/// One connection's rate limit: a token bucket refilling `rate_ops`
/// tokens a second up to `rate_burst` (`0` means `rate_ops`), or nothing
/// when `rate_ops` is `0`.
pub struct Quota(Option<TokenBucket>);

impl Quota {
    pub fn new(rate_ops: u64, rate_burst: u64, now: Instant) -> Quota {
        Quota((rate_ops > 0).then(|| {
            let burst = if rate_burst == 0 {
                rate_ops
            } else {
                rate_burst
            };
            let cap = burst.saturating_mul(TOKEN);
            TokenBucket {
                rate: rate_ops,
                cap,
                level: cap,
                refilled: now,
            }
        }))
    }
}

struct TokenBucket {
    rate: u64,
    cap: u64,
    level: u64,
    refilled: Instant,
}

impl TokenBucket {
    /// Take one token, or say how many milliseconds until one refills.
    fn take(&mut self, now: Instant) -> Result<(), u64> {
        let elapsed = now.saturating_duration_since(self.refilled).as_nanos();
        let refill = u64::try_from(elapsed)
            .unwrap_or(u64::MAX)
            .saturating_mul(self.rate);
        self.level = self.level.saturating_add(refill).min(self.cap);
        self.refilled = now;
        if self.level >= TOKEN {
            self.level -= TOKEN;
            return Ok(());
        }
        let wait_ns = (TOKEN - self.level).div_ceil(self.rate);
        Err(wait_ns.div_ceil(1_000_000).clamp(1, MAX_RETRY_AFTER_MS))
    }
}

/// One admitted call waiting in the queue.
pub struct Pending<T> {
    pub call: T,
    /// When admission accepted the call: its budget runs from here, so
    /// queue wait counts against it.
    pub admitted: Instant,
    /// The call's deadline budget; `None` imposes none.
    pub budget: Option<Duration>,
}

/// What [`Admission::next`] hands the executor.
pub enum Next<T> {
    /// Dispatch this call now.
    Run(Pending<T>),
    /// Its budget was spent in queue: answer [`Shed::error`] instead.
    Shed(T, Shed),
}

/// How a dispatched call ended, as far as the adaptive bound cares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Answered inside its budget: the bound widens.
    InBudget,
    /// Answered `Timeout`: the bound narrows.
    Late,
    /// Failed some other way: no signal.
    Failed,
}

/// One shard's admission state: the call queue, the AIMD bound and the
/// service-time estimate that prices `retry_after_ms` hints.
pub struct Admission<T> {
    queue: VecDeque<Pending<T>>,
    /// The server's own cap on a call's budget, ms; `0` = none.
    deadline_ms: u64,
    /// Configured queue bound; `0` = unbounded.
    configured: usize,
    adaptive: bool,
    /// Current AIMD bound, `AIMD_MIN_LIMIT ..= configured`.
    limit: f64,
    /// EMA of service time, milliseconds.
    ema_service_ms: f64,
}

impl<T> Admission<T> {
    /// `queue_depth` bounds waiting calls (`0` = unbounded); `adaptive`
    /// walks that bound down on deadline signals (it needs a bound);
    /// `deadline_ms` caps every call's budget (`0` = no cap).
    pub fn new(queue_depth: usize, adaptive: bool, deadline_ms: u64) -> Admission<T> {
        Admission {
            queue: VecDeque::new(),
            deadline_ms,
            configured: queue_depth,
            adaptive: adaptive && queue_depth > 0,
            limit: queue_depth.max(1) as f64,
            ema_service_ms: 0.0,
        }
    }

    /// Calls waiting.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// The bound on waiting calls right now; `0` = unbounded.
    pub fn bound(&self) -> usize {
        if self.adaptive {
            self.limit as usize
        } else {
            self.configured
        }
    }

    /// Admit `call` at `now` against `quota` and the queue bound, or say
    /// why not. Its budget is the stricter of the caller's `deadline_ms`
    /// and the cap (`0` on either side imposes none).
    pub fn offer(
        &mut self,
        quota: &mut Quota,
        call: T,
        deadline_ms: u64,
        now: Instant,
    ) -> Result<(), Shed> {
        if let Some(bucket) = quota.0.as_mut() {
            bucket.take(now).map_err(|retry_after_ms| Shed {
                reason: ShedReason::Rate,
                retry_after_ms,
            })?;
        }
        let bound = self.bound();
        if bound > 0 && self.queue.len() >= bound {
            return Err(self.shed(ShedReason::Queue));
        }
        let budgets = [deadline_ms, self.deadline_ms].into_iter();
        let budget = budgets
            .filter(|&ms| ms > 0)
            .min()
            .map(Duration::from_millis);
        self.queue.push_back(Pending {
            call,
            admitted: now,
            budget,
        });
        Ok(())
    }

    /// The oldest waiting call, decided at `now`: run it, or shed it if
    /// `now` is at or past `admitted + budget`. The executor dispatches a
    /// `Run` without looking at the clock again.
    pub fn next(&mut self, now: Instant) -> Option<Next<T>> {
        let pending = self.queue.pop_front()?;
        match pending.budget {
            Some(budget) if now.saturating_duration_since(pending.admitted) >= budget => {
                self.narrow();
                Some(Next::Shed(pending.call, self.shed(ShedReason::Deadline)))
            }
            _ => Some(Next::Run(pending)),
        }
    }

    /// A dispatched call finished after running for `took`.
    pub fn complete(&mut self, took: Duration, served: Served) {
        let ms = took.as_secs_f64() * 1_000.0;
        self.ema_service_ms = if self.ema_service_ms == 0.0 {
            ms
        } else {
            self.ema_service_ms * (1.0 - SERVICE_EMA_ALPHA) + ms * SERVICE_EMA_ALPHA
        };
        match served {
            Served::InBudget => self.widen(),
            Served::Late => self.narrow(),
            Served::Failed => {}
        }
    }

    /// A shed whose hint is roughly one queue's worth of service time.
    fn shed(&self, reason: ShedReason) -> Shed {
        let per_op = self.ema_service_ms.max(1.0);
        let hint = self.queue.len().max(1) as f64 * per_op;
        Shed {
            reason,
            retry_after_ms: hint.clamp(1.0, MAX_RETRY_AFTER_MS as f64) as u64,
        }
    }

    /// Additive increase: an in-budget completion earns capacity back,
    /// slower the wider the bound already is (1/limit per completion).
    fn widen(&mut self) {
        if self.adaptive {
            let ceiling = self.configured as f64;
            self.limit = (self.limit + 1.0 / self.limit).min(ceiling);
        }
    }

    /// Multiplicative decrease: admitted work is expiring, so the window
    /// is too wide.
    fn narrow(&mut self) {
        if self.adaptive {
            self.limit = (self.limit * AIMD_DECREASE).max(AIMD_MIN_LIMIT);
        }
    }
}

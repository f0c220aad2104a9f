//! Multi-tenant workload management: admission control, quotas, bounded
//! queues, and graceful degradation under overload.
//!
//! §3.4 promises an appliance that schedules "prioritized tasks" and §4
//! promises a box that survives whatever traffic arrives — not just one
//! that parallelizes when idle. The [`WorkloadManager`] is the front
//! door that makes overload a *policy decision* instead of an accident:
//!
//! * **Per-tenant token buckets** — every tenant refills at its quota's
//!   rate up to a burst cap; a query costs one token. A tenant that
//!   exhausts its quota is shed with a precise retry-after hint, and
//!   cannot starve anyone else regardless of how hard it hammers.
//! * **Bounded per-tenant queues** — backlog per tenant is capped;
//!   arrivals beyond the cap are shed immediately (fast-fail) instead of
//!   queueing unboundedly and blowing every deadline at once.
//! * **Priority dispatch** — ready work drains `High` before `Normal`
//!   before `Low`, FIFO within a class, so overload degrades a
//!   predictable subset (the low classes) while response-time-sensitive
//!   tenants keep their latency.
//! * **Deadline-aware shedding** — when the expected wait already
//!   exceeds a query's deadline, the query is rejected *now* with
//!   [`ShedReason::DeadlineUnmeetable`] instead of timing out later;
//!   under concurrency pressure `Normal` work is admitted with a
//!   tightened budget (honest degraded answers via the engine's
//!   deadline/`Degraded` path) rather than rejected outright.
//!
//! All time is read through the injectable
//! [`impliance_query::clock::TimeSource`], so the workload simulator and
//! the proptest batteries drive hours of virtual traffic without burning
//! wall-clock.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use impliance_analysis::TrackedMutex;
use impliance_obs::{Counter, Gauge, Histogram, LATENCY_BUCKETS_US};
use impliance_query::clock::{default_time_source, TimeSource};
use impliance_query::Priority;

/// Identifier of a tenant (a customer, application, or workload class
/// sharing the appliance). Tenant `0` is the default tenant for requests
/// that never declared one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Rate/backlog contract for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Sustained admission rate in queries per second (`0` = unlimited;
    /// the token bucket is skipped entirely).
    pub tokens_per_sec: u64,
    /// Burst capacity in queries: how far above the sustained rate a
    /// quiet tenant may spike.
    pub burst: u64,
    /// Bounded backlog: queued queries beyond this are shed immediately.
    pub queue_capacity: usize,
}

impl TenantQuota {
    /// A quota that never sheds on rate (the default-tenant contract for
    /// a box booted with no workload policy).
    pub fn unlimited() -> TenantQuota {
        TenantQuota {
            tokens_per_sec: 0,
            burst: 0,
            queue_capacity: usize::MAX,
        }
    }
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota::unlimited()
    }
}

/// Appliance-level workload policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Quota applied to tenants without an explicit [`TenantQuota`].
    pub default_quota: TenantQuota,
    /// Queries allowed to execute concurrently before overload handling
    /// starts (`0` = unlimited). `High` work is admitted past this limit
    /// and preempts at morsel granularity instead of waiting.
    pub max_concurrent: usize,
    /// Initial estimate of one query's service time, microseconds; the
    /// manager replaces it with a running average as permits retire.
    pub expected_service_us: u64,
    /// Budget floor for degraded admissions, microseconds: a `Normal`
    /// query admitted under pressure always gets at least this much.
    pub min_degraded_budget_us: u64,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            default_quota: TenantQuota::unlimited(),
            max_concurrent: 0,
            expected_service_us: 5_000,
            min_degraded_budget_us: 1_000,
        }
    }
}

/// Why a query was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket is empty (quota exhausted).
    TokensExhausted,
    /// The tenant's bounded queue is full.
    QueueFull,
    /// The expected wait already exceeds the query's deadline.
    DeadlineUnmeetable,
    /// The appliance is over its concurrency limit and this class is
    /// shed first.
    Overloaded,
}

impl ShedReason {
    /// Stable lower-snake name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::TokensExhausted => "tokens_exhausted",
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineUnmeetable => "deadline_unmeetable",
            ShedReason::Overloaded => "overloaded",
        }
    }
}

/// A rejected query: why, and when retrying is worthwhile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// The shed class.
    pub reason: ShedReason,
    /// Microseconds after which a retry has a realistic chance.
    pub retry_after_us: u64,
}

/// The outcome of a synchronous admission attempt.
#[derive(Debug)]
pub enum Admission {
    /// Run at full fidelity.
    Admitted(Permit),
    /// Run, but with a tightened budget (`Permit::budget_us`): the
    /// engine's deadline path turns it into an honest partial answer.
    Degraded(Permit),
    /// Rejected before any work was done.
    Shed(Shed),
}

/// Running-query registration. Dropping the permit releases the
/// concurrency slot and feeds the observed service time back into the
/// manager's wait estimator.
#[derive(Debug)]
pub struct Permit {
    shared: Arc<Shared>,
    tenant: TenantId,
    priority: Priority,
    started_us: u64,
    queue_wait_us: u64,
    budget_us: Option<u64>,
}

impl Permit {
    /// The tenant this permit was issued to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The priority class it was admitted at.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Microseconds spent queued/waiting before execution could start.
    pub fn queue_wait_us(&self) -> u64 {
        self.queue_wait_us
    }

    /// Tightened execution budget for degraded admissions (`None` for
    /// full-fidelity admissions).
    pub fn budget_us(&self) -> Option<u64> {
        self.budget_us
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.shared.release(self.started_us);
    }
}

/// One queued query awaiting dispatch.
#[derive(Debug, Clone, Copy)]
struct QueuedTicket {
    tenant: TenantId,
    priority: Priority,
    enqueued_us: u64,
    deadline_us: Option<u64>,
}

#[derive(Debug, Default)]
struct Bucket {
    /// Micro-tokens (1 query = 1_000_000).
    micro: u64,
    last_refill_us: u64,
    initialized: bool,
}

const MICRO_PER_TOKEN: u64 = 1_000_000;

impl Bucket {
    /// Refill at `rate` tokens/sec up to `burst`, then try to take one
    /// token. On failure returns the microseconds until one token
    /// accumulates.
    fn take(&mut self, now_us: u64, rate: u64, burst: u64) -> Result<(), u64> {
        let cap = burst.max(1).saturating_mul(MICRO_PER_TOKEN);
        if !self.initialized {
            self.initialized = true;
            self.micro = cap;
            self.last_refill_us = now_us;
        }
        let dt = now_us.saturating_sub(self.last_refill_us);
        self.last_refill_us = now_us;
        self.micro = self.micro.saturating_add(rate.saturating_mul(dt)).min(cap);
        if self.micro >= MICRO_PER_TOKEN {
            self.micro -= MICRO_PER_TOKEN;
            Ok(())
        } else {
            let deficit = MICRO_PER_TOKEN - self.micro;
            Err(deficit.div_ceil(rate.max(1)))
        }
    }
}

/// Cumulative admission/shed/degrade accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Queries admitted at full fidelity.
    pub admitted: u64,
    /// Queries admitted with a tightened (degraded) budget.
    pub degraded: u64,
    /// Queries shed for quota exhaustion.
    pub shed_tokens: u64,
    /// Queries shed because the tenant's queue was full.
    pub shed_queue_full: u64,
    /// Queries shed because their deadline was already unmeetable.
    pub shed_deadline: u64,
    /// Queries shed by the concurrency overload policy.
    pub shed_overload: u64,
    /// Currently executing (outstanding permits).
    pub active: u64,
    /// Currently queued awaiting dispatch.
    pub queued: u64,
    /// Running mean service time, microseconds.
    pub mean_service_us: u64,
}

impl WorkloadStats {
    /// Total shed count across every reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_tokens + self.shed_queue_full + self.shed_deadline + self.shed_overload
    }
}

struct WorkloadObs {
    admitted: Arc<Counter>,
    degraded: Arc<Counter>,
    shed: Arc<Counter>,
    active: Arc<Gauge>,
    queued: Arc<Gauge>,
    queue_wait_us: Arc<Histogram>,
    tokens_denied: Arc<Counter>,
    queue_full: Arc<Counter>,
    deadline_shed: Arc<Counter>,
    overload_shed: Arc<Counter>,
}

fn workload_obs() -> &'static WorkloadObs {
    static OBS: OnceLock<WorkloadObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        WorkloadObs {
            admitted: m.counter("workload.admitted"),
            degraded: m.counter("workload.degraded"),
            shed: m.counter("workload.shed"),
            active: m.gauge("workload.active"),
            queued: m.gauge("workload.queued"),
            queue_wait_us: m.histogram("workload.queue_wait_us", &LATENCY_BUCKETS_US),
            tokens_denied: m.counter("admission.tokens_denied"),
            queue_full: m.counter("admission.queue_full"),
            deadline_shed: m.counter("admission.deadline_shed"),
            overload_shed: m.counter("admission.overload_shed"),
        }
    })
}

#[derive(Debug, Default)]
struct State {
    buckets: BTreeMap<u64, Bucket>,
    quotas: BTreeMap<u64, TenantQuota>,
    queues: [VecDeque<QueuedTicket>; 3],
    queued_per_tenant: BTreeMap<u64, usize>,
    active: u64,
    stats: WorkloadStats,
}

struct Shared {
    state: TrackedMutex<State>,
    config: WorkloadConfig,
    time: Arc<dyn TimeSource>,
    /// EWMA of observed service times, microseconds (atomic so permit
    /// drops never contend with admission).
    mean_service_us: AtomicU64,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .finish()
    }
}

impl Shared {
    fn release(&self, started_us: u64) {
        let service = self.time.now_us().saturating_sub(started_us);
        // mean := (7*mean + sample) / 8 — cheap, monotone-stable EWMA.
        let prev = self.mean_service_us.load(Ordering::Relaxed);
        let next = (prev.saturating_mul(7).saturating_add(service)) / 8;
        self.mean_service_us.store(next.max(1), Ordering::Relaxed);
        let mut s = self.state.lock();
        s.active = s.active.saturating_sub(1);
        s.stats.active = s.active;
        s.stats.mean_service_us = next.max(1);
        workload_obs().active.set(s.active as i64);
    }
}

/// The per-appliance workload manager. See the module docs for the
/// policy; all entry points are non-blocking and panic-free.
#[derive(Debug)]
pub struct WorkloadManager {
    shared: Arc<Shared>,
}

impl WorkloadManager {
    /// A manager on the process-default time source.
    pub fn new(config: WorkloadConfig) -> WorkloadManager {
        WorkloadManager::with_time_source(config, default_time_source())
    }

    /// A manager reading time from an explicit source (tests and the
    /// workload simulator pass a `ManualTime`).
    pub fn with_time_source(config: WorkloadConfig, time: Arc<dyn TimeSource>) -> WorkloadManager {
        WorkloadManager {
            shared: Arc::new(Shared {
                state: TrackedMutex::new("virt.workload", State::default()),
                config,
                time,
                mean_service_us: AtomicU64::new(config.expected_service_us.max(1)),
            }),
        }
    }

    /// Override one tenant's quota (the default applies otherwise).
    pub fn set_quota(&self, tenant: TenantId, quota: TenantQuota) {
        self.shared.state.lock().quotas.insert(tenant.0, quota);
    }

    /// Cumulative accounting.
    pub fn stats(&self) -> WorkloadStats {
        self.shared.state.lock().stats
    }

    /// The manager's current estimate of one query's service time.
    pub fn mean_service_us(&self) -> u64 {
        self.shared.mean_service_us.load(Ordering::Relaxed)
    }

    fn permit(&self, t: QueuedTicket, queue_wait_us: u64, budget_us: Option<u64>) -> Permit {
        Permit {
            shared: Arc::clone(&self.shared),
            tenant: t.tenant,
            priority: t.priority,
            started_us: self.shared.time.now_us(),
            queue_wait_us,
            budget_us,
        }
    }

    /// Synchronous admission for a caller about to execute on its own
    /// thread (the appliance's `query()` path): token bucket, then the
    /// concurrency/overload policy. Never blocks; a `Shed` outcome comes
    /// back in microseconds with a retry-after hint.
    pub fn admit(
        &self,
        tenant: TenantId,
        priority: Priority,
        deadline_us: Option<u64>,
    ) -> Admission {
        let now = self.shared.time.now_us();
        let obs = workload_obs();
        let mean = self.mean_service_us();
        let cfg = self.shared.config;
        let mut s = self.shared.state.lock();
        let quota = s
            .quotas
            .get(&tenant.0)
            .copied()
            .unwrap_or(cfg.default_quota);
        if quota.tokens_per_sec > 0 {
            let bucket = s.buckets.entry(tenant.0).or_default();
            if let Err(wait_us) = bucket.take(now, quota.tokens_per_sec, quota.burst) {
                s.stats.shed_tokens += 1;
                obs.shed.inc();
                obs.tokens_denied.inc();
                return Admission::Shed(Shed {
                    reason: ShedReason::TokensExhausted,
                    retry_after_us: wait_us,
                });
            }
        }
        let over_by = if cfg.max_concurrent > 0 {
            (s.active + 1).saturating_sub(cfg.max_concurrent as u64)
        } else {
            0
        };
        let ticket = QueuedTicket {
            tenant,
            priority,
            enqueued_us: now,
            deadline_us,
        };
        if over_by == 0 || priority == Priority::High {
            s.active += 1;
            s.stats.active = s.active;
            s.stats.admitted += 1;
            obs.admitted.inc();
            obs.active.set(s.active as i64);
            obs.queue_wait_us.observe(0);
            drop(s);
            return Admission::Admitted(self.permit(ticket, 0, None));
        }
        // Over the concurrency limit: estimate the wait the backlog
        // implies and shed or degrade instead of queueing blindly.
        let expected_wait_us = over_by.saturating_mul(mean);
        if let Some(d) = deadline_us {
            if expected_wait_us >= d {
                s.stats.shed_deadline += 1;
                obs.shed.inc();
                obs.deadline_shed.inc();
                return Admission::Shed(Shed {
                    reason: ShedReason::DeadlineUnmeetable,
                    retry_after_us: expected_wait_us,
                });
            }
        }
        match priority {
            Priority::Low => {
                s.stats.shed_overload += 1;
                obs.shed.inc();
                obs.overload_shed.inc();
                Admission::Shed(Shed {
                    reason: ShedReason::Overloaded,
                    retry_after_us: expected_wait_us.max(mean),
                })
            }
            _ => {
                // Normal under pressure: admit with a tightened budget so
                // the engine returns an honest partial answer quickly.
                let budget = deadline_us
                    .unwrap_or(mean.saturating_mul(2))
                    .saturating_sub(expected_wait_us)
                    .max(cfg.min_degraded_budget_us);
                s.active += 1;
                s.stats.active = s.active;
                s.stats.degraded += 1;
                obs.degraded.inc();
                obs.active.set(s.active as i64);
                obs.queue_wait_us.observe(0);
                drop(s);
                Admission::Degraded(self.permit(ticket, 0, Some(budget)))
            }
        }
    }

    /// Queued admission for dispatch-style callers (the workload
    /// simulator and batch drivers): the token bucket and the bounded
    /// per-tenant queue apply; dispatch order is decided by
    /// [`WorkloadManager::next_ready`].
    pub fn submit(
        &self,
        tenant: TenantId,
        priority: Priority,
        deadline_us: Option<u64>,
    ) -> Result<(), Shed> {
        let now = self.shared.time.now_us();
        let obs = workload_obs();
        let mut s = self.shared.state.lock();
        let quota = s
            .quotas
            .get(&tenant.0)
            .copied()
            .unwrap_or(self.shared.config.default_quota);
        if quota.tokens_per_sec > 0 {
            let bucket = s.buckets.entry(tenant.0).or_default();
            if let Err(wait_us) = bucket.take(now, quota.tokens_per_sec, quota.burst) {
                s.stats.shed_tokens += 1;
                obs.shed.inc();
                obs.tokens_denied.inc();
                return Err(Shed {
                    reason: ShedReason::TokensExhausted,
                    retry_after_us: wait_us,
                });
            }
        }
        let queued = s.queued_per_tenant.get(&tenant.0).copied().unwrap_or(0);
        if queued >= quota.queue_capacity {
            let mean = self.mean_service_us();
            s.stats.shed_queue_full += 1;
            obs.shed.inc();
            obs.queue_full.inc();
            return Err(Shed {
                reason: ShedReason::QueueFull,
                retry_after_us: (queued as u64).saturating_mul(mean),
            });
        }
        let ticket = QueuedTicket {
            tenant,
            priority,
            enqueued_us: now,
            deadline_us,
        };
        s.queues[queue_index(priority)].push_back(ticket);
        *s.queued_per_tenant.entry(tenant.0).or_insert(0) += 1;
        s.stats.queued += 1;
        obs.queued.set(s.stats.queued as i64);
        Ok(())
    }

    /// Dispatch the next queued query: `High` before `Normal` before
    /// `Low`, FIFO within a class. Tickets whose deadline can no longer
    /// be met are shed here (counted, with the deadline reason) instead
    /// of being dispatched to fail — that is the "degrade a predictable
    /// subset" behavior under sustained overload. Returns `None` when
    /// nothing dispatchable is queued.
    pub fn next_ready(&self) -> Option<Permit> {
        let now = self.shared.time.now_us();
        let obs = workload_obs();
        let mut s = self.shared.state.lock();
        for qi in 0..3 {
            while let Some(t) = s.queues[qi].pop_front() {
                if let Some(n) = s.queued_per_tenant.get_mut(&t.tenant.0) {
                    *n = n.saturating_sub(1);
                }
                s.stats.queued = s.stats.queued.saturating_sub(1);
                obs.queued.set(s.stats.queued as i64);
                let wait = now.saturating_sub(t.enqueued_us);
                if let Some(d) = t.deadline_us {
                    if wait >= d {
                        s.stats.shed_deadline += 1;
                        obs.shed.inc();
                        obs.deadline_shed.inc();
                        continue;
                    }
                }
                s.active += 1;
                s.stats.active = s.active;
                s.stats.admitted += 1;
                obs.admitted.inc();
                obs.active.set(s.active as i64);
                obs.queue_wait_us.observe(wait);
                let budget = t.deadline_us.map(|d| d.saturating_sub(wait));
                drop(s);
                return Some(self.permit(t, wait, budget));
            }
        }
        None
    }
}

fn queue_index(priority: Priority) -> usize {
    match priority {
        Priority::High => 0,
        Priority::Normal => 1,
        Priority::Low => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_query::clock::ManualTime;

    fn manager(config: WorkloadConfig) -> (WorkloadManager, Arc<ManualTime>) {
        let time = Arc::new(ManualTime::new());
        (
            WorkloadManager::with_time_source(config, time.clone()),
            time,
        )
    }

    #[test]
    fn default_policy_admits_everything() {
        let (wm, _) = manager(WorkloadConfig::default());
        for _ in 0..1000 {
            match wm.admit(TenantId(1), Priority::Normal, None) {
                Admission::Admitted(_) => {}
                other => panic!("unlimited policy must admit: {other:?}"),
            }
        }
        // permits dropped immediately, so nothing stays active
        assert_eq!(wm.stats().active, 0);
        assert_eq!(wm.stats().admitted, 1000);
    }

    #[test]
    fn token_bucket_sheds_and_refills() {
        let (wm, time) = manager(WorkloadConfig {
            default_quota: TenantQuota {
                tokens_per_sec: 10,
                burst: 2,
                queue_capacity: 8,
            },
            ..WorkloadConfig::default()
        });
        // burst of 2 admits, third sheds with a retry hint
        assert!(matches!(
            wm.admit(TenantId(7), Priority::Normal, None),
            Admission::Admitted(_)
        ));
        assert!(matches!(
            wm.admit(TenantId(7), Priority::Normal, None),
            Admission::Admitted(_)
        ));
        let Admission::Shed(shed) = wm.admit(TenantId(7), Priority::Normal, None) else {
            panic!("bucket must be empty");
        };
        assert_eq!(shed.reason, ShedReason::TokensExhausted);
        // 10 tokens/sec → one token accumulates in 100ms
        assert_eq!(shed.retry_after_us, 100_000);
        time.advance_us(shed.retry_after_us);
        assert!(matches!(
            wm.admit(TenantId(7), Priority::Normal, None),
            Admission::Admitted(_)
        ));
        // a different tenant has its own bucket
        assert!(matches!(
            wm.admit(TenantId(8), Priority::Normal, None),
            Admission::Admitted(_)
        ));
        assert_eq!(wm.stats().shed_tokens, 1);
    }

    #[test]
    fn concurrency_pressure_degrades_normal_sheds_low_admits_high() {
        let (wm, _) = manager(WorkloadConfig {
            max_concurrent: 2,
            ..WorkloadConfig::default()
        });
        let p1 = match wm.admit(TenantId(1), Priority::Normal, None) {
            Admission::Admitted(p) => p,
            other => panic!("{other:?}"),
        };
        let p2 = match wm.admit(TenantId(2), Priority::Normal, None) {
            Admission::Admitted(p) => p,
            other => panic!("{other:?}"),
        };
        // third Normal: degraded with a budget
        let p3 = match wm.admit(TenantId(3), Priority::Normal, None) {
            Admission::Degraded(p) => p,
            other => panic!("expected degraded: {other:?}"),
        };
        assert!(p3.budget_us().is_some());
        // Low: shed with a retry hint
        let Admission::Shed(shed) = wm.admit(TenantId(4), Priority::Low, None) else {
            panic!("low must shed under overload");
        };
        assert_eq!(shed.reason, ShedReason::Overloaded);
        assert!(shed.retry_after_us > 0);
        // High: admitted past the limit (morsel preemption handles it)
        let p4 = match wm.admit(TenantId(5), Priority::High, None) {
            Admission::Admitted(p) => p,
            other => panic!("high must be admitted: {other:?}"),
        };
        assert_eq!(wm.stats().active, 4);
        drop((p1, p2, p3, p4));
        assert_eq!(wm.stats().active, 0);
    }

    #[test]
    fn deadline_unmeetable_sheds_before_queueing() {
        let (wm, _) = manager(WorkloadConfig {
            max_concurrent: 1,
            expected_service_us: 50_000,
            ..WorkloadConfig::default()
        });
        let _p = match wm.admit(TenantId(1), Priority::Normal, None) {
            Admission::Admitted(p) => p,
            other => panic!("{other:?}"),
        };
        // expected wait = 1 * 50ms >= 10ms deadline → fast-fail
        let Admission::Shed(shed) = wm.admit(TenantId(2), Priority::Normal, Some(10_000)) else {
            panic!("unmeetable deadline must shed");
        };
        assert_eq!(shed.reason, ShedReason::DeadlineUnmeetable);
        assert!(shed.retry_after_us >= 50_000);
        assert_eq!(wm.stats().shed_deadline, 1);
    }

    #[test]
    fn bounded_queue_sheds_when_full() {
        let (wm, _) = manager(WorkloadConfig {
            default_quota: TenantQuota {
                tokens_per_sec: 0,
                burst: 0,
                queue_capacity: 2,
            },
            ..WorkloadConfig::default()
        });
        assert!(wm.submit(TenantId(1), Priority::Normal, None).is_ok());
        assert!(wm.submit(TenantId(1), Priority::Normal, None).is_ok());
        let shed = wm
            .submit(TenantId(1), Priority::Normal, None)
            .expect_err("queue bound must shed");
        assert_eq!(shed.reason, ShedReason::QueueFull);
        // other tenants queue independently
        assert!(wm.submit(TenantId(2), Priority::Normal, None).is_ok());
        assert_eq!(wm.stats().queued, 3);
    }

    #[test]
    fn dispatch_order_is_high_normal_low_fifo_within_class() {
        let (wm, _) = manager(WorkloadConfig::default());
        wm.submit(TenantId(1), Priority::Low, None).unwrap();
        wm.submit(TenantId(2), Priority::Normal, None).unwrap();
        wm.submit(TenantId(3), Priority::High, None).unwrap();
        wm.submit(TenantId(4), Priority::High, None).unwrap();
        wm.submit(TenantId(5), Priority::Normal, None).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| wm.next_ready())
            .map(|p| p.tenant().0)
            .collect();
        assert_eq!(order, vec![3, 4, 2, 5, 1]);
    }

    #[test]
    fn stale_tickets_are_shed_at_dispatch() {
        let (wm, time) = manager(WorkloadConfig::default());
        wm.submit(TenantId(1), Priority::Normal, Some(1_000))
            .unwrap();
        wm.submit(TenantId(2), Priority::Normal, Some(500_000))
            .unwrap();
        time.advance_us(10_000); // first ticket's 1ms deadline passed
        let p = wm.next_ready().expect("second ticket dispatches");
        assert_eq!(p.tenant(), TenantId(2));
        assert_eq!(p.queue_wait_us(), 10_000);
        assert_eq!(p.budget_us(), Some(490_000));
        assert_eq!(wm.stats().shed_deadline, 1);
        assert!(wm.next_ready().is_none());
    }

    #[test]
    fn service_time_feedback_updates_the_estimator() {
        let (wm, time) = manager(WorkloadConfig {
            expected_service_us: 8_000,
            ..WorkloadConfig::default()
        });
        for _ in 0..64 {
            let p = match wm.admit(TenantId(1), Priority::Normal, None) {
                Admission::Admitted(p) => p,
                other => panic!("{other:?}"),
            };
            time.advance_us(1_000); // every query "runs" 1ms
            drop(p);
        }
        let mean = wm.mean_service_us();
        assert!(
            (500..=2_000).contains(&mean),
            "EWMA should converge toward 1ms, got {mean}"
        );
    }
}

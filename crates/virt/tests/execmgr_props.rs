//! Property battery for the execution manager's fairness contract, all on
//! the injectable clock (no wall-time, no sleeps):
//!
//! * conservation — every submitted task is dispatched exactly once, in
//!   FIFO order within its class;
//! * the background share is exact per dispatch window while both queues
//!   are backlogged;
//! * interactive latency is bounded by the background share (never more
//!   than `share` dispatches of queue-jump delay);
//! * background work never starves under continuous interactive arrivals
//!   (dispatched within two windows);
//! * wait accounting equals the hand-computed sums from the injected
//!   `ManualTime` readings.
//!
//! A second section covers the `WorkloadManager` admission ledger: counts
//! always balance (admitted + degraded + shed = offered) and a tenant's
//! token bucket never admits more than `burst + rate * elapsed` queries.

use std::sync::Arc;

use proptest::prelude::*;

use impliance_query::clock::ManualTime;
use impliance_query::Priority;
use impliance_virt::execmgr::{ExecutionManager, TaskClass};
use impliance_virt::{Admission, TenantId, TenantQuota, WorkloadConfig, WorkloadManager};

fn manager(window: u32, share: u32) -> (ExecutionManager, Arc<ManualTime>) {
    let time = Arc::new(ManualTime::new());
    (
        ExecutionManager::with_time_source(window, share, time.clone()),
        time,
    )
}

/// Debug builds run proptest cases slower; keep the battery small there
/// and let `--release` run the full set.
const fn cases(release: u32) -> u32 {
    if cfg!(debug_assertions) {
        release / 4 + 2
    } else {
        release
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    // Conservation: an arbitrary interleaving of submissions and
    // dispatches loses nothing, invents nothing, and preserves FIFO
    // order within each class.
    #[test]
    fn every_task_dispatches_exactly_once_in_class_fifo_order(
        window in 1u32..9,
        share in 0u32..9,
        ops in proptest::collection::vec((0u8..3, 0u64..8), 1..120),
    ) {
        let (m, time) = manager(window, share);
        let mut next_id = 0u64;
        let mut submitted: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        let mut dispatched: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for &(op, advance) in &ops {
            time.advance_us(advance);
            match op {
                0 => {
                    m.submit(next_id, TaskClass::Interactive);
                    submitted[0].push(next_id);
                    next_id += 1;
                }
                1 => {
                    m.submit(next_id, TaskClass::Background);
                    submitted[1].push(next_id);
                    next_id += 1;
                }
                _ => {
                    if let Some(t) = m.next() {
                        let ci = (t.class == TaskClass::Background) as usize;
                        dispatched[ci].push(t.id);
                    }
                }
            }
        }
        // Drain whatever is left; the manager must hand back exactly the
        // un-dispatched remainder and then report empty.
        while let Some(t) = m.next() {
            let ci = (t.class == TaskClass::Background) as usize;
            dispatched[ci].push(t.id);
        }
        prop_assert_eq!(m.pending(), (0, 0));
        prop_assert_eq!(&dispatched[0], &submitted[0], "interactive FIFO order");
        prop_assert_eq!(&dispatched[1], &submitted[1], "background FIFO order");
    }

    // Window exactness: while both queues stay backlogged, every aligned
    // dispatch window contains exactly `share` background dispatches —
    // the share is a guarantee, not a hint, in both directions (no
    // starvation, no over-serving).
    #[test]
    fn background_share_is_exact_per_window_under_backlog(
        window in 1u32..9,
        share_seed in 0u32..9,
        rounds in 1u32..6,
    ) {
        let share = share_seed.min(window);
        let (m, _) = manager(window, share);
        let total = window * rounds;
        // Preload more than enough of each class to stay backlogged for
        // `rounds` full windows.
        for i in 0..u64::from(total) {
            m.submit(i, TaskClass::Interactive);
            m.submit(1_000_000 + i, TaskClass::Background);
        }
        for round in 0..rounds {
            let mut bg = 0u32;
            for _ in 0..window {
                if m.next().expect("backlogged").class == TaskClass::Background {
                    bg += 1;
                }
            }
            prop_assert_eq!(
                bg, share,
                "window {} dispatched {} background tasks, share is {}",
                round, bg, share
            );
        }
    }

    // Interactive latency bound: even against an unbounded background
    // backlog, a newly submitted interactive task is dispatched within
    // `share + 1` calls — the only thing allowed ahead of it is the
    // share the current window still owes to background work.
    #[test]
    fn interactive_waits_at_most_the_background_share(
        window in 2u32..9,
        share_seed in 0u32..8,
        warmup in 0u32..20,
    ) {
        let share = share_seed.min(window - 1);
        let (m, _) = manager(window, share);
        for i in 0..200u64 {
            m.submit(i, TaskClass::Background);
        }
        // Leave the window counter at an arbitrary phase.
        for _ in 0..warmup {
            m.next();
        }
        m.submit(777_777, TaskClass::Interactive);
        let mut calls = 0u32;
        loop {
            let t = m.next().expect("background backlog never empties");
            calls += 1;
            if t.class == TaskClass::Interactive {
                prop_assert_eq!(t.id, 777_777u64);
                break;
            }
            prop_assert!(
                calls <= share + 1,
                "interactive task queue-jumped by {} > share {}",
                calls, share
            );
        }
    }

    // Background starvation bound: with one interactive arrival per
    // dispatch (a permanently hot foreground), a queued background task
    // still runs within two full windows.
    #[test]
    fn background_dispatches_within_two_windows_under_interactive_flood(
        window in 1u32..9,
        share_seed in 1u32..9,
        warmup in 0u32..20,
    ) {
        let share = share_seed.min(window);
        let (m, _) = manager(window, share);
        for i in 0..warmup {
            m.submit(u64::from(i), TaskClass::Interactive);
            m.next();
        }
        m.submit(888_888, TaskClass::Background);
        let mut calls = 0u32;
        loop {
            m.submit(1_000 + u64::from(calls), TaskClass::Interactive);
            let t = m.next().expect("both queues nonempty");
            calls += 1;
            if t.class == TaskClass::Background {
                break;
            }
            prop_assert!(
                calls <= 2 * window,
                "background starved for {} dispatches (window {}, share {})",
                calls, window, share
            );
        }
    }

    // Wait accounting: the means reported by the manager equal the sums
    // hand-computed from the injected clock readings at each dispatch.
    #[test]
    fn mean_waits_match_hand_computed_sums(
        window in 1u32..9,
        share in 0u32..9,
        ops in proptest::collection::vec((0u8..3, 0u64..50), 1..80),
    ) {
        let (m, time) = manager(window, share);
        let mut next_id = 0u64;
        let mut now = 0u64;
        let mut sums = [(0u64, 0u64); 2]; // (count, total wait) per class
        for &(op, advance) in &ops {
            time.advance_us(advance);
            now += advance;
            match op {
                0 => {
                    m.submit(next_id, TaskClass::Interactive);
                    next_id += 1;
                }
                1 => {
                    m.submit(next_id, TaskClass::Background);
                    next_id += 1;
                }
                _ => {
                    if let Some(t) = m.next() {
                        let ci = (t.class == TaskClass::Background) as usize;
                        sums[ci].0 += 1;
                        sums[ci].1 += now - t.enqueued_at;
                    }
                }
            }
        }
        let mean = |(n, total): (u64, u64)| if n == 0 { 0.0 } else { total as f64 / n as f64 };
        let (iw, bw) = m.mean_waits();
        prop_assert_eq!(iw, mean(sums[0]));
        prop_assert_eq!(bw, mean(sums[1]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    // Admission ledger balance: however admit() is hammered, every call
    // lands in exactly one of admitted/degraded/shed and the stats
    // ledger accounts for all of them.
    #[test]
    fn workload_admission_ledger_always_balances(
        max_concurrent in 0usize..6,
        calls in proptest::collection::vec((0u64..5, 0u8..3, 0u64..20_000), 1..120),
    ) {
        let time = Arc::new(ManualTime::new());
        let mgr = WorkloadManager::with_time_source(
            WorkloadConfig {
                max_concurrent,
                ..WorkloadConfig::default()
            },
            time.clone(),
        );
        let mut live = Vec::new();
        let mut offered = 0u64;
        for &(tenant, prio, advance) in &calls {
            time.advance_us(advance);
            let priority = match prio {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            };
            offered += 1;
            match mgr.admit(TenantId(tenant), priority, None) {
                Admission::Admitted(p) | Admission::Degraded(p) => {
                    // Hold roughly half the permits to build real
                    // concurrency pressure; release the rest at once.
                    if offered % 2 == 0 {
                        live.push(p);
                    }
                }
                Admission::Shed(_) => {}
            }
        }
        drop(live);
        let s = mgr.stats();
        prop_assert_eq!(s.admitted + s.degraded + s.shed_total(), offered);
        prop_assert_eq!(s.active, 0, "all permits released");
    }

    // Token-bucket ceiling: a rate-limited tenant can never be admitted
    // more than burst + rate * elapsed_seconds times, no matter how the
    // arrivals are spaced — and a parallel unlimited tenant is never
    // collateral damage.
    #[test]
    fn token_bucket_never_exceeds_burst_plus_rate(
        rate in 1u64..10,
        burst in 1u64..10,
        gaps_ms in proptest::collection::vec(0u64..400, 1..80),
    ) {
        let time = Arc::new(ManualTime::new());
        let mgr = WorkloadManager::with_time_source(WorkloadConfig::default(), time.clone());
        mgr.set_quota(
            TenantId(1),
            TenantQuota {
                tokens_per_sec: rate,
                burst,
            },
        );
        let mut elapsed_us = 0u64;
        let mut limited_admits = 0u64;
        for &gap in &gaps_ms {
            time.advance_us(gap * 1_000);
            elapsed_us += gap * 1_000;
            if !matches!(
                mgr.admit(TenantId(1), Priority::Normal, None),
                Admission::Shed(_)
            ) {
                limited_admits += 1;
            }
            prop_assert!(
                !matches!(
                    mgr.admit(TenantId(2), Priority::Normal, None),
                    Admission::Shed(_)
                ),
                "unlimited tenant shed by a neighbor's quota"
            );
        }
        let ceiling = burst + (rate * elapsed_us) / 1_000_000;
        prop_assert!(
            limited_admits <= ceiling,
            "rate {}/s burst {} admitted {} in {}us (ceiling {})",
            rate, burst, limited_admits, elapsed_us, ceiling
        );
    }
}

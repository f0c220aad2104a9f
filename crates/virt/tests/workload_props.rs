//! Property battery for the `WorkloadManager` admission ledger, on the
//! injectable clock (no wall time, no sleeps): counts always balance
//! (admitted + degraded + shed = offered) and a tenant's token bucket
//! never admits more than `burst + rate * elapsed` queries.

use std::sync::Arc;

use proptest::prelude::*;

use impliance_query::clock::ManualTime;
use impliance_query::Priority;
use impliance_virt::{Admission, TenantId, TenantQuota, WorkloadConfig, WorkloadManager};

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

//! Message-conservation properties: at quiescence, every control message
//! an engine accounted as sent (plus duplicates a faulty channel minted)
//! must be accounted exactly once as delivered, lost, or corrupted —
//! under arbitrary seeded fault plans, for every design-point engine, in
//! the run totals *and* inside every phase scope.

use adroute::policy::PolicyDb;
use adroute::protocols::ecma::Ecma;
use adroute::protocols::ls_hbh::LsHbh;
use adroute::protocols::naive_dv::NaiveDv;
use adroute::protocols::path_vector::PathVector;
use adroute::sim::{ChannelFaults, Counter, CrashModel, Engine, FailureModel, FaultSpec};
use adroute::topology::{generate, HierarchyConfig, Topology};
use proptest::prelude::*;

mod common;
use common::chaos_lifecycle;

/// A random small internet (ring/grid/hierarchy by selector).
fn small_topo(kind: u8, size: u8, seed: u64) -> Topology {
    let n = 4 + (size % 4) as usize;
    match kind % 3 {
        0 => generate::ring(n),
        1 => generate::grid(2, n / 2 + 1),
        _ => HierarchyConfig::with_approx_size(2 * n, seed).generate(),
    }
}

/// A fault plan exercising every injector at once: link churn, router
/// crashes, and a lossy/corrupting/duplicating/reordering channel. Rates
/// are moderate — the property under test is the accounting identity at
/// quiescence, so every engine (including the count-to-infinity-prone DV
/// baselines) must still converge under the plan.
fn full_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        link_model: Some(FailureModel {
            mtbf_ms: 80.0,
            mttr_ms: 25.0,
            fallible_fraction: 0.3,
            seed: seed ^ 0x11,
        }),
        crash_model: Some(CrashModel {
            mtbf_ms: 120.0,
            mttr_ms: 30.0,
            fallible_fraction: 0.2,
            seed: seed ^ 0x22,
        }),
        channel: Some(ChannelFaults {
            loss: 0.05,
            corrupt: 0.01,
            duplicate: 0.02,
            reorder: 0.03,
            seed: seed ^ 0x33,
            ..ChannelFaults::default()
        }),
        ..FaultSpec::default()
    }
}

proptest! {
    #![proptest_config(common::cases(12))]

    /// Every design-point engine conserves messages under arbitrary
    /// seeded fault plans, in totals and per phase scope.
    #[test]
    fn engines_conserve_messages_under_faults(
        kind in 0u8..3,
        size in 0u8..5,
        seed in 0u64..10_000,
    ) {
        let topo = small_topo(kind, size, seed);
        let db = PolicyDb::permissive(&topo);

        // The lifecycle checks conservation at each quiescence.
        let spec = full_spec(seed);
        let (dv, ecma) = (NaiveDv::egp(), Ecma::all_transit(&topo));
        let (pv, ls) = (PathVector::idrp(db.clone()), LsHbh::new(&topo, db));
        chaos_lifecycle(Engine::new(topo.clone(), dv), &spec, false, 60)?;
        chaos_lifecycle(Engine::new(topo.clone(), ecma), &spec, false, 60)?;
        chaos_lifecycle(Engine::new(topo.clone(), pv), &spec, false, 60)?;
        chaos_lifecycle(Engine::new(topo.clone(), ls), &spec, false, 60)?;
    }

    /// Phase deltas partition the totals: summing each message counter
    /// across phases reproduces the run totals exactly.
    #[test]
    fn phase_deltas_partition_totals(size in 0u8..5, seed in 0u64..10_000) {
        let topo = small_topo(2, size, seed);
        let db = PolicyDb::permissive(&topo);
        let e = Engine::new(topo.clone(), LsHbh::new(&topo, db));
        let s = chaos_lifecycle(e, &full_spec(seed), false, 60)?.stats;
        let (mut sent, mut delivered, mut lost) = (0, 0, 0);
        for phase in s.phase_names().collect::<Vec<_>>() {
            let d = s.phase_delta(phase).unwrap();
            sent += d.msgs_sent;
            delivered += d.msgs_delivered;
            lost += d.get(Counter::MsgsLost);
        }
        prop_assert_eq!(sent, s.msgs_sent);
        prop_assert_eq!(delivered, s.msgs_delivered);
        prop_assert_eq!(lost, s.get(Counter::MsgsLost));
    }
}

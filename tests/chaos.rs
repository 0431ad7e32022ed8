//! Fault-injection integration tests: every design point must restore
//! policy-legal reachability after a mixed fault plan (link churn, lossy
//! channels, router crashes), the ORWG source must recover torn-down
//! routes, no stale handle may ever forward, and everything must stay
//! deterministic under identical seeds.

use adroute::core::network::OpenError;
use adroute::core::{OrwgNetwork, OrwgProtocol, Strategy};
use adroute::policy::legality::route_is_legal;
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::{FlowSpec, PolicyDb};
use adroute::protocols::forwarding::sample_flows;
use adroute::protocols::ls_hbh::LsHbh;
use adroute::protocols::naive_dv::NaiveDv;
use adroute::protocols::path_vector::PathVector;
use adroute::sim::{ChannelFaults, CrashModel, Engine, FailureModel, FaultSpec, Protocol};
use adroute::topology::generate::ring;
use adroute::topology::{AdId, HierarchyConfig, Topology};
use proptest::prelude::*;

mod common;
use common::{chaos_lifecycle, logged, Invariant};

/// The mixed fault regime used throughout: link churn, a 5% lossy
/// reordering channel, and router crashes, all from `seed`.
fn mixed_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        link_model: Some(FailureModel {
            mtbf_ms: 120.0,
            mttr_ms: 40.0,
            fallible_fraction: 0.4,
            seed: seed ^ 0xA,
        }),
        crash_model: Some(CrashModel {
            mtbf_ms: 200.0,
            mttr_ms: 50.0,
            fallible_fraction: 0.2,
            seed: seed ^ 0xB,
        }),
        channel: Some(ChannelFaults {
            loss: 0.05,
            corrupt: 0.01,
            duplicate: 0.01,
            reorder: 0.02,
            seed: seed ^ 0xC,
            ..ChannelFaults::default()
        }),
        ..FaultSpec::default()
    }
}

/// Converges `proto`, runs it through a healed mixed fault plan, and
/// returns the quiescent engine. Healed plans end with every link and
/// router back up, so ground truth afterwards equals the starting truth.
fn through_mixed_faults<P: Protocol>(topo: &Topology, proto: P, seed: u64) -> Engine<P> {
    let e = Engine::new(topo.clone(), proto);
    let e = chaos_lifecycle(e, &mixed_spec(seed), false, 300).unwrap();
    assert!(
        e.stats.router_crashes > 0,
        "seed {seed} must crash at least one router"
    );
    assert!(e.stats.msgs_lost > 0, "seed {seed} must lose messages");
    e
}

#[test]
fn naive_dv_is_loop_free_after_mixed_faults() {
    let topo = HierarchyConfig::figure1().generate();
    let db = PolicyWorkload::default_mix(5).generate(&topo);
    let flows = sample_flows(&topo, 30, 17);
    let mut e = through_mixed_faults(&topo, NaiveDv::default(), 31);
    let s = Invariant::LoopFree.check(&mut e, &topo, &db, &flows, "DV after faults");
    // The checker sees what it rules out: DV is blind to transit policy.
    assert!(s.violating > 0, "DV honoured every policy: {s:?}");
}

#[test]
fn path_vector_recovers_compliant_routes_after_mixed_faults() {
    let topo = HierarchyConfig::figure1().generate();
    let db = PolicyWorkload::default_mix(5).generate(&topo);
    let flows = sample_flows(&topo, 30, 18);
    let mut e = through_mixed_faults(&topo, PathVector::idrp(db.clone()), 32);
    let s = Invariant::NeverViolates.check(&mut e, &topo, &db, &flows, "IDRP after faults");
    assert!(
        s.delivered > 0,
        "path vector delivered nothing after faults"
    );
    // Selection by preference, not by legality, misses some legal routes.
    assert!(
        s.compliant_of_legal < s.legal_exists,
        "IDRP found every legal route: {s:?}"
    );
}

#[test]
fn ls_hbh_restores_full_availability_after_mixed_faults() {
    let topo = HierarchyConfig::figure1().generate();
    let db = PolicyWorkload::default_mix(5).generate(&topo);
    let flows = sample_flows(&topo, 30, 19);
    let mut e = through_mixed_faults(&topo, LsHbh::new(&topo, db.clone()), 33);
    Invariant::Exact.check(&mut e, &topo, &db, &flows, "LS-HBH after faults");
}

#[test]
fn orwg_restores_full_availability_after_mixed_faults() {
    let topo = HierarchyConfig::figure1().generate();
    let db = PolicyWorkload::default_mix(5).generate(&topo);
    let e = through_mixed_faults(&topo, OrwgProtocol::new(&topo, db.clone()), 34);
    let mut net = OrwgNetwork::from_engine(&e, Strategy::Cached { capacity: 256 }, 4096);
    let flows = sample_flows(&topo, 30, 20);
    Invariant::Exact.check(&mut net, &topo, &db, &flows, "ORWG after faults");
    for f in &flows {
        if let Err(e) = net.open(f) {
            assert_eq!(e, OpenError::NoRoute, "unexpected {e:?} for {f}");
        }
    }
    assert_eq!(net.total_stale_forwards(), 0);
}

#[test]
fn orwg_source_recovers_from_gateway_crash_via_alternate_or_synthesis() {
    // A ring is 2-connected: any single transit-AD crash leaves a detour,
    // so every torn-down flow must be repaired — none may fail.
    let topo = ring(10);
    let db = PolicyDb::permissive(&topo);
    let mut net = OrwgNetwork::converged(&topo, &db);
    net.set_setup_loss(0.05, 99);
    let victim = AdId(2);
    let flows: Vec<FlowSpec> = (0..10u32)
        .filter(|&i| i != victim.0)
        .flat_map(|s| {
            let dst = AdId((s + 4) % 10);
            (dst != victim && dst != AdId(s)).then(|| FlowSpec::best_effort(AdId(s), dst))
        })
        .collect();
    for f in &flows {
        net.open_repairable(f)
            .expect("permissive ring always opens");
    }
    assert_eq!(net.open_flow_count(), flows.len());

    net.crash_gateway(victim);
    let torn = net.pending_repair_count();
    assert!(torn > 0, "some sampled flow must transit AD2");
    let r = net.repair_pending(4);
    assert_eq!(
        r.failures, 0,
        "a 2-connected ring leaves a detour for every flow"
    );
    assert_eq!(
        r.repaired_via_alternate + r.repaired_via_synthesis,
        torn as u64
    );
    assert!(
        r.repaired_via_alternate > 0,
        "cached spares must serve some repairs before synthesis"
    );
    assert_eq!(net.open_flow_count(), flows.len());
    // Every surviving route is live, policy-legal, and avoids the corpse.
    let handles: Vec<_> = net.open_flows().map(|(h, of)| (h, of.clone())).collect();
    for (h, of) in handles {
        assert!(
            !of.route[1..of.route.len() - 1].contains(&victim),
            "route transits the corpse"
        );
        assert!(route_is_legal(&topo, &db, &of.flow, &of.route).is_some());
        net.send(h).expect("repaired route must carry data");
    }
    assert_eq!(
        net.total_stale_forwards(),
        0,
        "no stale handle may ever forward"
    );
}

#[test]
fn identical_seeds_produce_identical_traces() {
    let run = |seed: u64| {
        let topo = HierarchyConfig {
            backbones: 1,
            lateral_prob: 0.3,
            seed: 7,
            ..Default::default()
        }
        .generate();
        let db = PolicyWorkload::default_mix(7).generate(&topo);
        let e = logged(&topo, LsHbh::new(&topo, db), 200_000);
        let e = chaos_lifecycle(e, &mixed_spec(seed), false, 250).unwrap();
        (
            e.obs.log.render(),
            e.stats.msgs_sent,
            e.stats.msgs_lost,
            e.stats.router_crashes,
        )
    };
    let a = run(41);
    let b = run(41);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
    assert_eq!(a.0, b.0, "same fault seed must replay byte-identically");
    let c = run(42);
    assert_ne!(a.0, c.0, "different fault seeds must diverge");
}

proptest! {
    #![proptest_config(common::cases(10))]

    /// Two engine runs with the same topology seed, protocol, and fault
    /// plan seed produce byte-identical trace output (satellite of the
    /// fault-injection work: determinism survives the whole fault layer).
    #[test]
    fn fault_plans_replay_deterministically(topo_seed in 0u64..50, fault_seed in 0u64..1000) {
        let run = || {
            let topo = HierarchyConfig {
                backbones: 1,
                lateral_prob: 0.25,
                seed: topo_seed,
                ..Default::default()
            }
            .generate();
            let db = PolicyDb::permissive(&topo);
            let e = logged(&topo, OrwgProtocol::new(&topo, db), 200_000);
            chaos_lifecycle(e, &mixed_spec(fault_seed), false, 150)
                .map(|e| (e.obs.log.render(), e.stats))
        };
        let (ta, sa) = run()?;
        let (tb, sb) = run()?;
        prop_assert_eq!(sa.msgs_sent, sb.msgs_sent);
        prop_assert_eq!(sa.msgs_lost, sb.msgs_lost);
        prop_assert_eq!(sa.msgs_corrupted, sb.msgs_corrupted);
        prop_assert_eq!(sa.msgs_duplicated, sb.msgs_duplicated);
        prop_assert_eq!(sa.router_crashes, sb.router_crashes);
        prop_assert_eq!(ta, tb);
    }
}

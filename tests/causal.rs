//! Property tests for the causal provenance layer: across random
//! topologies, fault plans, and channel loss, the id/cause graph must
//! stay a forest — acyclic, time-ordered, and partitioned by the storm
//! report — whether the stream comes from the engine's control plane,
//! the ORWG data plane, or both merged.

use adroute::core::{OrwgNetwork, OrwgProtocol};
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::PolicyDb;
use adroute::protocols::forwarding::sample_flows;
use adroute::protocols::naive_dv::NaiveDv;
use adroute::sim::{
    CausalGraph, ChannelFaults, Engine, EventLog, FailureModel, FaultPlan, FaultSpec, Protocol,
};
use adroute::topology::{analysis, generate, HierarchyConfig, Topology};
use proptest::prelude::*;

mod common;

fn small_topo(kind: u8, size: u8) -> Topology {
    let n = 5 + (size % 4) as usize;
    match kind % 3 {
        0 => generate::ring(n),
        1 => generate::grid(2, n / 2 + 1),
        _ => generate::clique(n),
    }
}

/// The three invariants every provenance-linked stream must satisfy.
///
/// 1. Acyclic by construction: every cause id is strictly smaller than
///    its event's id, and resolved parents agree with the `cause` field.
/// 2. Causes precede effects in simulation time.
/// 3. The storm report is a true partition: per-root event counts sum
///    to the number of retained events, even when eviction orphaned
///    some causes.
fn check_invariants(logs: &[&EventLog]) {
    let g = CausalGraph::build(logs);
    assert!(g.is_acyclic_by_id(), "cause id >= event id");
    let events = g.events();
    for (i, ev) in events.iter().enumerate() {
        if let Some(p) = g.parent_of(i) {
            assert_eq!(ev.cause, Some(events[p].id), "parent/cause disagree");
            assert!(
                events[p].at <= ev.at,
                "cause at {:?} after effect at {:?}",
                events[p].at,
                ev.at
            );
            assert_eq!(g.depth_of(i), g.depth_of(p) + 1);
            assert_eq!(g.root_of(i), g.root_of(p));
        } else {
            assert_eq!(g.depth_of(i), 0);
            assert_eq!(g.root_of(i), i);
        }
    }
    let total: u64 = g.storm_report().iter().map(|s| s.events).sum();
    assert_eq!(
        total,
        g.events().len() as u64,
        "storm report is not a partition"
    );
    // The critical path is a genuine causal chain, root first. (Its
    // head may still carry a `cause` id if that record was evicted —
    // an unresolved cause degrades the head to a root.)
    let path = g.critical_path();
    for w in path.windows(2) {
        assert_eq!(w[1].cause, Some(w[0].id), "critical path not linked");
        assert!(w[0].at <= w[1].at);
    }
}

/// Converge, churn, re-converge one engine and return it for analysis.
fn churny_engine<P: Protocol>(
    mut e: Engine<P>,
    seed: u64,
    loss: f64,
    capacity: usize,
) -> Engine<P> {
    e.enable_obs(capacity);
    e.begin_phase("converge");
    e.run_to_quiescence();
    e.begin_phase("churn");
    let spec = FaultSpec {
        link_model: Some(FailureModel {
            mtbf_ms: 60.0,
            mttr_ms: 25.0,
            fallible_fraction: 0.4,
            seed: seed ^ 0x11,
        }),
        crash_model: None,
        channel: (loss > 0.0).then(|| ChannelFaults::lossy(loss, seed ^ 0x33)),
        ..FaultSpec::default()
    };
    let plan = FaultPlan::draw(e.topo(), &spec, e.now(), 150);
    plan.apply(&mut e);
    e.run_to_quiescence();
    e
}

proptest! {
    #![proptest_config(common::cases(24))]

    /// Control-plane streams from a churny engine run keep the causal
    /// invariants, for both a flooding and a distance-vector protocol.
    #[test]
    fn engine_streams_satisfy_causal_invariants(
        kind in 0u8..3,
        size in 0u8..4,
        seed in 0u64..500,
        lossy in 0u8..2,
    ) {
        let topo = small_topo(kind, size);
        let loss = if lossy == 1 { 0.08 } else { 0.0 };
        let db = PolicyDb::permissive(&topo);
        let e = churny_engine(
            Engine::new(topo.clone(), OrwgProtocol::new(&topo, db)),
            seed,
            loss,
            1 << 14,
        );
        check_invariants(&[&e.obs.log]);
        let e = churny_engine(Engine::new(topo, NaiveDv::egp()), seed, loss, 1 << 14);
        check_invariants(&[&e.obs.log]);
    }

    /// A tight ring buffer evicts causes out from under their effects;
    /// orphans must degrade to roots without breaking the partition.
    #[test]
    fn eviction_degrades_orphans_to_roots(
        kind in 0u8..3,
        size in 0u8..4,
        seed in 0u64..500,
        capacity in 16usize..128,
    ) {
        let topo = small_topo(kind, size);
        let db = PolicyDb::permissive(&topo);
        let e = churny_engine(
            Engine::new(topo.clone(), OrwgProtocol::new(&topo, db)),
            seed,
            0.05,
            capacity,
        );
        check_invariants(&[&e.obs.log]);
    }

    /// Merged control-plane + data-plane streams (disjoint id bases)
    /// still satisfy the invariants, including span trees crossing a
    /// trunk failure into view invalidation and source-side repair.
    #[test]
    fn merged_streams_satisfy_causal_invariants(seed in 0u64..100) {
        let topo = HierarchyConfig::with_approx_size(40, seed).generate();
        let db = PolicyWorkload::structural(seed).generate(&topo);
        let mut e = Engine::new(topo.clone(), OrwgProtocol::new(&topo, db.clone()));
        e.enable_obs(1 << 14);
        e.begin_phase("converge");
        e.run_to_quiescence();
        let mut net = OrwgNetwork::converged(&topo, &db);
        net.enable_obs(1 << 13);
        for f in &sample_flows(&topo, 12, seed) {
            let _ = net.open_repairable(f);
        }
        net.fail_link(analysis::trunk(&topo).unwrap());
        net.repair_pending(3);
        check_invariants(&[&e.obs.log, &net.obs.log]);
    }
}

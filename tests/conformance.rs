//! Differential conformance: on random small internets, every design
//! point must agree about policy-legal reachability — with permissive
//! policies all four hop-by-hop engines and the ORWG source-routing
//! architecture deliver exactly the flows the oracle calls reachable, and
//! under structural policies no policy-aware point ever delivers a
//! violating path. When two engines disagree, the typed event streams are
//! compared and the first divergence is printed for debugging.

use adroute::core::OrwgNetwork;
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::{FlowSpec, PolicyDb};
use adroute::protocols::ecma::Ecma;
use adroute::protocols::forwarding::{sample_flows, score_flows, DataPlane, FlowScore};
use adroute::protocols::ls_hbh::LsHbh;
use adroute::protocols::naive_dv::NaiveDv;
use adroute::protocols::path_vector::PathVector;
use adroute::sim::{Engine, EventLog, Protocol};
use adroute::topology::{HierarchyConfig, Topology};
use proptest::prelude::*;

mod common;
use common::Invariant;

/// Converges `protocol` on `topo` with the typed log enabled and scores
/// its data plane against the oracle.
fn converge_and_score<P: Protocol>(
    protocol: P,
    topo: &Topology,
    db: &PolicyDb,
    flows: &[FlowSpec],
) -> (FlowScore, EventLog)
where
    Engine<P>: DataPlane,
{
    let mut e = Engine::new(topo.clone(), protocol);
    e.enable_obs(1 << 16);
    e.run_to_quiescence();
    (score_flows(&mut e, topo, db, flows), e.obs.log.clone())
}

proptest! {
    #![proptest_config(common::cases(12))]

    /// Permissive regime: reachability is purely topological, so every
    /// design point must deliver exactly the oracle-reachable flows.
    #[test]
    fn design_points_agree_on_permissive_reachability(
        ads in 8usize..24,
        seed in 0u64..500,
    ) {
        let topo = HierarchyConfig::with_approx_size(ads, seed).generate();
        let db = PolicyDb::permissive(&topo);
        let flows = sample_flows(&topo, 20, seed);

        let (dv, dv_log) = converge_and_score(NaiveDv::egp(), &topo, &db, &flows);
        let (ec, ec_log) = converge_and_score(Ecma::all_transit(&topo), &topo, &db, &flows);
        let pv = PathVector::idrp(db.clone());
        let (pv, pv_log) = converge_and_score(pv, &topo, &db, &flows);
        let ls = LsHbh::new(&topo, db.clone());
        let (ls, ls_log) = converge_and_score(ls, &topo, &db, &flows);
        let orwg = score_flows(&mut OrwgNetwork::converged(&topo, &db), &topo, &db, &flows);

        let verdicts = [
            ("naive-dv", &dv, Some(&dv_log)),
            ("ecma", &ec, Some(&ec_log)),
            ("path-vector", &pv, Some(&pv_log)),
            ("ls-hbh", &ls, Some(&ls_log)),
            ("orwg", &orwg, None),
        ];
        for (name, s, log) in verdicts {
            // Pin a disagreement: print where this engine's typed stream
            // first departs from the closest-behaving peer's.
            prop_assert!(
                Invariant::Exact.holds(s),
                "{} disagrees with the oracle on reachability: {:?}\n{:?}",
                name,
                s,
                log.map(|l| l.first_divergence(&ls_log))
            );
        }
    }

    /// Structural regime: policy-aware design points never deliver a
    /// policy-violating path, and the ORWG source (with a perfect view)
    /// opens exactly the oracle-legal flows.
    #[test]
    fn policy_aware_points_never_violate(ads in 8usize..24, seed in 0u64..500) {
        let topo = HierarchyConfig::with_approx_size(ads, seed).generate();
        let db = PolicyWorkload::structural(seed).generate(&topo);
        let flows = sample_flows(&topo, 20, seed);

        let mut pv = Engine::new(topo.clone(), PathVector::idrp(db.clone()));
        pv.run_to_quiescence();
        let what = |name| format!("{name}, {ads} ADs, seed {seed}");
        Invariant::NeverViolates.check(&mut pv, &topo, &db, &flows, what("path-vector"));
        let mut ls = Engine::new(topo.clone(), LsHbh::new(&topo, db.clone()));
        ls.run_to_quiescence();
        Invariant::NeverViolates.check(&mut ls, &topo, &db, &flows, what("ls-hbh"));
        let mut net = OrwgNetwork::converged(&topo, &db);
        Invariant::Exact.check(&mut net, &topo, &db, &flows, what("orwg"));
    }
}

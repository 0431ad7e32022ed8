//! Cross-crate integration tests: every architecture of the design space
//! run against the same internet and policy workload, checked against the
//! paper's qualitative claims.

use std::sync::OnceLock;

use adroute::policy::workload::PolicyWorkload;
use adroute::policy::PolicyDb;
use adroute::protocols::ecma::Ecma;
use adroute::protocols::forwarding::{
    forward, sample_flows, score_flows, FlowScore, ForwardOutcome,
};
use adroute::protocols::ls_hbh::LsHbh;
use adroute::protocols::naive_dv::NaiveDv;
use adroute::protocols::path_vector::PathVector;
use adroute::sim::Engine;
use adroute::topology::HierarchyConfig;
use adroute_bench::{t1, World};

mod common;
use common::{assert_valley_free, Invariant};

fn internet(seed: u64) -> adroute::topology::Topology {
    // One backbone subtree (~49 ADs): large enough for lateral/bypass
    // structure, small enough that the path-vector suite stays fast.
    HierarchyConfig {
        backbones: 1,
        lateral_prob: 0.25,
        bypass_prob: 0.1,
        multihome_prob: 0.25,
        seed,
        ..HierarchyConfig::default()
    }
    .generate()
}

/// Table 1(b) on one internet — the rows the `table1_design_space` bench
/// prints at paper scale — measured once and shared by the tests below,
/// each of which asserts one of the paper's capability claims on them.
fn table1() -> &'static [t1::Row] {
    static ROWS: OnceLock<Vec<t1::Row>> = OnceLock::new();
    ROWS.get_or_init(|| t1::rows(&World::mixed(49, 42, 60)))
}

/// The Table 1(b) row of one design point, by its position.
fn point(i: usize, arch: &str) -> &'static FlowScore {
    let row = &table1()[i];
    assert!(row.arch.starts_with(arch), "row {i} is {}", row.arch);
    &row.score
}

#[test]
fn no_architecture_ever_loops() {
    for row in table1() {
        Invariant::LoopFree.assert(&row.score, row.arch);
    }
}

#[test]
fn policy_aware_architectures_never_violate() {
    for (i, arch) in [(2, "IDRP"), (3, "LS"), (4, "ORWG")] {
        Invariant::NeverViolates.assert(point(i, arch), arch);
    }
}

#[test]
fn link_state_finds_every_legal_route_dv_may_not() {
    // The central Section 5.1/5.3 contrast: link-state architectures have
    // availability 1.0; distance-vector-based ones may miss legal routes.
    let (ls, pv) = (point(3, "LS"), point(2, "IDRP"));
    Invariant::Exact.assert(ls, "LS-HBH");
    assert!(
        pv.compliant_of_legal < pv.legal_exists,
        "IDRP found every legal route: {pv:?}"
    );
}

#[test]
fn orwg_setup_routes_are_always_legal_and_optimal() {
    // Every flow with a legal route is set up, nothing else is, and every
    // route costs what the oracle's does (a route can only cost more, so
    // equal sums mean equal costs).
    Invariant::Optimal.assert(point(4, "ORWG"), "ORWG");
}

#[test]
fn ecma_paths_are_valley_free_and_compliant_with_structural_policy() {
    let topo = internet(5);
    // Structural workload = exactly what the ordering can express.
    let db = PolicyWorkload::structural(5).generate(&topo);
    let mut ecma = Engine::new(topo.clone(), Ecma::hierarchical(&topo));
    ecma.run_to_quiescence();
    let flows = sample_flows(&topo, 60, 5);
    Invariant::NeverViolates.check(&mut ecma, &topo, &db, &flows, "ECMA, structural");
    assert_valley_free(&mut ecma, &topo, &flows);
}

#[test]
fn naive_dv_violates_policy_where_policy_aware_protocols_do_not() {
    assert!(
        point(0, "naive DV").violating > 0,
        "expected the policy-blind baseline to violate policies somewhere"
    );
    assert_eq!(point(3, "LS").violating, 0);
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let topo = internet(99);
        let db = PolicyWorkload::default_mix(99).generate(&topo);
        let mut pv = Engine::new(topo.clone(), PathVector::idrp(db.clone()));
        let t = pv.run_to_quiescence();
        let s = score_flows(&mut pv, &topo, &db, &sample_flows(&topo, 40, 99));
        (
            t,
            pv.stats.msgs_sent,
            pv.stats.bytes_sent,
            s.delivered,
            s.compliant_of_legal,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn permissive_network_all_protocols_agree_on_reachability() {
    let topo = internet(17);
    let db = PolicyDb::permissive(&topo);
    let flows = sample_flows(&topo, 40, 17);

    let mut dv = Engine::new(topo.clone(), NaiveDv::default());
    dv.run_to_quiescence();
    let mut ls = Engine::new(topo.clone(), LsHbh::new(&topo, db.clone()));
    ls.run_to_quiescence();
    // Connected and permissive: every flow is legal, so both deliver all.
    for s in [
        Invariant::Exact.check(&mut dv, &topo, &db, &flows, "naive DV"),
        Invariant::Exact.check(&mut ls, &topo, &db, &flows, "LS-HBH"),
    ] {
        assert_eq!(s.delivered, flows.len(), "{s:?}");
    }
}

#[test]
fn class_bearing_flows_keep_link_state_exact() {
    use adroute::policy::{QosClass, UserClass};
    // Link-state completeness must hold for QOS/UCI classes too, not just
    // best effort — the classes are where the policy workload is granular.
    let topo = internet(23);
    let db = PolicyWorkload::default_mix(23).generate(&topo);
    let flows: Vec<_> = sample_flows(&topo, 60, 23)
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            f.with_qos(QosClass((i % 3) as u8))
                .with_uci(UserClass((i % 2) as u8))
        })
        .collect();
    let mut ls = Engine::new(topo.clone(), LsHbh::new(&topo, db.clone()));
    ls.run_to_quiescence();
    Invariant::Exact.check(&mut ls, &topo, &db, &flows, "LS-HBH, class-bearing");
    // The per-class FIB state reflects the distinct classes used.
    let distinct: std::collections::HashSet<_> =
        flows.iter().map(|f| (f.src, f.dst, f.qos, f.uci)).collect();
    let total_fib: usize = topo.ad_ids().map(|a| ls.router(a).fib_entries()).sum();
    assert!(
        total_fib >= distinct.len(),
        "{total_fib} < {}",
        distinct.len()
    );
}

#[test]
fn egp_never_uses_non_tree_links_but_link_state_does() {
    use adroute::protocols::naive_dv::NaiveDv;
    use adroute::topology::LinkKind;
    let topo = internet(29);
    let (_, lateral, bypass) = topo.link_kind_counts();
    assert!(lateral + bypass > 0, "internet must have non-tree links");
    let mut egp = Engine::new(topo.clone(), NaiveDv::egp());
    egp.run_to_quiescence();
    let mut ls = Engine::new(topo.clone(), LsHbh::new(&topo, PolicyDb::permissive(&topo)));
    ls.run_to_quiescence();
    let flows = sample_flows(&topo, 50, 29);
    let mut ls_used_nontree = false;
    for f in &flows {
        let out = forward(&mut egp, &topo, f);
        for w in out.path().windows(2) {
            let l = topo.link_between(w[0], w[1]).expect("adjacent");
            assert_eq!(topo.link(l).kind, LinkKind::Hierarchical, "EGP used {l}");
        }
        if let ForwardOutcome::Delivered { path } = forward(&mut ls, &topo, f) {
            ls_used_nontree |= path.windows(2).any(|w| {
                let l = topo.link_between(w[0], w[1]).unwrap();
                topo.link(l).kind != LinkKind::Hierarchical
            });
        }
    }
    assert!(
        ls_used_nontree,
        "link state should exploit lateral/bypass links"
    );
}

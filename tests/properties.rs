//! Workspace-level property-based tests: invariants that must hold for
//! random topologies, random policies, and random dynamics.

use adroute::policy::legality::{
    legal_route, legal_route_bruteforce, legal_route_with, legal_routes_sweep, route_is_legal,
    SearchStats,
};
use adroute::policy::ordering::{
    check_ordering, random_constraints, solve_ordering, OrderingSolution,
};
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::{
    AdSet, FlowSpec, PolicyAction, PolicyCondition, PolicyDb, QosClass, RouteSelection,
    TransitPolicy, UserClass,
};
use adroute::protocols::ecma::Ecma;
use adroute::protocols::forwarding::sample_flows;
use adroute::protocols::path_vector::PathVector;
use adroute::sim::Engine;
use adroute::topology::graph::make_ad;
use adroute::topology::{generate, AdId, AdLevel, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{assert_valley_free, random_policies, small_topo, Invariant};

proptest! {
    #![proptest_config(common::cases(48))]

    /// The fast oracle agrees with exhaustive search on small graphs.
    #[test]
    fn oracle_matches_bruteforce(kind in 0u8..3, size in 0u8..4, seed in 0u64..1000) {
        let topo = small_topo(kind, size);
        let db = random_policies(&topo, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        let src = AdId(rng.gen_range(0..topo.num_ads() as u32));
        let dst = AdId(rng.gen_range(0..topo.num_ads() as u32));
        let flow = FlowSpec::best_effort(src, dst)
            .with_qos(QosClass(rng.gen_range(0..3)))
            .with_uci(UserClass(rng.gen_range(0..3)));
        let fast = legal_route(&topo, &db, &flow);
        let slow = legal_route_bruteforce(&topo, &db, &flow);
        match (&fast, &slow) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.cost, b.cost);
                prop_assert_eq!(route_is_legal(&topo, &db, &flow, &a.path), Some(a.cost));
            }
            (None, None) => {}
            _ => prop_assert!(false, "oracle {:?} vs brute {:?}", fast, slow),
        }
    }

    /// An avoid-set forbids transit and nothing else: the oracle under a
    /// random avoid-set (endpoints included) costs what exhaustive search
    /// costs when every avoided AD denies all transit instead. (No term
    /// here conditions on the previous or next AD, so the oracle's
    /// least-cost walk is a simple path and it needs no fallback.)
    #[test]
    fn oracle_avoids_transit_like_bruteforce(kind in 0u8..3, size in 0u8..4, seed in 0u64..1000) {
        let topo = small_topo(kind, size);
        let db = random_policies(&topo, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let avoid: Vec<AdId> = topo.ad_ids().filter(|_| rng.gen_bool(0.3)).collect();
        let mut denying = db.clone();
        for &ad in &avoid {
            denying.set_policy(TransitPolicy::deny_all(ad));
        }
        let sel = RouteSelection::avoiding(avoid);
        for f in sample_flows(&topo, 5, seed) {
            let mut stats = SearchStats::default();
            let fast = legal_route_with(&topo, &db, &f, &sel, &mut stats).map(|r| r.cost);
            let slow = legal_route_bruteforce(&topo, &denying, &f).map(|r| r.cost);
            prop_assert_eq!(fast, slow, "{} avoiding {:?}", f, sel.avoid);
        }
    }

    /// Any route the oracle returns is simple, endpoint-correct, and
    /// passes the independent legality checker at the same cost.
    #[test]
    fn oracle_routes_validate(kind in 0u8..3, size in 0u8..4, seed in 0u64..1000) {
        let topo = small_topo(kind, size);
        let db = random_policies(&topo, seed);
        for f in sample_flows(&topo, 5, seed) {
            if let Some(r) = legal_route(&topo, &db, &f) {
                prop_assert!(r.path.len() == 1 || topo.is_simple_path(&r.path));
                prop_assert_eq!(r.path.first(), Some(&f.src));
                prop_assert_eq!(r.path.last(), Some(&f.dst));
                prop_assert_eq!(route_is_legal(&topo, &db, &f, &r.path), Some(r.cost));
            }
        }
    }

    /// The ordering solver is sound, and its least fixpoint is pointwise
    /// minimal among returned solutions for permuted constraint orders.
    #[test]
    fn ordering_solver_order_independent(seed in 0u64..500, count in 0usize..30) {
        let topo = generate::clique(7);
        let mut cs = random_constraints(&topo, count, 0.6, seed);
        let a = solve_ordering(topo.num_ads(), &cs);
        cs.reverse();
        let b = solve_ordering(topo.num_ads(), &cs);
        prop_assert_eq!(a.is_satisfiable(), b.is_satisfiable());
        if let (OrderingSolution::Satisfiable(ra), OrderingSolution::Satisfiable(rb)) = (&a, &b) {
            prop_assert!(check_ordering(ra, &cs));
            prop_assert!(check_ordering(rb, &cs));
            // Least fixpoint is unique regardless of iteration order.
            prop_assert_eq!(ra, rb);
        }
    }

    /// ECMA forwarding is loop-free on random hierarchies with random
    /// link failures (the Section 5.1.1 guarantee).
    #[test]
    fn ecma_loop_free_under_failures(seed in 0u64..200, cut in 0usize..6) {
        let topo = adroute::topology::HierarchyConfig {
            backbones: 2,
            regionals_per_backbone: 2,
            metros_per_regional: 2,
            campuses_per_metro: 2,
            lateral_prob: 0.3,
            bypass_prob: 0.2,
            multihome_prob: 0.3,
            seed,
        }
        .generate();
        let mut e = Engine::new(topo.clone(), Ecma::hierarchical(&topo));
        e.run_to_quiescence();
        if topo.num_links() > 0 {
            let victim = adroute::topology::LinkId((seed as usize % topo.num_links()) as u32);
            if cut % 2 == 0 {
                let t = e.now().plus_us(1000);
                e.schedule_link_change(victim, false, t);
                e.run_to_quiescence();
            }
        }
        let post = e.topo().clone();
        let flows = sample_flows(&post, 10, seed);
        let db = PolicyDb::permissive(&post);
        Invariant::LoopFree.check(&mut e, &post, &db, &flows, format!("ECMA, seed {seed}, cut {cut}"));
        assert_valley_free(&mut e, &post, &flows);
    }

    /// Path-vector RIBs never store a path containing the router itself,
    /// and forwarding never delivers a policy-violating path.
    #[test]
    fn path_vector_invariants(kind in 0u8..3, size in 0u8..3, seed in 0u64..300) {
        let topo = small_topo(kind, size);
        let db = random_policies(&topo, seed);
        let mut e = Engine::new(topo.clone(), PathVector::idrp(db.clone()));
        e.run_to_quiescence();
        for ad in topo.ad_ids() {
            for r in &e.router(ad).loc_rib {
                prop_assert!(!r.path.contains(&ad));
            }
        }
        let flows = sample_flows(&topo, 6, seed);
        let what = format!("IDRP, kind {kind}, size {size}, seed {seed}");
        Invariant::NeverViolates.check(&mut e, &topo, &db, &flows, what);
    }

    /// Workload generation is deterministic and structurally sane for any
    /// seed and granularity.
    #[test]
    fn workloads_deterministic(seed in 0u64..1000, g in 0u8..12) {
        let topo = adroute::topology::HierarchyConfig::figure1().generate();
        let a = PolicyWorkload::granularity(g, seed).generate(&topo);
        let b = PolicyWorkload::granularity(g, seed).generate(&topo);
        prop_assert_eq!(a.total_terms(), b.total_terms());
        prop_assert_eq!(a.total_encoded_size(), b.total_encoded_size());
    }
}

proptest! {
    // Half the draws are cacti, yet the simple-path fallback runs only
    // about three times per hundred draws, so this battery runs more cases.
    #![proptest_config(common::cases(256))]

    /// Terms on the previous and next AD make the oracle's search state
    /// the pair (current AD, previous AD), and failed links take states
    /// out of it. Under random such terms on topologies with failed links,
    /// the oracle costs what exhaustive search costs, both unconstrained
    /// and under a random avoid-set (exhaustive search sees the avoided
    /// ADs deny all transit), and one sweep answers every destination as a
    /// solo search does, routes and effort alike.
    #[test]
    fn oracle_searches_prev_next_states_like_bruteforce(
        kind in 0u8..6,
        size in 0u8..4,
        seed in 0u64..100_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut topo = match kind {
            0..=2 => small_topo(kind, size),
            _ => cactus(3 + 2 * size, &mut rng),
        };
        let links: Vec<_> = topo.links().map(|l| l.id).collect();
        for l in links {
            topo.set_metric(l, rng.gen_range(1..10));
            if rng.gen_bool(0.2) {
                topo.set_link_up(l, false);
            }
        }
        let db = neighbor_policies(&topo, &mut rng);
        let avoid: Vec<AdId> = topo.ad_ids().filter(|_| rng.gen_bool(0.2)).collect();
        let mut denying = db.clone();
        for &ad in &avoid {
            denying.set_policy(TransitPolicy::deny_all(ad));
        }
        let src = AdId(rng.gen_range(0..topo.num_ads() as u32));
        let template = FlowSpec::best_effort(src, src);
        let dsts: Vec<AdId> = topo.ad_ids().collect();
        let avoiding = RouteSelection::avoiding(avoid);
        for (sel, reference) in [(&RouteSelection::unconstrained(), &db), (&avoiding, &denying)] {
            let swept = legal_routes_sweep(&topo, &db, &template, &dsts, sel);
            for (&dst, (route, effort)) in dsts.iter().zip(swept) {
                let f = FlowSpec { dst, ..template };
                let what = format!("{f} avoiding {:?}, seed {seed}", sel.avoid);
                let mut stats = SearchStats::default();
                let solo = legal_route_with(&topo, &db, &f, sel, &mut stats);
                prop_assert_eq!(&route, &solo, "sweep vs solo route, {}", what);
                prop_assert_eq!(effort, stats, "sweep vs solo effort, {}", what);
                let slow = legal_route_bruteforce(&topo, reference, &f).map(|r| r.cost);
                prop_assert_eq!(solo.as_ref().map(|r| r.cost), slow, "oracle vs brute, {}", what);
                if let Some(r) = solo {
                    prop_assert_eq!(route_is_legal(&topo, &db, &f, &r.path), Some(r.cost));
                    prop_assert!(sel.accepts(&r.path), "{:?} for {}", r.path, what);
                }
            }
        }
    }
}

/// A tree of single links and rings of three or four ADs, each block
/// glued to the ones before at one AD: a cut AD with a ring hanging off it
/// is where a least-cost walk can loop back through the AD.
fn cactus(blocks: u8, rng: &mut SmallRng) -> Topology {
    let mut n = 1;
    let mut edges = Vec::new();
    for _ in 0..blocks {
        let at = AdId(rng.gen_range(0..n));
        let mut last = at;
        // One new AD is a single link; two or three close a ring.
        let fresh = rng.gen_range(1..4);
        for _ in 0..fresh {
            edges.push((last, AdId(n), 1));
            last = AdId(n);
            n += 1;
        }
        if fresh > 1 {
            edges.push((last, at, 1));
        }
    }
    let ads = (0..n).map(|i| make_ad(i, AdLevel::Regional)).collect();
    Topology::new(ads, &edges)
}

/// Random Policy Terms on the previous and next AD of a traversal, on the
/// flow alone (its source or QOS), or on both, never on the destination,
/// so a sweep shares one search among its destinations. A term on both the
/// previous and the next AD is what lets a walk that loops back through an
/// AD beat every simple path. Flow-only terms ahead of and behind the
/// neighbour terms give the search all three kinds of AD: one whose verdict
/// the flow fixes, one evaluated per neighbour, and one fixed only because
/// an earlier neighbour term's source condition fails.
fn neighbor_policies(topo: &Topology, rng: &mut SmallRng) -> PolicyDb {
    let mut db = PolicyDb::permissive(topo);
    for ad in topo.ad_ids() {
        for _ in 0..rng.gen_range(0..4) {
            let shape = rng.gen_range(0..7);
            let mut set = || {
                AdSet::only(
                    topo.ad_ids()
                        .filter(|_| rng.gen_bool(0.4))
                        .collect::<Vec<_>>(),
                )
            };
            let conds = match shape {
                0 => vec![PolicyCondition::PrevIn(set())],
                1 => vec![PolicyCondition::NextIn(set())],
                2 => vec![
                    PolicyCondition::SrcIn(set()),
                    PolicyCondition::NextIn(set()),
                ],
                3 => vec![PolicyCondition::SrcIn(set())],
                4 => vec![PolicyCondition::QosIn(vec![QosClass(rng.gen_range(0..2))])],
                _ => vec![
                    PolicyCondition::PrevIn(set()),
                    PolicyCondition::NextIn(set()),
                ],
            };
            let action = if rng.gen_bool(0.6) {
                PolicyAction::Deny
            } else {
                PolicyAction::Permit {
                    cost: rng.gen_range(0..5),
                }
            };
            db.policy_mut(ad).push_term(conds, action);
        }
        if rng.gen_bool(0.1) {
            db.policy_mut(ad).default = PolicyAction::Deny;
        }
    }
    db
}

//! Integration tests for dynamics: link failures, recoveries, partitions,
//! and policy changes, across the whole stack.

use adroute::core::network::{OpenError, SendError};
use adroute::core::{OrwgNetwork, Strategy};
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::{FlowSpec, PolicyDb, TransitPolicy};
use adroute::protocols::forwarding::{sample_flows, score_flows};
use adroute::protocols::ls_hbh::LsHbh;
use adroute::protocols::naive_dv::NaiveDv;
use adroute::protocols::path_vector::PathVector;
use adroute::sim::{Counter, Engine, SimTime};
use adroute::topology::generate::ring;
use adroute::topology::{AdId, HierarchyConfig};

mod common;
use common::Invariant;

#[test]
fn ecma_converges_with_far_fewer_messages_than_naive_dv_after_partition() {
    // The Section 5.1.1 claim: the ordering prevents count-to-infinity.
    // E10(a)'s rows on an 8-ring: AD4 partitioned completely.
    let rows = adroute_bench::e10::rings(&[8]);
    let fail_msgs = |arch: &str| {
        let row = rows.iter().find(|r| r.arch == arch).expect("E10(a) row");
        row.response.fail_msgs
    };
    let naive_msgs = fail_msgs("naive DV (inf=32)");
    let ecma_msgs = fail_msgs("ECMA up/down rule");
    assert!(
        ecma_msgs * 2 < naive_msgs,
        "expected ECMA ({ecma_msgs}) well below naive DV ({naive_msgs}) on partition"
    );
}

#[test]
fn all_protocols_recover_reachability_after_single_failure() {
    let topo = HierarchyConfig::default().generate();
    let db = PolicyDb::permissive(&topo);
    // Pick a backbone-regional link to fail: redundancy exists.
    let victim = topo
        .links()
        .find(|l| {
            topo.ad(l.a).level == adroute::topology::AdLevel::Backbone && topo.full_degree(l.b) >= 2
        })
        .expect("hierarchy has backbone links")
        .id;
    let flows = sample_flows(&topo, 30, 21);

    // Naive DV.
    let mut dv = Engine::new(topo.clone(), NaiveDv::default());
    dv.run_to_quiescence();
    let t = dv.now().plus_us(1000);
    dv.schedule_link_change(victim, false, t);
    dv.run_to_quiescence();
    let post_topo = dv.topo().clone();
    Invariant::LoopFree.check(&mut dv, &post_topo, &db, &flows, "naive DV after failure");

    // Path vector.
    let mut pv = Engine::new(topo.clone(), PathVector::idrp(db.clone()));
    pv.run_to_quiescence();
    let t = pv.now().plus_us(1000);
    pv.schedule_link_change(victim, false, t);
    pv.run_to_quiescence();
    Invariant::LoopFree.check(&mut pv, &post_topo, &db, &flows, "IDRP after failure");

    // Link state.
    let mut ls = Engine::new(topo.clone(), LsHbh::new(&topo, db.clone()));
    ls.run_to_quiescence();
    let t = ls.now().plus_us(1000);
    ls.schedule_link_change(victim, false, t);
    ls.run_to_quiescence();
    // Permissive and still connected: every flow is legal.
    let s = Invariant::Exact.check(&mut ls, &post_topo, &db, &flows, "LS after failure");
    assert_eq!(s.delivered, flows.len(), "LS must re-deliver every flow");
}

#[test]
fn flap_link_and_reconverge_to_original_state() {
    // Fail and recover: final tables must equal never-failed tables.
    let mk = || {
        let mut e = Engine::new(ring(6), NaiveDv::default());
        e.run_to_quiescence();
        e
    };
    let reference = mk();
    let mut flapped = mk();
    let l = flapped.topo().link_between(AdId(2), AdId(3)).unwrap();
    flapped.schedule_link_change(l, false, SimTime::from_ms(50));
    flapped.schedule_link_change(l, true, SimTime::from_ms(100));
    flapped.run_to_quiescence();
    for ad in reference.topo().ad_ids() {
        assert_eq!(
            reference.router(ad).metric,
            flapped.router(ad).metric,
            "{ad} tables diverge after flap"
        );
    }
}

#[test]
fn orwg_policy_change_redirects_traffic_mid_stream() {
    let topo = ring(6);
    let db = PolicyDb::permissive(&topo);
    let mut net = OrwgNetwork::converged_with(&topo, &db, Strategy::Hybrid { capacity: 64 }, 256);
    let flow = FlowSpec::best_effort(AdId(0), AdId(3));
    net.server_mut(AdId(0)).precompute(&[flow]);
    let s1 = net.open(&flow).unwrap();
    assert_eq!(s1.route, vec![AdId(0), AdId(1), AdId(2), AdId(3)]);
    for _ in 0..5 {
        net.send(s1.handle).unwrap();
    }
    // AD2 stops carrying transit.
    net.change_policy(TransitPolicy::deny_all(AdId(2)));
    assert!(matches!(net.send(s1.handle), Err(SendError::UnknownFlow)));
    let s2 = net.open(&flow).unwrap();
    assert_eq!(s2.route, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
    // Precomputation was refreshed: the new route came from the
    // precomputed table, not a fresh search.
    assert!(net.server(AdId(0)).ledger.get(Counter::PrecomputedHits) >= 1);
    for _ in 0..5 {
        net.send(s2.handle).unwrap();
    }
}

#[test]
fn partitioned_destination_is_unreachable_for_everyone_without_loops() {
    let topo = ring(6);
    let db = PolicyDb::permissive(&topo);

    let mut ls = Engine::new(topo.clone(), LsHbh::new(&topo, db.clone()));
    ls.run_to_quiescence();
    let l1 = ls.topo().link_between(AdId(2), AdId(3)).unwrap();
    let l2 = ls.topo().link_between(AdId(3), AdId(4)).unwrap();
    let t = ls.now().plus_us(1000);
    ls.schedule_link_change(l1, false, t);
    ls.schedule_link_change(l2, false, t);
    ls.run_to_quiescence();
    let post = ls.topo().clone();
    let f = [FlowSpec::best_effort(AdId(0), AdId(3))];
    let s = Invariant::Exact.check(&mut ls, &post, &db, &f, "LS across a partition");
    assert_eq!(s.legal_exists, 0, "AD3 is cut off");

    let mut net = OrwgNetwork::converged(&topo, &db);
    net.fail_link(l1);
    net.fail_link(l2);
    Invariant::Exact.check(&mut net, &post, &db, &f, "ORWG across a partition");
    // Forwarding ends at a down link whatever `open` did, so ask it too.
    assert!(
        matches!(net.open(&f[0]), Err(OpenError::NoRoute)),
        "ORWG opened across the partition"
    );

    // Naive DV counts to infinity across the cut (Section 5.1.1): mid-count
    // every packet toward AD3 loops; once it has counted, each is dropped.
    let mut dv = Engine::new(topo.clone(), NaiveDv::default());
    dv.run_to_quiescence();
    let t = dv.now().plus_us(1000);
    dv.schedule_link_change(l1, false, t);
    dv.schedule_link_change(l2, false, t);
    dv.run_until(t.plus_us(5_000));
    let to3 = [0, 1, 2, 4, 5].map(|s| FlowSpec::best_effort(AdId(s), AdId(3)));
    let s = score_flows(&mut dv, &post, &db, &to3);
    assert_eq!(s.loops, to3.len(), "naive DV mid-count: {s:?}");
    dv.run_to_quiescence();
    Invariant::Exact.check(&mut dv, &post, &db, &to3, "naive DV once counted");
}

#[test]
fn mixed_policy_network_survives_random_failure_schedule() {
    let topo = HierarchyConfig::default().generate();
    let db = PolicyWorkload::default_mix(31).generate(&topo);
    let mut e = Engine::new(topo.clone(), LsHbh::new(&topo, db.clone()));
    e.run_to_quiescence();
    // Fail three scattered links, then recover one, at staggered times.
    let ids: Vec<_> = topo.links().map(|l| l.id).collect();
    let picks = [
        ids[ids.len() / 4],
        ids[ids.len() / 2],
        ids[3 * ids.len() / 4],
    ];
    let mut t = e.now();
    for (i, l) in picks.iter().enumerate() {
        t = t.plus_us(5_000 * (i as u64 + 1));
        e.schedule_link_change(*l, false, t);
    }
    e.schedule_link_change(picks[0], true, t.plus_us(20_000));
    e.run_to_quiescence();
    let post = e.topo().clone();
    let flows = sample_flows(&post, 40, 31);
    Invariant::NeverViolates.check(&mut e, &post, &db, &flows, "LS after failures");
}

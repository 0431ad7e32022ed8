//! Steady-state churn tests: protocols under continuous seeded link
//! failure/repair schedules (the paper's Section 2.2 operating regime).

use adroute::policy::workload::PolicyWorkload;
use adroute::policy::PolicyDb;
use adroute::protocols::ecma::Ecma;
use adroute::protocols::forwarding::{sample_flows, score_flows};
use adroute::protocols::ls_hbh::LsHbh;
use adroute::protocols::naive_dv::NaiveDv;
use adroute::sim::{Engine, FailureModel, FailureSchedule};
use adroute::topology::HierarchyConfig;

mod common;
use common::{assert_valley_free, Invariant};

fn internet(seed: u64) -> adroute::topology::Topology {
    HierarchyConfig {
        backbones: 1,
        lateral_prob: 0.3,
        bypass_prob: 0.15,
        multihome_prob: 0.3,
        seed,
        ..HierarchyConfig::default()
    }
    .generate()
}

fn model(seed: u64) -> FailureModel {
    FailureModel {
        mtbf_ms: 200.0,
        mttr_ms: 50.0,
        fallible_fraction: 0.3,
        seed,
    }
}

#[test]
fn link_state_stays_consistent_through_churn() {
    let topo = internet(81);
    let db = PolicyWorkload::default_mix(81).generate(&topo);
    let mut e = Engine::new(topo.clone(), LsHbh::new(&topo, db.clone()));
    e.run_to_quiescence();
    let schedule = FailureSchedule::draw(e.topo(), &model(81), e.now().plus_us(1000), 1_500);
    assert!(!schedule.is_empty());
    schedule.apply(&mut e);
    e.run_to_quiescence();
    // After the dust settles every router's database agrees with ground
    // truth: its view contains exactly the operational links.
    let truth = e.topo().clone();
    for ad in truth.ad_ids() {
        if truth.neighbors(ad).next().is_none() {
            // The schedule's repair for this AD's last link fell beyond the
            // horizon: it ends the run isolated, so its view is legitimately
            // frozen at the moment it was cut off (seed 81 strands AD19/AD22).
            continue;
        }
        let (view, _) = e.router(ad).flooder.db.view();
        assert_eq!(
            view.links().filter(|l| l.up).count(),
            truth.links().filter(|l| l.up).count(),
            "{ad} view diverges from ground truth"
        );
    }
    // And forwarding is loop-free and policy-compliant.
    let flows = sample_flows(&truth, 30, 81);
    Invariant::NeverViolates.check(&mut e, &truth, &db, &flows, "LS-HBH after churn");
}

#[test]
fn dv_protocols_survive_churn_without_loops() {
    let topo = internet(83);
    for split in [false, true] {
        let mut e = Engine::new(
            topo.clone(),
            NaiveDv {
                infinity: 32,
                split_horizon: split,
                ..NaiveDv::default()
            },
        );
        e.run_to_quiescence();
        let start = e.now();
        let schedule = FailureSchedule::draw(e.topo(), &model(83), start.plus_us(1000), 1_000);
        schedule.apply(&mut e);
        // Mid-churn DV may loop, and does: probes every 35 ms catch it.
        let (flows, db) = (sample_flows(&topo, 25, 83), PolicyDb::permissive(&topo));
        let mut looped = 0;
        for ms in (1..1_000).step_by(35) {
            e.run_until(start.plus_us(ms * 1000));
            let truth = e.topo().clone();
            looped += score_flows(&mut e, &truth, &db, &flows).loops;
        }
        assert!(looped > 0, "split={split}: churn never made DV loop");
        e.run_to_quiescence();
        let truth = e.topo().clone();
        Invariant::LoopFree.check(&mut e, &truth, &db, &flows, format!("split={split}"));
    }
}

#[test]
fn ecma_churn_preserves_valley_freedom() {
    let topo = internet(89);
    let mut e = Engine::new(topo.clone(), Ecma::hierarchical(&topo));
    e.run_to_quiescence();
    let schedule = FailureSchedule::draw(e.topo(), &model(89), e.now().plus_us(1000), 1_000);
    schedule.apply(&mut e);
    e.run_to_quiescence();
    let truth = e.topo().clone();
    let flows = sample_flows(&truth, 30, 89);
    let db = PolicyDb::permissive(&truth);
    Invariant::LoopFree.check(&mut e, &truth, &db, &flows, "ECMA after churn");
    assert_valley_free(&mut e, &truth, &flows);
}

#[test]
fn churn_runs_are_deterministic() {
    let run = || {
        let topo = internet(97);
        let mut e = Engine::new(topo.clone(), LsHbh::new(&topo, PolicyDb::permissive(&topo)));
        e.run_to_quiescence();
        let schedule = FailureSchedule::draw(e.topo(), &model(97), e.now().plus_us(1000), 1_200);
        schedule.apply(&mut e);
        let t = e.run_to_quiescence();
        (t, e.stats.msgs_sent, e.stats.bytes_sent, e.stats.events)
    };
    assert_eq!(run(), run());
}

#[test]
fn final_state_matches_fresh_start_on_final_topology() {
    // Path independence for link-state: converging through churn ends in
    // the same databases as starting fresh on the final topology.
    let topo = internet(91);
    let db = PolicyDb::permissive(&topo);
    let mut churned = Engine::new(topo.clone(), LsHbh::new(&topo, db.clone()));
    churned.run_to_quiescence();
    let schedule =
        FailureSchedule::draw(churned.topo(), &model(91), churned.now().plus_us(1000), 800);
    schedule.apply(&mut churned);
    churned.run_to_quiescence();

    let mut final_topo = topo.clone();
    for l in churned.topo().links() {
        final_topo.set_link_up(l.id, l.up);
    }
    let mut fresh = Engine::new(final_topo.clone(), LsHbh::new(&final_topo, db));
    fresh.run_to_quiescence();

    for ad in final_topo.ad_ids() {
        if final_topo.degree(ad) == 0 {
            continue; // isolated ADs may hold stale views
        }
        let (a, _) = churned.router(ad).flooder.db.view();
        let (b, _) = fresh.router(ad).flooder.db.view();
        let ua: Vec<_> = a.links().filter(|l| l.up).map(|l| (l.a, l.b)).collect();
        let ub: Vec<_> = b.links().filter(|l| l.up).map(|l| (l.a, l.b)).collect();
        assert_eq!(ua, ub, "{ad}: churned view != fresh view");
    }
}

//! Runtime safety-monitor battery: the four detectors must stay silent on
//! honest runs (zero false positives, each design point paired with the
//! policy regime it actually honors) and must catch injected byzantine
//! misbehavior within a bounded number of monitoring ticks.

use adroute::policy::workload::PolicyWorkload;
use adroute::policy::{FlowSpec, PolicyDb, TransitPolicy};
use adroute::protocols::ecma::Ecma;
use adroute::protocols::forwarding::{observe_flows, sample_flows, DataPlane};
use adroute::protocols::ls_hbh::LsHbh;
use adroute::protocols::naive_dv::{observe_dv_metrics, NaiveDv};
use adroute::protocols::path_vector::PathVector;
use adroute::sim::{
    Alarm, Engine, FaultPlan, MisbehaviorModel, MisbehaviorSpec, MonitorBank, MonitorConfig, Obs,
    Observation, QuarantineController, SimTime,
};
use adroute::topology::generate::{line, ring};
use adroute::topology::graph::make_ad;
use adroute::topology::{AdId, AdLevel, HierarchyConfig, Topology};
use proptest::prelude::*;

mod common;
use common::Invariant;

/// Feeds `ticks` monitoring rounds of forwarding probes into a fresh
/// bank and returns it (plus every alarm, in firing order).
fn watch<D: DataPlane>(
    dp: &mut D,
    topo: &Topology,
    db: &PolicyDb,
    flows: &[FlowSpec],
    ticks: usize,
    also: impl Fn(&mut D, &mut MonitorBank),
) -> (MonitorBank, Vec<Alarm>) {
    let mut bank = MonitorBank::new(MonitorConfig::default());
    let mut obs = Obs::disabled();
    let mut fired = Vec::new();
    for _ in 0..ticks {
        observe_flows(dp, topo, db, flows, &mut bank);
        also(dp, &mut bank);
        fired.extend(bank.end_tick(&mut obs, SimTime::ZERO));
    }
    (bank, fired)
}

proptest! {
    #![proptest_config(common::cases(10))]

    /// Honest runs never alarm: across random internets and flow samples,
    /// every design point — driven for several monitoring ticks with its
    /// matching policy regime — leaves all four detectors silent. DV is
    /// policy-blind, so it pairs with the permissive regime; ECMA and
    /// path vector honor the structural (valley/no-stub-transit)
    /// discipline completely; LS-HBH is complete under arbitrary
    /// explicit policy, so it gets the full default mix.
    #[test]
    fn honest_runs_never_alarm(topo_seed in 0u64..200, flow_seed in 0u64..1000) {
        let topo = HierarchyConfig {
            backbones: 1,
            lateral_prob: 0.25,
            seed: topo_seed,
            ..Default::default()
        }
        .generate();
        let flows = sample_flows(&topo, 25, flow_seed);

        let permissive = PolicyDb::permissive(&topo);
        let mut e = Engine::new(topo.clone(), NaiveDv::default());
        e.run_to_quiescence();
        let (bank, _) = watch(&mut e, &topo, &permissive, &flows, 5, |e, bank| {
            observe_dv_metrics(e, bank);
        });
        prop_assert!(bank.silent(), "dv false positives: {:?}", bank.alarms());

        let structural = PolicyWorkload::structural(topo_seed).generate(&topo);
        let mut e = Engine::new(topo.clone(), Ecma::hierarchical(&topo));
        e.run_to_quiescence();
        let (bank, _) = watch(&mut e, &topo, &structural, &flows, 5, |_, _| {});
        prop_assert!(bank.silent(), "ecma false positives: {:?}", bank.alarms());

        let mut e = Engine::new(topo.clone(), PathVector::idrp(structural.clone()));
        e.run_to_quiescence();
        let (bank, _) = watch(&mut e, &topo, &structural, &flows, 5, |_, _| {});
        prop_assert!(bank.silent(), "pv false positives: {:?}", bank.alarms());

        let mixed = PolicyWorkload::default_mix(topo_seed).generate(&topo);
        let mut e = Engine::new(topo.clone(), LsHbh::new(&topo, mixed.clone()));
        e.run_to_quiescence();
        let (bank, _) = watch(&mut e, &topo, &mixed, &flows, 5, |_, _| {});
        prop_assert!(bank.silent(), "ls-hbh false positives: {:?}", bank.alarms());
    }
}

#[test]
fn dv_blackholer_is_detected_within_the_streak_bound() {
    // line(5): AD2 advertises honestly but drops through-traffic. The
    // blackhole detector needs `blackhole_ticks` (3) consecutive
    // suspicious drops, so the alarm lands exactly on tick 3 and names
    // the blackholer.
    let topo = line(5);
    let db = PolicyDb::permissive(&topo);
    let dv = NaiveDv {
        misbehavior: MisbehaviorSpec::single(AdId(2), MisbehaviorModel::Blackhole),
        ..NaiveDv::default()
    };
    let mut e = Engine::new(topo.clone(), dv);
    e.run_to_quiescence();
    let flows = [
        FlowSpec::best_effort(AdId(0), AdId(4)),
        FlowSpec::best_effort(AdId(4), AdId(0)),
    ];
    let (_, fired) = watch(&mut e, &topo, &db, &flows, 6, |_, _| {});
    let a = fired.first().expect("blackholer undetected after 6 ticks");
    assert_eq!(a.detector, "blackhole");
    assert_eq!(a.suspect, AdId(2), "detection must attribute the dropper");
    assert_eq!(a.tick, 3, "detection latency equals the streak bound");
}

#[test]
fn dv_distance_falsifier_is_detected_as_a_blackhole_at_the_liar() {
    // ring(6): AD1 claims distance 1 to everything, attracting transit it
    // then cannot serve. The lured traffic dies *at* the liar, so the
    // blackhole detector attributes correctly within its streak bound.
    let topo = ring(6);
    let db = PolicyDb::permissive(&topo);
    let dv = NaiveDv {
        misbehavior: MisbehaviorSpec::single(AdId(1), MisbehaviorModel::DistanceFalsification),
        ..NaiveDv::default()
    };
    let mut e = Engine::new(topo.clone(), dv);
    e.run_to_quiescence();
    let flows = [FlowSpec::best_effort(AdId(0), AdId(3))];
    let (_, fired) = watch(&mut e, &topo, &db, &flows, 6, |_, _| {});
    let a = fired.first().expect("falsifier undetected after 6 ticks");
    assert_eq!(a.detector, "blackhole");
    assert_eq!(a.suspect, AdId(1));
    assert!(a.tick <= 3, "latency {} exceeds the streak bound", a.tick);
}

#[test]
fn pv_route_leak_trips_the_policy_tripwire_immediately() {
    // line(4) with AD1 denying all transit but leaking routes anyway: the
    // forbidden 0->3 route opens, and the very first delivered probe
    // carries AD1 as tripwire evidence — detection latency 1.
    let topo = line(4);
    let mut db = PolicyDb::permissive(&topo);
    db.set_policy(TransitPolicy::deny_all(AdId(1)));
    let mut pv = PathVector::idrp(db.clone());
    pv.misbehavior = MisbehaviorSpec::single(AdId(1), MisbehaviorModel::RouteLeak);
    let mut e = Engine::new(topo.clone(), pv);
    e.run_to_quiescence();
    let flows = [FlowSpec::best_effort(AdId(0), AdId(3))];
    let (_, fired) = watch(&mut e, &topo, &db, &flows, 3, |_, _| {});
    let a = fired.first().expect("route leak undetected");
    assert_eq!(a.detector, "policy-violation");
    assert_eq!(a.suspect, AdId(1), "evidence names the leaker");
    assert_eq!(a.tick, 1, "the tripwire fires on the first probe");
}

/// A two-regional hierarchy where the only honest route from campus 3 to
/// campus 4 climbs over the top (3-1-0-6-2-4), while multi-homed campus 5
/// sits under both regionals — the perfect spot for an up/down violation
/// to lure marked traffic through a valley.
fn valley_net() -> Topology {
    let ads = vec![
        make_ad(0, AdLevel::Backbone),
        make_ad(1, AdLevel::Regional),
        make_ad(2, AdLevel::Regional),
        make_ad(3, AdLevel::Campus),
        make_ad(4, AdLevel::Campus),
        make_ad(5, AdLevel::Campus),
        make_ad(6, AdLevel::Regional),
    ];
    let mut t = Topology::new(
        ads,
        &[
            (AdId(0), AdId(1), 1),
            (AdId(0), AdId(6), 1),
            (AdId(6), AdId(2), 1),
            (AdId(1), AdId(3), 1),
            (AdId(2), AdId(4), 1),
            (AdId(1), AdId(5), 1),
            (AdId(2), AdId(5), 1),
        ],
    );
    t.reclassify_roles();
    t
}

#[test]
fn ecma_up_down_violator_trips_the_policy_tripwire() {
    let topo = valley_net();
    let mut db = PolicyDb::permissive(&topo);
    db.set_policy(TransitPolicy::deny_all(AdId(5)));
    // Honest control: the flow climbs over the backbone, never touching
    // campus 5, and the monitors stay silent.
    let flows = [FlowSpec::best_effort(AdId(3), AdId(4))];
    let mut e = Engine::new(topo.clone(), Ecma::all_transit(&topo));
    e.run_to_quiescence();
    let (bank, _) = watch(&mut e, &topo, &db, &flows, 4, |_, _| {});
    assert!(bank.silent(), "honest ecma alarmed: {:?}", bank.alarms());

    // Violator: campus 5 advertises its valley-free metric as all-down,
    // luring regional 1's traffic down into the 1-5-2 valley it then
    // serves by forwarding marked packets upward — a transit that its own
    // policy (and the up/down discipline) forbids.
    let mut ecma = Ecma::all_transit(&topo);
    ecma.misbehavior = MisbehaviorSpec::single(AdId(5), MisbehaviorModel::UpDownViolation);
    let mut e = Engine::new(topo.clone(), ecma);
    e.run_to_quiescence();
    let (_, fired) = watch(&mut e, &topo, &db, &flows, 3, |_, _| {});
    let a = fired.first().expect("up/down violation undetected");
    assert_eq!(a.detector, "policy-violation");
    assert_eq!(a.suspect, AdId(5), "evidence names the violator");
    assert_eq!(a.tick, 1);
}

#[test]
fn ls_hbh_replayer_is_detected_and_healed_by_the_ghost_rule() {
    // ring(5): AD2 re-floods stale LSAs with bumped sequence numbers after
    // a real link event. The origin's self-originated-LSA ghost rule is
    // the in-protocol detector (`ls_seq_jump`) and the cure: within one
    // reflood round every database converges back to the genuine LSA and
    // forwarding still works.
    let topo = ring(5);
    let db = PolicyDb::permissive(&topo);
    let mut proto = LsHbh::new(&topo, db.clone());
    proto.misbehavior = MisbehaviorSpec::single(AdId(2), MisbehaviorModel::LsaReplay);
    let mut e = Engine::new(topo.clone(), proto);
    e.run_to_quiescence();
    let fail = topo
        .link_between(AdId(0), AdId(1))
        .expect("ring link exists");
    e.schedule_link_change(fail, false, e.now().plus_us(1));
    e.run_to_quiescence();
    assert!(
        e.stats.counter("lsa_replay_forged") > 0,
        "the replayer never forged"
    );
    assert!(
        e.stats.counter("ls_seq_jump") > 0,
        "the ghost rule never fired — replay undetected"
    );
    let truth = e.topo().clone();
    // Self-healing: forwarding across the surviving arc still works.
    let f = [FlowSpec::best_effort(AdId(0), AdId(2))];
    let s = Invariant::Exact.check(&mut e, &truth, &db, &f, "after the replay");
    assert_eq!(s.delivered, 1, "replay poisoned forwarding");
}

#[test]
fn monitor_feed_is_deterministic_and_dedups_repeat_offenders() {
    // Two identical watches over the same engine state produce identical
    // alarm streams, and a misbehaver is reported once per detector no
    // matter how long it keeps misbehaving.
    let run = || {
        let topo = line(5);
        let db = PolicyDb::permissive(&topo);
        let dv = NaiveDv {
            misbehavior: MisbehaviorSpec::single(AdId(2), MisbehaviorModel::Blackhole),
            ..NaiveDv::default()
        };
        let mut e = Engine::new(topo.clone(), dv);
        e.run_to_quiescence();
        let flows = [FlowSpec::best_effort(AdId(0), AdId(4))];
        let (_, fired) = watch(&mut e, &topo, &db, &flows, 10, |_, _| {});
        fired
            .iter()
            .map(|a| (a.detector, a.suspect, a.tick, a.evidence))
            .collect::<Vec<_>>()
    };
    let a = run();
    assert_eq!(a.len(), 1, "dedup failed: {a:?}");
    assert_eq!(a, run());
}

#[test]
fn cti_watchdog_fires_on_a_monotone_climb() {
    // The count-to-infinity watchdog is fed from DV metric samples; a
    // synthetic monotone climb below infinity must fire it after
    // `cti_ticks` (4) consecutive climbs, blaming the churning
    // destination (DV updates carry no provenance to do better).
    let mut bank = MonitorBank::new(MonitorConfig::default());
    let mut obs = Obs::disabled();
    let mut fired = Vec::new();
    for m in [3u32, 5, 7, 9, 11] {
        bank.observe(Observation::MetricSample {
            at: AdId(0),
            dst: AdId(7),
            metric: m,
            infinity: 1 << 20,
            reachable: true,
        });
        fired.extend(bank.end_tick(&mut obs, SimTime::ZERO));
    }
    let a = fired.first().expect("climb undetected");
    assert_eq!(a.detector, "count-to-infinity");
    assert_eq!(a.suspect, AdId(7));
}

/// Two 5-cycles bridged by two straddling links. Cutting both bridges at
/// split 5 partitions the domain while each island keeps a cycle of its
/// own, so DV metrics toward the far island genuinely count toward
/// infinity (poisoned reverse cannot break three-party loops) and
/// forwarding toward the far island transiently walks in circles —
/// exactly the unreachability symptoms the partition-aware monitors must
/// refuse to blame on any router.
fn two_island_net() -> Topology {
    let ads = (0..10).map(|i| make_ad(i, AdLevel::Campus)).collect();
    let mut links = Vec::new();
    for i in 0..5u32 {
        links.push((AdId(i), AdId((i + 1) % 5), 1));
        links.push((AdId(5 + i), AdId(5 + (i + 1) % 5), 1));
    }
    links.push((AdId(4), AdId(5), 1));
    links.push((AdId(0), AdId(9), 1));
    Topology::new(ads, &links)
}

#[test]
fn pure_partition_raises_no_alarms_and_no_quarantines() {
    let topo = two_island_net();
    let db = PolicyDb::permissive(&topo);
    let mut e = Engine::new(topo.clone(), NaiveDv::default());
    e.run_to_quiescence();
    // Every cross-island pair plus intra-island controls on both sides.
    let flows: Vec<FlowSpec> = (0..5)
        .map(|i| FlowSpec::best_effort(AdId(i), AdId(9 - i)))
        .chain([
            FlowSpec::best_effort(AdId(0), AdId(3)),
            FlowSpec::best_effort(AdId(6), AdId(8)),
        ])
        .collect();
    let cut_at = e.now().plus_us(1_000);
    let heal_at = cut_at.plus_us(400_000);
    let plan = FaultPlan::partition(&topo, 5, cut_at, heal_at).expect("bridge cut partitions");
    plan.apply(&mut e);

    // Aggressive thresholds: two consecutive suspicious ticks alarm, one
    // alarm quarantines. The checkpoints span the whole count-to-infinity
    // climb inside the partition window, so without the reachability
    // gates this configuration would quarantine an innocent router.
    let mut bank = MonitorBank::new(MonitorConfig {
        loop_ticks: 2,
        blackhole_ticks: 2,
        cti_ticks: 2,
    });
    let mut obs = Obs::disabled();
    let mut quarantine = QuarantineController::default();
    for k in 1..=10u64 {
        // Advance *within* the partition window (quiescence would run
        // through the queued heal), then take one monitoring tick.
        e.run_until(cut_at.plus_us(k * 30_000));
        let truth = e.topo().clone();
        observe_flows(&mut e, &truth, &db, &flows, &mut bank);
        observe_dv_metrics(&e, &mut bank);
        for a in bank.end_tick(&mut obs, e.now()) {
            quarantine.note_alarm(&a, &mut obs, e.now());
        }
    }
    assert!(bank.silent(), "pure partition alarmed: {:?}", bank.alarms());
    assert_eq!(
        quarantine.quarantined().count(),
        0,
        "false-positive quarantine during a pure partition"
    );

    // Run through the heal and the resync sweep: the domain reconverges,
    // cross-island traffic flows again, and the monitors stay silent.
    e.run_to_quiescence();
    assert!(e.now() >= heal_at, "quiescence must run through the heal");
    let truth = e.topo().clone();
    let s = Invariant::Exact.check(&mut e, &truth, &db, &flows, "healed");
    assert_eq!(s.delivered, flows.len(), "a healed flow is undelivered");
    for _ in 0..4 {
        observe_flows(&mut e, &truth, &db, &flows, &mut bank);
        observe_dv_metrics(&e, &mut bank);
        for a in bank.end_tick(&mut obs, e.now()) {
            quarantine.note_alarm(&a, &mut obs, e.now());
        }
    }
    assert!(bank.silent(), "post-heal alarmed: {:?}", bank.alarms());
    assert_eq!(quarantine.quarantined().count(), 0);
}

#[test]
fn heal_reconciliation_matches_the_flush_oracle() {
    use adroute::core::{OrwgNetwork, OrwgProtocol, Strategy, ViewMaintenance};
    use adroute::policy::legality::route_is_legal;

    let topo = HierarchyConfig {
        backbones: 1,
        lateral_prob: 0.3,
        seed: 17,
        ..Default::default()
    }
    .generate();
    let db = PolicyWorkload::structural(17).generate(&topo);
    let flows = sample_flows(&topo, 20, 23);
    let split = (topo.num_ads() / 2) as u32;

    let run = |mode: ViewMaintenance| {
        let mut e = Engine::new(topo.clone(), OrwgProtocol::new(&topo, db.clone()));
        e.run_to_quiescence();
        let mut net = OrwgNetwork::from_engine(
            &e,
            Strategy::Cached { capacity: 256 },
            OrwgNetwork::DEFAULT_HANDLE_CAPACITY,
        );
        net.set_view_maintenance(mode);
        // Warm every cache pre-partition so reconciliation has stale
        // state it must actually fix.
        for f in &flows {
            let _ = net.synthesize(f);
        }
        let cut_at = e.now().plus_us(1_000);
        let heal_at = cut_at.plus_us(250_000);
        let plan = FaultPlan::partition(&topo, split, cut_at, heal_at)
            .expect("hierarchy splits at the index midpoint");
        plan.apply(&mut e);
        // Quiescence runs through the cut, intra-island reconvergence,
        // the heal, and the post-horizon resync sweep.
        e.run_to_quiescence();
        net.refresh_from_engine(&e);
        flows
            .iter()
            .map(|f| {
                let r = net.synthesize(f);
                if let Some(x) = &r {
                    assert_eq!(
                        route_is_legal(net.topo(), net.policies(), f, &x.path),
                        Some(x.cost),
                        "illegal post-heal route for {f}"
                    );
                }
                r.map(|x| x.cost)
            })
            .collect::<Vec<_>>()
    };
    let incremental = run(ViewMaintenance::Incremental);
    let flush = run(ViewMaintenance::Flush);
    assert_eq!(
        incremental, flush,
        "post-heal incremental reconciliation diverged from the flush oracle"
    );
}

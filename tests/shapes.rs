//! The paper's predicted shapes as executable assertions: every "Shape ✓"
//! in EXPERIMENTS.md names a test here. Each test calls, at test scale, the
//! same `adroute_bench` function whose rows the bench target prints at
//! paper scale, and asserts the paper's inequality on those rows — no
//! second measurement. Work-ledger quantities only; nothing here reads a
//! clock.

use adroute::core::ViewMaintenance;
use adroute::policy::legality::legal_routes_sweep;
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::{FlowSpec, PolicyDb, RouteSelection};
use adroute::topology::AdId;
use adroute_bench::{e10, e11, e12, e3, e4, e5, e6, e7, e8, e9, f1, internet, t1, World};

mod common;
use common::Invariant;

/// The row of `rows` whose architecture is `arch`.
fn arch<'a, R>(rows: &'a [R], name: impl Fn(&R) -> &str, arch: &str) -> &'a R {
    rows.iter()
        .find(|r| name(r) == arch)
        .unwrap_or_else(|| panic!("no row for {arch}"))
}

#[test]
fn t1_only_link_state_with_source_routing_gets_everything() {
    let rows = t1::rows(&World::mixed(49, 1990, 60));
    let [dv, ecma, idrp, ls, orwg] = &rows[..] else {
        panic!("five design points, got {}", rows.len());
    };
    for r in &rows {
        Invariant::LoopFree.assert(&r.score, r.arch);
    }
    // Link state finds every legal route and never violates …
    for r in [ls, orwg] {
        Invariant::Exact.assert(&r.score, r.arch);
    }
    // … and ORWG's control plane *is* link-state flooding.
    assert_eq!((ls.msgs, ls.bytes), (orwg.msgs, orwg.bytes));
    // Path vector never violates but forfeits legal routes.
    Invariant::NeverViolates.assert(&idrp.score, idrp.arch);
    assert!(idrp.score.availability() < 1.0);
    // The ordering cannot express the policy terms: ECMA violates, the
    // policy-blind baseline violates more.
    assert!(ecma.score.violating > 0);
    assert!(dv.score.violating > ecma.score.violating);
    // Only source routing honors the source's criteria, and privately.
    assert_eq!(orwg.honored, 1.0);
    assert!(orwg.private);
    for r in [dv, ecma, idrp, ls] {
        assert!(r.honored < 0.5 && !r.private, "{}", r.arch);
    }
}

#[test]
fn f1_hierarchy_keeps_lateral_and_bypass_links_at_every_scale() {
    for r in f1::rows(&[(30, 1), (100, 2), (250, 3)]) {
        let ((hier, lateral, bypass), (_, multihomed, ..)) = (r.link_kinds, r.roles);
        assert!(r.ads >= 49 && hier > lateral + bypass, "{r:?}");
        assert!(lateral > 0 && bypass > 0 && multihomed > 0, "{r:?}");
        assert_eq!(r.vf_reach, 1.0, "{r:?}");
    }
}

#[test]
fn e3_one_ordering_cannot_hold_every_policy() {
    // (a) satisfiability collapses as constraints densify, in every column.
    let sat = e3::satisfiability(&[5, 20, 80], 20);
    for col in 0..e3::DENY_FRACTIONS.len() {
        assert!(sat[0].1[col] >= 0.8, "{sat:?}");
        assert!(sat[1].1[col] < sat[0].1[col], "{sat:?}");
        assert_eq!(sat[2].1[col], 0.0, "{sat:?}");
    }
    // (c) footnote 4: a second logical cluster per AD buys it back, in
    // addresses.
    let rep = e3::replication(&[1, 2], 20);
    assert_eq!((rep[0].1, rep[1].1), (0.0, 1.0), "{rep:?}");
    assert!(rep[1].2 > rep[0].2, "{rep:?}");
    // (b) ECMA is clean on what the ordering expresses and violates beyond.
    let ecma = e3::ecma_vs_oracle(49, 60, &[0, 8]);
    let (structural, granular) = (&ecma[0].1, &ecma[1].1);
    Invariant::Exact.assert(structural, "ECMA, structural");
    Invariant::LoopFree.assert(granular, "ECMA, granular");
    assert!(granular.violating > 0);
    assert!(granular.availability() < 1.0);
}

#[test]
fn e4_pv_rib_is_linear_in_the_advertisement_budget() {
    let rows = e4::rows(49, &[(8, 1), (8, 2), (8, 4)]);
    for pair in rows.windows(2) {
        // The budget doubles: so do the RIB and the bytes that carry it.
        let rib = pair[1].mean_rib / pair[0].mean_rib;
        let bytes = pair[1].bytes as f64 / pair[0].bytes as f64;
        assert!((1.8..=2.1).contains(&rib), "RIB x{rib}: {pair:?}");
        assert!((1.8..=2.2).contains(&bytes), "bytes x{bytes}: {pair:?}");
    }
}

#[test]
fn e5_only_ls_hbh_computes_and_stores_per_class_in_transit() {
    let rows = e5::rows(49, 5, &[10, 40]);
    for r in &rows {
        // ORWG: at most one search per class, all of them at sources.
        assert_eq!(r.orwg_transit_searches, 0, "{r:?}");
        assert!(r.orwg_src_searches <= r.classes as u64, "{r:?}");
        // LS-HBH repeats the search, and keeps the result, along the path.
        assert!(r.ls_computations >= 2 * r.orwg_src_searches, "{r:?}");
        assert!(r.ls_fib_entries as u64 >= 2 * r.classes as u64, "{r:?}");
    }
    assert!(rows[1].ls_computations > 3 * rows[0].ls_computations);
    assert!(rows[1].ls_max_per_ad > rows[0].ls_max_per_ad);
}

#[test]
fn e6_handle_crossover_between_2_and_5_packets() {
    let rows = e6::amortization(&World::mixed(49, 13, 20), &[1, 2, 5, 50]);
    let [one, two, five, fifty] = &rows[..] else {
        panic!("four flow lengths")
    };
    assert!(one.with_setup > 1.5 * one.source_route, "{one:?}");
    assert!(two.with_setup > two.source_route, "{two:?}");
    assert!(five.with_setup < five.source_route, "{five:?}");
    assert!(fifty.with_setup < 1.2 * fifty.handle_only, "{fifty:?}");
    assert!(fifty.handle_only < fifty.source_route / 2.0, "{fifty:?}");

    // Undersized gateway caches churn the overhead back in.
    let cache = e6::cache_pressure(&World::mixed(49, 14, 120), &[8, 2048]);
    let (small, big) = (&cache[0], &cache[1]);
    assert!(small.evictions > 0 && small.resetups > 0, "{small:?}");
    assert_eq!((big.evictions, big.drops, big.resetups), (0, 0, 0));
    assert!(small.header_bytes > 2 * big.header_bytes);
}

#[test]
fn e7_hybrid_has_the_lowest_setup_time_search_rate() {
    let rows = e7::strategies(49, 17, 500);
    let [on_demand, lru, big_lru, hybrid] = &rows[..] else {
        panic!("four strategies")
    };
    assert_eq!(on_demand.search_rate(), 1.0);
    assert!(lru.search_rate() < 1.0);
    // Capacity past the working set buys nothing.
    assert_eq!(lru.served.searches, big_lru.served.searches);
    assert!(hybrid.search_rate() < lru.search_rate() / 1.5, "{hybrid:?}");
    assert!(hybrid.served.precomputed_hits > hybrid.served.searches);
    // A policy change invalidates the same routes everywhere; only the
    // hybrid pays an eager background refresh.
    assert!(lru.invalidated > 0);
    assert_eq!(lru.invalidated, hybrid.invalidated);
    assert!(hybrid.refresh_searches > 0);
    assert_eq!(on_demand.refresh_searches + lru.refresh_searches, 0);
}

/// Search effort, pinned. Solo searches and sweeps run one loop, so a
/// drift in it moves both and slips past every sweep-vs-solo check. E7(a)
/// at the bench's parameters must print the rows EXPERIMENTS.md records,
/// and the relaxations behind them must not move. So must the summed
/// effort of one sweep over every destination from a fixed source:
/// shared under structural policies, one search per destination under the
/// default mix (which conditions on destinations).
#[test]
fn e7_search_effort_is_pinned() {
    let rows: Vec<_> = e7::strategies(150, 17, 2000)
        .iter()
        .map(|r| {
            let s = r.served;
            let stored = (r.routes_stored, r.invalidated, r.refresh_searches);
            let hits = (s.precomputed_hits, s.cache_hits);
            (
                r.strategy,
                s.searches,
                s.settled,
                s.relaxations,
                hits,
                stored,
            )
        })
        .collect();
    assert_eq!(
        rows,
        [
            ("on-demand", 2000, 73649, 404991, (0, 0), (0, 0, 0)),
            (
                "LRU cache 64",
                1617,
                59006,
                324244,
                (0, 383),
                (1617, 655, 0)
            ),
            (
                "LRU cache 1024",
                1617,
                59006,
                324244,
                (0, 383),
                (1617, 655, 0)
            ),
            (
                "hybrid (pre+LRU 64)",
                557,
                19951,
                109501,
                (1435, 8),
                (1617, 655, 429)
            ),
        ]
    );

    let topo = internet(150, 17);
    let src = AdId(7);
    let dsts: Vec<AdId> = topo.ad_ids().collect();
    let sweep = |db: &PolicyDb| {
        let template = FlowSpec::best_effort(src, src);
        let sel = RouteSelection::unconstrained();
        let found = legal_routes_sweep(&topo, db, &template, &dsts, &sel);
        found
            .iter()
            .fold((0, 0, 0), |(routes, settled, relaxed), (r, s)| {
                (
                    routes + usize::from(r.is_some()),
                    settled + s.settled,
                    relaxed + s.relaxations,
                )
            })
    };
    let structural = PolicyWorkload::structural(17).generate(&topo);
    assert!(!structural.dst_sensitive());
    assert_eq!(sweep(&structural), (147, 19828, 106528));
    let mix = PolicyWorkload::default_mix(17).generate(&topo);
    assert!(mix.dst_sensitive());
    assert_eq!(sweep(&mix), (147, 5288, 28480));
}

#[test]
fn e7b_incremental_invalidates_only_routes_crossing_the_failed_link() {
    let rows = e7::view_maintenance(&internet(98, 23), 23, 600, |fail_link| fail_link());
    let [inc, flush] = &rows[..] else {
        panic!("two modes")
    };
    assert_eq!(inc.mode, ViewMaintenance::Incremental);
    assert_eq!(inc.routes_stored, flush.routes_stored);
    assert_eq!(flush.invalidated, flush.routes_stored as u64);
    assert!(inc.invalidated > 0 && inc.invalidated * 5 < flush.invalidated);
    // Either way the next request wave repays exactly what was dropped.
    assert_eq!(inc.rerequest_searches, inc.invalidated);
    assert_eq!(flush.rerequest_searches, flush.invalidated);
}

#[test]
fn e8_link_state_bytes_far_below_dv_and_its_failure_updates_stay_small() {
    let rows = e8::rows(&[50, 100], 0);
    let sizes: Vec<usize> = rows.iter().step_by(4).map(|r| r.ads).collect();
    let run = |ads: usize, name: &str| {
        let row = rows.iter().find(|r| r.ads == ads && r.arch == name);
        row.unwrap_or_else(|| panic!("no {name} row at {ads} ADs"))
            .run
    };
    let per_failure_msg = |r: adroute_bench::FailureResponse| r.fail_bytes / r.fail_msgs;
    for &n in &sizes {
        let (dv, ecma, ls) = (
            run(n, "naive DV").unwrap(),
            run(n, "ECMA").unwrap(),
            run(n, "link state").unwrap(),
        );
        // Link-state bytes ≪ the DV family's at every size.
        assert!(ls.bytes * 3 < ecma.bytes && ecma.bytes < dv.bytes, "{n}");
        // One failure: the DV family re-sends tables, link state LSAs.
        assert!(per_failure_msg(ls) < per_failure_msg(ecma).min(per_failure_msg(dv)));
    }
    // The gap widens with size: a DV update carries O(n) entries, so its
    // failure-response messages double with the internet; LSAs do not.
    let (small, large) = (sizes[0], sizes[1]);
    let growth = |name: &str| {
        let (a, b) = (run(small, name).unwrap(), run(large, name).unwrap());
        (
            b.bytes as f64 / a.bytes as f64,
            per_failure_msg(b) as f64 / per_failure_msg(a) as f64,
        )
    };
    let (dv, ls) = (growth("naive DV"), growth("link state"));
    assert!(
        dv.0 > 1.5 * ls.0,
        "convergence bytes: DV x{} LS x{}",
        dv.0,
        ls.0
    );
    assert!(
        dv.1 > 1.8 && ls.1 < 1.2,
        "bytes per failure message: {dv:?} {ls:?}"
    );
    // IDRP's multi-attribute tables are an order of magnitude past DV's,
    // and what ends its sweep is that measurement, not a constant.
    let idrp = run(small, "IDRP (PV)").unwrap();
    assert!(idrp.bytes > 5 * run(small, "naive DV").unwrap().bytes);
    let stop = run(large, "IDRP (PV)").unwrap_err();
    assert_eq!(
        (stop.ads, stop.bytes),
        (small, idrp.bytes + idrp.fail_bytes)
    );
}

#[test]
fn e9_ecma_pays_per_provisioned_class_link_state_per_used_class() {
    let rows = e9::rows(49, 29, 30, &[1, 2, 4]);
    for pair in rows.windows(2) {
        assert_eq!(pair[1].ecma_fib_per_ad, 2 * pair[0].ecma_fib_per_ad);
        assert!(pair[1].ecma_bytes as f64 > 1.5 * pair[0].ecma_bytes as f64);
        // The traffic uses 3 classes however many are provisioned.
        assert_eq!(pair[1].ls_computations, pair[0].ls_computations);
        assert_eq!(pair[1].orwg_searches, pair[0].orwg_searches);
    }
    assert!(rows[0].orwg_searches <= 30);
    assert!(rows[0].ls_computations > 2 * rows[0].orwg_searches);
}

#[test]
fn e10_count_to_infinity_only_in_naive_dv() {
    let rows = e10::rings(&[6, 10]);
    for ring in rows.chunks(6) {
        let fail = |name: &str| arch(ring, |r| r.arch, name).response;
        let (dv32, dv128) = (fail("naive DV (inf=32)"), fail("naive DV (inf=128)"));
        // Naive DV counts: traffic and time track the infinity bound …
        assert!(dv128.fail_msgs > 3 * dv32.fail_msgs, "{ring:?}");
        assert!(dv128.reconverge_us > 3 * dv32.reconverge_us, "{ring:?}");
        // … split horizon only trims it …
        let split = fail("naive DV + split horizon");
        assert!(split.fail_msgs < dv32.fail_msgs);
        // … and nobody else counts at all.
        for name in ["ECMA up/down rule", "path vector (IDRP)", "link state"] {
            let r = fail(name);
            assert!(r.fail_msgs * 5 < dv32.fail_msgs, "{name}: {ring:?}");
            assert!(r.fail_msgs <= split.fail_msgs, "{name}: {ring:?}");
        }
    }
    // The same ranking on an internet: the baseline's response dwarfs
    // everyone's, link state's is the smallest.
    let rows = e10::regional(49, 31);
    let fail = |name: &str| arch(&rows, |r| r.arch, name).response.fail_msgs;
    assert!(fail("path vector") < fail("naive DV"), "{rows:?}");
    assert!(fail("ECMA") * 2 < fail("naive DV"), "{rows:?}");
    assert!(fail("link state") <= fail("ECMA"), "{rows:?}");
}

#[test]
fn e11_link_state_keeps_every_legal_route_at_every_density() {
    let rows = e11::rows(49, 40, &[(0.0, 0.0), (0.3, 0.15)]);
    for r in &rows {
        let score = |name: &str| &arch(&r.points, |p| p.0, name).1;
        for (name, s) in &r.points {
            Invariant::LoopFree.assert(s, format!("{name} at {}/{}", r.lateral, r.bypass));
        }
        let (ecma, idrp, ls, egp) = (
            score("ECMA"),
            score("IDRP"),
            score("LS/ORWG"),
            score("EGP (tree DV)"),
        );
        Invariant::Exact.assert(ls, "LS/ORWG");
        // ECMA and IDRP lose routes or legality where link state does not.
        assert!(ecma.violating > 0);
        Invariant::NeverViolates.assert(idrp, "IDRP");
        assert!(idrp.availability() < 1.0);
        assert!(egp.availability() < 1.0 && egp.violating > 0);
    }
    // The EGP tree restriction wastes exactly the links densification adds.
    let (sparse, dense) = (&rows[0], &rows[1]);
    assert!(dense.links > sparse.links && dense.extra_links > sparse.extra_links);
    assert!(dense.mean_cost_full < sparse.mean_cost_full);
    assert!(dense.stretch() > sparse.stretch() && dense.stretch() > 1.2);
}

#[test]
fn e12a_link_state_churn_bytes_far_below_the_dv_family() {
    let rows = e12::control_churn(49, 43, 60);
    let by = |name: &str| arch(&rows, |r| r.arch, name);
    let ls = by("link state / ORWG");
    assert!(ls.link_events > 0);
    for name in ["naive DV", "ECMA", "IDRP (PV)"] {
        assert_eq!(by(name).link_events, ls.link_events);
        assert!(by(name).bytes > 5 * ls.bytes, "{name}: {rows:?}");
    }
    // Full-table churn: IDRP moves the most bytes, the baseline the most
    // messages.
    assert!(by("IDRP (PV)").bytes > 10 * by("naive DV").bytes);
    assert!(by("naive DV").msgs_per_event() > by("IDRP (PV)").msgs_per_event());
}

#[test]
fn e12b_churn_costs_established_flows_a_few_resetups() {
    let rows = e12::flow_epochs(&World::mixed(49, 44, 80), 3);
    assert_eq!((rows[0].resetups, rows[0].lost), (0, 0));
    let per_pkt = |r: &e12::EpochRow| r.header_bytes as f64 / r.pkts as f64;
    for r in &rows[1..] {
        // Two more failed links: a handful of re-setups, and only flows
        // with no legal route left are lost.
        assert_eq!(r.failed_links, 2 * r.epoch);
        assert!(r.resetups * 10 <= r.live_flows as u64, "{r:?}");
        assert!(r.lost * 5 <= r.live_flows as u64, "{r:?}");
        assert!(per_pkt(r) < 1.25 * per_pkt(&rows[0]), "{r:?}");
    }
}

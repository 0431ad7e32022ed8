//! Twin-server equivalence: incremental, dependency-indexed view
//! maintenance must be observationally identical to the flush-everything
//! oracle. Two converged networks absorb the same random fault script —
//! link failures and recoveries, metric moves, policy replacements — one
//! applying [`ViewDelta`]s in place, the other reinstalling every view
//! from scratch, and every synthesis request afterwards must agree.
//!
//! Equal *cost* (and equal reachability) is the right oracle, not equal
//! paths: two equal-cost routes can legitimately differ by Dijkstra
//! tie-breaking once one twin revalidates a stored route the other
//! recomputed. Each returned path is additionally checked legal at its
//! claimed cost against ground truth, so a cost match cannot hide an
//! illegal route.
//!
//! A third battery drives the twins **through the control-plane engine**:
//! link flaps, router crashes and restarts (the LSDB emptied and
//! relearned), partitions and heals, interleaved with direct
//! `fail_link`/`restore_link` on the data plane. After every
//! `refresh_from_engine` each Route Server's view must equal what its own
//! router's database describes, and answer like the flush twin's; servers
//! that shared a view and whose databases agree must still share one.

use adroute::core::router::converge_control_plane;
use adroute::core::{OrwgNetwork, RouteServer, Strategy, ViewDelta, ViewMaintenance};
use adroute::policy::legality::route_is_legal;
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::TransitPolicy;
use adroute::protocols::forwarding::sample_flows;
use adroute::protocols::linkstate::LsDb;
use adroute::topology::{AdId, HierarchyConfig, LinkId, TopoDelta};
use proptest::prelude::*;

mod common;
use common::small_internet;

/// One fault event, decoded from a raw proptest word so the vendored
/// strategy set (no tuples) suffices.
enum Op {
    Fail(LinkId),
    Restore(LinkId),
    Metric(LinkId, u32),
    Policy(AdId, u8, u64),
}

fn decode(word: u64, num_links: usize, num_ads: usize) -> Op {
    let kind = word & 3;
    let raw = (word >> 2) as usize;
    match kind {
        0 => Op::Fail(LinkId((raw % num_links) as u32)),
        1 => Op::Restore(LinkId((raw % num_links) as u32)),
        2 => Op::Metric(
            LinkId((raw % num_links) as u32),
            1 + (word >> 40) as u32 % 19,
        ),
        _ => Op::Policy(
            AdId((raw % num_ads) as u32),
            1 + ((word >> 40) % 3) as u8,
            word >> 16,
        ),
    }
}

/// The up links `(a, b, metric)` of a view, in a canonical order.
fn up_links(t: &adroute::topology::Topology) -> Vec<(AdId, AdId, u32)> {
    let mut v: Vec<_> = t
        .links()
        .filter(|l| l.up)
        .map(|l| (l.a, l.b, l.metric))
        .collect();
    v.sort_unstable();
    v
}

/// A synced Route Server's view is its database's view wherever the
/// synthesis search looks: up links, their metrics, every AD's policy.
fn assert_view_is_lsdb_view(s: &RouteServer, db: &LsDb) {
    let (vt, vd) = db.view();
    assert_eq!(
        up_links(s.view_topo()),
        up_links(&vt),
        "{}: links diverge from its LSDB",
        s.ad
    );
    for ad in vt.ad_ids() {
        assert_eq!(
            s.view_db().policy(ad),
            vd.policy(ad),
            "{}: policy of {ad} diverges from its LSDB",
            s.ad
        );
    }
}

/// Whether two Route Servers read the very same view allocations.
fn share_a_view(a: &RouteServer, b: &RouteServer) -> bool {
    std::ptr::eq(a.view_topo(), b.view_topo()) && std::ptr::eq(a.view_db(), b.view_db())
}

/// The canonical 245-AD internet of the benchmark's `orwg-*` workloads.
fn canonical_internet() -> adroute::topology::Topology {
    HierarchyConfig::e_series(245, 23).generate()
}

/// A refresh costs what changed: nothing when no LSDB moved, and for one
/// link flap the two endpoint origins per Route Server — never a view
/// rebuild.
#[test]
fn refresh_rederives_only_the_origins_that_changed() {
    let topo = canonical_internet();
    assert_eq!(topo.num_ads(), 245);
    let n = topo.num_ads() as u64;
    let db = PolicyWorkload::default_mix(23).generate(&topo);
    let mut e = converge_control_plane(topo.clone(), db);
    let mut net = OrwgNetwork::from_engine(&e, Strategy::Cached { capacity: 64 }, 1024);
    let rederived = |net: &OrwgNetwork| net.obs.metrics.counter("view_origins_rederived");
    let installs = |net: &OrwgNetwork| net.obs.metrics.counter("view_full_installs");

    net.refresh_from_engine(&e);
    assert_eq!(rederived(&net), 0, "nothing changed, something was derived");
    assert_eq!(installs(&net), 0);

    let link = topo.links().find(|l| l.up).unwrap().id;
    for (step, up) in [false, true].into_iter().enumerate() {
        e.schedule_link_change(link, up, e.now().plus_us(1000));
        e.run_to_quiescence();
        net.refresh_from_engine(&e);
        assert_eq!(rederived(&net), 2 * n * (step as u64 + 1));
        assert_eq!(installs(&net), 0, "a link flap is not structural");
    }
    net.refresh_from_engine(&e);
    assert_eq!(rederived(&net), 4 * n, "a second refresh found more to do");
    for ad in topo.ad_ids() {
        assert_view_is_lsdb_view(net.server(ad), &e.router(ad).flooder.db);
    }
}

/// Route Servers read one view: `from_engine` builds it once, engine link
/// flaps and ground-truth broadcasts edit it once for all — while every
/// server is still charged for its own re-derivation — and a lone
/// server's edit copies on write, leaving the others sharing.
#[test]
fn route_servers_share_one_view_until_one_edits_its_own() {
    let topo = canonical_internet();
    let n = topo.num_ads() as u64;
    let db = PolicyWorkload::default_mix(23).generate(&topo);
    let mut e = converge_control_plane(topo.clone(), db);
    let mut net = OrwgNetwork::from_engine(&e, Strategy::Cached { capacity: 64 }, 1024);
    let all_share = |net: &OrwgNetwork| {
        (topo.ad_ids()).all(|ad| share_a_view(net.server(AdId(0)), net.server(ad)))
    };
    let rederived = |net: &OrwgNetwork| net.obs.metrics.counter("view_origins_rederived");
    let installs = |net: &OrwgNetwork| net.obs.metrics.counter("view_full_installs");
    assert!(all_share(&net), "from_engine built more than one view");

    let link = topo.links().find(|l| l.up).unwrap();
    let (a, b) = (link.a, link.b);
    for (step, up) in [false, true].into_iter().enumerate() {
        e.schedule_link_change(link.id, up, e.now().plus_us(1000));
        e.run_to_quiescence();
        net.refresh_from_engine(&e);
        assert!(all_share(&net), "a link flap split the view");
        assert_eq!(rederived(&net), 2 * n * (step as u64 + 1));
        assert_eq!(installs(&net), 0, "a link flap is not structural");
    }

    let link_up = |s: &RouteServer| {
        let l = s.view_topo().link_between(a, b).unwrap();
        s.view_topo().link(l).up
    };
    net.fail_link(link.id);
    assert!(all_share(&net), "fail_link split the view");
    assert!(!link_up(net.server(AdId(0))));
    net.restore_link(link.id);
    assert!(all_share(&net), "restore_link split the view");
    assert!(link_up(net.server(AdId(0))));
    let ad = AdId(7);
    net.change_policy(TransitPolicy::deny_all(ad));
    assert!(all_share(&net), "change_policy split the view");
    assert_eq!(
        *net.server(AdId(0)).view_db().policy(ad),
        TransitPolicy::deny_all(ad)
    );
    assert_eq!(installs(&net), 0, "no server fell back to a full install");

    let down = ViewDelta::Topo(TopoDelta::LinkState { a, b, up: false });
    assert!(net.server_mut(AdId(1)).apply_delta(&down));
    let (s0, s1) = (net.server(AdId(0)), net.server(AdId(1)));
    assert!(!link_up(s1) && link_up(s0), "the lone edit leaked");
    assert!(!std::ptr::eq(s1.view_topo(), s0.view_topo()));
    assert!(
        std::ptr::eq(s1.view_db(), s0.view_db()),
        "a link edit copied the policy database too"
    );
    assert!((topo.ad_ids())
        .filter(|&ad| ad != AdId(1))
        .all(|ad| share_a_view(s0, net.server(ad))));
}

proptest! {
    #![proptest_config(common::cases(24))]

    /// Views maintained by allocation-provenance deltas converge to their
    /// own LSDB through everything the control plane can do to a
    /// database, and through edits made behind the refresh's back.
    #[test]
    fn engine_synced_views_match_their_lsdb_and_the_flush_twin(
        seed in 0u64..200,
        script in proptest::collection::vec(0u64..u64::MAX, 1..12),
    ) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let flows = sample_flows(&topo, 10, seed ^ 0x5);
        let mut e = converge_control_plane(topo.clone(), db);
        let mk = |e: &adroute::sim::Engine<_>, mode| {
            let mut n = OrwgNetwork::from_engine(e, Strategy::Cached { capacity: 32 }, 1024);
            n.set_view_maintenance(mode);
            n
        };
        let mut inc = mk(&e, ViewMaintenance::Incremental);
        let mut flush = mk(&e, ViewMaintenance::Flush);
        for f in &flows {
            let _ = inc.synthesize(f);
            let _ = flush.synthesize(f);
        }
        let (nl, na) = (topo.num_links(), topo.num_ads());
        let last = script.len() - 1;
        for (step, word) in script.into_iter().enumerate() {
            let raw = (word >> 8) as usize;
            let link = LinkId((raw % nl) as u32);
            let ad = AdId((raw % na) as u32);
            let at = e.now().plus_us(1000);
            match word & 7 {
                0 => e.schedule_link_change(link, false, at),
                1 => e.schedule_link_change(link, true, at),
                // A crash empties the router's LSDB; the restart relearns
                // it from the neighbours, pointer for pointer.
                2 => e.schedule_router_change(ad, false, at),
                3 => e.schedule_router_change(ad, true, at),
                // Partition at an AD-index split, and heal everything.
                4 => {
                    let split = AdId((1 + raw % (na - 1)) as u32);
                    for l in topo.links().filter(|l| l.a < split && split <= l.b) {
                        e.schedule_link_change(l.id, false, at);
                    }
                }
                5 => {
                    for l in topo.links() {
                        e.schedule_link_change(l.id, true, at);
                    }
                    for ad in topo.ad_ids() {
                        e.schedule_router_change(ad, true, at);
                    }
                }
                // Views edited behind the refresh's back.
                6 => {
                    inc.fail_link(link);
                    flush.fail_link(link);
                }
                _ => {
                    inc.restore_link(link);
                    flush.restore_link(link);
                }
            }
            e.run_to_quiescence();
            // Some LSDB changes pile up unrefreshed.
            if (word >> 3) & 3 == 0 && step != last {
                continue;
            }
            let mut must_share = Vec::new();
            for x in topo.ad_ids() {
                for y in topo.ad_ids().filter(|&y| x < y) {
                    let agree = e.router(x).flooder.db.shares_all_lsas_with(&e.router(y).flooder.db);
                    if agree && share_a_view(inc.server(x), inc.server(y)) {
                        must_share.push((x, y));
                    }
                }
            }
            inc.refresh_from_engine(&e);
            flush.refresh_from_engine(&e);
            for ad in topo.ad_ids() {
                assert_view_is_lsdb_view(inc.server(ad), &e.router(ad).flooder.db);
            }
            for (x, y) in must_share {
                prop_assert!(
                    share_a_view(inc.server(x), inc.server(y)),
                    "{} and {} stopped sharing a view their LSDBs agree on", x, y
                );
            }
            for f in &flows {
                let a = inc.synthesize(f).map(|r| r.cost);
                let b = flush.synthesize(f).map(|r| r.cost);
                prop_assert_eq!(a, b, "{} answered differently by the flush twin", f);
            }
        }
    }

    /// Every request answered after every event of a random fault script
    /// agrees between the incremental twin and the flush oracle.
    #[test]
    fn incremental_twin_matches_flush_oracle(
        seed in 0u64..200,
        script in proptest::collection::vec(0u64..u64::MAX, 1..10),
    ) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let flows = sample_flows(&topo, 10, seed ^ 0x7);
        let mk = |mode| {
            let mut n = OrwgNetwork::converged_with(
                &topo, &db, Strategy::Hybrid { capacity: 32 }, 1024);
            n.set_view_maintenance(mode);
            // Half the flows live in the precomputed tables, half only in
            // the LRU caches, so both invalidation paths are exercised.
            for f in &flows[..flows.len() / 2] {
                let src = f.src;
                n.server_mut(src).precompute(&[*f]);
            }
            n
        };
        let mut inc = mk(ViewMaintenance::Incremental);
        let mut flush = mk(ViewMaintenance::Flush);
        for f in &flows {
            let _ = inc.synthesize(f);
            let _ = flush.synthesize(f);
        }
        for word in script {
            match decode(word, topo.num_links(), topo.num_ads()) {
                Op::Fail(l) => {
                    inc.fail_link(l);
                    flush.fail_link(l);
                }
                Op::Restore(l) => {
                    inc.restore_link(l);
                    flush.restore_link(l);
                }
                Op::Metric(l, m) => {
                    inc.change_metric(l, m);
                    flush.change_metric(l, m);
                }
                Op::Policy(ad, g, pseed) => {
                    // Replace one AD's policy with the same AD's policy
                    // from a different workload: sometimes a genuine
                    // restriction, sometimes expansive, so both halves of
                    // the delta classifier run.
                    let p = PolicyWorkload::granularity(g, pseed)
                        .generate(&topo)
                        .policy(ad)
                        .clone();
                    inc.change_policy(p.clone());
                    flush.change_policy(p);
                }
            }
            for f in &flows {
                let a = inc.synthesize(f);
                let b = flush.synthesize(f);
                match (&a, &b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        prop_assert_eq!(
                            x.cost, y.cost,
                            "cost diverged for {} (incremental {:?} vs flush {:?})",
                            f, x.path, y.path
                        );
                        prop_assert_eq!(
                            route_is_legal(inc.topo(), inc.policies(), f, &x.path),
                            Some(x.cost),
                            "incremental route for {} is not legal at its cost", f
                        );
                        prop_assert_eq!(
                            route_is_legal(flush.topo(), flush.policies(), f, &y.path),
                            Some(y.cost),
                            "flush route for {} is not legal at its cost", f
                        );
                    }
                    _ => prop_assert!(
                        false,
                        "reachability diverged for {}: incremental {:?}, flush {:?}",
                        f, a.map(|r| r.path), b.map(|r| r.path)
                    ),
                }
            }
        }
    }

    /// Cache coherence of the stored state: after a random fault script
    /// every stored-state answer is legal under the *current* view, and
    /// the background-precompute scheduler refills only entries the
    /// current view revalidates. An entry surviving an invalidation it
    /// should not have would surface here as an illegal served route.
    #[test]
    fn stored_routes_and_refills_stay_view_coherent(
        seed in 0u64..150,
        script in proptest::collection::vec(0u64..u64::MAX, 1..8),
    ) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let flows = sample_flows(&topo, 16, seed ^ 0x11);
        let mut net = OrwgNetwork::converged_with(
            &topo, &db, Strategy::Hybrid { capacity: 32 }, 1024);
        net.set_view_maintenance(ViewMaintenance::Incremental);
        // Warm through the request path: every answer lands in the LRU.
        for f in &flows {
            let _ = net.synthesize(f);
        }
        for word in script {
            match decode(word, topo.num_links(), topo.num_ads()) {
                Op::Fail(l) => net.fail_link(l),
                Op::Restore(l) => net.restore_link(l),
                Op::Metric(l, m) => net.change_metric(l, m),
                Op::Policy(ad, g, pseed) => {
                    let p = PolicyWorkload::granularity(g, pseed)
                        .generate(&topo)
                        .policy(ad)
                        .clone();
                    net.change_policy(p);
                }
            }
            // Run the background-precompute scheduler over the entries
            // the delta invalidated, then check every stored-state
            // answer (refilled or surviving) against the current view.
            for ad in topo.ad_ids() {
                net.background_refill(ad, 64);
            }
            for f in &flows {
                if let Some(Some(r)) = net.server_mut(f.src).stored_route(f) {
                    prop_assert_eq!(
                        route_is_legal(net.topo(), net.policies(), f, &r.path),
                        Some(r.cost),
                        "stored tier served a view-stale route for {}", f
                    );
                }
            }
        }
    }
}

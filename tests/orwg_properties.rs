//! Property-based tests of the ORWG architecture end to end: synthesis,
//! setup validation, handle forwarding, and their security-ish invariants.

use adroute::core::dataplane::{HandleId, SetupPacket};
use adroute::core::network::OpenError;
use adroute::core::{OrwgNetwork, PolicyGateway, SetupError, Strategy};
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::{FlowSpec, PolicyDb};
use adroute::protocols::forwarding::{forward, sample_flows, ForwardOutcome};
use adroute::topology::{generate, AdId};
use proptest::prelude::*;

mod common;
use common::{small_internet, Invariant};

proptest! {
    #![proptest_config(common::cases(24))]

    /// Every route the ORWG opens is legal, cost-optimal, and forwardable;
    /// every refusal corresponds to genuine oracle unreachability.
    #[test]
    fn opened_routes_are_legal_and_optimal(seed in 0u64..400) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let mut net = OrwgNetwork::converged(&topo, &db);
        let flows = sample_flows(&topo, 12, seed);
        Invariant::Optimal.check(&mut net, &topo, &db, &flows, format!("seed {seed}"));
        for f in &flows {
            if let Err(e) = net.open(f) {
                prop_assert_eq!(e, OpenError::NoRoute, "for {}", f);
            }
        }
    }

    /// ORWG through the shared data-plane harness is `open` plus the
    /// gateways' handle forwarding: `forward` delivers exactly the route
    /// `open` sets up, and an open that finds no route is a drop at the
    /// source.
    #[test]
    fn harness_forwarding_follows_the_opened_route(seed in 0u64..400) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let mut net = OrwgNetwork::converged(&topo, &db);
        let mut twin = OrwgNetwork::converged(&topo, &db);
        for f in sample_flows(&topo, 12, seed) {
            let expected = match twin.open(&f) {
                Ok(setup) => ForwardOutcome::Delivered { path: setup.route },
                Err(OpenError::NoRoute) => ForwardOutcome::NoRoute { path: vec![f.src] },
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e:?}"))),
            };
            prop_assert_eq!(forward(&mut net, &topo, &f), expected, "{}", f);
        }
    }

    /// A gateway never accepts a setup its AD's policy denies, no matter
    /// what the (possibly forged) setup packet claims.
    #[test]
    fn gateways_reject_forged_setups(seed in 0u64..400, claimed_serial in 0u16..4) {
        let topo = generate::ring(5);
        let db = PolicyWorkload::granularity(2, seed).generate(&topo);
        // Make AD1's policy restrictive enough to have deny outcomes.
        let mut gw = PolicyGateway::new(AdId(1), 64);
        let policy = db.policy(AdId(1)).clone();
        let flow = FlowSpec::best_effort(AdId(0), AdId(2));
        let claimed = if claimed_serial == 0 {
            None
        } else {
            Some(adroute::policy::PtId { ad: AdId(1), serial: claimed_serial - 1 })
        };
        let setup = SetupPacket {
            flow,
            route: vec![AdId(0), AdId(1), AdId(2)],
            claimed_pts: vec![claimed],
            handle: HandleId(7),
        };
        let truth = policy.evaluate(&flow, Some(AdId(0)), Some(AdId(2)));
        match gw.validate_setup(&policy, &setup) {
            Ok(()) => {
                // Accepted: the policy genuinely permits AND the claim was
                // exactly the deciding term.
                prop_assert!(truth.is_some());
                let (_, deciding) =
                    policy.evaluate_with_term(&flow, Some(AdId(0)), Some(AdId(2)));
                prop_assert_eq!(claimed, deciding);
            }
            Err(SetupError::PolicyDenied { .. }) => prop_assert!(truth.is_none()),
            Err(SetupError::PtMismatch { .. }) => {
                let (_, deciding) =
                    policy.evaluate_with_term(&flow, Some(AdId(0)), Some(AdId(2)));
                prop_assert!(claimed != deciding || truth.is_none());
            }
            Err(e) => prop_assert!(false, "unexpected {:?}", e),
        }
    }

    /// Synthesis strategies agree: whatever the caching/precompute
    /// strategy, the same flow yields the same route.
    #[test]
    fn strategies_agree_on_routes(seed in 0u64..200) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed ^ 0x55).generate(&topo);
        let flows = sample_flows(&topo, 8, seed);
        let mut on_demand = OrwgNetwork::converged_with(&topo, &db, Strategy::OnDemand, 1024);
        let mut cached =
            OrwgNetwork::converged_with(&topo, &db, Strategy::Cached { capacity: 64 }, 1024);
        let mut hybrid =
            OrwgNetwork::converged_with(&topo, &db, Strategy::Hybrid { capacity: 64 }, 1024);
        for f in &flows {
            net_precompute(&mut hybrid, f);
        }
        for f in &flows {
            let a = on_demand.policy_route(f);
            let b = cached.policy_route(f);
            let b2 = cached.policy_route(f); // cache hit must not change it
            let c = hybrid.policy_route(f);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&b, &b2);
            prop_assert_eq!(&b, &c);
        }
    }

    /// Teardown is complete: after tearing a flow down, no gateway holds
    /// its handle.
    #[test]
    fn teardown_leaves_no_state(seed in 0u64..200) {
        let topo = small_internet(seed);
        let db = PolicyDb::permissive(&topo);
        let mut net = OrwgNetwork::converged(&topo, &db);
        let mut opened = Vec::new();
        for f in sample_flows(&topo, 6, seed) {
            if let Ok(s) = net.open(&f) {
                opened.push(s);
            }
        }
        let before: usize = topo.ad_ids().map(|a| net.gateway(a).cached_handles()).sum();
        prop_assert!(before > 0 || opened.iter().all(|s| s.route.len() <= 2));
        for s in &opened {
            net.teardown(s.handle);
        }
        let after: usize = topo.ad_ids().map(|a| net.gateway(a).cached_handles()).sum();
        prop_assert_eq!(after, 0);
        prop_assert_eq!(net.open_flow_count(), 0);
    }

    /// Abandoning an open purges by record (the handles teardown
    /// notifications left behind), not by scanning. Against the scan of
    /// every open flow and every gateway table it replaced, through random
    /// opens, source teardowns, link and gateway faults, policy changes,
    /// quarantines, repairs and handle-cache evictions: the same count
    /// returned, the same handles gone, nothing else touched.
    #[test]
    fn abandon_open_matches_the_full_scan(
        seed in 0u64..300,
        script in proptest::collection::vec(0u64..u64::MAX, 4..40),
    ) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::structural(seed).generate(&topo);
        // Few classes, so one class is often open more than once; small
        // handle caches, so gateways also evict on their own.
        let pool = sample_flows(&topo, 5, seed ^ 0x3);
        let mut net = OrwgNetwork::converged_with(
            &topo, &db, Strategy::Cached { capacity: 32 }, 6);
        let installed = |net: &OrwgNetwork, f: &FlowSpec| -> Vec<usize> {
            topo.ad_ids().map(|a| net.gateway(a).handles_for(f)).collect()
        };
        let cached = |net: &OrwgNetwork| -> usize {
            topo.ad_ids().map(|a| net.gateway(a).cached_handles()).sum()
        };
        for word in script {
            let raw = (word >> 8) as usize;
            let f = pool[raw % pool.len()];
            let link = adroute::topology::LinkId((raw % topo.num_links()) as u32);
            let ad = AdId((raw % topo.num_ads()) as u32);
            match word % 11 {
                0..=2 => {
                    let _ = net.open_repairable(&f);
                }
                3 => {
                    let mut live: Vec<HandleId> = net.open_flows().map(|(h, _)| h).collect();
                    live.sort();
                    if !live.is_empty() {
                        net.teardown(live[raw % live.len()]);
                    }
                }
                4 => net.fail_link(link),
                5 => net.restore_link(link),
                6 => {
                    net.crash_gateway(ad);
                    net.restore_gateway(ad);
                }
                7 => net.change_policy(db.policy(ad).clone()),
                8 => {
                    net.quarantine_ad(ad, None);
                    net.lift_quarantine(ad);
                }
                9 => {
                    net.repair_pending(2);
                }
                _ => {}
            }
            // Every step ends with an abandon of some class.
            let g = pool[(raw / 7) % pool.len()];
            let live = net.open_flows().any(|(_, of)| of.flow == g);
            let before = installed(&net, &g);
            let total = cached(&net);
            let purged = net.abandon_open(&g, 1, adroute::sim::SimTime::ZERO, None);
            if live {
                prop_assert_eq!(purged, 0, "purged under a live flow of the class");
                prop_assert_eq!(installed(&net, &g), before);
            } else {
                prop_assert_eq!(purged, before.iter().sum::<usize>());
                prop_assert!(installed(&net, &g).iter().all(|&n| n == 0));
            }
            prop_assert_eq!(cached(&net), total - purged, "another class lost handles");
        }
        prop_assert_eq!(net.total_stale_forwards(), 0);
    }
}

fn net_precompute(net: &mut OrwgNetwork, f: &FlowSpec) {
    let src = f.src;
    net.server_mut(src).precompute(&[*f]);
}

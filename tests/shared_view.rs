//! LS hop-by-hop routers borrow their view and their routes from one
//! store; this battery checks that sharing changed nothing a router can
//! observe. The oracle is computed here, the slow way the routers used to:
//! for every router, rebuild the view **its own** database describes and
//! run the policy-constrained search from the flow's source over it. The
//! router's `next_hop` must be its successor on that route — whatever the
//! databases went through to get where they are, and in particular when
//! they disagree — and two routers must hold the same view object exactly
//! when their databases hold the same LSA allocations.

use std::sync::Arc;

use adroute::policy::legality::legal_route;
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::FlowSpec;
use adroute::protocols::forwarding::{sample_flows, DataPlane};
use adroute::protocols::ls_hbh::LsHbh;
use adroute::sim::{ChannelFaults, Engine, MisbehaviorModel, MisbehaviorSpec, SimTime};
use adroute::topology::{AdId, HierarchyConfig, LinkId};
use proptest::prelude::*;

mod common;
use common::{small_internet, take, Case, Step};

/// Every router against the oracle over its own database, then the
/// sharing relation. Returns how many distinct databases there were.
fn check(e: &mut Engine<LsHbh>, flows: &[FlowSpec]) -> Result<usize, TestCaseError> {
    let ads: Vec<AdId> = e.topo().ad_ids().collect();
    for &ad in &ads {
        let (topo, db) = e.router(ad).flooder.db.view();
        for f in flows {
            let want = legal_route(&topo, &db, f).and_then(|r| {
                let i = r.path.iter().position(|&a| a == ad)?;
                r.path.get(i + 1).copied()
            });
            let got = e.next_hop(ad, f, None, &mut ());
            prop_assert_eq!(got, want, "{} resolves {} unlike its own database", ad, f);
        }
    }
    let mut distinct = 0;
    for (i, &a) in ads.iter().enumerate() {
        let (ra, mut first) = (e.router(a), true);
        for &b in &ads[..i] {
            let rb = e.router(b);
            let same_db = ra.flooder.db.shares_all_lsas_with(&rb.flooder.db);
            let same_view = Arc::ptr_eq(ra.view().unwrap(), rb.view().unwrap());
            prop_assert_eq!(
                same_view,
                same_db,
                "{} and {}: view shared != LSAs shared",
                a,
                b
            );
            first &= !same_db;
        }
        distinct += usize::from(first);
    }
    // Every router just resolved, so nothing unheld is left in the store.
    prop_assert_eq!(e.protocol().views().num_views(), distinct);
    Ok(distinct)
}

proptest! {
    /// 64 cases by default; `scripts/ci.sh` raises it with `PROPTEST_CASES`.
    #[test]
    fn routers_resolve_as_their_own_database_says(
        seed in 0u64..10_000,
        scenario in 0usize..6,
        pick in 0usize..1_000,
    ) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let flows = sample_flows(&topo, 8, seed ^ 0x5);
        let ad = AdId((pick % topo.num_ads()) as u32);
        let link = LinkId((pick % topo.num_links()) as u32);
        let mut proto = LsHbh::new(&topo, db);
        if scenario == 3 {
            proto.misbehavior = MisbehaviorSpec::single(ad, MisbehaviorModel::LsaReplay);
        }
        let mut e = Engine::new(topo, proto);
        match scenario {
            // Clean convergence.
            0 => {}
            // A channel that loses, corrupts, duplicates and reorders
            // floods: databases may end up apart for good.
            1 => e.set_channel_faults(Some(ChannelFaults::lossy(0.15, seed))),
            // A crash empties one database, checked while it is down and
            // after the restart relearned it; or a link flaps under
            // routers that already hold views and FIBs.
            2 | 5 => {
                let case = Case { lossy: None, link, victim: ad };
                let script = if scenario == 2 { case.crash_restart() } else { case.flap() };
                for step in [Step::Quiesce].into_iter().chain(script) {
                    take(&mut e, step)?;
                    check(&mut e, &flows)?;
                }
            }
            // A replayer floods stale LSAs under inflated sequence
            // numbers when a link event gives it something to replay;
            // checked while forgeries and cures are still in flight.
            3 => {
                e.run_to_quiescence();
                e.schedule_link_change(link, false, e.now().plus_us(1000));
                e.run_until(e.now().plus_us(1000 + 500 * (1 + pick as u64 % 8)));
                check(&mut e, &flows)?;
                // (Healed, so a bridge does not leave two halves apart.)
                e.schedule_link_change(link, true, e.now().plus_us(1000));
            }
            // Stopped mid-flood: databases genuinely differ.
            _ => {
                e.run_until(SimTime(500 * (1 + pick as u64 % 10)));
                check(&mut e, &flows)?;
            }
        }
        e.run_to_quiescence();
        let distinct = check(&mut e, &flows)?;
        // FIB hits answer as the searches did.
        prop_assert_eq!(check(&mut e, &flows)?, distinct);
        if scenario != 1 {
            prop_assert_eq!(distinct, 1, "scenario {}: quiesced with databases apart", scenario);
        }
    }
}

/// The battery's mid-flood scenario is not vacuous: on the Figure-1
/// internet stopped early, routers hold many different views at once, and
/// they collapse to one at quiescence.
#[test]
fn mid_flood_routers_hold_different_views() {
    let topo = HierarchyConfig::figure1().generate();
    let db = PolicyWorkload::default_mix(5).generate(&topo);
    let flows = sample_flows(&topo, 8, 5);
    let mut e = Engine::new(topo.clone(), LsHbh::new(&topo, db));
    e.run_until(SimTime(2500));
    assert!(e.pending_events() > 0, "already quiescent");
    let distinct = check(&mut e, &flows).unwrap();
    assert!(distinct > 1, "every database already agrees");
    e.run_to_quiescence();
    assert_eq!(check(&mut e, &flows).unwrap(), 1);
}

//! The link-state, hop-by-hop design point with explicit policy terms
//! (paper Section 5.3).
//!
//! Policy-bearing LSAs are flooded, so every AD holds the complete
//! topology-and-policy view and **can** discover any legal route. But
//! forwarding is still hop-by-hop: to stay consistent (and loop-free),
//! every AD on a path must repeat the *same* policy-constrained route
//! computation the source performed — "an AD potentially must compute a
//! separate spanning tree for each potential source of traffic", and all
//! ADs "must be aware of policy related criteria used by the source",
//! which is why per-source criteria cannot be private here.
//!
//! The implementation makes that burden measurable without paying for it
//! in wall time: the ledger charges the protocol, the simulator shares the
//! work. A router **owns** what the paper counts — its flooded database,
//! its per-class FIB and its counters: the first time it resolves a class
//! it is charged one [`LsHbhRouter::route_computations`] and fills one
//! [`LsHbhRouter::fib_entries`] slot, experiment E5's two curves. It
//! **borrows** what identical inputs make identical — the view its
//! database describes and the legal route from the flow's *source* over
//! that view — from the protocol's [`ViewStore`], which reconstructs one
//! view per distinct database and searches once per (view, flow). Routers
//! whose databases differ hold different views, so what each forwards on
//! is exactly what its own database says. The transit ADs of the ORWG
//! architecture (`adroute-core`) are charged neither; that contrast is the
//! paper's central argument for source routing.

use std::collections::HashMap;
use std::sync::Arc;

use adroute_policy::{FlowSpec, PolicyDb, TransitPolicy};
use adroute_sim::{Ctx, Engine, MisbehaviorModel, MisbehaviorSpec, Protocol};
use adroute_topology::{AdId, AdLevel, LinkId, Topology};

use crate::forwarding::DataPlane;
use crate::linkstate::{FloodMsg, Flooder, LsView, Lsa, ViewStore};

/// Protocol configuration: the policies each AD will advertise in its
/// LSAs, and the levels used in reconstruction.
#[derive(Clone, Debug)]
pub struct LsHbh {
    /// Ground-truth per-AD policies. Each router reads **only its own**
    /// entry at origination time; everything else it learns by flooding.
    pub policies: PolicyDb,
    /// Hierarchy level per AD, advertised in LSAs.
    pub levels: Vec<AdLevel>,
    /// Byzantine misbehavior assignments. An AD tagged
    /// [`MisbehaviorModel::LsaReplay`] re-floods its *stale* stored copy
    /// of another origin's LSA under an inflated sequence number whenever
    /// a fresh one arrives — the classic replay-with-seq-abuse attack.
    /// The origin's self-originated-LSA ghost rule is both the detection
    /// signal (`ls_seq_jump`) and the cure (re-origination supersedes the
    /// forgery everywhere).
    pub misbehavior: MisbehaviorSpec,
    /// The views the routers' databases describe and the routes searched
    /// over them, shared by every router that would compute the same.
    /// Only the data plane writes it ([`Engine<LsHbh>`]'s
    /// [`DataPlane::next_hop`]); the flooding handlers never look.
    views: ViewStore,
}

impl LsHbh {
    /// Builds the configuration from a topology and its policies.
    pub fn new(topo: &Topology, policies: PolicyDb) -> LsHbh {
        LsHbh {
            policies,
            levels: topo.ads().map(|a| a.level).collect(),
            misbehavior: MisbehaviorSpec::default(),
            views: ViewStore::default(),
        }
    }

    /// The shared view-and-route store (its counters say how much work
    /// the routers' charges actually cost).
    pub fn views(&self) -> &ViewStore {
        &self.views
    }
}

/// Per-AD router state. Owned: the flooded database, the lazily filled
/// per-class FIB and the burden counters. Borrowed: the view the database
/// describes, held as a shared `Arc` and never rebuilt here.
#[derive(Clone, Debug)]
pub struct LsHbhRouter {
    me: AdId,
    /// Flooding machinery and the local database copy.
    pub flooder: Flooder,
    /// The shared view of the database as of the version it is keyed by.
    view: Option<(u64, Arc<LsView>)>,
    /// Per-traffic-class forwarding cache: the flow's full class identity
    /// maps to the computed next hop (None = no legal route).
    fib: HashMap<FlowSpec, Option<AdId>>,
    /// Policy-constrained route computations performed (E5 measure).
    pub route_computations: u64,
    /// Remaining LSA-replay forgeries this router may emit. Nonzero only
    /// for ADs tagged [`MisbehaviorModel::LsaReplay`]; bounded because
    /// every forgery provokes a higher-sequence re-origination from the
    /// victim, so an unbounded replayer would never let flooding quiesce.
    replay_budget: u32,
}

impl LsHbhRouter {
    /// Current number of cached per-class FIB entries (E5 measure).
    pub fn fib_entries(&self) -> usize {
        self.fib.len()
    }

    /// The shared view this router last resolved on, if it has resolved.
    pub fn view(&self) -> Option<&Arc<LsView>> {
        self.view.as_ref().map(|(_, v)| v)
    }

    /// Resolves the next hop for `flow` at this router, charging and
    /// caching the computation if the class is new here.
    pub(crate) fn resolve(&mut self, views: &mut ViewStore, flow: &FlowSpec) -> Option<AdId> {
        let version = self.flooder.db.version();
        if self.view.as_ref().map(|(ver, _)| *ver) != Some(version) {
            // Let go of the old view first, so the store can drop it if
            // this was its last holder.
            self.view = None;
            self.view = Some((version, views.view_of(&self.flooder.db)));
            self.fib.clear();
        }
        if let Some(hit) = self.fib.get(flow) {
            return *hit;
        }
        let (_, view) = self.view.as_ref().expect("view refreshed above");
        // Repeat the source's computation: the full legal route from the
        // flow's *source*, then take our successor on it. Identical
        // databases and a deterministic algorithm make this consistent
        // across the path — the consistency requirement of Section 5.3 —
        // and are also why the store can answer from the first router's
        // search while this one is charged for its own.
        self.route_computations += 1;
        let next = views.route(view, flow).and_then(|path| {
            let i = path.iter().position(|&a| a == self.me)?;
            path.get(i + 1).copied()
        });
        self.fib.insert(*flow, next);
        next
    }
}

impl Protocol for LsHbh {
    type Router = LsHbhRouter;
    type Msg = FloodMsg;

    fn make_router(&self, topo: &Topology, ad: AdId) -> LsHbhRouter {
        let replayer = self.misbehavior.model_of(ad) == Some(MisbehaviorModel::LsaReplay);
        LsHbhRouter {
            me: ad,
            flooder: Flooder::new(ad, topo.num_ads()),
            view: None,
            fib: HashMap::new(),
            route_computations: 0,
            replay_budget: if replayer { 4 } else { 0 },
        }
    }

    fn on_start(&self, r: &mut LsHbhRouter, ctx: &mut Ctx<'_, FloodMsg>) {
        let level = self.levels[r.me.index()];
        let policy: TransitPolicy = self.policies.policy(r.me).clone();
        r.flooder.originate(ctx, level, policy);
    }

    fn on_message(
        &self,
        r: &mut LsHbhRouter,
        ctx: &mut Ctx<'_, FloodMsg>,
        from: AdId,
        _link: LinkId,
        msg: FloodMsg,
    ) {
        // A replayer captures its *stale* stored copy of the origin's LSA
        // before the flooder overwrites it, then re-floods that stale
        // content under an inflated sequence number so honest routers
        // prefer the forgery over the genuine update. The forgery is a new
        // `Lsa` of its own: a shared one is never edited.
        let forged = if r.replay_budget > 0 && msg.origin != r.me {
            r.flooder
                .db
                .get(msg.origin)
                .filter(|old| old.seq < msg.seq && old.links != msg.links)
                .map(|old| {
                    Arc::new(Lsa {
                        seq: msg.seq + 7,
                        ..old.clone()
                    })
                })
        } else {
            None
        };
        // The flooder emits its accept/duplicate record before forwarding
        // the LSA, so flood fan-out anchors to the acceptance in the
        // causal log.
        r.flooder.handle(ctx, from, msg);
        if let Some(forged) = forged {
            r.replay_budget -= 1;
            ctx.count("lsa_replay_forged", 1);
            for (nbr, _) in ctx.neighbors() {
                ctx.send(nbr, forged.clone());
            }
        }
    }

    fn on_link_event(
        &self,
        r: &mut LsHbhRouter,
        ctx: &mut Ctx<'_, FloodMsg>,
        _link: LinkId,
        neighbor: AdId,
        up: bool,
    ) {
        // Re-originate with the new adjacency list; flooding spreads it.
        let level = self.levels[r.me.index()];
        let policy = self.policies.policy(r.me).clone();
        r.flooder.originate(ctx, level, policy);
        if up {
            // Database exchange over the fresh adjacency: catch the
            // neighbor up on anything that happened while we were apart.
            r.flooder.resync(ctx, neighbor);
        }
    }

    fn msg_size(&self, msg: &FloodMsg) -> usize {
        msg.encoded_size()
    }
}

impl DataPlane for Engine<LsHbh> {
    type Mark = ();

    fn next_hop(
        &mut self,
        at: AdId,
        flow: &FlowSpec,
        _prev: Option<AdId>,
        _mark: &mut (),
    ) -> Option<AdId> {
        let (proto, router) = self.protocol_and_router_mut(at);
        router.resolve(&mut proto.views, flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarding::{audit_path, forward, sample_flows, ForwardOutcome};
    use adroute_policy::workload::PolicyWorkload;
    use adroute_policy::{PolicyAction, PolicyCondition};
    use adroute_topology::generate::{line, ring, HierarchyConfig};

    fn converge(topo: Topology, db: PolicyDb) -> Engine<LsHbh> {
        let proto = LsHbh::new(&topo, db);
        let mut e = Engine::new(topo, proto);
        e.run_to_quiescence();
        e
    }

    #[test]
    fn floods_full_database_everywhere() {
        let topo = ring(6);
        let e = converge(topo, PolicyDb::permissive(&ring(6)));
        for ad in e.topo().ad_ids() {
            assert_eq!(e.router(ad).flooder.db.num_lsas(), 6, "{ad} has partial db");
        }
    }

    #[test]
    fn delivers_policy_compliant_routes() {
        let topo = ring(6);
        let mut db = PolicyDb::permissive(&topo);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let mut e = converge(topo, db.clone());
        let topo = e.topo().clone();
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        let out = forward(&mut e, &topo, &f);
        let ForwardOutcome::Delivered { path } = &out else {
            panic!("{out:?}")
        };
        // Must route the long way (around AD1) and compliantly.
        assert!(!path[1..path.len() - 1].contains(&AdId(1)));
        assert!(audit_path(&topo, &db, &f, path).compliant());
    }

    #[test]
    fn finds_any_legal_route_like_the_oracle() {
        // The paper: this architecture "allows an AD to discover a valid
        // route if one in fact exists". Score availability = 1.0.
        let topo = HierarchyConfig::figure1().generate();
        let db = PolicyWorkload::default_mix(3).generate(&topo);
        let mut e = converge(topo.clone(), db.clone());
        let flows = sample_flows(&topo, 30, 5);
        let score = crate::forwarding::score_flows(&mut e, &topo, &db, &flows);
        assert_eq!(score.violating, 0, "LS-HBH must never violate policy");
        assert!(
            (score.availability() - 1.0).abs() < f64::EPSILON,
            "availability {} (found {}/{})",
            score.availability(),
            score.compliant_of_legal,
            score.legal_exists
        );
    }

    #[test]
    fn transit_burden_counts_computations() {
        let topo = line(5);
        let db = PolicyDb::permissive(&topo);
        let mut e = converge(topo, db);
        let topo = e.topo().clone();
        // Three distinct sources send to AD4; the transit AD3 must compute
        // once per source class.
        for src in [0u32, 1, 2] {
            let f = FlowSpec::best_effort(AdId(src), AdId(4));
            let out = forward(&mut e, &topo, &f);
            assert!(out.delivered());
        }
        let transit = e.router(AdId(3));
        assert_eq!(transit.route_computations, 3);
        assert_eq!(transit.fib_entries(), 3);
        // Repeating a flow hits the cache: no new computation.
        let f = FlowSpec::best_effort(AdId(0), AdId(4));
        let _ = forward(&mut e, &topo, &f);
        assert_eq!(e.router(AdId(3)).route_computations, 3);
    }

    #[test]
    fn every_hop_is_charged_but_the_work_is_done_once() {
        let topo = line(5);
        let db = PolicyDb::permissive(&topo);
        let mut e = converge(topo, db);
        let topo = e.topo().clone();
        let f = FlowSpec::best_effort(AdId(0), AdId(4));
        assert!(forward(&mut e, &topo, &f).delivered());
        // The work: one view for the one distinct database, one search.
        let views = e.protocol().views();
        assert_eq!((views.views_built, views.searches), (1, 1));
        assert_eq!(views.num_views(), 1);
        // The charge: each of the four routers the packet crossed computed
        // the class once and holds it; the destination never resolved.
        for ad in 0..4u32 {
            let r = e.router(AdId(ad));
            assert_eq!((r.route_computations, r.fib_entries()), (1, 1), "AD{ad}");
            assert!(Arc::ptr_eq(
                r.view().unwrap(),
                e.router(AdId(0)).view().unwrap()
            ));
        }
        let dst = e.router(AdId(4));
        assert_eq!((dst.route_computations, dst.fib_entries()), (0, 0));
        assert!(dst.view().is_none());
    }

    #[test]
    fn store_holds_no_more_views_than_distinct_live_databases() {
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        let mut e = converge(topo, db);
        let l = e.topo().link_between(AdId(0), AdId(1)).unwrap();
        for k in 0..6u64 {
            // Every router sources a flow, so every router moves on to the
            // view of its current database and lets the last flap's go.
            let truth = e.topo().clone();
            for src in truth.ad_ids() {
                let f = FlowSpec::best_effort(src, AdId((src.0 + 3) % 6));
                assert!(forward(&mut e, &truth, &f).delivered());
            }
            let db0 = &e.router(AdId(0)).flooder.db;
            assert!(
                (truth.ad_ids()).all(|ad| e.router(ad).flooder.db.shares_all_lsas_with(db0)),
                "quiescent databases agree: one distinct live database"
            );
            let views = e.protocol().views();
            assert_eq!(views.views_built, k + 1, "one rebuild per flap");
            assert_eq!(views.num_views(), 1, "an unheld view outlived a lookup");
            e.schedule_link_change(l, k % 2 == 1, e.now().plus_us(1000));
            e.run_to_quiescence();
        }
    }

    #[test]
    fn source_specific_policy_multiplies_transit_state() {
        // AD2 on a line serves flows from many sources; each distinct
        // source is a distinct class — the spanning-tree replication of
        // Section 5.3.
        let topo = line(8);
        let db = PolicyDb::permissive(&topo);
        let mut e = converge(topo, db);
        let topo = e.topo().clone();
        for src in 0..6u32 {
            let f = FlowSpec::best_effort(AdId(src), AdId(7));
            let _ = forward(&mut e, &topo, &f);
        }
        assert_eq!(e.router(AdId(6)).fib_entries(), 6);
    }

    #[test]
    fn reconverges_after_failure_and_flushes_fibs() {
        let topo = ring(5);
        let db = PolicyDb::permissive(&topo);
        let mut e = converge(topo, db);
        let topo0 = e.topo().clone();
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        let out = forward(&mut e, &topo0, &f);
        assert_eq!(out.path(), &[AdId(0), AdId(1), AdId(2)]);
        let l = e.topo().link_between(AdId(0), AdId(1)).unwrap();
        let t = e.now().plus_us(1000);
        e.schedule_link_change(l, false, t);
        e.run_to_quiescence();
        let topo1 = e.topo().clone();
        let out = forward(&mut e, &topo1, &f);
        let ForwardOutcome::Delivered { path } = &out else {
            panic!("{out:?}")
        };
        assert_eq!(path, &vec![AdId(0), AdId(4), AdId(3), AdId(2)]);
    }

    #[test]
    fn prev_conditioned_policy_is_honored() {
        // AD1 on a ring accepts transit only from prev AD3.
        let topo = ring(4);
        let mut db = PolicyDb::permissive(&topo);
        let mut p1 = TransitPolicy::deny_all(AdId(1));
        p1.push_term(
            vec![PolicyCondition::PrevIn(adroute_policy::AdSet::only([
                AdId(2),
            ]))],
            PolicyAction::Permit { cost: 0 },
        );
        db.set_policy(p1);
        let mut e = converge(topo, db.clone());
        let topo = e.topo().clone();
        // 0 -> 2: direct via AD1 is illegal (prev would be 0); go via 3.
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        let out = forward(&mut e, &topo, &f);
        let ForwardOutcome::Delivered { path } = &out else {
            panic!("{out:?}")
        };
        assert_eq!(path, &vec![AdId(0), AdId(3), AdId(2)]);
        assert!(audit_path(&topo, &db, &f, path).compliant());
    }

    #[test]
    fn partition_heal_resynchronizes_databases() {
        // Partition a line, change topology on one side during the
        // partition, then heal: the other side must learn about it via
        // the database exchange (plain flooding would never deliver it).
        let topo = line(5); // 0-1-2-3-4
        let db = PolicyDb::permissive(&topo);
        let mut e = converge(topo, db);
        let cut = e.topo().link_between(AdId(1), AdId(2)).unwrap();
        let right_cut = e.topo().link_between(AdId(3), AdId(4)).unwrap();
        let t = e.now().plus_us(1000);
        e.schedule_link_change(cut, false, t);
        // While partitioned, 3-4 fails AND recovers: the left side misses
        // both floods.
        e.schedule_link_change(right_cut, false, t.plus_us(2000));
        e.schedule_link_change(right_cut, true, t.plus_us(4000));
        e.run_to_quiescence();
        // Heal the partition.
        let t2 = e.now().plus_us(1000);
        e.schedule_link_change(cut, true, t2);
        e.run_to_quiescence();
        // AD0's view must now match ground truth exactly.
        let (view, _) = e.router(AdId(0)).flooder.db.view();
        assert_eq!(view.num_links(), 4, "AD0 missing links after heal");
        assert!(view.link_between(AdId(3), AdId(4)).is_some());
        assert!(e.stats.counter("ls_resync") > 0);
        // And the healed network routes end-to-end.
        let truth = e.topo().clone();
        let out = forward(&mut e, &truth, &FlowSpec::best_effort(AdId(0), AdId(4)));
        assert!(out.delivered(), "{out:?}");
    }

    #[test]
    fn flooding_overhead_counted() {
        let topo = ring(6);
        let e = converge(topo, PolicyDb::permissive(&ring(6)));
        // Every LSA crosses most links; duplicates are suppressed but
        // counted.
        assert!(e.stats.msgs_sent >= 6 * 5);
        assert!(e.stats.counter("flood_dup") > 0);
        assert!(e.stats.bytes_sent > 0);
    }

    #[test]
    fn lsa_replayer_is_detected_and_superseded() {
        let topo = ring(5);
        let db = PolicyDb::permissive(&topo);
        let mut proto = LsHbh::new(&topo, db);
        proto.misbehavior = MisbehaviorSpec::single(AdId(2), MisbehaviorModel::LsaReplay);
        let mut e = Engine::new(topo, proto);
        e.run_to_quiescence();
        // Fail a link: its endpoints re-originate, and the replayer at AD2
        // re-floods its stale pre-failure copies under inflated sequence
        // numbers.
        let l = e.topo().link_between(AdId(0), AdId(1)).unwrap();
        let t = e.now().plus_us(1000);
        e.schedule_link_change(l, false, t);
        e.run_to_quiescence();
        assert!(e.stats.counter("lsa_replay_forged") > 0, "never forged");
        // Detection: the victim's ghost rule fires on its own forged LSA.
        assert!(e.stats.counter("ls_seq_jump") > 0, "replay undetected");
        // Self-healing: the bounded replayer loses — every database ends
        // with AD0's genuine post-failure adjacency list (one link left).
        let truth = e.topo().clone();
        for ad in truth.ad_ids() {
            let lsa = e.router(ad).flooder.db.get(AdId(0)).unwrap();
            assert_eq!(lsa.links.len(), 1, "stale ghost survives at {ad}");
        }
        let out = forward(&mut e, &truth, &FlowSpec::best_effort(AdId(0), AdId(2)));
        assert!(out.delivered(), "{out:?}");
    }

    #[test]
    fn deterministic() {
        let run = || {
            let topo = ring(6);
            let mut e = Engine::new(topo, LsHbh::new(&ring(6), PolicyDb::permissive(&ring(6))));
            let t = e.run_to_quiescence();
            (t, e.stats.msgs_sent, e.stats.bytes_sent)
        };
        assert_eq!(run(), run());
    }
}

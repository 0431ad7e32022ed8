//! The NIST/ECMA design point: distance vector, hop-by-hop, policy
//! embedded in the topology (paper Section 5.1.1).
//!
//! All policy is expressed through a centrally coordinated **global partial
//! ordering** of ADs. Every link traversal is *up* or *down* relative to
//! the ordering, and the forwarding rule — once a packet traverses a down
//! link it may never traverse another up link — prevents loops and
//! count-to-infinity on arbitrary (cyclic) topologies.
//!
//! Mechanically, every router keeps **two metrics per (destination, QOS)**:
//!
//! * `any` — the best metric over valley-free paths (usable by packets
//!   that have not yet gone down);
//! * `alldown` — the best metric over all-down paths (the only paths
//!   usable by packets that have already gone down).
//!
//! Updates advertise both. A receiver reaching the advertiser over an *up*
//! hop may extend the `any` route (phase preserved); over a *down* hop it
//! may extend only the `alldown` route (and the packet becomes marked).
//! Because up traversals strictly ascend the (rank, id) order and down
//! traversals strictly descend it, the route dependency graph is acyclic —
//! which is exactly why ECMA converges without counting to infinity
//! (experiment E10 measures this against [`crate::naive_dv`]).
//!
//! Per-QOS FIBs follow the paper: "an AD defines a separate metric for each
//! QOS supported by at least one of its neighbors; if a particular neighbor
//! does not advertise a particular QOS then the AD assigns an infinite
//! metric". Destination export filters and stub (no-transit) behaviour are
//! the destination-specific policy the design supports; source-specific
//! policy is expressible **only** through the ordering itself — the
//! limitation experiment E3 quantifies.

use adroute_policy::{FlowSpec, QosClass};
use adroute_sim::{Ctx, Engine, EventRecord, MisbehaviorModel, MisbehaviorSpec, Protocol};
use adroute_topology::{AdId, AdRole, LinkId, PartialOrder, Topology};

use crate::forwarding::DataPlane;

/// Per-AD configuration an administrator would set.
#[derive(Clone, Debug)]
pub struct EcmaAdConfig {
    /// QOS classes this AD supports as a transit (class 0 is always
    /// supported). A transit route for class `q` only forms through ADs
    /// supporting `q`.
    pub supported_qos: Vec<QosClass>,
    /// If set, the AD advertises transit routes only toward these
    /// destinations (destination-specific policy).
    pub transit_dests: Option<adroute_policy::AdSet>,
    /// Stub behaviour: advertise reachability of itself only, never
    /// re-advertise others' routes (no transit whatsoever).
    pub no_transit: bool,
}

impl Default for EcmaAdConfig {
    fn default() -> Self {
        EcmaAdConfig {
            supported_qos: vec![QosClass::BEST_EFFORT],
            transit_dests: None,
            no_transit: false,
        }
    }
}

/// Protocol configuration: the coordinated ordering plus per-AD knobs.
#[derive(Clone, Debug)]
pub struct Ecma {
    /// The global partial ordering (rank per AD), as negotiated by the
    /// paper's central authority.
    pub ranks: Vec<u32>,
    /// Number of QOS classes in play (ids `0..qos_classes`).
    pub qos_classes: u8,
    /// Per-AD administrator configuration.
    pub ad_config: Vec<EcmaAdConfig>,
    /// Unreachable metric.
    pub infinity: u32,
    /// Byzantine assignments. ECMA understands
    /// [`MisbehaviorModel::UpDownViolation`]: the violator advertises its
    /// valley-free (`any`) metric in the `alldown` slot and forwards
    /// *marked* packets through the `any` table — breaking the global
    /// up/down rule that makes the ordering loop-free and policy-safe.
    pub misbehavior: MisbehaviorSpec,
}

impl Ecma {
    /// The natural configuration for a generated hierarchy: ranks from
    /// levels, stubs and multi-homed stubs refuse transit, one QOS class.
    pub fn hierarchical(topo: &Topology) -> Ecma {
        let po = PartialOrder::from_levels(topo);
        let ranks = topo.ad_ids().map(|a| po.rank(a)).collect();
        let ad_config = topo
            .ads()
            .map(|ad| EcmaAdConfig {
                no_transit: matches!(ad.role, AdRole::Stub | AdRole::MultiHomedStub),
                ..EcmaAdConfig::default()
            })
            .collect();
        Ecma {
            ranks,
            qos_classes: 1,
            ad_config,
            infinity: 1 << 20,
            misbehavior: MisbehaviorSpec::default(),
        }
    }

    /// A configuration in which **every** AD offers transit, regardless of
    /// role — for synthetic convergence topologies (rings, grids) where
    /// the hierarchy roles are meaningless.
    pub fn all_transit(topo: &Topology) -> Ecma {
        let mut e = Ecma::hierarchical(topo);
        for cfg in &mut e.ad_config {
            cfg.no_transit = false;
        }
        e
    }

    /// A configuration running under an explicitly **negotiated ordering**
    /// — the ranks produced by the central authority's computation
    /// (`adroute_policy::ordering::solve_ordering` /
    /// `greedy_negotiate`). This is how the E3 pipeline closes the loop:
    /// policies → ordering constraints → solved ranks → a running ECMA
    /// network whose forwarding obeys exactly those ranks.
    ///
    /// Stub behaviour still follows the AD roles (a rank cannot express
    /// "no transit at all"; the paper's ECMA uses update filtering for
    /// that, as here).
    ///
    /// # Panics
    /// Panics if `ranks.len() != topo.num_ads()`.
    pub fn with_ordering(topo: &Topology, ranks: Vec<u32>) -> Ecma {
        assert_eq!(ranks.len(), topo.num_ads(), "one rank per AD");
        let mut e = Ecma::hierarchical(topo);
        e.ranks = ranks;
        e
    }

    /// Same, but with `q` QOS classes, each supported by every transit AD
    /// with the given probability (seeded); class 0 is universal.
    pub fn hierarchical_with_qos(topo: &Topology, q: u8, support_prob: f64, seed: u64) -> Ecma {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut e = Ecma::hierarchical(topo);
        e.qos_classes = q.max(1);
        for cfg in &mut e.ad_config {
            for c in 1..q {
                if rng.gen_bool(support_prob) {
                    cfg.supported_qos.push(QosClass(c));
                }
            }
        }
        e
    }

    /// Direction of the hop `from -> to`: `true` if up. Equal ranks break
    /// ties by id so the order is total.
    #[inline]
    fn hop_is_up(&self, from: AdId, to: AdId) -> bool {
        let (rf, rt) = (self.ranks[from.index()], self.ranks[to.index()]);
        rt > rf || (rt == rf && to > from)
    }

    #[inline]
    fn idx(&self, dest: AdId, qos: u8) -> usize {
        dest.index() * self.qos_classes as usize + qos as usize
    }

    fn supports(&self, ad: AdId, qos: u8) -> bool {
        qos == 0
            || self.ad_config[ad.index()]
                .supported_qos
                .contains(&QosClass(qos))
    }

    fn recompute(&self, r: &mut EcmaRouter, ctx: &Ctx<'_, EcmaUpdate>) -> bool {
        let mut changed = false;
        // Resolve each neighbor's adjacency slot once; the inner loop is
        // then a flat array walk with no hashing.
        let neighbors: Vec<(AdId, LinkId, usize)> = ctx
            .neighbors()
            .into_iter()
            .filter_map(|(nbr, link)| ctx.neighbor_slot(nbr).map(|s| (nbr, link, s)))
            .collect();
        let nq = self.qos_classes as usize;
        for dest_i in 0..r.num_ads {
            for qos in 0..nq as u8 {
                let slot = dest_i * nq + qos as usize;
                let mut best = EcmaEntry::unreachable(self.infinity);
                if dest_i == r.me.index() {
                    best = EcmaEntry {
                        any: (0, None),
                        alldown: (0, None),
                    };
                } else {
                    for &(nbr, link, nslot) in &neighbors {
                        let Some(v) = &r.adv_in[nslot] else {
                            continue;
                        };
                        let adv = v[slot];
                        let w = ctx.link_metric(link);
                        if self.hop_is_up(r.me, nbr) {
                            // Up hop: extends valley-free routes only, for
                            // unmarked packets only.
                            let m = adv.0.saturating_add(w).min(self.infinity);
                            if m < best.any.0 {
                                best.any = (m, Some(nbr));
                            }
                        } else {
                            // Down hop: packet becomes marked; must use the
                            // neighbor's all-down route. Extends both
                            // tables (an all-down path is also valley-free).
                            let m = adv.1.saturating_add(w).min(self.infinity);
                            if m < best.any.0 {
                                best.any = (m, Some(nbr));
                            }
                            if m < best.alldown.0 {
                                best.alldown = (m, Some(nbr));
                            }
                        }
                    }
                }
                if r.table[slot] != best {
                    r.table[slot] = best;
                    changed = true;
                }
            }
        }
        changed
    }

    fn advertise(&self, r: &EcmaRouter, ctx: &mut Ctx<'_, EcmaUpdate>) {
        let cfg = &self.ad_config[r.me.index()];
        let nq = self.qos_classes as usize;
        let mut entries = Vec::new();
        for dest_i in 0..r.num_ads {
            let dest = AdId(dest_i as u32);
            let is_self = dest == r.me;
            if !is_self {
                if cfg.no_transit {
                    continue;
                }
                if let Some(filter) = &cfg.transit_dests {
                    if !filter.contains(dest) {
                        continue;
                    }
                }
            }
            for qos in 0..nq as u8 {
                // Carrying transit for a QOS class requires supporting it:
                // non-self routes for unsupported classes are withheld, so
                // neighbors see the paper's "infinite metric".
                if !is_self && !self.supports(r.me, qos) {
                    continue;
                }
                let e = &r.table[dest_i * nq + qos as usize];
                if e.any.0 < self.infinity || e.alldown.0 < self.infinity {
                    // An up/down violator claims its valley-free metric is
                    // available even to marked packets, luring neighbors
                    // into down-then-up routes through it.
                    let alldown = if self.misbehavior.model_of(r.me)
                        == Some(MisbehaviorModel::UpDownViolation)
                    {
                        e.any.0
                    } else {
                        e.alldown.0
                    };
                    entries.push((dest, qos, e.any.0, alldown));
                }
            }
        }
        for (nbr, _) in ctx.neighbors() {
            ctx.send(
                nbr,
                EcmaUpdate {
                    entries: entries.clone(),
                },
            );
        }
    }
}

/// One FIB entry: `(metric, next hop)` for each packet phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EcmaEntry {
    /// Best valley-free route (packets that have not gone down).
    pub any: (u32, Option<AdId>),
    /// Best all-down route (packets already marked).
    pub alldown: (u32, Option<AdId>),
}

impl EcmaEntry {
    fn unreachable(infinity: u32) -> EcmaEntry {
        EcmaEntry {
            any: (infinity, None),
            alldown: (infinity, None),
        }
    }
}

/// A routing update: `(dest, qos, any-metric, alldown-metric)` entries.
#[derive(Clone, Debug)]
pub struct EcmaUpdate {
    /// Advertised routes.
    pub entries: Vec<(AdId, u8, u32, u32)>,
}

/// Per-AD ECMA router state.
#[derive(Clone, Debug)]
pub struct EcmaRouter {
    me: AdId,
    num_ads: usize,
    /// FIBs indexed `dest * qos_classes + qos`.
    pub table: Vec<EcmaEntry>,
    /// Last advertisement per neighbor, indexed by the dense adjacency
    /// slot ([`Ctx::neighbor_slot`]) instead of a hash map.
    adv_in: Vec<Option<Vec<(u32, u32)>>>,
}

impl EcmaRouter {
    /// The FIB entry for `(dest, qos)`.
    pub fn entry(&self, dest: AdId, qos: u8, qos_classes: u8) -> &EcmaEntry {
        &self.table[dest.index() * qos_classes as usize + qos as usize]
    }
}

impl Protocol for Ecma {
    type Router = EcmaRouter;
    type Msg = EcmaUpdate;

    fn make_router(&self, topo: &Topology, ad: AdId) -> EcmaRouter {
        let n = topo.num_ads();
        let nq = self.qos_classes as usize;
        let mut table = vec![EcmaEntry::unreachable(self.infinity); n * nq];
        for q in 0..nq {
            table[ad.index() * nq + q] = EcmaEntry {
                any: (0, None),
                alldown: (0, None),
            };
        }
        EcmaRouter {
            me: ad,
            num_ads: n,
            table,
            adv_in: vec![None; topo.full_degree(ad)],
        }
    }

    fn on_start(&self, r: &mut EcmaRouter, ctx: &mut Ctx<'_, EcmaUpdate>) {
        self.advertise(r, ctx);
    }

    fn on_message(
        &self,
        r: &mut EcmaRouter,
        ctx: &mut Ctx<'_, EcmaUpdate>,
        from: AdId,
        _link: LinkId,
        msg: EcmaUpdate,
    ) {
        let nq = self.qos_classes as usize;
        let mut v = vec![(self.infinity, self.infinity); r.num_ads * nq];
        for (dest, qos, any, alldown) in msg.entries {
            // Out-of-range destinations or classes from a buggy neighbor
            // are ignored, never indexed.
            if (qos as usize) < nq && dest.index() < r.num_ads {
                v[self.idx(dest, qos)] = (any.min(self.infinity), alldown.min(self.infinity));
            }
        }
        if let Some(slot) = ctx.neighbor_slot(from) {
            r.adv_in[slot] = Some(v);
        }
        ctx.count("ecma_recompute", 1);
        let changed = self.recompute(r, ctx);
        // Emit before advertising: the sends below anchor to this record
        // in the causal log (recompute → triggered updates).
        ctx.emit(EventRecord::RouteRecompute {
            ad: ctx.me(),
            proto: "ecma",
            changed,
        });
        if changed {
            self.advertise(r, ctx);
        }
    }

    fn on_link_event(
        &self,
        r: &mut EcmaRouter,
        ctx: &mut Ctx<'_, EcmaUpdate>,
        _link: LinkId,
        neighbor: AdId,
        up: bool,
    ) {
        if !up {
            if let Some(slot) = ctx.neighbor_slot(neighbor) {
                r.adv_in[slot] = None;
            }
        }
        ctx.count("ecma_recompute", 1);
        let changed = self.recompute(r, ctx);
        ctx.emit(EventRecord::RouteRecompute {
            ad: ctx.me(),
            proto: "ecma",
            changed,
        });
        if changed || up {
            self.advertise(r, ctx);
        }
    }

    fn msg_size(&self, msg: &EcmaUpdate) -> usize {
        4 + 13 * msg.entries.len()
    }
}

impl DataPlane for Engine<Ecma> {
    /// The ECMA packet mark: has the packet traversed a down link yet?
    type Mark = bool;

    fn next_hop(
        &mut self,
        at: AdId,
        flow: &FlowSpec,
        _prev: Option<AdId>,
        gone_down: &mut bool,
    ) -> Option<AdId> {
        let proto = self.protocol();
        if flow.qos.0 >= proto.qos_classes {
            return None;
        }
        let entry = self
            .router(at)
            .entry(flow.dst, flow.qos.0, proto.qos_classes);
        // An up/down violator backs its advertisement lie on the data
        // plane: marked packets are forwarded through the unrestricted
        // (valley-free) table, taking up hops they must not.
        let violate = proto.misbehavior.model_of(at) == Some(MisbehaviorModel::UpDownViolation);
        let (metric, hop) = if *gone_down && !violate {
            entry.alldown
        } else {
            entry.any
        };
        if metric >= proto.infinity {
            return None;
        }
        let next = hop?;
        if !proto.hop_is_up(at, next) {
            *gone_down = true;
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarding::{forward, ForwardOutcome};
    use adroute_topology::generate::HierarchyConfig;
    use adroute_topology::{graph::make_ad, AdLevel};

    /// Backbone B(0); regionals R1(1), R2(2); campuses C1(3) under R1,
    /// C2(4) under R2; lateral R1-R2; multi-homed campus C3(5) under both
    /// R1 and R2.
    fn testnet() -> Topology {
        let ads = vec![
            make_ad(0, AdLevel::Backbone),
            make_ad(1, AdLevel::Regional),
            make_ad(2, AdLevel::Regional),
            make_ad(3, AdLevel::Campus),
            make_ad(4, AdLevel::Campus),
            make_ad(5, AdLevel::Campus),
        ];
        let mut t = Topology::new(
            ads,
            &[
                (AdId(0), AdId(1), 1),
                (AdId(0), AdId(2), 1),
                (AdId(1), AdId(2), 1),
                (AdId(1), AdId(3), 1),
                (AdId(2), AdId(4), 1),
                (AdId(1), AdId(5), 1),
                (AdId(2), AdId(5), 1),
            ],
        );
        t.reclassify_roles();
        t
    }

    fn converge(topo: Topology) -> Engine<Ecma> {
        let proto = Ecma::hierarchical(&topo);
        let mut e = Engine::new(topo, proto);
        e.run_to_quiescence();
        e
    }

    #[test]
    fn converges_and_routes_across_hierarchy() {
        let mut e = converge(testnet());
        let topo = e.topo().clone();
        let f = FlowSpec::best_effort(AdId(3), AdId(4));
        let out = forward(&mut e, &topo, &f);
        assert!(out.delivered(), "{out:?}");
        // Route must be valley-free under the level ordering.
        let po = PartialOrder::from_levels(&topo);
        assert!(po.is_valley_free(out.path()));
    }

    #[test]
    fn multihomed_stub_never_carries_transit() {
        let mut e = converge(testnet());
        let topo = e.topo().clone();
        // C3 (AD5) is multi-homed under R1 and R2 but refuses transit:
        // no R1<->R2 traffic may pass through it even though it is a
        // 2-hop physical path.
        for f in [
            FlowSpec::best_effort(AdId(3), AdId(4)),
            FlowSpec::best_effort(AdId(1), AdId(2)),
            FlowSpec::best_effort(AdId(4), AdId(3)),
        ] {
            let out = forward(&mut e, &topo, &f);
            if let ForwardOutcome::Delivered { path } = &out {
                assert!(
                    !path[1..path.len() - 1].contains(&AdId(5)),
                    "transit through multi-homed stub: {path:?}"
                );
            } else {
                panic!("flow {f} not delivered: {out:?}");
            }
        }
        // But C3 itself can still send and receive.
        let out = forward(
            &mut e,
            &topo.clone(),
            &FlowSpec::best_effort(AdId(5), AdId(4)),
        );
        assert!(out.delivered());
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(3), AdId(5)));
        assert!(out.delivered());
    }

    #[test]
    fn no_count_to_infinity_on_failure() {
        let mut e = converge(testnet());
        // Fail R1-B; routes shift to lateral / other side without
        // count-to-infinity (messages bounded well below naive DV's).
        let l = e.topo().link_between(AdId(0), AdId(1)).unwrap();
        let t = e.now().plus_us(1000);
        e.schedule_link_change(l, false, t);
        e.begin_phase("failure-response");
        e.run_to_quiescence();
        let sent = e.stats.phase_delta("failure-response").unwrap().msgs_sent;
        assert!(
            sent < 200,
            "suspiciously many messages after one failure: {sent}"
        );
        let topo = e.topo().clone();
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(3), AdId(4)));
        assert!(out.delivered());
    }

    #[test]
    fn packets_never_take_valleys_even_when_shorter() {
        // C1 - R1 - C3 - R2 - C4: the path through the campus C3 is the
        // physically shortest R1->R2 connection if the lateral fails, but
        // it is a valley (down into C3, up out) and must not be used.
        let mut e = converge(testnet());
        let lateral = e.topo().link_between(AdId(1), AdId(2)).unwrap();
        let t = e.now().plus_us(1000);
        e.schedule_link_change(lateral, false, t);
        e.run_to_quiescence();
        let topo = e.topo().clone();
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(3), AdId(4)));
        let ForwardOutcome::Delivered { path } = out else {
            panic!("not delivered: {out:?}");
        };
        assert!(
            !path[1..path.len() - 1].contains(&AdId(5)),
            "valley via stub: {path:?}"
        );
        // Must go over the backbone.
        assert!(path.contains(&AdId(0)), "{path:?}");
    }

    #[test]
    fn qos_support_gates_transit() {
        let topo = testnet();
        let mut proto = Ecma::hierarchical(&topo);
        proto.qos_classes = 2;
        // Only R1 supports QOS 1; R2 and B do not.
        proto.ad_config[1].supported_qos.push(QosClass(1));
        let mut e = Engine::new(topo, proto);
        e.run_to_quiescence();
        let topo = e.topo().clone();
        // Best-effort still works C1->C2.
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(3), AdId(4)));
        assert!(out.delivered());
        // QOS 1 cannot cross R2/B: C1->C2 has no supporting path.
        let f1 = FlowSpec::best_effort(AdId(3), AdId(4)).with_qos(QosClass(1));
        let out = forward(&mut e, &topo, &f1);
        assert!(matches!(out, ForwardOutcome::NoRoute { .. }), "{out:?}");
        // But a destination adjacent to R1 is fine: C1 -> C3 via R1.
        let f2 = FlowSpec::best_effort(AdId(3), AdId(5)).with_qos(QosClass(1));
        let out = forward(&mut e, &topo, &f2);
        assert!(out.delivered(), "{out:?}");
    }

    #[test]
    fn dest_filter_limits_transit() {
        let topo = testnet();
        let mut proto = Ecma::hierarchical(&topo);
        // R2 only carries transit toward C2 (AD4): traffic to R2 itself
        // and to AD4 passes, but R2 won't give C4->B transit toward C1.
        proto.ad_config[2].transit_dests = Some(adroute_policy::AdSet::only([AdId(4)]));
        let mut e = Engine::new(topo, proto);
        e.run_to_quiescence();
        let topo = e.topo().clone();
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(3), AdId(4)));
        assert!(
            out.delivered(),
            "toward the filtered dest must work: {out:?}"
        );
        // C2(4) -> C1(3): R2 refuses to advertise dest 3 to C2, so C2 has
        // no route at all (its only provider is R2).
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(4), AdId(3)));
        assert!(matches!(out, ForwardOutcome::NoRoute { .. }), "{out:?}");
    }

    #[test]
    fn loop_free_on_generated_hierarchies() {
        for seed in [1u64, 2, 3] {
            let topo = HierarchyConfig {
                lateral_prob: 0.3,
                bypass_prob: 0.2,
                multihome_prob: 0.3,
                seed,
                ..HierarchyConfig::default()
            }
            .generate();
            let proto = Ecma::hierarchical(&topo);
            let mut e = Engine::new(topo, proto);
            e.run_to_quiescence();
            let topo = e.topo().clone();
            let po = PartialOrder::from_levels(&topo);
            for f in crate::forwarding::sample_flows(&topo, 40, seed) {
                let out = forward(&mut e, &topo, &f);
                assert!(
                    !matches!(out, ForwardOutcome::Loop { .. }),
                    "loop for {f}: {:?}",
                    out.path()
                );
                if let ForwardOutcome::Delivered { path } = &out {
                    assert!(po.is_valley_free(path), "valley: {path:?}");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let run = || {
            let topo = testnet();
            let proto = Ecma::hierarchical(&topo);
            let mut e = Engine::new(topo, proto);
            let t = e.run_to_quiescence();
            (t, e.stats.msgs_sent, e.stats.bytes_sent)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn solved_ordering_enforces_a_deny_policy_in_forwarding() {
        use adroute_policy::ordering::{solve_ordering, OrderingConstraint};
        // Ring of transit ADs: AD1 refuses to carry AD0 <-> AD2 transit.
        // The authority solves the constraint into ranks; running ECMA
        // under those ranks routes 0->2 the other way around.
        let topo = adroute_topology::generate::ring(4);
        // Note the Permit for AD3: without it the solved ranks leave *both*
        // ring paths as valleys and 0 cannot reach 2 at all — the
        // expressiveness trap of encoding policy in one ordering. The
        // authority must encode willingness as well as refusal.
        let c = [
            OrderingConstraint::Deny {
                via: AdId(1),
                from: AdId(0),
                to: AdId(2),
            },
            OrderingConstraint::Permit {
                via: AdId(3),
                from: AdId(0),
                to: AdId(2),
            },
        ];
        let ranks = match solve_ordering(4, &c) {
            adroute_policy::ordering::OrderingSolution::Satisfiable(r) => r,
            _ => panic!("deny+permit must be satisfiable"),
        };
        let mut proto = Ecma::with_ordering(&topo, ranks);
        for cfg in &mut proto.ad_config {
            cfg.no_transit = false;
        }
        let mut e = Engine::new(topo, proto);
        e.run_to_quiescence();
        let topo = e.topo().clone();
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(0), AdId(2)));
        let ForwardOutcome::Delivered { path } = out else {
            panic!("undelivered")
        };
        assert_eq!(
            path,
            vec![AdId(0), AdId(3), AdId(2)],
            "the valley at AD1 must be avoided"
        );
    }
}

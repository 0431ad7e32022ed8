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
//!
//! The wire carries full (sparse) tables; the router pays for what
//! changed. One advertisement is one shared entry list for every
//! neighbor. A receiver merges it in place into the dense row it keeps
//! for the sender, noting the destinations whose cells change, and
//! re-selects only those; a link event re-selects what that neighbor's
//! last update offers.

use std::sync::Arc;

use adroute_policy::{FlowSpec, QosClass};
use adroute_sim::{Counter, Ctx, Engine, EventRecord, MisbehaviorModel, MisbehaviorSpec, Protocol};
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

    /// The cell of an update entry in a dense row, or `None` for a
    /// destination or class outside our world: a buggy neighbor's entries
    /// are ignored, never indexed.
    fn cell(&self, num_ads: usize, &(dest, qos, ..): &Advert) -> Option<usize> {
        (dest.index() < num_ads && qos < self.qos_classes).then(|| self.idx(dest, qos))
    }

    /// Makes `update` (`None`: nothing, as after a link-down) what the
    /// neighbor in `slot` advertises in place of its last update, merging
    /// it into that neighbor's row, and appends to `dirty` the
    /// destinations whose cells changed. Entries may come in any order; a
    /// later duplicate wins, exactly as if the update were read into a
    /// fresh row.
    fn replace(
        &self,
        r: &mut EcmaRouter,
        slot: usize,
        update: Option<Arc<[Advert]>>,
        dirty: &mut Vec<usize>,
    ) {
        let unreachable = (self.infinity, self.infinity);
        let EcmaRouter {
            num_ads,
            adv_in,
            seen,
            ..
        } = r;
        let heard = &mut adv_in[slot];
        if heard.row.is_empty() && update.is_some() {
            heard.row = vec![unreachable; *num_ads * self.qos_classes as usize];
        }
        let new = update.as_deref().unwrap_or_default();
        // Backwards, so the first sighting of a cell is its last entry.
        for e in new.iter().rev() {
            let Some(i) = self.cell(*num_ads, e) else {
                continue;
            };
            if std::mem::replace(&mut seen[i], true) {
                continue;
            }
            let metrics = (e.2.min(self.infinity), e.3.min(self.infinity));
            if heard.row[i] != metrics {
                heard.row[i] = metrics;
                dirty.push(e.0.index());
            }
        }
        // Cells the last update set and this one does not are withdrawn.
        for e in heard.last.iter().flat_map(|last| last.iter()) {
            let Some(i) = self.cell(*num_ads, e) else {
                continue;
            };
            if !seen[i] && heard.row[i] != unreachable {
                heard.row[i] = unreachable;
                dirty.push(e.0.index());
            }
        }
        for e in new {
            if let Some(i) = self.cell(*num_ads, e) {
                seen[i] = false;
            }
        }
        heard.last = update;
    }

    /// Appends to `dirty` the destinations toward which the neighbor in
    /// `slot` offers a finite metric.
    fn offered(&self, r: &EcmaRouter, slot: usize, dirty: &mut Vec<usize>) {
        let heard = &r.adv_in[slot];
        for e in heard.last.iter().flat_map(|last| last.iter()) {
            let finite = |i: usize| heard.row[i] != (self.infinity, self.infinity);
            if self.cell(r.num_ads, e).is_some_and(finite) {
                dirty.push(e.0.index());
            }
        }
    }

    /// Re-selects the `dirty` destinations, every class, over the rows of
    /// the up neighbors and returns whether any FIB entry changed. The one
    /// selection routine: every other entry is already the one its
    /// unchanged inputs give.
    fn recompute(
        &self,
        r: &mut EcmaRouter,
        ctx: &Ctx<'_, EcmaUpdate>,
        mut dirty: Vec<usize>,
    ) -> bool {
        dirty.sort_unstable();
        dirty.dedup();
        let EcmaRouter {
            me, table, adv_in, ..
        } = r;
        let me = *me;
        // Resolve each neighbor's row and hop direction once; the inner
        // loop is then a flat array walk with no hashing. A neighbor not
        // yet heard from offers nothing.
        let neighbors: Vec<_> = ctx
            .neighbors()
            .into_iter()
            .filter_map(|(nbr, link)| {
                let row = &adv_in[ctx.neighbor_slot(nbr)?].row;
                (!row.is_empty()).then(|| {
                    let up = self.hop_is_up(me, nbr);
                    (nbr, ctx.link_metric(link), up, row.as_slice())
                })
            })
            .collect();
        let nq = self.qos_classes as usize;
        let mut changed = false;
        for dest_i in dirty {
            for qos in 0..nq as u8 {
                let slot = dest_i * nq + qos as usize;
                let mut best = EcmaEntry::unreachable(self.infinity);
                if dest_i == me.index() {
                    best = EcmaEntry {
                        any: (0, None),
                        alldown: (0, None),
                    };
                } else {
                    for &(nbr, w, up, row) in &neighbors {
                        let adv = row[slot];
                        if up {
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
                if table[slot] != best {
                    table[slot] = best;
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
        let entries: Arc<[Advert]> = entries.into();
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

/// One advertised route: `(dest, qos, any-metric, alldown-metric)`.
type Advert = (AdId, u8, u32, u32);

/// A routing update: `(dest, qos, any-metric, alldown-metric)` entries.
#[derive(Clone, Debug)]
pub struct EcmaUpdate {
    /// Advertised routes, only the reachable ones. Every neighbor sent
    /// the same update shares this one allocation.
    pub entries: Arc<[(AdId, u8, u32, u32)]>,
}

/// Per-AD ECMA router state.
#[derive(Clone, Debug)]
pub struct EcmaRouter {
    me: AdId,
    num_ads: usize,
    /// FIBs indexed `dest * qos_classes + qos`.
    pub table: Vec<EcmaEntry>,
    /// What each neighbor advertises, indexed by the dense adjacency slot
    /// ([`Ctx::neighbor_slot`]) instead of a hash map.
    adv_in: Vec<Heard>,
    /// Merge marks, indexed like `table`: the cells the update being
    /// merged sets. All `false` between handler calls.
    seen: Vec<bool>,
}

/// One neighbor's advertisements, as a router holds them.
#[derive(Clone, Debug, Default)]
struct Heard {
    /// The neighbor's last update as it arrived (shared with the sender's
    /// other neighbors); its in-range entries are the only cells of `row`
    /// that may be finite. `None` before the first and after a link-down.
    last: Option<Arc<[Advert]>>,
    /// `(any, alldown)` metrics per `dest * qos_classes + qos`, capped at
    /// `infinity`; empty until the first update, then reused.
    row: Vec<(u32, u32)>,
}

impl EcmaRouter {
    /// The FIB entry for `(dest, qos)`.
    pub(crate) fn entry(&self, dest: AdId, qos: u8, qos_classes: u8) -> &EcmaEntry {
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
            adv_in: vec![Heard::default(); topo.full_degree(ad)],
            seen: vec![false; n * nq],
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
        let mut dirty = Vec::new();
        if let Some(slot) = ctx.neighbor_slot(from) {
            self.replace(r, slot, Some(msg.entries), &mut dirty);
        }
        ctx.count(Counter::EcmaRecompute, 1);
        let changed = self.recompute(r, ctx, dirty);
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
        // The neighbor's row gains or loses its say over what it offers —
        // also a row filled before this link-up.
        let mut dirty = Vec::new();
        match ctx.neighbor_slot(neighbor) {
            Some(slot) if up => self.offered(r, slot, &mut dirty),
            Some(slot) => self.replace(r, slot, None, &mut dirty),
            None => {}
        }
        ctx.count(Counter::EcmaRecompute, 1);
        let changed = self.recompute(r, ctx, dirty);
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

    /// Every `(router, adjacency slot, neighbor)` of a topology.
    fn adjacencies(topo: &Topology) -> Vec<(AdId, usize, AdId)> {
        let slots = |ad| topo.all_neighbors(ad).enumerate();
        topo.ad_ids()
            .flat_map(|ad| slots(ad).map(move |(slot, (nbr, _))| (ad, slot, nbr)))
            .collect()
    }

    /// The destinations of `entries`, ascending, once each.
    fn dests(entries: &[Advert]) -> Vec<usize> {
        let mut d: Vec<usize> = entries.iter().map(|e| e.0.index()).collect();
        d.sort_unstable();
        d.dedup();
        d
    }

    #[test]
    fn identical_readvertisement_dirties_nothing_and_sends_nothing() {
        let mut e = converge(testnet());
        let topo = e.topo().clone();
        let ecma = e.protocol().clone();
        for (ad, slot, _) in adjacencies(&topo) {
            let mut r = e.router(ad).clone();
            let last = r.adv_in[slot].last.clone().expect("converged: heard");
            let row = r.adv_in[slot].row.clone();
            // The same update in another allocation — and in another
            // order, with an earlier duplicate it overrides.
            let mut shuffled = last.to_vec();
            shuffled.reverse();
            if let Some(&(d, q, _, _)) = shuffled.last() {
                shuffled.insert(0, (d, q, 0, 0));
            }
            for update in [last.to_vec(), shuffled] {
                let mut dirty = Vec::new();
                ecma.replace(&mut r, slot, Some(update.into()), &mut dirty);
                assert_eq!(dirty, vec![]);
                assert_eq!(r.adv_in[slot].row, row);
                assert!(r.seen.iter().all(|&s| !s), "merge marks left set");
            }
        }
        // End to end: an up link reported up again makes both ends send
        // every neighbor the update it already holds; nothing moves on.
        let (tables, sent) = (
            topo.ad_ids()
                .map(|a| e.router(a).table.clone())
                .collect::<Vec<_>>(),
            e.stats.msgs_sent,
        );
        let link = topo.link(LinkId(0));
        let at = e.now().plus_us(1000);
        e.schedule_link_change(LinkId(0), true, at);
        e.run_to_quiescence();
        let resent = topo.degree(link.a) + topo.degree(link.b);
        assert_eq!(e.stats.msgs_sent - sent, resent as u64);
        assert!(topo
            .ad_ids()
            .all(|a| e.router(a).table == tables[a.index()]));
    }

    #[test]
    fn neighbor_going_down_dirties_exactly_what_it_offered() {
        let e = converge(testnet());
        let ecma = e.protocol();
        for (ad, slot, nbr) in adjacencies(e.topo()) {
            let mut r = e.router(ad).clone();
            let offered = dests(r.adv_in[slot].last.as_deref().expect("converged: heard"));
            assert!(
                offered.contains(&nbr.index()),
                "{nbr} offers at least itself"
            );
            let mut dirty = Vec::new();
            ecma.replace(&mut r, slot, None, &mut dirty);
            dirty.sort_unstable();
            dirty.dedup();
            assert_eq!(dirty, offered);
            let heard = &r.adv_in[slot];
            assert!(heard.last.is_none());
            assert!(heard
                .row
                .iter()
                .all(|&m| m == (ecma.infinity, ecma.infinity)));
        }
    }

    #[test]
    fn one_advertisement_is_one_shared_update() {
        let e = converge(testnet());
        let topo = e.topo();
        for ad in topo.ad_ids() {
            let held: Vec<Arc<[Advert]>> = topo
                .neighbors(ad)
                .map(|(nbr, _)| {
                    let slot = topo.neighbor_slot(nbr, ad).unwrap();
                    e.router(nbr).adv_in[slot]
                        .last
                        .clone()
                        .expect("converged: heard")
                })
                .collect();
            assert!(
                held.iter().all(|u| Arc::ptr_eq(u, &held[0])),
                "{ad}'s neighbors hold copies"
            );
        }
    }

    #[test]
    fn merge_reads_any_order_out_of_range_and_a_later_duplicate_wins() {
        let topo = testnet();
        let mut ecma = Ecma::hierarchical(&topo);
        ecma.qos_classes = 2;
        let inf = ecma.infinity;
        let mut r = ecma.make_router(&topo, AdId(1));
        let slot = 0;
        // The parent's reading: a fresh dense row, entries in order, out
        // of range ignored, later duplicates overwriting.
        let dense = |entries: &[Advert]| {
            let mut v = vec![(inf, inf); 6 * 2];
            for &(d, q, any, down) in entries {
                if d.index() < 6 && q < 2 {
                    v[d.index() * 2 + q as usize] = (any.min(inf), down.min(inf));
                }
            }
            v
        };
        let first: Vec<Advert> = vec![
            (AdId(4), 1, 7, 9),
            (AdId(2), 0, 3, 3),
            (AdId(9), 0, 1, 1),        // no such AD
            (AdId(3), 5, 1, 1),        // no such class
            (AdId(4), 1, 2, u32::MAX), // later duplicate: wins, capped
            (AdId(0), 0, 1, 1),
        ];
        let second: Vec<Advert> = vec![
            (AdId(0), 0, 1, 1),   // unchanged
            (AdId(4), 1, 2, inf), // unchanged once capped
            (AdId(5), 0, 4, 4),   // new
            (AdId(0), 0, 6, 6),   // earlier duplicate overridden…
            (AdId(0), 0, 1, 1),   // …by the unchanged value
        ]; // AD2's route withdrawn
        let mut dirty = Vec::new();
        ecma.replace(&mut r, slot, Some(first.clone().into()), &mut dirty);
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 2, 4]);
        assert_eq!(r.adv_in[slot].row, dense(&first));
        let mut dirty = Vec::new();
        ecma.replace(&mut r, slot, Some(second.clone().into()), &mut dirty);
        dirty.sort_unstable();
        assert_eq!(dirty, vec![2, 5]);
        assert_eq!(r.adv_in[slot].row, dense(&second));
        assert!(r.seen.iter().all(|&s| !s), "merge marks left set");
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
        let proto = Ecma {
            ranks,
            ..Ecma::all_transit(&topo)
        };
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

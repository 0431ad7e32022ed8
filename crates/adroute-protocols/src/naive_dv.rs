//! A classic Bellman–Ford distance-vector protocol with **no** policy
//! support: the baseline the paper's Section 3/5.1 arguments start from.
//!
//! Routers exchange `(destination, metric)` vectors with neighbors,
//! triggered by change. Without the ECMA partial-order rule the protocol
//! exhibits the classic pathologies on cyclic topologies: transient loops
//! and **count-to-infinity** after failures (bounded here by the
//! configurable `infinity` metric). Split horizon with poisoned reverse is
//! available as a knob for the convergence ablation (E10).
//!
//! Because the protocol knows nothing of policy, its data plane happily
//! routes transit traffic through ADs whose policies forbid it — the
//! policy-integrity failure that the Table-1 capability probe records.
//!
//! The wire carries full tables; the router pays for what changed. One
//! advertisement is one shared table (`Arc<[u32]>`) for every neighbor,
//! with a poisoned copy only for a neighbor that is some destination's
//! next hop. A receiver keeps the sender's table as it arrived, diffs it
//! against the one it replaces and re-selects only the destinations whose
//! offered metric differs; a link event re-selects what that neighbor's
//! table offers.

use std::sync::Arc;

use adroute_policy::FlowSpec;
use adroute_sim::{Ctx, Engine, EventRecord, MisbehaviorModel, MisbehaviorSpec, Protocol};
use adroute_topology::{AdId, LinkId, Topology};

use crate::forwarding::DataPlane;

/// Protocol configuration.
#[derive(Clone, Debug)]
pub struct NaiveDv {
    /// The unreachable metric. Smaller values bound count-to-infinity
    /// sooner (RIP uses 16).
    pub infinity: u32,
    /// Split horizon with poisoned reverse.
    pub split_horizon: bool,
    /// EGP mode: use only **hierarchical** links, modeling EGP's acyclic
    /// topology restriction (paper Section 3: "there can be no cycles in
    /// the EGP graph"). Lateral and bypass links are ignored entirely —
    /// the connectivity they provide is wasted, which experiment E11
    /// quantifies.
    pub hierarchical_only: bool,
    /// Byzantine assignments. DV understands two models:
    /// [`MisbehaviorModel::DistanceFalsification`] (the AD advertises
    /// distance 1 to *every* destination, attracting transit it cannot
    /// serve) and [`MisbehaviorModel::Blackhole`] (honest advertisements,
    /// but the data plane silently drops all through-traffic).
    pub misbehavior: MisbehaviorSpec,
}

impl Default for NaiveDv {
    fn default() -> Self {
        NaiveDv {
            infinity: 64,
            split_horizon: false,
            hierarchical_only: false,
            misbehavior: MisbehaviorSpec::default(),
        }
    }
}

impl NaiveDv {
    /// The EGP model: reachability exchange over the hierarchy tree only.
    pub fn egp() -> NaiveDv {
        NaiveDv {
            hierarchical_only: true,
            ..NaiveDv::default()
        }
    }

    /// Neighbors this configuration is willing to peer with.
    fn peers(&self, ctx: &Ctx<'_, DvUpdate>) -> Vec<(AdId, LinkId)> {
        ctx.neighbors()
            .into_iter()
            .filter(|&(_, l)| {
                !self.hierarchical_only
                    || ctx.link_kind(l) == adroute_topology::LinkKind::Hierarchical
            })
            .collect()
    }
}

/// A distance-vector update: the sender's full distance table.
#[derive(Clone, Debug)]
pub struct DvUpdate {
    /// The metric per destination, indexed by AD id: entry `d` is the
    /// `(AdId(d), metric)` pair on the wire; `metric == infinity` poisons.
    /// Every neighbor sent the same table shares this one allocation.
    pub metrics: Arc<[u32]>,
}

/// Per-AD router state.
#[derive(Clone, Debug)]
pub struct DvRouter {
    me: AdId,
    /// Best known metric per destination (`infinity` = unreachable).
    pub metric: Vec<u32>,
    /// Chosen next hop per destination.
    pub next_hop: Vec<Option<AdId>>,
    /// Last table received from each neighbor, as it arrived (shared with
    /// the sender's other neighbors), indexed by the dense adjacency slot
    /// ([`Ctx::neighbor_slot`]) instead of a hash map.
    adv_in: Vec<Option<Arc<[u32]>>>,
}

impl NaiveDv {
    /// The metric a stored table offers toward `dest`: a destination past
    /// its end (a short table), or a metric past `infinity`, is
    /// unreachable — a buggy or malicious neighbor must not be able to
    /// crash us. No table offers nothing.
    fn offered(&self, table: Option<&[u32]>, dest: usize) -> u32 {
        table
            .and_then(|t| t.get(dest))
            .map_or(self.infinity, |&m| m.min(self.infinity))
    }

    /// The destinations, ascending, toward which `new` offers a different
    /// metric than `old`: the only ones whose selection a switch from one
    /// to the other can change.
    fn diff(&self, r: &DvRouter, old: Option<&[u32]>, new: Option<&[u32]>) -> Vec<usize> {
        (0..r.metric.len())
            .filter(|&dest| self.offered(old, dest) != self.offered(new, dest))
            .collect()
    }

    /// Re-selects the `dirty` destinations over the tables of the up
    /// peers and returns whether any metric or next hop changed. The one
    /// selection routine: every other destination's selection is already
    /// the one its unchanged inputs give.
    fn recompute(&self, r: &mut DvRouter, ctx: &Ctx<'_, DvUpdate>, dirty: &[usize]) -> bool {
        let DvRouter {
            me,
            metric,
            next_hop,
            adv_in,
        } = r;
        // Resolve each peer's table once; the inner loop is then a flat
        // array walk with no hashing. A peer not yet heard from offers
        // nothing.
        let peers: Vec<(AdId, u32, &[u32])> = self
            .peers(ctx)
            .into_iter()
            .filter_map(|(nbr, link)| {
                let table = adv_in[ctx.neighbor_slot(nbr)?].as_deref()?;
                Some((nbr, ctx.link_metric(link), table))
            })
            .collect();
        let mut changed = false;
        for &dest in dirty {
            let (mut best, mut hop) = if dest == me.index() {
                (0u32, None)
            } else {
                (self.infinity, None)
            };
            if dest != me.index() {
                for &(nbr, w, table) in &peers {
                    let m = self
                        .offered(Some(table), dest)
                        .saturating_add(w)
                        .min(self.infinity);
                    if m < best || (m == best && hop.is_some_and(|h| nbr < h)) {
                        best = m;
                        hop = Some(nbr);
                    }
                }
            }
            if metric[dest] != best || next_hop[dest] != hop {
                metric[dest] = best;
                next_hop[dest] = if best >= self.infinity { None } else { hop };
                changed = true;
            }
        }
        changed
    }

    fn advertise(&self, r: &DvRouter, ctx: &mut Ctx<'_, DvUpdate>) {
        let me = r.me.index();
        // A distance falsifier claims to be one hop from everything —
        // split-horizon poisoning included, since the lie is strictly
        // better than any honest poison.
        let falsify =
            self.misbehavior.model_of(r.me) == Some(MisbehaviorModel::DistanceFalsification);
        let shared: Arc<[u32]> = if falsify {
            (0..r.metric.len())
                .map(|dest| if dest == me { r.metric[me] } else { 1 })
                .collect()
        } else {
            r.metric.as_slice().into()
        };
        for (nbr, _) in self.peers(ctx) {
            let poison = self.split_horizon && !falsify && r.next_hop.contains(&Some(nbr));
            let metrics = if poison {
                // Poisoned reverse: what we reach through `nbr` is
                // unreachable as far as `nbr` is told.
                r.metric
                    .iter()
                    .zip(&r.next_hop)
                    .map(|(&m, &hop)| if hop == Some(nbr) { self.infinity } else { m })
                    .collect()
            } else {
                shared.clone()
            };
            ctx.send(nbr, DvUpdate { metrics });
        }
    }
}

impl Protocol for NaiveDv {
    type Router = DvRouter;
    type Msg = DvUpdate;

    fn make_router(&self, topo: &Topology, ad: AdId) -> DvRouter {
        let n = topo.num_ads();
        let mut metric = vec![self.infinity; n];
        metric[ad.index()] = 0;
        DvRouter {
            me: ad,
            metric,
            next_hop: vec![None; n],
            adv_in: vec![None; topo.full_degree(ad)],
        }
    }

    fn on_start(&self, r: &mut DvRouter, ctx: &mut Ctx<'_, DvUpdate>) {
        self.advertise(r, ctx);
    }

    fn on_message(
        &self,
        r: &mut DvRouter,
        ctx: &mut Ctx<'_, DvUpdate>,
        from: AdId,
        link: LinkId,
        msg: DvUpdate,
    ) {
        if self.hierarchical_only && ctx.link_kind(link) != adroute_topology::LinkKind::Hierarchical
        {
            return; // EGP peers only across hierarchy links
        }
        let dirty = match ctx.neighbor_slot(from) {
            Some(slot) => {
                let old = r.adv_in[slot].replace(msg.metrics);
                self.diff(r, old.as_deref(), r.adv_in[slot].as_deref())
            }
            None => Vec::new(),
        };
        ctx.count("dv_recompute", 1);
        let changed = self.recompute(r, ctx, &dirty);
        // Emit before advertising: the sends below anchor to this record
        // in the causal log (recompute → triggered updates).
        ctx.emit(EventRecord::RouteRecompute {
            ad: ctx.me(),
            proto: "dv",
            changed,
        });
        if changed {
            self.advertise(r, ctx);
        }
    }

    fn on_link_event(
        &self,
        r: &mut DvRouter,
        ctx: &mut Ctx<'_, DvUpdate>,
        _link: LinkId,
        neighbor: AdId,
        up: bool,
    ) {
        // The neighbor's table gains or loses its say over what it offers
        // — also a table that arrived before this link-up.
        let dirty = match ctx.neighbor_slot(neighbor) {
            Some(slot) if up => self.diff(r, None, r.adv_in[slot].as_deref()),
            Some(slot) => {
                let old = r.adv_in[slot].take();
                self.diff(r, old.as_deref(), None)
            }
            None => Vec::new(),
        };
        ctx.count("dv_recompute", 1);
        let changed = self.recompute(r, ctx, &dirty);
        ctx.emit(EventRecord::RouteRecompute {
            ad: ctx.me(),
            proto: "dv",
            changed,
        });
        if changed || up {
            // On link-up, (re)introduce ourselves even if nothing changed.
            self.advertise(r, ctx);
        }
    }

    fn msg_size(&self, msg: &DvUpdate) -> usize {
        4 + 8 * msg.metrics.len()
    }
}

/// Feeds every operational router's full distance table to the
/// count-to-infinity watchdog as
/// [`MetricSample`](adroute_sim::Observation::MetricSample)s — one
/// monitoring tick's control-plane snapshot. Only the DV family exposes
/// climbing metrics, so this feeder lives beside the protocol.
///
/// Each sample carries ground-truth reachability, computed once per tick
/// from the connected components of the *operational* topology: during a
/// partition, metrics toward the far island climb legitimately, and the
/// `reachable: false` tag keeps the watchdog from quarantining the
/// unreachable destination (unreachable ≠ byzantine).
pub fn observe_dv_metrics(engine: &Engine<NaiveDv>, bank: &mut adroute_sim::MonitorBank) {
    let infinity = engine.protocol().infinity;
    let comp = adroute_topology::algo::connected_components(engine.topo());
    for ad in engine.topo().ad_ids() {
        if !engine.router_is_up(ad) {
            continue;
        }
        let r = engine.router(ad);
        for (dest, &m) in r.metric.iter().enumerate() {
            if dest == ad.index() {
                continue;
            }
            bank.observe(adroute_sim::Observation::MetricSample {
                at: ad,
                dst: AdId(dest as u32),
                metric: m,
                infinity,
                reachable: comp[ad.index()] == comp[dest],
            });
        }
    }
}

impl DataPlane for Engine<NaiveDv> {
    type Mark = ();

    fn next_hop(
        &mut self,
        at: AdId,
        flow: &FlowSpec,
        _prev: Option<AdId>,
        _mark: &mut (),
    ) -> Option<AdId> {
        let mis = self.protocol().misbehavior.model_of(at);
        // A blackholer (and a distance falsifier, which attracted transit
        // it has no real route for) drops everything not addressed to it.
        if at != flow.dst
            && at != flow.src
            && matches!(
                mis,
                Some(MisbehaviorModel::Blackhole) | Some(MisbehaviorModel::DistanceFalsification)
            )
        {
            return None;
        }
        self.router(at).next_hop[flow.dst.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarding::{forward, ForwardOutcome};
    use adroute_sim::SimTime;
    use adroute_topology::generate::{grid, line, ring};

    fn converge(topo: Topology, dv: NaiveDv) -> Engine<NaiveDv> {
        let mut e = Engine::new(topo, dv);
        e.run_to_quiescence();
        e
    }

    #[test]
    fn converges_to_shortest_hops_on_line() {
        let e = converge(line(5), NaiveDv::default());
        let r0 = e.router(AdId(0));
        assert_eq!(r0.metric[4], 4);
        assert_eq!(r0.next_hop[4], Some(AdId(1)));
    }

    #[test]
    fn converges_on_ring_and_grid() {
        let e = converge(ring(8), NaiveDv::default());
        assert_eq!(e.router(AdId(0)).metric[4], 4);
        assert_eq!(e.router(AdId(0)).metric[6], 2);
        let g = converge(grid(4, 4), NaiveDv::default());
        assert_eq!(g.router(AdId(0)).metric[15], 6);
    }

    #[test]
    fn forwards_packets_after_convergence() {
        let topo = line(6);
        let mut e = converge(topo, NaiveDv::default());
        let f = FlowSpec::best_effort(AdId(0), AdId(5));
        let topo2 = e.topo().clone();
        let out = forward(&mut e, &topo2, &f);
        assert!(out.delivered());
        assert_eq!(out.path().len(), 6);
    }

    #[test]
    fn reroutes_after_failure() {
        let mut e = Engine::new(ring(6), NaiveDv::default());
        e.run_to_quiescence();
        // 0->3 initially 3 hops either way; cut 0-1 and expect 0->3 via 5,4.
        let l = e.topo().link_between(AdId(0), AdId(1)).unwrap();
        let t = e.now().plus_us(1000);
        e.schedule_link_change(l, false, t);
        e.run_to_quiescence();
        assert_eq!(e.router(AdId(0)).metric[3], 3);
        assert_eq!(e.router(AdId(0)).next_hop[3], Some(AdId(5)));
        // 0->1 now the long way round.
        assert_eq!(e.router(AdId(0)).metric[1], 5);
    }

    #[test]
    fn partition_counts_to_infinity_but_terminates() {
        // Classic: line 0-1-2; cut 1-2. Node 2 becomes unreachable; 0 and 1
        // may bounce (no split horizon) until the infinity cap.
        let dv = NaiveDv {
            infinity: 16,
            split_horizon: false,
            ..NaiveDv::default()
        };
        let mut e = Engine::new(ring(4), dv);
        e.run_to_quiescence();
        // Cut both links of AD2 to partition it.
        let l12 = e.topo().link_between(AdId(1), AdId(2)).unwrap();
        let l23 = e.topo().link_between(AdId(2), AdId(3)).unwrap();
        let t = e.now().plus_us(1000);
        e.schedule_link_change(l12, false, t);
        e.schedule_link_change(l23, false, t);
        e.begin_phase("failure-response");
        e.run_to_quiescence();
        assert_eq!(e.router(AdId(0)).metric[2], 16, "AD2 should be unreachable");
        assert_eq!(e.router(AdId(0)).next_hop[2], None);
        // Count-to-infinity generated extra traffic.
        let response = e.stats.phase_delta("failure-response").unwrap();
        assert!(response.msgs_sent > 4, "expected count-to-infinity chatter");
    }

    #[test]
    fn split_horizon_reduces_failure_chatter() {
        let run = |sh: bool| {
            let dv = NaiveDv {
                infinity: 16,
                split_horizon: sh,
                ..NaiveDv::default()
            };
            let mut e = Engine::new(ring(6), dv);
            e.run_to_quiescence();
            let l = e.topo().link_between(AdId(0), AdId(1)).unwrap();
            let t = e.now().plus_us(1000);
            e.schedule_link_change(l, false, t);
            e.begin_phase("failure-response");
            e.run_to_quiescence();
            e.stats.phase_delta("failure-response").unwrap().msgs_sent
        };
        // Poisoned reverse should not *increase* convergence traffic.
        assert!(run(true) <= run(false) * 2);
    }

    #[test]
    fn link_recovery_restores_routes() {
        let mut e = Engine::new(line(3), NaiveDv::default());
        e.run_to_quiescence();
        let l = e.topo().link_between(AdId(1), AdId(2)).unwrap();
        e.schedule_link_change(l, false, SimTime::from_ms(100));
        e.run_to_quiescence();
        assert_eq!(e.router(AdId(0)).next_hop[2], None);
        let t = e.now().plus_us(1000);
        e.schedule_link_change(l, true, t);
        e.run_to_quiescence();
        assert_eq!(e.router(AdId(0)).metric[2], 2);
        assert_eq!(e.router(AdId(0)).next_hop[2], Some(AdId(1)));
    }

    #[test]
    fn no_route_to_partitioned_dest_drops() {
        let mut e = Engine::new(line(3), NaiveDv::default());
        e.run_to_quiescence();
        let l = e.topo().link_between(AdId(1), AdId(2)).unwrap();
        let t = e.now().plus_us(500);
        e.schedule_link_change(l, false, t);
        e.run_to_quiescence();
        let topo = e.topo().clone();
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(0), AdId(2)));
        assert!(matches!(out, ForwardOutcome::NoRoute { .. }));
    }

    #[test]
    fn egp_mode_ignores_non_hierarchical_links() {
        use adroute_topology::generate::HierarchyConfig;
        // A topology rich in lateral/bypass links.
        let topo = HierarchyConfig {
            lateral_prob: 0.4,
            bypass_prob: 0.3,
            multihome_prob: 0.0,
            seed: 5,
            ..HierarchyConfig::default()
        }
        .generate();
        let (_, lateral, bypass) = topo.link_kind_counts();
        assert!(
            lateral > 0 && bypass > 0,
            "need non-tree links for the test"
        );
        let mut egp = Engine::new(topo.clone(), NaiveDv::egp());
        egp.run_to_quiescence();
        let mut full = Engine::new(topo.clone(), NaiveDv::default());
        full.run_to_quiescence();
        // EGP paths never cost less than full-graph paths, and are
        // sometimes strictly worse (a lateral shortcut it cannot use).
        let mut strictly_worse = 0;
        for ad in topo.ad_ids() {
            for dest in topo.ad_ids() {
                let e = egp.router(ad).metric[dest.index()];
                let f = full.router(ad).metric[dest.index()];
                assert!(e >= f, "{ad}->{dest}: egp {e} < full {f}");
                if e > f {
                    strictly_worse += 1;
                }
            }
        }
        assert!(strictly_worse > 0, "lateral links should shorten some path");
        // EGP forwarding never crosses a non-hierarchical link.
        let topo2 = egp.topo().clone();
        for f in crate::forwarding::sample_flows(&topo2, 20, 5) {
            let out = forward(&mut egp, &topo2, &f);
            for w in out.path().windows(2) {
                let l = topo2.link_between(w[0], w[1]).unwrap();
                assert_eq!(
                    topo2.link(l).kind,
                    adroute_topology::LinkKind::Hierarchical,
                    "EGP used non-tree link {:?}",
                    w
                );
            }
        }
    }

    #[test]
    fn distance_falsifier_attracts_and_drops_transit() {
        // Ring of 6: honest 0->3 is 3 hops either way. A falsifier at 1
        // claims distance 1 to everything, so 0 prefers 0->1->...(lie).
        let dv = NaiveDv {
            misbehavior: MisbehaviorSpec::single(AdId(1), MisbehaviorModel::DistanceFalsification),
            ..NaiveDv::default()
        };
        let mut e = Engine::new(ring(6), dv);
        e.run_to_quiescence();
        assert_eq!(e.router(AdId(0)).next_hop[3], Some(AdId(1)));
        assert_eq!(e.router(AdId(0)).metric[3], 2, "lured by the lie");
        let topo = e.topo().clone();
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(0), AdId(3)));
        assert!(
            matches!(out, ForwardOutcome::NoRoute { .. }),
            "attracted transit is dropped: {out:?}"
        );
        // Traffic *to* the falsifier still arrives (it serves itself).
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(0), AdId(1)));
        assert!(out.delivered());
    }

    #[test]
    fn blackholer_advertises_honestly_but_drops() {
        let dv = NaiveDv {
            misbehavior: MisbehaviorSpec::single(AdId(2), MisbehaviorModel::Blackhole),
            ..NaiveDv::default()
        };
        let mut e = Engine::new(line(5), dv);
        e.run_to_quiescence();
        // Advertisements are honest: 0 still sees the true metric.
        assert_eq!(e.router(AdId(0)).metric[4], 4);
        let topo = e.topo().clone();
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(0), AdId(4)));
        assert!(matches!(out, ForwardOutcome::NoRoute { .. }));
        // The blackholer's own flows and flows to it are unaffected.
        assert!(forward(&mut e, &topo, &FlowSpec::best_effort(AdId(0), AdId(2))).delivered());
        assert!(forward(&mut e, &topo, &FlowSpec::best_effort(AdId(2), AdId(4))).delivered());
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut e = Engine::new(grid(3, 3), NaiveDv::default());
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

    /// The tables `ad`'s neighbors hold from it.
    fn held_from(e: &Engine<NaiveDv>, ad: AdId) -> Vec<(AdId, Arc<[u32]>)> {
        let topo = e.topo();
        topo.neighbors(ad)
            .map(|(nbr, _)| {
                let slot = topo.neighbor_slot(nbr, ad).unwrap();
                let table = e.router(nbr).adv_in[slot].clone();
                (nbr, table.expect("converged: a table was heard"))
            })
            .collect()
    }

    #[test]
    fn identical_readvertisement_dirties_nothing_and_sends_nothing() {
        let dv = NaiveDv::default();
        let mut e = converge(grid(3, 3), dv.clone());
        let topo = e.topo().clone();
        for (ad, slot, _) in adjacencies(&topo) {
            let r = e.router(ad);
            let held = r.adv_in[slot]
                .as_deref()
                .expect("converged: a table was heard");
            let copy = held.to_vec(); // the same table, another allocation
            assert_eq!(dv.diff(r, Some(held), Some(&copy)), Vec::<usize>::new());
        }
        // End to end: an up link reported up again makes both ends send
        // every peer the table it already holds; nobody's selection moves
        // and nobody passes anything on.
        let fibs = |e: &Engine<NaiveDv>| -> Vec<_> {
            topo.ad_ids()
                .map(|a| (e.router(a).metric.clone(), e.router(a).next_hop.clone()))
                .collect()
        };
        let (before, sent) = (fibs(&e), e.stats.msgs_sent);
        let link = topo.link(LinkId(0));
        let at = e.now().plus_us(1000);
        e.schedule_link_change(LinkId(0), true, at);
        e.run_to_quiescence();
        let resent = topo.degree(link.a) + topo.degree(link.b);
        assert_eq!(e.stats.msgs_sent - sent, resent as u64);
        assert_eq!(fibs(&e), before);
    }

    #[test]
    fn neighbor_going_down_dirties_exactly_what_it_offered() {
        let dv = NaiveDv::default();
        let e = converge(grid(3, 3), dv.clone());
        for (ad, slot, nbr) in adjacencies(e.topo()) {
            let r = e.router(ad);
            let held = r.adv_in[slot]
                .as_deref()
                .expect("converged: a table was heard");
            let offered: Vec<usize> = (0..held.len()).filter(|&d| held[d] < 64).collect();
            assert!(
                offered.contains(&nbr.index()),
                "{nbr} offers at least itself"
            );
            assert_eq!(dv.diff(r, Some(held), None), offered);
        }
    }

    #[test]
    fn one_advertisement_is_one_shared_table() {
        let e = converge(grid(3, 3), NaiveDv::default());
        for ad in e.topo().ad_ids() {
            let held = held_from(&e, ad);
            assert!(
                held.iter().all(|(_, t)| Arc::ptr_eq(t, &held[0].1)),
                "{ad}'s neighbors hold copies"
            );
            assert_eq!(&held[0].1[..], &e.router(ad).metric[..]);
        }
    }

    #[test]
    fn split_horizon_copies_only_for_next_hops() {
        use adroute_topology::{graph::make_ad, AdLevel};
        // AD0 reaches everything through AD3: its heavy links to AD1 and
        // AD2 carry no route, so only AD3 is told a poisoned table.
        let ads = (0..4).map(|i| make_ad(i, AdLevel::Campus)).collect();
        let heavy = [(AdId(0), AdId(1), 5), (AdId(0), AdId(2), 5)];
        let light = [
            (AdId(0), AdId(3), 1),
            (AdId(3), AdId(1), 1),
            (AdId(3), AdId(2), 1),
        ];
        let topo = Topology::new(ads, &[&heavy[..], &light[..]].concat());
        let dv = NaiveDv {
            split_horizon: true,
            ..NaiveDv::default()
        };
        let e = converge(topo, dv);
        let r = e.router(AdId(0));
        assert_eq!(r.next_hop[1..], [Some(AdId(3)); 3]);
        let held = held_from(&e, AdId(0));
        let table = |nbr: u32| &held.iter().find(|(n, _)| *n == AdId(nbr)).unwrap().1;
        assert!(
            Arc::ptr_eq(table(1), table(2)),
            "non-next-hops share one table"
        );
        assert_eq!(&table(1)[..], &r.metric[..]);
        assert!(!Arc::ptr_eq(table(3), table(1)), "the next hop has its own");
        assert_eq!(table(3)[..], [0, 64, 64, 64]);
        // Everywhere: a next hop's table is its own, the rest share one.
        for ad in e.topo().ad_ids() {
            let r = e.router(ad);
            let held = held_from(&e, ad);
            let (hops, rest): (Vec<_>, Vec<_>) = held
                .iter()
                .partition(|(nbr, _)| r.next_hop.contains(&Some(*nbr)));
            for (nbr, t) in hops {
                let sharers = held.iter().filter(|(_, u)| Arc::ptr_eq(t, u)).count();
                assert_eq!(sharers, 1, "{ad} shares {nbr}'s poisoned table");
            }
            for (nbr, t) in &rest {
                assert!(Arc::ptr_eq(t, &rest[0].1), "{ad} copied {nbr}'s table");
                assert_eq!(&t[..], &r.metric[..]);
            }
        }
    }

    #[test]
    fn table_heard_over_a_down_link_counts_from_link_up() {
        let mut e = converge(ring(4), NaiveDv::default());
        let topo = e.topo().clone();
        let l01 = topo.link_between(AdId(0), AdId(1)).unwrap();
        let l03 = topo.link_between(AdId(0), AdId(3)).unwrap();
        let at = e.now().plus_us(1000);
        e.schedule_link_change(l01, false, at);
        e.run_to_quiescence();
        let route = |e: &Engine<NaiveDv>, dest: usize| {
            let r = e.router(AdId(0));
            (r.metric[dest], r.next_hop[dest])
        };
        assert_eq!(route(&e, 1), (3, Some(AdId(3))));
        // AD1's table reaches AD0 after their link died.
        let late: Arc<[u32]> = e.router(AdId(1)).metric.as_slice().into();
        let slot = topo.neighbor_slot(AdId(0), AdId(1)).unwrap();
        e.router_mut(AdId(0)).adv_in[slot] = Some(late);
        // While the link is down it is no candidate, even for destinations
        // AD3's re-announced table dirties.
        let at = e.now().plus_us(1000);
        e.schedule_link_change(l03, true, at);
        e.run_to_quiescence();
        assert_eq!(route(&e, 1), (3, Some(AdId(3))));
        // At link-up it is re-selected at once, before AD1 re-sends.
        let at = e.now().plus_us(1000);
        e.schedule_link_change(l01, true, at);
        e.run_until(at);
        assert_eq!(route(&e, 1), (1, Some(AdId(1))));
        assert_eq!(
            route(&e, 2),
            (2, Some(AdId(1))),
            "tie broken to the lower id"
        );
    }
}

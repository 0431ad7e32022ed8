//! The view and fault plane: link, metric and policy changes in ground
//! truth, their reflooding into every Route Server's view, quarantine of a
//! misbehaving AD, and the re-sync with a quiesced control-plane engine.

use std::sync::Arc;

use adroute_policy::TransitPolicy;
use adroute_protocols::linkstate::LsDb;
use adroute_sim::{Engine, EventId, EventRecord};
use adroute_topology::{transit, AdId, LinkId, TopoDelta};

use super::{OrwgNetwork, ViewMaintenance};
use crate::router::OrwgProtocol;
use crate::synthesis::{sync_views, widen_avoid, PolicyRoute, RouteServer, ViewDelta, ViewEdits};

impl OrwgNetwork {
    /// Attributes every repair queued at index `start` onward to `cause`
    /// — the event of the fault that tore those flows down.
    fn set_pending_cause_from(&mut self, start: usize, cause: Option<EventId>) {
        if cause.is_none() {
            return;
        }
        for (_, c) in &mut self.pending_repair[start..] {
            if c.is_none() {
                *c = cause;
            }
        }
    }

    /// Propagates one event to every Route Server's view (modeling
    /// re-flooding at quiescence), honoring the view-maintenance mode.
    /// Returns the id of the view-delta record, the causal root of the
    /// reflood span.
    fn broadcast_delta(&mut self, delta: &ViewDelta) -> Option<EventId> {
        if self.view_maintenance == ViewMaintenance::Flush {
            let topo = self.topo.clone();
            let db = self.db.clone();
            for s in &mut self.servers {
                s.update_view(topo.clone(), db.clone());
            }
            let n = self.servers.len() as u64;
            self.obs.metrics.add("view_full_installs", n);
            return self.emit(
                None,
                EventRecord::ViewDeltaApply {
                    mode: "flush",
                    fallbacks: n,
                },
            );
        }
        // One broadcast: a view is copied once, by its first server.
        let mut edits = ViewEdits::default();
        let mut fallback = Vec::new();
        for (i, s) in self.servers.iter_mut().enumerate() {
            if !s.apply_delta_with(delta, &mut edits) {
                fallback.push(i);
            }
        }
        let fallbacks = fallback.len() as u64;
        if !fallback.is_empty() {
            let (topo, db) = (Arc::new(self.topo.clone()), Arc::new(self.db.clone()));
            for i in fallback {
                self.servers[i].install_view(topo.clone(), db.clone());
            }
        }
        self.obs.metrics.add("view_full_installs", fallbacks);
        self.emit(
            None,
            EventRecord::ViewDeltaApply {
                mode: "incremental",
                fallbacks,
            },
        )
    }

    /// [`OrwgNetwork::broadcast_delta`] plus fan-out observation: the
    /// population-wide count of cache entries the delta invalidated feeds
    /// the `"invalidation_fanout"` histogram and a `view-invalidate`
    /// event keyed by the changed element's endpoints — a child of the
    /// view-delta record. Returns the invalidate id (falling back to the
    /// delta id) so teardown-triggered repairs can chain to it.
    fn reflood(&mut self, a: AdId, b: AdId, delta: &ViewDelta) -> Option<EventId> {
        let before = self.aggregate_synth_stats().entries_invalidated;
        let delta_id = self.broadcast_delta(delta);
        let entries = self.aggregate_synth_stats().entries_invalidated - before;
        self.obs.metrics.record("invalidation_fanout", entries);
        self.emit(delta_id, EventRecord::ViewInvalidate { a, b, entries })
            .or(delta_id)
    }

    /// Fails a link in ground truth: flushes affected gateway handles,
    /// queues the torn-down flows for source-side repair, and (modeling
    /// re-flooding at quiescence) updates every Route Server's view.
    pub fn fail_link(&mut self, link: LinkId) {
        self.topo.set_link_up(link, false);
        let l = self.topo.link(link);
        let (a, b) = (l.a, l.b);
        let queued = self.pending_repair.len();
        self.tear_down_link(a, b);
        let inv_id = self.reflood(
            a,
            b,
            &ViewDelta::Topo(TopoDelta::LinkState { a, b, up: false }),
        );
        self.set_pending_cause_from(queued, inv_id);
    }

    /// Restores a failed link in ground truth and refloods the change.
    /// Nothing tears down — a link coming back can only add routes — but
    /// servers must invalidate stored routes the recovered link may now
    /// undercut.
    pub fn restore_link(&mut self, link: LinkId) {
        self.topo.set_link_up(link, true);
        let l = self.topo.link(link);
        let (a, b) = (l.a, l.b);
        self.reflood(
            a,
            b,
            &ViewDelta::Topo(TopoDelta::LinkState { a, b, up: true }),
        );
    }

    /// Changes a link's metric in ground truth and refloods it. Installed
    /// routes keep forwarding (handles do not re-check cost); stored
    /// synthesis results are invalidated as the delta's direction demands.
    pub fn change_metric(&mut self, link: LinkId, metric: u32) {
        self.topo.set_metric(link, metric);
        let l = self.topo.link(link);
        let (a, b) = (l.a, l.b);
        self.reflood(a, b, &ViewDelta::Topo(TopoDelta::Metric { a, b, metric }));
    }

    /// Changes one AD's policy: the AD's gateway flushes all cached
    /// handles, the torn-down flows queue for repair, and (modeling
    /// re-flooding) every Route Server's view is refreshed. The staleness
    /// cost is E7's policy-change column.
    pub fn change_policy(&mut self, policy: TransitPolicy) {
        let ad = policy.ad;
        self.db.set_policy(policy.clone());
        self.gateways[ad.index()].invalidate(|_| true);
        let queued = self.pending_repair.len();
        self.teardown_and_notify(|of| transit(&of.route).contains(&ad));
        let inv_id = self.reflood(ad, ad, &ViewDelta::Policy(policy));
        self.set_pending_cause_from(queued, inv_id);
    }

    /// Contains a confirmed-misbehaving AD: every Route Server adds `ad`
    /// to its avoid criteria (no future synthesis will transit it), and
    /// every open flow currently transiting `ad` is torn down and queued
    /// for repair, chained to `cause` (normally the quarantine-enter
    /// event) so the repair span renders under the containment decision.
    /// Returns the number of flows torn down — the immediate collateral
    /// of the quarantine. Follow with [`OrwgNetwork::repair_pending`] to
    /// reconverge the torn flows onto policy-legal alternates.
    pub fn quarantine_ad(&mut self, ad: AdId, cause: Option<EventId>) -> usize {
        if !self.quarantined.contains(&ad) {
            self.quarantined.push(ad);
            self.quarantined.sort();
        }
        for s in &mut self.servers {
            let sel = widen_avoid(s.selection(), [ad]);
            s.set_selection(sel);
        }
        let queued = self.pending_repair.len();
        self.teardown_and_notify(|of| transit(&of.route).contains(&ad));
        let torn = self.pending_repair.len() - queued;
        self.set_pending_cause_from(queued, cause);
        // Cached spare routes through the quarantined AD must go too:
        // repair replays alternates through a raw setup walk, and a rogue
        // gateway would forge the ack and reinstall the violating path.
        let transits = |r: &PolicyRoute| transit(&r.path).contains(&ad);
        for (of, _) in &mut self.pending_repair {
            of.alternates.retain(|r| !transits(r));
        }
        for of in self.open_flows.values_mut() {
            of.alternates.retain(|r| !transits(r));
        }
        torn
    }

    /// Releases `ad` from quarantine: every Route Server's avoid-set drops
    /// it, so synthesis may transit it again. Does not unmark a rogue
    /// gateway — a lifted-but-still-rogue AD will simply be re-detected.
    pub fn lift_quarantine(&mut self, ad: AdId) {
        self.quarantined.retain(|&q| q != ad);
        for s in &mut self.servers {
            let mut sel = s.selection().clone();
            sel.avoid = sel.avoid.subtract(&[ad]);
            s.set_selection(sel);
        }
    }

    /// Re-syncs the data plane with a (re-)quiesced control plane: ground
    /// truth adopts the engine's topology and policies, flows crossing
    /// newly-dead links are torn down and queued for repair, and every
    /// Route Server is brought to **its own flooded database** — by
    /// re-deriving the origins whose LSA changed
    /// ([`RouteServer::sync_view`]) or by full install of the rebuilt
    /// view, per the view-maintenance mode. Incrementally, servers that
    /// share a view and whose databases share every LSA derive the deltas
    /// once and share the edited view; each is still charged its own
    /// re-derived origins.
    ///
    /// This is the quiescence hook the fault-recovery sweeps and the
    /// `chaos` pipeline call after the LS flooder settles.
    pub fn refresh_from_engine(&mut self, engine: &Engine<OrwgProtocol>) {
        self.clock = engine.now();
        let new_topo = engine.topo().clone();
        let queued = self.pending_repair.len();
        // Links that died since, matched by endpoints: link ids are only
        // comparable between topologies of the same construction.
        let died: Vec<(AdId, AdId)> = self
            .topo
            .links()
            .filter(|old| {
                let alive = new_topo
                    .link_between(old.a, old.b)
                    .is_some_and(|id| new_topo.link(id).up);
                old.up && !alive
            })
            .map(|old| (old.a, old.b))
            .collect();
        for (a, b) in died {
            self.tear_down_link(a, b);
        }
        self.topo = new_topo;
        self.db = engine.protocol().policies.clone();
        let mut fallbacks = 0u64;
        let mut rederived = 0u64;
        if self.view_maintenance == ViewMaintenance::Flush {
            for s in &mut self.servers {
                let (vt, vd) = engine.router(s.ad).flooder.db.view();
                s.update_view(vt, vd);
                fallbacks += 1;
            }
        } else {
            let mut synced: Vec<(&mut RouteServer, &LsDb)> = (self.servers.iter_mut())
                .map(|s| {
                    let lsdb = &engine.router(s.ad).flooder.db;
                    (s, lsdb)
                })
                .collect();
            for sync in sync_views(&mut synced) {
                rederived += sync.origins_rederived as u64;
                fallbacks += u64::from(sync.full_install);
            }
        }
        self.obs.metrics.add("view_full_installs", fallbacks);
        self.obs.metrics.add("view_origins_rederived", rederived);
        let delta_id = self.emit(
            None,
            EventRecord::ViewDeltaApply {
                mode: match self.view_maintenance {
                    ViewMaintenance::Flush => "flush",
                    ViewMaintenance::Incremental => "incremental",
                },
                fallbacks,
            },
        );
        // Flows the re-sync tore down chain to the view-delta record: the
        // repair that follows is causally downstream of this refresh.
        self.set_pending_cause_from(queued, delta_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::SetupError;
    use crate::network::tests::permissive;
    use crate::network::{OpenError, SendError};
    use adroute_policy::{FlowSpec, PolicyDb};
    use adroute_topology::generate::ring;
    use adroute_topology::Topology;

    #[test]
    fn refresh_tears_down_over_dead_links_whatever_the_link_ids() {
        // The engine's internet has a chord the data plane's ground truth
        // lacks, so the two topologies number their links differently.
        let ring6 = ring(6);
        let mut edges: Vec<(AdId, AdId, u32)> =
            ring6.links().map(|l| (l.a, l.b, l.metric)).collect();
        edges.insert(0, (AdId(0), AdId(4), 50));
        let chorded = Topology::new(ring6.ads().cloned().collect(), &edges);
        assert_ne!(chorded.num_links(), ring6.num_links());
        let mut net = OrwgNetwork::converged(&ring6, &PolicyDb::permissive(&ring6));
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let s = net.open(&flow).unwrap();
        assert_eq!(s.route, vec![AdId(0), AdId(1), AdId(2), AdId(3)]);
        let mut e =
            crate::router::converge_control_plane(chorded.clone(), PolicyDb::permissive(&chorded));
        let dead = e.topo().link_between(AdId(1), AdId(2)).unwrap();
        e.schedule_link_change(dead, false, e.now().plus_us(1000));
        e.run_to_quiescence();
        net.refresh_from_engine(&e);
        assert_eq!(
            net.pending_repair_count(),
            1,
            "the flow over the dead link must be torn down"
        );
        assert_eq!(net.send(s.handle).unwrap_err(), SendError::UnknownFlow);
        assert_eq!(net.gateway(AdId(1)).handles_for(&flow), 0);
        assert_eq!(net.repair_pending(2).failures, 0);
        assert_eq!(net.total_stale_forwards(), 0);
    }

    #[test]
    fn rogue_gateway_forges_acks_and_quarantine_reconverges_legally() {
        // Ring of 6; AD1's *actual* policy turns deny-all while every
        // Route Server still holds the permissive view (stale flooding).
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        let mut net = OrwgNetwork::converged(&topo, &db);
        net.enable_obs(256);
        net.db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let flow = FlowSpec::best_effort(AdId(0), AdId(2));
        // Honest gateway: the stale source synthesizes through AD1, and
        // AD1's gateway rejects the setup against its actual policy.
        assert_eq!(
            net.open(&flow).unwrap_err(),
            OpenError::Rejected(SetupError::PolicyDenied { ad: AdId(1) })
        );
        // Rogue gateway: the same setup sails through on a forged ack,
        // and policy-violating traffic actually flows.
        net.set_rogue_gateways([AdId(1)]);
        let s = net.open(&flow).unwrap();
        assert!(s.route.contains(&AdId(1)));
        assert!(net
            .policies()
            .policy(AdId(1))
            .evaluate(&flow, Some(AdId(0)), Some(AdId(2)))
            .is_none());
        net.send(s.handle).unwrap();
        // Containment: quarantine tears the violating flow down and
        // repair reconverges it onto the policy-legal long way around.
        let torn = net.quarantine_ad(AdId(1), None);
        assert_eq!(torn, 1);
        assert_eq!(net.quarantined, [AdId(1)]);
        let stats = net.repair_pending(3);
        assert_eq!(stats.repaired_via_synthesis, 1);
        assert_eq!(stats.failures, 0);
        let of = net.open_flows.values().next().unwrap();
        assert!(!of.route.contains(&AdId(1)), "still transits rogue AD");
        assert_eq!(of.route, vec![AdId(0), AdId(5), AdId(4), AdId(3), AdId(2)]);
        // Lifting restores the avoid-sets.
        net.lift_quarantine(AdId(1));
        assert!(net.quarantined.is_empty());
        assert!(!net.server(AdId(0)).selection().avoid.contains(AdId(1)));
    }

    #[test]
    fn data_plane_obs_records_setup_repair_and_invalidation() {
        let mut net = permissive(6);
        net.enable_obs(256);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        net.open_repairable(&flow).unwrap();
        let hist = net.obs.metrics.histogram("setup_latency_us").unwrap();
        assert_eq!(hist.count, 1);
        assert!(hist.sum > 0, "ring links have nonzero delay");
        // Break the installed route; the teardown queues a repair, and the
        // reflood is observed as an invalidation with its fan-out.
        let l = net.topo.link_between(AdId(1), AdId(2)).unwrap();
        net.fail_link(l);
        net.repair_pending(2);
        let kinds: Vec<&str> = net.obs.log.iter().map(|ev| ev.rec.kind()).collect();
        assert!(kinds.contains(&"setup-open"));
        assert!(kinds.contains(&"setup-ack"));
        assert!(kinds.contains(&"view-delta"));
        assert!(kinds.contains(&"view-invalidate"));
        assert!(kinds.contains(&"setup-repair"));
        assert_eq!(net.obs.metrics.counter("repair_ok"), 1);
        assert_eq!(
            net.obs
                .metrics
                .histogram("invalidation_fanout")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn link_failure_invalidates_and_reroutes() {
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let setup = net.open(&flow).unwrap();
        let l = net.topo().link_between(AdId(1), AdId(2)).unwrap();
        net.fail_link(l);
        // Old handle is gone (flow flushed).
        assert_eq!(net.send(setup.handle).unwrap_err(), SendError::UnknownFlow);
        // Re-opening synthesizes the other side of the ring.
        let setup2 = net.open(&flow).unwrap();
        assert_eq!(setup2.route, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
        assert!(net.send(setup2.handle).is_ok());
    }

    #[test]
    fn policy_change_flushes_and_recomputes() {
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let s1 = net.open(&flow).unwrap();
        assert_eq!(s1.route, vec![AdId(0), AdId(1), AdId(2), AdId(3)]);
        net.change_policy(TransitPolicy::deny_all(AdId(1)));
        assert_eq!(net.send(s1.handle).unwrap_err(), SendError::UnknownFlow);
        let s2 = net.open(&flow).unwrap();
        assert_eq!(s2.route, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
    }

    #[test]
    fn restore_link_reinstates_cheaper_side() {
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let l = net.topo().link_between(AdId(1), AdId(2)).unwrap();
        net.fail_link(l);
        let s1 = net.open(&flow).unwrap();
        assert_eq!(s1.route, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
        net.restore_link(l);
        // A link coming up tears nothing down …
        assert!(net.send(s1.handle).is_ok());
        // … but stored routes were invalidated, so a fresh open sees the
        // recovered side again.
        let s2 = net.open(&flow).unwrap();
        assert_eq!(s2.route, vec![AdId(0), AdId(1), AdId(2), AdId(3)]);
    }

    #[test]
    fn incremental_maintenance_spares_unrelated_entries() {
        let mut net = permissive(6);
        let f = FlowSpec::best_effort(AdId(0), AdId(3)); // 0-1-2-3
        let g = FlowSpec::best_effort(AdId(0), AdId(5)); // 0-5
        net.open(&f).unwrap();
        net.open(&g).unwrap();
        let l = net.topo().link_between(AdId(2), AdId(3)).unwrap();
        net.fail_link(l);
        let agg = net.aggregate_synth_stats();
        assert_eq!(agg.entries_invalidated, 1, "only f crosses 2-3");
        assert_eq!(agg.revalidations, 1);
        // g is served straight from cache; no server other than the
        // sources' did any invalidation work at all.
        let searches = net.total_searches();
        assert!(net.open(&g).is_ok());
        assert_eq!(net.total_searches(), searches);
        for ad in 1..6 {
            assert_eq!(net.server(AdId(ad)).stats.entries_invalidated, 0);
        }
    }

    #[test]
    fn metric_change_invalidates_by_direction() {
        let mut net = permissive(6);
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        net.open(&f).unwrap();
        let l = net.topo().link_between(AdId(1), AdId(2)).unwrap();
        // Raising a crossed link's metric kills the stored route …
        net.change_metric(l, 10);
        let s = net.open(&f).unwrap();
        assert_eq!(s.route, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
        // … lowering it back is expansive: everything re-examined, and
        // the cheap side wins again.
        net.change_metric(l, 1);
        let s2 = net.open(&f).unwrap();
        assert_eq!(s2.route, vec![AdId(0), AdId(1), AdId(2), AdId(3)]);
    }

    #[test]
    fn flush_mode_is_the_behavioral_oracle() {
        let run = |mode: ViewMaintenance| {
            let mut net = permissive(6);
            net.set_view_maintenance(mode);
            let f = FlowSpec::best_effort(AdId(0), AdId(3));
            let g = FlowSpec::best_effort(AdId(0), AdId(4));
            let mut log = Vec::new();
            log.push(net.open(&f).map(|s| s.route).ok());
            log.push(net.open(&g).map(|s| s.route).ok());
            let l = net.topo().link_between(AdId(1), AdId(2)).unwrap();
            net.fail_link(l);
            log.push(net.open(&f).map(|s| s.route).ok());
            net.change_policy(TransitPolicy::deny_all(AdId(4)));
            log.push(net.open(&g).map(|s| s.route).ok());
            net.restore_link(l);
            log.push(net.open(&f).map(|s| s.route).ok());
            log
        };
        assert_eq!(
            run(ViewMaintenance::Incremental),
            run(ViewMaintenance::Flush),
            "incremental maintenance must answer exactly like the flush oracle"
        );
    }
}

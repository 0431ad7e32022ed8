//! The setup and forwarding plane: a source opens a synthesized route by
//! walking a setup packet through every transit Policy Gateway, sends data
//! on the handle it got back, and repairs flows a fault tore down. Gateway
//! crashes and rogue (ack-forging) gateways live here too.

use std::collections::hash_map::Entry;

use adroute_policy::{FlowSpec, TransitPolicy};
use adroute_protocols::forwarding::DataPlane;
use adroute_sim::{EventId, EventRecord};
use adroute_topology::{transit, AdId, Topology};

use super::serve::Synth;
use super::{DataOutcome, OpenError, OpenFlow, OrwgNetwork, RepairStats, SendError, SetupOutcome};
use crate::dataplane::{DataPacket, HandleId, SetupPacket};
use crate::gateway::SetupError;
use crate::overload::BrownoutRung;
use crate::synthesis::{widen_avoid, PolicyRoute};

/// Setup retransmissions a source sends after the first transmission.
const SETUP_RETRANSMITS: u32 = 3;
/// The first setup retransmit timeout, µs. It doubles on every retry.
const SETUP_TIMEOUT_US: u64 = 2_000;

impl OrwgNetwork {
    fn check_links(route: &[AdId], topo: &Topology) -> Result<u64, (AdId, AdId)> {
        let mut latency = 0;
        for w in route.windows(2) {
            match topo.link_between(w[0], w[1]) {
                Some(l) if topo.link(l).up => latency += topo.link(l).delay_us,
                _ => return Err((w[0], w[1])),
            }
        }
        Ok(latency)
    }

    /// Walks a setup packet for an already-synthesized route through every
    /// transit AD's Policy Gateway; on success the flow is installed with
    /// the given spare routes attached.
    ///
    /// The open record is a child of `cause`; the matching ack (or nack,
    /// when a stale view sends the setup into a dead link or a refusing
    /// gateway) is a child of the open — the setup round-trip is one span.
    pub(super) fn setup_along(
        &mut self,
        flow: &FlowSpec,
        route: &PolicyRoute,
        alternates: Vec<PolicyRoute>,
        cause: Option<EventId>,
    ) -> Result<SetupOutcome, OpenError> {
        let open_id = self
            .emit(
                cause,
                EventRecord::RouteSetupOpen {
                    src: flow.src,
                    dst: flow.dst,
                },
            )
            .or(cause);
        let handle = HandleId(self.next_handle);
        self.next_handle += 1;
        let setup = SetupPacket {
            flow: *flow,
            route: route.path.clone(),
            claimed_pts: route.pts.clone(),
            handle,
        };
        let latency_us = match Self::check_links(&setup.route, &self.topo) {
            Ok(latency) => latency,
            Err((a, b)) => {
                self.emit(
                    open_id,
                    EventRecord::RouteSetupNack {
                        src: flow.src,
                        dst: flow.dst,
                        reason: "link-down",
                    },
                );
                return Err(OpenError::LinkDown { a, b });
            }
        };
        let mut validations = 0;
        for i in 1..setup.route.len().saturating_sub(1) {
            let ad = setup.route[i];
            // The gateway validates against the AD's *actual* policy —
            // its own policy is always locally accurate. A rogue gateway
            // skips the policy check entirely and forges the ack.
            validations += 1;
            let verdict = if self.rogue_gateways.contains(&ad) {
                self.gateways[ad.index()].force_install(&setup)
            } else {
                self.gateways[ad.index()].validate_setup(self.db.policy(ad), &setup)
            };
            if let Err(e) = verdict {
                // Roll back handles already installed at earlier transit
                // ADs: a rejected setup must not leave partial state
                // pinning cache slots upstream of the refusal.
                for earlier in &setup.route[1..i] {
                    self.gateways[earlier.index()].teardown(handle);
                }
                self.emit(
                    open_id,
                    EventRecord::RouteSetupNack {
                        src: flow.src,
                        dst: flow.dst,
                        reason: match e {
                            SetupError::NotOnRoute => "not-on-route",
                            SetupError::PolicyDenied { .. } => "policy-denied",
                            SetupError::PtMismatch { .. } => "pt-mismatch",
                            SetupError::GatewayDown { .. } => "gateway-down",
                        },
                    },
                );
                return Err(OpenError::Rejected(e));
            }
        }
        let hops = setup.route.len() - 1;
        let header_bytes = setup.header_size() * hops;
        self.open_flows.insert(
            handle,
            OpenFlow {
                flow: *flow,
                route: setup.route.clone(),
                alternates,
            },
        );
        *self.live_by_flow.entry(*flow).or_insert(0) += 1;
        self.obs.metrics.record("setup_latency_us", latency_us);
        self.emit(
            open_id,
            EventRecord::RouteSetupAck {
                src: flow.src,
                dst: flow.dst,
                hops: hops as u64,
                latency_us,
            },
        );
        Ok(SetupOutcome {
            handle,
            route: setup.route,
            header_bytes,
            validations,
            latency_us,
        })
    }

    /// Opens a policy route for `flow`: synthesize at the source, then
    /// walk the setup packet through every transit AD's Policy Gateway.
    pub fn open(&mut self, flow: &FlowSpec) -> Result<SetupOutcome, OpenError> {
        self.open_on_rung(flow, BrownoutRung::Cached, None)
    }

    /// [`OrwgNetwork::open`], but the source also synthesizes up to two
    /// spare routes and caches them with the flow. When a fault later
    /// tears the installed route down, [`OrwgNetwork::repair_pending`]
    /// tries the spares before paying for a fresh synthesis — the paper's
    /// "precompute alternate routes" resilience option.
    ///
    /// Under [`OrwgNetwork::set_setup_loss`] a source detects a lost setup
    /// by timeout and retransmits up to three times, from a 2 ms timeout
    /// doubling per retry (charged to the latency); losing all four
    /// transmissions fails the open with [`OpenError::SetupTimeout`].
    pub fn open_repairable(&mut self, flow: &FlowSpec) -> Result<SetupOutcome, OpenError> {
        use rand::Rng;
        let mut timeout_penalty_us = 0u64;
        // Each retransmit chains to the one whose timeout triggered it, so
        // a lossy open renders as retransmit → retransmit → open → ack.
        let mut last_rexmit: Option<EventId> = None;
        for attempt in 0..=SETUP_RETRANSMITS {
            let lost = match &mut self.setup_loss {
                Some((prob, rng)) => rng.gen_bool(*prob),
                None => false,
            };
            if lost {
                timeout_penalty_us += SETUP_TIMEOUT_US << attempt;
                if attempt < SETUP_RETRANSMITS {
                    self.repair_stats.setup_retransmits += 1;
                    last_rexmit = self
                        .emit(
                            last_rexmit,
                            EventRecord::RouteSetupRetransmit {
                                src: flow.src,
                                dst: flow.dst,
                                attempt: u64::from(attempt) + 1,
                            },
                        )
                        .or(last_rexmit);
                }
                continue;
            }
            return self
                .open_on_rung(flow, BrownoutRung::Full, last_rexmit)
                .map(|mut s| {
                    s.latency_us += timeout_penalty_us;
                    s
                });
        }
        Err(OpenError::SetupTimeout)
    }

    /// Enables (or disables, with `prob = 0.0`) seeded random loss of
    /// setup transmissions, consumed by [`OrwgNetwork::open_repairable`].
    pub fn set_setup_loss(&mut self, prob: f64, seed: u64) {
        use rand::SeedableRng;
        self.setup_loss = (prob > 0.0).then(|| (prob, rand::rngs::SmallRng::seed_from_u64(seed)));
    }

    /// One direct open: the source synthesizes on `rung` exactly as a
    /// served open does ([`BrownoutRung::Cached`]: the route alone,
    /// [`BrownoutRung::Full`]: with spares), then walks the setup.
    fn open_on_rung(
        &mut self,
        flow: &FlowSpec,
        rung: BrownoutRung,
        cause: Option<EventId>,
    ) -> Result<SetupOutcome, OpenError> {
        match self.synth_on_rung(flow.src, flow, rung) {
            Synth::Route(route, spares) => self.setup_along(flow, &route, spares, cause),
            Synth::NoRoute | Synth::Miss => Err(OpenError::NoRoute),
        }
    }

    /// Sends one data packet on an established route using the handle.
    /// The open flow is only borrowed (the gateways are a disjoint field),
    /// so a packet allocates nothing.
    pub fn send(&mut self, handle: HandleId) -> Result<DataOutcome, SendError> {
        let of = self.open_flows.get(&handle).ok_or(SendError::UnknownFlow)?;
        let latency_us = Self::check_links(&of.route, &self.topo)
            .map_err(|(a, b)| SendError::LinkDown { a, b })?;
        let pkt = DataPacket {
            handle,
            src: of.flow.src,
        };
        for hop in of.route.windows(3) {
            let next = self.gateways[hop[1].index()]
                .forward_data(&pkt, hop[0])
                .map_err(SendError::Dropped)?;
            debug_assert_eq!(next, hop[2]);
        }
        let hops = of.route.len() - 1;
        Ok(DataOutcome {
            hops,
            header_bytes: DataPacket::HEADER_SIZE * hops,
            latency_us,
        })
    }

    /// The ablation data plane: every packet carries the full source
    /// route (no setup, no handles). Gateways fully re-validate policy for
    /// each packet — the "overhead of carrying and processing complete
    /// information for each packet is prohibitive" alternative.
    pub fn send_source_routed(&mut self, flow: &FlowSpec) -> Result<DataOutcome, OpenError> {
        let route = self.servers[flow.src.index()]
            .request(flow)
            .ok_or(OpenError::NoRoute)?;
        let latency_us = Self::check_links(&route.path, &self.topo)
            .map_err(|(a, b)| OpenError::LinkDown { a, b })?;
        for i in 1..route.path.len().saturating_sub(1) {
            let ad = route.path[i];
            let permit =
                self.db
                    .policy(ad)
                    .evaluate(flow, Some(route.path[i - 1]), Some(route.path[i + 1]));
            if permit.is_none() {
                return Err(OpenError::Rejected(SetupError::PolicyDenied { ad }));
            }
        }
        let hops = route.path.len() - 1;
        Ok(DataOutcome {
            hops,
            header_bytes: DataPacket::source_route_header_size(route.path.len()) * hops,
            latency_us,
        })
    }

    /// Tears down an open flow at the source and every gateway.
    pub fn teardown(&mut self, handle: HandleId) {
        if let Some(of) = self.remove_open(handle) {
            for ad in transit(&of.route) {
                self.gateways[ad.index()].teardown(handle);
            }
        }
    }

    /// Removes `handle` from the open flows, keeping the per-class live
    /// count exact.
    fn remove_open(&mut self, handle: HandleId) -> Option<OpenFlow> {
        let of = self.open_flows.remove(&handle)?;
        if let Entry::Occupied(mut live) = self.live_by_flow.entry(of.flow) {
            *live.get_mut() -= 1;
            if *live.get() == 0 {
                live.remove();
            }
        }
        Some(of)
    }

    /// Removes every open flow `doomed` matches, queueing each for repair
    /// (the teardown notification every on-path gateway sends the source
    /// when it flushes the flow's handle).
    pub(super) fn teardown_and_notify(&mut self, doomed: impl Fn(&OpenFlow) -> bool) {
        let mut dead: Vec<HandleId> = self
            .open_flows
            .iter()
            .filter(|(_, of)| doomed(of))
            .map(|(h, _)| *h)
            .collect();
        // HashMap iteration order varies across processes; the repair
        // queue (and hence trace exports) must not.
        dead.sort();
        for h in dead {
            if let Some(of) = self.remove_open(h) {
                // Only the gateways at the fault flushed the handle; the
                // rest of the route keeps it until evicted or purged.
                self.stragglers
                    .entry(of.flow)
                    .or_default()
                    .push((h, transit(&of.route).to_vec()));
                // The fault's own record does not exist yet (it is
                // emitted after the teardowns it implies); the caller
                // backfills via `set_pending_cause_from`.
                self.pending_repair.push((of, None));
            }
        }
    }

    /// The data plane's side of the `a`–`b` link dying: each endpoint
    /// flushes its handles toward the other, and every open flow crossing
    /// the link is torn down and queued for repair.
    pub(super) fn tear_down_link(&mut self, a: AdId, b: AdId) {
        self.gateways[a.index()].invalidate(|e| e.prev == b || e.next == b);
        self.gateways[b.index()].invalidate(|e| e.prev == a || e.next == a);
        self.teardown_and_notify(|of| {
            of.route
                .windows(2)
                .any(|w| w.contains(&a) && w.contains(&b))
        });
    }

    /// Crashes `ad`'s Policy Gateway: its handle cache is lost, flows
    /// transiting the AD are torn down and queued for repair, and setups
    /// through the AD are refused until [`OrwgNetwork::restore_gateway`].
    /// Route Servers' views are *not* refreshed — sources discover the
    /// crash through rejected setups, exactly like stale policy.
    pub fn crash_gateway(&mut self, ad: AdId) {
        self.gateways[ad.index()].crash();
        self.teardown_and_notify(|of| transit(&of.route).contains(&ad));
    }

    /// Restarts a crashed gateway cold (empty handle cache, new epoch).
    pub fn restore_gateway(&mut self, ad: AdId) {
        self.gateways[ad.index()].restart();
    }

    /// Installs `policy` as its AD's *actual* policy **without**
    /// reflooding — every Route Server keeps the stale published view.
    /// This is misbehavior injection, not management: it models an AD
    /// whose enforced policy diverges from what it advertises. Combined
    /// with [`OrwgNetwork::set_rogue_gateways`] it is the ORWG analogue
    /// of a route leak — the AD carries (and acks) traffic its real
    /// policy forbids, detectable only on the forwarding plane.
    pub fn set_covert_policy(&mut self, policy: TransitPolicy) {
        self.db.set_policy(policy);
    }

    /// Marks each given AD's gateway as rogue: it forges setup acks
    /// (installing handles without a policy check) until quarantined or
    /// unmarked. Replaces any previous rogue set.
    pub fn set_rogue_gateways(&mut self, ads: impl IntoIterator<Item = AdId>) {
        self.rogue_gateways = ads.into_iter().collect();
        self.rogue_gateways.sort();
        self.rogue_gateways.dedup();
    }

    /// Attempts to restore every flow whose route a fault tore down.
    ///
    /// For each pending flow the source first replays its cached alternate
    /// routes (spares stored by [`OrwgNetwork::open_repairable`]) through
    /// a fresh setup walk — links and gateways re-validate, so a spare
    /// that the fault also broke is simply rejected. Only when no spare
    /// survives does the source pay for a fresh policy-constrained
    /// synthesis: an [`OrwgNetwork::open`] that, when a gateway refuses
    /// the setup or a link on the route is down, avoids the offender and
    /// synthesizes again, up to `max_retries` times. Repair setups are
    /// never lost to [`OrwgNetwork::set_setup_loss`]. Outcomes accumulate
    /// in [`OrwgNetwork::repair_stats`]; the per-call delta is returned.
    pub fn repair_pending(&mut self, max_retries: usize) -> RepairStats {
        let before = self.repair_stats;
        let pending = std::mem::take(&mut self.pending_repair);
        for (of, cause) in pending {
            // A spare that is the route which just died is skipped.
            let spared = (of.alternates.iter())
                .filter(|alt| alt.path != of.route)
                .any(|alt| self.setup_along(&of.flow, alt, Vec::new(), cause).is_ok());
            let via = if spared {
                self.repair_stats.repaired_via_alternate += 1;
                "alternate"
            } else if self.open_resilient(&of.flow, max_retries, cause).is_ok() {
                self.repair_stats.repaired_via_synthesis += 1;
                "synthesis"
            } else {
                self.repair_stats.failures += 1;
                "failed"
            };
            self.emit(
                cause,
                EventRecord::RouteSetupRepair {
                    src: of.flow.src,
                    dst: of.flow.dst,
                    via,
                },
            );
        }
        RepairStats {
            repaired_via_alternate: self.repair_stats.repaired_via_alternate
                - before.repaired_via_alternate,
            repaired_via_synthesis: self.repair_stats.repaired_via_synthesis
                - before.repaired_via_synthesis,
            failures: self.repair_stats.failures - before.failures,
            setup_retransmits: self.repair_stats.setup_retransmits - before.setup_retransmits,
        }
    }

    /// [`OrwgNetwork::repair_pending`]'s fresh synthesis: opens `flow`,
    /// and when a Policy Gateway refuses the setup (its actual policy is
    /// newer than the source's flooded view) or a link on the route is
    /// down, adds the offender to the source's avoid criteria and
    /// synthesizes again — up to `max_retries` times. The source's prior
    /// selection criteria are restored afterwards.
    fn open_resilient(
        &mut self,
        flow: &FlowSpec,
        max_retries: usize,
        cause: Option<EventId>,
    ) -> Result<SetupOutcome, OpenError> {
        let saved = self.servers[flow.src.index()].selection().clone();
        let endpoint = |ad: AdId| ad == flow.src || ad == flow.dst;
        let mut extra: Vec<AdId> = Vec::new();
        let result = loop {
            let offender = match self.open_on_rung(flow, BrownoutRung::Cached, cause) {
                Ok(s) => break Ok(s),
                Err(e) if extra.len() >= max_retries => break Err(e),
                Err(OpenError::Rejected(
                    SetupError::PolicyDenied { ad }
                    | SetupError::PtMismatch { ad }
                    | SetupError::GatewayDown { ad },
                )) => ad,
                // A dead link's downstream endpoint, else its upstream
                // one, but never an endpoint of the flow itself.
                Err(OpenError::LinkDown { b, .. }) if !endpoint(b) => b,
                Err(OpenError::LinkDown { a, .. }) if !endpoint(a) => a,
                Err(e) => break Err(e),
            };
            extra.push(offender);
            let sel = widen_avoid(&saved, extra.iter().copied());
            self.servers[flow.src.index()].set_selection(sel);
        };
        self.servers[flow.src.index()].set_selection(saved);
        result
    }
}

/// ORWG through the shared data-plane harness, so `forward` and
/// `score_flows` cover all five design points. The packet's mark is its
/// route handle: the source opens the flow (any [`OpenError`] drops the
/// packet), and each transit hop is the Policy Gateway's handle lookup.
impl DataPlane for OrwgNetwork {
    type Mark = Option<HandleId>;

    fn next_hop(
        &mut self,
        at: AdId,
        flow: &FlowSpec,
        prev: Option<AdId>,
        mark: &mut Option<HandleId>,
    ) -> Option<AdId> {
        if let (Some(handle), Some(prev)) = (*mark, prev) {
            let pkt = DataPacket {
                handle,
                src: flow.src,
            };
            return self.gateways[at.index()].forward_data(&pkt, prev).ok();
        }
        let setup = self.open(flow).ok()?;
        *mark = Some(setup.handle);
        setup.route.get(1).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::DataError;
    use crate::network::tests::permissive;
    use crate::synthesis::Strategy;
    use adroute_policy::{AdSet, PolicyAction, PolicyCondition, PolicyDb};
    use adroute_topology::generate::{line, ring};

    /// A flow from an AD to itself has the one-AD route and no transit:
    /// it opens (cold and with spares), sends, stays open through a crash
    /// of its own AD's gateway and tears down.
    #[test]
    fn self_flow_round_trip() {
        let mut net = permissive(4);
        let flow = FlowSpec::best_effort(AdId(2), AdId(2));
        let cold = net.open(&flow).expect("a self-flow routes to itself");
        assert_eq!(cold.route, vec![AdId(2)]);
        let sent = net.send(cold.handle).expect("nothing to cross");
        assert_eq!((sent.hops, sent.header_bytes), (0, 0));
        net.teardown(cold.handle);
        assert_eq!(net.open_flow_count(), 0);
        let spare = net.open_repairable(&flow).expect("full rung, same route");
        assert_eq!(spare.route, vec![AdId(2)]);
        net.crash_gateway(AdId(2));
        assert_eq!(net.open_flow_count(), 1, "the flow transits nothing");
        net.teardown(spare.handle);
        assert!(matches!(
            net.send(spare.handle),
            Err(SendError::UnknownFlow)
        ));
    }

    #[test]
    fn rejected_setup_rolls_back_partial_handles() {
        // Ring of 6: route 0-1-2-3. AD1 validates and installs; AD2's
        // actual policy then refuses. AD1 must not keep the handle.
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        let mut net = OrwgNetwork::converged(&topo, &db);
        net.db.set_policy(TransitPolicy::deny_all(AdId(2)));
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let err = net.open(&flow).unwrap_err();
        assert_eq!(
            err,
            OpenError::Rejected(SetupError::PolicyDenied { ad: AdId(2) })
        );
        assert_eq!(
            net.gateway(AdId(1)).cached_handles(),
            0,
            "partial install must roll back"
        );
    }

    #[test]
    fn setup_spans_chain_open_ack_and_repair() {
        let mut net = permissive(6);
        net.enable_obs(256);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        net.open_repairable(&flow).unwrap();
        let l = net.topo.link_between(AdId(1), AdId(2)).unwrap();
        net.fail_link(l);
        net.repair_pending(2);
        let evs: Vec<_> = net.obs.log.iter().copied().collect();
        let by_id: std::collections::BTreeMap<_, _> = evs.iter().map(|ev| (ev.id, ev)).collect();
        // Data-plane ids live in their own namespace, disjoint from any
        // engine log, and causes always point at earlier records.
        for ev in &evs {
            assert!(ev.id.0 >= adroute_sim::DATA_STREAM_ID_BASE);
            if let Some(c) = ev.cause {
                assert!(c < ev.id);
                assert!(by_id.contains_key(&c));
            }
        }
        // Every ack is the child of an open; the first open is a root.
        let first_open = evs
            .iter()
            .find(|ev| matches!(ev.rec, EventRecord::RouteSetupOpen { .. }))
            .unwrap();
        assert_eq!(first_open.cause, None);
        for ev in &evs {
            if let EventRecord::RouteSetupAck { .. } = ev.rec {
                let parent = by_id[&ev.cause.expect("ack has a cause")];
                assert!(matches!(parent.rec, EventRecord::RouteSetupOpen { .. }));
            }
        }
        // The view-invalidate descends from its view-delta, and the
        // repair span (re-open, ack, repair record) descends from the
        // invalidate that tore the flow down.
        let inv = evs
            .iter()
            .find(|ev| matches!(ev.rec, EventRecord::ViewInvalidate { .. }))
            .unwrap();
        let inv_parent = by_id[&inv.cause.expect("invalidate has a cause")];
        assert!(matches!(inv_parent.rec, EventRecord::ViewDeltaApply { .. }));
        let repair = evs
            .iter()
            .find(|ev| matches!(ev.rec, EventRecord::RouteSetupRepair { .. }))
            .unwrap();
        assert_eq!(repair.cause, Some(inv.id));
        let reopen = evs
            .iter()
            .find(|ev| ev.id > inv.id && matches!(ev.rec, EventRecord::RouteSetupOpen { .. }))
            .unwrap();
        assert_eq!(reopen.cause, Some(inv.id));
    }

    #[test]
    fn lossy_setup_chains_retransmits_and_nacks_carry_reasons() {
        let mut net = permissive(6);
        net.enable_obs(256);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        // Every transmission lost: the log shows a retransmit chain.
        net.set_setup_loss(1.0, 7);
        assert_eq!(
            net.open_repairable(&flow).unwrap_err(),
            OpenError::SetupTimeout
        );
        let rexmits: Vec<_> = net
            .obs
            .log
            .iter()
            .filter(|ev| matches!(ev.rec, EventRecord::RouteSetupRetransmit { .. }))
            .copied()
            .collect();
        assert_eq!(rexmits.len(), SETUP_RETRANSMITS as usize);
        assert_eq!(rexmits[0].cause, None);
        assert_eq!(rexmits[1].cause, Some(rexmits[0].id));
        // A stale-view setup into a refusing gateway nacks with a reason,
        // chained to its open.
        net.set_setup_loss(0.0, 7);
        net.db.set_policy(TransitPolicy::deny_all(AdId(1)));
        assert!(matches!(net.open(&flow), Err(OpenError::Rejected(_))));
        let nack = net
            .obs
            .log
            .iter()
            .find(|ev| matches!(ev.rec, EventRecord::RouteSetupNack { .. }))
            .copied()
            .expect("rejected setup nacks");
        assert!(matches!(
            nack.rec,
            EventRecord::RouteSetupNack {
                reason: "policy-denied",
                ..
            }
        ));
        let opens: Vec<_> = net
            .obs
            .log
            .iter()
            .filter(|ev| matches!(ev.rec, EventRecord::RouteSetupOpen { .. }))
            .copied()
            .collect();
        assert_eq!(nack.cause, Some(opens.last().unwrap().id));
        let jsonl = net.obs.log.export_jsonl();
        assert!(jsonl.contains("\"kind\":\"setup-nack\""), "{jsonl}");
        assert!(jsonl.contains("\"kind\":\"setup-retransmit\""), "{jsonl}");
    }

    #[test]
    fn open_then_send_amortizes() {
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let setup = net.open(&flow).unwrap();
        assert_eq!(setup.route, vec![AdId(0), AdId(1), AdId(2), AdId(3)]);
        assert_eq!(setup.validations, 2);
        assert!(setup.header_bytes > 0);
        let d = net.send(setup.handle).unwrap();
        assert_eq!(d.hops, 3);
        assert_eq!(d.header_bytes, 36);
        assert!(d.header_bytes < setup.header_bytes);
        // Handle forwarding does not consult route servers again.
        assert_eq!(net.total_searches(), 1);
        assert_eq!(net.open_flow_count(), 1);
    }

    #[test]
    fn source_routed_packets_cost_more_per_packet() {
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let setup = net.open(&flow).unwrap();
        let handle_pkt = net.send(setup.handle).unwrap();
        let sr_pkt = net.send_source_routed(&flow).unwrap();
        assert!(sr_pkt.header_bytes > handle_pkt.header_bytes);
    }

    #[test]
    fn gateways_enforce_policy_at_setup() {
        let topo = line(4);
        let mut db = PolicyDb::permissive(&topo);
        let mut p = TransitPolicy::permit_all(AdId(2));
        p.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(0)]))],
            PolicyAction::Deny,
        );
        db.set_policy(p);
        let mut net = OrwgNetwork::converged(&topo, &db);
        // The route server knows AD2 denies source 0: no route at all.
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        assert_eq!(net.open(&flow).unwrap_err(), OpenError::NoRoute);
        // Another source is fine.
        let flow1 = FlowSpec::best_effort(AdId(1), AdId(3));
        assert!(net.open(&flow1).is_ok());
    }

    #[test]
    fn stale_view_rejected_by_gateway() {
        // Build a network whose servers believe AD1 permits, then change
        // AD1's actual policy without telling the servers: the gateway
        // must catch the setup.
        let topo = line(3);
        let db = PolicyDb::permissive(&topo);
        let mut net = OrwgNetwork::converged(&topo, &db);
        // Out-of-band actual-policy change (bypassing change_policy, which
        // would refresh views).
        net.db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let flow = FlowSpec::best_effort(AdId(0), AdId(2));
        match net.open(&flow) {
            Err(OpenError::Rejected(SetupError::PolicyDenied { ad })) => assert_eq!(ad, AdId(1)),
            other => panic!("expected gateway rejection, got {other:?}"),
        }
    }

    #[test]
    fn teardown_releases_state() {
        let mut net = permissive(5);
        let flow = FlowSpec::best_effort(AdId(0), AdId(2));
        let s = net.open(&flow).unwrap();
        assert_eq!(net.gateway(AdId(1)).cached_handles(), 1);
        net.teardown(s.handle);
        assert_eq!(net.gateway(AdId(1)).cached_handles(), 0);
        assert_eq!(net.send(s.handle).unwrap_err(), SendError::UnknownFlow);
    }

    #[test]
    fn evicted_handle_surfaces_as_drop() {
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        // Tiny gateway caches: 1 handle.
        let mut net = OrwgNetwork::converged_with(&topo, &db, Strategy::Cached { capacity: 64 }, 1);
        let f1 = FlowSpec::best_effort(AdId(0), AdId(3));
        let f2 = FlowSpec::best_effort(AdId(5), AdId(2)); // also transits AD1
        let s1 = net.open(&f1).unwrap();
        let _s2 = net.open(&f2).unwrap(); // evicts s1's handle at shared PGs
        match net.send(s1.handle) {
            Err(SendError::Dropped(DataError::UnknownHandle { .. })) => {}
            other => panic!("expected eviction drop, got {other:?}"),
        }
    }

    #[test]
    fn open_resilient_routes_around_stale_policy() {
        // Servers believe AD1 permits; AD1's actual policy (not yet
        // reflooded) denies. Plain open is rejected at the gateway;
        // resilient open avoids AD1 and succeeds via the other side.
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        let mut net = OrwgNetwork::converged(&topo, &db);
        net.db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        assert!(matches!(net.open(&flow), Err(OpenError::Rejected(_))));
        let s = net.open_resilient(&flow, 3, None).expect("detour exists");
        assert_eq!(s.route, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
        // Selection criteria restored afterwards.
        assert!(net.server(AdId(0)).selection().allows_transit(AdId(1)));
        assert!(net.send(s.handle).is_ok());
    }

    #[test]
    fn open_resilient_gives_up_after_budget() {
        // Both ring directions stale-deny: one retry is not enough for
        // two rejections.
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        let mut net = OrwgNetwork::converged(&topo, &db);
        net.db.set_policy(TransitPolicy::deny_all(AdId(1)));
        net.db.set_policy(TransitPolicy::deny_all(AdId(5)));
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        assert!(net.open_resilient(&flow, 0, None).is_err());
        // With budget, both offenders are discovered, then no route
        // remains in the (stale) view either way around.
        assert!(net.open_resilient(&flow, 4, None).is_err());
    }

    #[test]
    fn open_resilient_routes_around_unflooded_link_failure() {
        // The link fails but servers' views are stale (we bypass
        // fail_link's view refresh by flipping ground truth directly).
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        let mut net = OrwgNetwork::converged(&topo, &db);
        let l = net.topo.link_between(AdId(1), AdId(2)).unwrap();
        net.topo.set_link_up(l, false);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        assert!(matches!(net.open(&flow), Err(OpenError::LinkDown { .. })));
        let s = net.open_resilient(&flow, 3, None).expect("detour exists");
        assert_eq!(s.route, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
    }

    #[test]
    fn crashed_gateway_tears_down_and_is_avoided() {
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let s = net.open(&flow).unwrap();
        assert_eq!(s.route, vec![AdId(0), AdId(1), AdId(2), AdId(3)]);
        net.crash_gateway(AdId(1));
        // The source was notified: the flow is queued for repair, the
        // handle is dead.
        assert_eq!(net.pending_repair_count(), 1);
        assert_eq!(net.send(s.handle).unwrap_err(), SendError::UnknownFlow);
        // Plain opens through the crashed AD are refused at setup…
        match net.open(&flow) {
            Err(OpenError::Rejected(SetupError::GatewayDown { ad })) => assert_eq!(ad, AdId(1)),
            other => panic!("expected GatewayDown, got {other:?}"),
        }
        // …and the resilient source routes around the crash.
        let s2 = net.open_resilient(&flow, 3, None).expect("detour exists");
        assert_eq!(s2.route, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
        assert!(net.send(s2.handle).is_ok());
        // After restart the original side works again, cold.
        net.restore_gateway(AdId(1));
        let s3 = net.open(&flow).unwrap();
        assert_eq!(s3.route, vec![AdId(0), AdId(1), AdId(2), AdId(3)]);
        assert_eq!(net.total_stale_forwards(), 0);
    }

    #[test]
    fn repair_prefers_cached_alternate_over_synthesis() {
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let s = net.open_repairable(&flow).unwrap();
        assert_eq!(s.route, vec![AdId(0), AdId(1), AdId(2), AdId(3)]);
        let searches_after_open = net.total_searches();
        let l = net.topo().link_between(AdId(1), AdId(2)).unwrap();
        net.fail_link(l);
        assert_eq!(net.pending_repair_count(), 1);
        let r = net.repair_pending(3);
        assert_eq!(r.repaired_via_alternate, 1);
        assert_eq!(r.repaired_via_synthesis, 0);
        assert_eq!(r.failures, 0);
        // The spare was replayed, not re-synthesized.
        assert_eq!(net.total_searches(), searches_after_open);
        assert_eq!(net.open_flow_count(), 1);
        let of = net.open_flows.values().next().unwrap();
        assert_eq!(of.route, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
    }

    #[test]
    fn repair_falls_back_to_synthesis_when_spares_die_too() {
        // Figure-1-style richer graph: fail a link that kills the primary,
        // then crash an AD on the only cached spare so synthesis must run.
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        net.open_repairable(&flow).unwrap();
        let l = net.topo().link_between(AdId(1), AdId(2)).unwrap();
        net.fail_link(l);
        // Break the spare (the other ring side) before repair runs.
        let l2 = net.topo().link_between(AdId(4), AdId(5)).unwrap();
        net.fail_link(l2);
        let r = net.repair_pending(3);
        // No path remains on a 6-ring with both sides cut.
        assert_eq!(r.repaired_via_alternate, 0);
        assert_eq!(r.failures, 1);
        assert_eq!(net.repair_stats.failures, 1);
    }

    #[test]
    fn setup_loss_retransmits_with_backoff() {
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        // Deterministic heavy loss: some attempts are lost, the eventual
        // success carries the accumulated backoff in its latency.
        net.set_setup_loss(0.7, 42);
        let mut saw_retry = false;
        for _ in 0..10 {
            match net.open_repairable(&flow) {
                Ok(s) => {
                    if s.latency_us > 3_000 {
                        // Ring of 6: raw route latency is 3 hops × 1000µs.
                        saw_retry = true;
                    }
                }
                Err(OpenError::SetupTimeout) => saw_retry = true,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(saw_retry, "70% loss must cost at least one retransmit");
        assert!(net.repair_stats.setup_retransmits > 0);
        // With loss disabled the same call is loss-free.
        net.set_setup_loss(0.0, 42);
        let before = net.repair_stats.setup_retransmits;
        net.open_repairable(&flow).unwrap();
        assert_eq!(net.repair_stats.setup_retransmits, before);
    }

    #[test]
    fn setup_timeout_after_retry_cap() {
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        net.set_setup_loss(1.0, 7); // every transmission lost
        assert_eq!(
            net.open_repairable(&flow).unwrap_err(),
            OpenError::SetupTimeout
        );
        assert_eq!(
            net.repair_stats.setup_retransmits,
            u64::from(SETUP_RETRANSMITS)
        );
    }
}

//! The admission and serving plane: opens offered to a source's admission
//! queue, served in slots on the brownout ladder's rung, retried or
//! abandoned by clients; Route Server crash, warm-standby failover and
//! background refill of invalidated cache entries.

use adroute_policy::FlowSpec;
use adroute_sim::{EventId, EventRecord, SimTime};
use adroute_topology::AdId;

use super::OrwgNetwork;
use crate::gateway::PolicyGateway;
use crate::overload::{
    AdmissionConfig, AdmissionController, AdmissionVerdict, BrownoutRung, PendingOpen,
    ServeOutcome, ShardConfig,
};
use crate::synthesis::PolicyRoute;

/// What one rung's synthesis produced for one open — shared by the
/// direct opens and the monolithic and batched serve paths.
pub(super) enum Synth {
    Route(PolicyRoute, Vec<PolicyRoute>),
    Miss,
    NoRoute,
}

impl OrwgNetwork {
    /// Installs `cfg` on every AD's admission controller. Queued opens
    /// are dropped — call before a run, not during one.
    pub fn set_admission(&mut self, cfg: AdmissionConfig) {
        for a in &mut self.admission {
            *a = AdmissionController::new(cfg);
        }
    }

    /// The admission controller fronting `ad`'s Route Server.
    pub(crate) fn admission(&self, ad: AdId) -> &AdmissionController {
        &self.admission[ad.index()]
    }

    /// Offers an open to the source AD's admission controller (stamped at
    /// the network clock). A crashed Route Server or a full queue sheds
    /// the open with an explicit NACK carrying a retry-after hint — never
    /// a silent drop; otherwise the open queues for
    /// [`OrwgNetwork::serve_batch`], and the emitted setup-defer record
    /// becomes its causal parent so the eventual admit chains to it.
    pub fn offer_open(&mut self, open: PendingOpen) -> AdmissionVerdict {
        let (src, dst) = (open.flow.src, open.flow.dst);
        self.obs.metrics.add("opens_offered", 1);
        if self.rs_down.contains(&src) {
            let retry_after_us = self.admission[src.index()].config().retry_after_us;
            self.obs.metrics.add("opens_shed", 1);
            let event = self.emit(
                open.cause,
                EventRecord::SetupShed {
                    src,
                    dst,
                    retry_after_us,
                    depth: 0,
                },
            );
            return AdmissionVerdict::Shed {
                open,
                retry_after_us,
                event,
            };
        }
        match self.admission[src.index()].offer(open) {
            Ok(depth) => {
                self.obs.metrics.add("opens_queued", 1);
                self.obs.metrics.record("open_queue_depth", depth as u64);
                let event = self.emit(
                    open.cause,
                    EventRecord::SetupDefer {
                        src,
                        dst,
                        depth: depth as u64,
                    },
                );
                if event.is_some() {
                    self.admission[src.index()].set_back_cause(event);
                }
                AdmissionVerdict::Queued { depth, event }
            }
            Err(retry_after_us) => {
                self.obs.metrics.add("opens_shed", 1);
                let depth = self.admission[src.index()].depth() as u64;
                let event = self.emit(
                    open.cause,
                    EventRecord::SetupShed {
                        src,
                        dst,
                        retry_after_us,
                        depth,
                    },
                );
                AdmissionVerdict::Shed {
                    open,
                    retry_after_us,
                    event,
                }
            }
        }
    }

    /// Serves the head of `ad`'s admission queue on the rung the brownout
    /// ladder currently selects. An open whose deadline passed while it
    /// queued is cancelled unserved (no synthesis is paid for); a stored-
    /// rung miss sheds mid-queue rather than searching. Every rung's
    /// result honors the source's selection criteria — quarantine
    /// avoid-sets hold even in degraded service, with an explicit
    /// re-check on stored entries as belt and braces.
    ///
    /// The load ramp serves through [`OrwgNetwork::serve_batch`]; this
    /// one-open form is the reference a batch of one is tested against.
    pub fn serve_next(&mut self, ad: AdId) -> Option<ServeOutcome> {
        let now = self.clock;
        let rung = self.admission[ad.index()].rung(now);
        let open = self.admission[ad.index()].pop()?;
        // The depth a mid-queue shed NACK would report: nothing between
        // here and the NACK touches the queue, so capturing it at the
        // pop is exact (and lets the batched path reuse this code).
        let depth = self.admission[ad.index()].depth() as u64;
        if now >= open.deadline {
            return Some(self.emit_expired(open));
        }
        let waited = now.as_us().saturating_sub(open.offered_at.as_us());
        self.obs.metrics.record("setup_wait_us", waited);
        let synth = self.synth_on_rung(ad, &open.flow, rung);
        Some(self.commit_outcome(ad, open, rung, waited, depth, synth))
    }

    /// Cancels an open whose deadline passed while it queued, emitting
    /// the abandon record. No synthesis is paid for.
    fn emit_expired(&mut self, open: PendingOpen) -> ServeOutcome {
        let (src, dst) = (open.flow.src, open.flow.dst);
        self.obs.metrics.add("opens_expired", 1);
        self.obs.metrics.record(
            "shed_latency_us",
            self.clock.as_us().saturating_sub(open.arrival.as_us()),
        );
        self.emit(
            open.cause,
            EventRecord::SetupAbandon {
                src,
                dst,
                attempts: u64::from(open.attempt) + 1,
            },
        );
        ServeOutcome::Expired { open }
    }

    /// One rung's synthesis for one flow — the per-open body shared by
    /// [`OrwgNetwork::open`], [`OrwgNetwork::open_repairable`],
    /// [`OrwgNetwork::serve_next`] and [`OrwgNetwork::serve_batch`].
    pub(super) fn synth_on_rung(&mut self, ad: AdId, flow: &FlowSpec, rung: BrownoutRung) -> Synth {
        match rung {
            BrownoutRung::Full => {
                let mut alts = self.servers[ad.index()].alternatives(flow, 3);
                if alts.is_empty() {
                    Synth::NoRoute
                } else {
                    let primary = alts.remove(0);
                    Synth::Route(primary, alts)
                }
            }
            BrownoutRung::Cached => match self.servers[ad.index()].request(flow) {
                Some(r) => Synth::Route(r, Vec::new()),
                None => Synth::NoRoute,
            },
            BrownoutRung::Stored => match self.servers[ad.index()].stored_route(flow) {
                Some(Some(r)) => {
                    let sel = self.servers[ad.index()].selection();
                    if sel.accepts(&r.path) {
                        Synth::Route(r, Vec::new())
                    } else {
                        // A stored entry that predates a quarantine
                        // widening must never be served; treat as a miss.
                        Synth::Miss
                    }
                }
                Some(None) => Synth::NoRoute,
                None => Synth::Miss,
            },
        }
    }

    /// Turns a synthesis result into the open's outcome: metrics, the
    /// admit/shed event, and the setup walk for a served route. `depth`
    /// is the queue depth captured when the open was popped.
    fn commit_outcome(
        &mut self,
        ad: AdId,
        open: PendingOpen,
        rung: BrownoutRung,
        waited: u64,
        depth: u64,
        synth: Synth,
    ) -> ServeOutcome {
        let (src, dst) = (open.flow.src, open.flow.dst);
        let flow = open.flow;
        match synth {
            Synth::Miss => {
                let retry_after_us = self.admission[ad.index()].config().retry_after_us;
                self.obs.metrics.add("opens_shed", 1);
                let event = self.emit(
                    open.cause,
                    EventRecord::SetupShed {
                        src,
                        dst,
                        retry_after_us,
                        depth,
                    },
                );
                ServeOutcome::Shed {
                    open,
                    retry_after_us,
                    event,
                }
            }
            Synth::NoRoute => {
                self.obs.metrics.add("opens_no_route", 1);
                ServeOutcome::NoRoute { open, rung }
            }
            Synth::Route(primary, alts) => {
                let admit = self.emit(
                    open.cause,
                    EventRecord::SetupAdmit {
                        src,
                        dst,
                        rung: rung.tag(),
                        waited_us: waited,
                    },
                );
                let cause = admit.or(open.cause);
                match self.setup_along(&flow, &primary, alts, cause) {
                    Ok(setup) => {
                        self.obs.metrics.add(
                            match rung {
                                BrownoutRung::Full => "opens_served_full",
                                BrownoutRung::Cached => "opens_served_cached",
                                BrownoutRung::Stored => "opens_served_stored",
                            },
                            1,
                        );
                        ServeOutcome::Served {
                            open,
                            rung,
                            setup,
                            admit,
                        }
                    }
                    Err(error) => {
                        self.obs.metrics.add("opens_setup_failed", 1);
                        ServeOutcome::Failed { open, rung, error }
                    }
                }
            }
        }
    }

    /// Serves up to `cfg.max_batch` opens from `ad`'s admission queue in
    /// one service slot, folding co-routable cached-rung opens into
    /// shared multi-destination sweeps ([`RouteServer::request_batch`]).
    ///
    /// The brownout ladder picks the slot's path once, at the rung in
    /// force when the slot's first live open is popped: `Full` serves a
    /// single open solo with spares (full synthesis shares nothing and
    /// costs too much to commit a whole batch to), `Cached` answers the
    /// whole batch through one batched request — itself byte-identical
    /// to a [`RouteServer::request`] loop — and `Stored` does per-open
    /// table lookups, shedding misses. Sampling the ladder per slot
    /// rather than per pop keeps its feedback at the granularity the
    /// service actually happens at; a batch must not talk itself into
    /// expensive full synthesis merely because its own pops momentarily
    /// drained the queue below a watermark.
    ///
    /// Expired opens are cancelled unserved in pop order, ride along
    /// free (they do not count against the batch), and — exactly as a
    /// [`OrwgNetwork::serve_next`] loop would — still see the rung
    /// recomputed until the first live open fixes it. With
    /// `max_batch == 1` this function *is* `serve_next`: one live open,
    /// popped at the recomputed rung. Outcomes return in pop order.
    ///
    /// [`RouteServer::request`]: crate::synthesis::RouteServer::request
    /// [`RouteServer::request_batch`]: crate::synthesis::RouteServer::request_batch
    pub fn serve_batch(&mut self, ad: AdId, cfg: ShardConfig) -> Vec<ServeOutcome> {
        self.prof.enter("serve_batch");
        let now = self.clock;
        let ai = ad.index();
        struct Popped {
            open: PendingOpen,
            expired: bool,
            waited: u64,
            depth: u64,
        }
        // Phase 1: pop under the ladder. The rung is recomputed before
        // every pop until the first live open freezes it for the slot;
        // the depth each shed NACK would report is captured at the pop.
        self.prof.enter("pop");
        let mut popped: Vec<Popped> = Vec::new();
        let mut slot_rung: Option<BrownoutRung> = None;
        let mut live = 0usize;
        let mut limit = cfg.max_batch.max(1);
        while live < limit {
            let rung = match slot_rung {
                Some(r) => r,
                None => self.admission[ai].rung(now),
            };
            let Some(open) = self.admission[ai].pop() else {
                break;
            };
            let expired = now >= open.deadline;
            if !expired {
                if slot_rung.is_none() {
                    slot_rung = Some(rung);
                    // Full synthesis shares nothing across a batch and is
                    // the most expensive rung by an order of magnitude: a
                    // full-rung slot serves exactly one open so the ladder
                    // can re-evaluate before committing to the next.
                    if rung == BrownoutRung::Full {
                        limit = 1;
                    }
                }
                live += 1;
            }
            popped.push(Popped {
                waited: now.as_us().saturating_sub(open.offered_at.as_us()),
                depth: self.admission[ai].depth() as u64,
                open,
                expired,
            });
        }
        self.prof.exit("pop");
        // Phase 2: synthesize the live opens on the slot rung, in pop
        // order. Cached is the batched path; Full and Stored answer each
        // open exactly as serve_next would.
        let rung = slot_rung.unwrap_or(BrownoutRung::Full);
        let lives: Vec<usize> = (0..popped.len()).filter(|&i| !popped[i].expired).collect();
        self.prof.enter("synth");
        self.prof.work("serve/opens_popped", popped.len() as u64);
        self.prof.work("serve/opens_live", lives.len() as u64);
        if !popped.is_empty() {
            self.prof.work(
                match rung {
                    BrownoutRung::Full => "serve/slots_full",
                    BrownoutRung::Cached => "serve/slots_cached",
                    BrownoutRung::Stored => "serve/slots_stored",
                },
                1,
            );
        }
        let synth_snap = self.prof_synth_snapshot(ai);
        let mut synths: Vec<Option<Synth>> = Vec::new();
        synths.resize_with(popped.len(), || None);
        if rung == BrownoutRung::Cached && lives.len() > 1 {
            let flows: Vec<FlowSpec> = lives.iter().map(|&k| popped[k].open.flow).collect();
            let searches_before = self.servers[ai].stats.searches;
            let routes = self.servers[ai].request_batch(&flows, 1);
            let fresh = self.servers[ai].stats.searches - searches_before;
            self.emit(
                None,
                EventRecord::SynthBatch {
                    ad,
                    flows: lives.len() as u64,
                    fresh,
                },
            );
            for (&k, r) in lives.iter().zip(routes) {
                synths[k] = Some(match r {
                    Some(route) => Synth::Route(route, Vec::new()),
                    None => Synth::NoRoute,
                });
            }
        } else {
            for &k in &lives {
                synths[k] = Some(self.synth_on_rung(ad, &popped[k].open.flow, rung));
            }
        }
        self.prof_synth_attribute(ai, synth_snap);
        self.prof.exit("synth");
        // Phase 3: commit in pop order, exactly as serve_next would.
        self.prof.enter("commit");
        let outcomes: Vec<ServeOutcome> = popped
            .into_iter()
            .zip(synths)
            .map(|(p, synth)| {
                if p.expired {
                    self.emit_expired(p.open)
                } else {
                    self.obs.metrics.record("setup_wait_us", p.waited);
                    let synth = synth.expect("live pops are synthesized");
                    self.commit_outcome(ad, p.open, rung, p.waited, p.depth, synth)
                }
            })
            .collect();
        self.prof.exit("commit");
        self.prof.exit("serve_batch");
        outcomes
    }

    /// Snapshot of one server's synthesis counters, taken around a serve
    /// slot's synthesis phase to credit the profiler's work ledger.
    fn prof_synth_snapshot(&self, ai: usize) -> (u64, u64, u64) {
        let s = &self.servers[ai];
        (s.stats.searches, s.stats.cache_hits, s.sweep.sweeps)
    }

    /// Credits the synthesis side of the work ledger with everything a
    /// slot's synthesis phase did. All three deltas are deterministic for
    /// a fixed scenario configuration, so the ledger is reproducible.
    fn prof_synth_attribute(&mut self, ai: usize, snap: (u64, u64, u64)) {
        if !self.prof.is_enabled() {
            return;
        }
        let s = &self.servers[ai];
        let deltas = (
            s.stats.searches - snap.0,
            s.stats.cache_hits - snap.1,
            s.sweep.sweeps - snap.2,
        );
        self.prof.work("synth/searches", deltas.0);
        self.prof.work("synth/cache_hits", deltas.1);
        self.prof.work("synth/sweeps", deltas.2);
    }

    /// Runs up to `budget` background precompute refills on `ad`'s Route
    /// Server — re-searching cache entries a view change invalidated so
    /// the next open finds them hot instead of paying a search. Emits a
    /// precompute-refill record when anything was restored; returns the
    /// number of entries refilled.
    pub fn background_refill(&mut self, ad: AdId, budget: usize) -> usize {
        self.prof.enter("background_refill");
        let refilled = self.servers[ad.index()].background_refill(budget);
        self.prof.work("synth/refills", refilled as u64);
        self.prof.exit("background_refill");
        if refilled > 0 {
            self.obs.metrics.add("precompute_refills", refilled as u64);
            self.emit(
                None,
                EventRecord::PrecomputeRefill {
                    ad,
                    refilled: refilled as u64,
                },
            );
        }
        refilled
    }

    /// Records a client's retry decision (the setup-retry event, chained
    /// to the shed that provoked it). Returns the event id so the retried
    /// offer can chain onward — the defer→retry→serve span.
    pub(crate) fn note_retry(
        &mut self,
        flow: &FlowSpec,
        attempt: u32,
        backoff_us: u64,
        cause: Option<EventId>,
    ) -> Option<EventId> {
        self.obs.metrics.add("open_retries", 1);
        self.emit(
            cause,
            EventRecord::SetupRetry {
                src: flow.src,
                dst: flow.dst,
                attempt: u64::from(attempt),
                backoff_us,
            },
        )
    }

    /// Records a client giving up on an open (deadline or attempt budget
    /// exhausted) and cancels its in-flight work: any partial handle
    /// state the abandoned attempts left at gateways is purged — unless
    /// another arrival with the same flow spec holds an open route, which
    /// must keep forwarding. Returns the number of handles purged. The
    /// cost is the length of the routes that left state behind, not the
    /// size of the network.
    pub fn abandon_open(
        &mut self,
        flow: &FlowSpec,
        attempts: u64,
        arrival: SimTime,
        cause: Option<EventId>,
    ) -> usize {
        self.obs.metrics.add("opens_abandoned", 1);
        self.obs.metrics.record(
            "shed_latency_us",
            self.clock.as_us().saturating_sub(arrival.as_us()),
        );
        self.emit(
            cause,
            EventRecord::SetupAbandon {
                src: flow.src,
                dst: flow.dst,
                attempts,
            },
        );
        let live = self.live_by_flow.contains_key(flow);
        debug_assert_eq!(live, self.open_flows.values().any(|of| of.flow == *flow));
        if live {
            return 0;
        }
        // Debug builds cross-check against a scan of every gateway table.
        let installed =
            |gws: &[PolicyGateway]| gws.iter().map(|g| g.handles_for(flow)).sum::<usize>();
        let scanned = cfg!(debug_assertions).then(|| installed(&self.gateways));
        let mut purged = 0;
        for (handle, transit) in self.stragglers.remove(flow).unwrap_or_default() {
            for ad in transit {
                purged += usize::from(self.gateways[ad.index()].teardown(handle));
            }
        }
        if let Some(before) = scanned {
            assert_eq!(purged, before, "straggler records missed a handle");
            assert_eq!(installed(&self.gateways), 0);
        }
        purged
    }

    /// Crashes `ad`'s Route Server: all soft synthesis state is lost, the
    /// admission queue drains (its opens are handed back, cancelled, for
    /// the clients' retry logic), and offers shed until
    /// [`OrwgNetwork::failover_route_server`]. Returns the cancelled
    /// opens plus the rs-crash event id (the causal parent for the
    /// cancellations' retries).
    pub(crate) fn crash_route_server(&mut self, ad: AdId) -> (Vec<PendingOpen>, Option<EventId>) {
        if !self.rs_down.contains(&ad) {
            self.rs_down.push(ad);
            self.rs_down.sort();
        }
        self.servers[ad.index()].crash_soft_state();
        let cancelled = self.admission[ad.index()].drain();
        self.obs.metrics.add("rs_crashes", 1);
        let id = self.emit(None, EventRecord::RsCrash { ad });
        (cancelled, id)
    }

    /// Warm-standby takeover for `ad`'s crashed Route Server: the standby
    /// rebuilds the precomputed table from the flooded view, then replays
    /// its last cache snapshot — each entry revalidated against the
    /// current view and selection, so the takeover respects quarantines
    /// declared since the sync. Returns the number of warmed entries.
    pub(crate) fn failover_route_server(&mut self, ad: AdId) -> usize {
        self.rs_down.retain(|&d| d != ad);
        self.servers[ad.index()].rebuild_soft_state();
        let snap = std::mem::take(&mut self.standby[ad.index()]);
        let warmed = self.servers[ad.index()].warm_cache(&snap);
        self.standby[ad.index()] = snap;
        self.obs.metrics.add("rs_failovers", 1);
        self.emit(
            None,
            EventRecord::RsFailover {
                ad,
                warmed: warmed as u64,
            },
        );
        warmed
    }

    /// Snapshots `ad`'s route cache into its warm standby (the periodic
    /// sync a deployment would run over the AD's internal network).
    /// Returns the snapshot size.
    pub(crate) fn standby_sync(&mut self, ad: AdId) -> usize {
        let snap = self.servers[ad.index()].cache_snapshot();
        let n = snap.len();
        self.standby[ad.index()] = snap;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataplane::HandleId;
    use crate::network::tests::permissive;

    fn pending(flow: FlowSpec, at: SimTime) -> PendingOpen {
        PendingOpen {
            flow,
            offered_at: at,
            arrival: at,
            deadline: at.plus_us(100_000),
            attempt: 0,
            phase: 0,
            cause: None,
        }
    }

    #[test]
    fn offer_queue_serve_emits_defer_admit_chain() {
        let mut net = permissive(6);
        net.enable_obs(64);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        net.set_clock(SimTime(100));
        let AdmissionVerdict::Queued { depth, event } = net.offer_open(pending(flow, SimTime(100)))
        else {
            panic!("an empty queue must admit");
        };
        assert_eq!(depth, 1);
        let defer_id = event.expect("log enabled");
        net.set_clock(SimTime(200));
        let Some(ServeOutcome::Served {
            rung,
            setup,
            admit,
            open,
        }) = net.serve_next(AdId(0))
        else {
            panic!("queued open must serve");
        };
        assert_eq!(rung, BrownoutRung::Full, "idle server serves full");
        assert_eq!(open.flow, flow);
        assert!(!setup.route.is_empty());
        let admit_id = admit.expect("log enabled");
        // The admit chains to the defer: the wait span is causally linked.
        let events: Vec<_> = net.obs.log.iter().collect();
        let admit_ev = events.iter().find(|e| e.id == admit_id).unwrap();
        assert_eq!(admit_ev.cause, Some(defer_id));
        assert_eq!(net.obs.metrics.counter("opens_served_full"), 1);
        assert!(net.serve_next(AdId(0)).is_none(), "queue is drained");
    }

    #[test]
    fn full_queue_sheds_with_retry_after_nack() {
        let mut net = permissive(6);
        net.enable_obs(64);
        net.set_admission(AdmissionConfig {
            queue_capacity: 1,
            ..AdmissionConfig::default()
        });
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        assert!(matches!(
            net.offer_open(pending(flow, SimTime::ZERO)),
            AdmissionVerdict::Queued { .. }
        ));
        let AdmissionVerdict::Shed {
            retry_after_us,
            event,
            ..
        } = net.offer_open(pending(flow, SimTime::ZERO))
        else {
            panic!("a full queue must shed");
        };
        assert_eq!(retry_after_us, AdmissionConfig::default().retry_after_us);
        assert!(event.is_some(), "shed is an explicit NACK, never silent");
        assert_eq!(net.obs.metrics.counter("opens_shed"), 1);
    }

    #[test]
    fn deep_queue_degrades_to_cheaper_rungs() {
        let mut net = permissive(6);
        net.set_admission(AdmissionConfig {
            queue_capacity: 64,
            full_depth: 1,
            cached_depth: 2,
            age_watermark_us: 1_000_000,
            retry_after_us: 10_000,
        });
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        // Warm the cache so the stored rung has something to serve.
        let _ = net.synthesize(&flow);
        for _ in 0..3 {
            assert!(matches!(
                net.offer_open(pending(flow, SimTime::ZERO)),
                AdmissionVerdict::Queued { .. }
            ));
        }
        // Depth 3 > cached_depth: stored rung (cache hit, no search).
        let searches = net.total_searches();
        let Some(ServeOutcome::Served { rung, .. }) = net.serve_next(AdId(0)) else {
            panic!("stored rung must serve the cached flow");
        };
        assert_eq!(rung, BrownoutRung::Stored);
        assert_eq!(net.total_searches(), searches, "stored rung never searches");
        // Depth 2: cached rung.
        let Some(ServeOutcome::Served { rung, .. }) = net.serve_next(AdId(0)) else {
            panic!("cached rung must serve");
        };
        assert_eq!(rung, BrownoutRung::Cached);
        // Depth 1: full rung again.
        let Some(ServeOutcome::Served { rung, .. }) = net.serve_next(AdId(0)) else {
            panic!("full rung must serve");
        };
        assert_eq!(rung, BrownoutRung::Full);
    }

    #[test]
    fn stored_rung_miss_sheds_instead_of_searching() {
        let mut net = permissive(6);
        net.set_admission(AdmissionConfig {
            queue_capacity: 64,
            full_depth: 0,
            cached_depth: 0,
            age_watermark_us: 1_000_000,
            retry_after_us: 10_000,
        });
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let _ = net.offer_open(pending(flow, SimTime::ZERO));
        let searches = net.total_searches();
        assert!(matches!(
            net.serve_next(AdId(0)),
            Some(ServeOutcome::Shed { .. })
        ));
        assert_eq!(net.total_searches(), searches);
    }

    #[test]
    fn stored_rung_respects_quarantine() {
        let mut net = permissive(6);
        net.set_admission(AdmissionConfig {
            queue_capacity: 64,
            full_depth: 0,
            cached_depth: 0,
            age_watermark_us: 1_000_000,
            retry_after_us: 10_000,
        });
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let first = net.synthesize(&flow).unwrap();
        assert!(first.path.contains(&AdId(1)) || first.path.contains(&AdId(2)));
        // Quarantining a transit AD flushes stale cached routes; the
        // stored rung must then either serve a legal detour or shed —
        // never the quarantined path.
        let transit = first.path[1];
        net.quarantine_ad(transit, None);
        let _ = net.offer_open(pending(flow, SimTime::ZERO));
        match net.serve_next(AdId(0)) {
            Some(ServeOutcome::Served { setup, .. }) => {
                assert!(!setup.route.contains(&transit));
            }
            Some(ServeOutcome::Shed { .. }) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn expired_open_is_cancelled_unserved() {
        let mut net = permissive(6);
        net.enable_obs(64);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let mut open = pending(flow, SimTime::ZERO);
        open.deadline = SimTime(50);
        let _ = net.offer_open(open);
        net.set_clock(SimTime(100));
        let searches = net.total_searches();
        assert!(matches!(
            net.serve_next(AdId(0)),
            Some(ServeOutcome::Expired { .. })
        ));
        assert_eq!(net.total_searches(), searches, "no synthesis paid");
        assert_eq!(net.obs.metrics.counter("opens_expired"), 1);
    }

    #[test]
    fn rs_crash_drains_queue_and_failover_warms_from_standby() {
        let mut net = permissive(6);
        net.enable_obs(128);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        // Build cache state and sync the standby.
        let _ = net.synthesize(&flow);
        assert_eq!(net.standby_sync(AdId(0)), 1);
        // Queue an open, then crash mid-queue.
        let _ = net.offer_open(pending(flow, SimTime::ZERO));
        let (cancelled, crash_id) = net.crash_route_server(AdId(0));
        assert_eq!(cancelled.len(), 1);
        assert!(crash_id.is_some());
        assert_eq!(net.rs_down, [AdId(0)]);
        assert_eq!(net.server(AdId(0)).cached_len(), 0, "soft state lost");
        // Offers while down shed.
        assert!(matches!(
            net.offer_open(pending(flow, SimTime(10))),
            AdmissionVerdict::Shed { .. }
        ));
        // Takeover: precompute rebuilt, cache warmed from the snapshot.
        let warmed = net.failover_route_server(AdId(0));
        assert_eq!(warmed, 1);
        assert!(net.rs_down.is_empty());
        // Serve the post-failover open on the cached rung: the warmed
        // entry must absorb it without a search.
        net.set_admission(AdmissionConfig {
            full_depth: 0,
            ..AdmissionConfig::default()
        });
        let searches = net.total_searches();
        let _ = net.offer_open(pending(flow, SimTime(20)));
        let Some(ServeOutcome::Served { rung, .. }) = net.serve_next(AdId(0)) else {
            panic!("post-failover open must serve");
        };
        assert_eq!(rung, BrownoutRung::Cached);
        assert_eq!(
            net.total_searches(),
            searches,
            "the warmed cache must absorb the post-failover open"
        );
    }

    #[test]
    fn failover_warm_cache_respects_quarantine_declared_after_sync() {
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let first = net.synthesize(&flow).unwrap();
        let transit = first.path[1];
        net.standby_sync(AdId(0));
        let (_, _) = net.crash_route_server(AdId(0));
        // Quarantine lands between sync and takeover.
        net.quarantine_ad(transit, None);
        let warmed = net.failover_route_server(AdId(0));
        assert_eq!(warmed, 0, "snapshot entry through {transit:?} must drop");
    }

    #[test]
    fn abandon_purges_partial_state_but_spares_live_flows() {
        let mut net = permissive(6);
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let s = net.open(&flow).unwrap();
        // Another client with the same flow spec abandons: the live
        // flow's handles must survive.
        assert_eq!(net.abandon_open(&flow, 3, SimTime::ZERO, None), 0);
        assert!(net.send(s.handle).is_ok());
        // A source teardown clears its own handles: nothing to purge.
        net.teardown(s.handle);
        assert_eq!(net.abandon_open(&flow, 3, SimTime::ZERO, None), 0);
        assert_eq!(net.obs.metrics.counter("opens_abandoned"), 2);
    }

    #[test]
    fn abandon_purges_what_a_teardown_notification_left_behind() {
        // Ring of 8, route 0-1-2-3-4. Link 3-4 fails: AD3 flushes the
        // handle, the source is notified, AD1 and AD2 keep theirs.
        let mut net = permissive(8);
        let flow = FlowSpec::best_effort(AdId(0), AdId(4));
        let other = FlowSpec::best_effort(AdId(1), AdId(3));
        let s = net.open(&flow).unwrap();
        assert_eq!(s.route.len(), 5);
        let kept = net.open(&other).unwrap();
        let l = net.topo.link_between(AdId(3), AdId(4)).unwrap();
        net.fail_link(l);
        assert_eq!(net.gateway(AdId(3)).handles_for(&flow), 0);
        assert_eq!(net.gateway(AdId(2)).handles_for(&flow), 1);
        // The repair re-opens the flow the other way round: live again,
        // so an abandon by a second client must leave everything alone.
        net.repair_pending(2);
        assert_eq!(net.abandon_open(&flow, 1, SimTime::ZERO, None), 0);
        assert_eq!(net.gateway(AdId(2)).handles_for(&flow), 1);
        // Once nothing is live, the stragglers of the first route go, and
        // only they do.
        let live: Vec<HandleId> = net
            .open_flows()
            .filter(|(_, of)| of.flow == flow)
            .map(|(h, _)| h)
            .collect();
        for h in live {
            net.teardown(h);
        }
        assert_eq!(net.abandon_open(&flow, 1, SimTime::ZERO, None), 2);
        assert_eq!(net.abandon_open(&flow, 1, SimTime::ZERO, None), 0);
        assert!(net.send(kept.handle).is_ok());
    }
}

//! [`OrwgNetwork`]: the assembled ORWG data plane — Route Servers, Policy
//! Gateways, and the setup/handle forwarding machinery — runnable against
//! a (converged) topology-and-policy view.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use adroute_policy::{FlowSpec, PolicyDb, TransitPolicy};
use adroute_protocols::forwarding::DataPlane;
use adroute_protocols::linkstate::LsDb;
use adroute_sim::{Engine, EventId, EventRecord, Obs, Profiler, SimTime, DATA_STREAM_ID_BASE};
use adroute_topology::{AdId, LinkId, TopoDelta, Topology};

use crate::dataplane::{DataPacket, HandleId, SetupPacket};
use crate::fxhash::FxHashMap;
use crate::gateway::{DataError, PolicyGateway, SetupError};
use crate::overload::{
    AdmissionConfig, AdmissionController, AdmissionVerdict, BrownoutRung, PendingOpen,
    ServeOutcome, ShardConfig,
};
use crate::router::OrwgProtocol;
use crate::synthesis::{
    sync_views, transit, widen_avoid, PolicyRoute, RouteServer, Strategy, SweepStats, SynthStats,
    ViewDelta, ViewEdits,
};

/// What one rung's synthesis produced for one open — shared by the
/// direct opens and the monolithic and batched serve paths.
enum Synth {
    Route(PolicyRoute, Vec<PolicyRoute>),
    Miss,
    NoRoute,
}

/// How Route Server views track topology and policy events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViewMaintenance {
    /// Apply each event as a [`ViewDelta`], invalidating only the stored
    /// routes that depend on the changed element. A view several servers
    /// share is copied once per event and the copy shared again. Servers
    /// whose view cannot absorb a delta (its structure predates the link)
    /// fall back to a full install of one shared ground-truth view.
    Incremental,
    /// Clone the full topology and policy database into every server and
    /// flush all derived state — the original behavior, retained as the
    /// correctness oracle and as E7's cost baseline.
    Flush,
}

/// Why opening a policy route failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpenError {
    /// The source's Route Server found no legal route in its view.
    NoRoute,
    /// A link on the synthesized route is physically down (stale view).
    LinkDown {
        /// Upstream endpoint of the dead link.
        a: AdId,
        /// Downstream endpoint.
        b: AdId,
    },
    /// A Policy Gateway refused the setup.
    Rejected(SetupError),
    /// Every setup transmission (original plus all retransmits) was lost;
    /// the source's retry budget ran out.
    SetupTimeout,
}

/// Why sending on an established route failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendError {
    /// The handle was never opened (or was torn down) at the source.
    UnknownFlow,
    /// A link on the route is physically down.
    LinkDown {
        /// Upstream endpoint of the dead link.
        a: AdId,
        /// Downstream endpoint.
        b: AdId,
    },
    /// A gateway dropped the packet (evicted handle, failed validation).
    Dropped(DataError),
}

/// Result of a successful route setup.
#[derive(Clone, Debug)]
pub struct SetupOutcome {
    /// The allocated handle.
    pub handle: HandleId,
    /// The validated route.
    pub route: Vec<AdId>,
    /// Total header bytes transmitted (setup header × hops).
    pub header_bytes: usize,
    /// Policy-gateway validations performed.
    pub validations: usize,
    /// End-to-end setup latency over the route's link delays, µs.
    pub latency_us: u64,
}

/// Result of a successful data transmission.
#[derive(Clone, Copy, Debug)]
pub struct DataOutcome {
    /// Hops traversed.
    pub hops: usize,
    /// Total header bytes transmitted (per-hop header × hops).
    pub header_bytes: usize,
    /// End-to-end latency over the route's link delays, µs.
    pub latency_us: u64,
}

/// An established policy route at the source.
#[derive(Clone, Debug)]
pub struct OpenFlow {
    /// The traffic class.
    pub flow: FlowSpec,
    /// The validated route.
    pub route: Vec<AdId>,
    /// Spare policy routes cached at open time: up to two from
    /// [`OrwgNetwork::open_repairable`] or a full-rung served open, none
    /// otherwise. [`OrwgNetwork::repair_pending`] tries them before fresh
    /// synthesis when the installed route dies.
    pub alternates: Vec<PolicyRoute>,
}

/// Setup retransmissions a source sends after the first transmission.
const SETUP_RETRANSMITS: u32 = 3;
/// The first setup retransmit timeout, µs. It doubles on every retry.
const SETUP_TIMEOUT_US: u64 = 2_000;

/// Outcomes of route repair after faults (cumulative per network).
#[derive(Clone, Copy, Default, Debug)]
pub struct RepairStats {
    /// Flows restored from an alternate route cached at open time.
    pub repaired_via_alternate: u64,
    /// Flows restored by a fresh resilient synthesis.
    pub repaired_via_synthesis: u64,
    /// Flows that could not be restored (no legal route survives).
    pub failures: u64,
    /// Setup packets retransmitted after a loss.
    pub setup_retransmits: u64,
}

/// The assembled ORWG network.
///
/// Ground truth (`topo`, `db`) models the physical network and each AD's
/// *actual* policy; each Route Server reads its own (possibly stale) view,
/// exactly as flooding left it — one allocation shared by every server
/// whose view is the same.
pub struct OrwgNetwork {
    topo: Topology,
    db: PolicyDb,
    servers: Vec<RouteServer>,
    gateways: Vec<PolicyGateway>,
    next_handle: u64,
    open_flows: FxHashMap<HandleId, OpenFlow>,
    /// Live entries of `open_flows` per traffic class (absent = none), so
    /// [`OrwgNetwork::abandon_open`] need not scan them.
    live_by_flow: HashMap<FlowSpec, usize>,
    /// Handles whose flow a teardown notification removed at the source
    /// while transit gateways off the fault kept their state, with those
    /// gateways. Every other way a flow ends (source teardown, a rejected
    /// setup's roll-back) clears its handles itself, so these are the only
    /// ones an abandoned open can leave installed.
    stragglers: HashMap<FlowSpec, Vec<(HandleId, Vec<AdId>)>>,
    /// Flows whose installed route died (link failure, policy change, or
    /// gateway crash tore the handle down and notified the source); they
    /// wait here until [`OrwgNetwork::repair_pending`], each carrying the
    /// logged event that killed it (the view-invalidate of the fault), so
    /// the eventual repair chains to its cause in the span tree.
    pending_repair: Vec<(OpenFlow, Option<EventId>)>,
    /// Cumulative repair outcomes.
    pub repair_stats: RepairStats,
    setup_loss: Option<(f64, rand::rngs::SmallRng)>,
    view_maintenance: ViewMaintenance,
    /// ADs whose gateways forge setup acks: they install handles without
    /// consulting their own policy (see [`PolicyGateway::force_install`]),
    /// so setups the AD should reject sail through and policy-violating
    /// traffic flows — the ORWG byzantine misbehavior model.
    rogue_gateways: Vec<AdId>,
    /// ADs currently contained: every Route Server's selection carries
    /// them in its avoid-set, so no synthesized route transits them.
    quarantined: Vec<AdId>,
    /// Per-AD admission controllers fronting the Route Servers (the
    /// overload layer's bounded open queues).
    admission: Vec<AdmissionController>,
    /// ADs whose Route Server is currently crashed: offers to them are
    /// shed until standby takeover.
    rs_down: Vec<AdId>,
    /// Last warm-standby cache snapshot per AD (indexed by AD), replayed
    /// into the server at failover.
    standby: Vec<Vec<(FlowSpec, Option<PolicyRoute>)>>,
    /// Data-plane observability: typed events (route-setup open/ack/
    /// repair, view invalidation/delta application) plus metrics — the
    /// `"setup_latency_us"` and `"invalidation_fanout"` histograms. The
    /// event log is off until [`OrwgNetwork::enable_obs`]; the metrics are
    /// always live.
    pub obs: Obs,
    /// The data-plane self-profiler (disabled by default, see
    /// [`OrwgNetwork::enable_prof`]): spans around serve slots and
    /// refills plus a deterministic work ledger fed from synthesis
    /// counters. Merged with an engine's profiler for whole-run reports.
    pub prof: Profiler,
    /// Timestamp stamped on data-plane events: the last control-plane
    /// time adopted from an engine (see [`OrwgNetwork::refresh_from_engine`]
    /// and [`OrwgNetwork::from_engine`]), `SimTime::ZERO` otherwise.
    clock: SimTime,
}

impl OrwgNetwork {
    /// Default Route-Server strategy.
    pub const DEFAULT_STRATEGY: Strategy = Strategy::Cached { capacity: 1024 };
    /// Default Policy-Gateway handle-cache capacity.
    pub const DEFAULT_HANDLE_CAPACITY: usize = 4096;

    /// Builds a network in which every Route Server has a perfect,
    /// identical view — the state flooding reaches at quiescence — held
    /// once and shared by all of them. The standard entry point for
    /// experiments and examples.
    pub fn converged(topo: &Topology, db: &PolicyDb) -> OrwgNetwork {
        OrwgNetwork::converged_with(
            topo,
            db,
            Self::DEFAULT_STRATEGY,
            Self::DEFAULT_HANDLE_CAPACITY,
        )
    }

    /// [`OrwgNetwork::converged`] with explicit strategy and handle-cache
    /// capacity.
    pub fn converged_with(
        topo: &Topology,
        db: &PolicyDb,
        strategy: Strategy,
        handle_capacity: usize,
    ) -> OrwgNetwork {
        let (view_topo, view_db) = (Arc::new(topo.clone()), Arc::new(db.clone()));
        let servers = topo
            .ad_ids()
            .map(|ad| {
                RouteServer::sharing(ad, view_topo.clone(), view_db.clone(), strategy.clone())
            })
            .collect();
        OrwgNetwork::assemble(
            topo.clone(),
            db.clone(),
            servers,
            handle_capacity,
            SimTime::ZERO,
        )
    }

    /// Everything but the Route Servers' views starts the same way: idle
    /// gateways and admission queues, no flows, no faults.
    fn assemble(
        topo: Topology,
        db: PolicyDb,
        servers: Vec<RouteServer>,
        handle_capacity: usize,
        clock: SimTime,
    ) -> OrwgNetwork {
        let gateways = topo
            .ad_ids()
            .map(|ad| PolicyGateway::new(ad, handle_capacity))
            .collect();
        let admission = topo
            .ad_ids()
            .map(|_| AdmissionController::new(AdmissionConfig::default()))
            .collect();
        let standby = topo.ad_ids().map(|_| Vec::new()).collect();
        OrwgNetwork {
            topo,
            db,
            servers,
            gateways,
            next_handle: 1,
            open_flows: FxHashMap::default(),
            live_by_flow: HashMap::new(),
            stragglers: HashMap::new(),
            pending_repair: Vec::new(),
            repair_stats: RepairStats::default(),
            setup_loss: None,
            view_maintenance: ViewMaintenance::Incremental,
            rogue_gateways: Vec::new(),
            quarantined: Vec::new(),
            admission,
            rs_down: Vec::new(),
            standby,
            obs: Obs::disabled(),
            prof: Profiler::new(),
            clock,
        }
    }

    /// Builds the data plane from a converged control-plane engine: each
    /// AD's Route Server gets the view **its own flooded database**
    /// describes (views may legitimately differ if the engine has not
    /// quiesced), built once per distinct database and shared.
    pub fn from_engine(
        engine: &Engine<OrwgProtocol>,
        strategy: Strategy,
        handle_capacity: usize,
    ) -> OrwgNetwork {
        let topo = engine.topo().clone();
        let db = engine.protocol().policies.clone();
        // One reconstruction per distinct database (one, at quiescence),
        // held by every Route Server whose database shares all its LSAs.
        let mut views: Vec<(&LsDb, Arc<Topology>, Arc<PolicyDb>)> = Vec::new();
        let servers = topo
            .ad_ids()
            .map(|ad| {
                let lsdb = &engine.router(ad).flooder.db;
                let known = views
                    .iter()
                    .position(|(db, ..)| db.shares_all_lsas_with(lsdb));
                let i = known.unwrap_or_else(|| {
                    let (vt, vd) = lsdb.view();
                    views.push((lsdb, Arc::new(vt), Arc::new(vd)));
                    views.len() - 1
                });
                let (_, vt, vd) = &views[i];
                let mut s = RouteServer::sharing(ad, vt.clone(), vd.clone(), strategy.clone());
                s.adopt_provenance(lsdb);
                s
            })
            .collect();
        OrwgNetwork::assemble(topo, db, servers, handle_capacity, engine.now())
    }

    /// Enables the typed data-plane event log with the given ring-buffer
    /// capacity, clearing any previously retained records. Data-plane ids
    /// start at [`DATA_STREAM_ID_BASE`] so a merged export with an
    /// engine's control-plane log (whose ids start at 0) stays unique.
    pub fn enable_obs(&mut self, capacity: usize) {
        self.obs.log = adroute_sim::EventLog::with_id_base(capacity, DATA_STREAM_ID_BASE);
    }

    /// Enables the data-plane self-profiler. Adds no per-packet work:
    /// spans wrap serve slots and refill batches, and the ledger is fed
    /// from synthesis-counter deltas at slot boundaries.
    pub fn enable_prof(&mut self) {
        self.prof.enable();
    }

    /// Emits a data-plane event stamped at the network's clock, as a child
    /// of `cause`. Returns the assigned id, if the log is enabled.
    fn emit(&mut self, cause: Option<EventId>, rec: EventRecord) -> Option<EventId> {
        if self.obs.log.capacity() > 0 {
            return self.obs.record_event(self.clock, cause, rec);
        }
        None
    }

    /// Selects how Route Server views absorb subsequent events. Defaults
    /// to [`ViewMaintenance::Incremental`].
    pub fn set_view_maintenance(&mut self, mode: ViewMaintenance) {
        self.view_maintenance = mode;
    }

    /// The ground-truth topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The ground-truth policy database.
    pub fn policies(&self) -> &PolicyDb {
        &self.db
    }

    /// The Route Server of `ad`.
    pub fn server(&self, ad: AdId) -> &RouteServer {
        &self.servers[ad.index()]
    }

    /// Mutable Route Server access (e.g. to set selection criteria or
    /// trigger precomputation).
    pub fn server_mut(&mut self, ad: AdId) -> &mut RouteServer {
        &mut self.servers[ad.index()]
    }

    /// The Policy Gateway of `ad`.
    pub fn gateway(&self, ad: AdId) -> &PolicyGateway {
        &self.gateways[ad.index()]
    }

    /// Synthesizes (without setting up) the policy route for `flow`, from
    /// the flow source's own Route Server.
    pub fn policy_route(&mut self, flow: &FlowSpec) -> Option<Vec<AdId>> {
        self.servers[flow.src.index()].request(flow).map(|r| r.path)
    }

    /// Synthesizes and returns the full [`PolicyRoute`] (with PT
    /// citations).
    pub fn synthesize(&mut self, flow: &FlowSpec) -> Option<PolicyRoute> {
        self.servers[flow.src.index()].request(flow)
    }

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
    fn setup_along(
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
    fn teardown_and_notify(&mut self, doomed: impl Fn(&OpenFlow) -> bool) {
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
    fn tear_down_link(&mut self, a: AdId, b: AdId) {
        self.gateways[a.index()].invalidate(|e| e.prev == b || e.next == b);
        self.gateways[b.index()].invalidate(|e| e.prev == a || e.next == a);
        self.teardown_and_notify(|of| {
            of.route
                .windows(2)
                .any(|w| w.contains(&a) && w.contains(&b))
        });
    }

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

    /// ADs currently under quarantine.
    pub fn quarantined(&self) -> &[AdId] {
        &self.quarantined
    }

    /// Flows currently awaiting repair.
    pub fn pending_repair_count(&self) -> usize {
        self.pending_repair.len()
    }

    /// Sets the data-plane clock — the timestamp stamped on every emitted
    /// event. External drivers (the stress harness) advance it as their
    /// own event loop progresses.
    pub fn set_clock(&mut self, t: SimTime) {
        self.clock = t;
    }

    /// Installs `cfg` on every AD's admission controller. Queued opens
    /// are dropped — call before a run, not during one.
    pub fn set_admission(&mut self, cfg: AdmissionConfig) {
        for a in &mut self.admission {
            *a = AdmissionController::new(cfg);
        }
    }

    /// The admission controller fronting `ad`'s Route Server.
    pub fn admission(&self, ad: AdId) -> &AdmissionController {
        &self.admission[ad.index()]
    }

    /// ADs whose Route Server is currently crashed.
    pub fn rs_down(&self) -> &[AdId] {
        &self.rs_down
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
    fn synth_on_rung(&mut self, ad: AdId, flow: &FlowSpec, rung: BrownoutRung) -> Synth {
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
                    if sel.accepts(&r.path, r.cost) {
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
    pub fn note_retry(
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
    pub fn crash_route_server(&mut self, ad: AdId) -> (Vec<PendingOpen>, Option<EventId>) {
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
    pub fn failover_route_server(&mut self, ad: AdId) -> usize {
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
    pub fn standby_sync(&mut self, ad: AdId) -> usize {
        let snap = self.servers[ad.index()].cache_snapshot();
        let n = snap.len();
        self.standby[ad.index()] = snap;
        n
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
            let (via, metric) = if spared {
                self.repair_stats.repaired_via_alternate += 1;
                ("alternate", "repair_ok")
            } else if self.open_resilient(&of.flow, max_retries, cause).is_ok() {
                self.repair_stats.repaired_via_synthesis += 1;
                ("synthesis", "repair_ok")
            } else {
                self.repair_stats.failures += 1;
                ("failed", "repair_failed")
            };
            self.obs.metrics.add(metric, 1);
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

    /// Total setup-time synthesis searches across all Route Servers.
    pub fn total_searches(&self) -> u64 {
        self.servers.iter().map(|s| s.stats.searches).sum()
    }

    /// Sums every Route Server's counters into one [`SynthStats`].
    pub fn aggregate_synth_stats(&self) -> SynthStats {
        let mut agg = SynthStats::default();
        for s in &self.servers {
            agg.requests += s.stats.requests;
            agg.searches += s.stats.searches;
            agg.settled += s.stats.settled;
            agg.relaxations += s.stats.relaxations;
            agg.precompute_searches += s.stats.precompute_searches;
            agg.precomputed_hits += s.stats.precomputed_hits;
            agg.cache_hits += s.stats.cache_hits;
            agg.entries_invalidated += s.stats.entries_invalidated;
            agg.revalidations += s.stats.revalidations;
            agg.revalidate_hits += s.stats.revalidate_hits;
        }
        agg
    }

    /// Sums every Route Server's batched-sweep counters into one
    /// [`SweepStats`] — the per-run sharded-serving cost breakdown
    /// `report --json` and `profile` publish.
    pub fn aggregate_sweep_stats(&self) -> SweepStats {
        let mut agg = SweepStats::default();
        for s in &self.servers {
            agg.batches += s.sweep.batches;
            agg.batch_flows += s.sweep.batch_flows;
            agg.sweeps += s.sweep.sweeps;
            agg.hot_hits += s.sweep.hot_hits;
            agg.refills += s.sweep.refills;
        }
        agg
    }

    /// Total data packets that hit a pre-crash handle across all gateways
    /// (must stay 0 — see [`crate::gateway::GatewayStats::stale_forwards`]).
    pub fn total_stale_forwards(&self) -> u64 {
        self.gateways.iter().map(|g| g.stats.stale_forwards).sum()
    }

    /// Currently open flows.
    pub fn open_flow_count(&self) -> usize {
        self.open_flows.len()
    }

    /// Iterates over the currently open flows (order unspecified).
    pub fn open_flows(&self) -> impl Iterator<Item = (HandleId, &OpenFlow)> {
        self.open_flows.iter().map(|(h, of)| (*h, of))
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
    use adroute_policy::{workload::PolicyWorkload, AdSet, PolicyAction, PolicyCondition};
    use adroute_topology::generate::{line, ring, HierarchyConfig};

    fn permissive(n: usize) -> OrwgNetwork {
        let topo = ring(n);
        let db = PolicyDb::permissive(&topo);
        OrwgNetwork::converged(&topo, &db)
    }

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
        assert_eq!(net.rs_down(), &[AdId(0)]);
        assert_eq!(net.server(AdId(0)).cached_len(), 0, "soft state lost");
        // Offers while down shed.
        assert!(matches!(
            net.offer_open(pending(flow, SimTime(10))),
            AdmissionVerdict::Shed { .. }
        ));
        // Takeover: precompute rebuilt, cache warmed from the snapshot.
        let warmed = net.failover_route_server(AdId(0));
        assert_eq!(warmed, 1);
        assert!(net.rs_down().is_empty());
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
        assert_eq!(net.quarantined(), &[AdId(1)]);
        let stats = net.repair_pending(3);
        assert_eq!(stats.repaired_via_synthesis, 1);
        assert_eq!(stats.failures, 0);
        let of = net.open_flows.values().next().unwrap();
        assert!(!of.route.contains(&AdId(1)), "still transits rogue AD");
        assert_eq!(of.route, vec![AdId(0), AdId(5), AdId(4), AdId(3), AdId(2)]);
        // Lifting restores the avoid-sets.
        net.lift_quarantine(AdId(1));
        assert!(net.quarantined().is_empty());
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
    fn from_engine_builds_per_ad_views() {
        let topo = HierarchyConfig::figure1().generate();
        let db = PolicyWorkload::default_mix(4).generate(&topo);
        let engine = crate::router::converge_control_plane(topo.clone(), db.clone());
        let mut net = OrwgNetwork::from_engine(
            &engine,
            Strategy::Cached { capacity: 64 },
            OrwgNetwork::DEFAULT_HANDLE_CAPACITY,
        );
        // Every campus-to-campus flow with a legal route must open.
        let mut opened = 0;
        for f in adroute_protocols::forwarding::sample_flows(&topo, 25, 11) {
            let legal = adroute_policy::legality::legal_route(&topo, &db, &f).is_some();
            match net.open(&f) {
                Ok(_) => {
                    assert!(legal, "opened an illegal flow {f}");
                    opened += 1;
                }
                Err(OpenError::NoRoute) => assert!(!legal, "missed legal route for {f}"),
                Err(e) => panic!("unexpected {e:?} for {f}"),
            }
        }
        assert!(opened > 0);
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

    #[test]
    fn transit_ads_do_no_route_computation() {
        let mut net = permissive(6);
        for dst in [2u32, 3, 4] {
            let f = FlowSpec::best_effort(AdId(0), AdId(dst));
            let _ = net.open(&f);
        }
        // Only the source's server worked.
        assert_eq!(net.server(AdId(0)).stats.searches, 3);
        for ad in 1..6 {
            assert_eq!(
                net.server(AdId(ad)).stats.searches,
                0,
                "AD{ad} computed a route"
            );
        }
    }
}

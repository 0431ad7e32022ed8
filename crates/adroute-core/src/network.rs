//! [`OrwgNetwork`]: the assembled ORWG data plane — Route Servers, Policy
//! Gateways, and the setup/handle forwarding machinery — runnable against
//! a (converged) topology-and-policy view.
//!
//! This file holds the struct, its error and outcome types, the
//! constructors and the accessors. Each plane adds its own `impl` block:
//! `view` (ground-truth changes, reflooding and quarantine), `forward`
//! (setup, data, teardown and repair) and `serve` (admission, brownout
//! serving and Route Server failover).

use std::collections::HashMap;
use std::sync::Arc;

use adroute_policy::{FlowSpec, PolicyDb};
use adroute_protocols::linkstate::LsDb;
use adroute_sim::{Engine, EventId, EventRecord, Obs, Profiler, SimTime, DATA_STREAM_ID_BASE};
use adroute_topology::{AdId, Topology};

use crate::dataplane::HandleId;
use crate::fxhash::FxHashMap;
use crate::gateway::{DataError, PolicyGateway, SetupError};
use crate::overload::{AdmissionConfig, AdmissionController};
use crate::router::OrwgProtocol;
use crate::synthesis::{PolicyRoute, RouteServer, Strategy, SweepStats, SynthStats};

mod forward;
mod serve;
mod view;

/// How Route Server views track topology and policy events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViewMaintenance {
    /// Apply each event as a [`ViewDelta`], invalidating only the stored
    /// routes that depend on the changed element. A view several servers
    /// share is copied once per event and the copy shared again. Servers
    /// whose view cannot absorb a delta (its structure predates the link)
    /// fall back to a full install of one shared ground-truth view.
    ///
    /// [`ViewDelta`]: crate::synthesis::ViewDelta
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
    /// (must stay 0 — see `GatewayStats::stale_forwards`).
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

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_policy::workload::PolicyWorkload;
    use adroute_topology::generate::{ring, HierarchyConfig};

    pub(super) fn permissive(n: usize) -> OrwgNetwork {
        let topo = ring(n);
        let db = PolicyDb::permissive(&topo);
        OrwgNetwork::converged(&topo, &db)
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

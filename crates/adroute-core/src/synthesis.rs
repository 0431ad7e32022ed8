//! The Route Server: policy route synthesis (paper Sections 5.4.1 and 6).
//!
//! "A Route Server in each AD computes Policy Routes based on the
//! advertised policy and topology information." Synthesis is the paper's
//! acknowledged hard problem: "Precomputation of all policy routes in a
//! large internet is computationally intractable, while on demand
//! computation may introduce excessive latency at setup time.
//! Consequently, a combination of precomputation and on-demand computation
//! should be used." The three [`Strategy`] variants realize exactly those
//! options; experiment E7 sweeps them.
//!
//! The search itself is the same policy-constrained Dijkstra as the oracle
//! (`adroute_policy::legality`) — run over **this AD's own flooded view**
//! of topology and policy, not ground truth.
//!
//! Servers whose views are equal hold one shared allocation of each half
//! of it (topology and policy database). A write copies a shared view
//! once per broadcast, and every other holder adopts the copy; each
//! server still classifies the change and invalidates its own stored
//! routes, so every counter is what an unshared server would show.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use adroute_policy::{
    legality::{self, SearchStats},
    AdSet, FlowSpec, PolicyDb, PtId, QosClass, RouteSelection, TimeOfDay, TransitPolicy, UserClass,
};
use adroute_protocols::linkstate::{LsDb, Lsa};
use adroute_topology::{transit, AdId, LinkId, TopoDelta, Topology};

use crate::lru::LruCache;

/// A synthesized policy route: the AD path plus, per transit AD, the
/// Policy Term that permits the traversal (cited in the setup packet).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicyRoute {
    /// The AD-level path, source to destination.
    pub path: Vec<AdId>,
    /// Total cost (link metrics + transit charges).
    pub cost: u64,
    /// For each transit AD on `path` (in order), the deciding permit term
    /// (`None` when the AD's default action permits).
    pub(crate) pts: Vec<Option<PtId>>,
}

/// Route synthesis strategy (the Section 6 trade-off).
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Compute every request from scratch; no state, maximum setup
    /// latency.
    OnDemand,
    /// On-demand with an LRU route cache of the given capacity.
    Cached {
        /// Maximum cached routes.
        capacity: usize,
    },
    /// Precompute routes for a workload-supplied list of expected traffic
    /// classes (the "commonly used routes" heuristic); anything else is a
    /// miss that falls back to on-demand with an LRU cache.
    Hybrid {
        /// Maximum cached routes for non-precomputed classes.
        capacity: usize,
    },
}

/// Synthesis work counters (experiment E7's columns).
///
/// Setup-time work (`searches`/`settled`/`relaxations`) is counted apart
/// from background precomputation (`precompute_searches`): E7 compares setup
/// latency against precompute refresh cost, and conflating the two made
/// both columns wrong.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SynthStats {
    /// Route requests served.
    pub requests: u64,
    /// Full searches performed at setup time (on demand).
    pub searches: u64,
    /// Search states settled at setup time (CPU proxy).
    pub settled: u64,
    /// Search edge relaxations at setup time (CPU proxy).
    pub relaxations: u64,
    /// Searches performed while (re)filling the precomputed table.
    pub precompute_searches: u64,
    /// Requests answered from the precomputed table.
    pub precomputed_hits: u64,
    /// Requests answered from the LRU cache.
    pub cache_hits: u64,
    /// Stored entries discarded (and, for precomputed classes, recomputed)
    /// by view maintenance.
    pub entries_invalidated: u64,
    /// Surviving routes re-checked in place after a restrictive delta.
    pub revalidations: u64,
    /// Revalidations that confirmed the stored route, avoiding a search.
    pub revalidate_hits: u64,
}

/// Work counters for the batched serving engine.
///
/// These count *actual* work — one multi-destination sweep may answer many
/// opens — unlike [`SynthStats`], whose search-effort counters are defined
/// to be byte-identical between the batched and monolithic paths (the
/// twin-oracle contract). Keeping the two apart is what lets the
/// differential battery assert `SynthStats` equality while the batched
/// path measurably does less work.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SweepStats {
    /// Batches committed by [`RouteServer::request_batch`].
    pub batches: u64,
    /// Flows submitted across all batches.
    pub batch_flows: u64,
    /// Shared multi-destination sweeps run: one per compatibility class
    /// (same source and non-destination attributes) with a flow no store
    /// answered. Slot service-time charging reads this counter.
    pub sweeps: u64,
    /// Always 0: the tier it counted is gone and nothing writes it. The
    /// field stays only because `benchmark/` (frozen for this change)
    /// reads it; it goes with the benchmark's `hot_hit_ratio` metric.
    pub hot_hits: u64,
    /// Entries recomputed by `RouteServer::background_refill`.
    pub refills: u64,
}

/// Invalidated flows remembered for background refill are bounded so a
/// server that never runs the scheduler (no load ramp, or a refill budget
/// of 0) cannot accumulate an unbounded queue.
const REFILL_QUEUE_CAP: usize = 1024;

/// One incremental change to a Route Server's view of the internet,
/// flooded to it by the link-state machinery (paper Section 5.4.1's
/// "advertised policy and topology information").
#[derive(Clone, Debug)]
pub enum ViewDelta {
    /// An endpoint-addressed topology change (link state or metric).
    Topo(TopoDelta),
    /// Replacement of one AD's transit policy.
    Policy(TransitPolicy),
}

/// What the part of a Route Server's view that one origin advertises —
/// its incident links and its policy — was last derived from.
#[derive(Clone, Debug)]
enum Provenance {
    /// Not known to match any database: the view was installed or edited
    /// from outside a sync (ground-truth broadcasts, a caller's
    /// [`RouteServer::update_view`]). The next sync re-derives the origin.
    Unsynced,
    /// Derived from exactly this slot content (`None`: the origin had no
    /// LSA). The `Arc` keeps the allocation alive, so a later pointer
    /// match cannot be a recycled address.
    Slot(Option<Arc<Lsa>>),
}

impl Provenance {
    fn is(&self, slot: &Option<Arc<Lsa>>) -> bool {
        matches!(self, Provenance::Slot(from) if LsDb::same_slot(from, slot))
    }
}

/// What one [`RouteServer::sync_view`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ViewSync {
    /// Origins whose advertisement differed (by allocation) from the one
    /// the view was derived from, and were therefore re-derived.
    pub(crate) origins_rederived: usize,
    /// Whether the change was structural and the whole view was rebuilt
    /// and installed ([`RouteServer::update_view`]) instead.
    pub(crate) full_install: bool,
}

/// Reverse index from view elements to the stored routes that depend on
/// them: link endpoint pair → flows whose current route crosses that link,
/// and AD → flows whose current route transits it. Lets a view delta
/// invalidate only the entries it can actually affect.
#[derive(Clone, Debug, Default)]
struct DepIndex {
    by_link: HashMap<(AdId, AdId), HashSet<FlowSpec>>,
    by_ad: HashMap<AdId, HashSet<FlowSpec>>,
    /// The path each flow is currently indexed under (needed to unindex
    /// exactly on eviction or replacement).
    paths: HashMap<FlowSpec, Vec<AdId>>,
}

impl DepIndex {
    fn norm(a: AdId, b: AdId) -> (AdId, AdId) {
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Registers `flow`'s current route, replacing any previous entry.
    fn index(&mut self, flow: FlowSpec, path: &[AdId]) {
        self.unindex(&flow);
        for w in path.windows(2) {
            self.by_link
                .entry(Self::norm(w[0], w[1]))
                .or_default()
                .insert(flow);
        }
        for ad in transit(path) {
            self.by_ad.entry(*ad).or_default().insert(flow);
        }
        self.paths.insert(flow, path.to_vec());
    }

    /// Drops `flow` from the index (no-op if not indexed).
    fn unindex(&mut self, flow: &FlowSpec) {
        let Some(path) = self.paths.remove(flow) else {
            return;
        };
        for w in path.windows(2) {
            let key = Self::norm(w[0], w[1]);
            if let Some(s) = self.by_link.get_mut(&key) {
                s.remove(flow);
                if s.is_empty() {
                    self.by_link.remove(&key);
                }
            }
        }
        for ad in transit(&path) {
            if let Some(s) = self.by_ad.get_mut(ad) {
                s.remove(flow);
                if s.is_empty() {
                    self.by_ad.remove(ad);
                }
            }
        }
    }

    /// Flows whose route crosses the link `a`–`b`, in deterministic order.
    fn affected_by_link(&self, a: AdId, b: AdId) -> Vec<FlowSpec> {
        let mut v: Vec<FlowSpec> = self
            .by_link
            .get(&Self::norm(a, b))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Flows whose route transits `ad`, in deterministic order.
    fn affected_by_ad(&self, ad: AdId) -> Vec<FlowSpec> {
        let mut v: Vec<FlowSpec> = self
            .by_ad
            .get(&ad)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }
}

/// One broadcast's view edits: each view allocation edited so far, with
/// the allocation it became. The first server to edit a shared view copies
/// it; every later server holding the same allocation adopts the copy by
/// pointer. Holding the old `Arc` keeps its address from being reused
/// while the memo lives, and the memo must live for exactly one delta
/// applied to a set of servers — the same allocation edited by another
/// delta is another view.
#[derive(Default)]
pub(crate) struct ViewEdits {
    topo: Vec<(Arc<Topology>, Arc<Topology>)>,
    db: Vec<(Arc<PolicyDb>, Arc<PolicyDb>)>,
}

/// Applies `edit` to `view` under `memo`: adopts this broadcast's copy of
/// the allocation if one exists, edits in place if no one else holds it,
/// and otherwise copies it once and records the copy.
fn edit_shared<T: Clone>(
    memo: &mut Vec<(Arc<T>, Arc<T>)>,
    view: &mut Arc<T>,
    edit: impl FnOnce(&mut T),
) {
    if let Some((_, edited)) = memo.iter().find(|(old, _)| Arc::ptr_eq(old, view)) {
        *view = edited.clone();
    } else if let Some(own) = Arc::get_mut(view) {
        edit(own);
    } else {
        let mut copy = T::clone(view);
        edit(&mut copy);
        let old = std::mem::replace(view, Arc::new(copy));
        memo.push((old, view.clone()));
    }
}

/// `base` with `extra` added to its avoid-set, for a source hunting a
/// detour. It widens and never replaces, so the source's standing
/// criteria stay in force during the hunt.
pub(crate) fn widen_avoid(
    base: &RouteSelection,
    extra: impl IntoIterator<Item = AdId>,
) -> RouteSelection {
    RouteSelection {
        avoid: base.avoid.union(&AdSet::only(extra)),
    }
}

/// One AD's Route Server: its own route stores (precomputed table, LRU
/// cache, dependency index, refill queue), selection criteria and
/// provenance, over a flooded view it shares with every server whose view
/// is the same allocation. A write copies a shared view once per
/// broadcast, and the other holders adopt the copy.
#[derive(Clone, Debug)]
pub struct RouteServer {
    /// The AD this server belongs to.
    pub ad: AdId,
    /// The topology half of the view: the small half, copied alone when a
    /// link changes.
    view_topo: Arc<Topology>,
    /// The policy half of the view, copied alone when a policy changes.
    view_db: Arc<PolicyDb>,
    /// Per origin, what its share of the view was derived from — what
    /// lets [`RouteServer::sync_view`] cost what changed.
    provenance: Vec<Provenance>,
    strategy: Strategy,
    /// The source's private route-selection criteria (applied to every
    /// synthesis; never advertised — the privacy property of source
    /// routing). Set via [`RouteServer::set_selection`], which flushes
    /// cached routes computed under the old criteria.
    selection: RouteSelection,
    precompute_list: Vec<FlowSpec>,
    precomputed: HashMap<FlowSpec, Option<PolicyRoute>>,
    cache: LruCache<FlowSpec, Option<PolicyRoute>>,
    index: DepIndex,
    /// Flows whose stored route an invalidation dropped, queued for the
    /// background-precompute scheduler ([`RouteServer::background_refill`]).
    pending_refill: VecDeque<FlowSpec>,
    /// Work counters.
    pub stats: SynthStats,
    /// Batch and background-refill work counters.
    pub sweep: SweepStats,
}

impl RouteServer {
    /// A server for `ad` with the given view and strategy.
    pub fn new(
        ad: AdId,
        view_topo: Topology,
        view_db: PolicyDb,
        strategy: Strategy,
    ) -> RouteServer {
        RouteServer::sharing(ad, Arc::new(view_topo), Arc::new(view_db), strategy)
    }

    /// A server for `ad` over a view other servers may hold too.
    pub(crate) fn sharing(
        ad: AdId,
        view_topo: Arc<Topology>,
        view_db: Arc<PolicyDb>,
        strategy: Strategy,
    ) -> RouteServer {
        let cache = match &strategy {
            Strategy::OnDemand => LruCache::new(0),
            Strategy::Cached { capacity } | Strategy::Hybrid { capacity } => {
                LruCache::new(*capacity)
            }
        };
        RouteServer {
            ad,
            provenance: vec![Provenance::Unsynced; view_topo.num_ads()],
            view_topo,
            view_db,
            strategy,
            selection: RouteSelection::unconstrained(),
            precompute_list: Vec::new(),
            precomputed: HashMap::new(),
            cache,
            index: DepIndex::default(),
            pending_refill: VecDeque::new(),
            stats: SynthStats::default(),
            sweep: SweepStats::default(),
        }
    }

    /// The server's current view of the topology.
    pub fn view_topo(&self) -> &Topology {
        &self.view_topo
    }

    /// The server's current view of global policy.
    pub fn view_db(&self) -> &PolicyDb {
        &self.view_db
    }

    /// The source's current route-selection criteria.
    pub(crate) fn selection(&self) -> &RouteSelection {
        &self.selection
    }

    /// Replaces the source's route-selection criteria. Cached and
    /// precomputed routes were synthesized under the old criteria, so both
    /// are flushed (and precomputation re-run).
    pub fn set_selection(&mut self, selection: RouteSelection) {
        // Remember what the flush drops (MRU first) so the background
        // scheduler can rebuild popular routes under the new criteria.
        let lost: Vec<FlowSpec> = self.cache.iter_recency().map(|(k, _)| *k).collect();
        for k in lost.into_iter().rev() {
            self.enqueue_refill(k);
        }
        self.selection = selection;
        self.flush_cache();
        self.run_precompute();
    }

    /// Number of precomputed routes currently held.
    pub fn precomputed_len(&self) -> usize {
        self.precomputed.len()
    }

    /// Number of cached routes currently held.
    pub fn cached_len(&self) -> usize {
        self.cache.len()
    }

    /// Precomputes routes for the expected traffic classes (only
    /// meaningful under [`Strategy::Hybrid`]; ignored by `OnDemand` and
    /// `Cached`). The list is remembered and re-run on view changes.
    pub fn precompute(&mut self, flows: &[FlowSpec]) {
        if !matches!(self.strategy, Strategy::Hybrid { .. }) {
            return;
        }
        self.precompute_list = flows.to_vec();
        self.run_precompute();
    }

    /// Drops every cache entry, keeping the dependency index consistent.
    /// Precomputed entries (and their index registrations) are untouched.
    fn flush_cache(&mut self) {
        let keys: Vec<FlowSpec> = self.cache.iter_recency().map(|(k, _)| *k).collect();
        for k in &keys {
            self.index.unindex(k);
        }
        self.cache.clear();
    }

    /// Probes the stores in serving order — the precomputed table, then
    /// the LRU (refreshing recency) — counting the hit.
    fn probe(&mut self, flow: &FlowSpec) -> Option<Option<PolicyRoute>> {
        if let Some(hit) = self.precomputed.get(flow) {
            self.stats.precomputed_hits += 1;
            return Some(hit.clone());
        }
        let hit = self.cache.get(flow)?.clone();
        self.stats.cache_hits += 1;
        Some(hit)
    }

    /// Stores `flow`'s freshly synthesized answer in the LRU, keeping the
    /// dependency index exact across the insert and any eviction.
    fn store(&mut self, flow: FlowSpec, r: Option<PolicyRoute>) {
        if self.cache.capacity() > 0 {
            match &r {
                Some(route) => self.index.index(flow, &route.path),
                None => self.index.unindex(&flow),
            }
        }
        if let Some(evicted) = self.cache.insert(flow, r) {
            self.index.unindex(&evicted);
        }
    }

    /// Remembers an invalidated flow for the background-refill scheduler.
    fn enqueue_refill(&mut self, flow: FlowSpec) {
        if self.cache.capacity() > 0 && self.pending_refill.len() < REFILL_QUEUE_CAP {
            self.pending_refill.push_back(flow);
        }
    }

    /// Recomputes one precomputed class in place, keeping the index exact.
    fn refill_precomputed(&mut self, flow: &FlowSpec) {
        let r = self.search_tagged(flow, true);
        match &r {
            Some(route) => self.index.index(*flow, &route.path),
            None => self.index.unindex(flow),
        }
        self.precomputed.insert(*flow, r);
    }

    fn run_precompute(&mut self) {
        let old: Vec<FlowSpec> = self.precomputed.keys().copied().collect();
        for flow in &old {
            self.index.unindex(flow);
        }
        let list = std::mem::take(&mut self.precompute_list);
        self.precomputed.clear();
        for flow in &list {
            self.refill_precomputed(flow);
        }
        self.precompute_list = list;
    }

    fn search(&mut self, flow: &FlowSpec) -> Option<PolicyRoute> {
        self.search_tagged(flow, false)
    }

    /// One policy-constrained search; `precompute` counts it as
    /// background work instead of setup-time work.
    fn search_tagged(&mut self, flow: &FlowSpec, precompute: bool) -> Option<PolicyRoute> {
        if precompute {
            self.stats.precompute_searches += 1;
        } else {
            self.stats.searches += 1;
        }
        let mut ss = SearchStats::default();
        let route = legality::legal_route_with(
            &self.view_topo,
            &self.view_db,
            flow,
            &self.selection,
            &mut ss,
        )?;
        if !precompute {
            self.stats.settled += ss.settled;
            self.stats.relaxations += ss.relaxations;
        }
        let pts = self.cite_pts(flow, &route.path);
        Some(PolicyRoute {
            path: route.path,
            cost: route.cost,
            pts,
        })
    }

    /// Collects the deciding PT per transit AD on a known-legal path, to
    /// cite in the setup packet.
    fn cite_pts(&self, flow: &FlowSpec, path: &[AdId]) -> Vec<Option<PtId>> {
        let mut pts = Vec::with_capacity(path.len().saturating_sub(2));
        for i in 1..path.len().saturating_sub(1) {
            let (permit, pt) = self.view_db.policy(path[i]).evaluate_with_term(
                flow,
                Some(path[i - 1]),
                Some(path[i + 1]),
            );
            debug_assert!(permit.is_some(), "citing terms for an illegal route");
            pts.push(pt);
        }
        pts
    }

    /// Synthesizes (or recalls) the policy route for `flow`.
    pub fn request(&mut self, flow: &FlowSpec) -> Option<PolicyRoute> {
        self.request_inner(flow, None)
    }

    /// One request against current state. `prepared` optionally supplies a
    /// search result a batch sweep computed ahead of the commit — exactly
    /// what a solo search here would return, since searches are pure
    /// functions of the view and selection, which do not change within a
    /// batch — so committing it (counters included) is indistinguishable
    /// from searching on the spot.
    fn request_inner(
        &mut self,
        flow: &FlowSpec,
        prepared: Option<(Option<legality::LegalRoute>, SearchStats)>,
    ) -> Option<PolicyRoute> {
        self.stats.requests += 1;
        if let Some(hit) = self.probe(flow) {
            return hit;
        }
        let r = match prepared {
            Some((lr, ss)) => {
                // Commit the sweep's result with solo-identical
                // accounting: searches always count; effort counters only
                // accrue when a route is found (`search_tagged` returns
                // early on a fruitless search).
                self.stats.searches += 1;
                lr.map(|lr| {
                    self.stats.settled += ss.settled;
                    self.stats.relaxations += ss.relaxations;
                    PolicyRoute {
                        pts: self.cite_pts(flow, &lr.path),
                        path: lr.path,
                        cost: lr.cost,
                    }
                })
            }
            None => self.search(flow),
        };
        self.store(*flow, r.clone());
        r
    }

    /// Batched variant of [`RouteServer::request`]: answers every flow in
    /// `flows` (in order), with results, cache side effects, and
    /// [`SynthStats`] **exactly equal** to calling `request` once per
    /// flow — the twin-oracle contract the differential battery checks —
    /// while sharing search work across co-routable flows.
    ///
    /// Flows no store answers are deduplicated and grouped by
    /// compatibility class (equal source and non-destination attributes),
    /// and each class is answered by one multi-destination sweep
    /// ([`legality::legal_routes_sweep`]) whose per-destination results
    /// and effort counters are provably those of solo searches. Results
    /// are then committed **sequentially in arrival order**, replaying
    /// the exact probe/insert/evict sequence of the monolithic path — so
    /// cache contents, LRU recency order, the dependency index, and
    /// every counter match byte for byte.
    ///
    /// `_shards` is ignored: splitting a class's destinations into
    /// regions could only re-run its sweep, once per region, from the
    /// same source. The parameter stays because `benchmark/` (frozen for
    /// this change) passes it; it goes once the benchmark stops.
    pub fn request_batch(
        &mut self,
        flows: &[FlowSpec],
        _shards: usize,
    ) -> Vec<Option<PolicyRoute>> {
        self.sweep.batches += 1;
        self.sweep.batch_flows += flows.len() as u64;
        // Classify (read-only): flows no store answers need a search.
        let mut fresh: Vec<FlowSpec> = Vec::new();
        let mut seen: HashSet<FlowSpec> = HashSet::new();
        for f in flows {
            if self.precomputed.contains_key(f) || self.cache.peek(f).is_some() {
                continue;
            }
            if seen.insert(*f) {
                fresh.push(*f);
            }
        }
        // Group and sweep, one sweep per class. Group order is
        // deterministic (BTreeMap) and the sweeps are view-only.
        type GroupKey = (AdId, QosClass, UserClass, TimeOfDay);
        let mut groups: BTreeMap<GroupKey, Vec<FlowSpec>> = BTreeMap::new();
        for f in &fresh {
            let key = (f.src, f.qos, f.uci, f.time);
            groups.entry(key).or_default().push(*f);
        }
        self.sweep.sweeps += groups.len() as u64;
        let mut found: HashMap<FlowSpec, (Option<legality::LegalRoute>, SearchStats)> =
            HashMap::with_capacity(fresh.len());
        for ((src, qos, uci, time), group) in &groups {
            let template = FlowSpec {
                src: *src,
                dst: *src,
                qos: *qos,
                uci: *uci,
                time: *time,
            };
            let dsts: Vec<AdId> = group.iter().map(|f| f.dst).collect();
            let results = legality::legal_routes_sweep(
                &self.view_topo,
                &self.view_db,
                &template,
                &dsts,
                &self.selection,
            );
            for (f, r) in group.iter().zip(results) {
                found.insert(*f, r);
            }
        }
        // Sequential commit in arrival order. A flow classified as stored
        // that a mid-batch eviction displaced simply misses here and
        // searches solo, exactly as the monolithic path would.
        flows
            .iter()
            .map(|f| self.request_inner(f, found.remove(f)))
            .collect()
    }

    /// Background-precompute scheduler: re-synthesizes up to `budget`
    /// routes whose stored entries invalidations dropped (view deltas,
    /// quarantine/selection updates), refilling the cache *before* the
    /// next open asks instead of at setup time. Every refilled entry is
    /// synthesized against the **current** view and selection, so only
    /// legality-valid routes are ever stored; the work lands in the
    /// `precompute_searches` counter (it is background work). Returns how many
    /// entries were recomputed.
    pub(crate) fn background_refill(&mut self, budget: usize) -> usize {
        let mut refilled = 0;
        while refilled < budget {
            let Some(flow) = self.pending_refill.pop_front() else {
                break;
            };
            if self.precomputed.contains_key(&flow) || self.cache.peek(&flow).is_some() {
                continue; // already refilled (or re-requested) meanwhile
            }
            let r = self.search_tagged(&flow, true);
            self.store(flow, r);
            self.sweep.refills += 1;
            refilled += 1;
        }
        refilled
    }

    /// Serves `flow` from stored state only — the precomputed table, then
    /// the LRU cache — performing **no** search. This is the brownout
    /// ladder's cheapest serving rung: under overload a Route Server that
    /// cannot afford synthesis can still answer from what it already has.
    ///
    /// Returns `None` when nothing is stored (the caller sheds the open);
    /// `Some(None)` is a stored negative entry — the view has no legal
    /// route, which is an answer, not a miss.
    pub fn stored_route(&mut self, flow: &FlowSpec) -> Option<Option<PolicyRoute>> {
        self.stats.requests += 1;
        self.probe(flow)
    }

    /// Snapshot of the LRU cache, least-recently-used first, for warm
    /// standby sync. The order is deterministic (a pure function of the
    /// access sequence), so replaying a snapshot into a standby's cache
    /// reproduces the primary's recency order exactly.
    pub fn cache_snapshot(&self) -> Vec<(FlowSpec, Option<PolicyRoute>)> {
        self.cache
            .iter_recency()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Preseeds the cache from a standby snapshot, revalidating each entry
    /// against this server's **current** view and selection criteria: the
    /// snapshot may predate a view delta or a quarantine widening, and a
    /// takeover must never resurrect a route through an AD the source now
    /// avoids. Negative entries are dropped rather than trusted (absence
    /// of a route is cheap to rediscover and dangerous to assume).
    /// Returns how many entries were accepted.
    pub(crate) fn warm_cache(&mut self, entries: &[(FlowSpec, Option<PolicyRoute>)]) -> usize {
        if self.cache.capacity() == 0 {
            return 0;
        }
        let mut warmed = 0;
        for (flow, stored) in entries {
            let Some(route) = stored else {
                continue;
            };
            let Some(cost) =
                legality::route_is_legal(&self.view_topo, &self.view_db, flow, &route.path)
            else {
                continue;
            };
            if cost != route.cost || !self.selection.accepts(&route.path) {
                continue;
            }
            if self.precomputed.contains_key(flow) {
                continue;
            }
            let refreshed = PolicyRoute {
                pts: self.cite_pts(flow, &route.path),
                ..route.clone()
            };
            self.store(*flow, Some(refreshed));
            warmed += 1;
        }
        warmed
    }

    /// A crash loses all soft state: the route cache, the precomputed
    /// table, and the dependency index. The flooded view itself is kept —
    /// link-state is recoverable from neighbors, and modeling its loss is
    /// [`RouteServer::update_view`]'s job.
    pub(crate) fn crash_soft_state(&mut self) {
        self.flush_cache();
        let old: Vec<FlowSpec> = self.precomputed.keys().copied().collect();
        for flow in &old {
            self.index.unindex(flow);
        }
        self.precomputed.clear();
        self.pending_refill.clear();
    }

    /// Standby takeover: rebuilds the precomputed table from the flooded
    /// view. The precompute list survives a crash as configuration (it is
    /// workload knowledge, not derived state); the routes themselves are
    /// re-synthesized so they reflect the current view.
    pub(crate) fn rebuild_soft_state(&mut self) {
        self.run_precompute();
    }

    /// Up to `k` alternative routes for `flow`, cheapest first.
    ///
    /// Heuristic: after each route is found, re-search while avoiding one
    /// of its transit ADs (each in turn), collecting distinct results.
    /// This is the sort of pruning heuristic the paper's Section 6 calls
    /// for, not an exact k-shortest-paths.
    pub(crate) fn alternatives(&mut self, flow: &FlowSpec, k: usize) -> Vec<PolicyRoute> {
        if k == 0 {
            return Vec::new();
        }
        let Some(first) = self.request(flow) else {
            return Vec::new();
        };
        let mut found = vec![first.clone()];
        let base = self.selection.clone();
        for &avoid in transit(&first.path) {
            if found.len() >= k {
                break;
            }
            self.selection = widen_avoid(&base, [avoid]);
            if let Some(alt) = self.search(flow) {
                if !found.iter().any(|r| r.path == alt.path) {
                    found.push(alt);
                }
            }
        }
        self.selection = base;
        found.sort_by_key(|r| (r.cost, r.path.len()));
        found.truncate(k);
        found
    }

    /// Installs a new view after a topology or policy change: flushes the
    /// cache and re-runs precomputation (the staleness cost E7 reports).
    ///
    /// This is the flush-everything fallback; [`RouteServer::apply_delta`]
    /// is the incremental path.
    pub(crate) fn update_view(&mut self, view_topo: Topology, view_db: PolicyDb) {
        self.install_view(Arc::new(view_topo), Arc::new(view_db));
    }

    /// [`RouteServer::update_view`] with a view other servers may hold.
    pub(crate) fn install_view(&mut self, view_topo: Arc<Topology>, view_db: Arc<PolicyDb>) {
        self.provenance = vec![Provenance::Unsynced; view_topo.num_ads()];
        self.view_topo = view_topo;
        self.view_db = view_db;
        self.invalidate_all();
    }

    /// Declares the current view to be `db`'s view: what
    /// [`LsDb::view`] returned for it has just been installed. Later
    /// syncs then re-derive only the origins whose slot changed.
    pub fn adopt_provenance(&mut self, db: &LsDb) {
        self.provenance = db
            .slots()
            .iter()
            .map(|slot| Provenance::Slot(slot.clone()))
            .collect();
    }

    /// Brings the view to what `db` describes, at a cost proportional to
    /// the LSAs that changed since the view was last derived.
    ///
    /// Change is detected by allocation, not content: an origin whose slot
    /// still holds the `Arc` this view was derived from has not changed
    /// (an [`Lsa`] is immutable), whatever crashes, restarts, sequence
    /// ghosts or replays happened in between. For the others — and for
    /// origins whose share of the view was edited outside a sync — the
    /// view deltas are derived from the LSAs alone: each incident link's
    /// state and metric under [`LsDb::view`]'s bidirectional-confirmation
    /// rule, and the advertised policy (deny-all without an LSA). They are
    /// applied through [`RouteServer::apply_delta`]'s machinery in the
    /// order a whole-view comparison would list them: links that are up in
    /// `db`'s view in that view's order, then links this view has up and
    /// `db`'s lacks (a link-down on the old structure — the search only
    /// walks up links), then policies by AD.
    ///
    /// A structural change (a link this view's topology never had, a
    /// different AD count) rebuilds and installs the whole view.
    pub fn sync_view(&mut self, db: &LsDb) -> ViewSync {
        sync_views(&mut [(self, db)])[0]
    }

    /// The origins whose slot in `db` is not the one their share of the
    /// view was derived from (all of them when the AD counts differ).
    fn stale_origins(&self, db: &LsDb) -> Vec<AdId> {
        if self.provenance.len() != db.num_ads() {
            return (0..db.num_ads() as u32).map(AdId).collect();
        }
        (self.provenance.iter().zip(db.slots()).enumerate())
            .filter(|(_, (p, slot))| !p.is(slot))
            .map(|(i, _)| AdId(i as u32))
            .collect()
    }

    /// The deltas taking the `changed` origins' share of this view to what
    /// `db` advertises; `None` when only a full install can absorb it.
    fn derive_deltas(&self, db: &LsDb, changed: &[AdId]) -> Option<Vec<ViewDelta>> {
        if db.num_ads() != self.view_topo.num_ads() {
            return None;
        }
        // Confirmed links at a changed origin, keyed by their place in
        // `db.view()`'s link order: lower endpoint, then position in the
        // lower endpoint's advertisement (which also supplies the metric).
        let mut up: Vec<(AdId, usize, AdId, u32)> = Vec::new();
        for &o in changed {
            let Some(lsa) = db.get(o) else { continue };
            for (i, &(n, metric, _)) in lsa.links.iter().enumerate() {
                let Some(j) = db.advertises(n, o) else {
                    continue;
                };
                up.push(if o < n {
                    (o, i, n, metric)
                } else {
                    let reverse = db.get(n).expect("advertises implies an LSA");
                    (n, j, o, reverse.links[j].1)
                });
            }
        }
        up.sort_unstable();
        up.dedup();
        let mut deltas = Vec::new();
        for (a, _, b, metric) in up {
            let old = self.view_topo.link(self.view_topo.link_between(a, b)?);
            if !old.up {
                deltas.push(ViewDelta::Topo(TopoDelta::LinkState { a, b, up: true }));
            }
            if old.metric != metric {
                deltas.push(ViewDelta::Topo(TopoDelta::Metric { a, b, metric }));
            }
        }
        let mut down: Vec<LinkId> = Vec::new();
        for &o in changed {
            for (n, link) in self.view_topo.neighbors(o) {
                if db.advertises(o, n).is_none() || db.advertises(n, o).is_none() {
                    down.push(link);
                }
            }
        }
        down.sort_unstable();
        down.dedup();
        for link in down {
            let l = self.view_topo.link(link);
            deltas.push(ViewDelta::Topo(TopoDelta::LinkState {
                a: l.a,
                b: l.b,
                up: false,
            }));
        }
        for &o in changed {
            let advertised = match db.get(o) {
                Some(lsa) => Cow::Borrowed(&lsa.policy),
                None => Cow::Owned(TransitPolicy::deny_all(o)),
            };
            if *advertised != *self.view_db.policy(o) {
                deltas.push(ViewDelta::Policy(advertised.into_owned()));
            }
        }
        Some(deltas)
    }

    /// Applies one incremental change to the view, invalidating only the
    /// stored routes the change can affect.
    ///
    /// A **restrictive** delta (link down, metric increase, provable policy
    /// restriction) can only remove routes or make them costlier, so a
    /// stored route not touching the changed element is still optimal and
    /// a negative entry is still negative; only the flows whose current
    /// route crosses the changed link / transits the re-policied AD are
    /// re-examined — first by revalidating the stored path in place
    /// (legal at unchanged cost ⇒ still optimal), falling back to a fresh
    /// search. Anything else (link up, metric decrease, general policy
    /// replacement) can create or cheapen routes anywhere, so every stored
    /// entry is invalidated.
    ///
    /// Returns `false` — leaving the server untouched — when the delta
    /// cannot be applied to this view (the view's structure predates the
    /// link); the caller must fall back to `RouteServer::update_view`.
    ///
    /// The touched origins (a link's endpoints, the re-policied AD) stop
    /// counting as derived from any database, so the next
    /// [`RouteServer::sync_view`] re-derives them and the view still
    /// converges to its own LSDB.
    pub fn apply_delta(&mut self, delta: &ViewDelta) -> bool {
        self.apply_delta_with(delta, &mut ViewEdits::default())
    }

    /// [`RouteServer::apply_delta`] as one server of a broadcast: every
    /// server the delta reaches shares `edits`.
    pub(crate) fn apply_delta_with(&mut self, delta: &ViewDelta, edits: &mut ViewEdits) -> bool {
        let applied = self.edit_view(delta, edits);
        if applied {
            match delta {
                ViewDelta::Topo(td) => {
                    let (a, b) = td.endpoints();
                    self.provenance[a.index()] = Provenance::Unsynced;
                    self.provenance[b.index()] = Provenance::Unsynced;
                }
                ViewDelta::Policy(p) => self.provenance[p.ad.index()] = Provenance::Unsynced,
            }
        }
        applied
    }

    /// The one routine that edits the view, without touching provenance:
    /// classifies `delta` against the view as it stands, edits the view
    /// through the broadcast's `edits` (copying it or adopting another
    /// server's copy), then re-examines this server's stored routes against
    /// the edited view.
    fn edit_view(&mut self, delta: &ViewDelta, edits: &mut ViewEdits) -> bool {
        let affected = match delta {
            ViewDelta::Topo(td) => {
                let Some(restrictive) = td.is_restrictive_on(&self.view_topo) else {
                    return false;
                };
                edit_shared(&mut edits.topo, &mut self.view_topo, |topo| {
                    let applied = td.apply(topo);
                    debug_assert!(applied, "a classified delta names a link of the view");
                });
                let (a, b) = td.endpoints();
                restrictive.then(|| self.index.affected_by_link(a, b))
            }
            ViewDelta::Policy(p) => {
                let restrictive = p.is_restriction_of(self.view_db.policy(p.ad));
                edit_shared(&mut edits.db, &mut self.view_db, |db| {
                    db.set_policy(p.clone())
                });
                restrictive.then(|| self.index.affected_by_ad(p.ad))
            }
        };
        match affected {
            Some(affected) => self.invalidate_affected(&affected),
            None => self.invalidate_all(),
        }
        true
    }

    /// Re-examines the stored routes a restrictive delta touches.
    fn invalidate_affected(&mut self, affected: &[FlowSpec]) {
        for flow in affected {
            let stored = if let Some(e) = self.precomputed.get(flow) {
                e.clone()
            } else if let Some(e) = self.cache.peek(flow) {
                e.clone()
            } else {
                // Indexed but no longer stored (shouldn't happen; evictions
                // unindex eagerly) — just drop the registration.
                self.index.unindex(flow);
                continue;
            };
            let Some(route) = stored else {
                self.index.unindex(flow);
                continue;
            };
            self.stats.revalidations += 1;
            let cost = legality::route_is_legal(&self.view_topo, &self.view_db, flow, &route.path);
            if cost == Some(route.cost) {
                // Still legal at unchanged cost: every competitor could
                // only have vanished or grown costlier, so the stored
                // route is still optimal. Refresh its PT citations — a
                // policy replacement may have renumbered term ids.
                self.stats.revalidate_hits += 1;
                let refreshed = PolicyRoute {
                    pts: self.cite_pts(flow, &route.path),
                    ..route
                };
                if self.precomputed.contains_key(flow) {
                    self.precomputed.insert(*flow, Some(refreshed));
                } else {
                    // Re-inserting an existing key never evicts.
                    let _ = self.cache.insert(*flow, Some(refreshed));
                }
                continue;
            }
            self.stats.entries_invalidated += 1;
            if self.precomputed.contains_key(flow) {
                self.refill_precomputed(flow);
            } else {
                self.cache.remove(flow);
                self.index.unindex(flow);
                self.enqueue_refill(*flow);
            }
        }
    }

    /// Invalidates every stored entry (the flush path, with accounting):
    /// drops the cache and recomputes the precomputed table.
    fn invalidate_all(&mut self) {
        self.stats.entries_invalidated += (self.cache.len() + self.precomputed.len()) as u64;
        let lost: Vec<FlowSpec> = self.cache.iter_recency().map(|(k, _)| *k).collect();
        for k in lost.into_iter().rev() {
            self.enqueue_refill(k);
        }
        self.flush_cache();
        self.run_precompute();
    }
}

/// [`RouteServer::sync_view`] for many servers, each to its own database,
/// with the view work done once per group: servers that hold the same
/// view allocations, are stale in the same origins and whose databases
/// [`LsDb::shares_all_lsas_with`] each other. A group's deltas are derived
/// once, and each is applied to the whole group as one broadcast
/// ([`ViewEdits`]), so the group copies its view at most once per delta
/// and every member sees each intermediate view; a structural change
/// builds one view the whole group installs. Every server still
/// classifies, revalidates and invalidates for itself. Returns what each
/// server's sync did, in order — exactly what a lone sync reports.
pub(crate) fn sync_views(servers: &mut [(&mut RouteServer, &LsDb)]) -> Vec<ViewSync> {
    struct Group<'a> {
        members: Vec<usize>,
        db: &'a LsDb,
        changed: Vec<AdId>,
    }
    let mut synced = Vec::with_capacity(servers.len());
    let mut groups: Vec<Group> = Vec::new();
    for (i, (s, db)) in servers.iter().enumerate() {
        let changed = s.stale_origins(db);
        synced.push(ViewSync {
            origins_rederived: changed.len(),
            full_install: false,
        });
        if changed.is_empty() {
            continue;
        }
        let joins = |g: &Group| {
            let rep = &servers[g.members[0]].0;
            Arc::ptr_eq(&rep.view_topo, &s.view_topo)
                && Arc::ptr_eq(&rep.view_db, &s.view_db)
                && g.changed == changed
                && g.db.shares_all_lsas_with(db)
        };
        match groups.iter().position(joins) {
            Some(g) => groups[g].members.push(i),
            None => groups.push(Group {
                members: vec![i],
                db,
                changed,
            }),
        }
    }
    for g in groups {
        let Some(deltas) = servers[g.members[0]].0.derive_deltas(g.db, &g.changed) else {
            let (topo, policies) = g.db.view();
            let (topo, policies) = (Arc::new(topo), Arc::new(policies));
            for &m in &g.members {
                let (s, db) = &mut servers[m];
                s.install_view(topo.clone(), policies.clone());
                s.adopt_provenance(db);
                synced[m].full_install = true;
            }
            continue;
        };
        for d in &deltas {
            let mut edits = ViewEdits::default();
            for &m in &g.members {
                let applied = servers[m].0.edit_view(d, &mut edits);
                debug_assert!(applied, "derived deltas name links of this view");
            }
        }
        for &m in &g.members {
            let (s, db) = &mut servers[m];
            for &o in &g.changed {
                s.provenance[o.index()] = Provenance::Slot(db.slots()[o.index()].clone());
            }
        }
    }
    synced
}

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_policy::{AdSet, PolicyAction, PolicyCondition, TransitPolicy};
    use adroute_topology::generate::{line, ring};

    fn server(strategy: Strategy) -> RouteServer {
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        RouteServer::new(AdId(0), topo, db, strategy)
    }

    #[test]
    fn on_demand_searches_every_time() {
        let mut rs = server(Strategy::OnDemand);
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let a = rs.request(&f).unwrap();
        let b = rs.request(&f).unwrap();
        assert_eq!(a, b);
        assert_eq!(rs.stats.searches, 2);
        assert_eq!(rs.stats.cache_hits, 0);
        assert_eq!(rs.cached_len(), 0);
    }

    #[test]
    fn cached_strategy_reuses() {
        let mut rs = server(Strategy::Cached { capacity: 16 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let _ = rs.request(&f);
        let _ = rs.request(&f);
        assert_eq!(rs.stats.searches, 1);
        assert_eq!(rs.stats.cache_hits, 1);
    }

    #[test]
    fn hybrid_precompute_hits_before_search() {
        let mut rs = server(Strategy::Hybrid { capacity: 16 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        rs.precompute(&[f]);
        assert_eq!(rs.precomputed_len(), 1);
        // Precompute work lands in its own counters, not the setup-time
        // ones E7's latency column reads.
        assert_eq!(rs.stats.precompute_searches, 1);
        assert_eq!(rs.stats.searches, 0);
        assert_eq!(rs.stats.settled, 0);
        assert_eq!(rs.stats.relaxations, 0);
        let _ = rs.request(&f);
        assert_eq!(rs.stats.searches, 0);
        assert_eq!(rs.stats.precomputed_hits, 1);
        // A class not precomputed falls back to on-demand + cache.
        let g = FlowSpec::best_effort(AdId(0), AdId(2));
        let _ = rs.request(&g);
        let _ = rs.request(&g);
        assert_eq!(rs.stats.cache_hits, 1);
        assert_eq!(rs.stats.searches, 1);
        assert_eq!(rs.stats.precompute_searches, 1);
    }

    #[test]
    fn routes_carry_policy_term_citations() {
        let topo = line(4);
        let mut db = PolicyDb::permissive(&topo);
        let mut p = TransitPolicy::deny_all(AdId(1));
        let pt = p.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(0)]))],
            PolicyAction::Permit { cost: 2 },
        );
        db.set_policy(p);
        let mut rs = RouteServer::new(AdId(0), topo, db, Strategy::OnDemand);
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let r = rs.request(&f).unwrap();
        assert_eq!(r.path, vec![AdId(0), AdId(1), AdId(2), AdId(3)]);
        assert_eq!(r.pts.len(), 2);
        assert_eq!(r.pts[0], Some(pt), "AD1's deciding term must be cited");
        assert_eq!(r.pts[1], None, "AD2 permits by default");
        assert_eq!(r.cost, 3 + 2);
    }

    #[test]
    fn selection_criteria_stay_private_but_apply() {
        let mut rs = server(Strategy::OnDemand);
        rs.set_selection(RouteSelection::avoiding([AdId(1), AdId(2)]));
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let r = rs.request(&f).unwrap();
        assert_eq!(r.path, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
    }

    #[test]
    fn alternatives_finds_both_ring_sides() {
        let mut rs = server(Strategy::OnDemand);
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let alts = rs.alternatives(&f, 2);
        assert_eq!(alts.len(), 2);
        assert_ne!(alts[0].path, alts[1].path);
        assert!(alts[0].cost <= alts[1].cost);
    }

    #[test]
    fn view_update_flushes_and_recomputes() {
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        let mut rs = RouteServer::new(
            AdId(0),
            topo.clone(),
            db.clone(),
            Strategy::Hybrid { capacity: 8 },
        );
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        rs.precompute(&[f]);
        let g = FlowSpec::best_effort(AdId(0), AdId(2));
        let _ = rs.request(&g);
        assert_eq!(rs.cached_len(), 1);
        // Fail link 0-1 in the view.
        let mut topo2 = topo.clone();
        let l = topo2.link_between(AdId(0), AdId(1)).unwrap();
        topo2.set_link_up(l, false);
        rs.update_view(topo2, db);
        assert_eq!(rs.cached_len(), 0, "cache must flush");
        let r = rs.request(&f).unwrap();
        assert_eq!(
            r.path,
            vec![AdId(0), AdId(5), AdId(4), AdId(3)],
            "precomputed route must reflect the new view"
        );
        assert_eq!(rs.stats.precomputed_hits, 1);
    }

    #[test]
    fn alternatives_with_zero_k_returns_nothing() {
        let mut rs = server(Strategy::OnDemand);
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let before = rs.stats.requests;
        assert!(rs.alternatives(&f, 0).is_empty());
        assert_eq!(rs.stats.requests, before, "k = 0 must not even search");
    }

    #[test]
    fn alternatives_keep_non_only_avoid_sets_in_force() {
        // Base criteria: avoid everything except AD1/AD2 — i.e. of the
        // ring's transit candidates, AD4 and AD5 are off limits, so only
        // the 0-1-2-3 side is ever acceptable.
        let mut rs = server(Strategy::OnDemand);
        rs.set_selection(RouteSelection {
            avoid: AdSet::except([AdId(1), AdId(2)]),
        });
        let base = rs.selection().clone();
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let alts = rs.alternatives(&f, 3);
        assert_eq!(alts.len(), 1, "the far ring side violates base criteria");
        for r in &alts {
            assert!(
                base.accepts(&r.path),
                "alternative {:?} loosened the source's private criteria",
                r.path
            );
        }
        assert_eq!(rs.selection(), &base, "selection must be restored");
    }

    #[test]
    fn restrictive_delta_invalidates_only_crossing_entries() {
        let mut rs = server(Strategy::Cached { capacity: 16 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3)); // 0-1-2-3
        let g = FlowSpec::best_effort(AdId(0), AdId(5)); // 0-5
        assert_eq!(rs.request(&f).unwrap().path.len(), 4);
        assert_eq!(rs.request(&g).unwrap().path.len(), 2);
        let ok = rs.apply_delta(&ViewDelta::Topo(TopoDelta::LinkState {
            a: AdId(1),
            b: AdId(2),
            up: false,
        }));
        assert!(ok);
        assert_eq!(rs.stats.revalidations, 1, "only f crosses 1-2");
        assert_eq!(rs.stats.revalidate_hits, 0);
        assert_eq!(rs.stats.entries_invalidated, 1);
        // g survives in cache; f is re-searched around the far side.
        let hits = rs.stats.cache_hits;
        assert_eq!(rs.request(&g).unwrap().path, vec![AdId(0), AdId(5)]);
        assert_eq!(rs.stats.cache_hits, hits + 1);
        assert_eq!(
            rs.request(&f).unwrap().path,
            vec![AdId(0), AdId(5), AdId(4), AdId(3)]
        );
    }

    #[test]
    fn restrictive_policy_change_revalidates_in_place() {
        let mut rs = server(Strategy::Cached { capacity: 16 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let _ = rs.request(&f);
        // AD1 denies sources it never carries anyway: a pure restriction
        // that leaves f's route legal at unchanged cost.
        let mut p = TransitPolicy::permit_all(AdId(1));
        p.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(9)]))],
            PolicyAction::Deny,
        );
        assert!(rs.apply_delta(&ViewDelta::Policy(p)));
        assert_eq!(rs.stats.revalidations, 1);
        assert_eq!(rs.stats.revalidate_hits, 1);
        assert_eq!(rs.stats.entries_invalidated, 0);
        let searches = rs.stats.searches;
        let _ = rs.request(&f);
        assert_eq!(rs.stats.searches, searches, "entry must survive in cache");
    }

    #[test]
    fn expansive_delta_invalidates_everything() {
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        let mut downed = topo.clone();
        let l = downed.link_between(AdId(1), AdId(2)).unwrap();
        downed.set_link_up(l, false);
        let mut rs = RouteServer::new(AdId(0), downed, db, Strategy::Cached { capacity: 16 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let g = FlowSpec::best_effort(AdId(0), AdId(5));
        let _ = rs.request(&f);
        let _ = rs.request(&g);
        assert_eq!(rs.cached_len(), 2);
        let ok = rs.apply_delta(&ViewDelta::Topo(TopoDelta::LinkState {
            a: AdId(1),
            b: AdId(2),
            up: true,
        }));
        assert!(ok);
        assert_eq!(rs.cached_len(), 0, "a link coming up can cheapen anything");
        assert_eq!(rs.stats.entries_invalidated, 2);
        assert_eq!(rs.stats.revalidations, 0);
        assert_eq!(
            rs.request(&f).unwrap().path,
            vec![AdId(0), AdId(1), AdId(2), AdId(3)],
            "the recovered, cheaper side must win again"
        );
    }

    #[test]
    fn negative_entries_survive_restrictive_deltas() {
        let topo = line(3);
        let mut db = PolicyDb::permissive(&topo);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let mut rs = RouteServer::new(AdId(0), topo, db, Strategy::Cached { capacity: 4 });
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        assert!(rs.request(&f).is_none());
        assert!(rs.apply_delta(&ViewDelta::Topo(TopoDelta::LinkState {
            a: AdId(1),
            b: AdId(2),
            up: false,
        })));
        assert!(rs.request(&f).is_none());
        assert_eq!(
            rs.stats.searches, 1,
            "a restriction cannot create routes, so the negative entry holds"
        );
    }

    #[test]
    fn unknown_link_delta_is_rejected_for_fallback() {
        let mut rs = server(Strategy::Cached { capacity: 4 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let _ = rs.request(&f);
        let ok = rs.apply_delta(&ViewDelta::Topo(TopoDelta::LinkState {
            a: AdId(0),
            b: AdId(3),
            up: false,
        }));
        assert!(!ok, "a link this view never knew cannot be applied");
        assert_eq!(rs.cached_len(), 1, "failed apply must leave state alone");
    }

    #[test]
    fn stored_route_never_searches() {
        let mut rs = server(Strategy::Hybrid { capacity: 8 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        rs.precompute(&[f]);
        let g = FlowSpec::best_effort(AdId(0), AdId(2));
        let _ = rs.request(&g); // lands in the LRU cache
        let h = FlowSpec::best_effort(AdId(0), AdId(4));
        let searches = rs.stats.searches;
        assert!(rs.stored_route(&f).unwrap().is_some(), "precomputed hit");
        assert!(rs.stored_route(&g).unwrap().is_some(), "cache hit");
        assert!(rs.stored_route(&h).is_none(), "miss must not search");
        assert_eq!(rs.stats.searches, searches);
        assert_eq!(rs.stats.precomputed_hits, 1);
        assert_eq!(rs.stats.cache_hits, 1);
    }

    #[test]
    fn stored_route_returns_stored_negatives() {
        let topo = line(3);
        let mut db = PolicyDb::permissive(&topo);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let mut rs = RouteServer::new(AdId(0), topo, db, Strategy::Cached { capacity: 4 });
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        assert!(rs.request(&f).is_none());
        assert_eq!(
            rs.stored_route(&f),
            Some(None),
            "a stored negative is an answer, not a miss"
        );
    }

    #[test]
    fn snapshot_and_warm_cache_round_trip() {
        let mut primary = server(Strategy::Cached { capacity: 8 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let g = FlowSpec::best_effort(AdId(0), AdId(2));
        let _ = primary.request(&f);
        let _ = primary.request(&g);
        let snap = primary.cache_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, f, "LRU-first: f was touched before g");
        let mut standby = server(Strategy::Cached { capacity: 8 });
        assert_eq!(standby.warm_cache(&snap), 2);
        let searches = standby.stats.searches;
        assert_eq!(standby.request(&f), primary.stored_route(&f).unwrap());
        assert_eq!(standby.stats.searches, searches, "warmed entry must hit");
    }

    #[test]
    fn warm_cache_rejects_entries_the_view_or_selection_refuse() {
        let mut primary = server(Strategy::Cached { capacity: 8 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3)); // 0-1-2-3
        let _ = primary.request(&f);
        let snap = primary.cache_snapshot();
        // Standby whose view lost link 1-2: the snapshot route is illegal.
        let topo = ring(6);
        let mut downed = topo.clone();
        let l = downed.link_between(AdId(1), AdId(2)).unwrap();
        downed.set_link_up(l, false);
        let db = PolicyDb::permissive(&topo);
        let mut standby = RouteServer::new(
            AdId(0),
            downed,
            db.clone(),
            Strategy::Cached { capacity: 8 },
        );
        assert_eq!(
            standby.warm_cache(&snap),
            0,
            "illegal route must be dropped"
        );
        // Standby that quarantined AD1: selection refuses the route.
        let mut avoider = RouteServer::new(AdId(0), topo, db, Strategy::Cached { capacity: 8 });
        avoider.set_selection(RouteSelection::avoiding([AdId(1)]));
        assert_eq!(avoider.warm_cache(&snap), 0, "quarantine must be respected");
        assert_eq!(avoider.cached_len(), 0);
    }

    #[test]
    fn warm_cache_drops_negative_entries() {
        let topo = line(3);
        let mut db = PolicyDb::permissive(&topo);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let mut primary = RouteServer::new(
            AdId(0),
            topo.clone(),
            db.clone(),
            Strategy::Cached { capacity: 4 },
        );
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        assert!(primary.request(&f).is_none());
        let snap = primary.cache_snapshot();
        let mut standby = RouteServer::new(AdId(0), topo, db, Strategy::Cached { capacity: 4 });
        assert_eq!(standby.warm_cache(&snap), 0);
        assert!(standby.stored_route(&f).is_none(), "negatives not trusted");
    }

    #[test]
    fn crash_loses_soft_state_and_rebuild_recovers_it() {
        let mut rs = server(Strategy::Hybrid { capacity: 8 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        rs.precompute(&[f]);
        let g = FlowSpec::best_effort(AdId(0), AdId(2));
        let _ = rs.request(&g);
        assert_eq!(rs.precomputed_len(), 1);
        assert_eq!(rs.cached_len(), 1);
        rs.crash_soft_state();
        assert_eq!(rs.precomputed_len(), 0, "crash must lose the table");
        assert_eq!(rs.cached_len(), 0, "crash must lose the cache");
        assert!(rs.stored_route(&f).is_none());
        rs.rebuild_soft_state();
        assert_eq!(rs.precomputed_len(), 1, "rebuild refills from the view");
        assert!(rs.stored_route(&f).unwrap().is_some());
        assert!(rs.stored_route(&g).is_none(), "cache entries stay lost");
    }

    #[test]
    fn request_batch_is_byte_identical_to_request_loop() {
        // Repeats, trivia, and enough distinct dsts to force evictions at
        // capacity 4 (no negatives on a permissive ring); then one class
        // whose destinations span the whole AD index range, each once.
        let inputs: [(usize, &[u32]); 2] = [
            (4, &[3, 2, 3, 5, 1, 4, 2, 0, 3, 5, 4, 1]),
            (8, &[0, 1, 2, 3, 4, 5]),
        ];
        for (capacity, dsts) in inputs {
            let mut mono = server(Strategy::Cached { capacity });
            let mut batched = server(Strategy::Cached { capacity });
            let flows: Vec<FlowSpec> = dsts
                .iter()
                .map(|&d| FlowSpec::best_effort(AdId(0), AdId(d)))
                .collect();
            let solo: Vec<_> = flows.iter().map(|f| mono.request(f)).collect();
            let batch = batched.request_batch(&flows, 8);
            assert_eq!(solo, batch, "routes diverged on {dsts:?}");
            assert_eq!(mono.stats, batched.stats, "stats diverged on {dsts:?}");
            assert_eq!(
                mono.cache_snapshot(),
                batched.cache_snapshot(),
                "cache contents or recency diverged on {dsts:?}"
            );
            assert_eq!(
                batched.sweep.sweeps, 1,
                "one class is one sweep, wherever its destinations lie"
            );
            assert!(
                batched.sweep.sweeps < batched.stats.searches,
                "sweeps must be shared across searches"
            );
        }
    }

    #[test]
    fn cache_capacity_is_a_bound_not_a_reservation() {
        let mut rs = server(Strategy::Cached {
            capacity: usize::MAX / 2,
        });
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        assert_eq!(rs.request(&f).unwrap().path.len(), 4);
        assert_eq!(rs.request(&f).unwrap().path.len(), 4);
        assert_eq!((rs.stats.searches, rs.stats.cache_hits), (1, 1));
    }

    #[test]
    fn background_refill_restores_invalidated_entries() {
        let mut rs = server(Strategy::Cached { capacity: 8 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3)); // 0-1-2-3
        let g = FlowSpec::best_effort(AdId(0), AdId(5)); // 0-5
        let _ = rs.request(&f);
        let _ = rs.request(&g);
        assert!(rs.apply_delta(&ViewDelta::Topo(TopoDelta::LinkState {
            a: AdId(1),
            b: AdId(2),
            up: false,
        })));
        assert_eq!(rs.pending_refill.len(), 1, "only f crossed the link");
        assert_eq!(rs.background_refill(8), 1);
        assert_eq!(rs.pending_refill.len(), 0);
        // The refilled entry reflects the new view and serves without a
        // setup-time search.
        let searches = rs.stats.searches;
        let served = rs.stored_route(&f).expect("refilled").expect("reachable");
        assert_eq!(served.path, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
        assert_eq!(rs.stats.searches, searches, "refill work is background");
        assert!(rs.stats.precompute_searches > 0);
        assert_eq!(rs.sweep.refills, 1);
    }

    #[test]
    fn background_refill_only_stores_routes_legal_under_current_view() {
        // Quarantine AD1 (selection update): flushed entries are queued,
        // and the refill must synthesize under the *new* avoid set.
        let mut rs = server(Strategy::Cached { capacity: 8 });
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let r = rs.request(&f).unwrap();
        assert_eq!(r.path, vec![AdId(0), AdId(1), AdId(2), AdId(3)]);
        rs.set_selection(RouteSelection::avoiding([AdId(1)]));
        assert!(!rs.pending_refill.is_empty(), "flush must queue refills");
        let _ = rs.background_refill(8);
        let served = rs.stored_route(&f).expect("refilled").expect("reachable");
        assert!(
            !served.path.contains(&AdId(1)),
            "refilled route must respect the quarantine avoid-set"
        );
    }

    #[test]
    fn unreachable_flows_are_negative_cached() {
        let topo = line(3);
        let mut db = PolicyDb::permissive(&topo);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let mut rs = RouteServer::new(AdId(0), topo, db, Strategy::Cached { capacity: 4 });
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        assert!(rs.request(&f).is_none());
        assert!(rs.request(&f).is_none());
        assert_eq!(rs.stats.searches, 1, "negative result must be cached too");
    }

    /// A ring of `n` ADs as flooding would leave it in a database, each
    /// origin advertising both neighbours at metric 1.
    fn ring_lsdb(n: u32) -> LsDb {
        let mut db = LsDb::new(n as usize);
        for o in 0..n {
            db.insert(ring_lsa(o, 1, &[(o + 1) % n, (o + n - 1) % n]));
        }
        db
    }

    fn ring_lsa(origin: u32, seq: u64, nbrs: &[u32]) -> Arc<Lsa> {
        Arc::new(Lsa {
            origin: AdId(origin),
            seq,
            level: adroute_topology::AdLevel::Campus,
            links: nbrs.iter().map(|&n| (AdId(n), 1, 1000)).collect(),
            policy: TransitPolicy::permit_all(AdId(origin)),
        })
    }

    fn synced_server(db: &LsDb) -> RouteServer {
        let (topo, policies) = db.view();
        let mut rs = RouteServer::new(AdId(0), topo, policies, Strategy::Cached { capacity: 8 });
        rs.adopt_provenance(db);
        rs
    }

    #[test]
    fn sync_costs_the_origins_whose_allocation_changed() {
        let mut db = ring_lsdb(6);
        let mut rs = synced_server(&db);
        let idle = rs.sync_view(&db);
        assert_eq!((idle.origins_rederived, idle.full_install), (0, false));
        // Link 1-2 fails: both endpoints re-originate without it.
        db.insert(ring_lsa(1, 2, &[0]));
        db.insert(ring_lsa(2, 2, &[3]));
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        assert_eq!(rs.request(&f).unwrap().path.len(), 4);
        let sync = rs.sync_view(&db);
        assert_eq!((sync.origins_rederived, sync.full_install), (2, false));
        let l = rs.view_topo().link_between(AdId(1), AdId(2)).unwrap();
        assert!(!rs.view_topo().link(l).up);
        assert_eq!(
            rs.request(&f).unwrap().path,
            vec![AdId(0), AdId(5), AdId(4), AdId(3)]
        );
        // One endpoint alone withdrawing is enough (confirmation is
        // bidirectional), and its policy rides along.
        let mut quiet = Lsa::clone(&ring_lsa(4, 2, &[5]));
        quiet.policy = TransitPolicy::deny_all(AdId(4));
        db.insert(Arc::new(quiet));
        assert_eq!(rs.sync_view(&db).origins_rederived, 1);
        let l = rs.view_topo().link_between(AdId(3), AdId(4)).unwrap();
        assert!(!rs.view_topo().link(l).up);
        assert_eq!(
            *rs.view_db().policy(AdId(4)),
            TransitPolicy::deny_all(AdId(4))
        );
        assert_eq!(rs.sync_view(&db).origins_rederived, 0);
    }

    #[test]
    fn servers_sharing_a_view_sync_each_to_its_own_database() {
        let db = ring_lsdb(6);
        let (topo, policies) = db.view();
        let (topo, policies) = (Arc::new(topo), Arc::new(policies));
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let mk = || {
            let mut s = RouteServer::sharing(
                AdId(0),
                topo.clone(),
                policies.clone(),
                Strategy::Cached { capacity: 8 },
            );
            s.adopt_provenance(&db);
            assert_eq!(s.request(&f).unwrap().path.len(), 4, "0-1-2-3 is cached");
            s
        };
        let (mut a, mut b, mut c) = (mk(), mk(), mk());
        // Both endpoints of 1-2 re-originate: without the link in the
        // databases of `a` and `c` (which share every LSA), at metric 5 in
        // the database of `b` — the same stale origins either way.
        let mut down = db.clone();
        down.insert(ring_lsa(1, 2, &[0]));
        down.insert(ring_lsa(2, 2, &[3]));
        let also_down = down.clone();
        let mut dear = db.clone();
        for (o, nbrs) in [(1, [2, 0]), (2, [1, 3])] {
            let mut lsa = Lsa::clone(&ring_lsa(o, 2, &nbrs));
            lsa.links[0].1 = 5;
            dear.insert(Arc::new(lsa));
        }
        let synced = sync_views(&mut [(&mut a, &down), (&mut b, &dear), (&mut c, &also_down)]);
        for s in synced {
            assert_eq!((s.origins_rederived, s.full_install), (2, false));
        }
        let link = |s: &RouteServer| {
            let t = s.view_topo();
            let l = t.link(t.link_between(AdId(1), AdId(2)).unwrap());
            (l.up, l.metric)
        };
        assert_eq!(
            (link(&a), link(&b), link(&c)),
            ((false, 1), (true, 5), (false, 1))
        );
        let l = topo.link_between(AdId(1), AdId(2)).unwrap();
        assert!(topo.link(l).up, "the shared original was edited in place");
        assert!(
            Arc::ptr_eq(&a.view_topo, &c.view_topo),
            "equal databases share"
        );
        assert!(Arc::ptr_eq(&a.view_db, &b.view_db), "no policy moved");
        // The server that adopted the copy invalidated for itself.
        assert_eq!(a.stats, c.stats);
        assert_eq!(c.stats.entries_invalidated, 1);
        let far = vec![AdId(0), AdId(5), AdId(4), AdId(3)];
        assert_eq!(c.request(&f).unwrap().path, far);
        assert_eq!(b.request(&f).unwrap().path, far);
    }

    #[test]
    fn sequence_numbers_do_not_detect_change_but_allocations_do() {
        let db = ring_lsdb(4);
        let mut rs = synced_server(&db);
        // AD1 crashed, lost its counter and came back with one adjacency:
        // same origin, same sequence number, different content. A router
        // that restarted empty holds it beside the others' old LSAs.
        let mut reborn = LsDb::new(4);
        for (o, slot) in db.slots().iter().enumerate() {
            reborn.insert(if o == 1 {
                ring_lsa(1, 1, &[0])
            } else {
                slot.clone().unwrap()
            });
        }
        assert_eq!(
            reborn.get(AdId(1)).unwrap().seq,
            db.get(AdId(1)).unwrap().seq
        );
        assert_eq!(rs.sync_view(&reborn).origins_rederived, 1);
        let l = rs.view_topo().link_between(AdId(1), AdId(2)).unwrap();
        assert!(!rs.view_topo().link(l).up, "the seq-tied change was missed");
        // And an equal-content re-origination under a new number is a new
        // allocation that derives no delta at all.
        let mut renumbered = reborn.clone();
        renumbered.insert(ring_lsa(1, 9, &[0]));
        let invalidated = rs.stats.entries_invalidated;
        assert_eq!(rs.sync_view(&renumbered).origins_rederived, 1);
        assert_eq!(rs.stats.entries_invalidated, invalidated);
    }

    #[test]
    fn edits_outside_a_sync_are_rederived_and_structure_falls_back() {
        let db = ring_lsdb(5);
        let mut rs = synced_server(&db);
        // A ground-truth broadcast takes 2-3 down behind the LSDB's back.
        assert!(rs.apply_delta(&ViewDelta::Topo(TopoDelta::LinkState {
            a: AdId(2),
            b: AdId(3),
            up: false,
        })));
        let sync = rs.sync_view(&db);
        assert_eq!((sync.origins_rederived, sync.full_install), (2, false));
        let l = rs.view_topo().link_between(AdId(2), AdId(3)).unwrap();
        assert!(
            rs.view_topo().link(l).up,
            "the view must return to its LSDB"
        );
        // A chord the view's topology never had cannot be a delta.
        let mut chord = db.clone();
        chord.insert(ring_lsa(0, 2, &[1, 4, 2]));
        chord.insert(ring_lsa(2, 2, &[3, 1, 0]));
        let sync = rs.sync_view(&chord);
        assert_eq!((sync.origins_rederived, sync.full_install), (2, true));
        assert!(rs.view_topo().link_between(AdId(0), AdId(2)).is_some());
        assert_eq!(rs.sync_view(&chord).origins_rederived, 0);
    }
}

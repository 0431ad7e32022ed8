//! The IDRP / BGP-2 design point: distance vector (path vector),
//! hop-by-hop, **explicit policy terms in routing updates** (paper
//! Section 5.2 / 5.2.1).
//!
//! Updates carry the **full AD path** (IDRP's loop-avoidance mechanism)
//! plus policy attributes: the QOS and user class a route applies to, and
//! a **distribution/source scope** — the set of source ADs permitted to
//! use the route, IDRP's vehicle for source-specific policy (the paper
//! notes BGP-2 lacks this; disable [`PathVector::scope_attrs`] to model
//! BGP-2). As updates propagate, each transit AD narrows the attributes
//! according to its own policy and may split one route into several
//! class-specific routes — which is precisely the paper's complaint:
//! "this effectively replicates the routing table per forwarding entity
//! for each QOS, UCI, source combination", measured by experiment E4.
//!
//! ## Policy conversion
//!
//! A transit AD's first-match-wins [`TransitPolicy`] must be converted
//! into advertisable per-class *offerings* at export time. With the
//! destination, previous AD, and next AD fixed (all known at export), the
//! conversion walks the terms in order, tracking the set of sources not
//! yet denied; each permit term yields an offering over the remaining
//! sources. The conversion is exact for the policy shapes the workload
//! generator emits (source-set denials; QOS/UCI/cone permits); two
//! documented approximations remain: (1) a deny term conditioned on
//! QOS/UCI narrows *all* later offerings' source scope (conservative —
//! may lose legal routes, never violates policy), and (2) a
//! class-conditioned permit does not shadow later terms for that class,
//! so a later broader offering may coexist (route selection then picks
//! the cheaper, which can differ from strict first-match costing).
//! Time-of-day conditions are evaluated once, at noon (`EVAL_TIME`):
//! hop-by-hop tables cannot re-evaluate per packet — a genuine limitation
//! of this design point versus source routing.
//!
//! ## What is shared, and what an update costs
//!
//! A route is a handle: its path is an `Arc<[AdId]>` and its scope an
//! `Arc<AdSet>`, so a loc-RIB entry, an adj-RIB-in entry and a
//! [`PvUpdate`] entry are reference-count bumps on values nobody mutates.
//! Each router keeps one canonical scope handle per distinct set it has
//! stored (`Scopes`), so equal attributes compare by pointer and
//! `scope ∩ offering scope` is computed once per distinct pair. Sharing
//! is invisible to the ledger: [`Protocol::msg_size`] and the RIB counts
//! of E4 are functions of route *content*. Nothing is global — handles
//! order nothing (every ordering is by content), and a router's `Scopes`
//! and export slices die with it on a crash.
//!
//! A received table is diffed per destination against the one it
//! replaces; only destinations that differ are re-selected, and only
//! destinations whose selected routes changed are re-exported. The
//! update on the wire is still the full table, assembled from the slices
//! last sent plus the re-derived ones.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use adroute_policy::{
    AdSet, FlowSpec, PolicyAction, PolicyCondition, PolicyDb, QosClass, TimeOfDay, TransitPolicy,
    UserClass,
};
use adroute_sim::{Counter, Ctx, Engine, EventRecord, MisbehaviorModel, MisbehaviorSpec, Protocol};
use adroute_topology::{AdId, LinkId, Topology};

use crate::forwarding::DataPlane;

/// Policy attributes attached to a route. Cloning bumps the scope's
/// reference count.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PvAttrs {
    /// QOS class the route applies to (`None` = any).
    pub qos: Option<QosClass>,
    /// User class the route applies to (`None` = any).
    pub uci: Option<UserClass>,
    /// Source ADs permitted to use this route. Equality checks the
    /// pointer before the members.
    pub scope: Arc<AdSet>,
}

impl PvAttrs {
    /// Whether a flow matches these attributes.
    pub(crate) fn matches(&self, flow: &FlowSpec) -> bool {
        self.qos.is_none_or(|q| q == flow.qos)
            && self.uci.is_none_or(|u| u == flow.uci)
            && self.scope.contains(flow.src)
    }

    /// Approximate encoded size in bytes.
    pub(crate) fn encoded_size(&self) -> usize {
        2 + 2 + self.scope.encoded_size()
    }
}

impl PartialOrd for PvAttrs {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// By content — `(qos, uci, scope members)` — so RIB order never depends
/// on where a handle lives; one shared scope short-cuts the member walk.
impl Ord for PvAttrs {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.qos, self.uci)
            .cmp(&(other.qos, other.uci))
            .then_with(|| {
                if Arc::ptr_eq(&self.scope, &other.scope) {
                    std::cmp::Ordering::Equal
                } else {
                    self.scope.cmp(&other.scope)
                }
            })
    }
}

/// One route in an update or RIB: full AD path plus policy attributes.
/// Cloning bumps two reference counts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PvRoute {
    /// Destination AD.
    pub dest: AdId,
    /// AD path ending at `dest`. In an update, it starts at the sender;
    /// in a local RIB, at the next hop.
    pub path: Arc<[AdId]>,
    /// Policy attributes.
    pub attrs: PvAttrs,
    /// Cumulative cost: link metrics plus transit charges.
    pub cost: u32,
}

impl PvRoute {
    /// Approximate encoded size in bytes.
    pub(crate) fn encoded_size(&self) -> usize {
        4 + 4 + 4 * self.path.len() + self.attrs.encoded_size()
    }
}

/// A full-table routing update: the sender's entire exportable RIB for
/// the receiving neighbor.
#[derive(Clone, Debug)]
pub struct PvUpdate {
    /// Advertised routes.
    pub routes: Vec<PvRoute>,
}

/// Time of day at which time-window policy conditions are evaluated.
const EVAL_TIME: TimeOfDay = TimeOfDay::NOON;

/// Protocol configuration.
#[derive(Clone, Debug)]
pub struct PathVector {
    /// Ground-truth per-AD policies; each router consults **only its
    /// own** entry (policies themselves are private — only their effects
    /// travel, as route attributes).
    pub policies: PolicyDb,
    /// IDRP-style source/distribution scopes on routes. `false` models
    /// BGP-2, which cannot express source-specific policy: scopes are
    /// widened to `Any` (violations then surface in the audit).
    pub scope_attrs: bool,
    /// Maximum routes advertised per destination to one neighbor
    /// (cheapest first). Models the paper's concern about advertising
    /// "multiple routes per destination, each with different policy
    /// attributes".
    pub max_routes_per_dest: usize,
    /// Minimum route advertisement interval in microseconds: after a RIB
    /// change, the router waits this long (coalescing further changes)
    /// before advertising. 0 disables batching (advertise immediately).
    pub mrai_us: u64,
    /// Byzantine assignments. Path vector understands
    /// [`MisbehaviorModel::RouteLeak`]: the leaker re-advertises its
    /// entire loc-RIB to every neighbor with wildcard attributes,
    /// bypassing the offerings conversion of its own `TransitPolicy` —
    /// the classic transit route leak.
    pub misbehavior: MisbehaviorSpec,
}

impl PathVector {
    /// IDRP with the given policies and default knobs.
    pub fn idrp(policies: PolicyDb) -> PathVector {
        PathVector {
            policies,
            scope_attrs: true,
            max_routes_per_dest: 32,
            mrai_us: 2_000,
            misbehavior: MisbehaviorSpec::default(),
        }
    }
}

/// One router's scope handles: a single `Arc<AdSet>` per distinct set it
/// stores or offers, so equal scopes are one pointer and intersections
/// are remembered by address. Grows with the distinct scopes the
/// policies can produce (tens), not with routes.
#[derive(Clone, Debug, Default)]
struct Scopes {
    canon: HashSet<Arc<AdSet>>,
    /// `a ∩ b` for canonical `a`, `b`, keyed by their addresses — stable
    /// because `canon` keeps both alive. `None`: they share no source.
    meets: HashMap<(usize, usize), Option<Arc<AdSet>>>,
}

impl Scopes {
    /// This router's handle for a scope received from a neighbor (theirs,
    /// if the set is new here).
    fn adopt(&mut self, theirs: &Arc<AdSet>) -> Arc<AdSet> {
        if let Some(ours) = self.canon.get(&**theirs) {
            return ours.clone();
        }
        self.canon.insert(theirs.clone());
        theirs.clone()
    }

    /// This router's handle for `set`.
    fn intern(&mut self, set: AdSet) -> Arc<AdSet> {
        match self.canon.get(&set) {
            Some(ours) => ours.clone(),
            None => self.adopt(&Arc::new(set)),
        }
    }

    /// `a ∩ b` for two of this router's handles, `None` when empty.
    fn meet(&mut self, a: &Arc<AdSet>, b: &Arc<AdSet>) -> Option<Arc<AdSet>> {
        let key = (Arc::as_ptr(a) as usize, Arc::as_ptr(b) as usize);
        if let Some(known) = self.meets.get(&key) {
            return known.clone();
        }
        let both = a.intersect(b);
        let met = (!both.is_empty_set()).then(|| self.intern(both));
        self.meets.insert(key, met.clone());
        met
    }
}

/// One advertisable offering derived from a transit policy at export
/// time; `scope` is the exporting router's own handle.
#[derive(Clone, Debug)]
struct Offering<'p> {
    qos: Option<&'p [QosClass]>,
    uci: Option<&'p [UserClass]>,
    scope: Arc<AdSet>,
    cost: u32,
}

/// Converts `policy` into offerings for transit traversals with the given
/// fixed destination / previous / next ADs (see module docs).
fn offerings<'p>(
    policy: &'p TransitPolicy,
    dst: AdId,
    prev: AdId,
    next: AdId,
    time: TimeOfDay,
    scopes: &mut Scopes,
) -> Vec<Offering<'p>> {
    let mut out = Vec::new();
    // Sources not yet denied by earlier terms.
    let mut remaining = AdSet::Any;
    for term in &policy.terms {
        let mut src_cond: Option<&AdSet> = None;
        let mut qos_cond: Option<&'p [QosClass]> = None;
        let mut uci_cond: Option<&'p [UserClass]> = None;
        let mut applicable = true;
        for cond in &term.conditions {
            match cond {
                PolicyCondition::SrcIn(s) => src_cond = Some(s),
                PolicyCondition::QosIn(q) => qos_cond = Some(q),
                PolicyCondition::UciIn(u) => uci_cond = Some(u),
                PolicyCondition::DstIn(s) => applicable &= s.contains(dst),
                PolicyCondition::PrevIn(s) => applicable &= s.contains(prev),
                PolicyCondition::NextIn(s) => applicable &= s.contains(next),
                PolicyCondition::TimeWindow(a, b) => applicable &= time.in_window(*a, *b),
            }
        }
        if !applicable {
            continue;
        }
        match term.action {
            PolicyAction::Deny => {
                // Remove the denied sources from everything that follows.
                // (Class-conditioned denials over-restrict; conservative.)
                match src_cond {
                    Some(AdSet::Only(v)) => {
                        remaining = remaining.intersect(&AdSet::Except(v.clone()))
                    }
                    Some(AdSet::Except(v)) => {
                        remaining = remaining.intersect(&AdSet::Only(v.clone()))
                    }
                    Some(AdSet::Any) | None => {
                        // Unconditional (w.r.t. source) denial: everything
                        // after is shadowed.
                        return out;
                    }
                }
                if remaining.is_empty_set() {
                    return out;
                }
            }
            PolicyAction::Permit { cost } => {
                let scope = match src_cond {
                    Some(s) => remaining.intersect(s),
                    None => remaining.clone(),
                };
                if scope.is_empty_set() {
                    continue;
                }
                let unconditional = src_cond.is_none() && qos_cond.is_none() && uci_cond.is_none();
                out.push(Offering {
                    qos: qos_cond,
                    uci: uci_cond,
                    scope: scopes.intern(scope),
                    cost,
                });
                if unconditional {
                    // Catch-all permit: later terms are fully shadowed.
                    return out;
                }
            }
        }
    }
    if let PolicyAction::Permit { cost } = policy.default {
        if !remaining.is_empty_set() {
            out.push(Offering {
                qos: None,
                uci: None,
                scope: scopes.intern(remaining),
                cost,
            });
        }
    }
    out
}

/// Per-AD router state.
#[derive(Clone, Debug)]
pub struct PvRouter {
    /// Last full table received from each neighbor (paths start at that
    /// neighbor, scopes are this router's handles), destination-sorted,
    /// indexed by the dense adjacency slot ([`Ctx::neighbor_slot`]).
    adj_in: Vec<Option<Vec<PvRoute>>>,
    /// Selected routes: cheapest per `(dest, attrs)`, sorted for
    /// determinism. Paths start at the next hop.
    pub loc_rib: Vec<PvRoute>,
    /// Whether an MRAI advertisement timer is outstanding.
    advert_pending: bool,
    /// The own-origin route every update leads with; `own.dest` is this
    /// router's AD.
    own: PvRoute,
    /// Per neighbor slot, the transit routes of the last update sent
    /// (destination-sorted); `None` when the next update must be derived
    /// whole — nothing sent yet, or the link went down since.
    adj_out: Vec<Option<Vec<PvRoute>>>,
    /// Destinations whose `loc_rib` routes changed since the last
    /// advertisement.
    unsent: BTreeSet<AdId>,
    scopes: Scopes,
}

fn same_dest(a: &PvRoute, b: &PvRoute) -> bool {
    a.dest == b.dest
}

/// The destinations of a destination-sorted table, ascending.
fn dests(table: &[PvRoute]) -> Vec<AdId> {
    table.chunk_by(same_dest).map(|run| run[0].dest).collect()
}

/// The routes to `dest` in a destination-sorted table.
fn run_of(table: &[PvRoute], dest: AdId) -> &[PvRoute] {
    let start = table.partition_point(|r| r.dest < dest);
    let len = table[start..].partition_point(|r| r.dest == dest);
    &table[start..start + len]
}

/// The destination-sorted `table` with the routes to each of `dests`
/// (ascending) replaced by what `derive` appends for it.
fn replace_runs(
    table: Vec<PvRoute>,
    dests: &[AdId],
    mut derive: impl FnMut(AdId, &mut Vec<PvRoute>),
) -> Vec<PvRoute> {
    let mut out = Vec::with_capacity(table.len());
    let mut kept = table.into_iter().peekable();
    for &dest in dests {
        while let Some(route) = kept.next_if(|r| r.dest < dest) {
            out.push(route);
        }
        while kept.next_if(|r| r.dest == dest).is_some() {}
        derive(dest, &mut out);
    }
    out.extend(kept);
    out
}

/// Whether `stored` is what importing `sent` from neighbor `from` stores.
fn is_import_of(stored: &PvRoute, sent: &PvRoute, from: AdId) -> bool {
    let same_path = if sent.path.first() == Some(&from) {
        stored.path == sent.path
    } else {
        stored.path[1..] == sent.path[..]
    };
    same_path && stored.cost == sent.cost && stored.attrs == sent.attrs
}

/// A route on offer for one `(dest, attrs)` slot.
struct Cand<'a> {
    attrs: PvAttrs,
    cost: u32,
    path: &'a Arc<[AdId]>,
}

impl Cand<'_> {
    fn route(&self, dest: AdId) -> PvRoute {
        PvRoute {
            dest,
            path: self.path.clone(),
            attrs: self.attrs.clone(),
            cost: self.cost,
        }
    }
}

/// Keeps the best candidate per distinct attribute set — cheapest, then
/// shortest, then lowest path — in attribute order.
fn select(cands: &mut Vec<Cand<'_>>) {
    cands.sort_unstable_by(|a, b| {
        (&a.attrs, a.cost, a.path.len(), a.path).cmp(&(&b.attrs, b.cost, b.path.len(), b.path))
    });
    cands.dedup_by(|later, first| later.attrs == first.attrs);
}

/// The classes a route restricted to `have` keeps under an offering
/// restricted to `offered` (`None` = any, on either side).
fn classes<T: Copy + PartialEq>(
    have: Option<T>,
    offered: Option<&[T]>,
) -> impl Iterator<Item = Option<T>> + Clone + '_ {
    let (one, many): (Option<Option<T>>, &[T]) = match (have, offered) {
        (have, None) => (Some(have), &[]),
        (None, Some(list)) => (None, list),
        (Some(c), Some(list)) => (list.contains(&c).then_some(Some(c)), &[]),
    };
    one.into_iter().chain(many.iter().map(|&c| Some(c)))
}

impl PvRouter {
    /// The last full table stored from each neighbor, by adjacency slot
    /// (`Topology::neighbor_slot`); `None` where nothing has been heard
    /// since the link last came up.
    pub fn adj_rib_in(&self) -> &[Option<Vec<PvRoute>>] {
        &self.adj_in
    }

    /// Total routes stored across neighbor RIBs (the state-size measure
    /// of experiment E4).
    pub fn adj_rib_size(&self) -> usize {
        self.adj_rib_in().iter().flatten().map(Vec::len).sum()
    }

    /// Selected routes toward one destination.
    pub fn routes_to(&self, dest: AdId) -> impl Iterator<Item = &PvRoute> {
        run_of(&self.loc_rib, dest).iter()
    }

    /// The cheapest selected route matching `flow`.
    pub fn best_match(&self, flow: &FlowSpec) -> Option<&PvRoute> {
        self.routes_to(flow.dst)
            .filter(|r| r.attrs.matches(flow))
            .min_by(|a, b| (a.cost, a.path.len(), &a.path).cmp(&(b.cost, b.path.len(), &b.path)))
    }

    /// Stores `msg` as the table heard from neighbor `from` (adjacency
    /// `slot`) and returns, ascending, the destinations whose routes
    /// differ from the table it replaces. Routes to the others keep their
    /// stored handles; changed ones get the sender prepended to the path
    /// (stored paths run next-hop … dest) and this router's scope handle.
    fn import(&mut self, slot: usize, from: AdId, mut msg: PvUpdate) -> Vec<AdId> {
        // The wire leads with the sender's own-origin route.
        msg.routes.sort_by_key(|route| route.dest);
        let old = self.adj_in[slot].take().unwrap_or_default();
        let mut old_runs = old.chunk_by(same_dest).peekable();
        let mut table = Vec::with_capacity(msg.routes.len());
        let mut dirty = Vec::new();
        // One prepended path per path handle of the sender's, by address
        // (`msg` keeps them alive).
        let mut prepended: HashMap<*const AdId, Arc<[AdId]>> = HashMap::new();
        for run in msg.routes.chunk_by(same_dest) {
            let dest = run[0].dest;
            while let Some(gone) = old_runs.next_if(|o| o[0].dest < dest) {
                dirty.push(gone[0].dest);
            }
            let unchanged = old_runs.next_if(|o| o[0].dest == dest).filter(|o| {
                o.len() == run.len() && o.iter().zip(run).all(|(s, r)| is_import_of(s, r, from))
            });
            if let Some(stored) = unchanged {
                table.extend_from_slice(stored);
                continue;
            }
            dirty.push(dest);
            for sent in run {
                let path = if sent.path.first() == Some(&from) {
                    sent.path.clone()
                } else {
                    prepended
                        .entry(sent.path.as_ptr())
                        .or_insert_with(|| {
                            std::iter::once(from)
                                .chain(sent.path.iter().copied())
                                .collect()
                        })
                        .clone()
                };
                table.push(PvRoute {
                    dest,
                    path,
                    attrs: PvAttrs {
                        scope: self.scopes.adopt(&sent.attrs.scope),
                        ..sent.attrs
                    },
                    cost: sent.cost,
                });
            }
        }
        dirty.extend(old_runs.map(|gone| gone[0].dest));
        self.adj_in[slot] = Some(table);
        dirty
    }

    /// Records that the link to the neighbor in `slot` changed state and
    /// returns the destinations whose candidates that adds or removes:
    /// the ones its stored table offers. A down link forgets both
    /// directions' tables.
    fn link_changed(&mut self, slot: usize, up: bool) -> Vec<AdId> {
        let offered = self.adj_in[slot].as_deref().map(dests).unwrap_or_default();
        if !up {
            self.adj_in[slot] = None;
            self.adj_out[slot] = None;
        }
        offered
    }

    /// Re-selects the `dirty` destinations (ascending) over the tables of
    /// the `up` neighbors — `(adjacency slot, link metric)` — and returns
    /// whether `loc_rib` changed. Winners are chosen over borrowed
    /// candidates and compared with the routes in place; only a
    /// destination whose winners differ is materialised and marked for
    /// export.
    fn reselect(&mut self, up: &[(usize, u32)], dirty: &[AdId]) -> bool {
        let mut cands: Vec<Cand<'_>> = Vec::new();
        let mut changed: Vec<AdId> = Vec::new();
        let mut fresh: Vec<PvRoute> = Vec::new();
        for &dest in dirty {
            cands.clear();
            for &(slot, metric) in up {
                // `None`: nothing heard from this neighbor yet.
                for route in run_of(self.adj_in[slot].as_deref().unwrap_or_default(), dest) {
                    if route.path.contains(&self.own.dest) {
                        continue; // loop avoidance via full path information
                    }
                    cands.push(Cand {
                        attrs: route.attrs.clone(),
                        cost: route.cost.saturating_add(metric),
                        path: &route.path,
                    });
                }
            }
            select(&mut cands);
            let current = run_of(&self.loc_rib, dest);
            let unchanged = current.len() == cands.len()
                && current
                    .iter()
                    .zip(&cands)
                    .all(|(r, c)| r.cost == c.cost && r.attrs == c.attrs && r.path == *c.path);
            if !unchanged {
                changed.push(dest);
                fresh.extend(cands.iter().map(|c| c.route(dest)));
            }
        }
        if changed.is_empty() {
            return false;
        }
        let mut fresh = fresh.into_iter().peekable();
        self.loc_rib = replace_runs(std::mem::take(&mut self.loc_rib), &changed, |dest, out| {
            while let Some(route) = fresh.next_if(|r| r.dest == dest) {
                out.push(route);
            }
        });
        self.unsent.extend(changed);
        true
    }
}

impl PathVector {
    /// Schedules an MRAI-batched advertisement (or sends immediately when
    /// batching is disabled).
    fn schedule_advert(&self, r: &mut PvRouter, ctx: &mut Ctx<'_, PvUpdate>) {
        if self.mrai_us == 0 {
            self.advertise(r, ctx);
        } else if !r.advert_pending {
            r.advert_pending = true;
            ctx.set_timer(self.mrai_us, 1);
        }
    }

    /// Re-selects `dirty` on `r` and reports the recomputation; returns
    /// whether `loc_rib` changed.
    fn recompute(&self, r: &mut PvRouter, ctx: &mut Ctx<'_, PvUpdate>, dirty: &[AdId]) -> bool {
        ctx.count(Counter::PvRecompute, 1);
        // Up neighbors only: a table stored for a down link is no candidate.
        let up: Vec<(usize, u32)> = ctx
            .neighbors()
            .into_iter()
            .filter_map(|(nbr, link)| Some((ctx.neighbor_slot(nbr)?, ctx.link_metric(link))))
            .collect();
        let changed = r.reselect(&up, dirty);
        ctx.emit(EventRecord::RouteRecompute {
            ad: ctx.me(),
            proto: "pv",
            changed,
        });
        changed
    }

    /// Sends every up neighbor its full table.
    fn advertise(&self, r: &mut PvRouter, ctx: &mut Ctx<'_, PvUpdate>) {
        let unsent: Vec<AdId> = std::mem::take(&mut r.unsent).into_iter().collect();
        for (nbr, _) in ctx.neighbors() {
            if let Some(slot) = ctx.neighbor_slot(nbr) {
                ctx.send(nbr, self.export(r, slot, nbr, &unsent));
            }
        }
    }

    /// The full-table update for neighbor `nbr` (adjacency `slot`): the
    /// slices last sent, with those of the `unsent` destinations (every
    /// destination, when nothing valid was last sent) derived anew from
    /// `loc_rib`.
    fn export(&self, r: &mut PvRouter, slot: usize, nbr: AdId, unsent: &[AdId]) -> PvUpdate {
        let every;
        let (last, due) = match r.adj_out[slot].take() {
            Some(last) => (last, unsent),
            None => {
                every = dests(&r.loc_rib);
                (Vec::new(), &every[..])
            }
        };
        let PvRouter {
            loc_rib,
            scopes,
            own,
            ..
        } = r;
        let sent = replace_runs(last, due, |dest, out| {
            self.export_slice(own, scopes, run_of(loc_rib, dest), nbr, out)
        });
        let mut routes = Vec::with_capacity(1 + sent.len());
        // Own-origin route: reaching us is not transit; always offered.
        routes.push(own.clone());
        routes.extend_from_slice(&sent);
        r.adj_out[slot] = Some(sent);
        PvUpdate { routes }
    }

    /// Appends to `out` the transit routes `group` (the selected routes to
    /// one destination) yields toward neighbor `nbr`, narrowed by our
    /// offerings: the best per distinct attribute set, cheapest first, up
    /// to the advertisement budget. The receiver prepends us to each path
    /// on import.
    fn export_slice(
        &self,
        own: &PvRoute,
        scopes: &mut Scopes,
        group: &[PvRoute],
        nbr: AdId,
        out: &mut Vec<PvRoute>,
    ) {
        let Some(dest) = group.first().map(|r| r.dest) else {
            return;
        };
        let me = own.dest;
        let policy = self.policies.policy(me);
        let leaking = self.misbehavior.model_of(me) == Some(MisbehaviorModel::RouteLeak);
        let wildcard = &own.attrs.scope;
        // Offerings depend on the next hop only; several routes share one.
        let mut offered: Vec<(AdId, Vec<Offering<'_>>)> = Vec::new();
        let mut cands: Vec<Cand<'_>> = Vec::new();
        for route in group {
            if route.path.contains(&nbr) {
                continue; // receiver would loop-reject; save the bytes
            }
            if leaking {
                // Route leak: every known route goes to every neighbor
                // with wildcard attributes — the offerings conversion
                // (our own policy!) is bypassed entirely.
                cands.push(Cand {
                    attrs: own.attrs.clone(),
                    cost: route.cost,
                    path: &route.path,
                });
                continue;
            }
            let next = route.path[0];
            let known = offered.iter().position(|(n, _)| *n == next);
            let known = known.unwrap_or_else(|| {
                let offs = offerings(policy, dest, nbr, next, EVAL_TIME, scopes);
                offered.push((next, offs));
                offered.len() - 1
            });
            for off in &offered[known].1 {
                // Scope: narrow; or widen to Any when scopes are
                // unsupported (BGP-2).
                let scope = if self.scope_attrs {
                    match scopes.meet(&route.attrs.scope, &off.scope) {
                        Some(scope) => scope,
                        None => continue,
                    }
                } else {
                    wildcard.clone()
                };
                // Possibly several: one per QOS/UCI class the offering
                // names.
                let ucis = classes(route.attrs.uci, off.uci);
                for qos in classes(route.attrs.qos, off.qos) {
                    for uci in ucis.clone() {
                        cands.push(Cand {
                            attrs: PvAttrs {
                                qos,
                                uci,
                                scope: scope.clone(),
                            },
                            cost: route.cost.saturating_add(off.cost),
                            path: &route.path,
                        });
                    }
                }
            }
        }
        select(&mut cands);
        cands.sort_unstable_by(|a, b| {
            (a.cost, a.path.len(), a.path, &a.attrs).cmp(&(b.cost, b.path.len(), b.path, &b.attrs))
        });
        cands.truncate(self.max_routes_per_dest);
        out.extend(cands.iter().map(|c| c.route(dest)));
    }
}

impl Protocol for PathVector {
    type Router = PvRouter;
    type Msg = PvUpdate;

    fn make_router(&self, topo: &Topology, ad: AdId) -> PvRouter {
        let mut scopes = Scopes::default();
        let degree = topo.full_degree(ad);
        PvRouter {
            adj_in: vec![None; degree],
            loc_rib: Vec::new(),
            advert_pending: false,
            own: PvRoute {
                dest: ad,
                path: Arc::new([ad]),
                attrs: PvAttrs {
                    qos: None,
                    uci: None,
                    scope: scopes.intern(AdSet::Any),
                },
                cost: 0,
            },
            adj_out: vec![None; degree],
            unsent: BTreeSet::new(),
            scopes,
        }
    }

    fn on_start(&self, r: &mut PvRouter, ctx: &mut Ctx<'_, PvUpdate>) {
        self.advertise(r, ctx);
    }

    fn on_message(
        &self,
        r: &mut PvRouter,
        ctx: &mut Ctx<'_, PvUpdate>,
        from: AdId,
        _link: LinkId,
        msg: PvUpdate,
    ) {
        let dirty = match ctx.neighbor_slot(from) {
            Some(slot) => r.import(slot, from, msg),
            None => Vec::new(),
        };
        // Emitted before scheduling the advertisement: the batch timer
        // below anchors to the recompute record in the causal log.
        if self.recompute(r, ctx, &dirty) {
            self.schedule_advert(r, ctx);
        }
    }

    fn on_timer(&self, r: &mut PvRouter, ctx: &mut Ctx<'_, PvUpdate>, _token: u64) {
        if r.advert_pending {
            r.advert_pending = false;
            self.advertise(r, ctx);
        }
    }

    fn on_link_event(
        &self,
        r: &mut PvRouter,
        ctx: &mut Ctx<'_, PvUpdate>,
        _link: LinkId,
        neighbor: AdId,
        up: bool,
    ) {
        let dirty = match ctx.neighbor_slot(neighbor) {
            Some(slot) => r.link_changed(slot, up),
            None => Vec::new(),
        };
        if self.recompute(r, ctx, &dirty) || up {
            self.schedule_advert(r, ctx);
        }
    }

    fn msg_size(&self, msg: &PvUpdate) -> usize {
        4 + msg.routes.iter().map(PvRoute::encoded_size).sum::<usize>()
    }
}

impl DataPlane for Engine<PathVector> {
    type Mark = ();

    fn next_hop(
        &mut self,
        at: AdId,
        flow: &FlowSpec,
        _prev: Option<AdId>,
        _mark: &mut (),
    ) -> Option<AdId> {
        self.router(at).best_match(flow).map(|r| r.path[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarding::{audit_path, forward, score_flows, ForwardOutcome};
    use adroute_policy::workload::PolicyWorkload;
    use adroute_topology::generate::{line, ring, HierarchyConfig};

    fn converge(topo: Topology, pv: PathVector) -> Engine<PathVector> {
        let mut e = Engine::new(topo, pv);
        e.run_to_quiescence();
        e
    }

    #[test]
    fn permissive_policies_reach_everywhere() {
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        let mut e = converge(topo, PathVector::idrp(db));
        let topo = e.topo().clone();
        for f in crate::forwarding::sample_flows(&topo, 20, 1) {
            let out = forward(&mut e, &topo, &f);
            assert!(out.delivered(), "{f}: {out:?}");
        }
    }

    #[test]
    fn full_path_prevents_loops() {
        let topo = ring(5);
        let db = PolicyDb::permissive(&topo);
        let e = converge(topo, PathVector::idrp(db));
        for ad in e.topo().ad_ids() {
            for r in &e.router(ad).loc_rib {
                assert!(
                    !r.path.contains(&ad),
                    "{ad} stores looping path {:?}",
                    r.path
                );
                let mut p = r.path.to_vec();
                p.sort_unstable();
                p.dedup();
                assert_eq!(p.len(), r.path.len(), "duplicate in path");
            }
        }
    }

    #[test]
    fn deny_all_transit_is_never_advertised_through() {
        let topo = line(4);
        let mut db = PolicyDb::permissive(&topo);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let mut e = converge(topo, PathVector::idrp(db));
        let topo = e.topo().clone();
        // 0 -> 3 must fail: the only physical path transits AD1.
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(0), AdId(3)));
        assert!(matches!(out, ForwardOutcome::NoRoute { .. }), "{out:?}");
        // 0 -> 1 (AD1 as endpoint) still works.
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(0), AdId(1)));
        assert!(out.delivered());
    }

    #[test]
    fn route_leaker_readvertises_against_its_own_policy() {
        use adroute_sim::{MisbehaviorModel, MisbehaviorSpec};
        // Same topology as deny_all_transit_is_never_advertised_through,
        // but AD1 now *leaks*: it advertises the transit route its own
        // policy forbids, so 0->3 is delivered — in violation.
        let topo = line(4);
        let mut db = PolicyDb::permissive(&topo);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let mut pv = PathVector::idrp(db.clone());
        pv.misbehavior = MisbehaviorSpec::single(AdId(1), MisbehaviorModel::RouteLeak);
        let mut e = converge(topo, pv);
        let topo = e.topo().clone();
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let out = forward(&mut e, &topo, &f);
        let ForwardOutcome::Delivered { path } = &out else {
            panic!("leak should open the forbidden route: {out:?}")
        };
        let audit = audit_path(&topo, &db, &f, path);
        assert_eq!(
            audit.violations,
            vec![AdId(1)],
            "the tripwire evidence names the leaker"
        );
    }

    #[test]
    fn source_scope_enforces_source_specific_policy() {
        // Ring 0-1-2-3-0: AD1 denies source 0; 0->2 must go via 3.
        let topo = ring(4);
        let mut db = PolicyDb::permissive(&topo);
        let mut p1 = TransitPolicy::permit_all(AdId(1));
        p1.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(0)]))],
            PolicyAction::Deny,
        );
        db.set_policy(p1);
        let mut e = converge(topo, PathVector::idrp(db.clone()));
        let topo = e.topo().clone();
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        let out = forward(&mut e, &topo, &f);
        let ForwardOutcome::Delivered { path } = &out else {
            panic!("{out:?}")
        };
        assert_eq!(path, &vec![AdId(0), AdId(3), AdId(2)]);
        assert!(audit_path(&topo, &db, &f, path).compliant());
        // A different source may use AD1.
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(3), AdId(2)));
        assert!(out.delivered());
    }

    #[test]
    fn bgp2_without_scopes_loses_enforcement() {
        let topo = ring(4);
        let mut db = PolicyDb::permissive(&topo);
        let mut p1 = TransitPolicy::permit_all(AdId(1));
        p1.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(0)]))],
            PolicyAction::Deny,
        );
        db.set_policy(p1);
        let bgp2 = PathVector {
            scope_attrs: false,
            ..PathVector::idrp(db.clone())
        };
        let mut e = converge(topo, bgp2);
        let topo = e.topo().clone();
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        let score = score_flows(&mut e, &topo, &db, &[f]);
        // BGP-2 still delivers (it has routes), but cannot see the
        // source-specific denial; compliance is luck of cost tie-break.
        assert_eq!(score.delivered, 1);
    }

    #[test]
    fn qos_terms_split_routes() {
        // Line 0-1-2: AD1 permits QOS0 cheap, QOS1 expensive.
        let topo = line(3);
        let mut db = PolicyDb::permissive(&topo);
        let mut p1 = TransitPolicy::deny_all(AdId(1));
        p1.push_term(
            vec![PolicyCondition::QosIn(vec![QosClass(0)])],
            PolicyAction::Permit { cost: 1 },
        );
        p1.push_term(
            vec![PolicyCondition::QosIn(vec![QosClass(1)])],
            PolicyAction::Permit { cost: 9 },
        );
        db.set_policy(p1);
        let e = converge(topo, PathVector::idrp(db));
        let routes: Vec<_> = e.router(AdId(0)).routes_to(AdId(2)).collect();
        assert_eq!(routes.len(), 2, "{routes:?}");
        let q0 = routes
            .iter()
            .find(|r| r.attrs.qos == Some(QosClass(0)))
            .unwrap();
        let q1 = routes
            .iter()
            .find(|r| r.attrs.qos == Some(QosClass(1)))
            .unwrap();
        assert_eq!(q0.cost + 8, q1.cost);
        // Forwarding respects the class split.
        let mut e = e;
        let topo = e.topo().clone();
        let f1 = FlowSpec::best_effort(AdId(0), AdId(2)).with_qos(QosClass(1));
        assert!(forward(&mut e, &topo, &f1).delivered());
        let f2 = FlowSpec::best_effort(AdId(0), AdId(2)).with_qos(QosClass(2));
        assert!(matches!(
            forward(&mut e, &topo, &f2),
            ForwardOutcome::NoRoute { .. }
        ));
    }

    #[test]
    fn granular_policies_blow_up_tables() {
        let topo = HierarchyConfig::figure1().generate();
        let coarse = PolicyWorkload::granularity(1, 3).generate(&topo);
        let fine = PolicyWorkload::granularity(5, 3).generate(&topo);
        let e1 = converge(topo.clone(), PathVector::idrp(coarse));
        let e2 = converge(topo.clone(), PathVector::idrp(fine));
        let rib1: usize = topo.ad_ids().map(|a| e1.router(a).loc_rib.len()).sum();
        let rib2: usize = topo.ad_ids().map(|a| e2.router(a).loc_rib.len()).sum();
        assert!(
            rib2 > rib1,
            "finer policy should enlarge RIBs: {rib1} vs {rib2}"
        );
    }

    #[test]
    fn reconverges_after_failure() {
        let topo = ring(5);
        let db = PolicyDb::permissive(&topo);
        let mut e = converge(topo, PathVector::idrp(db));
        let l = e.topo().link_between(AdId(0), AdId(1)).unwrap();
        let t = e.now().plus_us(1000);
        e.schedule_link_change(l, false, t);
        e.run_to_quiescence();
        let topo = e.topo().clone();
        let out = forward(&mut e, &topo, &FlowSpec::best_effort(AdId(0), AdId(1)));
        let ForwardOutcome::Delivered { path } = &out else {
            panic!("{out:?}")
        };
        assert_eq!(path.len(), 5, "must take the long way: {path:?}");
    }

    #[test]
    fn deterministic() {
        let run = || {
            let topo = ring(6);
            let db = PolicyDb::permissive(&topo);
            let mut e = Engine::new(topo, PathVector::idrp(db));
            let t = e.run_to_quiescence();
            (t, e.stats.msgs_sent, e.stats.bytes_sent)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn offerings_conversion_cases() {
        let dst = AdId(9);
        let (prev, next) = (AdId(1), AdId(2));
        let noon = TimeOfDay::NOON;
        let scopes = &mut Scopes::default();
        let deny_all = TransitPolicy::deny_all(AdId(5));
        // permit_all => one catch-all offering.
        let p = TransitPolicy::permit_all(AdId(5));
        let offs = offerings(&p, dst, prev, next, noon, scopes);
        assert_eq!(offs.len(), 1);
        assert_eq!(*offs[0].scope, AdSet::Any);
        // deny_all => none.
        assert!(offerings(&deny_all, dst, prev, next, noon, scopes).is_empty());
        // deny(src {3}) then default permit => catch-all minus {3}.
        let mut p = TransitPolicy::permit_all(AdId(5));
        p.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(3)]))],
            PolicyAction::Deny,
        );
        let offs = offerings(&p, dst, prev, next, noon, scopes);
        assert_eq!(offs.len(), 1);
        assert!(!offs[0].scope.contains(AdId(3)));
        assert!(offs[0].scope.contains(AdId(4)));
        // PrevIn gating: a term for a different prev is skipped.
        let mut p = TransitPolicy::deny_all(AdId(5));
        p.push_term(
            vec![PolicyCondition::PrevIn(AdSet::only([AdId(7)]))],
            PolicyAction::Permit { cost: 0 },
        );
        assert!(offerings(&p, dst, prev, next, noon, scopes).is_empty());
        p.push_term(
            vec![PolicyCondition::PrevIn(AdSet::only([prev]))],
            PolicyAction::Permit { cost: 2 },
        );
        let offs = offerings(&p, dst, prev, next, noon, scopes);
        assert_eq!(offs.len(), 1);
        assert_eq!(offs[0].cost, 2);
        // Unconditional deny stops processing.
        let mut p = TransitPolicy::permit_all(AdId(5));
        p.push_term(vec![], PolicyAction::Deny);
        p.push_term(vec![], PolicyAction::Permit { cost: 0 });
        assert!(offerings(&p, dst, prev, next, noon, scopes).is_empty());
        // Deny Except({4}) leaves only source 4.
        let mut p = TransitPolicy::permit_all(AdId(5));
        p.push_term(
            vec![PolicyCondition::SrcIn(AdSet::except([AdId(4)]))],
            PolicyAction::Deny,
        );
        let offs = offerings(&p, dst, prev, next, noon, scopes);
        assert_eq!(offs.len(), 1);
        assert_eq!(*offs[0].scope, AdSet::only([AdId(4)]));
    }

    /// IDRP converged on the Figure-1 internet under the default policy mix.
    fn converged_figure1() -> Engine<PathVector> {
        let topo = HierarchyConfig::figure1().generate();
        let db = PolicyWorkload::default_mix(7).generate(&topo);
        converge(topo, PathVector::idrp(db))
    }

    /// Every `(router, adjacency slot, neighbor)` of a topology.
    fn adjacencies(topo: &Topology) -> Vec<(AdId, usize, AdId)> {
        let slots = |ad| topo.all_neighbors(ad).enumerate();
        topo.ad_ids()
            .flat_map(|ad| slots(ad).map(move |(slot, (nbr, _))| (ad, slot, nbr)))
            .collect()
    }

    #[test]
    fn identical_table_dirties_nothing_and_sends_nothing() {
        let mut e = converged_figure1();
        let topo = e.topo().clone();
        // Each router re-imports the update its neighbor last sent it.
        for (to, slot, from) in adjacencies(&topo) {
            let sender = e.router(from);
            let last = sender.adj_out[topo.neighbor_slot(from, to).unwrap()].as_ref();
            let mut routes = vec![sender.own.clone()];
            routes.extend_from_slice(last.expect("converged: an update was sent"));
            let mut r = e.router(to).clone();
            let before = r.adj_in[slot].clone();
            assert_eq!(r.import(slot, from, PvUpdate { routes }), vec![]);
            assert_eq!(r.adj_in[slot], before);
        }
        // End to end: an up link reported up again makes both ends send
        // every neighbor the table it already holds. Nobody re-selects
        // into a new RIB, nobody passes anything on.
        let ribs = |e: &Engine<PathVector>| -> Vec<*const PvRoute> {
            topo.ad_ids()
                .map(|a| e.router(a).loc_rib.as_ptr())
                .collect()
        };
        let (rib_before, sent_before) = (ribs(&e), e.stats.msgs_sent);
        let link = topo.link(LinkId(0));
        let at = e.now().plus_us(1000);
        e.schedule_link_change(LinkId(0), true, at);
        e.run_to_quiescence();
        let resent = topo.degree(link.a) + topo.degree(link.b);
        assert_eq!(e.stats.msgs_sent - sent_before, resent as u64);
        assert_eq!(ribs(&e), rib_before);
    }

    #[test]
    fn neighbor_going_down_dirties_exactly_what_it_offered() {
        let e = converged_figure1();
        for (ad, slot, nbr) in adjacencies(e.topo()) {
            let mut r = e.router(ad).clone();
            let table = r.adj_in[slot]
                .clone()
                .expect("converged: a table was heard");
            let mut offered: Vec<AdId> = table.iter().map(|route| route.dest).collect();
            offered.dedup();
            assert!(offered.contains(&nbr), "{nbr} offers at least itself");
            assert_eq!(r.link_changed(slot, false), offered);
            assert!(r.adj_in[slot].is_none() && r.adj_out[slot].is_none());
            // Re-selecting just those over the remaining neighbors leaves
            // no route through the lost one, and touches no other group.
            let up: Vec<(usize, u32)> = (0..r.adj_in.len())
                .filter(|&s| s != slot)
                .map(|s| (s, 1))
                .collect();
            r.reselect(&up, &offered);
            assert!(r.loc_rib.iter().all(|route| route.path[0] != nbr));
            assert!(r.unsent.iter().all(|dest| offered.contains(dest)));
        }
    }

    #[test]
    fn one_changed_group_rederives_one_slice_per_neighbor() {
        let e = converged_figure1();
        let pv = e.protocol();
        let size = |update: &PvUpdate| pv.msg_size(update);
        let mut checked = 0;
        for (ad, slot, nbr) in adjacencies(e.topo()) {
            let mut r = e.router(ad).clone();
            let Some(dest) = r.loc_rib.first().map(|route| route.dest) else {
                continue;
            };
            // One destination's group loses its first route.
            r.loc_rib.remove(0);
            let mut whole = r.clone();
            whole.adj_out[slot] = None;
            let rebuilt = pv.export(&mut whole, slot, nbr, &[]);
            // Every slice last sent is marked, so a re-derived one shows.
            let mut marked = r.clone();
            for route in marked.adj_out[slot].as_mut().unwrap() {
                route.cost = u32::MAX;
            }
            let partial = pv.export(&mut r, slot, nbr, &[dest]);
            assert_eq!(partial.routes, rebuilt.routes);
            assert_eq!(size(&partial), size(&rebuilt));
            let kept = pv.export(&mut marked, slot, nbr, &[dest]);
            assert_eq!(kept.routes.len(), rebuilt.routes.len());
            for (route, fresh) in kept.routes[1..].iter().zip(&rebuilt.routes[1..]) {
                if route.dest == dest {
                    assert_eq!(route, fresh, "the changed slice is derived anew");
                } else {
                    assert_eq!(
                        route.cost,
                        u32::MAX,
                        "slice to {} was re-derived",
                        route.dest
                    );
                }
            }
            checked += 1;
        }
        assert!(checked > 0);
    }
}

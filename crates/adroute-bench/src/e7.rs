//! **E7** (paper §6, first bullet) — route synthesis strategies.
//!
//! "Precomputation of all policy routes in a large internet is
//! computationally intractable, while on demand computation may introduce
//! excessive latency at setup time. Consequently, a combination of
//! precomputation and on-demand computation should be used … Simulation of
//! route synthesis for realistic internets should be conducted to explore
//! tradeoffs in synthesis strategies." This is that simulation.
//!
//! A Zipf-like request stream (some destinations popular, a long tail)
//! drives each strategy; [`strategies`] reports search work, setup-time
//! search rate (the latency proxy), memory, and the refresh cost after a
//! policy change. [`view_maintenance`] is E7b.

use std::collections::BTreeMap;

use adroute_core::{OrwgNetwork, Strategy, SynthStats, ViewMaintenance};
use adroute_policy::workload::PolicyWorkload;
use adroute_policy::{FlowSpec, TransitPolicy};
use adroute_topology::{analysis, AdId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::internet;

/// A skewed request stream: 70% of requests to 10% of destinations.
fn request_stream(topo: &Topology, count: usize, seed: u64) -> Vec<FlowSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = topo.num_ads() as u32;
    let hot: Vec<u32> = (0..n).filter(|x| x % 10 == 3).collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let src = rng.gen_range(0..n);
        let dst = if rng.gen_bool(0.7) && !hot.is_empty() {
            hot[rng.gen_range(0..hot.len())]
        } else {
            rng.gen_range(0..n)
        };
        if src != dst {
            out.push(FlowSpec::best_effort(AdId(src), AdId(dst)));
        }
    }
    out
}

/// One synthesis strategy's bill for the request stream and for one
/// policy change after it.
#[derive(Clone, Copy, Debug)]
pub struct StrategyRow {
    /// The strategy.
    pub strategy: &'static str,
    /// Requests in the stream.
    pub requests: usize,
    /// The Route Servers' counters after the stream: setup-time
    /// `searches` and the states they `settled`, `precomputed_hits`,
    /// `cache_hits`.
    pub served: SynthStats,
    /// Routes held (precomputed + cached) after the stream.
    pub routes_stored: usize,
    /// Stored routes the policy change invalidated.
    pub invalidated: u64,
    /// Background searches the policy change triggered.
    pub refresh_searches: u64,
}

impl StrategyRow {
    /// Fraction of requests that ran a full policy-constrained search at
    /// setup time — the latency proxy.
    pub fn search_rate(&self) -> f64 {
        self.served.searches as f64 / self.requests as f64
    }
}

/// E7: `requests` skewed requests against each strategy on
/// `internet(approx_ads, seed)`, then one transit AD turns deny-all.
pub fn strategies(approx_ads: usize, seed: u64, requests: usize) -> Vec<StrategyRow> {
    let topo = internet(approx_ads, seed);
    let db = PolicyWorkload::default_mix(seed).generate(&topo);
    let stream = request_stream(&topo, requests, seed);
    let row = |name: &'static str, strategy: Strategy| {
        let precompute = matches!(strategy, Strategy::Hybrid { .. });
        let mut net = OrwgNetwork::converged_with(&topo, &db, strategy, 65536);
        if precompute {
            // Each AD precomputes its own flows to the hot destinations.
            let mut per_src: BTreeMap<AdId, Vec<FlowSpec>> = BTreeMap::new();
            for f in &stream {
                if f.dst.0 % 10 == 3 {
                    per_src.entry(f.src).or_default().push(*f);
                }
            }
            for (src, mut flows) in per_src {
                flows.sort_by_key(|f| (f.dst, f.qos, f.uci));
                flows.dedup();
                net.server_mut(src).precompute(&flows);
            }
        }
        for f in &stream {
            let _ = net.policy_route(f);
        }
        let served = net.aggregate_synth_stats();
        let routes_stored = topo
            .ad_ids()
            .map(|a| net.server(a).precomputed_len() + net.server(a).cached_len())
            .sum();
        // Staleness: change one transit AD's policy, count refresh work.
        // Setup-time searches never move here — the refresh bill is paid
        // by the background precompute counters plus the invalidations
        // that deferred work to the next request.
        let victim = topo.ads().find(|a| a.role.offers_transit()).unwrap().id;
        net.change_policy(TransitPolicy::deny_all(victim));
        let changed = net.aggregate_synth_stats();
        StrategyRow {
            strategy: name,
            requests: stream.len(),
            served,
            routes_stored,
            invalidated: changed.entries_invalidated - served.entries_invalidated,
            refresh_searches: changed.precompute_searches - served.precompute_searches,
        }
    };
    vec![
        row("on-demand", Strategy::OnDemand),
        row("LRU cache 64", Strategy::Cached { capacity: 64 }),
        row("LRU cache 1024", Strategy::Cached { capacity: 1024 }),
        row("hybrid (pre+LRU 64)", Strategy::Hybrid { capacity: 64 }),
    ]
}

/// What one view-maintenance mode pays for a single trunk failure under a
/// warm cache.
#[derive(Clone, Copy, Debug)]
pub struct MaintenanceRow {
    /// The mode.
    pub mode: ViewMaintenance,
    /// Routes cached before the failure.
    pub routes_stored: usize,
    /// Stored routes the failure invalidated.
    pub invalidated: u64,
    /// Stored routes re-checked in place.
    pub revalidations: u64,
    /// Of those, kept at unchanged cost.
    pub kept: u64,
    /// Searches the same request wave costs after the failure.
    pub rerequest_searches: u64,
}

/// E7b: the view-maintenance trade-off at scale. One trunk link (two
/// well-connected transit ADs: plenty of cached routes cross it) fails on
/// `topo` under structural policies after `requests` warming requests; the
/// incremental path invalidates only the stored routes that crossed it,
/// while the flush oracle drops everything and pays the whole synthesis
/// bill again on the next request wave. One row per mode, incremental
/// first. `around_failure` is handed the `fail_link` call to run — so a
/// bench can put a stopwatch around it; wall time never enters a row.
pub fn view_maintenance(
    topo: &Topology,
    seed: u64,
    requests: usize,
    mut around_failure: impl FnMut(&mut dyn FnMut()),
) -> Vec<MaintenanceRow> {
    let db = PolicyWorkload::structural(seed).generate(topo);
    let stream = request_stream(topo, requests, seed);
    let cut = analysis::trunk(topo).expect("a generated internet has links");
    let mut row = |mode: ViewMaintenance| {
        let mut net =
            OrwgNetwork::converged_with(topo, &db, Strategy::Cached { capacity: 8192 }, 65536);
        net.set_view_maintenance(mode);
        for f in &stream {
            let _ = net.policy_route(f);
        }
        let routes_stored = topo.ad_ids().map(|a| net.server(a).cached_len()).sum();
        let base = net.aggregate_synth_stats();
        around_failure(&mut || net.fail_link(cut));
        let agg = net.aggregate_synth_stats();
        let before_searches = net.total_searches();
        for f in &stream {
            let _ = net.policy_route(f);
        }
        MaintenanceRow {
            mode,
            routes_stored,
            invalidated: agg.entries_invalidated - base.entries_invalidated,
            revalidations: agg.revalidations - base.revalidations,
            kept: agg.revalidate_hits - base.revalidate_hits,
            rerequest_searches: net.total_searches() - before_searches,
        }
    };
    vec![
        row(ViewMaintenance::Incremental),
        row(ViewMaintenance::Flush),
    ]
}

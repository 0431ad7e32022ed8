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
//! drives each strategy; we report search work, setup-time search rate
//! (the latency proxy), memory, and the refresh cost after a policy
//! change.

use adroute_bench::{internet, pct, Table};
use adroute_core::{OrwgNetwork, Strategy, ViewMaintenance};
use adroute_policy::workload::PolicyWorkload;
use adroute_policy::{FlowSpec, TransitPolicy};
use adroute_topology::{analysis, AdId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A skewed request stream: 70% of requests to 10% of destinations.
fn request_stream(topo: &adroute_topology::Topology, count: usize, seed: u64) -> Vec<FlowSpec> {
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

fn main() {
    let topo = internet(150, 17);
    let db = PolicyWorkload::default_mix(17).generate(&topo);
    let stream = request_stream(&topo, 2000, 17);

    // Popular classes each source would precompute: flows it actually
    // originates toward hot destinations.
    let strategies: Vec<(&str, Strategy, bool)> = vec![
        ("on-demand", Strategy::OnDemand, false),
        ("LRU cache 64", Strategy::Cached { capacity: 64 }, false),
        ("LRU cache 1024", Strategy::Cached { capacity: 1024 }, false),
        (
            "hybrid (pre+LRU 64)",
            Strategy::Hybrid { capacity: 64 },
            true,
        ),
    ];

    let mut t = Table::new(
        "E7: synthesis strategy trade-offs (150 ADs, 2000 skewed requests)",
        &[
            "strategy",
            "searches",
            "states settled",
            "search@request",
            "precomp hits",
            "cache hits",
            "routes stored",
            "invalidated@change",
            "refresh searches",
        ],
    );

    for (name, strategy, precompute) in strategies {
        let mut net = OrwgNetwork::converged_with(&topo, &db, strategy, 65536);
        if precompute {
            // Each AD precomputes its own flows to the hot destinations.
            let mut per_src: std::collections::BTreeMap<AdId, Vec<FlowSpec>> = Default::default();
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
        let baseline_searches = net.total_searches();
        for f in &stream {
            let _ = net.policy_route(f);
        }
        let searches = net.total_searches() - baseline_searches;
        let settled: u64 = topo.ad_ids().map(|a| net.server(a).stats.settled).sum();
        let pre_hits: u64 = topo
            .ad_ids()
            .map(|a| net.server(a).stats.precomputed_hits)
            .sum();
        let cache_hits: u64 = topo.ad_ids().map(|a| net.server(a).stats.cache_hits).sum();
        let stored: usize = topo
            .ad_ids()
            .map(|a| net.server(a).precomputed_len() + net.server(a).cached_len())
            .sum();
        // Staleness: change one transit AD's policy, count refresh work.
        // Setup-time searches never move here — the refresh bill is paid
        // by the background precompute counters plus the invalidations
        // that deferred work to the next request.
        let before_pre = net.total_precompute_searches();
        let before_inv = net.aggregate_synth_stats().entries_invalidated;
        let victim = topo.ads().find(|a| a.role.offers_transit()).unwrap().id;
        net.change_policy(TransitPolicy::deny_all(victim));
        let agg = net.aggregate_synth_stats();
        let refresh = net.total_precompute_searches() - before_pre;
        let invalidated = agg.entries_invalidated - before_inv;
        t.row(&[
            &name,
            &searches,
            &settled,
            &pct(searches as f64 / stream.len() as f64),
            &pre_hits,
            &cache_hits,
            &stored,
            &invalidated,
            &refresh,
        ]);
    }
    t.print();
    println!(
        "\nReading: 'search@request' is the fraction of requests that had to run a \
         full policy-constrained search at setup time (the latency proxy). Pure \
         on-demand pays it always; big caches pay it only on cold classes; the \
         hybrid answers hot classes from precomputation but pays an up-front and \
         per-policy-change refresh bill (background searches, never setup-time \
         ones) — precisely the trade-off the paper asks simulations to explore."
    );

    incremental_vs_flush();
}

/// E7b: the view-maintenance trade-off at scale. One link fails on a
/// large internet; the incremental path invalidates only the stored
/// routes that crossed it, while the flush oracle drops everything and
/// pays the whole synthesis bill again on the next request wave.
fn incremental_vs_flush() {
    let big = internet(700, 23);
    assert!(big.num_ads() >= 500, "E7b needs a large internet");
    let db = PolicyWorkload::structural(23).generate(&big);
    let stream = request_stream(&big, 4000, 23);
    // A trunk link between two well-connected transit ADs: high fan-in on
    // both sides means plenty of cached routes actually cross it.
    let cut = analysis::trunk(&big).expect("a generated internet has links");

    let mut t = Table::new(
        &format!(
            "E7b: single link failure, incremental vs flush view maintenance \
             ({} ADs, {} links, cache-warm from 4000 requests)",
            big.num_ads(),
            big.num_links()
        ),
        &[
            "view maintenance",
            "routes stored",
            "invalidated",
            "revalidations",
            "kept in place",
            "re-request searches",
            "fail_link time",
        ],
    );
    for (name, mode) in [
        ("incremental", ViewMaintenance::Incremental),
        ("flush (oracle)", ViewMaintenance::Flush),
    ] {
        let mut net =
            OrwgNetwork::converged_with(&big, &db, Strategy::Cached { capacity: 8192 }, 65536);
        net.set_view_maintenance(mode);
        for f in &stream {
            let _ = net.policy_route(f);
        }
        let stored: usize = big.ad_ids().map(|a| net.server(a).cached_len()).sum();
        let base = net.aggregate_synth_stats();
        let t0 = std::time::Instant::now();
        net.fail_link(cut);
        let fail_time = t0.elapsed();
        let agg = net.aggregate_synth_stats();
        let before_searches = net.total_searches();
        for f in &stream {
            let _ = net.policy_route(f);
        }
        let re_searches = net.total_searches() - before_searches;
        t.row(&[
            &name,
            &stored,
            &(agg.entries_invalidated - base.entries_invalidated),
            &(agg.revalidations - base.revalidations),
            &(agg.revalidate_hits - base.revalidate_hits),
            &re_searches,
            &format!("{fail_time:.2?}"),
        ]);
    }
    t.print();
    println!(
        "\nReading: both modes answer every request identically (the flush path is \
         the behavioral oracle), but the incremental path touches only the entries \
         whose route crossed the failed link — 'revalidations' re-checked a stored \
         route in place and 'kept in place' of those survived at unchanged cost, so \
         the re-request wave repays only what was actually lost."
    );
}

//! **E5** (paper §5.3) — the transit burden of link-state hop-by-hop
//! routing, versus source routing.
//!
//! "An AD potentially must compute a separate spanning tree for each
//! potential source of traffic. Hence, the replicated nature of this
//! computation may become an excessive burden for transit ADs." The same
//! flow set goes through both architectures; at every AD we count
//! policy-constrained route computations and per-class FIB state. Under
//! ORWG, "since the source specifies the next-AD hop, independent route
//! computations by transit ADs are not required" — transit ADs only
//! validate setups.

use std::collections::BTreeSet;

use adroute_core::{OrwgNetwork, Strategy};
use adroute_protocols::forwarding::{forward, sample_flows};
use adroute_protocols::ls_hbh::LsHbh;

use crate::{converged, World};

/// Route-computation work for one number of distinct traffic classes.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Distinct traffic classes (flows) routed.
    pub classes: usize,
    /// LS-HBH route computations, summed over ADs.
    pub ls_computations: u64,
    /// LS-HBH route computations at the busiest AD.
    pub ls_max_per_ad: u64,
    /// LS-HBH per-class FIB entries, summed over ADs.
    pub ls_fib_entries: usize,
    /// ORWG searches at the flows' source ADs.
    pub orwg_src_searches: u64,
    /// ORWG searches anywhere else.
    pub orwg_transit_searches: u64,
    /// ORWG setup validations at Policy Gateways.
    pub orwg_validations: u64,
}

/// One row per class count on `World::mixed(approx_ads, seed, _)`.
pub fn rows(approx_ads: usize, seed: u64, class_counts: &[usize]) -> Vec<Row> {
    let World { topo, db, .. } = World::mixed(approx_ads, seed, 0);
    let row = |classes: usize| {
        let flows = sample_flows(&topo, classes, seed);

        let mut ls = converged(&topo, LsHbh::new(&topo, db.clone()));
        for f in &flows {
            let _ = forward(&mut ls, &topo, f);
        }
        let comp: Vec<u64> = topo
            .ad_ids()
            .map(|a| ls.router(a).route_computations)
            .collect();

        let mut net =
            OrwgNetwork::converged_with(&topo, &db, Strategy::Cached { capacity: 4096 }, 65536);
        let mut orwg_validations = 0u64;
        for f in &flows {
            if let Ok(setup) = net.open(f) {
                orwg_validations += setup.validations as u64;
            }
        }
        let sources: BTreeSet<_> = flows.iter().map(|f| f.src).collect();
        let orwg_src_searches: u64 = sources.iter().map(|&a| net.server(a).stats.searches).sum();
        Row {
            classes,
            ls_computations: comp.iter().sum(),
            ls_max_per_ad: *comp.iter().max().unwrap(),
            ls_fib_entries: topo.ad_ids().map(|a| ls.router(a).fib_entries()).sum(),
            orwg_src_searches,
            orwg_transit_searches: net.total_searches() - orwg_src_searches,
            orwg_validations,
        }
    };
    class_counts.iter().map(|&c| row(c)).collect()
}

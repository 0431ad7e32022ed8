//! **E4** (paper §5.2/§5.2.1) — path-vector table blowup under
//! fine-grained policy.
//!
//! "This effectively replicates the routing table per forwarding entity
//! for each QOS, UCI, source combination … this approach does not scale
//! well as policies become more fine grained." IDRP's RIB sizes and
//! control-plane bytes per workload granularity and per setting of the
//! paper's mitigation knob (how many routes per destination an AD may
//! advertise).

use adroute_policy::workload::PolicyWorkload;
use adroute_protocols::path_vector::PathVector;

use crate::{converged, internet};

/// Converged IDRP state and control load at one (granularity, budget).
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Policy workload granularity.
    pub granularity: u8,
    /// Advertisement budget: max routes per destination.
    pub max_routes: usize,
    /// Mean Loc-RIB routes per AD.
    pub mean_rib: f64,
    /// Largest Loc-RIB.
    pub max_rib: usize,
    /// Mean Adj-RIB-In routes per AD.
    pub mean_adj_rib: f64,
    /// Control messages to convergence.
    pub msgs: u64,
    /// Control bytes to convergence.
    pub bytes: u64,
}

/// One IDRP convergence per `(granularity, max_routes)` on
/// `internet(approx_ads, 11)`.
pub fn rows(approx_ads: usize, settings: &[(u8, usize)]) -> Vec<Row> {
    let topo = internet(approx_ads, 11);
    let run = |granularity: u8, max_routes: usize| {
        let db = PolicyWorkload::granularity(granularity.max(1), 11).generate(&topo);
        let mut pv = PathVector::idrp(db);
        pv.max_routes_per_dest = max_routes;
        let e = converged(&topo, pv);
        let rib: Vec<usize> = topo.ad_ids().map(|a| e.router(a).loc_rib.len()).collect();
        let adj: usize = topo.ad_ids().map(|a| e.router(a).adj_rib_size()).sum();
        Row {
            granularity,
            max_routes,
            mean_rib: rib.iter().sum::<usize>() as f64 / rib.len() as f64,
            max_rib: *rib.iter().max().unwrap(),
            mean_adj_rib: adj as f64 / rib.len() as f64,
            msgs: e.stats.msgs_sent,
            bytes: e.stats.bytes_sent,
        }
    };
    settings.iter().map(|&(g, k)| run(g, k)).collect()
}

//! **E9** (paper §3) — QOS-route scaling: repeated per-class computation
//! vs policy-term synthesis.
//!
//! "In OSPF and IS-IS … the basic route computation is repeated for each
//! QOS. These mechanisms support only a limited number of Qualities of
//! Service; they are not scalable either to a large number of QOS or to
//! source specific policies." Per number of provisioned QOS classes:
//! (i) ECMA's per-QOS FIB replication and update growth (the IGP-style
//! mechanism), (ii) LS-HBH per-class computations, and (iii) ORWG
//! synthesis, which only ever computes the classes actually used.

use adroute_core::{OrwgNetwork, Strategy};
use adroute_policy::QosClass;
use adroute_protocols::ecma::Ecma;
use adroute_protocols::forwarding::forward;
use adroute_protocols::ls_hbh::LsHbh;

use crate::{converged, World};

/// Routing work with `classes` QOS classes provisioned.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Provisioned QOS classes.
    pub classes: u8,
    /// ECMA FIB entries per AD (destinations × classes).
    pub ecma_fib_per_ad: usize,
    /// ECMA control bytes to convergence.
    pub ecma_bytes: u64,
    /// LS-HBH route computations for the traffic.
    pub ls_computations: u64,
    /// ORWG searches for the traffic.
    pub orwg_searches: u64,
}

/// One row per provisioned class count on `World::mixed(approx_ads, seed,
/// flows)`. The traffic uses only 3 distinct classes however many the
/// network provisions — the gap the paper points at.
pub fn rows(approx_ads: usize, seed: u64, flows: usize, provisioned: &[u8]) -> Vec<Row> {
    let World { topo, db, flows } = World::mixed(approx_ads, seed, flows);
    let flows: Vec<_> = flows
        .into_iter()
        .enumerate()
        .map(|(i, f)| f.with_qos(QosClass((i % 3) as u8)))
        .collect();
    let row = |q: u8| {
        // ECMA with q provisioned classes (80% support probability).
        let ecma = converged(&topo, Ecma::hierarchical_with_qos(&topo, q, 0.8, seed));

        // LS-HBH: computations per distinct class actually seen.
        let mut ls = converged(&topo, LsHbh::new(&topo, db.clone()));
        for f in &flows {
            let _ = forward(&mut ls, &topo, f);
        }

        // ORWG: synthesis only for requested classes.
        let mut net =
            OrwgNetwork::converged_with(&topo, &db, Strategy::Cached { capacity: 4096 }, 65536);
        for f in &flows {
            let _ = net.open(f);
        }
        Row {
            classes: q,
            ecma_fib_per_ad: topo.num_ads() * q as usize,
            ecma_bytes: ecma.stats.bytes_sent,
            ls_computations: topo.ad_ids().map(|a| ls.router(a).route_computations).sum(),
            orwg_searches: net.total_searches(),
        }
    };
    provisioned.iter().map(|&q| row(q)).collect()
}

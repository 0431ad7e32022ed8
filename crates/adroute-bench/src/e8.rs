//! **E8** (paper §2.2) — control-plane scaling across the design space.
//!
//! The paper sizes the target internet at 10^5 ADs with 10^4 transit ADs
//! and demands protocols that "work efficiently for the general
//! hierarchical case". Per internet size and architecture: messages and
//! bytes to initial convergence, convergence time, and the incremental
//! cost of one link failure. Shapes to check: DV-family *bytes* grow
//! superlinearly (each update carries O(n) entries); flooding sends more
//! but smaller messages; a failure is a local event for link state (two
//! re-originated LSAs) but a global recomputation wave for the DV family.

use adroute_policy::workload::PolicyWorkload;
use adroute_protocols::ecma::Ecma;
use adroute_protocols::ls_hbh::LsHbh;
use adroute_protocols::naive_dv::NaiveDv;
use adroute_protocols::path_vector::PathVector;
use adroute_sim::Protocol;
use adroute_topology::Topology;

use crate::{failure_response, internet, FailureResponse};

/// The IDRP run that exhausted the byte budget, ending its sweep.
#[derive(Clone, Copy, Debug)]
pub struct OverBudget {
    /// Size of the last internet IDRP ran on.
    pub ads: usize,
    /// Bytes that run moved (convergence plus the failure response).
    pub bytes: u64,
}

/// One architecture at one internet size.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// ADs in the internet.
    pub ads: usize,
    /// The architecture.
    pub arch: &'static str,
    /// Its convergence and failure-response bill, or why it was not run.
    pub run: Result<FailureResponse, OverBudget>,
}

/// `proto`'s bill on `topo` when the first link of the highest-degree AD
/// fails: a meaningful event.
fn run<P: Protocol>(topo: &Topology, proto: P) -> FailureResponse {
    failure_response(topo, proto, |t| {
        let hub = t.ad_ids().max_by_key(|&a| t.degree(a));
        let link = hub.and_then(|a| t.neighbors(a).next().map(|(_, l)| l));
        vec![link.expect("non-empty topology")]
    })
}

/// Four rows per size of `internet(scale, 23)`. The path-vector
/// full-table state is O(dests × classes × path) per neighbor — the
/// paper's scaling objection made concrete — so IDRP's sweep ends after
/// the first size at which one run moves more than `idrp_byte_budget`
/// bytes: every larger size reports that run instead of repeating it
/// several-fold.
pub fn rows(scales: &[usize], idrp_byte_budget: u64) -> Vec<Row> {
    let mut out = Vec::new();
    let mut idrp_stopped = None;
    for &scale in scales {
        let topo = internet(scale, 23);
        let db = PolicyWorkload::default_mix(23).generate(&topo);
        let ads = topo.num_ads();
        let idrp = match idrp_stopped {
            Some(stop) => Err(stop),
            None => {
                let r = run(&topo, PathVector::idrp(db.clone()));
                let bytes = r.bytes + r.fail_bytes;
                if bytes > idrp_byte_budget {
                    idrp_stopped = Some(OverBudget { ads, bytes });
                }
                Ok(r)
            }
        };
        out.extend(
            [
                ("naive DV", Ok(run(&topo, NaiveDv::default()))),
                ("ECMA", Ok(run(&topo, Ecma::hierarchical(&topo)))),
                ("IDRP (PV)", idrp),
                ("link state", Ok(run(&topo, LsHbh::new(&topo, db.clone())))),
            ]
            .map(|(arch, run)| Row { ads, arch, run }),
        );
    }
    out
}

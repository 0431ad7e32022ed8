//! **E3** (paper §5.1/§5.1.1) — what a single global partial ordering can
//! and cannot express.
//!
//! Claim 1: "policies of different ADs may not be mutually satisfiable …
//! there may not be a single partial ordering that simultaneously
//! expresses the policies of all ADs." [`satisfiability`] measures the
//! probability that a random mixed policy-constraint set is satisfiable by
//! one ordering, versus set size and deny-fraction; [`replication`] the
//! footnote-4 escape hatch.
//!
//! Claim 2: even when the ordering exists, ECMA misses legal routes and
//! (for policies outside the ordering's expressive range) violates them.
//! [`ecma_vs_oracle`] scores ECMA against the oracle as the policy
//! workload grows finer.

use adroute_policy::ordering::{random_constraints, solve_ordering, solve_with_replication};
use adroute_policy::workload::PolicyWorkload;
use adroute_protocols::ecma::Ecma;
use adroute_protocols::forwarding::{sample_flows, score_flows, FlowScore};

use crate::{converged, internet};

/// The deny fractions [`satisfiability`] sweeps, one column each.
pub const DENY_FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// E3(a): for each constraint count, the fraction of `trials` random
/// constraint sets one ordering satisfies, per [`DENY_FRACTIONS`] column.
pub fn satisfiability(counts: &[usize], trials: u64) -> Vec<(usize, [f64; 4])> {
    let topo = internet(100, 3);
    let cell = |count: usize, deny: f64| {
        let sat = (0..trials)
            .filter(|seed| {
                let cs = random_constraints(&topo, count, deny, seed + 1000 * count as u64);
                solve_ordering(topo.num_ads(), &cs).is_satisfiable()
            })
            .count();
        sat as f64 / trials as f64
    };
    counts
        .iter()
        .map(|&count| (count, DENY_FRACTIONS.map(|deny| cell(count, deny))))
        .collect()
}

/// E3(c), the paper's footnote-4 escape hatch — logical cluster
/// replication widens expressiveness at the price of extra network
/// addresses: per clusters/AD `k`, `(k, satisfiable fraction, mean
/// addresses used)` over 80 constraints at deny = 75%.
pub fn replication(clusters: &[usize], trials: u64) -> Vec<(usize, f64, usize)> {
    let topo = internet(100, 3);
    let row = |k: usize| {
        let mut sat = 0;
        let mut addr_sum = 0usize;
        for seed in 0..trials {
            let cs = random_constraints(&topo, 80, 0.75, 9000 + seed);
            let (ok, nodes) = solve_with_replication(topo.num_ads(), &cs, k);
            sat += ok as u64;
            addr_sum += nodes;
        }
        (k, sat as f64 / trials as f64, addr_sum / trials as usize)
    };
    clusters.iter().map(|&k| row(k)).collect()
}

/// E3(b): converged ECMA scored per policy granularity; `0` is the
/// structural workload (exactly what the ordering can express).
pub fn ecma_vs_oracle(
    approx_ads: usize,
    flows: usize,
    granularities: &[u8],
) -> Vec<(u8, FlowScore)> {
    let topo = internet(approx_ads, 7);
    let flows = sample_flows(&topo, flows, 7);
    // ECMA never sees the policy terms: one convergence, scored against
    // each workload's ground truth.
    let mut e = converged(&topo, Ecma::hierarchical(&topo));
    let mut score = |g: u8| {
        let db = if g == 0 {
            PolicyWorkload::structural(7).generate(&topo)
        } else {
            PolicyWorkload::granularity(g, 7).generate(&topo)
        };
        score_flows(&mut e, &topo, &db, &flows)
    };
    granularities.iter().map(|&g| (g, score(g))).collect()
}

//! Input generation. The library receives only what these functions
//! return.
//!
//! **The internets are canonical; the traffic is seeded.** Every
//! workload runs on the E-series internet (`HierarchyConfig` with the
//! E-series link probabilities and [`INTERNET_SEED`]) under the E-series
//! policy mix, at the size its table row names. `--seed` draws what the
//! network's users and the weather decide: which flows exist and in what
//! order, in what order the links fail, when storm opens arrive. The internet is not drawn from `--seed` because the cost of a
//! design point varies far more between two internets of one size than
//! any regression bound (path vector: 21 ms to 301 ms across 24 seeded
//! 15-AD internets), and no number of repetitions inside one run
//! averages that out.

use adroute_policy::FlowSpec;
use adroute_topology::{AdId, HierarchyConfig, LinkId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seed of the canonical internet and policy mix (EXPERIMENTS.md's E-series).
pub const INTERNET_SEED: u64 = 23;

/// The branching of a generated hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shape {
    /// Backbone ADs.
    pub backbones: usize,
    /// Regionals under each backbone.
    pub regionals: usize,
    /// Metros under each regional.
    pub metros: usize,
    /// Campuses under each metro.
    pub campuses: usize,
}

impl Shape {
    /// The E-series shape (49 ADs per backbone) with `backbones` backbones.
    pub const fn e_series(backbones: usize) -> Shape {
        Shape {
            backbones,
            regionals: 3,
            metros: 3,
            campuses: 4,
        }
    }

    /// ADs this shape generates.
    pub const fn ads(&self) -> usize {
        self.backbones * (1 + self.regionals * (1 + self.metros * (1 + self.campuses)))
    }
}

/// The canonical internet of the given shape.
pub fn internet(shape: Shape) -> Topology {
    HierarchyConfig {
        backbones: shape.backbones,
        regionals_per_backbone: shape.regionals,
        metros_per_regional: shape.metros,
        campuses_per_metro: shape.campuses,
        lateral_prob: 0.25,
        bypass_prob: 0.1,
        multihome_prob: 0.2,
        seed: INTERNET_SEED,
    }
    .generate()
}

/// `count` best-effort flows with distinct `(src, dst)` pairs, in
/// sampling order.
///
/// # Panics
/// Panics if the internet has fewer than `count` ordered AD pairs.
pub fn distinct_flows(topo: &Topology, count: usize, seed: u64) -> Vec<FlowSpec> {
    let n = topo.num_ads();
    assert!(count <= n * (n - 1), "more flows than AD pairs");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x666c_6f77); // "flow"
    let mut taken = vec![false; n * n];
    let mut flows = Vec::with_capacity(count);
    while flows.len() < count {
        let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if s != d && !std::mem::replace(&mut taken[s * n + d], true) {
            flows.push(FlowSpec::best_effort(AdId(s as u32), AdId(d as u32)));
        }
    }
    flows
}

/// `count` links to fail: every `stride`-th link id, in an order the seed
/// shuffles. Link ids follow construction order (backbone mesh, each
/// backbone's tree depth-first, then lateral, bypass and multi-homing
/// links), so the set spreads over trunk, leaf and lateral links. The
/// *set* does not depend on the seed: re-convergence cost differs by
/// orders of magnitude between a trunk and a leaf, so a handful of links
/// drawn at random makes two seeds incomparable.
///
/// # Panics
/// Panics if the internet has fewer than `count` links.
pub fn link_sample(topo: &Topology, count: usize, seed: u64) -> Vec<LinkId> {
    let n = topo.num_links();
    assert!(count <= n, "more link events than links");
    if count == 0 {
        return Vec::new();
    }
    let stride = n / count;
    let mut links: Vec<LinkId> = (0..count)
        .map(|i| LinkId((stride / 2 + i * stride) as u32))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6c69_6e6b); // "link"
    for i in (1..links.len()).rev() {
        links.swap(i, rng.gen_range(0..i + 1));
    }
    links
}

//! Topology generators.
//!
//! [`HierarchyConfig`] realizes the internet model of paper Section 2.1 /
//! Figure 1: a backbone–regional–metro–campus hierarchy augmented with
//! lateral links at every level and bypass links that skip levels. The
//! canonical graphs ([`line()`], [`ring`], [`grid`], [`clique`])
//! exist for protocol unit tests and convergence experiments.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::graph::{make_ad, Ad, Topology};
use crate::ids::{AdId, AdLevel};

/// Parameters for generating a Figure-1-style hierarchical internet.
///
/// The generated topology is always connected: every non-backbone AD gets at
/// least one hierarchical parent, and the backbone ADs form a connected
/// mesh. Lateral and bypass links are then sprinkled on top with the given
/// probabilities, and a fraction of campus ADs are multi-homed to a second
/// parent.
#[derive(Clone, Debug)]
pub struct HierarchyConfig {
    /// Number of long-haul backbone ADs (≥ 1).
    pub backbones: usize,
    /// Regional ADs attached to each backbone.
    pub regionals_per_backbone: usize,
    /// Metro ADs attached to each regional.
    pub metros_per_regional: usize,
    /// Campus ADs attached to each metro.
    pub campuses_per_metro: usize,
    /// Probability that a pair of same-level transit ADs (regional or
    /// metro) under consideration receives a lateral link.
    pub lateral_prob: f64,
    /// Probability that a campus AD receives a bypass link directly to a
    /// backbone or regional AD.
    pub bypass_prob: f64,
    /// Probability that a campus AD is multi-homed to a second metro.
    pub multihome_prob: f64,
    /// RNG seed; the same seed always yields the identical topology.
    pub seed: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            backbones: 2,
            regionals_per_backbone: 3,
            metros_per_regional: 3,
            campuses_per_metro: 4,
            lateral_prob: 0.15,
            bypass_prob: 0.05,
            multihome_prob: 0.15,
            seed: 1990,
        }
    }
}

impl HierarchyConfig {
    /// A small config roughly matching paper Figure 1 in scale.
    pub fn figure1() -> Self {
        HierarchyConfig {
            backbones: 2,
            regionals_per_backbone: 2,
            metros_per_regional: 2,
            campuses_per_metro: 2,
            lateral_prob: 0.25,
            bypass_prob: 0.15,
            multihome_prob: 0.25,
            seed: 1,
        }
    }

    /// Scales the hierarchy so the total AD count is approximately
    /// `target`, preserving the branching shape.
    pub fn with_approx_size(target: usize, seed: u64) -> Self {
        // total ≈ b * (1 + r * (1 + m * (1 + c))) with r=3, m=3, c=4:
        // per-backbone subtree = 1 + 3*(1 + 3*(1+4)) = 1 + 3*16 = 49.
        let per_backbone = 49usize;
        let backbones = (target / per_backbone).max(1);
        HierarchyConfig {
            backbones,
            seed,
            ..HierarchyConfig::default()
        }
    }

    /// The E-series experiment internet at roughly `approx_ads` ADs: denser
    /// in lateral, bypass and multi-homed links than the default mix, so
    /// most flows keep a policy-legal detour when a trunk fails.
    pub fn e_series(approx_ads: usize, seed: u64) -> Self {
        HierarchyConfig {
            lateral_prob: 0.25,
            bypass_prob: 0.1,
            multihome_prob: 0.2,
            ..HierarchyConfig::with_approx_size(approx_ads, seed)
        }
    }

    /// Generates the topology.
    pub fn generate(&self) -> Topology {
        assert!(self.backbones >= 1, "need at least one backbone");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut ads: Vec<Ad> = Vec::new();
        let mut edges: Vec<(AdId, AdId, u32)> = Vec::new();
        let mut next = 0u32;
        let mut alloc = |level: AdLevel, ads: &mut Vec<Ad>| -> AdId {
            let id = next;
            next += 1;
            ads.push(make_ad(id, level));
            AdId(id)
        };

        // Backbone mesh: ring plus random chords for redundancy.
        let backbones: Vec<AdId> = (0..self.backbones)
            .map(|_| alloc(AdLevel::Backbone, &mut ads))
            .collect();
        for i in 0..backbones.len() {
            if backbones.len() > 1 {
                let j = (i + 1) % backbones.len();
                if i < j {
                    edges.push((backbones[i], backbones[j], 1));
                } else if backbones.len() > 2 {
                    edges.push((backbones[j], backbones[i], 1));
                }
            }
        }
        if backbones.len() > 3 {
            for i in 0..backbones.len() {
                for j in (i + 2)..backbones.len() {
                    if (i, j) != (0, backbones.len() - 1) && rng.gen_bool(0.3) {
                        edges.push((backbones[i], backbones[j], 1));
                    }
                }
            }
        }

        let mut regionals: Vec<AdId> = Vec::new();
        let mut metros: Vec<AdId> = Vec::new();
        let mut campuses: Vec<AdId> = Vec::new();
        let mut metro_parent_count: Vec<(AdId, usize)> = Vec::new();

        for &bb in &backbones {
            for _ in 0..self.regionals_per_backbone {
                let r = alloc(AdLevel::Regional, &mut ads);
                edges.push((bb, r, 2));
                regionals.push(r);
                for _ in 0..self.metros_per_regional {
                    let m = alloc(AdLevel::Metro, &mut ads);
                    edges.push((r, m, 3));
                    metros.push(m);
                    metro_parent_count.push((m, 0));
                    for _ in 0..self.campuses_per_metro {
                        let c = alloc(AdLevel::Campus, &mut ads);
                        edges.push((m, c, 4));
                        campuses.push(c);
                    }
                }
            }
        }

        let mut edge_set: std::collections::HashSet<(AdId, AdId)> = edges
            .iter()
            .map(|&(a, b, _)| if a < b { (a, b) } else { (b, a) })
            .collect();
        let mut push_edge =
            |a: AdId, b: AdId, w: u32, edges: &mut Vec<(AdId, AdId, u32)>| -> bool {
                let key = if a < b { (a, b) } else { (b, a) };
                if a != b && edge_set.insert(key) {
                    edges.push((a, b, w));
                    true
                } else {
                    false
                }
            };

        // Lateral links between regionals and between metros (paper: "lateral
        // links and other forms of bypass will persist at all levels").
        for pool in [&regionals, &metros] {
            for i in 0..pool.len() {
                for j in (i + 1)..pool.len() {
                    if rng.gen_bool(self.lateral_prob / (1.0 + 0.05 * pool.len() as f64)) {
                        push_edge(pool[i], pool[j], 2, &mut edges);
                    }
                }
            }
        }

        // Campus-campus private lateral lines (rare).
        if campuses.len() >= 2 {
            let tries = (campuses.len() as f64 * self.lateral_prob * 0.3) as usize;
            for _ in 0..tries {
                let a = campuses[rng.gen_range(0..campuses.len())];
                let b = campuses[rng.gen_range(0..campuses.len())];
                push_edge(a, b, 5, &mut edges);
            }
        }

        // Bypass links: campus straight to a regional or backbone.
        for &c in &campuses {
            if rng.gen_bool(self.bypass_prob) {
                let target = if rng.gen_bool(0.5) && !regionals.is_empty() {
                    regionals[rng.gen_range(0..regionals.len())]
                } else {
                    backbones[rng.gen_range(0..backbones.len())]
                };
                push_edge(c, target, 4, &mut edges);
            }
        }

        // Multi-homing: campus to a second metro.
        if metros.len() > 1 {
            for &c in &campuses {
                if rng.gen_bool(self.multihome_prob) {
                    let m = metros[rng.gen_range(0..metros.len())];
                    push_edge(c, m, 4, &mut edges);
                }
            }
        }

        let mut topo = Topology::new(ads, &edges);
        topo.reclassify_roles();
        topo
    }
}

/// A path graph `0 - 1 - … - (n-1)`, all campus-level, unit metric.
pub fn line(n: usize) -> Topology {
    assert!(n >= 1);
    let ads = (0..n as u32).map(|i| make_ad(i, AdLevel::Campus)).collect();
    let edges: Vec<_> = (0..n as u32 - 1)
        .map(|i| (AdId(i), AdId(i + 1), 1))
        .collect();
    Topology::new(ads, &edges)
}

/// A cycle `0 - 1 - … - (n-1) - 0`, all campus-level, unit metric.
pub fn ring(n: usize) -> Topology {
    assert!(n >= 3);
    let ads = (0..n as u32).map(|i| make_ad(i, AdLevel::Campus)).collect();
    let mut edges: Vec<_> = (0..n as u32 - 1)
        .map(|i| (AdId(i), AdId(i + 1), 1))
        .collect();
    edges.push((AdId(0), AdId(n as u32 - 1), 1));
    Topology::new(ads, &edges)
}

/// An `rows × cols` grid of campus ADs, unit metric.
pub fn grid(rows: usize, cols: usize) -> Topology {
    assert!(rows >= 1 && cols >= 1);
    let n = rows * cols;
    let ads = (0..n as u32).map(|i| make_ad(i, AdLevel::Campus)).collect();
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let id = (r * cols + c) as u32;
            if c + 1 < cols {
                edges.push((AdId(id), AdId(id + 1), 1));
            }
            if r + 1 < rows {
                edges.push((AdId(id), AdId(id + cols as u32), 1));
            }
        }
    }
    Topology::new(ads, &edges)
}

/// A complete graph on `n` campus ADs, unit metric.
pub fn clique(n: usize) -> Topology {
    assert!(n >= 2);
    let ads = (0..n as u32).map(|i| make_ad(i, AdLevel::Campus)).collect();
    let mut edges = Vec::new();
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            edges.push((AdId(i), AdId(j), 1));
        }
    }
    Topology::new(ads, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::is_connected;
    use crate::ids::{AdRole, LinkKind};

    /// Total AD count `cfg` generates: per backbone, the backbone itself
    /// and its regionals, each with its metros and their campuses.
    fn total_ads(cfg: &HierarchyConfig) -> usize {
        let campuses_per_regional = cfg.metros_per_regional * cfg.campuses_per_metro;
        let per_backbone =
            1 + cfg.regionals_per_backbone * (1 + cfg.metros_per_regional + campuses_per_regional);
        cfg.backbones * per_backbone
    }

    #[test]
    fn default_hierarchy_is_connected_and_sized() {
        let cfg = HierarchyConfig::default();
        let t = cfg.generate();
        assert_eq!(t.num_ads(), total_ads(&cfg));
        assert!(is_connected(&t));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = HierarchyConfig::default();
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.num_ads(), b.num_ads());
        assert_eq!(a.num_links(), b.num_links());
        for (la, lb) in a.links().zip(b.links()) {
            assert_eq!((la.a, la.b, la.metric), (lb.a, lb.b, lb.metric));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = HierarchyConfig {
            seed: 1,
            ..Default::default()
        }
        .generate();
        let b = HierarchyConfig {
            seed: 2,
            ..Default::default()
        }
        .generate();
        // AD counts match (structure) but link sets should differ with
        // overwhelming probability.
        assert_eq!(a.num_ads(), b.num_ads());
        let ea: Vec<_> = a.links().map(|l| (l.a, l.b)).collect();
        let eb: Vec<_> = b.links().map(|l| (l.a, l.b)).collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn hierarchy_has_lateral_and_bypass_links() {
        let cfg = HierarchyConfig {
            backbones: 3,
            regionals_per_backbone: 4,
            metros_per_regional: 3,
            campuses_per_metro: 4,
            lateral_prob: 0.4,
            bypass_prob: 0.3,
            multihome_prob: 0.3,
            seed: 7,
        };
        let t = cfg.generate();
        let (h, l, b) = t.link_kind_counts();
        assert!(h > 0, "hierarchical links missing");
        assert!(l > 0, "lateral links missing");
        assert!(b > 0, "bypass links missing");
        let (_s, m, tr, _hy) = t.role_counts();
        assert!(m > 0, "no multi-homed stubs generated");
        assert!(tr > 0);
    }

    #[test]
    fn stub_classification_matches_degree() {
        let t = HierarchyConfig::default().generate();
        for ad in t.ads() {
            if ad.role == AdRole::Stub {
                assert_eq!(t.full_degree(ad.id), 1, "{} misclassified", ad.id);
            }
            if ad.role == AdRole::MultiHomedStub {
                assert!(t.full_degree(ad.id) >= 2);
            }
        }
    }

    #[test]
    fn approx_size_close_to_target() {
        for target in [50, 200, 1000] {
            let cfg = HierarchyConfig::with_approx_size(target, 3);
            let n = total_ads(&cfg);
            assert!(n >= target / 2 && n <= target * 2, "{n} vs {target}");
        }
    }

    #[test]
    fn e_series_is_the_internet_every_e_scenario_prints() {
        let t = HierarchyConfig::e_series(120, 23).generate();
        assert_eq!((t.num_ads(), t.num_links()), (98, 147));
        // The literal it replaces, as its seven copies spelled it.
        let literal = HierarchyConfig {
            lateral_prob: 0.25,
            bypass_prob: 0.1,
            multihome_prob: 0.2,
            ..HierarchyConfig::with_approx_size(120, 23)
        };
        assert_eq!(crate::io::dump(&t), crate::io::dump(&literal.generate()));
    }

    #[test]
    fn canonical_graphs() {
        assert_eq!(line(5).num_links(), 4);
        assert_eq!(ring(5).num_links(), 5);
        assert_eq!(grid(3, 4).num_links(), 3 * 3 + 2 * 4);
        assert_eq!(clique(5).num_links(), 10);
        assert!(is_connected(&grid(4, 4)));
        assert!(clique(4).links().all(|l| l.kind == LinkKind::Lateral));
    }

    #[test]
    fn figure1_config_small() {
        let t = HierarchyConfig::figure1().generate();
        assert!(t.num_ads() < 40);
        assert!(is_connected(&t));
    }
}

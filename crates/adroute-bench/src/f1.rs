//! **Figure 1** — the generator realizing the paper's "Example Internet
//! Topology" class across scales: composition by level and role,
//! link-kind mix, degree and path statistics, and the property the paper
//! leans on — hierarchies with lateral/bypass augmentation stay
//! valley-free-connected.

use adroute_topology::{algo, AdId, AdLevel, PartialOrder};

use crate::internet;

/// Structure of one generated internet.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// ADs generated.
    pub ads: usize,
    /// Inter-AD links, of which …
    pub links: usize,
    /// … (hierarchical, lateral, bypass).
    pub link_kinds: (usize, usize, usize),
    /// (single-homed stub, multi-homed stub, transit, hybrid) ADs.
    pub roles: (usize, usize, usize, usize),
    /// Mean AD degree.
    pub mean_deg: f64,
    /// Diameter approximation: max BFS eccentricity from three seeds.
    pub diam: u32,
    /// Fraction of sampled campus pairs joined by a valley-free path
    /// under the level ordering — the connectivity ECMA can use.
    pub vf_reach: f64,
}

/// One row per `(approx_ads, seed)` E-series internet.
pub fn rows(scales: &[(usize, u64)]) -> Vec<Row> {
    scales
        .iter()
        .map(|&(scale, seed)| row(scale, seed))
        .collect()
}

fn row(scale: usize, seed: u64) -> Row {
    let topo = internet(scale, seed);
    let n = topo.num_ads();
    let mut diam = 0;
    for start in [0u32, (n / 2) as u32, (n - 1) as u32] {
        let (hops, _) = algo::bfs_tree(&topo, AdId(start));
        diam = diam.max(
            hops.iter()
                .copied()
                .filter(|&x| x != u32::MAX)
                .max()
                .unwrap_or(0),
        );
    }
    // Valley-free reachability over sampled campus pairs.
    let po = PartialOrder::from_levels(&topo);
    let campuses: Vec<_> = topo
        .ads()
        .filter(|a| a.level == AdLevel::Campus)
        .map(|a| a.id)
        .collect();
    let mut ok = 0;
    let mut total = 0;
    for (i, &a) in campuses.iter().enumerate().take(12) {
        for &b in campuses.iter().skip(i + 1).take(12) {
            total += 1;
            if po.valley_free_reachable(&topo, a, b) {
                ok += 1;
            }
        }
    }
    Row {
        ads: n,
        links: topo.num_links(),
        link_kinds: topo.link_kind_counts(),
        roles: topo.role_counts(),
        mean_deg: 2.0 * topo.num_links() as f64 / n as f64,
        diam,
        vf_reach: if total == 0 {
            1.0
        } else {
            ok as f64 / total as f64
        },
    }
}

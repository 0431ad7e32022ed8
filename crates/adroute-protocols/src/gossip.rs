//! A deliberately cheap flood/gossip workload for engine benchmarking.
//!
//! The five design-point protocols all recompute routes per event —
//! O(N·E) work that measures *protocol* cost, not *engine* cost. To
//! answer "how many events per second does the discrete-event core
//! sustain at paper scale (§2.2's ~10⁵ ADs)?" we need a workload whose
//! per-event handler is a few array reads: then the measured throughput
//! is the engine's dispatch, queue, and delivery machinery itself.
//!
//! [`Gossip`] floods waves of tokens: each of `origins` seed ADs starts
//! one wave per round (rounds spaced `period_us` apart, driven by the
//! engine's timer path), and every router forwards a wave to all its
//! neighbors the first time it sees it. One wave therefore crosses every
//! up link exactly twice (once in each direction), so a run dispatches a
//! predictable `origins × rounds × 2·links` deliveries plus the timer
//! and start events — enough traffic to time, with handlers that do no
//! allocation in steady state (neighbor lists are precomputed per
//! router; duplicate suppression is one bitset probe).
//!
//! The workload is fully deterministic (no randomness, no maps).

use adroute_sim::{Ctx, Protocol};
use adroute_topology::{AdId, LinkId, Topology};

/// Flood-wave benchmark protocol: configuration shared by all routers.
#[derive(Clone, Copy, Debug)]
pub struct Gossip {
    /// Number of wave-origin ADs, spread evenly across the id space.
    pub origins: usize,
    /// Waves each origin starts, one per round.
    pub rounds: u32,
    /// Gap between an origin's consecutive rounds, in microseconds.
    pub period_us: u64,
}

impl Default for Gossip {
    fn default() -> Gossip {
        Gossip {
            origins: 4,
            rounds: 4,
            period_us: 50_000,
        }
    }
}

impl Gossip {
    /// The origin index of `ad` (origins are spread evenly over the id
    /// space), or `None` if `ad` is not an origin.
    fn origin_index(&self, num_ads: usize, ad: AdId) -> Option<u32> {
        let o = self.origins.min(num_ads).max(1);
        let stride = num_ads / o;
        let idx = ad.index();
        if idx.is_multiple_of(stride) && idx / stride < o {
            Some((idx / stride) as u32)
        } else {
            None
        }
    }

    /// Total distinct wave ids a run of this configuration floods.
    pub fn total_waves(&self) -> u32 {
        self.origins as u32 * self.rounds
    }
}

/// Per-AD state: a precomputed neighbor list and a seen-wave bitset.
#[derive(Clone, Debug)]
pub struct GossipRouter {
    /// Neighbor ids, precomputed at build time so the flood hot path
    /// never touches the adjacency (or allocates).
    nbrs: Vec<AdId>,
    /// One bit per wave id; a set bit suppresses re-flooding.
    seen: Vec<u64>,
    /// `Some(k)` if this AD is the `k`-th wave origin.
    origin: Option<u32>,
    /// Distinct waves this router has observed (origin or relay).
    pub waves_seen: u64,
}

impl GossipRouter {
    fn mark(&mut self, wave: u32) -> bool {
        let (word, bit) = (wave as usize / 64, wave as usize % 64);
        let fresh = self.seen[word] & (1 << bit) == 0;
        self.seen[word] |= 1 << bit;
        fresh
    }
}

impl Gossip {
    /// Floods `wave` to every precomputed neighbor of `r`.
    fn flood(&self, r: &mut GossipRouter, ctx: &mut Ctx<'_, u32>, wave: u32) {
        r.waves_seen += 1;
        for i in 0..r.nbrs.len() {
            ctx.send(r.nbrs[i], wave);
        }
    }
}

impl Protocol for Gossip {
    type Router = GossipRouter;
    type Msg = u32;

    fn make_router(&self, topo: &Topology, ad: AdId) -> GossipRouter {
        GossipRouter {
            nbrs: topo.neighbors(ad).map(|(n, _)| n).collect(),
            seen: vec![0; (self.total_waves() as usize).div_ceil(64).max(1)],
            origin: self.origin_index(topo.num_ads(), ad),
            waves_seen: 0,
        }
    }

    fn on_start(&self, r: &mut GossipRouter, ctx: &mut Ctx<'_, u32>) {
        let Some(k) = r.origin else { return };
        let wave = k * self.rounds;
        r.mark(wave);
        self.flood(r, ctx, wave);
        if self.rounds > 1 {
            ctx.set_timer(self.period_us, 1);
        }
    }

    fn on_message(
        &self,
        r: &mut GossipRouter,
        ctx: &mut Ctx<'_, u32>,
        _from: AdId,
        _link: LinkId,
        wave: u32,
    ) {
        if r.mark(wave) {
            self.flood(r, ctx, wave);
        }
    }

    fn on_timer(&self, r: &mut GossipRouter, ctx: &mut Ctx<'_, u32>, round: u64) {
        let Some(k) = r.origin else { return };
        let wave = k * self.rounds + round as u32;
        if r.mark(wave) {
            self.flood(r, ctx, wave);
        }
        if (round as u32) + 1 < self.rounds {
            ctx.set_timer(self.period_us, round + 1);
        }
    }

    fn msg_size(&self, _msg: &u32) -> usize {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_sim::Engine;
    use adroute_topology::HierarchyConfig;

    fn internet(seed: u64) -> Topology {
        HierarchyConfig {
            seed,
            ..HierarchyConfig::default()
        }
        .generate()
    }

    #[test]
    fn every_router_sees_every_wave() {
        let topo = internet(3);
        let n = topo.num_ads();
        let g = Gossip {
            origins: 3,
            rounds: 2,
            period_us: 10_000,
        };
        let mut e = Engine::new(topo, g);
        e.run_to_quiescence();
        for ad in 0..n {
            let r = e.router(AdId(ad as u32));
            assert_eq!(
                r.waves_seen,
                g.total_waves() as u64,
                "AD {ad} missed a wave"
            );
        }
        // One wave crosses every up link exactly twice.
        let links = e.topo().num_links() as u64;
        assert_eq!(e.stats.msgs_sent, g.total_waves() as u64 * 2 * links);
    }

    #[test]
    fn origins_are_spread_and_clamped() {
        let g = Gossip {
            origins: 4,
            rounds: 1,
            period_us: 1,
        };
        // 4 origins over 8 ADs: stride 2 → ids 0, 2, 4, 6.
        let hits: Vec<usize> = (0..8)
            .filter(|&i| g.origin_index(8, AdId(i as u32)).is_some())
            .collect();
        assert_eq!(hits, vec![0, 2, 4, 6]);
        // More origins than ADs clamps to one origin per AD.
        let g = Gossip {
            origins: 9,
            rounds: 1,
            period_us: 1,
        };
        assert!((0..3).all(|i| g.origin_index(3, AdId(i as u32)).is_some()));
    }
}

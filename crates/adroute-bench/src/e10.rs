//! **E10** (paper §5.1.1 vs §3/§4.3) — convergence after topology change.
//!
//! "If the partial ordering is computed properly … the partial ordering
//! and up-down rule prevent loops, and consequently prevent the count to
//! infinity phenomenon common to other DV algorithms." An AD is
//! partitioned on cyclic topologies; per design point, the messages and
//! time to re-stabilize. The ECMA ablation (up/down rule on = ECMA, off =
//! naive DV) and the split-horizon ablation are both here.

use adroute_policy::PolicyDb;
use adroute_protocols::ecma::Ecma;
use adroute_protocols::ls_hbh::LsHbh;
use adroute_protocols::naive_dv::NaiveDv;
use adroute_protocols::path_vector::PathVector;
use adroute_sim::Protocol;
use adroute_topology::{generate::ring, AdId, AdLevel, Topology};

use crate::{failure_response, internet, FailureResponse};

/// One design point's response to the partition.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// ADs in the topology.
    pub ads: usize,
    /// The design point.
    pub arch: &'static str,
    /// Initial convergence, then the partition response.
    pub response: FailureResponse,
}

/// Naive DV counting to `infinity`.
fn counting_dv(infinity: u32, split_horizon: bool) -> NaiveDv {
    NaiveDv {
        infinity,
        split_horizon,
        ..NaiveDv::default()
    }
}

/// One topology and the AD to cut off it.
struct Partition {
    topo: Topology,
    victim: AdId,
}

impl Partition {
    /// `proto` converged, then every link of the victim cut at once.
    fn row<P>(&self, arch: &'static str, proto: P) -> Row
    where
        P: Protocol + Sync,
        P::Router: Send,
        P::Msg: Send,
    {
        let cut = |t: &Topology| t.neighbors(self.victim).map(|(_, l)| l).collect();
        Row {
            ads: self.topo.num_ads(),
            arch,
            response: failure_response(&self.topo, proto, cut),
        }
    }
}

/// E10(a): the antipodal AD of each ring partitioned under six design
/// points (the count-to-infinity study).
pub fn rings(sizes: &[usize]) -> Vec<Row> {
    let six = |&n: &usize| {
        let (topo, victim) = (ring(n), AdId((n / 2) as u32));
        let permissive = PolicyDb::permissive(&topo);
        let p = Partition { topo, victim };
        [
            p.row("naive DV (inf=32)", counting_dv(32, false)),
            p.row("naive DV + split horizon", counting_dv(32, true)),
            p.row("naive DV (inf=128)", counting_dv(128, false)),
            p.row("ECMA up/down rule", Ecma::all_transit(&p.topo)),
            p.row("path vector (IDRP)", PathVector::idrp(permissive.clone())),
            p.row("link state", LsHbh::new(&p.topo, permissive)),
        ]
    };
    sizes.iter().flat_map(six).collect()
}

/// E10(b): the same event on a realistic internet — its first regional AD
/// partitioned under permissive policies.
pub fn regional(approx_ads: usize, seed: u64) -> Vec<Row> {
    let topo = internet(approx_ads, seed);
    let victim = topo
        .ads()
        .find(|a| a.level == AdLevel::Regional)
        .unwrap()
        .id;
    let permissive = PolicyDb::permissive(&topo);
    let p = Partition { topo, victim };
    vec![
        p.row("naive DV", counting_dv(32, false)),
        p.row("ECMA", Ecma::hierarchical(&p.topo)),
        p.row("path vector", PathVector::idrp(permissive.clone())),
        p.row("link state", LsHbh::new(&p.topo, permissive)),
    ]
}

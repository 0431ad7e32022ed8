//! **E12** (paper §2.2) — steady-state behaviour under continuous link
//! churn.
//!
//! The paper's operating regime: stable AD membership, inter-AD links
//! that fail and recover, policies that change slowly. [`control_churn`]
//! runs each control plane under a seeded MTBF/MTTR failure process and
//! measures the sustained control-message rate; [`flow_epochs`] runs
//! session traffic over the ORWG data plane across discrete failure
//! epochs and measures the collateral re-setup cost the churn imposes on
//! established policy routes.

use adroute_core::{OrwgNetwork, Strategy};
use adroute_protocols::ecma::Ecma;
use adroute_protocols::ls_hbh::LsHbh;
use adroute_protocols::naive_dv::NaiveDv;
use adroute_protocols::path_vector::PathVector;
use adroute_sim::{FailureModel, FailureSchedule, Protocol};
use adroute_topology::Topology;

use crate::{converged, World};

/// One control plane's traffic under the failure process.
#[derive(Clone, Copy, Debug)]
pub struct ChurnRow {
    /// The architecture.
    pub arch: &'static str,
    /// Link failures drawn over the horizon.
    pub link_events: usize,
    /// Control messages sent during the churn phase.
    pub msgs: u64,
    /// Control bytes sent during the churn phase.
    pub bytes: u64,
}

impl ChurnRow {
    /// Control messages per link event.
    pub fn msgs_per_event(&self) -> f64 {
        self.msgs as f64 / self.link_events.max(1) as f64
    }
}

/// An internet under one seeded link-failure process.
struct Churn {
    topo: Topology,
    model: FailureModel,
    horizon_ms: u64,
}

impl Churn {
    /// `proto` converged, then run through the failure process.
    fn row<P: Protocol>(&self, arch: &'static str, proto: P) -> ChurnRow {
        let mut e = converged(&self.topo, proto);
        let start = e.now().plus_us(1000);
        let schedule = FailureSchedule::draw(e.topo(), &self.model, start, self.horizon_ms);
        let link_events = schedule.failures();
        schedule.apply(&mut e);
        e.begin_phase("churn");
        e.run_to_quiescence();
        let churn = e.stats.phase_delta("churn").expect("phase begun above");
        ChurnRow {
            arch,
            link_events,
            msgs: churn.msgs_sent,
            bytes: churn.bytes_sent,
        }
    }
}

/// E12(a): the four control planes on `World::mixed(approx_ads, seed, _)`
/// under one seeded MTBF 300 ms / MTTR 60 ms process on 15% of the links
/// for `horizon_ms`.
pub fn control_churn(approx_ads: usize, seed: u64, horizon_ms: u64) -> Vec<ChurnRow> {
    let World { topo, db, .. } = World::mixed(approx_ads, seed, 0);
    let model = FailureModel {
        mtbf_ms: 300.0,
        mttr_ms: 60.0,
        fallible_fraction: 0.15,
        seed,
    };
    let c = Churn {
        topo,
        model,
        horizon_ms,
    };
    vec![
        c.row("naive DV", NaiveDv::default()),
        c.row("ECMA", Ecma::hierarchical(&c.topo)),
        c.row("IDRP (PV)", PathVector::idrp(db.clone())),
        c.row("link state / ORWG", LsHbh::new(&c.topo, db)),
    ]
}

/// Long-lived ORWG flows through one failure epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochRow {
    /// Epoch number; epoch 0 precedes any failure.
    pub epoch: usize,
    /// Links failed so far.
    pub failed_links: usize,
    /// Flows opened at the start.
    pub live_flows: usize,
    /// Data packets delivered this epoch.
    pub pkts: u64,
    /// Re-setups the epoch's failures forced.
    pub resetups: u64,
    /// Flows that could not be re-opened.
    pub lost: u64,
    /// Setup plus data header bytes this epoch.
    pub header_bytes: u64,
}

/// E12(b): ORWG data-plane collateral. `w.flows` are opened once (the
/// paper: "PRs may have a long lifetime") and keep sending 5 packets per
/// epoch while each later epoch fails two more links.
pub fn flow_epochs(w: &World, epochs: usize) -> Vec<EpochRow> {
    let mut net =
        OrwgNetwork::converged_with(&w.topo, &w.db, Strategy::Cached { capacity: 2048 }, 65536);
    let all_links: Vec<_> = w.topo.links().map(|l| l.id).collect();
    let flows = w.flows.iter();
    let mut live: Vec<_> = flows
        .filter_map(|f| Some((*f, net.open(f).ok()?.handle)))
        .collect();
    let mut epoch_row = |epoch: usize| {
        if epoch > 0 {
            for k in 0..2 {
                net.fail_link(all_links[(epoch * 13 + k * 29) % all_links.len()]);
            }
        }
        let mut row = EpochRow {
            epoch,
            failed_links: 2 * epoch,
            live_flows: live.len(),
            ..EpochRow::default()
        };
        for (f, h) in live.iter_mut() {
            for _ in 0..5 {
                match net.send(*h) {
                    Ok(d) => {
                        row.pkts += 1;
                        row.header_bytes += d.header_bytes as u64;
                    }
                    Err(_) => match net.open(f) {
                        Ok(s) => {
                            row.resetups += 1;
                            row.header_bytes += s.header_bytes as u64;
                            *h = s.handle;
                        }
                        Err(_) => {
                            row.lost += 1;
                            break;
                        }
                    },
                }
            }
        }
        row
    };
    (0..epochs).map(&mut epoch_row).collect()
}

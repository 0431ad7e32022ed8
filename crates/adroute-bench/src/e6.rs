//! **E6** (paper §5.4.1) — route setup vs per-packet overhead.
//!
//! "To avoid the latency of the Policy Route setup process and the
//! header-length overhead of the source route … a handle is assigned at
//! the time that the Policy Route is set up and successive data packets
//! use that handle." [`amortization`] is the amortization curve;
//! [`cache_pressure`] sweeps the gateway handle-cache capacity under many
//! concurrent flows: evictions force re-setups, the state/overhead
//! trade-off of Section 6's "policy gateway state management".

use adroute_core::network::SendError;
use adroute_core::{DataError, OrwgNetwork, Strategy};

use crate::World;

/// Mean header bytes per delivered packet at one flow length.
#[derive(Clone, Copy, Debug)]
pub struct AmortRow {
    /// Packets sent per flow.
    pub pkts: usize,
    /// Handle forwarding with its setup packet amortized in.
    pub with_setup: f64,
    /// Handle forwarding alone.
    pub handle_only: f64,
    /// The full source route carried in every packet.
    pub source_route: f64,
}

/// E6(a): `w.flows` opened on a fresh network per flow length, each sent
/// `pkts` packets both ways.
pub fn amortization(w: &World, pkts_per_flow: &[usize]) -> Vec<AmortRow> {
    let row = |pkts: usize| {
        let mut net =
            OrwgNetwork::converged_with(&w.topo, &w.db, Strategy::Cached { capacity: 4096 }, 65536);
        let mut setup_bytes = 0usize;
        let mut handle_bytes = 0usize;
        let mut sr_bytes = 0usize;
        let mut delivered = 0usize;
        for f in &w.flows {
            let Ok(setup) = net.open(f) else { continue };
            setup_bytes += setup.header_bytes;
            for _ in 0..pkts {
                let d = net.send(setup.handle).expect("established flow");
                handle_bytes += d.header_bytes;
                let s = net.send_source_routed(f).expect("same route");
                sr_bytes += s.header_bytes;
                delivered += 1;
            }
        }
        AmortRow {
            pkts,
            with_setup: (setup_bytes + handle_bytes) as f64 / delivered as f64,
            handle_only: handle_bytes as f64 / delivered as f64,
            source_route: sr_bytes as f64 / delivered as f64,
        }
    };
    pkts_per_flow.iter().map(|&p| row(p)).collect()
}

/// Re-setup overhead at one gateway handle-cache capacity.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheRow {
    /// Handles each Policy Gateway can hold.
    pub capacity: usize,
    /// Handles evicted, summed over gateways.
    pub evictions: u64,
    /// Data packets dropped on an evicted handle.
    pub drops: u64,
    /// Flows the source had to set up again.
    pub resetups: u64,
    /// Setup plus data header bytes over the whole run.
    pub header_bytes: usize,
}

/// E6(b): `w.flows` all open at once, then three interleaved send rounds
/// (LRU pressure); a dropped packet makes the source re-open.
pub fn cache_pressure(w: &World, capacities: &[usize]) -> Vec<CacheRow> {
    let row = |capacity: usize| {
        let mut net = OrwgNetwork::converged_with(
            &w.topo,
            &w.db,
            Strategy::Cached { capacity: 4096 },
            capacity,
        );
        let mut row = CacheRow {
            capacity,
            ..CacheRow::default()
        };
        let mut handles = Vec::new();
        for f in &w.flows {
            if let Ok(s) = net.open(f) {
                row.header_bytes += s.header_bytes;
                handles.push((*f, s.handle));
            }
        }
        for round in 0..3 {
            for (f, h) in handles.iter_mut() {
                match net.send(*h) {
                    Ok(d) => row.header_bytes += d.header_bytes,
                    Err(SendError::Dropped(DataError::UnknownHandle { .. })) => {
                        row.drops += 1;
                        // Source re-opens (paper: PG tables are "filled on
                        // demand"; a miss re-triggers setup).
                        if let Ok(s) = net.open(f) {
                            row.resetups += 1;
                            row.header_bytes += s.header_bytes;
                            *h = s.handle;
                        }
                    }
                    Err(e) => panic!("round {round}: {e:?}"),
                }
            }
        }
        row.evictions = w.topo.ad_ids().map(|a| net.gateway(a).evictions()).sum();
        row
    };
    capacities.iter().map(|&c| row(c)).collect()
}

//! Packet formats of the ORWG data plane and their header-size accounting.
//!
//! The design trades header bytes against state: the **setup packet**
//! carries the full policy route (the ordered AD list) plus the Policy
//! Term each transit AD is expected to honor; once validated, **data
//! packets** carry only a compact handle. Experiment E6 regenerates the
//! amortization curve: per-packet overhead of handle-based forwarding vs
//! carrying the full source route in every packet, against flow length.

use adroute_policy::{FlowSpec, PtId};
use adroute_topology::AdId;
use std::fmt;

/// A policy-route handle, allocated by the source AD at setup time and
/// used as the cache key at every Policy Gateway on the route.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HandleId(pub u64);

impl fmt::Display for HandleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{:x}", self.0)
    }
}

/// The first packet of a policy route: "carries the full policy route
/// (list of ADs) and a Policy Term from each AD that the source AD
/// believes will allow it to use this route" (paper Section 5.4.1).
#[derive(Clone, Debug)]
pub struct SetupPacket {
    /// The traffic class this route is being set up for.
    pub flow: FlowSpec,
    /// The complete AD-level source route, `src … dst`.
    pub route: Vec<AdId>,
    /// For each *transit* AD on the route (in order), the Policy Term the
    /// source claims permits the traversal (`None` = the AD's default
    /// action permits).
    pub claimed_pts: Vec<Option<PtId>>,
    /// The handle subsequent data packets will carry.
    pub handle: HandleId,
}

impl SetupPacket {
    /// Header size in bytes: flow spec (12) + handle (8) + route list +
    /// claimed PT list.
    pub(crate) fn header_size(&self) -> usize {
        12 + 8 + 4 * self.route.len() + 6 * self.claimed_pts.len()
    }
}

/// A data packet on an established policy route: handle plus source AD
/// (the per-packet validation key: "is it coming from the AD specified in
/// the cached PT setup information").
#[derive(Clone, Copy, Debug)]
pub struct DataPacket {
    /// The route handle assigned at setup.
    pub handle: HandleId,
    /// The source AD, checked against the cached setup state.
    pub src: AdId,
}

impl DataPacket {
    /// Header size in bytes: handle (8) + source AD (4).
    pub const HEADER_SIZE: usize = 12;

    /// Header size of the ablation alternative: carrying the full source
    /// route (of `route_len` ADs) in every data packet instead of a
    /// handle.
    pub(crate) fn source_route_header_size(route_len: usize) -> usize {
        12 + 4 * route_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_policy::FlowSpec;
    use adroute_topology::transit;

    #[test]
    fn setup_sizes_scale_with_route() {
        let flow = FlowSpec::best_effort(AdId(0), AdId(3));
        let short = SetupPacket {
            flow,
            route: vec![AdId(0), AdId(3)],
            claimed_pts: vec![],
            handle: HandleId(1),
        };
        let long = SetupPacket {
            flow,
            route: vec![AdId(0), AdId(1), AdId(2), AdId(3)],
            claimed_pts: vec![None, None],
            handle: HandleId(1),
        };
        assert!(long.header_size() > short.header_size());
        assert_eq!(transit(&short.route).len(), 0);
        assert_eq!(transit(&long.route).len(), 2);
    }

    #[test]
    fn data_header_is_constant_and_small() {
        assert_eq!(DataPacket::HEADER_SIZE, 12);
        // The handle pays off once routes exceed zero transit hops.
        assert!(DataPacket::source_route_header_size(5) > DataPacket::HEADER_SIZE);
        assert_eq!(DataPacket::source_route_header_size(0), 12);
    }

    #[test]
    fn handle_display() {
        assert_eq!(HandleId(255).to_string(), "hff");
    }
}

//! Policy Gateways: per-AD setup validation and handle-based forwarding
//! (paper Section 5.4.1).
//!
//! "The AD's border gateways, referred to as policy gateways (PGs),
//! execute the validation for the AD. In effect, one can view the PGs as
//! containing routing tables that are filled on demand." A setup packet is
//! validated against the AD's *local* Policy Terms; on success the setup
//! state is cached under the packet's handle. Data packets carry only the
//! handle, and the PG performs cheap per-packet validation ("is it coming
//! from the AD specified in the cached PT setup information").
//!
//! The handle cache is bounded ([`PolicyGateway::new`] takes a capacity)
//! with LRU eviction — "policy gateway state management and limitations"
//! is one of the paper's open scaling issues, and experiment E6 sweeps
//! this capacity.

use adroute_policy::{FlowSpec, TransitPolicy};
use adroute_topology::AdId;

use crate::dataplane::{DataPacket, HandleId, SetupPacket};
use crate::lru::LruCache;

/// Why a setup was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SetupError {
    /// The validating AD does not appear (exactly once, as transit) on
    /// the route.
    NotOnRoute,
    /// The AD's policy denies this traversal.
    PolicyDenied {
        /// The AD that refused.
        ad: AdId,
    },
    /// The setup cited a Policy Term that is not the one the AD's policy
    /// actually selects for this traversal (stale or forged claim).
    PtMismatch {
        /// The AD that detected the mismatch.
        ad: AdId,
    },
    /// The AD's gateway is crashed: it can validate nothing until it
    /// restarts. Sources treat this like a denial and route around.
    GatewayDown {
        /// The AD whose gateway is down.
        ad: AdId,
    },
}

/// Why a data packet was dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataError {
    /// No cached state for the handle (never set up, expired, or
    /// evicted): the source must re-run setup.
    UnknownHandle {
        /// Where the miss occurred.
        at: AdId,
    },
    /// The packet's source AD does not match the cached setup.
    SourceMismatch {
        /// Where the check failed.
        at: AdId,
    },
    /// The gateway is crashed: nothing forwards until it restarts.
    GatewayDown {
        /// The crashed gateway's AD.
        at: AdId,
    },
    /// The cached entry predates the gateway's current incarnation —
    /// setup state from before a crash must never forward data.
    StaleHandle {
        /// Where the stale entry was caught.
        at: AdId,
    },
}

/// Cached per-handle forwarding state at one gateway.
#[derive(Clone, Debug)]
pub(crate) struct HandleEntry {
    /// The traffic class set up.
    pub flow: FlowSpec,
    /// AD the packets must arrive from.
    pub prev: AdId,
    /// AD the packets are forwarded to.
    pub next: AdId,
    /// Gateway incarnation at install time. An entry from an earlier
    /// incarnation is unconditionally stale: the policy state that
    /// validated it died with the crash.
    pub epoch: u64,
}

/// The gateway's correctness tripwire. (E5 counts setup validations in
/// [`crate::network::SetupOutcome::validations`]; E6 counts handle
/// evictions with [`PolicyGateway::evictions`].)
#[derive(Clone, Copy, Default, Debug)]
pub struct GatewayStats {
    /// Data packets that reached a cached entry from a *previous*
    /// incarnation. Crash handling wipes the cache, so this must stay 0 —
    /// it is a tripwire proving no stale handle ever forwards traffic.
    pub(crate) stale_forwards: u64,
}

/// One AD's policy gateway.
#[derive(Clone, Debug)]
pub struct PolicyGateway {
    /// The AD this gateway guards.
    pub ad: AdId,
    handles: LruCache<HandleId, HandleEntry>,
    up: bool,
    epoch: u64,
    /// Work counters.
    pub stats: GatewayStats,
}

impl PolicyGateway {
    /// A gateway with a handle cache of the given capacity.
    pub fn new(ad: AdId, capacity: usize) -> PolicyGateway {
        PolicyGateway {
            ad,
            handles: LruCache::new(capacity),
            up: true,
            epoch: 0,
            stats: GatewayStats::default(),
        }
    }

    /// Number of cached handles.
    pub fn cached_handles(&self) -> usize {
        self.handles.len()
    }

    /// Handles evicted so far (state-pressure measure).
    pub fn evictions(&self) -> u64 {
        self.handles.evictions
    }

    /// Crashes the gateway: all soft state (the handle cache) is lost and
    /// the incarnation advances, so anything that somehow survived would
    /// be recognizably stale. Setups and data are refused until
    /// [`PolicyGateway::restart`].
    pub(crate) fn crash(&mut self) {
        self.up = false;
        self.epoch += 1;
        self.handles.clear();
    }

    /// Restarts a crashed gateway with an empty cache: every flow through
    /// this AD must re-run setup, exactly as after an eviction.
    pub(crate) fn restart(&mut self) {
        self.up = true;
    }

    /// Validates a setup packet against this AD's own policy and, on
    /// success, installs the handle.
    ///
    /// The gateway checks three things, per the paper: that it is a
    /// transit AD on the route, that its local policy permits the
    /// traversal for the packet's traffic class, and that the Policy Term
    /// cited by the source matches the term its policy actually selects.
    pub fn validate_setup(
        &mut self,
        policy: &TransitPolicy,
        setup: &SetupPacket,
    ) -> Result<(), SetupError> {
        debug_assert_eq!(policy.ad, self.ad);
        if !self.up {
            return Err(SetupError::GatewayDown { ad: self.ad });
        }
        let Some(pos) = setup.route.iter().position(|&a| a == self.ad) else {
            return Err(SetupError::NotOnRoute);
        };
        if pos == 0 || pos == setup.route.len() - 1 {
            return Err(SetupError::NotOnRoute);
        }
        let prev = setup.route[pos - 1];
        let next = setup.route[pos + 1];
        let (permit, deciding_pt) = policy.evaluate_with_term(&setup.flow, Some(prev), Some(next));
        if permit.is_none() {
            return Err(SetupError::PolicyDenied { ad: self.ad });
        }
        let claimed = setup.claimed_pts.get(pos - 1).copied().flatten();
        if claimed != deciding_pt {
            return Err(SetupError::PtMismatch { ad: self.ad });
        }
        self.handles.insert(
            setup.handle,
            HandleEntry {
                flow: setup.flow,
                prev,
                next,
                epoch: self.epoch,
            },
        );
        Ok(())
    }

    /// Installs a handle for `setup` **without** consulting policy — the
    /// forged-ack misbehavior. A rogue gateway acknowledges setups its
    /// own policy should have rejected, admitting traffic its AD never
    /// agreed to carry; the resulting forwarding-plane path then trips
    /// the policy-violation monitor, since the ground-truth audit still
    /// uses the honest policy. Only route position is checked (a gateway
    /// not on the route cannot even name its prev/next hops).
    pub(crate) fn force_install(&mut self, setup: &SetupPacket) -> Result<(), SetupError> {
        if !self.up {
            return Err(SetupError::GatewayDown { ad: self.ad });
        }
        let Some(pos) = setup.route.iter().position(|&a| a == self.ad) else {
            return Err(SetupError::NotOnRoute);
        };
        if pos == 0 || pos == setup.route.len() - 1 {
            return Err(SetupError::NotOnRoute);
        }
        self.handles.insert(
            setup.handle,
            HandleEntry {
                flow: setup.flow,
                prev: setup.route[pos - 1],
                next: setup.route[pos + 1],
                epoch: self.epoch,
            },
        );
        Ok(())
    }

    /// Forwards a data packet from cached state: returns the next AD.
    ///
    /// `arrived_from` is the AD the packet physically came from; it must
    /// match both the cached previous AD and the packet's claimed source
    /// lineage (the cheap per-packet validation of the paper).
    pub(crate) fn forward_data(
        &mut self,
        pkt: &DataPacket,
        arrived_from: AdId,
    ) -> Result<AdId, DataError> {
        if !self.up {
            return Err(DataError::GatewayDown { at: self.ad });
        }
        let Some(entry) = self.handles.get(&pkt.handle) else {
            return Err(DataError::UnknownHandle { at: self.ad });
        };
        if entry.epoch != self.epoch {
            self.stats.stale_forwards += 1;
            return Err(DataError::StaleHandle { at: self.ad });
        }
        if entry.prev != arrived_from || entry.flow.src != pkt.src {
            return Err(DataError::SourceMismatch { at: self.ad });
        }
        Ok(entry.next)
    }

    /// Tears down one handle (source-initiated teardown). Returns whether
    /// the handle was installed here.
    pub(crate) fn teardown(&mut self, handle: HandleId) -> bool {
        self.handles.remove(&handle).is_some()
    }

    /// Flushes every handle whose cached next/prev hop uses the failed
    /// adjacency, or whose flow matches the predicate (policy change).
    pub(crate) fn invalidate(&mut self, mut doomed: impl FnMut(&HandleEntry) -> bool) {
        self.handles.retain(|_, e| !doomed(e));
    }

    /// How many handles are installed for `flow` — a scan of the whole
    /// table, for audits and test oracles (cancelling an abandoned open
    /// tears down the handles it is known to have left, by id).
    pub fn handles_for(&self, flow: &FlowSpec) -> usize {
        self.handles
            .iter_recency()
            .filter(|(_, e)| e.flow == *flow)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_policy::{AdSet, PolicyAction, PolicyCondition, PtId};

    fn setup_pkt(route: Vec<AdId>, pts: Vec<Option<PtId>>) -> SetupPacket {
        let flow = FlowSpec::best_effort(route[0], *route.last().unwrap());
        SetupPacket {
            flow,
            route,
            claimed_pts: pts,
            handle: HandleId(7),
        }
    }

    #[test]
    fn valid_setup_installs_handle() {
        let mut pg = PolicyGateway::new(AdId(1), 8);
        let policy = TransitPolicy::permit_all(AdId(1));
        let s = setup_pkt(vec![AdId(0), AdId(1), AdId(2)], vec![None]);
        pg.validate_setup(&policy, &s).unwrap();
        assert_eq!(pg.cached_handles(), 1);
        let next = pg
            .forward_data(
                &DataPacket {
                    handle: HandleId(7),
                    src: AdId(0),
                },
                AdId(0),
            )
            .unwrap();
        assert_eq!(next, AdId(2));
    }

    #[test]
    fn denial_rejects_setup() {
        let mut pg = PolicyGateway::new(AdId(1), 8);
        let policy = TransitPolicy::deny_all(AdId(1));
        let s = setup_pkt(vec![AdId(0), AdId(1), AdId(2)], vec![None]);
        assert_eq!(
            pg.validate_setup(&policy, &s),
            Err(SetupError::PolicyDenied { ad: AdId(1) })
        );
        assert_eq!(pg.cached_handles(), 0);
    }

    #[test]
    fn pt_claims_are_checked() {
        let mut pg = PolicyGateway::new(AdId(1), 8);
        let mut policy = TransitPolicy::deny_all(AdId(1));
        let pt = policy.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(0)]))],
            PolicyAction::Permit { cost: 0 },
        );
        // Claiming "default permits" when a specific term decides: reject.
        let s = setup_pkt(vec![AdId(0), AdId(1), AdId(2)], vec![None]);
        assert_eq!(
            pg.validate_setup(&policy, &s),
            Err(SetupError::PtMismatch { ad: AdId(1) })
        );
        // Correct citation: accept.
        let s = setup_pkt(vec![AdId(0), AdId(1), AdId(2)], vec![Some(pt)]);
        pg.validate_setup(&policy, &s).unwrap();
    }

    #[test]
    fn endpoints_cannot_validate() {
        let mut pg = PolicyGateway::new(AdId(0), 8);
        let policy = TransitPolicy::permit_all(AdId(0));
        let s = setup_pkt(vec![AdId(0), AdId(1), AdId(2)], vec![None]);
        assert_eq!(pg.validate_setup(&policy, &s), Err(SetupError::NotOnRoute));
        let mut pg9 = PolicyGateway::new(AdId(9), 8);
        let policy9 = TransitPolicy::permit_all(AdId(9));
        assert_eq!(
            pg9.validate_setup(&policy9, &s),
            Err(SetupError::NotOnRoute)
        );
    }

    #[test]
    fn per_packet_source_validation() {
        let mut pg = PolicyGateway::new(AdId(1), 8);
        let policy = TransitPolicy::permit_all(AdId(1));
        let s = setup_pkt(vec![AdId(0), AdId(1), AdId(2)], vec![None]);
        pg.validate_setup(&policy, &s).unwrap();
        // Wrong physical previous hop.
        let err = pg
            .forward_data(
                &DataPacket {
                    handle: HandleId(7),
                    src: AdId(0),
                },
                AdId(2),
            )
            .unwrap_err();
        assert_eq!(err, DataError::SourceMismatch { at: AdId(1) });
        // Wrong claimed source.
        let err = pg
            .forward_data(
                &DataPacket {
                    handle: HandleId(7),
                    src: AdId(5),
                },
                AdId(0),
            )
            .unwrap_err();
        assert_eq!(err, DataError::SourceMismatch { at: AdId(1) });
    }

    #[test]
    fn unknown_handle_demands_resetup() {
        let mut pg = PolicyGateway::new(AdId(1), 8);
        let err = pg
            .forward_data(
                &DataPacket {
                    handle: HandleId(42),
                    src: AdId(0),
                },
                AdId(0),
            )
            .unwrap_err();
        assert_eq!(err, DataError::UnknownHandle { at: AdId(1) });
    }

    #[test]
    fn bounded_cache_evicts() {
        let mut pg = PolicyGateway::new(AdId(1), 2);
        let policy = TransitPolicy::permit_all(AdId(1));
        for h in 0..4u64 {
            let mut s = setup_pkt(vec![AdId(0), AdId(1), AdId(2)], vec![None]);
            s.handle = HandleId(h);
            pg.validate_setup(&policy, &s).unwrap();
        }
        assert_eq!(pg.cached_handles(), 2);
        assert_eq!(pg.evictions(), 2);
        // The earliest handle is gone.
        let err = pg
            .forward_data(
                &DataPacket {
                    handle: HandleId(0),
                    src: AdId(0),
                },
                AdId(0),
            )
            .unwrap_err();
        assert!(matches!(err, DataError::UnknownHandle { .. }));
    }

    #[test]
    fn crash_refuses_and_wipes_restart_starts_cold() {
        let mut pg = PolicyGateway::new(AdId(1), 8);
        let policy = TransitPolicy::permit_all(AdId(1));
        let s = setup_pkt(vec![AdId(0), AdId(1), AdId(2)], vec![None]);
        pg.validate_setup(&policy, &s).unwrap();
        pg.crash();
        assert!(!pg.up);
        assert_eq!(pg.cached_handles(), 0, "crash must lose soft state");
        assert_eq!(
            pg.validate_setup(&policy, &s),
            Err(SetupError::GatewayDown { ad: AdId(1) })
        );
        let err = pg
            .forward_data(
                &DataPacket {
                    handle: HandleId(7),
                    src: AdId(0),
                },
                AdId(0),
            )
            .unwrap_err();
        assert_eq!(err, DataError::GatewayDown { at: AdId(1) });
        pg.restart();
        assert!(pg.up);
        assert_eq!(pg.epoch, 1);
        // The pre-crash handle is gone: the source must re-run setup.
        let err = pg
            .forward_data(
                &DataPacket {
                    handle: HandleId(7),
                    src: AdId(0),
                },
                AdId(0),
            )
            .unwrap_err();
        assert_eq!(err, DataError::UnknownHandle { at: AdId(1) });
        assert_eq!(
            pg.stats.stale_forwards, 0,
            "no stale handle may ever forward"
        );
        // And a fresh setup works at the new epoch.
        pg.validate_setup(&policy, &s).unwrap();
        assert!(pg
            .forward_data(
                &DataPacket {
                    handle: HandleId(7),
                    src: AdId(0)
                },
                AdId(0)
            )
            .is_ok());
    }

    #[test]
    fn epoch_tripwire_catches_surviving_state() {
        // Plant an entry that (hypothetically) survived a crash by bumping
        // the epoch without the wipe: the tripwire must catch it.
        let mut pg = PolicyGateway::new(AdId(1), 8);
        let policy = TransitPolicy::permit_all(AdId(1));
        let s = setup_pkt(vec![AdId(0), AdId(1), AdId(2)], vec![None]);
        pg.validate_setup(&policy, &s).unwrap();
        pg.epoch += 1; // simulate buggy crash handling that kept the cache
        let err = pg
            .forward_data(
                &DataPacket {
                    handle: HandleId(7),
                    src: AdId(0),
                },
                AdId(0),
            )
            .unwrap_err();
        assert_eq!(err, DataError::StaleHandle { at: AdId(1) });
        assert_eq!(pg.stats.stale_forwards, 1);
    }

    #[test]
    fn teardown_by_id_drops_only_that_flows_handle() {
        let mut pg = PolicyGateway::new(AdId(1), 8);
        let policy = TransitPolicy::permit_all(AdId(1));
        let s = setup_pkt(vec![AdId(0), AdId(1), AdId(2)], vec![None]);
        pg.validate_setup(&policy, &s).unwrap();
        // A second flow through the same gateway under a different handle.
        let mut other = setup_pkt(vec![AdId(3), AdId(1), AdId(2)], vec![None]);
        other.handle = HandleId(9);
        pg.validate_setup(&policy, &other).unwrap();
        assert_eq!(pg.cached_handles(), 2);
        assert_eq!(pg.handles_for(&s.flow), 1);
        assert!(pg.teardown(s.handle));
        assert_eq!(pg.cached_handles(), 1);
        assert_eq!(pg.handles_for(&s.flow), 0);
        assert!(!pg.teardown(s.handle), "already torn down");
        // The other flow still forwards.
        assert!(pg
            .forward_data(
                &DataPacket {
                    handle: HandleId(9),
                    src: AdId(3)
                },
                AdId(3)
            )
            .is_ok());
    }

    #[test]
    fn teardown_and_invalidation() {
        let mut pg = PolicyGateway::new(AdId(1), 8);
        let policy = TransitPolicy::permit_all(AdId(1));
        for h in 0..3u64 {
            let mut s = setup_pkt(vec![AdId(0), AdId(1), AdId(2)], vec![None]);
            s.handle = HandleId(h);
            pg.validate_setup(&policy, &s).unwrap();
        }
        pg.teardown(HandleId(0));
        assert_eq!(pg.cached_handles(), 2);
        // Invalidate everything using next == AD2 (link 1-2 failed).
        pg.invalidate(|e| e.next == AdId(2));
        assert_eq!(pg.cached_handles(), 0);
    }
}

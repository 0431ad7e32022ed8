//! Runtime safety monitors and quarantine-based containment.
//!
//! The paper's policy machinery assumes ADs *enforce* their own published
//! `TransitPolicy`; a misbehaving administration (see
//! [`MisbehaviorModel`](crate::faults::MisbehaviorModel)) breaks that
//! assumption silently — routes still converge, packets still move, but
//! the network is no longer in a policy-legal state. This module closes
//! the loop with black-box *forwarding-plane* invariants:
//!
//! - **policy-violation tripwire** — a delivered packet transited an AD
//!   whose own policy terms forbid that `(src, dst, class)` triple. One
//!   observation is proof (the policy is the AD's own statement), so the
//!   tripwire fires immediately.
//! - **persistent-loop detector** — a flow's forwarding walk revisits an
//!   AD, and keeps doing so for `loop_ticks` consecutive ticks (ruling
//!   out transient micro-loops during reconvergence).
//! - **blackhole detector** — a flow with a ground-truth-reachable
//!   destination goes undelivered at the same AD for `blackhole_ticks`
//!   consecutive ticks.
//! - **count-to-infinity watchdog** — some router's metric toward a
//!   destination climbs monotonically for `cti_ticks` ticks while still
//!   below the protocol's infinity. The watchdog can only name the
//!   *destination* under churn, not the culprit — distance vectors carry
//!   no provenance, which is itself a finding (DESIGN.md §3.10).
//!
//! **Unreachable ≠ byzantine.** During a network partition every metric
//! toward the far island legitimately counts toward infinity and every
//! far destination goes undelivered; neither is evidence of misbehavior.
//! Feeders therefore tag each observation with ground-truth
//! reachability ([`Observation::Blackholed::reachable`] and
//! [`Observation::MetricSample::reachable`], both computed from the
//! engine's topology over *operational* links), and the detectors treat
//! unreachable symptoms as streak-breaking noise. A pure partition fires
//! zero quarantines — the property `tests/monitors.rs` pins down.
//!
//! Monitors are deliberately protocol-agnostic: they consume abstract
//! [`Observation`]s that a per-protocol feeder (the forwarding harness,
//! the ORWG data plane) derives each monitoring tick, so the same bank
//! audits all four design points. Confirmed alarms flow into a
//! [`QuarantineController`] that tracks accusations, enters ADs into
//! quarantine (emitting causally-linked obs events and the
//! `quarantine_entered` / `false_positive` counters), and leaves the
//! actual route-around to the protocol layer: avoid-set synthesis for the
//! ORWG, link isolation (route withdrawal) for hop-by-hop engines.

use std::collections::{BTreeMap, BTreeSet};

use adroute_topology::AdId;

use crate::event::SimTime;
use crate::obs::{Counter, EventId, EventRecord, Obs};

/// One forwarding-plane fact observed during a monitoring tick, fed to a
/// [`MonitorBank`] by a protocol-specific prober.
#[derive(Clone, Debug)]
pub enum Observation {
    /// A probe packet was delivered; `violators` lists the transit ADs
    /// whose own policy forbids the flow (empty = policy-legal path).
    Delivered {
        /// Flow source.
        src: AdId,
        /// Flow destination.
        dst: AdId,
        /// Transit ADs that carried the packet against their own policy.
        violators: Vec<AdId>,
    },
    /// A probe packet entered a forwarding loop.
    Looped {
        /// Flow source.
        src: AdId,
        /// Flow destination.
        dst: AdId,
        /// The repeating AD cycle (first AD repeated at the end or not —
        /// only membership matters).
        cycle: Vec<AdId>,
        /// Whether ground truth says `dst` is reachable right now. A
        /// transient loop toward an unreachable destination is ordinary
        /// count-to-infinity churn (e.g. mid-partition), not evidence of
        /// misbehavior; such ticks break the loop streak.
        reachable: bool,
    },
    /// A probe packet died at `at` without reaching `dst`.
    Blackholed {
        /// Flow source.
        src: AdId,
        /// Flow destination.
        dst: AdId,
        /// The AD where forwarding stopped.
        at: AdId,
        /// Whether ground truth says `dst` is actually reachable from
        /// `src` right now (unreachable destinations are not blackholes).
        reachable: bool,
    },
    /// A routing-table metric sample for the count-to-infinity watchdog.
    MetricSample {
        /// The sampled router.
        at: AdId,
        /// The destination the metric points toward.
        dst: AdId,
        /// Current metric value.
        metric: u32,
        /// The protocol's infinity (unreachable) sentinel.
        infinity: u32,
        /// Whether ground truth says `dst` is reachable from the sampled
        /// router over operational links right now. A metric climbing
        /// toward an *unreachable* destination is correct convergence
        /// (e.g. during a partition), not count-to-infinity; such
        /// samples break the climb streak instead of advancing it.
        reachable: bool,
    },
}

/// Streak thresholds for the persistence-based detectors. A threshold of
/// `k` means the condition must hold on `k` consecutive ticks before the
/// alarm fires — the tripwire needs no threshold (one violation is
/// proof).
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Consecutive looping ticks before the loop detector fires.
    pub loop_ticks: u64,
    /// Consecutive blackholed ticks before the blackhole detector fires.
    pub blackhole_ticks: u64,
    /// Consecutive metric climbs before the count-to-infinity watchdog
    /// fires.
    pub cti_ticks: u64,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            loop_ticks: 3,
            blackhole_ticks: 3,
            cti_ticks: 4,
        }
    }
}

/// A confirmed monitor verdict: `detector` holds `suspect` responsible,
/// backed by `evidence` supporting observations, first confirmed on
/// monitoring tick `tick` (1-based: an alarm on the first tick has
/// detection latency 1). `event` is the logged `monitor-alarm` record's
/// id, already chained to the suspect's `misbehavior-inject` root when
/// one was registered.
#[derive(Clone, Copy, Debug)]
pub struct Alarm {
    /// Which invariant fired: `"policy-violation"`, `"persistent-loop"`,
    /// `"blackhole"`, or `"count-to-infinity"`.
    pub detector: &'static str,
    /// The AD held responsible (for the watchdog: the churning
    /// destination, since distance vectors carry no provenance).
    pub suspect: AdId,
    /// Supporting observations accumulated when the alarm fired.
    pub evidence: u64,
    /// 1-based monitoring tick of confirmation (= detection latency in
    /// ticks when injection preceded tick 1).
    pub tick: u64,
    /// The emitted `monitor-alarm` event id, if the log is enabled.
    pub event: Option<EventId>,
}

/// Detector tag of the policy-violation tripwire.
pub(crate) const DET_POLICY: &str = "policy-violation";
/// Detector tag of the persistent-loop detector.
pub(crate) const DET_LOOP: &str = "persistent-loop";
/// Detector tag of the blackhole detector.
pub(crate) const DET_BLACKHOLE: &str = "blackhole";
/// Detector tag of the count-to-infinity watchdog.
pub(crate) const DET_CTI: &str = "count-to-infinity";

/// The four runtime safety monitors, evaluated tick by tick over
/// [`Observation`] feeds.
///
/// Usage per monitoring tick: feed every observation with
/// [`MonitorBank::observe`], then call [`MonitorBank::end_tick`] to
/// evaluate the detectors, emit `monitor-alarm` events, and collect the
/// newly fired [`Alarm`]s. Alarms deduplicate on `(detector, suspect)` —
/// a violator is reported once per detector, however long it misbehaves.
#[derive(Debug, Default)]
pub struct MonitorBank {
    cfg: MonitorConfig,
    tick: u64,
    pending: Vec<Observation>,
    /// (src,dst) → consecutive looping ticks + last cycle suspect.
    loop_streaks: BTreeMap<(AdId, AdId), (u64, AdId)>,
    /// (src,dst) → consecutive blackholed ticks + blamed AD.
    hole_streaks: BTreeMap<(AdId, AdId), (u64, AdId)>,
    /// (router,dst) → (last metric, consecutive climbs).
    climb_streaks: BTreeMap<(AdId, AdId), (u32, u64)>,
    /// Per-suspect policy-violation observation tally.
    violation_counts: BTreeMap<AdId, u64>,
    fired: BTreeSet<(&'static str, AdId)>,
    alarms: Vec<Alarm>,
    roots: BTreeMap<AdId, EventId>,
}

impl MonitorBank {
    /// A bank with the given thresholds.
    pub fn new(cfg: MonitorConfig) -> MonitorBank {
        MonitorBank {
            cfg,
            ..MonitorBank::default()
        }
    }

    /// Registers the `misbehavior-inject` event ids returned by
    /// [`FaultPlan::apply`](crate::FaultPlan::apply) so each alarm's
    /// `monitor-alarm` record is emitted as a causal child of the
    /// injection it detected.
    pub fn set_injection_roots(&mut self, roots: &[(AdId, Option<EventId>)]) {
        for (ad, id) in roots {
            if let Some(id) = id {
                self.roots.insert(*ad, *id);
            }
        }
    }

    /// Buffers one observation for the current tick.
    pub fn observe(&mut self, o: Observation) {
        self.pending.push(o);
    }

    /// Closes the current monitoring tick: consumes the buffered
    /// observations, advances every streak, fires alarms (emitting
    /// `monitor-alarm` events into `obs` at simulated time `at`, plus a
    /// `detection_latency_ticks` histogram sample per alarm), and
    /// returns the alarms newly confirmed this tick.
    pub fn end_tick(&mut self, obs: &mut Obs, at: SimTime) -> Vec<Alarm> {
        self.tick += 1;
        let mut looped: BTreeSet<(AdId, AdId)> = BTreeSet::new();
        let mut holed: BTreeSet<(AdId, AdId)> = BTreeSet::new();
        let mut new_alarms: Vec<Alarm> = Vec::new();
        let pending = std::mem::take(&mut self.pending);
        for o in pending {
            match o {
                Observation::Delivered { violators, .. } => {
                    for v in violators {
                        let n = self.violation_counts.entry(v).or_insert(0);
                        *n += 1;
                        let ev = *n;
                        self.fire(DET_POLICY, v, ev, &mut new_alarms);
                    }
                }
                Observation::Looped {
                    src,
                    dst,
                    cycle,
                    reachable,
                } => {
                    if !reachable {
                        continue; // count-to-infinity churn, not misbehavior
                    }
                    // Blame deterministically: the smallest AD in the
                    // cycle (membership is what the monitor can see).
                    let suspect = cycle.iter().copied().min().unwrap_or(src);
                    looped.insert((src, dst));
                    let e = self.loop_streaks.entry((src, dst)).or_insert((0, suspect));
                    e.0 += 1;
                    e.1 = suspect;
                    if e.0 >= self.cfg.loop_ticks {
                        let (n, s) = *e;
                        self.fire(DET_LOOP, s, n, &mut new_alarms);
                    }
                }
                Observation::Blackholed {
                    src,
                    dst,
                    at: hole,
                    reachable,
                } => {
                    if !reachable {
                        continue; // not an invariant violation
                    }
                    holed.insert((src, dst));
                    let e = self.hole_streaks.entry((src, dst)).or_insert((0, hole));
                    e.0 += 1;
                    e.1 = hole;
                    if e.0 >= self.cfg.blackhole_ticks {
                        let (n, s) = *e;
                        self.fire(DET_BLACKHOLE, s, n, &mut new_alarms);
                    }
                }
                Observation::MetricSample {
                    at: router,
                    dst,
                    metric,
                    infinity,
                    reachable,
                } => {
                    let e = self
                        .climb_streaks
                        .entry((router, dst))
                        .or_insert((metric, 0));
                    if reachable && metric > e.0 && metric < infinity {
                        e.1 += 1;
                    } else {
                        e.1 = 0;
                    }
                    e.0 = metric;
                    if e.1 >= self.cfg.cti_ticks {
                        let n = e.1;
                        self.fire(DET_CTI, dst, n, &mut new_alarms);
                    }
                }
            }
        }
        // A tick without the symptom breaks the streak.
        self.loop_streaks.retain(|k, _| looped.contains(k));
        self.hole_streaks.retain(|k, _| holed.contains(k));
        for a in &mut new_alarms {
            a.tick = self.tick;
            a.event = obs.record_event(
                at,
                self.roots.get(&a.suspect).copied(),
                EventRecord::MonitorAlarm {
                    detector: a.detector,
                    suspect: a.suspect,
                    evidence: a.evidence,
                },
            );
            obs.metrics.record("detection_latency_ticks", self.tick);
        }
        self.alarms.extend(new_alarms.iter().copied());
        new_alarms
    }

    fn fire(&mut self, detector: &'static str, suspect: AdId, evidence: u64, out: &mut Vec<Alarm>) {
        if self.fired.insert((detector, suspect)) {
            out.push(Alarm {
                detector,
                suspect,
                evidence,
                tick: 0,     // stamped by end_tick
                event: None, // emitted by end_tick
            });
        }
    }

    /// Every alarm fired over the bank's lifetime, in firing order.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// Whether no monitor has fired — the fault-free invariant.
    pub fn silent(&self) -> bool {
        self.alarms.is_empty()
    }
}

/// Translates confirmed monitor alarms into containment decisions.
///
/// The controller is deliberately mechanism-free: it decides *who* is
/// quarantined and emits the bookkeeping (`quarantine-enter` /
/// `quarantine-lift` events; `quarantine_entered`, `quarantine_lifted`,
/// `false_positive` counters); the caller enacts the decision — feeding
/// the quarantined set as avoid-criteria into ORWG route synthesis, or
/// withdrawing the AD's routes in a hop-by-hop engine. Alarms reach it
/// confirmed (the tripwire's one violation is definitive; the streak
/// detectors have already met their thresholds), so the first alarm
/// against a suspect quarantines it.
#[derive(Debug, Default)]
pub struct QuarantineController {
    quarantined: BTreeSet<AdId>,
}

impl QuarantineController {
    /// Books one alarm against its suspect. A suspect not already in
    /// quarantine enters it: a `quarantine-enter` event is emitted as a
    /// child of the alarm and `quarantine_entered` increments. Returns
    /// the suspect and the quarantine event's id if this call quarantined
    /// it — the caller must then enact the route-around, chaining its
    /// teardowns to that event.
    pub fn note_alarm(
        &mut self,
        alarm: &Alarm,
        obs: &mut Obs,
        at: SimTime,
    ) -> Option<(AdId, Option<EventId>)> {
        if self.quarantined.insert(alarm.suspect) {
            obs.metrics.add(Counter::QuarantineEntered, 1);
            let ev = obs.record_event(
                at,
                alarm.event,
                EventRecord::QuarantineEnter { ad: alarm.suspect },
            );
            return Some((alarm.suspect, ev));
        }
        None
    }

    /// Releases `ad` from quarantine (emitting `quarantine-lift` and
    /// `quarantine_lifted`). `guilty` is ground truth: lifting an AD
    /// that never misbehaved also increments `false_positive`. Returns
    /// whether `ad` was actually quarantined.
    pub fn lift(&mut self, ad: AdId, guilty: bool, obs: &mut Obs, at: SimTime) -> bool {
        if !self.quarantined.remove(&ad) {
            return false;
        }
        obs.metrics.add(Counter::QuarantineLifted, 1);
        if !guilty {
            obs.metrics.add(Counter::FalsePositive, 1);
        }
        obs.record_event(at, None, EventRecord::QuarantineLift { ad });
        true
    }

    /// ADs currently in quarantine, ascending.
    pub fn quarantined(&self) -> impl Iterator<Item = AdId> + '_ {
        self.quarantined.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tickf(bank: &mut MonitorBank, obs: &mut Obs, os: Vec<Observation>) -> Vec<Alarm> {
        for o in os {
            bank.observe(o);
        }
        bank.end_tick(obs, SimTime::ZERO)
    }

    #[test]
    fn tripwire_fires_immediately_and_once() {
        let mut bank = MonitorBank::new(MonitorConfig::default());
        let mut obs = Obs::new(64);
        let a = tickf(
            &mut bank,
            &mut obs,
            vec![Observation::Delivered {
                src: AdId(0),
                dst: AdId(4),
                violators: vec![AdId(2)],
            }],
        );
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].detector, DET_POLICY);
        assert_eq!(a[0].suspect, AdId(2));
        assert_eq!(a[0].tick, 1);
        // Same violation next tick: deduped.
        let b = tickf(
            &mut bank,
            &mut obs,
            vec![Observation::Delivered {
                src: AdId(0),
                dst: AdId(4),
                violators: vec![AdId(2)],
            }],
        );
        assert!(b.is_empty());
        assert_eq!(bank.alarms().len(), 1);
    }

    #[test]
    fn loop_detector_needs_persistence() {
        let mut bank = MonitorBank::new(MonitorConfig {
            loop_ticks: 3,
            ..MonitorConfig::default()
        });
        let mut obs = Obs::new(64);
        let looped = || Observation::Looped {
            src: AdId(0),
            dst: AdId(5),
            cycle: vec![AdId(3), AdId(1)],
            reachable: true,
        };
        assert!(tickf(&mut bank, &mut obs, vec![looped()]).is_empty());
        assert!(tickf(&mut bank, &mut obs, vec![looped()]).is_empty());
        // A clean tick resets the streak.
        assert!(tickf(&mut bank, &mut obs, vec![]).is_empty());
        assert!(tickf(&mut bank, &mut obs, vec![looped()]).is_empty());
        assert!(tickf(&mut bank, &mut obs, vec![looped()]).is_empty());
        let a = tickf(&mut bank, &mut obs, vec![looped()]);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].detector, DET_LOOP);
        assert_eq!(a[0].suspect, AdId(1), "blames the smallest cycle member");
    }

    #[test]
    fn unreachable_destinations_are_not_blackholes() {
        let mut bank = MonitorBank::new(MonitorConfig {
            blackhole_ticks: 1,
            ..MonitorConfig::default()
        });
        let mut obs = Obs::new(64);
        let a = tickf(
            &mut bank,
            &mut obs,
            vec![Observation::Blackholed {
                src: AdId(0),
                dst: AdId(9),
                at: AdId(3),
                reachable: false,
            }],
        );
        assert!(a.is_empty());
        assert!(bank.silent());
    }

    #[test]
    fn cti_watchdog_wants_monotone_climb_below_infinity() {
        let mut bank = MonitorBank::new(MonitorConfig {
            cti_ticks: 3,
            ..MonitorConfig::default()
        });
        let mut obs = Obs::new(64);
        let sample = |m: u32| Observation::MetricSample {
            at: AdId(1),
            dst: AdId(7),
            metric: m,
            infinity: 64,
            reachable: true,
        };
        for m in [2, 4, 6] {
            assert!(tickf(&mut bank, &mut obs, vec![sample(m)]).is_empty());
        }
        let a = tickf(&mut bank, &mut obs, vec![sample(8)]);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].detector, DET_CTI);
        assert_eq!(a[0].suspect, AdId(7));
        // Reaching infinity is convergence (route withdrawn), not CTI.
        let mut bank2 = MonitorBank::new(MonitorConfig {
            cti_ticks: 2,
            ..MonitorConfig::default()
        });
        for m in [60, 62, 64, 64] {
            assert!(tickf(&mut bank2, &mut obs, vec![sample(m)]).is_empty());
        }
        assert!(bank2.silent());
    }

    #[test]
    fn cti_watchdog_ignores_climbs_toward_unreachable_destinations() {
        // A partition makes metrics toward the far island climb — that is
        // correct convergence, and the reachable=false tag must keep the
        // watchdog silent no matter how long the climb runs.
        let mut bank = MonitorBank::new(MonitorConfig {
            cti_ticks: 2,
            ..MonitorConfig::default()
        });
        let mut obs = Obs::new(64);
        let sample = |m: u32, reachable: bool| Observation::MetricSample {
            at: AdId(1),
            dst: AdId(7),
            metric: m,
            infinity: 64,
            reachable,
        };
        for m in [2, 4, 6, 8, 10, 12] {
            assert!(tickf(&mut bank, &mut obs, vec![sample(m, false)]).is_empty());
        }
        assert!(bank.silent());
        // Unreachable samples also *break* a streak built while reachable.
        let mut bank2 = MonitorBank::new(MonitorConfig {
            cti_ticks: 3,
            ..MonitorConfig::default()
        });
        assert!(tickf(&mut bank2, &mut obs, vec![sample(2, true)]).is_empty());
        assert!(tickf(&mut bank2, &mut obs, vec![sample(4, true)]).is_empty());
        assert!(tickf(&mut bank2, &mut obs, vec![sample(6, false)]).is_empty());
        assert!(tickf(&mut bank2, &mut obs, vec![sample(8, true)]).is_empty());
        assert!(tickf(&mut bank2, &mut obs, vec![sample(10, true)]).is_empty());
        assert!(bank2.silent(), "the unreachable tick reset the streak");
    }

    #[test]
    fn quarantine_books_lifts_and_counts_false_positives() {
        let mut obs = Obs::new(64);
        let mut bank = MonitorBank::new(MonitorConfig::default());
        let alarms = tickf(
            &mut bank,
            &mut obs,
            vec![Observation::Delivered {
                src: AdId(0),
                dst: AdId(4),
                violators: vec![AdId(2)],
            }],
        );
        let mut q = QuarantineController::default();
        let entered = q.note_alarm(&alarms[0], &mut obs, SimTime::ZERO);
        assert_eq!(entered.map(|(ad, _)| ad), Some(AdId(2)));
        assert!(entered.unwrap().1.is_some(), "quarantine event was logged");
        assert!(q.quarantined.contains(&AdId(2)));
        assert_eq!(obs.metrics.counter("quarantine_entered"), 1);
        assert!(q.lift(AdId(2), false, &mut obs, SimTime::ZERO));
        assert!(!q.quarantined.contains(&AdId(2)));
        assert_eq!(obs.metrics.counter("quarantine_lifted"), 1);
        assert_eq!(obs.metrics.counter("false_positive"), 1);
        // Lifting twice is a no-op.
        assert!(!q.lift(AdId(2), false, &mut obs, SimTime::ZERO));
        assert_eq!(obs.metrics.counter("quarantine_lifted"), 1);
    }
}

//! Seeded failure schedules: the inter-AD link dynamics of paper
//! Section 2.2.
//!
//! The paper assumes ADs themselves are stable ("an AD must be configured
//! to maintain relatively stable connectivity") while *inter-AD links*
//! fail and recover: "the protocol must be somewhat adaptive to changes in
//! inter-AD topology". A [`FailureSchedule`] realizes that regime as a
//! deterministic list of link up/down events drawn from per-link
//! exponential time-to-failure / time-to-repair distributions, which
//! experiments feed into an [`Engine`] via
//! [`apply`](FailureSchedule::apply).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use adroute_topology::{AdId, LinkId, Topology};

use crate::engine::{Engine, Protocol};
use crate::event::SimTime;
use crate::obs::EventId;

/// One scheduled link state change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkEvent {
    /// When the change occurs.
    pub at: SimTime,
    /// Which link.
    pub link: LinkId,
    /// New state.
    pub up: bool,
}

/// Parameters of a random failure process.
#[derive(Clone, Debug)]
pub struct FailureModel {
    /// Mean operating time before a link fails, in milliseconds.
    pub mtbf_ms: f64,
    /// Mean repair time, in milliseconds.
    pub mttr_ms: f64,
    /// Fraction of links subject to failure (the rest never fail).
    pub fallible_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FailureModel {
    fn default() -> Self {
        FailureModel {
            mtbf_ms: 500.0,
            mttr_ms: 100.0,
            fallible_fraction: 0.3,
            seed: 0,
        }
    }
}

/// A deterministic, time-ordered list of link events over a horizon.
#[derive(Clone, Debug, Default)]
pub struct FailureSchedule {
    events: Vec<LinkEvent>,
}

impl FailureSchedule {
    /// Draws a schedule for `topo` over `[start, start+horizon_ms)` under
    /// the model. Each fallible link alternates exponential up/down
    /// periods. The same inputs always produce the same schedule.
    pub fn draw(
        topo: &Topology,
        model: &FailureModel,
        start: SimTime,
        horizon_ms: u64,
    ) -> FailureSchedule {
        let mut rng = SmallRng::seed_from_u64(model.seed);
        let mut events = Vec::new();
        let end = start.plus_us(horizon_ms * 1000);
        for link in topo.links() {
            if !rng.gen_bool(model.fallible_fraction.clamp(0.0, 1.0)) {
                continue;
            }
            let mut t = start;
            let mut up = true;
            loop {
                let mean = if up { model.mtbf_ms } else { model.mttr_ms };
                // Exponential draw via inverse CDF; clamp to ≥ 1ms.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let dwell_ms = (-mean * u.ln()).max(1.0);
                t = t.plus_us((dwell_ms * 1000.0) as u64);
                if t >= end {
                    break;
                }
                up = !up;
                events.push(LinkEvent {
                    at: t,
                    link: link.id,
                    up,
                });
            }
        }
        events.sort_by_key(|e| (e.at, e.link));
        FailureSchedule { events }
    }

    /// A hand-built schedule (for tests and targeted experiments).
    pub(crate) fn from_events(mut events: Vec<LinkEvent>) -> FailureSchedule {
        events.sort_by_key(|e| (e.at, e.link));
        FailureSchedule { events }
    }

    /// The events, time-ordered.
    pub fn events(&self) -> &[LinkEvent] {
        &self.events
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of down-transitions (failures).
    pub fn failures(&self) -> usize {
        self.events.iter().filter(|e| !e.up).count()
    }

    /// Queues every event into an engine.
    ///
    /// # Panics
    /// Panics if any event lies in the engine's past.
    pub fn apply<P: Protocol>(&self, engine: &mut Engine<P>) {
        self.apply_caused(engine, None);
    }

    /// Like [`apply`](FailureSchedule::apply), but attributes every queued
    /// link change to `cause` in the causal event log (e.g. the
    /// fault-plan-applied record that installed this schedule).
    pub(crate) fn apply_caused<P: Protocol>(&self, engine: &mut Engine<P>, cause: Option<EventId>) {
        for e in &self.events {
            engine.schedule_link_change_caused(e.link, e.up, e.at, cause);
        }
    }
}

/// One phase of an open-storm load ramp: a constant offered rate of
/// route-setup opens held for a duration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StormPhase {
    /// Phase length in milliseconds.
    pub duration_ms: u64,
    /// Route-setup opens offered per second of simulated time.
    pub opens_per_sec: u64,
}

/// One client open arrival drawn from an [`OpenStorm`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpenArrival {
    /// When the client offers the open.
    pub at: SimTime,
    /// Source AD (whose Route Server serves the open).
    pub src: AdId,
    /// Destination AD.
    pub dst: AdId,
    /// Index of the [`StormPhase`] the arrival belongs to.
    pub phase: usize,
}

/// A deterministic open-storm workload: route-setup arrivals over a
/// multi-phase load ramp, the offered side of the overload experiments.
/// Arrival times are uniform within each phase and endpoints are drawn
/// uniformly over distinct AD pairs; the same inputs always produce the
/// same storm.
#[derive(Clone, Debug, Default)]
pub struct OpenStorm {
    arrivals: Vec<OpenArrival>,
}

impl OpenStorm {
    /// Draws a storm for `topo` starting at `start` under the given load
    /// ramp. Each phase contributes `opens_per_sec × duration` arrivals.
    pub fn draw(topo: &Topology, phases: &[StormPhase], start: SimTime, seed: u64) -> OpenStorm {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_ads = topo.num_ads();
        let mut arrivals = Vec::new();
        let mut phase_start = start;
        for (phase, p) in phases.iter().enumerate() {
            let span_us = p.duration_ms * 1000;
            let count = (p.opens_per_sec * p.duration_ms) / 1000;
            for _ in 0..count {
                let off = rng.gen_range(0..span_us.max(1));
                let src = AdId(rng.gen_range(0..n_ads) as u32);
                let mut dst = AdId(rng.gen_range(0..n_ads) as u32);
                if dst == src {
                    dst = AdId(((dst.index() + 1) % n_ads) as u32);
                }
                arrivals.push(OpenArrival {
                    at: phase_start.plus_us(off),
                    src,
                    dst,
                    phase,
                });
            }
            phase_start = phase_start.plus_us(span_us);
        }
        arrivals.sort_by_key(|a| (a.at, a.src, a.dst));
        OpenStorm { arrivals }
    }

    /// The arrivals, time-ordered.
    pub fn arrivals(&self) -> &[OpenArrival] {
        &self.arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_topology::generate::ring;

    #[test]
    fn deterministic_draws() {
        let topo = ring(8);
        let model = FailureModel {
            seed: 3,
            ..Default::default()
        };
        let a = FailureSchedule::draw(&topo, &model, SimTime::ZERO, 2_000);
        let b = FailureSchedule::draw(&topo, &model, SimTime::ZERO, 2_000);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_seeds_differ() {
        let topo = ring(8);
        let a = FailureSchedule::draw(
            &topo,
            &FailureModel {
                seed: 1,
                fallible_fraction: 1.0,
                ..Default::default()
            },
            SimTime::ZERO,
            2_000,
        );
        let b = FailureSchedule::draw(
            &topo,
            &FailureModel {
                seed: 2,
                fallible_fraction: 1.0,
                ..Default::default()
            },
            SimTime::ZERO,
            2_000,
        );
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn events_ordered_and_alternating_per_link() {
        let topo = ring(6);
        let model = FailureModel {
            fallible_fraction: 1.0,
            mtbf_ms: 50.0,
            mttr_ms: 20.0,
            seed: 9,
        };
        let s = FailureSchedule::draw(&topo, &model, SimTime::ZERO, 1_000);
        assert!(!s.is_empty());
        assert!(
            s.failures() >= s.events().len() / 2,
            "first event per link is a failure"
        );
        let mut last = SimTime::ZERO;
        for e in s.events() {
            assert!(e.at >= last);
            last = e.at;
        }
        // Per link: strict alternation starting with a failure.
        for link in topo.links() {
            let mine: Vec<_> = s.events().iter().filter(|e| e.link == link.id).collect();
            for (i, e) in mine.iter().enumerate() {
                assert_eq!(e.up, i % 2 == 1, "link {} event {i} out of order", link.id);
            }
        }
    }

    #[test]
    fn horizon_and_start_respected() {
        let topo = ring(6);
        let model = FailureModel {
            fallible_fraction: 1.0,
            seed: 4,
            ..Default::default()
        };
        let start = SimTime::from_ms(100);
        let s = FailureSchedule::draw(&topo, &model, start, 500);
        for e in s.events() {
            assert!(e.at >= start);
            assert!(e.at < start.plus_us(500_000));
        }
    }

    #[test]
    fn zero_fraction_means_no_events() {
        let topo = ring(6);
        let model = FailureModel {
            fallible_fraction: 0.0,
            ..Default::default()
        };
        let s = FailureSchedule::draw(&topo, &model, SimTime::ZERO, 10_000);
        assert!(s.is_empty());
        assert_eq!(s.failures(), 0);
    }

    #[test]
    fn open_storm_is_deterministic_and_phased() {
        let topo = ring(8);
        let phases = [
            StormPhase {
                duration_ms: 100,
                opens_per_sec: 500,
            },
            StormPhase {
                duration_ms: 50,
                opens_per_sec: 2000,
            },
        ];
        let a = OpenStorm::draw(&topo, &phases, SimTime::ZERO, 7);
        let b = OpenStorm::draw(&topo, &phases, SimTime::ZERO, 7);
        assert_eq!(a.arrivals(), b.arrivals());
        assert_eq!(a.arrivals().len(), 50 + 100);
        let mut last = SimTime::ZERO;
        for arr in a.arrivals() {
            assert!(arr.at >= last, "arrivals must be time-ordered");
            last = arr.at;
            assert_ne!(arr.src, arr.dst);
            if arr.phase == 0 {
                assert!(arr.at < SimTime::from_ms(100));
            } else {
                assert!(arr.at >= SimTime::from_ms(100));
                assert!(arr.at < SimTime::from_ms(150));
            }
        }
        let c = OpenStorm::draw(&topo, &phases, SimTime::ZERO, 8);
        assert_ne!(a.arrivals(), c.arrivals());
    }

    #[test]
    fn hand_built_schedules_sort() {
        let s = FailureSchedule::from_events(vec![
            LinkEvent {
                at: SimTime(500),
                link: LinkId(1),
                up: true,
            },
            LinkEvent {
                at: SimTime(100),
                link: LinkId(1),
                up: false,
            },
        ]);
        assert_eq!(s.events()[0].at, SimTime(100));
        assert_eq!(s.events().len(), 2);
    }
}

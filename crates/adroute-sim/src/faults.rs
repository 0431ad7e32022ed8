//! Unified fault injection: link churn, lossy channels, router crashes.
//!
//! The paper's operating model (Section 2.2) is an internet whose inter-AD
//! links fail and recover continuously while the routing fabric keeps
//! forwarding. [`FailureSchedule`] realizes the
//! clean link-flip half of that regime; a [`FaultPlan`] composes it with
//! the messier rest:
//!
//! - **Channel faults** ([`ChannelFaults`]): per-message loss,
//!   corruption (detected at the receiver and dropped), duplication, and
//!   reordering (extra delay jitter). Each message's fate is a pure
//!   function of its *identity* — the configured seed, the sending AD,
//!   and the sender's cumulative send ordinal — drawn from a fresh
//!   counter-keyed RNG per message, so verdicts are independent of
//!   global draw order.
//! - **Router crashes** ([`CrashModel`], [`RouterOutage`]): a crashed
//!   router loses *all* soft state — it is rebuilt from
//!   [`Protocol::make_router`] at restart —
//!   and its links share its fate, so neighbors observe ordinary
//!   link-down/link-up events and their existing resynchronization logic
//!   heals the reborn router.
//!
//! A plan drawn with `heal = true` (the default) additionally guarantees a
//! clean ending: outstanding failures are repaired at the horizon, channel
//! faults stop there, and a **resynchronization sweep** re-fires a link-up
//! event on every operational link just after — modeling the periodic
//! refresh every deployed routing protocol runs, compressed into a single
//! round. Quiescence after an applied healed plan therefore means full
//! reconvergence, which is what the chaos tests assert against.
//!
//! Data planes layered on top re-sync *after* that sweep: the ORWG
//! network's `refresh_from_engine` brings each Route Server's view to its
//! AD's flooded database at quiescence by re-deriving the origins whose
//! LSA changed and applying the difference as incremental deltas (falling
//! back to a full view install only when the structure changed), so a
//! recovery sweep does not flush every cached policy route in the
//! internet.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use adroute_topology::{AdId, LinkId, Topology};

use crate::engine::{Engine, Protocol};
use crate::event::SimTime;
use crate::obs::EventId;
use crate::schedule::{FailureModel, FailureSchedule, LinkEvent};

/// Per-message channel fault probabilities. All default to zero; a default
/// `ChannelFaults` is a perfect channel.
#[derive(Clone, Debug)]
pub struct ChannelFaults {
    /// Probability a message is silently lost in flight.
    pub loss: f64,
    /// Probability a message arrives corrupted; the receiver's checksum
    /// catches it and the message is dropped (counted separately).
    pub corrupt: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is delayed by extra jitter, letting later
    /// messages overtake it.
    pub reorder: f64,
    /// Maximum extra delay (µs) applied to reordered and duplicated
    /// copies.
    pub jitter_us: u64,
    /// Seed of the dedicated fault RNG.
    pub seed: u64,
    /// If set, faults only apply to messages sent at or before this time;
    /// afterwards the channel is clean. [`FaultPlan::draw`] sets this to
    /// the plan horizon so post-horizon reconvergence is loss-free.
    pub until: Option<SimTime>,
}

impl Default for ChannelFaults {
    fn default() -> ChannelFaults {
        ChannelFaults {
            loss: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            jitter_us: 500,
            seed: 0,
            until: None,
        }
    }
}

impl ChannelFaults {
    /// The lossy-channel recipe every chaos scenario uses: `loss`, with
    /// corruption and duplication at a quarter of it and reordering at
    /// half, drawn from `seed`.
    pub fn lossy(loss: f64, seed: u64) -> ChannelFaults {
        ChannelFaults {
            loss,
            corrupt: loss / 4.0,
            duplicate: loss / 4.0,
            reorder: loss / 2.0,
            seed,
            ..ChannelFaults::default()
        }
    }

    /// Whether faults still apply to messages sent at `now`.
    pub(crate) fn active_at(&self, now: SimTime) -> bool {
        self.until.is_none_or(|t| now <= t)
    }

    /// SplitMix64 finalizer over the message identity. `seed_from_u64`
    /// expands the result through SplitMix64 again, so this only needs to
    /// separate nearby `(sender, ordinal)` pairs — the two odd-constant
    /// multiplies do that.
    fn event_key(&self, from: AdId, ordinal: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((from.0 as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(ordinal.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Draws one message's fate as a **pure function of event identity**:
    /// the configured seed, the sending AD, and that sender's cumulative
    /// send ordinal. Each call seeds a fresh RNG from the mixed key, so
    /// the verdict does not depend on how many other messages anyone else
    /// has sent.
    ///
    /// The per-message draw order is fixed (loss, corruption, reorder,
    /// duplication) so identical configurations replay identically.
    pub(crate) fn judge(&self, from: AdId, ordinal: u64, base_delay_us: u64) -> ChannelVerdict {
        let mut rng = SmallRng::seed_from_u64(self.event_key(from, ordinal));
        if self.loss > 0.0 && rng.gen_bool(self.loss) {
            return ChannelVerdict::Lost;
        }
        if self.corrupt > 0.0 && rng.gen_bool(self.corrupt) {
            return ChannelVerdict::Corrupted;
        }
        let jitter = self.jitter_us.max(1);
        let mut delay_us = base_delay_us;
        let mut reordered = false;
        if self.reorder > 0.0 && rng.gen_bool(self.reorder) {
            reordered = true;
            delay_us += rng.gen_range(1..=jitter);
        }
        let duplicate_at_us = if self.duplicate > 0.0 && rng.gen_bool(self.duplicate) {
            Some(delay_us + rng.gen_range(1..=jitter))
        } else {
            None
        };
        ChannelVerdict::Pass {
            delay_us,
            duplicate_at_us,
            reordered,
        }
    }
}

/// What the channel decided to do with one message. Produced by
/// [`ChannelFaults::judge`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ChannelVerdict {
    /// Silently dropped in flight.
    Lost,
    /// Dropped by the receiver's checksum (payload corrupted).
    Corrupted,
    /// Delivered, possibly late and/or twice.
    Pass {
        /// Actual delay, ≥ the link delay (jitter only ever adds).
        delay_us: u64,
        /// If `Some`, a second copy arrives this long after the send.
        duplicate_at_us: Option<u64>,
        /// Whether jitter was applied (counted as a reorder).
        reordered: bool,
    },
}

/// Parameters of a random router crash/restart process, mirroring
/// [`FailureModel`] for links.
#[derive(Clone, Debug)]
pub struct CrashModel {
    /// Mean operating time before a router crashes, in milliseconds.
    pub mtbf_ms: f64,
    /// Mean reboot time, in milliseconds.
    pub mttr_ms: f64,
    /// Fraction of routers subject to crashing (the rest never do).
    pub fallible_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CrashModel {
    fn default() -> CrashModel {
        CrashModel {
            mtbf_ms: 800.0,
            mttr_ms: 150.0,
            fallible_fraction: 0.1,
            seed: 0,
        }
    }
}

/// One scheduled router outage: crash at `down_at`, restart at `up_at`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouterOutage {
    /// The router that crashes.
    pub ad: AdId,
    /// Crash time.
    pub down_at: SimTime,
    /// Restart time (strictly after `down_at`).
    pub up_at: SimTime,
}

/// What kinds of faults to draw; input to [`FaultPlan::draw`].
#[derive(Clone, Debug, Default)]
pub struct FaultSpec {
    /// Link up/down churn (None = stable links).
    pub link_model: Option<FailureModel>,
    /// Router crash/restart churn (None = stable routers).
    pub crash_model: Option<CrashModel>,
    /// Channel fault probabilities (None = perfect channel).
    pub channel: Option<ChannelFaults>,
    /// Byzantine per-AD misbehavior assignments (empty = everyone honest).
    pub misbehavior: MisbehaviorSpec,
}

/// One model of active AD misbehavior — the byzantine counterpart of the
/// crash/loss faults above. Each model maps onto the design point whose
/// trust assumptions it violates (Section 4 of the paper): hop-by-hop
/// schemes trust *advertisements*, the ORWG trusts *setup acknowledgments*.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MisbehaviorModel {
    /// path_vector: the AD re-advertises every route it knows to every
    /// neighbor with wildcard attributes, bypassing its own
    /// `TransitPolicy` offerings — the classic transit route leak.
    RouteLeak,
    /// naive_dv: the AD advertises distance 1 to every destination,
    /// attracting traffic it has no business carrying.
    DistanceFalsification,
    /// naive_dv: the AD advertises honestly but silently drops every
    /// transit packet on the data plane.
    Blackhole,
    /// linkstate/ls_hbh: the AD re-floods stale self-describing LSAs for
    /// other origins with abused (inflated) sequence numbers.
    LsaReplay,
    /// ecma: the AD advertises its up/down-rule-restricted (`alldown`)
    /// metric as equal to its unrestricted metric and forwards marked
    /// packets through the unrestricted table — violating the up/down
    /// rule that keeps hierarchical routing policy-safe.
    UpDownViolation,
    /// ORWG data plane: the AD's Policy Gateway acknowledges setups its
    /// own policy forbids, installing handles it should have refused.
    ForgedAck,
}

impl MisbehaviorModel {
    /// Every model, in a stable order (CLI listings, experiment sweeps).
    pub const ALL: [MisbehaviorModel; 6] = [
        MisbehaviorModel::RouteLeak,
        MisbehaviorModel::DistanceFalsification,
        MisbehaviorModel::Blackhole,
        MisbehaviorModel::LsaReplay,
        MisbehaviorModel::UpDownViolation,
        MisbehaviorModel::ForgedAck,
    ];

    /// Stable machine-readable tag (event records, CLI `--byzantine`).
    pub fn tag(&self) -> &'static str {
        match self {
            MisbehaviorModel::RouteLeak => "route-leak",
            MisbehaviorModel::DistanceFalsification => "distance-falsification",
            MisbehaviorModel::Blackhole => "blackhole",
            MisbehaviorModel::LsaReplay => "lsa-replay",
            MisbehaviorModel::UpDownViolation => "up-down-violation",
            MisbehaviorModel::ForgedAck => "forged-ack",
        }
    }

    /// Parses a [`MisbehaviorModel::tag`] back to the model.
    pub fn parse(s: &str) -> Option<MisbehaviorModel> {
        MisbehaviorModel::ALL.into_iter().find(|m| m.tag() == s)
    }
}

/// Per-AD misbehavior assignments, the byzantine half of a [`FaultSpec`].
///
/// The spec is protocol-agnostic: it records *which* ADs misbehave *how*;
/// each protocol engine (and the ORWG network) interprets the assignments
/// it understands and ignores the rest, so one spec drives the same
/// scenario across all four design points.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MisbehaviorSpec {
    assignments: Vec<(AdId, MisbehaviorModel)>,
}

impl MisbehaviorSpec {
    /// A single misbehaving AD.
    pub fn single(ad: AdId, model: MisbehaviorModel) -> MisbehaviorSpec {
        MisbehaviorSpec {
            assignments: vec![(ad, model)],
        }
    }

    /// Adds (or replaces) `ad`'s assignment, builder-style.
    pub(crate) fn assign(mut self, ad: AdId, model: MisbehaviorModel) -> MisbehaviorSpec {
        self.assignments.retain(|(a, _)| *a != ad);
        self.assignments.push((ad, model));
        self.assignments.sort_by_key(|(a, _)| *a);
        self
    }

    /// The model assigned to `ad`, if any.
    pub fn model_of(&self, ad: AdId) -> Option<MisbehaviorModel> {
        self.assignments
            .iter()
            .find(|(a, _)| *a == ad)
            .map(|(_, m)| *m)
    }

    /// All assignments, sorted by AD.
    pub fn assignments(&self) -> &[(AdId, MisbehaviorModel)] {
        &self.assignments
    }

    /// Deterministically picks `count` distinct *transit-capable* ADs
    /// (degree ≥ 2 — a stub cannot leak or blackhole through-traffic)
    /// and assigns each `model`. Falls back to any AD when the topology
    /// has too few transits.
    pub fn draw(topo: &Topology, model: MisbehaviorModel, count: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut transit: Vec<AdId> = topo.ad_ids().filter(|ad| topo.degree(*ad) >= 2).collect();
        if transit.len() < count {
            transit = topo.ad_ids().collect();
        }
        let mut spec = MisbehaviorSpec::default();
        for _ in 0..count.min(transit.len()) {
            let i = rng.gen_range(0..transit.len());
            let ad = transit.swap_remove(i);
            spec = spec.assign(ad, model);
        }
        spec
    }
}

/// A partition fault: a **cut set** of links fails simultaneously,
/// splitting the flooding domain into two islands that cannot exchange
/// any routing traffic until the cut heals.
///
/// The split is by AD index: ADs `< split` form the left island, the rest
/// the right. During the cut, every metric toward the far island
/// legitimately counts toward infinity and every far destination is
/// unreachable — the partition-aware monitors
/// ([`Observation::MetricSample`](crate::monitor::Observation)'s
/// `reachable` flag) must not quarantine anyone for that.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// The cut set: every operational link with one endpoint on each side.
    pub cut: Vec<LinkId>,
    /// ADs `< split` are the left island; the rest are the right.
    pub split: u32,
    /// When the cut set goes down (the partition begins).
    pub at: SimTime,
    /// When the cut set comes back up (the heal).
    pub heal_at: SimTime,
}

/// A concrete, deterministic fault scenario over a time horizon: link
/// events, router outages, and a channel fault configuration, ready to
/// [`apply`](FaultPlan::apply) to an engine.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    links: FailureSchedule,
    outages: Vec<RouterOutage>,
    channel: Option<ChannelFaults>,
    misbehavior: MisbehaviorSpec,
    partition: Option<PartitionSpec>,
    horizon_end: SimTime,
    heal: bool,
}

impl FaultPlan {
    /// Draws a healed plan for `topo` over `[start, start + horizon_ms)`.
    ///
    /// Healed means the plan ends clean: every outage restarts by the
    /// horizon, link repairs the schedule left hanging are forced at the
    /// horizon by [`apply`](FaultPlan::apply), channel faults stop at the
    /// horizon, and a resynchronization sweep follows. The same inputs
    /// always produce the same plan.
    pub fn draw(topo: &Topology, spec: &FaultSpec, start: SimTime, horizon_ms: u64) -> FaultPlan {
        let end = start.plus_us(horizon_ms * 1000);
        let links = spec
            .link_model
            .as_ref()
            .map(|m| FailureSchedule::draw(topo, m, start, horizon_ms))
            .unwrap_or_default();
        let outages = spec
            .crash_model
            .as_ref()
            .map(|m| draw_outages(topo, m, start, end))
            .unwrap_or_default();
        let mut channel = spec.channel.clone();
        if let Some(ch) = &mut channel {
            ch.until.get_or_insert(end);
        }
        FaultPlan {
            links,
            outages,
            channel,
            misbehavior: spec.misbehavior.clone(),
            partition: None,
            horizon_end: end,
            heal: true,
        }
    }

    /// A pure partition plan: the cut set of every operational link
    /// straddling AD index `split` goes down at `at` and heals at
    /// `heal_at`, with the standard healed ending (resynchronization
    /// sweep just past the horizon). No other faults are injected, so
    /// any quarantine fired during `[at, heal_at)` is a false positive
    /// by construction — the property `tests/monitors.rs` pins down.
    ///
    /// Returns `None` if the split produces no cut set (an empty side,
    /// or no straddling links — the domain would not actually split).
    pub fn partition(
        topo: &Topology,
        split: u32,
        at: SimTime,
        heal_at: SimTime,
    ) -> Option<FaultPlan> {
        assert!(at < heal_at, "partition must heal after it cuts");
        let cut = cut_set(topo, split);
        if cut.is_empty() || split == 0 || split as usize >= topo.num_ads() {
            return None;
        }
        let mut events = Vec::with_capacity(cut.len() * 2);
        for &link in &cut {
            events.push(LinkEvent {
                at,
                link,
                up: false,
            });
            events.push(LinkEvent {
                at: heal_at,
                link,
                up: true,
            });
        }
        Some(FaultPlan {
            links: FailureSchedule::from_events(events),
            outages: Vec::new(),
            channel: None,
            misbehavior: MisbehaviorSpec::default(),
            partition: Some(PartitionSpec {
                cut,
                split,
                at,
                heal_at,
            }),
            horizon_end: heal_at,
            heal: true,
        })
    }

    /// Composes a partition into an existing plan, builder-style: the cut
    /// set's down/heal events merge into the link schedule and the plan
    /// horizon extends to cover the heal. Returns the plan unchanged when
    /// the split yields no cut set.
    pub fn with_partition(
        mut self,
        topo: &Topology,
        split: u32,
        at: SimTime,
        heal_at: SimTime,
    ) -> FaultPlan {
        let Some(part) = FaultPlan::partition(topo, split, at, heal_at) else {
            return self;
        };
        let mut events = self.links.events().to_vec();
        events.extend_from_slice(part.links.events());
        self.links = FailureSchedule::from_events(events);
        self.partition = part.partition;
        self.horizon_end = self.horizon_end.max(heal_at);
        self
    }

    /// The link churn component.
    pub fn link_events(&self) -> &FailureSchedule {
        &self.links
    }

    /// The router outages, as drawn (unordered between routers).
    pub fn outages(&self) -> &[RouterOutage] {
        &self.outages
    }

    /// The partition component, if this plan cuts the flooding domain.
    pub fn partition_spec(&self) -> Option<&PartitionSpec> {
        self.partition.as_ref()
    }

    /// Queues every fault into the engine and installs the channel fault
    /// injector. With healing, also queues horizon repairs for links the
    /// schedule leaves down and a resynchronization sweep (a link-up
    /// re-fire on every operational link) 1 ms past the horizon.
    ///
    /// Byzantine assignments are *noted* (one `misbehavior-inject` record
    /// per misbehaving AD, child of the plan record) but not enacted —
    /// the engine is protocol-generic, so the caller wires the same
    /// [`MisbehaviorSpec`] into its protocol's violator hooks. The
    /// returned per-AD event ids are the causal roots detection alarms
    /// chain to.
    ///
    /// # Panics
    /// Panics if any event lies in the engine's past.
    pub fn apply<P: Protocol>(&self, engine: &mut Engine<P>) -> Vec<(AdId, Option<EventId>)> {
        // The plan record is the causal root of every fault it schedules:
        // span trees rooted here separate injected chaos from the
        // protocol reactions it provokes.
        let plan_id = engine.note(crate::obs::EventRecord::FaultPlanApplied {
            link_events: self.links.events().len() as u64,
            outages: self.outages.len() as u64,
            lossy: self.channel.is_some(),
        });
        let roots: Vec<(AdId, Option<EventId>)> = self
            .misbehavior
            .assignments()
            .iter()
            .map(|(ad, model)| {
                let id = engine.note_caused(
                    plan_id,
                    crate::obs::EventRecord::MisbehaviorInject {
                        ad: *ad,
                        model: model.tag(),
                    },
                );
                (*ad, id)
            })
            .collect();
        if let Some(p) = &self.partition {
            let n = engine.topo().num_ads() as u64;
            engine.note_caused(
                plan_id,
                crate::obs::EventRecord::PartitionCut {
                    links: p.cut.len() as u64,
                    left: p.split as u64,
                    right: n.saturating_sub(p.split as u64),
                },
            );
            engine.note_caused(
                plan_id,
                crate::obs::EventRecord::PartitionHeal {
                    links: p.cut.len() as u64,
                },
            );
        }
        // Final scheduled state per link: starts from current topology,
        // then follows the plan's events.
        let mut final_up: Vec<bool> = engine.topo().links().map(|l| l.up).collect();
        self.links.apply_caused(engine, plan_id);
        for e in self.links.events() {
            final_up[e.link.index()] = e.up;
        }
        for o in &self.outages {
            engine.schedule_router_change_caused(o.ad, false, o.down_at, plan_id);
            engine.schedule_router_change_caused(o.ad, true, o.up_at, plan_id);
        }
        // Only install channel faults the plan actually carries: a
        // channel-free plan (e.g. a pure partition) composed on top of a
        // lossy one must not silently clean the channel.
        if self.channel.is_some() {
            engine.set_channel_faults(self.channel.clone());
        }
        if self.heal {
            let link_ids: Vec<_> = engine.topo().links().map(|l| l.id).collect();
            for link in &link_ids {
                if !final_up[link.index()] {
                    engine.schedule_link_change_caused(*link, true, self.horizon_end, plan_id);
                    final_up[link.index()] = true;
                }
            }
            let sweep_at = self.horizon_end.plus_us(1000);
            for link in link_ids {
                if final_up[link.index()] {
                    engine.schedule_link_change_caused(link, true, sweep_at, plan_id);
                }
            }
        }
        roots
    }
}

/// Every currently-operational link with one endpoint on each side of the
/// AD-index `split` — downing all of them at once partitions the domain
/// (assuming the split separates the connectivity, which it does for the
/// contiguous generators used throughout this repo).
fn cut_set(topo: &Topology, split: u32) -> Vec<LinkId> {
    topo.links()
        .filter(|l| l.up && ((l.a.0 < split) != (l.b.0 < split)))
        .map(|l| l.id)
        .collect()
}

/// Draws alternating crash/restart outages per fallible router, every
/// restart clamped to the horizon so healed plans end with all routers up.
fn draw_outages(
    topo: &Topology,
    model: &CrashModel,
    start: SimTime,
    end: SimTime,
) -> Vec<RouterOutage> {
    let mut rng = SmallRng::seed_from_u64(model.seed);
    let mut outages = Vec::new();
    for ad in topo.ad_ids() {
        if !rng.gen_bool(model.fallible_fraction.clamp(0.0, 1.0)) {
            continue;
        }
        let mut t = start;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let uptime_ms = (-model.mtbf_ms * u.ln()).max(1.0);
            let down_at = t.plus_us((uptime_ms * 1000.0) as u64);
            if down_at >= end {
                break;
            }
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let repair_ms = (-model.mttr_ms * u.ln()).max(1.0);
            let up_at = SimTime(down_at.plus_us((repair_ms * 1000.0) as u64).0.min(end.0));
            outages.push(RouterOutage { ad, down_at, up_at });
            t = up_at;
            if t >= end {
                break;
            }
        }
    }
    outages.sort_by_key(|o| (o.down_at, o.ad));
    outages
}

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_topology::generate::ring;

    fn spec() -> FaultSpec {
        FaultSpec {
            link_model: Some(FailureModel {
                mtbf_ms: 100.0,
                mttr_ms: 40.0,
                fallible_fraction: 0.5,
                seed: 5,
            }),
            crash_model: Some(CrashModel {
                mtbf_ms: 150.0,
                mttr_ms: 60.0,
                fallible_fraction: 0.5,
                seed: 7,
            }),
            channel: Some(ChannelFaults {
                loss: 0.05,
                seed: 11,
                ..ChannelFaults::default()
            }),
            misbehavior: MisbehaviorSpec::default(),
        }
    }

    #[test]
    fn misbehavior_spec_assignment_and_draw() {
        let topo = ring(8);
        let spec = MisbehaviorSpec::single(AdId(3), MisbehaviorModel::RouteLeak)
            .assign(AdId(5), MisbehaviorModel::Blackhole)
            .assign(AdId(3), MisbehaviorModel::ForgedAck);
        assert_eq!(spec.model_of(AdId(3)), Some(MisbehaviorModel::ForgedAck));
        assert_eq!(spec.model_of(AdId(5)), Some(MisbehaviorModel::Blackhole));
        assert_eq!(spec.model_of(AdId(0)), None);
        assert_eq!(
            spec.assignments(),
            [
                (AdId(3), MisbehaviorModel::ForgedAck),
                (AdId(5), MisbehaviorModel::Blackhole)
            ]
        );
        let a = MisbehaviorSpec::draw(&topo, MisbehaviorModel::RouteLeak, 2, 9);
        let b = MisbehaviorSpec::draw(&topo, MisbehaviorModel::RouteLeak, 2, 9);
        assert_eq!(a, b, "draws are deterministic");
        assert_eq!(a.assignments().len(), 2);
        for m in MisbehaviorModel::ALL {
            assert_eq!(MisbehaviorModel::parse(m.tag()), Some(m));
        }
        assert_eq!(MisbehaviorModel::parse("nonsense"), None);
    }

    #[test]
    fn draws_are_deterministic() {
        let topo = ring(10);
        let a = FaultPlan::draw(&topo, &spec(), SimTime::ZERO, 1_000);
        let b = FaultPlan::draw(&topo, &spec(), SimTime::ZERO, 1_000);
        assert_eq!(a.link_events().events(), b.link_events().events());
        assert_eq!(a.outages(), b.outages());
        assert!(!a.outages().is_empty() || !a.link_events().is_empty());
    }

    #[test]
    fn outages_heal_within_horizon() {
        let topo = ring(12);
        let plan = FaultPlan::draw(&topo, &spec(), SimTime::ZERO, 800);
        assert!(!plan.outages().is_empty(), "seed should crash someone");
        for o in plan.outages() {
            assert!(o.down_at < o.up_at);
            assert!(o.up_at <= plan.horizon_end);
        }
        // Per router: outages do not overlap.
        for ad in topo.ad_ids() {
            let mine: Vec<_> = plan.outages().iter().filter(|o| o.ad == ad).collect();
            for w in mine.windows(2) {
                assert!(w[0].up_at <= w[1].down_at);
            }
        }
    }

    #[test]
    fn channel_faults_stop_at_horizon() {
        let topo = ring(6);
        let plan = FaultPlan::draw(&topo, &spec(), SimTime::ZERO, 500);
        let ch = plan.channel.as_ref().expect("spec has a channel");
        assert_eq!(ch.until, Some(plan.horizon_end));
        assert!(ch.active_at(SimTime::ZERO));
        assert!(ch.active_at(plan.horizon_end));
        assert!(!ch.active_at(plan.horizon_end.plus_us(1)));
    }

    #[test]
    fn empty_spec_empty_plan() {
        let topo = ring(6);
        let plan = FaultPlan::draw(&topo, &FaultSpec::default(), SimTime::ZERO, 1_000);
        assert!(plan.link_events().is_empty());
        assert!(plan.outages().is_empty());
        assert!(plan.channel.is_none());
        assert!(plan.misbehavior.assignments().is_empty());
    }
}

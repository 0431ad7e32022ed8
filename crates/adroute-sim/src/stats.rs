//! Measurement counters shared by every experiment.

use crate::event::SimTime;
use crate::obs::json::JsonWriter;
use crate::obs::{Counter, Ledger, Output};

/// Counters accumulated during a simulation run.
///
/// Besides the message counters, protocols count their work under
/// [`Counter`] keys (e.g. [`Counter::DvRecompute`],
/// [`Counter::FloodDup`]), which is how the computation-burden
/// experiments (paper Sections 5.2/5.3) are measured without wall-clock
/// noise.
///
/// Multi-phase experiments (converge, then fail a link, then measure the
/// failure response) should mark boundaries with
/// [`Engine::begin_phase`](crate::Engine::begin_phase) and read per-phase
/// deltas via [`Stats::phase_delta`]. Phase scoping never zeroes a
/// total: `per_ad_msgs` doubles as the channel-fault draw ordinal, so it
/// must only ever grow.
///
/// The public fields stay fields because `benchmark/` reads them by
/// name, as it does `counter`, `conserves_messages` and
/// `max_per_ad_msgs`; ROADMAP "One measurement stack" moves them into
/// the ledger.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Control messages sent (per-hop transmissions, not end-to-end).
    pub msgs_sent: u64,
    /// Total encoded bytes of control messages sent.
    pub bytes_sent: u64,
    /// Control messages delivered.
    pub msgs_delivered: u64,
    /// Events processed in total.
    pub events: u64,
    /// Time of the last control-plane activity (convergence time).
    pub last_activity: SimTime,
    /// Every other count, one per key; [`Stats::ledger`] adds the fields.
    pub(crate) counts: Ledger,
    /// Phase marks: `(name, snapshot at phase start)`, in start order.
    phases: Vec<(&'static str, Box<Stats>)>,
    /// Per-AD control messages sent, indexed by AD.
    pub per_ad_msgs: Vec<u64>,
}

impl Stats {
    /// Creates stats sized for `num_ads` ADs.
    pub(crate) fn new(num_ads: usize) -> Stats {
        Stats {
            per_ad_msgs: vec![0; num_ads],
            ..Stats::default()
        }
    }

    /// Every count as one ledger: the fields projected onto their keys
    /// beside the counted ones.
    pub fn ledger(&self) -> Ledger {
        let mut l = self.counts.clone();
        l.add(Counter::MsgsSent, self.msgs_sent);
        l.add(Counter::BytesSent, self.bytes_sent);
        l.add(Counter::MsgsDelivered, self.msgs_delivered);
        l.add(Counter::Events, self.events);
        l
    }

    /// Reads `key`.
    pub fn get(&self, key: Counter) -> u64 {
        self.ledger().get(key)
    }

    /// Reads the key named `name` (0 for a name no key has).
    pub fn counter(&self, name: &str) -> u64 {
        Counter::named(name).map_or(0, |k| self.get(k))
    }

    /// The maximum per-AD message count (hot-spot measure).
    pub fn max_per_ad_msgs(&self) -> u64 {
        self.per_ad_msgs.iter().copied().max().unwrap_or(0)
    }

    /// Marks the start of a named measurement phase (`"converge"`,
    /// `"failure-response"`, `"churn"`, …). Cumulative totals keep
    /// accumulating; [`Stats::phase_delta`] later recovers what happened
    /// within each phase by differencing snapshots. Phase names should be
    /// unique per run — deltas resolve the first occurrence of a name.
    pub(crate) fn begin_phase(&mut self, name: &'static str) {
        let mut snap = self.clone();
        snap.phases.clear();
        self.phases.push((name, Box::new(snap)));
    }

    /// Names of all phases begun so far, in start order.
    pub fn phase_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.phases.iter().map(|&(n, _)| n)
    }

    /// What happened within the named phase: the counter-wise difference
    /// between the phase's start snapshot and the next phase's start (or
    /// the current totals, for the last phase). `last_activity` in the
    /// delta is the absolute time of the last activity *within* the
    /// phase's window. Returns `None` for an unknown phase name.
    pub fn phase_delta(&self, name: &str) -> Option<Stats> {
        let i = self.phases.iter().position(|&(n, _)| n == name)?;
        let end = self.phases.get(i + 1).map_or(self, |(_, snap)| &**snap);
        Some(end.since(&self.phases[i].1))
    }

    /// Counter-wise difference `self - earlier` (saturating), used to
    /// compute per-phase deltas. `last_activity` keeps `self`'s absolute
    /// value; the phase list is empty.
    fn since(&self, earlier: &Stats) -> Stats {
        let per_ad = self.per_ad_msgs.iter().enumerate();
        Stats {
            msgs_sent: self.msgs_sent.saturating_sub(earlier.msgs_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            msgs_delivered: self.msgs_delivered.saturating_sub(earlier.msgs_delivered),
            events: self.events.saturating_sub(earlier.events),
            last_activity: self.last_activity,
            counts: self.counts.since(&earlier.counts),
            phases: Vec::new(),
            per_ad_msgs: per_ad
                .map(|(i, &v)| v.saturating_sub(earlier.per_ad_msgs.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }

    /// Message conservation at quiescence: every message that entered the
    /// channel (sent, plus injected duplicates) was delivered, lost, or
    /// corrupted. Source drops ([`Counter::MsgsDropped`]) never entered
    /// the channel and are accounted separately. Only meaningful when the
    /// event queue is empty — in-flight messages are still unresolved.
    pub fn conserves_messages(&self) -> bool {
        let c = |k| self.counts.get(k);
        self.msgs_sent + c(Counter::MsgsDuplicated)
            == self.msgs_delivered + c(Counter::MsgsLost) + c(Counter::MsgsCorrupted)
    }

    /// Renders the ledger as [`Output::Stats`] prints it, with the last
    /// activity and the per-AD hot-spot maximum, as one deterministic
    /// JSON object: the keys printed at zero are fixed fields, in table
    /// order, and the rest fill `counters`.
    pub fn to_json(&self) -> String {
        let (l, mut w) = (self.ledger(), JsonWriter::object());
        let mut counters = Vec::new();
        for &k in Counter::ALL {
            match k.printed_as(Output::Stats) {
                Some((name, true)) => {
                    w.put(name, l.get(k));
                }
                Some((name, false)) if l.get(k) > 0 => counters.push((name, l.get(k))),
                _ => {}
            }
        }
        counters.sort_unstable();
        let mut c = JsonWriter::object();
        for (name, v) in counters {
            c.put(name, v);
        }
        w.put("last_activity_us", self.last_activity.as_us())
            .put("max_per_ad_msgs", self.max_per_ad_msgs())
            .put("counters", c.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_counters() {
        let mut s = Stats::new(3);
        assert_eq!(s.counter("flood_dup"), 0);
        s.counts.add(Counter::FloodDup, 2);
        s.counts.add(Counter::FloodDup, 3);
        assert_eq!(s.counter("flood_dup"), 5);
        assert_eq!(s.counter("no_such_key"), 0);
        s.msgs_sent = 4;
        assert_eq!(s.counter("msgs_sent"), 4);
    }

    #[test]
    fn hotspot_measure() {
        let mut s = Stats::new(3);
        s.per_ad_msgs[1] = 9;
        s.per_ad_msgs[2] = 4;
        assert_eq!(s.max_per_ad_msgs(), 9);
        assert_eq!(Stats::new(0).max_per_ad_msgs(), 0);
    }

    #[test]
    fn phase_deltas_preserve_cumulative_totals() {
        let mut s = Stats::new(2);
        s.begin_phase("converge");
        s.msgs_sent = 10;
        s.bytes_sent = 100;
        s.per_ad_msgs[0] = 10;
        s.counts.add(Counter::FloodDup, 5);
        s.last_activity = SimTime(1000);
        s.begin_phase("failure-response");
        s.msgs_sent = 14;
        s.bytes_sent = 130;
        s.per_ad_msgs[0] = 12;
        s.per_ad_msgs[1] = 2;
        s.counts.add(Counter::FloodDup, 2);
        s.counts.add(Counter::RouterCrashes, 1);
        s.last_activity = SimTime(3000);

        let names: Vec<_> = s.phase_names().collect();
        assert_eq!(names, vec!["converge", "failure-response"]);

        let c = s.phase_delta("converge").unwrap();
        assert_eq!(c.msgs_sent, 10);
        assert_eq!(c.bytes_sent, 100);
        assert_eq!(c.counter("flood_dup"), 5);
        assert_eq!(c.per_ad_msgs, vec![10, 0]);
        assert_eq!(c.get(Counter::RouterCrashes), 0);

        let f = s.phase_delta("failure-response").unwrap();
        assert_eq!(f.msgs_sent, 4);
        assert_eq!(f.bytes_sent, 30);
        assert_eq!(f.counter("flood_dup"), 2);
        assert_eq!(f.per_ad_msgs, vec![2, 2]);
        assert_eq!(f.get(Counter::RouterCrashes), 1);
        assert_eq!(f.last_activity, SimTime(3000));

        assert!(s.phase_delta("nope").is_none());
        // The totals are untouched by phase accounting.
        assert_eq!(s.msgs_sent, 14);
        assert_eq!(s.counter("flood_dup"), 7);
        assert_eq!(s.get(Counter::RouterCrashes), 1);
        assert_eq!(s.per_ad_msgs, vec![12, 2]);
    }

    #[test]
    fn conservation_identity() {
        let mut s = Stats::new(1);
        s.msgs_sent = 5;
        s.counts.add(Counter::MsgsDuplicated, 1);
        s.msgs_delivered = 4;
        s.counts.add(Counter::MsgsLost, 1);
        s.counts.add(Counter::MsgsCorrupted, 1);
        // Source drops sit outside the channel identity.
        s.counts.add(Counter::MsgsDropped, 3);
        assert!(s.conserves_messages());
        s.msgs_delivered = 3;
        assert!(!s.conserves_messages());
    }

    #[test]
    fn stats_json_is_deterministic() {
        let mut s = Stats::new(2);
        s.msgs_sent = 3;
        s.counts.add(Counter::PvRecompute, 2);
        s.counts.add(Counter::DvRecompute, 1);
        let j = s.to_json();
        assert!(j.starts_with("{\"msgs_sent\":3,"));
        assert!(j.ends_with("\"counters\":{\"dv_recompute\":1,\"pv_recompute\":2}}"));
        assert_eq!(j, s.to_json());
    }
}

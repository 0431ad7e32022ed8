//! Measurement counters shared by every experiment.

use std::collections::BTreeMap;

use crate::event::SimTime;
use crate::obs::json::JsonWriter;

/// Counters accumulated during a simulation run.
///
/// Besides the fixed message counters, protocols record named work
/// counters (e.g. `"dijkstra"`, `"route_recompute"`, `"flood_dup"`), which
/// is how the computation-burden experiments (paper Sections 5.2/5.3) are
/// measured without wall-clock noise.
///
/// Multi-phase experiments (converge, then fail a link, then measure the
/// failure response) should mark boundaries with
/// [`Engine::begin_phase`](crate::Engine::begin_phase) and read per-phase
/// deltas via [`Stats::phase_delta`]. Phase scoping never zeroes a
/// total: `per_ad_msgs` doubles as the channel-fault draw ordinal, so it
/// must only ever grow.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Control messages sent (per-hop transmissions, not end-to-end).
    pub msgs_sent: u64,
    /// Total encoded bytes of control messages sent.
    pub bytes_sent: u64,
    /// Control messages delivered.
    pub msgs_delivered: u64,
    /// Messages a router tried to send to a non-neighbor or over a failed
    /// link; [`Ctx::send`](crate::Ctx::send) drops these at the source.
    /// Source drops never enter the channel, so they do not count in
    /// [`Stats::msgs_sent`]: attempted sends = `msgs_sent + msgs_dropped`.
    pub(crate) msgs_dropped: u64,
    /// Messages lost in flight: the carrying link failed, the destination
    /// router was down, or an injected channel fault ate the packet.
    pub msgs_lost: u64,
    /// Messages dropped as corrupted by an injected channel fault
    /// (modeling a checksum failure at the receiver).
    pub msgs_corrupted: u64,
    /// Extra copies delivered by an injected duplication fault.
    pub msgs_duplicated: u64,
    /// Messages delayed out of order by an injected reordering fault.
    pub msgs_reordered: u64,
    /// Router crash events processed.
    pub router_crashes: u64,
    /// Router restart events processed.
    pub router_restarts: u64,
    /// Events processed in total.
    pub events: u64,
    /// Time of the last control-plane activity (convergence time).
    pub last_activity: SimTime,
    /// Named work counters incremented by protocols.
    counters: BTreeMap<&'static str, u64>,
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

    /// Adds `n` to the named counter.
    pub(crate) fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Reads a named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
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
        let start = &self.phases[i].1;
        let end: Stats = match self.phases.get(i + 1) {
            Some((_, snap)) => (**snap).clone(),
            None => {
                let mut cur = self.clone();
                cur.phases.clear();
                cur
            }
        };
        Some(end.minus(start))
    }

    /// Counter-wise difference `self - earlier` (saturating), used to
    /// compute per-phase deltas. `last_activity` keeps `self`'s absolute
    /// value; the phase list is cleared.
    fn minus(&self, earlier: &Stats) -> Stats {
        let mut d = Stats {
            msgs_sent: self.msgs_sent.saturating_sub(earlier.msgs_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            msgs_delivered: self.msgs_delivered.saturating_sub(earlier.msgs_delivered),
            msgs_dropped: self.msgs_dropped.saturating_sub(earlier.msgs_dropped),
            msgs_lost: self.msgs_lost.saturating_sub(earlier.msgs_lost),
            msgs_corrupted: self.msgs_corrupted.saturating_sub(earlier.msgs_corrupted),
            msgs_duplicated: self.msgs_duplicated.saturating_sub(earlier.msgs_duplicated),
            msgs_reordered: self.msgs_reordered.saturating_sub(earlier.msgs_reordered),
            router_crashes: self.router_crashes.saturating_sub(earlier.router_crashes),
            router_restarts: self.router_restarts.saturating_sub(earlier.router_restarts),
            events: self.events.saturating_sub(earlier.events),
            last_activity: self.last_activity,
            counters: BTreeMap::new(),
            phases: Vec::new(),
            per_ad_msgs: vec![0; self.per_ad_msgs.len()],
        };
        for (&k, &v) in &self.counters {
            let dv = v.saturating_sub(earlier.counter(k));
            if dv > 0 {
                d.counters.insert(k, dv);
            }
        }
        for (i, &v) in self.per_ad_msgs.iter().enumerate() {
            let prev = earlier.per_ad_msgs.get(i).copied().unwrap_or(0);
            d.per_ad_msgs[i] = v.saturating_sub(prev);
        }
        d
    }

    /// Message conservation at quiescence: every message that entered the
    /// channel (sent, plus injected duplicates) was delivered, lost, or
    /// corrupted. Source drops (`Stats::msgs_dropped`) never entered
    /// the channel and are accounted separately. Only meaningful when the
    /// event queue is empty — in-flight messages are still unresolved.
    pub fn conserves_messages(&self) -> bool {
        self.msgs_sent + self.msgs_duplicated
            == self.msgs_delivered + self.msgs_lost + self.msgs_corrupted
    }

    /// Renders the fixed counters, named counters, and the per-AD
    /// hot-spot maximum as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut counters = JsonWriter::object();
        for (k, v) in &self.counters {
            counters.put(k, v);
        }
        JsonWriter::object()
            .put("msgs_sent", self.msgs_sent)
            .put("bytes_sent", self.bytes_sent)
            .put("msgs_delivered", self.msgs_delivered)
            .put("msgs_dropped", self.msgs_dropped)
            .put("msgs_lost", self.msgs_lost)
            .put("msgs_corrupted", self.msgs_corrupted)
            .put("msgs_duplicated", self.msgs_duplicated)
            .put("msgs_reordered", self.msgs_reordered)
            .put("router_crashes", self.router_crashes)
            .put("router_restarts", self.router_restarts)
            .put("events", self.events)
            .put("last_activity_us", self.last_activity.as_us())
            .put("max_per_ad_msgs", self.max_per_ad_msgs())
            .put("counters", counters.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_counters() {
        let mut s = Stats::new(3);
        assert_eq!(s.counter("dijkstra"), 0);
        s.count("dijkstra", 2);
        s.count("dijkstra", 3);
        assert_eq!(s.counter("dijkstra"), 5);
        assert_eq!(s.counters.len(), 1);
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
        s.count("work", 5);
        s.last_activity = SimTime(1000);
        s.begin_phase("failure-response");
        s.msgs_sent = 14;
        s.bytes_sent = 130;
        s.per_ad_msgs[0] = 12;
        s.per_ad_msgs[1] = 2;
        s.count("work", 2);
        s.router_crashes = 1;
        s.last_activity = SimTime(3000);

        let names: Vec<_> = s.phase_names().collect();
        assert_eq!(names, vec!["converge", "failure-response"]);

        let c = s.phase_delta("converge").unwrap();
        assert_eq!(c.msgs_sent, 10);
        assert_eq!(c.bytes_sent, 100);
        assert_eq!(c.counter("work"), 5);
        assert_eq!(c.per_ad_msgs, vec![10, 0]);
        assert_eq!(c.router_crashes, 0);

        let f = s.phase_delta("failure-response").unwrap();
        assert_eq!(f.msgs_sent, 4);
        assert_eq!(f.bytes_sent, 30);
        assert_eq!(f.counter("work"), 2);
        assert_eq!(f.per_ad_msgs, vec![2, 2]);
        assert_eq!(f.router_crashes, 1);
        assert_eq!(f.last_activity, SimTime(3000));

        assert!(s.phase_delta("nope").is_none());
        // The totals are untouched by phase accounting.
        assert_eq!(s.msgs_sent, 14);
        assert_eq!(s.counter("work"), 7);
        assert_eq!(s.router_crashes, 1);
        assert_eq!(s.per_ad_msgs, vec![12, 2]);
    }

    #[test]
    fn conservation_identity() {
        let mut s = Stats::new(1);
        s.msgs_sent = 5;
        s.msgs_duplicated = 1;
        s.msgs_delivered = 4;
        s.msgs_lost = 1;
        s.msgs_corrupted = 1;
        s.msgs_dropped = 3; // source drops sit outside the channel identity
        assert!(s.conserves_messages());
        s.msgs_lost = 0;
        assert!(!s.conserves_messages());
    }

    #[test]
    fn stats_json_is_deterministic() {
        let mut s = Stats::new(2);
        s.msgs_sent = 3;
        s.count("b", 2);
        s.count("a", 1);
        let j = s.to_json();
        assert!(j.starts_with("{\"msgs_sent\":3,"));
        assert!(j.ends_with("\"counters\":{\"a\":1,\"b\":2}}"));
        assert_eq!(j, s.to_json());
    }
}

//! Causal analysis over the provenance-linked event stream.
//!
//! Every [`LoggedEvent`] carries an id and an
//! optional cause id, so an [`EventLog`] (or several
//! merged — the engine's control plane plus the ORWG data plane) is a
//! forest of span trees: a scheduled link failure is a root, the
//! link-down it produces is its child, each LSA reflood hop hangs off
//! the delivery that triggered it, and so on down to the last routing
//! change. [`CausalGraph`] materializes that forest and answers the
//! questions the paper's convergence experiments need:
//!
//! - [`critical_path`](CausalGraph::critical_path): the longest causal
//!   chain — the sequence of dependent events that gated convergence.
//! - [`storm_report`](CausalGraph::storm_report): per-root fan-out
//!   attribution (events, messages, distinct ADs touched, time span),
//!   i.e. *which* root cause amplified into *how much* churn.
//!
//! Causes always have smaller ids than their effects, so the graph is
//! acyclic by construction; a cause whose record was evicted from the
//! ring buffer (or lives in a stream that was not merged in) degrades
//! the event to a root, which keeps the storm report a true partition
//! of the retained events.

use std::collections::{BTreeMap, BTreeSet};

use adroute_topology::AdId;

use super::json::JsonWriter;
use super::{EventId, EventLog, LoggedEvent};
use crate::event::SimTime;

/// The causality forest over one or more event logs' retained records.
pub struct CausalGraph<'a> {
    /// All events, sorted by id (parents always precede children).
    nodes: Vec<&'a LoggedEvent>,
    /// Index of each node's resolved parent, if its cause was retained.
    parent: Vec<Option<usize>>,
    /// Causal depth: 0 for roots, parent depth + 1 otherwise.
    depth: Vec<u64>,
    /// Index of the root of each node's span tree (itself for roots).
    root: Vec<usize>,
}

impl<'a> CausalGraph<'a> {
    /// Builds the graph over the retained records of `logs`. Multiple
    /// logs are merged by id, which is why streams exported together use
    /// disjoint id bases (see
    /// [`DATA_STREAM_ID_BASE`](super::DATA_STREAM_ID_BASE)).
    pub fn build(logs: &[&'a EventLog]) -> CausalGraph<'a> {
        let mut nodes: Vec<&LoggedEvent> = logs.iter().flat_map(|l| l.iter()).collect();
        nodes.sort_by_key(|ev| ev.id);
        let mut index_of: BTreeMap<EventId, usize> = BTreeMap::new();
        for (i, ev) in nodes.iter().enumerate() {
            index_of.insert(ev.id, i);
        }
        let mut parent = vec![None; nodes.len()];
        let mut depth = vec![0u64; nodes.len()];
        let mut root: Vec<usize> = (0..nodes.len()).collect();
        for i in 0..nodes.len() {
            if let Some(c) = nodes[i].cause {
                // An unresolvable cause (evicted, or in an unmerged
                // stream) leaves the event a root of its own tree.
                if let Some(&p) = index_of.get(&c) {
                    if p < i {
                        parent[i] = Some(p);
                        depth[i] = depth[p] + 1;
                        root[i] = root[p];
                    }
                }
            }
        }
        CausalGraph {
            nodes,
            parent,
            depth,
            root,
        }
    }

    /// The events, sorted by id.
    pub fn events(&self) -> &[&'a LoggedEvent] {
        &self.nodes
    }

    /// The resolved parent of node `i`, if its cause was retained.
    pub fn parent_of(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// Causal depth of node `i` (0 for roots).
    pub fn depth_of(&self, i: usize) -> u64 {
        self.depth[i]
    }

    /// Index of the span-tree root node `i` belongs to.
    pub fn root_of(&self, i: usize) -> usize {
        self.root[i]
    }

    /// Whether every recorded cause id is strictly smaller than its
    /// event's id — the structural acyclicity invariant.
    pub fn is_acyclic_by_id(&self) -> bool {
        self.nodes
            .iter()
            .all(|ev| ev.cause.is_none_or(|c| c < ev.id))
    }

    /// The longest causal chain, root first. Ties are broken toward the
    /// latest (then highest-id) endpoint, so the result is deterministic
    /// and ends at the last routing change the slowest chain caused.
    pub fn critical_path(&self) -> Vec<&'a LoggedEvent> {
        let Some(end) = (0..self.nodes.len())
            .max_by_key(|&i| (self.depth[i], self.nodes[i].at, self.nodes[i].id))
        else {
            return Vec::new();
        };
        let mut path = Vec::with_capacity(self.depth[end] as usize + 1);
        let mut cur = Some(end);
        while let Some(i) = cur {
            path.push(self.nodes[i]);
            cur = self.parent[i];
        }
        path.reverse();
        path
    }

    /// Fan-out attribution per root cause, sorted by descending event
    /// count (root id breaking ties). Every retained event belongs to
    /// exactly one entry, so the per-root `events` counts partition
    /// [`events`](CausalGraph::events).
    pub fn storm_report(&self) -> Vec<StormEntry> {
        let mut acc: BTreeMap<usize, StormAcc> = BTreeMap::new();
        for i in 0..self.nodes.len() {
            let ev = self.nodes[i];
            let a = acc.entry(self.root[i]).or_default();
            a.events += 1;
            if ev.rec.is_message() {
                a.messages += 1;
            }
            for ad in ev.rec.ads().into_iter().flatten() {
                a.ads.insert(ad);
            }
            a.last_at = a.last_at.max(ev.at);
            a.max_depth = a.max_depth.max(self.depth[i]);
        }
        let mut out: Vec<StormEntry> = acc
            .into_iter()
            .map(|(r, a)| {
                let root = self.nodes[r];
                StormEntry {
                    root: root.id,
                    root_kind: root.rec.kind(),
                    at: root.at,
                    events: a.events,
                    messages: a.messages,
                    ads: a.ads.len() as u64,
                    span_us: a.last_at.as_us() - root.at.as_us(),
                    max_depth: a.max_depth,
                }
            })
            .collect();
        out.sort_by_key(|e| (std::cmp::Reverse(e.events), e.root));
        out
    }
}

/// Per-root accumulator used while building the storm report.
#[derive(Default)]
struct StormAcc {
    events: u64,
    messages: u64,
    ads: BTreeSet<AdId>,
    last_at: SimTime,
    max_depth: u64,
}

/// One storm-report row: the blast radius of a single root cause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StormEntry {
    /// Id of the root event.
    pub root: EventId,
    /// The root's kind tag (`"link-down"`, `"fault-plan"`, …).
    pub root_kind: &'static str,
    /// When the root fired.
    pub at: SimTime,
    /// Events in the root's span tree (including the root).
    pub events: u64,
    /// Wire messages among them.
    pub messages: u64,
    /// Distinct ADs those events involve.
    pub ads: u64,
    /// Microseconds from the root to the last event it caused.
    pub span_us: u64,
    /// Longest chain below the root.
    pub max_depth: u64,
}

impl StormEntry {
    /// One deterministic JSON object (fixed field order).
    pub fn to_json(&self) -> String {
        JsonWriter::object()
            .put("root", self.root.0)
            .put_str("kind", self.root_kind)
            .put("us", self.at.as_us())
            .put("events", self.events)
            .put("messages", self.messages)
            .put("ads", self.ads)
            .put("span_us", self.span_us)
            .put("depth", self.max_depth)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::EventRecord;
    use super::*;
    use adroute_topology::LinkId;

    /// Two span trees: a link-down cascade (depth 2) and a lone timer.
    fn sample_log() -> EventLog {
        let mut log = EventLog::new(16);
        let down = log.push(SimTime(10), None, EventRecord::LinkDown { link: LinkId(0) });
        let send = log.push(
            SimTime(10),
            down,
            EventRecord::MsgSend {
                from: AdId(0),
                to: AdId(1),
                link: LinkId(1),
                bytes: 8,
            },
        );
        log.push(
            SimTime(20),
            send,
            EventRecord::MsgDeliver {
                from: AdId(0),
                to: AdId(1),
                link: LinkId(1),
            },
        );
        log.push(
            SimTime(30),
            None,
            EventRecord::TimerFire {
                ad: AdId(7),
                token: 1,
            },
        );
        log
    }

    #[test]
    fn builds_span_trees_and_critical_path() {
        let log = sample_log();
        let g = CausalGraph::build(&[&log]);
        assert_eq!(g.events().len(), 4);
        assert!(g.is_acyclic_by_id());
        assert_eq!(g.depth_of(0), 0);
        assert_eq!(g.depth_of(2), 2);
        assert_eq!(g.root_of(2), 0);
        assert_eq!(g.root_of(3), 3);
        let path = g.critical_path();
        let kinds: Vec<&str> = path.iter().map(|ev| ev.rec.kind()).collect();
        assert_eq!(kinds, vec!["link-down", "send", "deliver"]);
    }

    #[test]
    fn storm_report_partitions_events() {
        let log = sample_log();
        let g = CausalGraph::build(&[&log]);
        let report = g.storm_report();
        assert_eq!(report.len(), 2);
        let total: u64 = report.iter().map(|e| e.events).sum();
        assert_eq!(total, g.events().len() as u64);
        // Biggest storm first: the link-down cascade.
        assert_eq!(report[0].root_kind, "link-down");
        assert_eq!(report[0].events, 3);
        assert_eq!(report[0].messages, 1);
        assert_eq!(report[0].ads, 2);
        assert_eq!(report[0].span_us, 10);
        assert_eq!(report[0].max_depth, 2);
        assert_eq!(report[1].root_kind, "timer");
        assert!(report[0]
            .to_json()
            .starts_with("{\"root\":0,\"kind\":\"link-down\""));
    }

    #[test]
    fn unresolved_causes_become_roots() {
        // Capacity 2: the first event is evicted, orphaning its child.
        let mut log = EventLog::new(2);
        let a = log.push(SimTime(1), None, EventRecord::Start { ad: AdId(0) });
        let b = log.push(SimTime(2), a, EventRecord::Crash { ad: AdId(0) });
        log.push(SimTime(3), b, EventRecord::Restart { ad: AdId(0) });
        let g = CausalGraph::build(&[&log]);
        assert_eq!(g.events().len(), 2);
        assert_eq!(g.depth_of(0), 0, "orphaned event degrades to a root");
        assert_eq!(g.depth_of(1), 1);
        let total: u64 = g.storm_report().iter().map(|e| e.events).sum();
        assert_eq!(total, 2, "partition holds despite the orphan");
    }

    #[test]
    fn merged_streams_keep_their_span_trees() {
        let log = sample_log();
        let mut data = EventLog::with_id_base(8, super::super::DATA_STREAM_ID_BASE);
        let open = data.push(
            SimTime(40),
            None,
            EventRecord::RouteSetupOpen {
                src: AdId(1),
                dst: AdId(7),
            },
        );
        data.push(
            SimTime(45),
            open,
            EventRecord::RouteSetupAck {
                src: AdId(1),
                dst: AdId(7),
                hops: 2,
                latency_us: 5,
            },
        );
        let g = CausalGraph::build(&[&log, &data]);
        assert_eq!(g.events().len(), 6);
        assert!(g.is_acyclic_by_id());
        // The ack hangs off the open, the root of its own span tree.
        assert_eq!(g.depth_of(5), 1);
        assert_eq!(g.root_of(5), 4);
    }
}

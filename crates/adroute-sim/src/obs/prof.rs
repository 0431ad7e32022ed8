//! `obs::prof` — the deterministic self-profiler.
//!
//! A [`Profiler`] records **timing spans**: a hierarchical tree of named
//! spans ([`Profiler::enter`] / [`Profiler::exit`]) with monotonic-clock
//! total/self time and call counts, exportable as a top-N table or a
//! flamegraph-ready folded-stack dump. Wall-clock numbers are *never*
//! part of any golden: they vary run to run and across hosts.
//!
//! The deterministic side of a profile, its work ledger, is not kept
//! here: `adroute profile` prints the engine's and the network's
//! [`Ledger`](super::Ledger)s as [`Output::Work`](super::Output::Work)
//! names them, which must be byte-identical across double runs
//! (`tests/profile_determinism.rs`). Span names are `&'static str` so
//! that an enabled profiler costs two `Vec` pushes and one
//! `Instant::now` per span, and a disabled one costs a single branch.
//!
//! Spans must be well-nested: [`Profiler::exit`] panics unless its name
//! matches the innermost open span. That turns instrumentation bugs
//! (a forgotten exit on an early-return path) into loud test failures
//! instead of silently corrupted attributions.

use std::fmt::Write as _;
use std::time::Instant;

use super::json::JsonWriter;

/// One node of the span tree: a named scope aggregated over every
/// `enter`/`exit` pair that reached it through the same ancestor path.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The span's name (e.g. `"engine.quiesce"`, `"open"`).
    pub name: &'static str,
    /// Index of the parent node, `None` for roots.
    pub parent: Option<usize>,
    /// Child node indices, in first-entered order.
    pub children: Vec<usize>,
    /// Number of completed `enter`/`exit` pairs.
    pub calls: u64,
    /// Total wall time spent inside the span, nanoseconds.
    pub wall_ns: u64,
    /// Wall time attributed to child spans, nanoseconds.
    pub(crate) child_ns: u64,
}

impl SpanNode {
    /// Wall time spent in this span but not in any child span.
    pub fn self_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.child_ns)
    }
}

/// An open span on the profiler stack.
#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    node: usize,
    started: Instant,
}

/// The self-profiler: a span-tree arena. Disabled by default (every
/// call is then a single branch); see the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    enabled: bool,
    spans: Vec<SpanNode>,
    roots: Vec<usize>,
    stack: Vec<OpenSpan>,
}

impl Profiler {
    /// A disabled profiler (the default state of every engine/network).
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// An enabled profiler.
    pub fn enabled() -> Profiler {
        Profiler {
            enabled: true,
            ..Profiler::default()
        }
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Opens a span named `name` under the innermost open span (or as a
    /// root). No-op when disabled.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().map(|o| o.node);
        let siblings = match parent {
            Some(p) => &self.spans[p].children,
            None => &self.roots,
        };
        let node = match siblings.iter().find(|&&c| self.spans[c].name == name) {
            Some(&c) => c,
            None => {
                let idx = self.spans.len();
                self.spans.push(SpanNode {
                    name,
                    parent,
                    children: Vec::new(),
                    calls: 0,
                    wall_ns: 0,
                    child_ns: 0,
                });
                match parent {
                    Some(p) => self.spans[p].children.push(idx),
                    None => self.roots.push(idx),
                }
                idx
            }
        };
        self.stack.push(OpenSpan {
            node,
            started: Instant::now(),
        });
    }

    /// Closes the innermost open span, which must be named `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not the innermost open span (or nothing is
    /// open) — mis-nested instrumentation is a bug, not a condition to
    /// tolerate.
    pub fn exit(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let open = self
            .stack
            .pop()
            .unwrap_or_else(|| panic!("prof: exit('{name}') with no open span"));
        let actual = self.spans[open.node].name;
        assert_eq!(
            actual, name,
            "prof: exit('{name}') but innermost open span is '{actual}'"
        );
        let elapsed = open.started.elapsed().as_nanos() as u64;
        let node = &mut self.spans[open.node];
        node.calls += 1;
        node.wall_ns += elapsed;
        if let Some(p) = node.parent {
            self.spans[p].child_ns += elapsed;
        }
    }

    /// Number of currently open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Name of the innermost open span, if any.
    pub fn current(&self) -> Option<&'static str> {
        self.stack.last().map(|o| self.spans[o.node].name)
    }

    /// The span nodes, indexable by the ids in [`SpanNode::children`].
    pub fn spans(&self) -> &[SpanNode] {
        &self.spans
    }

    /// Folds `other` into `self`: span trees graft by name path
    /// (calls/wall/child times sum). Used to combine the engine's and
    /// the ORWG network's profilers into one report. Panics if `other`
    /// still has open spans.
    pub fn merge_from(&mut self, other: &Profiler) {
        assert!(
            other.stack.is_empty(),
            "prof: merge_from a profiler with open spans"
        );
        if other.enabled {
            self.enabled = true;
        }
        for &r in &other.roots {
            self.graft(None, other, r);
        }
    }

    fn graft(&mut self, parent: Option<usize>, other: &Profiler, src: usize) {
        let s = &other.spans[src];
        let siblings = match parent {
            Some(p) => &self.spans[p].children,
            None => &self.roots,
        };
        let dst = match siblings.iter().find(|&&c| self.spans[c].name == s.name) {
            Some(&c) => c,
            None => {
                let idx = self.spans.len();
                self.spans.push(SpanNode {
                    name: s.name,
                    parent,
                    children: Vec::new(),
                    calls: 0,
                    wall_ns: 0,
                    child_ns: 0,
                });
                match parent {
                    Some(p) => self.spans[p].children.push(idx),
                    None => self.roots.push(idx),
                }
                idx
            }
        };
        {
            let d = &mut self.spans[dst];
            d.calls += s.calls;
            d.wall_ns += s.wall_ns;
            d.child_ns += s.child_ns;
        }
        for &c in &s.children.clone() {
            self.graft(Some(dst), other, c);
        }
    }

    /// Depth-first walk over `(path, node index)` pairs, children in
    /// first-entered order; `path` joins span names with `;` (the folded
    /// stack separator).
    fn walk(&self) -> Vec<(String, usize)> {
        fn rec(p: &Profiler, prefix: &str, idx: usize, out: &mut Vec<(String, usize)>) {
            let path = if prefix.is_empty() {
                p.spans[idx].name.to_string()
            } else {
                format!("{prefix};{}", p.spans[idx].name)
            };
            out.push((path.clone(), idx));
            for &c in &p.spans[idx].children {
                rec(p, &path, c, out);
            }
        }
        let mut out = Vec::new();
        for &r in &self.roots {
            rec(self, "", r, &mut out);
        }
        out
    }

    /// Flamegraph-ready folded-stack dump: one `path self_us` line per
    /// span (semicolon-separated path, self time in microseconds),
    /// depth-first in first-entered order. Feed straight into
    /// `flamegraph.pl`.
    pub fn fold(&self) -> String {
        let mut out = String::new();
        for (path, idx) in self.walk() {
            let _ = writeln!(out, "{path} {}", self.spans[idx].self_ns() / 1_000);
        }
        out
    }

    /// Puts the profile's `spans` field into an object the caller has
    /// started (the CLI leads with the scenario and the work ledger):
    /// `"spans":[{"path","calls","total_ns","self_ns"},..]`, whose
    /// *structure* (paths, order, calls) is deterministic and whose times
    /// vary run to run.
    pub fn json_fields(&self, w: &mut JsonWriter) {
        let spans = self.walk().into_iter().map(|(path, idx)| {
            let node = &self.spans[idx];
            JsonWriter::object()
                .put_str("path", &path)
                .put("calls", node.calls)
                .put("total_ns", node.wall_ns)
                .put("self_ns", node.self_ns())
                .finish()
        });
        w.put("spans", JsonWriter::array(spans));
    }

    /// A human-readable top-`n` table of spans by self time.
    pub fn table(&self, n: usize) -> String {
        let mut rows = self.walk();
        rows.sort_by(|a, b| {
            let (sa, sb) = (self.spans[a.1].self_ns(), self.spans[b.1].self_ns());
            sb.cmp(&sa).then(a.0.cmp(&b.0))
        });
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>12} {:>12} {:>10}  span",
            "self_ms", "total_ms", "calls"
        );
        for (path, idx) in rows.iter().take(n) {
            let node = &self.spans[*idx];
            let _ = writeln!(
                out,
                "{:>12.3} {:>12.3} {:>10}  {path}",
                node.self_ns() as f64 / 1e6,
                node.wall_ns as f64 / 1e6,
                node.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profile's fields as one JSON object.
    fn json(p: &Profiler) -> String {
        let mut w = JsonWriter::object();
        p.json_fields(&mut w);
        w.finish()
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::new();
        p.enter("a");
        p.exit("a");
        assert!(!p.enabled);
        assert_eq!(p.depth(), 0);
        assert!(p.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let mut p = Profiler::enabled();
        for _ in 0..3 {
            p.enter("run");
            p.enter("dispatch");
            p.exit("dispatch");
            p.enter("commit");
            p.exit("commit");
            p.exit("run");
        }
        assert_eq!(p.depth(), 0);
        let paths: Vec<String> = p.walk().into_iter().map(|(s, _)| s).collect();
        assert_eq!(paths, vec!["run", "run;dispatch", "run;commit"]);
        let run = &p.spans()[p.walk()[0].1];
        assert_eq!(run.calls, 3);
        let json = json(&p);
        assert!(json.contains("\"path\":\"run;dispatch\",\"calls\":3"));
        assert!(p.fold().lines().count() == 3);
        assert!(p.table(10).contains("run;commit"));
    }

    #[test]
    #[should_panic(expected = "innermost open span")]
    fn mismatched_exit_panics() {
        let mut p = Profiler::enabled();
        p.enter("a");
        p.enter("b");
        p.exit("a");
    }

    #[test]
    #[should_panic(expected = "no open span")]
    fn exit_without_enter_panics() {
        let mut p = Profiler::enabled();
        p.exit("a");
    }

    #[test]
    fn work_ledger_is_sorted_and_additive() {
        use crate::obs::{Counter, Ledger, Output};
        let mut l = Ledger::default();
        l.add(Counter::Sweeps, 2);
        l.add(Counter::Events, 1);
        l.add(Counter::Sweeps, 3);
        l.add(Counter::Searches, 0);
        assert_eq!(
            l.to_json(Output::Work),
            r#"{"engine/events":1,"synth/sweeps":5}"#,
            "name order; zero adds print nothing"
        );
    }

    #[test]
    fn merge_grafts_by_path_and_adds_ledgers() {
        use crate::obs::{Counter, Ledger};
        let mut a = Profiler::enabled();
        a.enter("run");
        a.enter("x");
        a.exit("x");
        a.exit("run");
        let mut b = Profiler::enabled();
        b.enter("run");
        b.enter("y");
        b.exit("y");
        b.exit("run");
        a.merge_from(&b);
        let paths: Vec<String> = a.walk().into_iter().map(|(s, _)| s).collect();
        assert_eq!(paths, vec!["run", "run;x", "run;y"]);
        // `run` aggregated both sides' calls.
        assert!(json(&a).contains("\"path\":\"run\",\"calls\":2"));
        // The engine's and the network's ledgers merge by key.
        let (mut la, mut lb) = (Ledger::default(), Ledger::default());
        la.add(Counter::Searches, 1);
        lb.add(Counter::Searches, 2);
        lb.add(Counter::Refills, 7);
        la += &lb;
        assert_eq!(
            (la.get(Counter::Searches), la.get(Counter::Refills)),
            (3, 7)
        );
    }

    #[test]
    #[should_panic(expected = "open spans")]
    fn merge_rejects_open_spans() {
        let mut a = Profiler::enabled();
        let mut b = Profiler::enabled();
        b.enter("open");
        a.merge_from(&b);
    }
}

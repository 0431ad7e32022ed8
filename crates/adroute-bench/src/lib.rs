//! The paper's experiments, each defined once (see `DESIGN.md` Section 5
//! for the index and `EXPERIMENTS.md` for recorded results).
//!
//! Every ledger experiment is a module here ([`t1`], [`f1`], [`e3`] …
//! [`e12`]) whose functions take a scale and return typed rows of
//! work-ledger quantities — messages, bytes, RIB/FIB entries, searches —
//! never wall time. Three callers read the same rows: the `benches/*.rs`
//! target (a plain `harness = false` binary) calls the function at paper
//! scale, prints the rows as a [`Table`] and prints the Reading, so
//! `cargo bench` regenerates the entire evaluation; `tests/shapes.rs`
//! calls it at test scale and asserts the paper's inequality; the
//! examples narrate it. `exp13_engine_scaling` and `micro` (Criterion)
//! are the wall-clock targets and stay in `benches/`.

use adroute_cli::scenario;
use adroute_policy::workload::PolicyWorkload;
use adroute_policy::{FlowSpec, PolicyDb};
use adroute_protocols::forwarding::{sample_flows, score_flows, DataPlane, FlowScore};
use adroute_sim::{Engine, Protocol};
use adroute_topology::{HierarchyConfig, LinkId, Topology};

pub mod e10;
pub mod e11;
pub mod e12;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod f1;
pub mod t1;

/// One column of a [`Table::of`]: its header, and a row's cell under it.
pub(crate) type Column<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

/// A printable results table with Markdown-style formatting.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table of `rows`, one line each: every column names its header
    /// and how a row renders in it.
    pub fn of<R>(title: &str, rows: &[R], columns: &[Column<'_, R>]) -> Table {
        let line = |r| columns.iter().map(|c| (c.1)(r)).collect();
        Table {
            title: title.to_string(),
            headers: columns.iter().map(|c| c.0.to_string()).collect(),
            rows: rows.iter().map(line).collect(),
        }
    }

    /// Prints the table as aligned Markdown.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n## {}\n", self.title);
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
            }
            s
        };
        println!("{}", line(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        println!("{sep}");
        for row in &self.rows {
            println!("{}", line(row));
        }
    }
}

/// Formats a float to two decimals (table cell helper).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a byte count as megabytes (10⁶) to two decimals.
pub fn mb(bytes: u64) -> String {
    f2(bytes as f64 / 1e6)
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// The canonical experiment internet at a given approximate scale.
pub fn internet(approx_ads: usize, seed: u64) -> Topology {
    HierarchyConfig::e_series(approx_ads, seed).generate()
}

/// What most experiments run on: an E-series internet, the mixed policy
/// workload and a flow sample, all drawn from one seed.
pub struct World {
    /// The internet.
    pub topo: Topology,
    /// Ground-truth transit policies.
    pub db: PolicyDb,
    /// Sampled best-effort flows.
    pub flows: Vec<FlowSpec>,
}

impl World {
    /// `flows` flows over `default_mix` policies on `internet(approx_ads, seed)`.
    pub fn mixed(approx_ads: usize, seed: u64, flows: usize) -> World {
        let topo = internet(approx_ads, seed);
        World {
            db: PolicyWorkload::default_mix(seed).generate(&topo),
            flows: sample_flows(&topo, flows, seed),
            topo,
        }
    }

    /// `proto` converged on this world, with its flows scored against the
    /// oracle through the shared data-plane harness.
    pub(crate) fn score<P: Protocol>(&self, proto: P) -> (Engine<P>, FlowScore)
    where
        Engine<P>: DataPlane,
    {
        let mut e = converged(&self.topo, proto);
        let score = score_flows(&mut e, &self.topo, &self.db, &self.flows);
        (e, score)
    }
}

/// `proto` run to quiescence on `topo`.
pub(crate) fn converged<P: Protocol>(topo: &Topology, proto: P) -> Engine<P> {
    let mut e = Engine::new(topo.clone(), proto);
    e.run_to_quiescence();
    e
}

/// A control plane's bill for converging and then absorbing one failure
/// event, from the `converge` / `failure-response` phase scopes.
#[derive(Clone, Copy, Debug)]
pub struct FailureResponse {
    /// Messages to initial convergence.
    pub msgs: u64,
    /// Bytes to initial convergence.
    pub bytes: u64,
    /// Simulated time of initial convergence, µs.
    pub converge_us: u64,
    /// Messages sent in response to the failure.
    pub fail_msgs: u64,
    /// Bytes sent in response to the failure.
    pub fail_bytes: u64,
    /// Simulated time from convergence to re-convergence, µs.
    pub reconverge_us: u64,
}

/// Converges `proto` on `topo`, fails every link `cut` picks at once and
/// re-converges — the CLI's own lifecycle
/// ([`scenario::converge_then_cut`]), read back as phase deltas.
pub(crate) fn failure_response<P: Protocol>(
    topo: &Topology,
    proto: P,
    cut: impl FnOnce(&Topology) -> Vec<LinkId>,
) -> FailureResponse {
    let mut e = Engine::new(topo.clone(), proto);
    let (converge_us, reconverge_us) = scenario::converge_then_cut(&mut e, &cut(topo));
    let phase = |name| {
        e.stats
            .phase_delta(name)
            .expect("phase begun by the lifecycle")
    };
    let (converge, response) = (phase("converge"), phase("failure-response"));
    FailureResponse {
        msgs: converge.msgs_sent,
        bytes: converge.bytes_sent,
        converge_us,
        fail_msgs: response.msgs_sent,
        fail_bytes: response.bytes_sent,
        reconverge_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panicking() {
        let rows = [(1, "xyz"), (22, "q")];
        let columns: [Column<'_, (i32, &str)>; 2] =
            [("a", &|r| r.0.to_string()), ("bb", &|r| r.1.to_string())];
        Table::of("demo", &rows, &columns).print();
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.5), "50.0%");
    }
}

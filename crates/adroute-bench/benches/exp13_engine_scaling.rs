//! **E13** (paper §2.2) — discrete-event core scaling to paper size.
//!
//! The paper's operating model targets ~10⁵ ADs. This experiment sweeps
//! internet size up to that target under the cheap gossip flood (whose
//! handlers are a few array reads, so the figure is the engine's own
//! ceiling) and reports wall-clock and events/sec for the sequential
//! engine and the region-parallel engine. The parallel engine's
//! journaling and sequential commit replay cost a roughly constant
//! overhead per event: on an engine-bound workload that overhead is the
//! whole story. Where handlers do real route computation it amortizes —
//! E13b converges the paper's own protocols sequentially and on 2 and 8
//! lanes and reports the ratios (on a single-CPU host they measure pure
//! overhead — see EXPERIMENTS.md E13).
//!
//! At the 10⁴-AD row it also prices the observability sinks (E15): the
//! same sequential flood with no sink, with the typed event log, and with
//! the self-profiler attached, reported as same-run ratios.

use std::time::Instant;

use adroute_bench::{f2, internet, Table};
use adroute_policy::workload::PolicyWorkload;
use adroute_protocols::ecma::Ecma;
use adroute_protocols::gossip::Gossip;
use adroute_protocols::ls_hbh::LsHbh;
use adroute_protocols::naive_dv::NaiveDv;
use adroute_protocols::path_vector::PathVector;
use adroute_sim::{Engine, Protocol};
use adroute_topology::Topology;

const WORKERS: usize = 8;

/// What a timed run attaches to its engine before the clock starts.
type Attach<P> = fn(&mut Engine<P>);
const NO_SINK: Attach<Gossip> = |_| {};

fn timed<P>(topo: &Topology, proto: P, workers: Option<usize>, attach: Attach<P>) -> (u64, f64)
where
    P: Protocol + Sync,
    P::Router: Send,
    P::Msg: Send,
{
    let mut e = Engine::new(topo.clone(), proto);
    attach(&mut e);
    // The 10^5-AD sweep legitimately dispatches more than the default
    // 50M-event runaway budget.
    e.max_events = 500_000_000;
    let t0 = Instant::now();
    match workers {
        None => e.run_to_quiescence(),
        Some(w) => e.run_to_quiescence_parallel(w),
    };
    (e.stats.events, t0.elapsed().as_secs_f64())
}

/// Wall-time ratios (typed event log, self-profiler) over the no-sink
/// run. Each mode keeps the best of three runs, interleaved so clock
/// drift hits all modes alike, which cancels scheduler noise out of the
/// ratios.
fn obs_overheads(topo: &Topology, g: Gossip) -> (f64, f64) {
    let modes: [Attach<Gossip>; 3] = [NO_SINK, |e| e.enable_obs(1 << 16), |e| e.enable_prof()];
    let mut best = [f64::MAX; 3];
    for _ in 0..3 {
        for (attach, b) in modes.iter().zip(&mut best) {
            *b = b.min(timed(topo, g, None, *attach).1);
        }
    }
    (best[1] / best[0], best[2] / best[0])
}

fn main() {
    // (ADs, links, events, sequential s, parallel s, sink ratios).
    let rows = [1_000usize, 10_000, 100_000].map(|scale| {
        let topo = internet(scale, 1990);
        let g = Gossip {
            origins: 8,
            rounds: 4,
            period_us: 50_000,
        };
        let (events, seq_s) = timed(&topo, g, None, NO_SINK);
        let (_, par_s) = timed(&topo, g, Some(WORKERS), NO_SINK);
        let sinks = (scale == 10_000).then(|| obs_overheads(&topo, g));
        (
            topo.num_ads(),
            topo.num_links(),
            events,
            seq_s,
            par_s,
            sinks,
        )
    });
    let ratio = |x: Option<f64>| x.map_or("-".to_string(), f2);
    Table::of(
        "E13: engine scaling on the gossip flood (8 origins x 4 rounds)",
        &rows,
        &[
            ("ADs", &|r| r.0.to_string()),
            ("links", &|r| r.1.to_string()),
            ("events", &|r| r.2.to_string()),
            ("seq ms", &|r| f2(r.3 * 1000.0)),
            ("seq ev/s", &|r| ((r.2 as f64 / r.3) as u64).to_string()),
            ("par ms", &|r| f2(r.4 * 1000.0)),
            ("par ev/s", &|r| ((r.2 as f64 / r.4) as u64).to_string()),
            ("log x", &|r| ratio(r.5.map(|(log, _)| log))),
            ("prof x", &|r| ratio(r.5.map(|(_, prof)| prof))),
        ],
    )
    .print();
    println!(
        "\nReading: sequential events/sec is the engine ceiling (zero-allocation \
         dispatch, no observer). The parallel column pays journaling + commit \
         replay per event, and gossip handlers are nearly free, so it is the \
         overhead alone (E13b puts real route computation under it). `log x` and `prof x` \
         are the sequential wall time with the typed event log / the \
         self-profiler attached over the no-sink run (best of three \
         interleaved runs each; host has {} CPUs).",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    protocol_speedups();
}

/// (protocol, ADs, events, sequential seconds, that ÷ parallel seconds on
/// 2 and on 8 lanes), one convergence each.
type Speedup = (&'static str, usize, u64, f64, [f64; 2]);

fn speedup<P>(name: &'static str, topo: &Topology, make: impl Fn() -> P) -> Speedup
where
    P: Protocol + Sync,
    P::Router: Send,
    P::Msg: Send,
{
    let (events, seq_s) = timed(topo, make(), None, |_| {});
    let par = [2, 8].map(|w| seq_s / timed(topo, make(), Some(w), |_| {}).1);
    (name, topo.num_ads(), events, seq_s, par)
}

/// E13b: does the region-parallel driver pay on the paper's protocols?
/// Identical event streams either way (`tests/parallel_determinism.rs`),
/// so the ratio is wall time alone.
fn protocol_speedups() {
    let topo = internet(392, 23);
    let db = PolicyWorkload::default_mix(23).generate(&topo);
    // IDRP at 392 ADs is gigabytes (E8); one backbone subtree is its scale.
    let small = internet(49, 23);
    let small_db = PolicyWorkload::default_mix(23).generate(&small);
    Table::of(
        "E13b: region-parallel convergence of the paper's protocols (seq wall / par wall)",
        &[
            speedup("LS hop-by-hop", &topo, || LsHbh::new(&topo, db.clone())),
            speedup("naive DV", &topo, NaiveDv::default),
            speedup("ECMA", &topo, || Ecma::hierarchical(&topo)),
            speedup("IDRP (PV)", &small, || PathVector::idrp(small_db.clone())),
        ],
        &[
            ("protocol", &|r| r.0.to_string()),
            ("ADs", &|r| r.1.to_string()),
            ("events", &|r| r.2.to_string()),
            ("seq ms", &|r| f2(r.3 * 1000.0)),
            ("x 2 lanes", &|r| f2(r.4[0])),
            ("x 8 lanes", &|r| f2(r.4[1])),
        ],
    )
    .print();
    println!(
        "\nReading: a ratio above 1 means the lanes paid for their journaling. \
         Link-state handlers are as cheap as gossip's, so flooding runs slower \
         in parallel; naive DV and ECMA re-select only what an update changed, \
         which leaves them near parity; IDRP's per-update selection and export \
         is where the lanes still pay (single runs)."
    );
}

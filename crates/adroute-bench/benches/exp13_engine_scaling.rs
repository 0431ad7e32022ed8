//! **E13** (paper §2.2) — discrete-event core scaling to paper size.
//!
//! The paper's operating model targets ~10⁵ ADs. This experiment sweeps
//! internet size up to that target under the cheap gossip flood (whose
//! handlers are a few array reads, so the figure is the engine's own
//! ceiling) and reports wall-clock and events/sec.
//!
//! At the 10⁴-AD row it also prices the observability sinks (E15): the
//! same flood with no sink, with the typed event log, and with the
//! self-profiler attached, reported as same-run ratios.

use std::time::Instant;

use adroute_bench::{f2, internet, Table};
use adroute_protocols::gossip::Gossip;
use adroute_sim::Engine;
use adroute_topology::Topology;

/// What a timed run attaches to its engine before the clock starts.
type Attach = fn(&mut Engine<Gossip>);
const NO_SINK: Attach = |_| {};

fn timed(topo: &Topology, g: Gossip, attach: Attach) -> (u64, f64) {
    let mut e = Engine::new(topo.clone(), g);
    attach(&mut e);
    // The 10^5-AD sweep legitimately dispatches more than the default
    // 50M-event runaway budget.
    e.max_events = 500_000_000;
    let t0 = Instant::now();
    e.run_to_quiescence();
    (e.stats.events, t0.elapsed().as_secs_f64())
}

/// Wall-time ratios (typed event log, self-profiler) over the no-sink
/// run. Each mode keeps the best of three runs, interleaved so clock
/// drift hits all modes alike, which cancels scheduler noise out of the
/// ratios.
fn obs_overheads(topo: &Topology, g: Gossip) -> (f64, f64) {
    let modes: [Attach; 3] = [NO_SINK, |e| e.enable_obs(1 << 16), |e| e.enable_prof()];
    let mut best = [f64::MAX; 3];
    for _ in 0..3 {
        for (attach, b) in modes.iter().zip(&mut best) {
            *b = b.min(timed(topo, g, *attach).1);
        }
    }
    (best[1] / best[0], best[2] / best[0])
}

fn main() {
    // (ADs, links, events, seconds, sink ratios).
    let rows = [1_000usize, 10_000, 100_000].map(|scale| {
        let topo = internet(scale, 1990);
        let g = Gossip {
            origins: 8,
            rounds: 4,
            period_us: 50_000,
        };
        let (events, seq_s) = timed(&topo, g, NO_SINK);
        let sinks = (scale == 10_000).then(|| obs_overheads(&topo, g));
        (topo.num_ads(), topo.num_links(), events, seq_s, sinks)
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
            ("log x", &|r| ratio(r.4.map(|(log, _)| log))),
            ("prof x", &|r| ratio(r.4.map(|(_, prof)| prof))),
        ],
    )
    .print();
    println!(
        "\nReading: events/sec is the engine ceiling (zero-allocation dispatch, \
         no observer). `log x` and `prof x` are the wall time with the typed \
         event log / the self-profiler attached over the no-sink run (best of \
         three interleaved runs each)."
    );
}

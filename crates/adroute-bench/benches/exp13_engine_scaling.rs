//! **E13** (paper §2.2) — discrete-event core scaling to paper size.
//!
//! The paper's operating model targets ~10⁵ ADs. This experiment sweeps
//! internet size up to that target under the cheap gossip flood (whose
//! handlers are a few array reads, so the figure is the engine's own
//! ceiling) and reports wall-clock and events/sec for the sequential
//! engine, the region-parallel engine, and a compute-bound parallel run
//! (synthetic per-delivery work modeling real route computation). The
//! parallel engine's journaling and sequential commit replay cost a
//! roughly constant overhead per event: on an engine-bound workload
//! that overhead is the whole story, while on a compute-bound workload
//! it amortizes and the lanes scale with available cores (the ratio on
//! a single-CPU host measures pure overhead — see EXPERIMENTS.md E13).
//!
//! At the 10⁴-AD row it also prices the observability sinks (E15): the
//! same sequential flood with no sink, with the typed event log, and with
//! the self-profiler attached, reported as same-run ratios.

use std::time::Instant;

use adroute_bench::{f2, internet, Table};
use adroute_protocols::gossip::Gossip;
use adroute_sim::Engine;
use adroute_topology::Topology;

const WORKERS: usize = 8;
const COST: u32 = 2_000;

/// What a timed run attaches to its engine before the clock starts.
type Attach = fn(&mut Engine<Gossip>);
const NO_SINK: Attach = |_| {};

fn timed(topo: &Topology, g: Gossip, workers: Option<usize>, attach: Attach) -> (u64, f64) {
    let mut e = Engine::new(topo.clone(), g);
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
    let modes: [Attach; 3] = [NO_SINK, |e| e.enable_obs(1 << 16), |e| e.enable_prof()];
    let mut best = [f64::MAX; 3];
    for _ in 0..3 {
        for (attach, b) in modes.iter().zip(&mut best) {
            *b = b.min(timed(topo, g, None, *attach).1);
        }
    }
    (best[1] / best[0], best[2] / best[0])
}

fn main() {
    let mut t = Table::new(
        "E13: engine scaling on the gossip flood (8 origins x 4 rounds)",
        &[
            "ADs",
            "links",
            "events",
            "seq ms",
            "seq ev/s",
            "par ms",
            "par ev/s",
            "par/seq (costly)",
            "log x",
            "prof x",
        ],
    );
    for scale in [1_000usize, 10_000, 100_000] {
        let topo = internet(scale, 1990);
        let g = Gossip {
            origins: 8,
            rounds: 4,
            period_us: 50_000,
            work: 0,
        };
        let (events, seq_s) = timed(&topo, g, None, NO_SINK);
        let (_, par_s) = timed(&topo, g, Some(WORKERS), NO_SINK);
        // The compute-bound pair burns COST mixing iterations per
        // delivery; at 10^5 ADs that is minutes of synthetic spinning
        // for no additional signal, so it stops at 10^4.
        let costly_ratio = if scale <= 10_000 {
            let costly = Gossip { work: COST, ..g };
            let (_, cseq_s) = timed(&topo, costly, None, NO_SINK);
            let (_, cpar_s) = timed(&topo, costly, Some(WORKERS), NO_SINK);
            f2(cseq_s / cpar_s)
        } else {
            "-".to_string()
        };
        let (log_x, prof_x) = if scale == 10_000 {
            let (log, prof) = obs_overheads(&topo, g);
            (f2(log), f2(prof))
        } else {
            ("-".to_string(), "-".to_string())
        };
        t.row(&[
            &topo.num_ads(),
            &topo.num_links(),
            &events,
            &f2(seq_s * 1000.0),
            &((events as f64 / seq_s) as u64),
            &f2(par_s * 1000.0),
            &((events as f64 / par_s) as u64),
            &costly_ratio,
            &log_x,
            &prof_x,
        ]);
    }
    t.print();
    println!(
        "\nReading: sequential events/sec is the engine ceiling (zero-allocation \
         dispatch, no observer). The parallel column pays journaling + commit \
         replay per event; the costly ratio shows that overhead amortizing once \
         handlers do real work ({COST} mixing iterations per delivery). On a \
         multi-core host the costly ratio exceeds 1 and grows toward the region \
         count; on a 1-CPU host it measures pure overhead. `log x` and `prof x` \
         are the sequential wall time with the typed event log / the \
         self-profiler attached over the no-sink run (best of three \
         interleaved runs each; host has {} CPUs).",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
}

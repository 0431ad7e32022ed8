//! A tour of the paper's design space: run every viable architecture on
//! the same internet and policy workload, and score each against the
//! oracle — route availability, policy compliance, loop-freedom, path
//! stretch, and control-plane cost.
//!
//! This is the narrative behind Table 1, measured rather than asserted:
//! the rows are `adroute_bench::t1::rows`, the same function the
//! `table1_design_space` bench prints and `tests/shapes.rs` asserts on.
//!
//! ```sh
//! cargo run --example design_space_tour
//! ```

use adroute_bench::{t1, World};

fn main() {
    let w = World::mixed(98, 7, 150);
    let rows = t1::rows(&w);
    println!(
        "internet: {} ADs, {} links; {} policy terms; {} / {} sampled flows have a legal route\n",
        w.topo.num_ads(),
        w.topo.num_links(),
        w.db.total_terms(),
        rows[0].score.legal_exists,
        w.flows.len()
    );
    println!(
        "{:<22} {:>7} {:>9} {:>6} {:>8} {:>9} {:>11}",
        "architecture", "avail", "violate", "loops", "stretch", "ctl msgs", "ctl bytes"
    );
    for r in &rows {
        println!(
            "{:<22} {:>6.1}% {:>8.1}% {:>6} {:>8.2} {:>9} {:>11}",
            r.arch,
            100.0 * r.score.availability(),
            100.0 * r.score.violation_rate(),
            r.score.loops,
            r.score.stretch(),
            r.msgs,
            r.bytes
        );
    }
    println!(
        "\nORWG's control cost is the same flooding as LS hop-by-hop; what differs is \
         who computes routes — transit route-computation burden (LS-HBH per-hop \
         recomputation vs ORWG source-only): see the exp5 bench."
    );
}

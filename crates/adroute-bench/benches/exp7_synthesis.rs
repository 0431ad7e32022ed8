//! **E7** (paper §6, first bullet) — route synthesis strategies: prints
//! [`e7::strategies`] (150 ADs, 2000 skewed requests) and E7b,
//! [`e7::view_maintenance`] (700 ADs, 4000 requests), timing the latter's
//! `fail_link` call — the one wall-clock column of the ledger benches.

use std::time::Instant;

use adroute_bench::{e7, internet, pct, Table};
use adroute_core::ViewMaintenance;

fn main() {
    Table::of(
        "E7: synthesis strategy trade-offs (150 ADs, 2000 skewed requests)",
        &e7::strategies(150, 17, 2000),
        &[
            ("strategy", &|r| r.strategy.to_string()),
            ("searches", &|r| r.served.searches.to_string()),
            ("states settled", &|r| r.served.settled.to_string()),
            ("search@request", &|r| pct(r.search_rate())),
            ("precomp hits", &|r| r.served.precomputed_hits.to_string()),
            ("cache hits", &|r| r.served.cache_hits.to_string()),
            ("routes stored", &|r| r.routes_stored.to_string()),
            ("invalidated@change", &|r| r.invalidated.to_string()),
            ("refresh searches", &|r| r.refresh_searches.to_string()),
        ],
    )
    .print();
    println!(
        "\nReading: 'search@request' is the fraction of requests that had to run a \
         full policy-constrained search at setup time (the latency proxy). Pure \
         on-demand pays it always; big caches pay it only on cold classes; the \
         hybrid answers hot classes from precomputation but pays an up-front and \
         per-policy-change refresh bill (background searches, never setup-time \
         ones) — precisely the trade-off the paper asks simulations to explore."
    );

    let big = internet(700, 23);
    assert!(big.num_ads() >= 500, "E7b needs a large internet");
    let mut fail_times = Vec::new();
    let rows = e7::view_maintenance(&big, 23, 4000, |fail_link| {
        let t0 = Instant::now();
        fail_link();
        fail_times.push(t0.elapsed());
    });
    let timed: Vec<_> = rows.iter().zip(fail_times).collect();
    Table::of(
        &format!(
            "E7b: single link failure, incremental vs flush view maintenance \
             ({} ADs, {} links, cache-warm from 4000 requests)",
            big.num_ads(),
            big.num_links()
        ),
        &timed,
        &[
            ("view maintenance", &|(r, _)| match r.mode {
                ViewMaintenance::Incremental => "incremental".to_string(),
                ViewMaintenance::Flush => "flush (oracle)".to_string(),
            }),
            ("routes stored", &|(r, _)| r.routes_stored.to_string()),
            ("invalidated", &|(r, _)| r.invalidated.to_string()),
            ("revalidations", &|(r, _)| r.revalidations.to_string()),
            ("kept in place", &|(r, _)| r.kept.to_string()),
            ("re-request searches", &|(r, _)| {
                r.rerequest_searches.to_string()
            }),
            ("fail_link time", &|(_, fail_time)| {
                format!("{fail_time:.2?}")
            }),
        ],
    )
    .print();
    println!(
        "\nReading: both modes answer every request identically (the flush path is \
         the behavioral oracle), but the incremental path touches only the entries \
         whose route crossed the failed link — 'revalidations' re-checked a stored \
         route in place and 'kept in place' of those survived at unchanged cost, so \
         the re-request wave repays only what was actually lost."
    );
}

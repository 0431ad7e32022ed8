//! **E5** (paper §5.3) — the transit burden of link-state hop-by-hop
//! routing, versus source routing: prints [`e5::rows`] on the 98-AD
//! internet.

use adroute_bench::{e5, Table};

fn main() {
    Table::of(
        "E5: transit-AD burden vs number of distinct traffic classes",
        &e5::rows(100, 5, &[10, 25, 50, 100, 200]),
        &[
            ("classes", &|r| r.classes.to_string()),
            ("LS-HBH computations", &|r| r.ls_computations.to_string()),
            ("LS-HBH max/AD", &|r| r.ls_max_per_ad.to_string()),
            ("LS-HBH FIB entries", &|r| r.ls_fib_entries.to_string()),
            ("ORWG src searches", &|r| r.orwg_src_searches.to_string()),
            ("ORWG transit searches", &|r| {
                r.orwg_transit_searches.to_string()
            }),
            ("ORWG validations", &|r| r.orwg_validations.to_string()),
        ],
    )
    .print();
    println!(
        "\nReading: LS-HBH repeats the policy-constrained search at *every* AD a \
         packet crosses (computations >> classes, growing with path length); the \
         ORWG source computes exactly once per class and transit ADs perform zero \
         route computations — only O(1) setup validations."
    );
}

//! **E4** (paper §5.2/§5.2.1) — path-vector table blowup under
//! fine-grained policy: prints [`e4::rows`] swept over workload
//! granularity, then over the advertisement budget, on the 60-AD internet.

use adroute_bench::{e4, f2, mb, Table};

fn main() {
    Table::of(
        "E4(a): IDRP RIB growth vs policy granularity (60-AD internet)",
        &e4::rows(60, &[(1, 8), (2, 8), (4, 8), (8, 8), (12, 8)]),
        &[
            ("granularity", &|r| r.granularity.to_string()),
            ("mean RIB", &|r| f2(r.mean_rib)),
            ("max RIB", &|r| r.max_rib.to_string()),
            ("mean adj-RIB-in", &|r| f2(r.mean_adj_rib)),
            ("ctl msgs", &|r| r.msgs.to_string()),
            ("ctl MBytes", &|r| mb(r.bytes)),
        ],
    )
    .print();

    Table::of(
        "E4(b): ablation - max advertised routes per destination (granularity 8)",
        &e4::rows(60, &[(8, 1), (8, 2), (8, 4), (8, 8), (8, 16)]),
        &[
            ("max routes/dest", &|r| r.max_routes.to_string()),
            ("mean RIB", &|r| f2(r.mean_rib)),
            ("max RIB", &|r| r.max_rib.to_string()),
            ("ctl MBytes", &|r| mb(r.bytes)),
        ],
    )
    .print();
    println!(
        "\nReading: RIB entries per AD grow with the number of distinct \
         (QOS, UCI, source-scope) classes — the per-class route replication of \
         Section 5.2. Capping routes per destination (table b) caps the state \
         but discards exactly the class-specific routes fine policies need."
    );
}

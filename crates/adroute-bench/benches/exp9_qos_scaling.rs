//! **E9** (paper §3) — QOS-route scaling: prints [`e9::rows`] for 1 to 16
//! provisioned classes on the 98-AD internet, 60 flows.

use adroute_bench::{e9, mb, Table};

fn main() {
    Table::of(
        "E9: provisioned QOS classes vs routing work",
        &e9::rows(100, 29, 60, &[1, 2, 4, 8, 16]),
        &[
            ("classes", &|r| r.classes.to_string()),
            ("ECMA FIB entries/AD", &|r| r.ecma_fib_per_ad.to_string()),
            ("ECMA ctl MBytes", &|r| mb(r.ecma_bytes)),
            ("LS-HBH computations", &|r| r.ls_computations.to_string()),
            ("ORWG searches", &|r| r.orwg_searches.to_string()),
        ],
    )
    .print();
    println!(
        "\nReading: IGP-style mechanisms pay for every *provisioned* class — ECMA's \
         FIBs and update bytes grow linearly with q even though traffic only uses 3 \
         classes. LS-HBH and ORWG pay per *used* class, and ORWG pays it once at \
         the source rather than at every hop (see E5)."
    );
}

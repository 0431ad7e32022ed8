//! **E10** (paper §5.1.1 vs §3/§4.3) — convergence after topology change:
//! prints [`e10::rings`] and [`e10::regional`] (98-AD internet).

use adroute_bench::{e10, Table};

fn main() {
    Table::of(
        "E10(a): partition response on rings (count-to-infinity study)",
        &e10::rings(&[6, 10, 14]),
        &[
            ("ring", &|r| r.ads.to_string()),
            ("architecture", &|r| r.arch.to_string()),
            ("initial msgs", &|r| r.response.msgs.to_string()),
            ("failure msgs", &|r| r.response.fail_msgs.to_string()),
            ("reconv ms", &|r| {
                (r.response.reconverge_us / 1000).to_string()
            }),
        ],
    )
    .print();

    Table::of(
        "E10(b): partitioning a regional AD on a 100-AD internet",
        &e10::regional(100, 31),
        &[
            ("architecture", &|r| r.arch.to_string()),
            ("failure msgs", &|r| r.response.fail_msgs.to_string()),
            ("reconv ms", &|r| {
                (r.response.reconverge_us / 1000).to_string()
            }),
        ],
    )
    .print();
    println!(
        "\nReading: naive DV's failure traffic explodes with the infinity bound \
         (count-to-infinity; split horizon only trims it), while ECMA's up/down \
         rule converges in a handful of messages — the Section 5.1.1 claim. Path \
         vector avoids counting via full paths but still explores; link state \
         refloods two LSAs and is done."
    );
}

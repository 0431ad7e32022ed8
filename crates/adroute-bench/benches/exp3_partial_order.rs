//! **E3** (paper §5.1/§5.1.1) — what a single global partial ordering can
//! and cannot express: prints the three [`e3`] tables.

use adroute_bench::{e3, pct, Table};

fn main() {
    Table::of(
        "E3(a): single-ordering satisfiability of random policy sets",
        &e3::satisfiability(&[5, 10, 20, 40, 80, 160], 40),
        &[
            ("constraints", &|(count, _)| count.to_string()),
            ("deny=25%", &|(_, sat)| pct(sat[0])),
            ("deny=50%", &|(_, sat)| pct(sat[1])),
            ("deny=75%", &|(_, sat)| pct(sat[2])),
            ("deny=100%", &|(_, sat)| pct(sat[3])),
        ],
    )
    .print();

    Table::of(
        "E3(c): logical-cluster replication (footnote 4), 80 constraints, deny=75%",
        &e3::replication(&[1, 2, 3, 4], 40),
        &[
            ("logical clusters/AD", &|(k, ..)| k.to_string()),
            ("satisfiable", &|(_, sat, _)| pct(*sat)),
            ("addresses used", &|(.., addresses)| addresses.to_string()),
        ],
    )
    .print();

    Table::of(
        "E3(b): ECMA vs oracle as policy granularity grows",
        &e3::ecma_vs_oracle(100, 120, &[0, 1, 2, 4, 8]),
        &[
            ("granularity", &|(g, _)| match g {
                0 => "structural only".to_string(),
                g => format!("g={g}"),
            }),
            ("availability", &|(_, s)| pct(s.availability())),
            ("violations", &|(_, s)| pct(s.violation_rate())),
            ("loops", &|(_, s)| s.loops.to_string()),
        ],
    )
    .print();
    println!(
        "\nReading: with structural policies (stubs refuse transit) the ordering \
         expresses everything and ECMA is clean; as source/UCI/QOS-specific terms \
         appear, ECMA cannot see them — availability drops and violations appear, \
         while satisfiability of one global ordering (table a) collapses as deny \
         constraints densify. Both match Section 5.1.1's objections."
    );
}

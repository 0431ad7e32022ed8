//! **Table 1** — the design space for inter-AD routing.
//!
//! Part (a) reprints the paper's 2×2×2 matrix with the proposal occupying
//! each viable cell and the reason the remaining cells are excluded
//! (paper Section 5.5). Part (b) prints [`t1::rows`] — the capability claims
//! the paper makes per design point, measured — on the 98-AD internet.

use adroute_bench::{pct, t1, Table, World};

const DV: &str = "distance vector";
const LS: &str = "link state";
const HBH: &str = "hop-by-hop";
const SRC: &str = "source";
const TOPO: &str = "topology";
const TERMS: &str = "policy terms";

/// Algorithm, decision locus, policy expression, occupant or verdict.
const MATRIX: [[&str; 4]; 8] = [
    [DV, HBH, TOPO, "NIST/ECMA partial ordering (5.1.1)"],
    [DV, HBH, TERMS, "IDRP, BGP-2 (5.2.1)"],
    [LS, HBH, TERMS, "per-source spanning trees (5.3)"],
    [LS, SRC, TERMS, "Clark/ORWG - the paper's pick (5.4.1)"],
    [LS, HBH, TOPO, "excluded: flooding vs info-hiding (5.5.1)"],
    [LS, SRC, TOPO, "excluded: same (5.5.1)"],
    [DV, SRC, TOPO, "excluded: source needs full info (5.5.2)"],
    [
        DV,
        SRC,
        TERMS,
        "excluded: little gain w/o link state (5.5.2)",
    ],
];

fn main() {
    Table::of(
        "Table 1(a): the design space (paper Section 5)",
        &MATRIX,
        &[
            ("algorithm", &|m| m[0].to_string()),
            ("decision", &|m| m[1].to_string()),
            ("policy expression", &|m| m[2].to_string()),
            ("occupant / verdict", &|m| m[3].to_string()),
        ],
    )
    .print();

    Table::of(
        "Table 1(b): measured capabilities per design point",
        &t1::rows(&World::mixed(100, 1990, 120)),
        &[
            ("architecture", &|r| r.arch.to_string()),
            ("availability", &|r| pct(r.score.availability())),
            ("violations", &|r| pct(r.score.violation_rate())),
            ("loops", &|r| r.score.loops.to_string()),
            ("src criteria honored", &|r| pct(r.honored)),
            ("src criteria private", &|r| {
                (if r.private { "yes" } else { "no" }).to_string()
            }),
        ],
    )
    .print();
    println!(
        "\nReading: availability = flows with a legal route delivered policy-compliantly; \
         'src criteria honored' = fraction of imposed avoid-AD criteria enforceable \
         (probe: avoid the default route's first transit AD when a legal alternative exists)."
    );
}

//! **E11** (paper §2.1/§3) — integrity with non-hierarchical links: prints
//! both views of [`e11::rows`] over four lateral/bypass densities of the
//! 98-AD internet.

use adroute_bench::{e11, f2, pct, Table};

fn main() {
    let rows = e11::rows(
        100,
        80,
        &[(0.0, 0.0), (0.15, 0.05), (0.3, 0.15), (0.5, 0.3)],
    );
    let points: Vec<_> = rows
        .iter()
        .flat_map(|r| r.points.iter().map(move |(arch, score)| (r, *arch, score)))
        .collect();
    Table::of(
        "E11(a): integrity as lateral/bypass density grows (100-AD internet)",
        &points,
        &[
            ("lateral p", &|(r, ..)| f2(r.lateral)),
            ("bypass p", &|(r, ..)| f2(r.bypass)),
            ("links", &|(r, ..)| r.links.to_string()),
            ("arch", &|(_, arch, _)| arch.to_string()),
            ("loops", &|(.., s)| s.loops.to_string()),
            ("violations", &|(.., s)| pct(s.violation_rate())),
            ("availability", &|(.., s)| pct(s.availability())),
        ],
    )
    .print();
    Table::of(
        "E11(b): the EGP tree restriction — what ignoring non-tree links costs",
        &rows,
        &[
            ("lateral p", &|r| f2(r.lateral)),
            ("bypass p", &|r| f2(r.bypass)),
            ("extra links", &|r| r.extra_links.to_string()),
            ("mean cost (full)", &|r| f2(r.mean_cost_full)),
            ("mean cost (tree)", &|r| f2(r.mean_cost_tree)),
            ("stretch", &|r| f2(r.stretch())),
            ("cut pairs (tree)", &|r| r.cut_pairs.to_string()),
        ],
    )
    .print();
    println!(
        "\nReading: loop counts stay zero and policy-aware availability holds as \
         non-hierarchical links densify — the 'graceful accommodation' the paper \
         requires. The EGP-style restriction wastes exactly those links: path \
         costs inflate and (with multi-homing counted as non-tree) some pairs \
         lose connectivity entirely, the Section 3 argument for retiring EGP."
    );
}

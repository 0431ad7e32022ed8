//! **E6** (paper §5.4.1) — route setup vs per-packet overhead: prints
//! [`e6::amortization`] (40 flows) and [`e6::cache_pressure`] (200
//! concurrent flows) on the 98-AD internet.

use adroute_bench::{e6, f2, Table, World};
use adroute_protocols::forwarding::sample_flows;

fn main() {
    let mut w = World::mixed(100, 13, 40);
    Table::of(
        "E6(a): mean header bytes/packet vs packets per flow",
        &e6::amortization(&w, &[1, 2, 5, 10, 50, 500]),
        &[
            ("pkts/flow", &|r| r.pkts.to_string()),
            ("handle+setup", &|r| f2(r.with_setup)),
            ("handle only", &|r| f2(r.handle_only)),
            ("full source route", &|r| f2(r.source_route)),
            ("crossover?", &|r| match r.with_setup < r.source_route {
                true => "handle wins".to_string(),
                false => "src-route wins".to_string(),
            }),
        ],
    )
    .print();

    w.flows = sample_flows(&w.topo, 200, 14);
    Table::of(
        "E6(b): gateway handle-cache capacity vs re-setup overhead (200 concurrent flows)",
        &e6::cache_pressure(&w, &[8, 32, 128, 512, 2048]),
        &[
            ("capacity", &|r| r.capacity.to_string()),
            ("evictions", &|r| r.evictions.to_string()),
            ("data drops", &|r| r.drops.to_string()),
            ("re-setups", &|r| r.resetups.to_string()),
            ("total header KB", &|r| (r.header_bytes / 1024).to_string()),
        ],
    )
    .print();
    println!(
        "\nReading: one setup packet costs several times a data packet, so full \
         source routes win only for 1-2 packet flows; beyond that the 12-byte \
         handle dominates (the paper's design rationale). Undersized gateway \
         caches churn: evictions force re-setups, recovering the overhead that \
         handles were meant to eliminate."
    );
}

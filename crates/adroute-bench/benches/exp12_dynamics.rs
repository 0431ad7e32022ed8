//! **E12** (paper §2.2) — steady-state behaviour under continuous link
//! churn: prints [`e12::control_churn`] and [`e12::flow_epochs`].

use adroute_bench::{e12, f2, Table, World};

fn main() {
    // Part (a) uses a one-backbone internet (~50 ADs): the path-vector
    // rows reconverge on every event, which is exactly the cost being
    // measured — at larger scales it dominates the whole suite's runtime.
    Table::of(
        "E12(a): sustained control traffic under link churn (1s horizon)",
        &e12::control_churn(50, 43, 1_000),
        &[
            ("architecture", &|r| r.arch.to_string()),
            ("link events", &|r| r.link_events.to_string()),
            ("ctl msgs", &|r| r.msgs.to_string()),
            ("msgs / event", &|r| f2(r.msgs_per_event())),
        ],
    )
    .print();

    Table::of(
        "E12(b): ORWG long-lived flows across failure epochs",
        &e12::flow_epochs(&World::mixed(100, 44, 250), 4),
        &[
            ("epoch", &|r| r.epoch.to_string()),
            ("failed links", &|r| r.failed_links.to_string()),
            ("live flows", &|r| r.live_flows.to_string()),
            ("pkts ok", &|r| r.pkts.to_string()),
            ("resetups", &|r| r.resetups.to_string()),
            ("lost flows", &|r| r.lost.to_string()),
            ("hdr bytes/pkt", &|r| match r.pkts {
                0 => f2(0.0),
                pkts => f2(r.header_bytes as f64 / pkts as f64),
            }),
        ],
    )
    .print();
    println!(
        "\nReading: per link event, link state pays a constant two-LSA reflood while \
         the DV family recomputes and re-advertises tables; under the paper's \
         assumption that policy and topology 'change much more slowly than the \
         time required for route setup', the ORWG re-setup cost per epoch stays \
         a small fraction of total traffic."
    );
}

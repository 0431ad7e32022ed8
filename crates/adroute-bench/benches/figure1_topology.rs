//! **Figure 1** — "Example Internet Topology": prints [`f1::rows`] from 49
//! to 980 ADs.

use adroute_bench::{f1, f2, pct, Table};

fn main() {
    Table::of(
        "Figure 1: generated internets (hierarchy + lateral + bypass)",
        &f1::rows(&[(30, 1), (100, 2), (250, 3), (500, 4), (1000, 5)]),
        &[
            ("ADs", &|r| r.ads.to_string()),
            ("links", &|r| r.links.to_string()),
            ("hier", &|r| r.link_kinds.0.to_string()),
            ("lateral", &|r| r.link_kinds.1.to_string()),
            ("bypass", &|r| r.link_kinds.2.to_string()),
            ("stubs", &|r| r.roles.0.to_string()),
            ("multi-homed", &|r| r.roles.1.to_string()),
            ("transit", &|r| r.roles.2.to_string()),
            ("hybrid", &|r| r.roles.3.to_string()),
            ("mean deg", &|r| f2(r.mean_deg)),
            ("diam", &|r| r.diam.to_string()),
            ("vf-reach", &|r| pct(r.vf_reach)),
        ],
    )
    .print();
    println!(
        "\nReading: 'vf-reach' = fraction of sampled campus pairs connected by a \
         valley-free path under the level ordering — the connectivity ECMA can use. \
         The paper's Figure 1 shape (hierarchy dominant, persistent lateral and \
         bypass links at every scale) is preserved."
    );
}

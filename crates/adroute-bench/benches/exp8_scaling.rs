//! **E8** (paper §2.2) — control-plane scaling across the design space.
//!
//! The paper sizes the target internet at 10^5 ADs with 10^4 transit ADs
//! and demands protocols that "work efficiently for the general
//! hierarchical case". We sweep internet size and report, per
//! architecture: messages and bytes to initial convergence, convergence
//! time, and the incremental cost of one link failure. Shapes to check:
//! DV-family *bytes* grow superlinearly (each update carries O(n)
//! entries); flooding sends more but smaller messages; a failure is a
//! local event for link state (two re-originated LSAs) but a global
//! recomputation wave for the DV family.

use adroute_bench::{f2, internet, Table};
use adroute_policy::workload::PolicyWorkload;
use adroute_protocols::ecma::Ecma;
use adroute_protocols::ls_hbh::LsHbh;
use adroute_protocols::naive_dv::NaiveDv;
use adroute_protocols::path_vector::PathVector;
use adroute_sim::{Engine, Protocol, SimTime};
use adroute_topology::Topology;

struct Row {
    msgs: u64,
    bytes: u64,
    conv: SimTime,
    fail_msgs: u64,
    fail_bytes: u64,
}

fn run<P: Protocol>(topo: Topology, proto: P) -> Row {
    let mut e = Engine::new(topo, proto);
    let conv = e.run_to_quiescence();
    let (msgs, bytes) = (e.stats.msgs_sent, e.stats.bytes_sent);
    // Fail the first link of the highest-degree AD: a meaningful event.
    let victim = e
        .topo()
        .ad_ids()
        .max_by_key(|&a| e.topo().degree(a))
        .and_then(|a| e.topo().neighbors(a).next().map(|(_, l)| l))
        .expect("non-empty topology");
    let t = e.now().plus_us(1000);
    e.schedule_link_change(victim, false, t);
    e.begin_phase("failure-response");
    e.run_to_quiescence();
    let response = e
        .stats
        .phase_delta("failure-response")
        .expect("phase begun above");
    Row {
        msgs,
        bytes,
        conv,
        fail_msgs: response.msgs_sent,
        fail_bytes: response.bytes_sent,
    }
}

fn main() {
    let mut t = Table::new(
        "E8: control overhead vs internet size",
        &[
            "ADs",
            "architecture",
            "msgs",
            "MBytes",
            "conv ms",
            "fail msgs",
            "fail KB",
        ],
    );
    for scale in [50usize, 100, 200, 400] {
        let topo = internet(scale, 23);
        let db = PolicyWorkload::default_mix(23).generate(&topo);
        let n = topo.num_ads();

        let r = run(topo.clone(), NaiveDv::default());
        t.row(&[
            &n,
            &"naive DV",
            &r.msgs,
            &f2(r.bytes as f64 / 1e6),
            &r.conv.as_ms(),
            &r.fail_msgs,
            &(r.fail_bytes / 1024),
        ]);

        let r = run(topo.clone(), Ecma::hierarchical(&topo));
        t.row(&[
            &n,
            &"ECMA",
            &r.msgs,
            &f2(r.bytes as f64 / 1e6),
            &r.conv.as_ms(),
            &r.fail_msgs,
            &(r.fail_bytes / 1024),
        ]);

        // The path-vector full-table state is O(dests × classes × path)
        // per neighbor: beyond ~100 ADs one run needs minutes to hours and
        // gigabytes — the paper's scaling objection made concrete. We
        // report it up to 100 and mark larger scales infeasible.
        if n <= 100 {
            let r = run(topo.clone(), PathVector::idrp(db.clone()));
            t.row(&[
                &n,
                &"IDRP (PV)",
                &r.msgs,
                &f2(r.bytes as f64 / 1e6),
                &r.conv.as_ms(),
                &r.fail_msgs,
                &(r.fail_bytes / 1024),
            ]);
        } else {
            t.row(&[&n, &"IDRP (PV)", &"(infeasible)", &"-", &"-", &"-", &"-"]);
        }

        let r = run(topo.clone(), LsHbh::new(&topo, db.clone()));
        t.row(&[
            &n,
            &"link state",
            &r.msgs,
            &f2(r.bytes as f64 / 1e6),
            &r.conv.as_ms(),
            &r.fail_msgs,
            &(r.fail_bytes / 1024),
        ]);
    }
    t.print();
    println!(
        "\nReading: the link-state row doubles as the ORWG control plane (identical \
         flooding; source routing adds no control messages). IDRP messages are few \
         (MRAI batching) but each carries the full multi-attribute table, so bytes \
         dominate; link-state failure cost stays flat (two LSAs reflooded) while \
         DV-family failure cost grows with the table size."
    );
}

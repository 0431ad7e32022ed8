//! **E12** (paper §2.2) — steady-state behaviour under continuous link
//! churn.
//!
//! The paper's operating regime: stable AD membership, inter-AD links
//! that fail and recover, policies that change slowly. We run each
//! control plane under a seeded MTBF/MTTR failure process and measure the
//! sustained control-message rate; then we run session traffic over the
//! ORWG data plane across discrete failure epochs and measure the
//! collateral re-setup cost the churn imposes on established policy
//! routes.

use adroute_bench::{f2, internet, Table};
use adroute_core::{OrwgNetwork, Strategy};
use adroute_policy::workload::PolicyWorkload;
use adroute_protocols::ecma::Ecma;
use adroute_protocols::ls_hbh::LsHbh;
use adroute_protocols::naive_dv::NaiveDv;
use adroute_protocols::path_vector::PathVector;
use adroute_sim::{Engine, FailureModel, FailureSchedule, Protocol};
use adroute_topology::Topology;

fn churn<P: Protocol>(topo: Topology, proto: P, model: &FailureModel) -> (usize, u64, f64) {
    let mut e = Engine::new(topo, proto);
    e.run_to_quiescence();
    let start = e.now().plus_us(1000);
    let horizon_ms = 1_000;
    let schedule = FailureSchedule::draw(e.topo(), model, start, horizon_ms);
    let failures = schedule.failures();
    schedule.apply(&mut e);
    e.begin_phase("churn");
    e.run_to_quiescence();
    let msgs = e
        .stats
        .phase_delta("churn")
        .expect("phase begun above")
        .msgs_sent;
    (failures, msgs, msgs as f64 / failures.max(1) as f64)
}

fn main() {
    // Part (a) uses a one-backbone internet (~50 ADs): the path-vector
    // rows reconverge on every event, which is exactly the cost being
    // measured — at larger scales it dominates the whole suite's runtime.
    let topo = internet(50, 43);
    let db = PolicyWorkload::default_mix(43).generate(&topo);
    let model = FailureModel {
        mtbf_ms: 300.0,
        mttr_ms: 60.0,
        fallible_fraction: 0.15,
        seed: 43,
    };

    let mut t = Table::new(
        "E12(a): sustained control traffic under link churn (1s horizon)",
        &["architecture", "link events", "ctl msgs", "msgs / event"],
    );
    let (f, m, r) = churn(topo.clone(), NaiveDv::default(), &model);
    t.row(&[&"naive DV", &f, &m, &f2(r)]);
    let (f, m, r) = churn(topo.clone(), Ecma::hierarchical(&topo), &model);
    t.row(&[&"ECMA", &f, &m, &f2(r)]);
    let (f, m, r) = churn(topo.clone(), PathVector::idrp(db.clone()), &model);
    t.row(&[&"IDRP (PV)", &f, &m, &f2(r)]);
    let (f, m, r) = churn(topo.clone(), LsHbh::new(&topo, db.clone()), &model);
    t.row(&[&"link state / ORWG", &f, &m, &f2(r)]);
    t.print();

    // (b) ORWG data-plane collateral: open long-lived policy routes once
    // (the paper: "PRs may have a long lifetime"), then keep sending
    // across failure epochs; count the re-setups churn forces.
    let mut t = Table::new(
        "E12(b): ORWG long-lived flows across failure epochs",
        &[
            "epoch",
            "failed links",
            "live flows",
            "pkts ok",
            "resetups",
            "lost flows",
            "hdr bytes/pkt",
        ],
    );
    let topo = internet(100, 44);
    let db = PolicyWorkload::default_mix(44).generate(&topo);
    let mut net =
        OrwgNetwork::converged_with(&topo, &db, Strategy::Cached { capacity: 2048 }, 65536);
    let all_links: Vec<_> = topo.links().map(|l| l.id).collect();
    let flows = adroute_protocols::forwarding::sample_flows(&topo, 250, 44);
    let mut live: Vec<(adroute_policy::FlowSpec, adroute_core::HandleId)> = Vec::new();
    for f in &flows {
        if let Ok(s) = net.open(f) {
            live.push((*f, s.handle));
        }
    }
    let mut failed = 0usize;
    for epoch in 0..4 {
        if epoch > 0 {
            for k in 0..2 {
                let idx = (epoch * 13 + k * 29) % all_links.len();
                net.fail_link(all_links[idx]);
                failed += 1;
            }
        }
        let mut pkts = 0u64;
        let mut resetups = 0u64;
        let mut lost = 0u64;
        let mut bytes = 0u64;
        for (f, h) in live.iter_mut() {
            for _ in 0..5 {
                match net.send(*h) {
                    Ok(d) => {
                        pkts += 1;
                        bytes += d.header_bytes as u64;
                    }
                    Err(_) => match net.open(f) {
                        Ok(s) => {
                            resetups += 1;
                            bytes += s.header_bytes as u64;
                            *h = s.handle;
                        }
                        Err(_) => {
                            lost += 1;
                            break;
                        }
                    },
                }
            }
        }
        t.row(&[
            &epoch,
            &failed,
            &live.len(),
            &pkts,
            &resetups,
            &lost,
            &f2(if pkts == 0 {
                0.0
            } else {
                bytes as f64 / pkts as f64
            }),
        ]);
    }
    t.print();
    println!(
        "\nReading: per link event, link state pays a constant two-LSA reflood while \
         the DV family recomputes and re-advertises tables; under the paper's \
         assumption that policy and topology 'change much more slowly than the \
         time required for route setup', the ORWG re-setup cost per epoch stays \
         a small fraction of total traffic."
    );
}

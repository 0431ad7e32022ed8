//! **E8** (paper §2.2) — control-plane scaling across the design space:
//! prints [`e8::rows`] from 49 to 980 ADs.

use adroute_bench::{e8, mb, FailureResponse, Table};

/// What one IDRP run may move before its sweep stops: the DV family's
/// bytes grow several-fold per doubling, so the size after a run this
/// large is gigabytes.
const IDRP_BYTE_BUDGET: u64 = 250_000_000;

/// A measured cell, or `-` under a run that was not made.
fn cell(r: &e8::Row, of: fn(FailureResponse) -> String) -> String {
    r.run.map_or("-".to_string(), of)
}

fn main() {
    Table::of(
        "E8: control overhead vs internet size",
        &e8::rows(&[50, 100, 200, 400, 1000], IDRP_BYTE_BUDGET),
        &[
            ("ADs", &|r| r.ads.to_string()),
            ("architecture", &|r| r.arch.to_string()),
            // In place of a run, the measurement that ended IDRP's sweep:
            // the bytes one run moved, at how many ADs.
            ("msgs", &|r| match r.run {
                Ok(x) => x.msgs.to_string(),
                Err(stop) => format!("({:.0} MB @{})", stop.bytes as f64 / 1e6, stop.ads),
            }),
            ("MBytes", &|r| cell(r, |x| mb(x.bytes))),
            ("conv ms", &|r| {
                cell(r, |x| (x.converge_us / 1000).to_string())
            }),
            ("fail msgs", &|r| cell(r, |x| x.fail_msgs.to_string())),
            ("fail KB", &|r| {
                cell(r, |x| (x.fail_bytes / 1024).to_string())
            }),
        ],
    )
    .print();
    println!(
        "\nReading: the link-state row doubles as the ORWG control plane (identical \
         flooding; source routing adds no control messages). IDRP messages are few \
         (MRAI batching) but each carries the full multi-attribute table, so bytes \
         dominate; link-state failure cost stays flat (two LSAs reflooded) while \
         DV-family failure cost grows with the table size."
    );
}

//! The CLI subcommands. Every command is a pure function from parsed
//! arguments (plus file contents) to an output string, so the whole tool
//! is unit-testable without spawning processes. Each lives in its own
//! module beside its usage text and flags, and starts `use super::*`:
//! the imports below are theirs too. `COMMANDS` lists them all, and
//! `dispatch` and `usage` read only that table.

use std::fmt::Write as _;
use std::fs;

use adroute_core::{
    OrwgNetwork, OrwgProtocol, PolicyImpact, ShardConfig, Strategy, ViewMaintenance,
};
use adroute_policy::text::{format_policies, parse_policies, parse_policy};
use adroute_policy::workload::PolicyWorkload;
use adroute_policy::{legality, FlowSpec, PolicyDb, QosClass, TimeOfDay, UserClass};
use adroute_protocols::forwarding::{forward, DataPlane};
use adroute_protocols::{
    ecma::Ecma, gossip::Gossip, ls_hbh::LsHbh, naive_dv::NaiveDv, path_vector::PathVector,
};
use adroute_sim::{
    CausalGraph, ChannelFaults, Counter, CrashModel, Engine, EventLog, FailureModel, FaultPlan,
    FaultSpec, JsonWriter, Ledger, MetricsRegistry, MisbehaviorModel, MisbehaviorSpec, Output,
    Profiler, Protocol, SimTime, Stats,
};
use adroute_topology::{analysis, io as topo_io, transit, AdId, HierarchyConfig, LinkId, Topology};

use crate::args::{bail, Args, CliError};
use crate::scenario::{self, most_transited, run_byzantine, AuditRun};

mod audit;
mod chaos;
mod gen_policies;
mod gen_topo;
mod impact;
mod profile;
mod report;
mod route;
mod stress;
mod trace;

/// One subcommand: its name, the synopsis and description `adroute help`
/// prints after it, the flags it accepts (in the order an unknown-flag
/// error lists them), the check `dispatch` makes of them — `Args::known`,
/// or `Args::known_with_positionals` for a command that takes an operand
/// — and its handler.
struct Command {
    name: &'static str,
    usage: &'static str,
    flags: &'static [&'static str],
    check: fn(&Args, &[&str]) -> Result<(), CliError>,
    run: fn(&Args) -> Result<String, CliError>,
}

/// Every subcommand, in the order `adroute help` lists them.
const COMMANDS: &[Command] = &[
    gen_topo::GEN_TOPO,
    gen_policies::GEN_POLICIES,
    route::ROUTE,
    audit::AUDIT,
    impact::IMPACT,
    chaos::CHAOS,
    report::REPORT,
    trace::TRACE,
    trace::BLAME,
    stress::STRESS,
    profile::PROFILE,
    Command {
        name: "help",
        usage: "this text",
        flags: &[],
        check: no_check,
        run: |_| Ok(usage()),
    },
];

/// The check of `help`, which ignores its flags, and of `audit`, whose
/// two modes each check their own.
fn no_check(_: &Args, _: &[&str]) -> Result<(), CliError> {
    Ok(())
}

/// Top-level usage text: one block per subcommand.
pub fn usage() -> String {
    let mut out = String::from(
        "adroute — inter-AD policy routing tools (SIGCOMM 1990 design space)\n\n\
         USAGE: adroute <command> [--flag value]...\n\nCOMMANDS:\n",
    );
    for c in COMMANDS {
        let _ = writeln!(out, "  {:<14}{}", c.name, c.usage);
    }
    out
}

/// Dispatches a parsed command line: looks the subcommand up, checks its
/// flags and runs it. `-h` is `help`.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    let name = match args.command.as_str() {
        "-h" | "--help" => "help",
        name => name,
    };
    let Some(c) = COMMANDS.iter().find(|c| c.name == name) else {
        return bail(format!("unknown command '{name}'; try `adroute help`"));
    };
    (c.check)(args, c.flags)?;
    (c.run)(args)
}

fn load_topo(path: &str) -> Result<Topology, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read topology '{path}': {e}")))?;
    topo_io::parse(&text).map_err(|e| CliError(format!("topology '{path}': {e}")))
}

fn load_policies(path: Option<&str>, topo: &Topology) -> Result<PolicyDb, CliError> {
    let Some(p) = path else {
        return Ok(PolicyDb::permissive(topo));
    };
    let text =
        fs::read_to_string(p).map_err(|e| CliError(format!("cannot read policies '{p}': {e}")))?;
    parse_policies(&text, topo.num_ads()).map_err(|e| CliError(format!("policies '{p}': {e}")))
}

/// The `--json` envelope: `{"<command>":{…}}` on one line.
fn wrap_json(command: &str, body: String) -> String {
    let mut out = JsonWriter::object().put(command, body).finish();
    out.push('\n');
    out
}

fn emit(out: &str, target: Option<&str>) -> Result<String, CliError> {
    match target {
        None => Ok(out.to_string()),
        Some(path) => {
            fs::write(path, out).map_err(|e| CliError(format!("cannot write '{path}': {e}")))?;
            Ok(format!("wrote {} bytes to {path}\n", out.len()))
        }
    }
}

/// Writes a `--trace` export and appends the human `trace:` line to
/// `out` — except under `--json`, where stdout stays exactly one JSON
/// value.
fn write_trace(path: &str, jsonl: &str, json: bool, out: &mut String) -> Result<(), CliError> {
    fs::write(path, jsonl).map_err(|e| CliError(format!("cannot write trace '{path}': {e}")))?;
    if !json {
        let _ = writeln!(out, "trace: wrote {} bytes to {path}", jsonl.len());
    }
    Ok(())
}

/// `--duration` in ms. Fault plans schedule in µs up to some twenty
/// horizons past the converged clock (an exponential dwell drawn near
/// the end of one), so the bound keeps that far inside a `u64`.
fn opt_duration_ms(args: &Args, default: u64) -> Result<u64, CliError> {
    const MAX_MS: u64 = 1_000_000_000_000;
    let ms: u64 = args.opt_parse("duration", default)?;
    if ms > MAX_MS {
        return bail(format!("--duration must be at most {MAX_MS} milliseconds"));
    }
    Ok(ms)
}

/// An optional flag that feeds a Bernoulli draw: NaN and anything outside
/// [0, 1] would panic in the generator, so they stop here.
fn opt_probability(args: &Args, key: &str, default: f64) -> Result<f64, CliError> {
    let p: f64 = args.opt_parse(key, default)?;
    if !(0.0..=1.0).contains(&p) {
        return bail(format!("--{key} must be a probability in [0, 1]"));
    }
    Ok(p)
}

/// The `--loss` flag of `chaos` and `trace`: the channel's loss
/// probability, in [0, 0.5].
fn opt_loss(args: &Args, default: f64) -> Result<f64, CliError> {
    let loss: f64 = args.opt_parse("loss", default)?;
    if !(0.0..=0.5).contains(&loss) {
        return bail("--loss must be in [0, 0.5]");
    }
    Ok(loss)
}

/// The link churn `chaos` and `trace` inject over a `duration_ms`
/// horizon: 30 % of the links fail, a third of the horizon apart on
/// average, and take an eighth of it to repair.
fn link_churn(duration_ms: u64, seed: u64) -> FailureModel {
    FailureModel {
        mtbf_ms: duration_ms as f64 / 3.0,
        mttr_ms: duration_ms as f64 / 8.0,
        fallible_fraction: 0.3,
        seed: seed ^ 0x11,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn run(line: &str) -> Result<String, CliError> {
        dispatch(&Args::parse(line.split_whitespace().map(str::to_string)).unwrap())
    }

    pub(super) fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("adroute-cli-tests");
        let _ = fs::create_dir_all(&dir);
        dir.join(name).to_string_lossy().into_owned()
    }

    /// The usage block and the flag list of an entry are two spellings
    /// of one decision: every flag the usage names is accepted, and
    /// every accepted flag is named.
    #[test]
    fn every_usage_block_names_exactly_the_accepted_flags() {
        for c in COMMANDS {
            let mut named: Vec<&str> = c
                .usage
                .split("--")
                .skip(1)
                .map(|s| s.split(|ch: char| !ch.is_ascii_lowercase()).next().unwrap())
                .collect();
            named.sort_unstable();
            named.dedup();
            let mut accepted = c.flags.to_vec();
            accepted.sort_unstable();
            assert_eq!(named, accepted, "{}", c.name);
        }
    }

    #[test]
    fn end_to_end_pipeline() {
        let topo_file = tmp("pipeline.topo");
        let pol_file = tmp("pipeline.pol");
        // 1. Generate a topology.
        let msg = run(&format!("gen-topo --ads 60 --seed 3 --out {topo_file}")).unwrap();
        assert!(msg.contains("wrote"));
        // 2. Generate policies for it.
        let msg = run(&format!(
            "gen-policies --topo {topo_file} --seed 3 --out {pol_file}"
        ))
        .unwrap();
        assert!(msg.contains("wrote"));
        // 3. Route a flow.
        let out = run(&format!(
            "route --topo {topo_file} --policies {pol_file} --src 3 --dst 40"
        ))
        .unwrap();
        assert!(out.contains("flow: AD3->AD40"), "{out}");
        assert!(
            out.contains("route:") || out.contains("no policy-legal route"),
            "{out}"
        );
        // 4. Audit.
        let out = run(&format!("audit --topo {topo_file}")).unwrap();
        assert!(out.contains("articulation ADs"), "{out}");
        assert!(out.contains("connected: true"), "{out}");
        // 5. Impact of shutting down AD2.
        let cand_file = tmp("pipeline.cand");
        fs::write(&cand_file, "policy AD2 { default deny; }").unwrap();
        let out = run(&format!(
            "impact --topo {topo_file} --policies {pol_file} --candidate {cand_file} --flows 50"
        ))
        .unwrap();
        assert!(out.contains("safe (no flow stranded):"), "{out}");
        assert!(out.contains("transit share:"), "{out}");
    }

    #[test]
    fn help_flags_name_the_help_command() {
        let usage = run("help").unwrap();
        assert!(usage.contains("USAGE"));
        assert_eq!(run("-h").unwrap(), usage);
        assert_eq!(run("--help").unwrap(), usage);
        // Every other leading flag is still refused before dispatch.
        for line in ["--json", "--ads 5 gen-topo", "--helpx"] {
            let err = Args::parse(line.split_whitespace().map(str::to_string)).unwrap_err();
            assert_eq!(err.0, "the subcommand must come before flags", "{line}");
        }
    }

    #[test]
    fn helpful_errors() {
        assert!(run("frobnicate").unwrap_err().0.contains("unknown command"));
        let err = run("bench").unwrap_err().0;
        assert!(err.contains("unknown command 'bench'"), "{err}");
        assert!(run("gen-topo").unwrap_err().0.contains("--ads"));
        assert!(run("gen-topo --ads 50 --bogus 1")
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(run("route --topo /nonexistent --src 0 --dst 1")
            .unwrap_err()
            .0
            .contains("cannot read"));
        let topo_file = tmp("err.topo");
        run(&format!("gen-topo --ads 50 --seed 5 --out {topo_file}")).unwrap();
        assert!(run(&format!("route --topo {topo_file} --src 0 --dst 9999"))
            .unwrap_err()
            .0
            .contains("outside the topology"));
        assert!(run(&format!(
            "route --topo {topo_file} --src 0 --dst 1 --time 25:00"
        ))
        .unwrap_err()
        .0
        .contains("bad time"));
        for line in ["chaos --workers 2", "profile quickstart --workers 2"] {
            let err = run(line).unwrap_err().0;
            assert!(
                err.starts_with("unknown flag --workers for "),
                "{line}: {err}"
            );
        }
        for cmd in ["gen-topo", "chaos", "report", "trace", "profile e13"] {
            let err = run(&format!("{cmd} --ads 0")).unwrap_err().0;
            assert_eq!(err, "--ads must be positive", "{cmd}");
        }
        // A delay past 32 bits would overflow a route's summed latency.
        let huge = tmp("huge-delay.topo");
        fs::write(
            &huge,
            "ad 0 campus stub\nad 1 campus stub\nlink 0 1 metric 1 delay 18446744073709551615 up\n",
        )
        .unwrap();
        let err = run(&format!("route --topo {huge} --src 0 --dst 1"))
            .unwrap_err()
            .0;
        assert!(err.contains("line 3: expected delay value"), "{err}");
        assert!(run("help").unwrap().contains("USAGE"));
    }

    #[test]
    fn durations_past_the_schedulable_horizon_are_errors_not_panics() {
        for line in [
            // x500 wrapped the partition's heal time into the past...
            "chaos --ads 30 --partition --duration 99999999999999999",
            // ...or to before the cut.
            "chaos --ads 30 --partition --duration 18446744073709551615",
            "trace --duration 99999999999999999",
        ] {
            let err = run(line).unwrap_err().0;
            assert_eq!(
                err, "--duration must be at most 1000000000000 milliseconds",
                "{line}"
            );
        }
    }

    #[test]
    fn json_with_trace_prints_exactly_one_json_value() {
        for cmd in ["audit", "stress"] {
            let file = tmp(&format!("{cmd}-json-trace.jsonl"));
            let out = run(&format!("{cmd} quickstart --json --trace {file}")).unwrap();
            // No human `trace:` line after the object; the file is still written.
            assert_eq!(out, run(&format!("{cmd} quickstart --json")).unwrap());
            assert!(fs::read(&file).unwrap().len() > 1000, "{cmd}");
        }
    }

    #[test]
    fn every_documented_scenario_name_resolves_through_the_one_table() {
        for (cmd, names) in [
            ("audit", "quickstart, e7b"),
            ("blame", "quickstart, e7b"),
            ("stress", "quickstart, e9b"),
            ("profile", "quickstart, e7b, e13, e14"),
        ] {
            let documented = format!("  {cmd:<14}<{}>", names.replace(", ", "|"));
            assert!(usage().contains(&documented), "{documented}");
            for name in names.split(", ") {
                let out = run(&format!("{cmd} {name} --json")).unwrap();
                // e7b, e9b and e14 are three names for one internet
                // (`blame` prints no size; e13 sizes its own).
                if !["quickstart", "e13"].contains(&name) && cmd != "blame" {
                    assert!(out.contains("\"ads\":98,\"links\":147,"), "{cmd} {name}");
                }
            }
            assert_eq!(
                run(&format!("{cmd} bogus")).unwrap_err().0,
                format!("unknown {cmd} scenario 'bogus'; scenarios: {names}")
            );
        }
    }
}

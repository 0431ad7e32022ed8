//! Printing one run, the `run` command (one child process per run, all
//! results into `out/results.json`) and the `compare` command.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::harness::{drive, Ledger, Opts, Outcome};
use crate::hbh::{Dv, Hbh, Ls, Pv};
use crate::json::{self, Value};
use crate::metrics::{Better, E2E, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::orwg::{Churn, Open, Orwg, Serve};
use crate::stats::{median, spread};
use crate::trace;

/// Where results and traces go: `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs `workload` once in this process; `None` for an unknown name.
pub fn execute(workload: &str, opts: Opts) -> Option<Outcome> {
    Some(match workload {
        "dv-converge" => drive::<Hbh<Dv>>(opts),
        "pv-converge" => drive::<Hbh<Pv>>(opts),
        "ls-converge" => drive::<Hbh<Ls>>(opts),
        "orwg-open" => drive::<Orwg<Open>>(opts),
        "orwg-serve" => drive::<Orwg<Serve>>(opts),
        "orwg-churn" => drive::<Orwg<Churn>>(opts),
        _ => return None,
    })
}

fn ledger_json(ledger: &Ledger) -> Value {
    Value::obj(
        ledger
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v as f64))),
    )
}

/// The metrics a run reports: end-to-end ones, or per-layer ones when traced.
fn reported(outcome: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    if trace {
        outcome
            .layers
            .iter()
            .zip(PER_LAYER)
            .map(|(&(name, v), (_, unit, _))| (name, v, unit))
            .collect()
    } else {
        outcome
            .e2e
            .iter()
            .zip(E2E)
            .map(|(&(name, v), m)| (name, v, m.unit))
            .collect()
    }
}

/// Prints one run: every metric by name with its unit, the ledger, what
/// broke, and — last — the result object. Writes the trace file of a
/// traced run. Returns whether the run was correct.
pub fn print_run(workload: &str, opts: Opts, outcome: &Outcome) -> bool {
    println!(
        "# {workload}  seed={} seconds={} trace={} rounds={}{}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        outcome.rounds,
        if opts.quick {
            "  QUICK SIZES: NUMBERS NOT COMPARABLE"
        } else {
            ""
        }
    );
    let metrics = reported(outcome, opts.trace);
    for (name, v, unit) in &metrics {
        println!("{name} {v} {unit}");
    }
    for what in outcome.broken.iter().take(8) {
        println!("BROKEN {what}");
    }
    if outcome.broken.len() > 8 {
        println!("BROKEN ... and {} more", outcome.broken.len() - 8);
    }
    if opts.trace {
        let path = out_dir().join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
            std::fs::write(&path, trace::to_json(workload, &outcome.spans).pretty())
        });
        match written {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!("ledger {}", ledger_json(&outcome.ledger));
    let correct = outcome.failed == 0;
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|(name, v, unit)| {
                (
                    *name,
                    Value::obj([
                        ("value", Value::Num(*v)),
                        ("unit", Value::Str((*unit).into())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{result}");
    correct
}

/// Options of the `run` command.
#[derive(Clone, Debug)]
pub struct RunAll {
    /// Seed handed to every child.
    pub seed: u64,
    /// Untraced repetitions per workload.
    pub reps: usize,
    /// Seconds each child measures for.
    pub seconds: f64,
    /// Only this workload, or all.
    pub workload: Option<String>,
    /// One extra, traced repetition per workload.
    pub traced: bool,
    /// Small sizes.
    pub quick: bool,
    /// Self-test hook passed on to the children.
    pub inject_fault: bool,
}

impl Default for RunAll {
    fn default() -> RunAll {
        RunAll {
            seed: 23,
            reps: 3,
            seconds: RUN_SECONDS as f64,
            workload: None,
            traced: false,
            quick: false,
            inject_fault: false,
        }
    }
}

/// What the parent keeps of one child.
struct Child {
    metrics: Vec<(String, f64)>,
    ledger: Value,
}

/// Runs one child to completion and parses what it printed.
fn spawn(workload: &str, cfg: &RunAll, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    if cfg.inject_fault {
        cmd.arg("--inject-fault");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let broken: Vec<&str> = text.lines().filter(|l| l.starts_with("BROKEN")).collect();
        return Err(format!(
            "{workload}: child failed ({})\n{}",
            out.status,
            broken.join("\n")
        ));
    }
    let last = text.lines().last().ok_or("child printed nothing")?;
    let result = json::parse(last)?;
    let metrics = result
        .get("metrics")
        .and_then(Value::members)
        .ok_or("result has no metrics")?
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Value::num)
                .ok_or("metric has no value")?;
            Ok((name.clone(), v))
        })
        .collect::<Result<_, &str>>()?;
    let ledger = text
        .lines()
        .find_map(|l| l.strip_prefix("ledger "))
        .ok_or("child printed no ledger")
        .and_then(|l| json::parse(l).map_err(|_| "unparsable ledger"))?;
    Ok(Child { metrics, ledger })
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The `run` command: one fresh child process per (workload, repetition),
/// strictly one after another, so peak RSS and allocator state belong to
/// that run alone. Checks every child's invariants and that the ledgers
/// of a workload's repetitions are exactly equal, prints the medians and
/// writes `out/results.json`.
pub fn run_all(cfg: &RunAll) -> Result<PathBuf, String> {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| cfg.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    if names.is_empty() {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    let mut workloads = Vec::new();
    for name in names {
        let mut reps: Vec<Child> = Vec::new();
        for rep in 0..cfg.reps {
            eprintln!("{name}: repetition {} of {}", rep + 1, cfg.reps);
            reps.push(spawn(name, cfg, false)?);
        }
        let first = reps.first().ok_or("--reps must be at least 1")?;
        if let Some(rep) = reps.iter().position(|c| c.ledger != first.ledger) {
            return Err(format!(
                "{name}: ledger of repetition {} differs from the first",
                rep + 1
            ));
        }
        println!(
            "\n## {name}  ({} repetitions{})",
            cfg.reps,
            if cfg.quick {
                ", quick sizes: not comparable"
            } else {
                ""
            }
        );
        let mut e2e = Vec::new();
        for (i, m) in E2E.iter().enumerate() {
            let values: Vec<f64> = reps.iter().map(|c| c.metrics[i].1).collect();
            println!(
                "{:<16} {:>14.4} {:<4} (median of {})",
                m.name,
                median(&values),
                m.unit,
                values.len()
            );
            e2e.push((
                m.name,
                Value::obj([
                    ("unit", Value::Str(m.unit.into())),
                    ("median", Value::Num(median(&values))),
                    (
                        "values",
                        Value::Arr(values.into_iter().map(Value::Num).collect()),
                    ),
                ]),
            ));
        }
        let mut layers = Vec::new();
        if cfg.traced {
            eprintln!("{name}: traced run");
            let traced = spawn(name, cfg, true)?;
            if traced.ledger != first.ledger {
                return Err(format!("{name}: the traced run's ledger differs"));
            }
            for ((name, v), (_, unit, _)) in traced.metrics.iter().zip(PER_LAYER) {
                println!("  {name:<44} {v:>14.4} {unit}");
                layers.push((
                    name.clone(),
                    Value::obj([("value", Value::Num(*v)), ("unit", Value::Str(unit.into()))]),
                ));
            }
        }
        workloads.push(Value::obj([
            ("workload", Value::Str(name.into())),
            ("e2e", Value::obj(e2e)),
            ("layers", Value::obj(layers)),
            ("ledger", first.ledger.clone()),
        ]));
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = Value::obj([
        ("rev", Value::Str(git_rev())),
        ("host_cpus", Value::Num(cpus as f64)),
        ("seed", Value::Num(cfg.seed as f64)),
        ("reps", Value::Num(cfg.reps as f64)),
        ("seconds", Value::Num(cfg.seconds)),
        ("quick", Value::Bool(cfg.quick)),
        ("workloads", Value::Arr(workloads)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, results.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// How one (workload, metric) pair compares.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Within,
    /// The repetitions of a side spread wider than the bound, and the
    /// sides overlap: the pair does not resolve the metric.
    Unresolved,
    /// `b` is worse than `a` by more than the bound.
    Regression,
}

/// Judges metric `m` given both sides' repetitions.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let wide = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound));
    // Every run of b better than every run of a resolves the metric
    // whatever the spread.
    let b_wins_every_pair = match better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    let verdict = if wide && !b_wins_every_pair {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Within
    };
    (worse, verdict)
}

/// The `compare` command: every end-to-end metric of every workload in
/// both files against its bound, and the ledgers for exact equality.
/// `Ok(true)` when nothing regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |v: &Value| -> Result<Vec<Value>, String> {
        Ok(v.get("workloads")
            .and_then(Value::arr)
            .ok_or("no workloads")?
            .to_vec())
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let rev = |v: &Value| v.get("rev").and_then(Value::str).unwrap_or("?").to_string();
    println!(
        "a = {a_path} (rev {})   b = {b_path} (rev {})",
        rev(&a),
        rev(&b)
    );
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "b/a", "bound"
    );
    let mut ok = true;
    for x in &wa {
        let name = x
            .get("workload")
            .and_then(Value::str)
            .ok_or("unnamed workload")?;
        let Some(y) = wb
            .iter()
            .find(|y| y.get("workload").and_then(Value::str) == Some(name))
        else {
            println!("{name:<12} missing from b");
            ok = false;
            continue;
        };
        for m in &E2E {
            let values = |w: &Value| -> Result<Vec<f64>, String> {
                w.get("e2e")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get("values"))
                    .and_then(Value::arr)
                    .map(|vs| vs.iter().filter_map(Value::num).collect())
                    .ok_or(format!("{name}: no values for {}", m.name))
            };
            let (va, vb) = (values(x)?, values(y)?);
            let (worse, verdict) = judge(m.better, m.bound, &va, &vb);
            ok &= verdict != Verdict::Regression;
            println!(
                "{name:<12} {:<14} {:>14.4} {:>14.4} {:>9.4} {:>6.0}%  {}",
                m.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                m.bound * 100.0,
                match verdict {
                    Verdict::Within => format!("within ({:+.1}% worse)", worse * 100.0),
                    Verdict::Unresolved => "unresolved (spread exceeds bound)".into(),
                    Verdict::Regression => format!("REGRESSION ({:+.1}% worse)", worse * 100.0),
                }
            );
        }
        let same = x.get("ledger") == y.get("ledger");
        println!(
            "{name:<12} ledger         {}",
            if same { "equal" } else { "DIFFERS" }
        );
        if !same {
            // Across commits a ledger may move on purpose; it is shown,
            // and it fails only a same-revision pair.
            ok &= rev(&a) != rev(&b);
        }
    }
    Ok(ok)
}

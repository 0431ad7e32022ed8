//! `adroute-benchmark`: see `README.md` beside this crate.
//!
//! ```text
//! adroute-benchmark --workload W --seed N --seconds S --trace 0|1   one run, in this process
//! adroute-benchmark run [--seed S] [--reps R] [--seconds S] [--workload W] [--traced] [--quick]
//! adroute-benchmark compare <a.json> <b.json>
//! adroute-benchmark manifest                                        prints BENCHMARK.json
//! ```

use std::process::ExitCode;

use adroute_benchmark::harness::Opts;
use adroute_benchmark::metrics::{manifest, RUN_SECONDS, WORKLOADS};
use adroute_benchmark::report::{compare, execute, print_run, run_all, RunAll};

const USAGE: &str = "usage:
  adroute-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  adroute-benchmark run [--seed S] [--reps R] [--seconds S] [--workload W] [--traced] [--quick]
  adroute-benchmark compare <a.json> <b.json>
  adroute-benchmark manifest";

/// `--flag value` pairs and bare `--flag`s after the command word.
struct Flags(Vec<String>);

impl Flags {
    fn take(&mut self, flag: &str) -> bool {
        let at = self.0.iter().position(|a| a == flag);
        at.map(|i| self.0.remove(i)).is_some()
    }

    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        let raw = self.0.remove(i + 1);
        self.0.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("{flag}: cannot read '{raw}'"))
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
        }
    }
}

fn seconds_ok(s: f64) -> Result<f64, String> {
    if s.is_finite() && s > 0.0 && s <= 3600.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be in (0, 3600], found {s}"))
    }
}

fn one_run(mut f: Flags) -> Result<bool, String> {
    let workload: String = f.value("--workload")?.ok_or("--workload is required")?;
    let opts = Opts {
        seed: f.value("--seed")?.unwrap_or(23),
        seconds: seconds_ok(f.value("--seconds")?.unwrap_or(RUN_SECONDS as f64))?,
        trace: match f.value::<u8>("--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, found {other}")),
        },
        quick: f.take("--quick"),
        inject_fault: f.take("--inject-fault"),
    };
    f.done()?;
    let outcome = execute(&workload, opts).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!(
            "unknown workload '{workload}'; workloads: {}",
            names.join(", ")
        )
    })?;
    Ok(print_run(&workload, opts, &outcome))
}

fn run(mut f: Flags) -> Result<bool, String> {
    let quick = f.take("--quick");
    let cfg = RunAll {
        seed: f.value("--seed")?.unwrap_or(23),
        reps: f.value("--reps")?.unwrap_or(3),
        seconds: seconds_ok(f.value("--seconds")?.unwrap_or(if quick {
            1.0
        } else {
            RUN_SECONDS as f64
        }))?,
        workload: f.value("--workload")?,
        traced: f.take("--traced"),
        quick,
        inject_fault: f.take("--inject-fault"),
    };
    f.done()?;
    let path = run_all(&cfg)?;
    println!("\nresults written to {}", path.display());
    Ok(true)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(Flags(args.split_off(1))),
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", manifest().pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => one_run(Flags(args)),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("adroute-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

//! `rewire-perf`: the repository's benchmark. It maps fixed kernel suites
//! with the PF*, Rewire and exact SAT mappers under deterministic caps and
//! reports compile time and achieved II end to end, and router, amendment,
//! SAT and engine work per layer. See `perf/README.md`.
//!
//! ```text
//! rewire-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! rewire-perf suite [--out DIR]
//! rewire-perf compare A.json B.json
//! ```

mod compare;
mod metrics;
mod run;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  rewire-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  rewire-perf suite [--out DIR]
  rewire-perf compare A.json B.json";

/// `--flag value` pairs, checked against the flags a command accepts.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unexpected argument {flag:?}"));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} needs a number, got {v:?}")),
        }
    }

    /// `--out`, or `perf/<default>` inside the package.
    fn out_dir(&self, default: &str) -> PathBuf {
        self.get("--out").map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(default),
            PathBuf::from,
        )
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out"],
    )?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let seconds: f64 = flags.num("--seconds", 25.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let result = run::run(&run::RunArgs {
        workload,
        seed: flags.num("--seed", run::SEED)?,
        seconds,
        trace,
        out_dir: flags.out_dir("out"),
    })?;
    println!("{}", result.to_json());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => Flags::parse(&args[1..], &["--out"])
            .and_then(|flags| suite::suite(&flags.out_dir("out/suite")))
            .map(|()| ExitCode::SUCCESS),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b).map(|regressed| {
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }),
            _ => Err("compare takes two results files".into()),
        },
        _ => cmd_run(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("rewire-perf: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

//! `rewire-map` — command-line CGRA mapping driver.
//!
//! Maps a bundled kernel (or a `.dfg` text file) onto a preset or custom
//! fabric with any of the three mappers, then optionally renders the
//! per-slot grid, dumps the configuration words, writes a DOT file, and
//! verifies the mapping semantically in the functional simulator.
//!
//! ```text
//! rewire-map --kernel gesummv --arch 4x4r4 --mapper rewire --show-grid --verify 8
//! rewire-map --dfg my_kernel.dfg --arch "6x6 regs=2 banks=4 memcols=0"
//! rewire-map --artifact fuzz/corpus/seed0004-pass.dfg --observe obs
//! ```
//!
//! Exit status: 0 = mapped, 1 = no mapping within budget, 2 = usage error.

use rewire::arch::random::CgraSpec;
use rewire::mappers::observe;
use rewire::prelude::*;
use rewire::sim::config::Configuration;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    kernel: Option<String>,
    dfg_path: Option<String>,
    artifact: Option<String>,
    arch: Option<String>,
    mapper: String,
    budget_ms: u64,
    max_ii: Option<u32>,
    seed: Option<u64>,
    show_grid: bool,
    show_config: bool,
    dot: Option<String>,
    verify: u32,
    observe: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            kernel: None,
            dfg_path: None,
            artifact: None,
            arch: None,
            mapper: "rewire".into(),
            budget_ms: 2000,
            max_ii: None,
            seed: None,
            show_grid: false,
            show_config: false,
            dot: None,
            verify: 0,
            observe: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--kernel" => a.kernel = Some(val("--kernel")?),
                "--dfg" => a.dfg_path = Some(val("--dfg")?),
                "--artifact" => a.artifact = Some(val("--artifact")?),
                "--arch" => a.arch = Some(val("--arch")?),
                "--mapper" => a.mapper = val("--mapper")?,
                "--budget-ms" => {
                    a.budget_ms = val("--budget-ms")?
                        .parse()
                        .map_err(|e| format!("--budget-ms: {e}"))?;
                }
                "--max-ii" => {
                    a.max_ii = Some(
                        val("--max-ii")?
                            .parse()
                            .map_err(|e| format!("--max-ii: {e}"))?,
                    )
                }
                "--seed" => {
                    a.seed = Some(val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?)
                }
                "--show-grid" => a.show_grid = true,
                "--show-config" => a.show_config = true,
                "--dot" => a.dot = Some(val("--dot")?),
                "--verify" => {
                    a.verify = val("--verify")?
                        .parse()
                        .map_err(|e| format!("--verify: {e}"))?
                }
                "--observe" => a.observe = Some(val("--observe")?),
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
            }
        }
        if a.kernel.is_none() && a.dfg_path.is_none() && a.artifact.is_none() {
            return Err(format!(
                "one of --kernel, --dfg or --artifact is required\n{USAGE}"
            ));
        }
        Ok(a)
    }
}

const USAGE: &str = "\
usage: rewire-map (--kernel <name> | --dfg <file> | --artifact <file>) [options]
  --artifact <file>                load a rewire-fuzz corpus artifact (fabric, kernel,
                                   seed and II ceiling all come from the file; --seed,
                                   --max-ii and --arch still override)
  --arch <fabric>                  4x4r4|4x4r2|4x4r1|8x8r4 (default 4x4r4), or a spec
                                   \"RxC [regs=N] [banks=B] [memcols=0,3] [torus] [diag]
                                   [cut=R]\" (regs 4 and no memory unless given)
  --mapper rewire|pf|sa|exact      mapper (default rewire; exact = SAT backend with
                                   per-II optimality/infeasibility proofs)
  --budget-ms N                    per-II wall-clock budget (default 2000)
  --max-ii N                       II ceiling (default 20, or the artifact's)
  --seed N                         RNG seed
  --show-grid                      render the per-slot placement grid
  --show-config                    dump the per-slot configuration words
  --dot <file>                     write the DFG in Graphviz DOT
  --verify N                       simulate N iterations and check semantics
  --observe <dir>                  write the run's record, metrics snapshot, flight log
                                   and Chrome trace into <dir> (read it with rewire-doctor)
Every mapper routes with one router: a distance-pruned DP sweep, with each
multi-sink signal routed as a shared route tree.";

/// The `--arch` fabric: a paper preset by name, or a [`CgraSpec`]
/// string (the fuzz corpus's fabric form).
fn build_cgra(arch: &str) -> Result<Cgra, String> {
    match arch {
        "4x4r4" => Ok(presets::paper_4x4_r4()),
        "4x4r2" => Ok(presets::paper_4x4_r2()),
        "4x4r1" => Ok(presets::paper_4x4_r1()),
        "8x8r4" => Ok(presets::paper_8x8_r4()),
        spec => spec
            .parse::<CgraSpec>()
            .map_err(|e| format!("--arch `{spec}`: {e}"))?
            .build()
            .map_err(|e| format!("--arch `{spec}`: {e}")),
    }
}

fn load_dfg(a: &Args) -> Result<Dfg, String> {
    if let Some(name) = &a.kernel {
        return kernels::by_name(name).ok_or_else(|| format!("unknown kernel `{name}`"));
    }
    let path = a.dfg_path.as_ref().expect("checked in parse");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Dfg::from_text(&text).map_err(|e| e.to_string())
}

/// Loads a fuzz-corpus artifact: the fabric, kernel, seed, and II ceiling
/// all come from the file unless overridden on the command line. `--arch`
/// wins over the artifact's spec so a hard case can be replayed on a
/// different fabric.
fn load_artifact(a: &mut Args) -> Result<Option<(Cgra, Dfg)>, String> {
    let Some(path) = a.artifact.clone() else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let artifact = rewire_fuzz::Artifact::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
    if a.max_ii.is_none() {
        a.max_ii = Some(artifact.max_ii);
    }
    if a.seed.is_none() {
        a.seed = Some(artifact.seed);
    }
    if !artifact.note.is_empty() {
        println!("artifact: {} ({})", path, artifact.note);
    }
    let cgra = match &a.arch {
        Some(arch) => build_cgra(arch)?,
        None => artifact.spec.build().map_err(|e| format!("{path}: {e}"))?,
    };
    Ok(Some((cgra, artifact.dfg)))
}

fn main() -> ExitCode {
    let mut args = match Args::parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let loaded = match load_artifact(&mut args) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let args = args;
    let (cgra, dfg) = match loaded {
        Some(pair) => pair,
        None => match (
            build_cgra(args.arch.as_deref().unwrap_or("4x4r4")),
            load_dfg(&args),
        ) {
            (Ok(c), Ok(d)) => (c, d),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
    };

    println!("fabric:  {cgra}");
    println!("kernel:  {dfg}");
    match dfg.mii(&cgra) {
        Some(mii) => println!(
            "MII:     {mii} (RecMII {}, ResMII {:?})",
            dfg.rec_mii(),
            dfg.res_mii(&cgra)
        ),
        None => {
            eprintln!("this kernel can never map on this fabric (missing memory capacity)");
            return ExitCode::from(1);
        }
    }
    if let Some(path) = &args.dot {
        if let Err(e) = std::fs::write(path, dfg.to_dot()) {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
        println!("DOT written to {path}");
    }

    let mapper: Box<dyn Mapper> = match args.mapper.as_str() {
        "rewire" => Box::new(RewireMapper::new()),
        "pf" => Box::new(PathFinderMapper::new()),
        "sa" => Box::new(SaMapper::new()),
        "exact" => Box::new(ExactSatMapper::new()),
        other => {
            eprintln!("unknown --mapper `{other}` (rewire|pf|sa|exact)");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(0xC0FFEE);
    let limits = MapLimits::fast()
        .with_ii_time_budget(Duration::from_millis(args.budget_ms))
        .with_max_ii(args.max_ii.unwrap_or(20))
        .with_seed(seed);

    // The forensics collectors are process-global and off by default;
    // `--observe` switches them on for this run.
    if args.observe.is_some() {
        observe::enable_collectors();
    }

    let outcome = mapper.map(&dfg, &cgra, &limits);
    if let Some(dir) = &args.observe {
        if let Err(e) = observe::write(Path::new(dir), [&outcome.stats]) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
        println!("observe directory written to {dir}");
    }
    let report_verdicts = |stats: &MapStats| {
        if !stats.verdicts.is_empty() {
            let line: Vec<String> = stats
                .verdicts
                .iter()
                .map(|(ii, v)| format!("II {ii}: {}", v.label()))
                .collect();
            println!("verdicts: {}", line.join(", "));
            if stats.proven_optimal() {
                println!("achieved II is PROVEN optimal (every lower II refuted by SAT)");
            }
        }
    };
    let Some(mapping) = &outcome.mapping else {
        eprintln!("{}", outcome.stats);
        report_verdicts(&outcome.stats);
        return ExitCode::from(1);
    };
    println!("{}", outcome.stats);
    report_verdicts(&outcome.stats);
    println!(
        "throughput 1/{} iter/cycle, pipeline fill {} cycles, 1000 iterations take {} cycles",
        mapping.ii(),
        mapping.schedule_length(),
        mapping.cycles_for(1000)
    );
    {
        let cfg = Configuration::from_mapping(&dfg, mapping);
        let util = rewire::sim::Utilization::of(&cfg, &cgra);
        println!("utilization: {util}");
    }

    if args.show_grid {
        println!("\n{}", mapping.render_grid(&dfg, &cgra));
    }
    if args.show_config {
        let cfg = Configuration::from_mapping(&dfg, mapping);
        println!("\n{cfg}\n{}", cfg.render(&dfg, &cgra));
    }
    if args.verify > 0 {
        match verify_semantics(&dfg, &cgra, mapping, &Inputs::new(seed), args.verify) {
            Ok(()) => println!("semantics verified over {} iterations", args.verify),
            Err(e) => {
                eprintln!("SEMANTIC DIVERGENCE: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

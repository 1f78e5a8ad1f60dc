//! swCaffe two-clock benchmark: host wall clock and simulated time over
//! train / serve / cluster workloads. See `README.md` beside this crate.

mod compare;
mod harness;
mod outcome;
mod probes;
mod registry;
mod replay;
mod seeded;
mod serve;
mod stats;
mod sweep;
mod sys;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use outcome::Outcome;
use registry::{CLUSTER_SWEEP, SERVE_MIXED, TRAIN_HOST, TRAIN_MESH};
use trace::Recorder;

/// Seconds one run measures when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Share of `--seconds` the traced part of a traced run measures.
const TRACED_SHARE: f64 = 0.25;

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
[--quick] [--out DIR] [--tag T] [--repeat N]
       run.sh --compare DIR_A DIR_B
       run.sh --print-benchmark-json
workloads: train_host train_mesh serve_mixed cluster_sweep (default: all four, one process)";

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Set-ups per untraced run.
    setups: usize,
    out_dir: PathBuf,
    tag: Option<String>,
}

enum Command {
    Run(Options),
    Compare(PathBuf, PathBuf),
    PrintBenchmarkJson,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: seeded::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        setups: harness::SETUP_REPEATS,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        tag: None,
    };
    let mut quick = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w = registry::workload(&name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                opts.workloads.push(w.name);
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; the driver passes 0 or 1.
                opts.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => quick = true,
            "--out" => opts.out_dir = PathBuf::from(value("--out")?),
            "--tag" => {
                let tag = value("--tag")?;
                if tag.is_empty() || !tag.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
                    return Err("--tag takes letters, digits and `-`".into());
                }
                opts.tag = Some(tag);
            }
            "--compare" => {
                let a = PathBuf::from(value("--compare")?);
                let b = PathBuf::from(value("--compare")?);
                return Ok(Command::Compare(a, b));
            }
            "--print-benchmark-json" => return Ok(Command::PrintBenchmarkJson),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if quick {
        // A tenth of the time and one set-up: a smoke test of the harness
        // itself, not a measurement.
        opts.seconds /= 10.0;
        opts.setups = 1;
    }
    if opts.workloads.is_empty() {
        opts.workloads = registry::WORKLOADS.iter().map(|w| w.name).collect();
    }
    Ok(Command::Run(opts))
}

fn run_workload(workload: &'static str, opts: &Options) -> Result<(Outcome, Recorder), String> {
    let (seed, seconds) = (opts.seed, opts.seconds);
    if !opts.traced {
        let out = match workload {
            TRAIN_HOST | TRAIN_MESH => train::run_untraced(workload, seed, seconds, opts.setups),
            SERVE_MIXED => serve::run_untraced(seed, seconds, opts.setups),
            CLUSTER_SWEEP => sweep::run_untraced(seed, seconds, opts.setups),
            other => Err(format!("unknown workload `{other}`")),
        }?;
        return Ok((out, Recorder::new(false)));
    }
    let rec = Recorder::new(true);
    let mut out = Outcome::new(workload, seed, true, seconds);
    let part = seconds * TRACED_SHARE;
    match workload {
        TRAIN_HOST | TRAIN_MESH => train::run_traced_part(&mut out, &rec, workload, seed, part),
        SERVE_MIXED => serve::run_traced_part(&mut out, &rec, seed, part),
        CLUSTER_SWEEP => sweep::run_traced_part(&mut out, &rec, seed, part),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    probes::run(&mut out, &rec, seed)?;
    Ok((out, rec))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_records(out: &Outcome, rec: &Recorder, opts: &Options) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let stem = match &opts.tag {
        Some(tag) => format!("{}.{tag}", out.workload),
        None => out.workload.to_string(),
    };
    let kind = if out.traced { ".layers" } else { "" };
    write(
        &opts.out_dir.join(format!("{stem}{kind}.json")),
        &out.record().to_pretty_string(),
    )?;
    if out.traced {
        write(
            &opts.out_dir.join(format!("{stem}.trace.json")),
            &trace::chrome_json(&rec.spans()),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::Compare(a, b)) => {
            return match compare::run(&a, &b) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        Ok(Command::PrintBenchmarkJson) => {
            println!(
                "{}",
                registry::benchmark_json(DEFAULT_SECONDS as u64).to_pretty_string()
            );
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for workload in opts.workloads.iter().copied() {
        sys::reset_peak_rss();
        let (out, rec) = match run_workload(workload, &opts) {
            Ok(done) => done,
            Err(e) => {
                eprintln!("{workload}: {e}");
                return ExitCode::from(2);
            }
        };
        let errors = out.contract_errors();
        if !errors.is_empty() {
            for e in errors {
                eprintln!("{workload}: {e}");
            }
            return ExitCode::from(2);
        }
        out.print();
        if let Err(e) = write_records(&out, &rec, &opts) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
        all_correct &= out.correct();
        // Last line of a workload's output: the result the driver reads.
        println!("{}", out.result_line());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_human_forms_of_trace_both_parse() {
        let Ok(Command::Run(o)) = parse(&args(
            "--workload train_host --seed 7 --seconds 5 --trace 0",
        )) else {
            panic!("driver form");
        };
        assert_eq!(
            (o.workloads.as_slice(), o.seed, o.seconds, o.traced),
            (&[TRAIN_HOST][..], 7, 5.0, false)
        );
        let Ok(Command::Run(o)) = parse(&args("--trace 1 --workload serve_mixed")) else {
            panic!("driver form, traced");
        };
        assert!(o.traced && o.workloads == [SERVE_MIXED]);
        let Ok(Command::Run(o)) = parse(&args("--trace --quick")) else {
            panic!("human form");
        };
        assert!(o.traced && o.workloads.len() == 4 && o.seconds == DEFAULT_SECONDS / 10.0);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
    }

    #[test]
    fn default_seconds_is_the_benchmark_json_run_length() {
        let doc = swjson::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_u64()),
            Some(DEFAULT_SECONDS as u64)
        );
    }
}

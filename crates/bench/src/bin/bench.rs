//! `bench` — the one entry point to the scenario registry.
//!
//! ```text
//! bench <scenario> [--json PATH] [args...]
//! bench check [--fast] [--bless] [--dir D] [--export D] [names...]
//! ```
//!
//! The first form runs one scenario: its paper-style text table goes to
//! stdout, and `--json PATH` also writes the structured
//! [`swprof::Report`]. Remaining arguments go to the scenario (e.g.
//! `bench fig5_algorithm1 vgg16`).
//!
//! The second form is the regression gate. It runs the registered
//! scenarios in-process, compares each fresh report against the
//! checked-in baseline `docs/results/baseline/<name>.json`, and exits 1
//! on any drift: counter-class metrics (DMA bytes, RLC messages, flops,
//! all-reduce steps) exactly, timing-class metrics within a relative
//! tolerance (`swprof::DEFAULT_TIMING_REL_TOL`). `--bless` rewrites the
//! baselines from the current build instead of comparing; `--export D`
//! also writes every fresh `<name>.json` and its text table `<name>.txt`
//! to `D`. Names restrict the run to those scenarios (default: all, or
//! the fast subset with `--fast`).
//!
//! Usage and I/O errors exit 2.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use swcaffe_bench::scenarios::{self, Scenario};
use swprof::{compare, Report, Tolerance};

enum Command {
    Run {
        scenario: &'static Scenario,
        json: Option<PathBuf>,
        args: Vec<String>,
    },
    Check(Check),
}

struct Check {
    fast: bool,
    bless: bool,
    dir: PathBuf,
    export: Option<PathBuf>,
    names: Vec<&'static Scenario>,
}

fn usage() -> String {
    format!(
        "usage: bench <scenario> [--json PATH] [args...]\n       \
         bench check [--fast] [--bless] [--dir D] [--export D] [names...]\n\
         scenarios:{}",
        scenarios::SCENARIOS
            .iter()
            .map(|s| format!("\n  {:<24}{}", s.name, s.about))
            .collect::<String>()
    )
}

fn find(name: &str) -> Result<&'static Scenario, String> {
    scenarios::find(name).ok_or_else(|| format!("unknown scenario '{name}' (try --help)"))
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (first, rest) = args.split_first().ok_or_else(usage)?;
    if first == "--help" || first == "-h" {
        return Err(usage());
    }
    let check = first == "check";
    let (mut fast, mut bless) = (false, false);
    let (mut json, mut dir, mut export) = (None, None, None);
    let mut positional = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut path = |flag: &str| {
            it.next()
                .map(PathBuf::from)
                .ok_or(format!("{flag} requires a path"))
        };
        match (check, a.as_str()) {
            (_, "--help" | "-h") => return Err(usage()),
            (false, "--json") => json = Some(path("--json")?),
            (false, s) if s.starts_with("--json=") => json = Some(PathBuf::from(&s[7..])),
            (true, "--fast") => fast = true,
            (true, "--bless") => bless = true,
            (true, "--dir") => dir = Some(path("--dir")?),
            (true, "--export") => export = Some(path("--export")?),
            (_, flag) if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            (_, arg) => positional.push(arg.to_string()),
        }
    }
    if !check {
        return Ok(Command::Run {
            scenario: find(first)?,
            json,
            args: positional,
        });
    }
    Ok(Command::Check(Check {
        fast,
        bless,
        // Relative to this crate, so the gate works from any cwd.
        dir: dir.unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/results/baseline")
        }),
        export,
        names: positional
            .iter()
            .map(|n| find(n))
            .collect::<Result<_, _>>()?,
    }))
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn create_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Compare one fresh report against its baseline file; `true` if it
/// holds.
fn gate(scenario: &Scenario, path: &Path, fresh: &Report) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "FAIL {}: no baseline at {} ({e}); run `bench check --bless`",
                scenario.name,
                path.display()
            );
            return false;
        }
    };
    let baseline = match Report::from_json_str(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL {}: unreadable baseline: {e}", scenario.name);
            return false;
        }
    };
    let drifts = compare(&baseline, fresh, &Tolerance::default());
    if drifts.is_empty() {
        println!(
            "ok       {} ({} metrics)",
            scenario.name,
            fresh.metrics.len()
        );
        return true;
    }
    println!(
        "FAIL     {} ({} drifting metrics)",
        scenario.name,
        drifts.len()
    );
    for d in &drifts {
        println!("  {d}");
    }
    false
}

fn run(scenario: &Scenario, json: Option<PathBuf>, args: &[String]) -> Result<ExitCode, String> {
    let (text, report) = (scenario.run)(args);
    print!("{text}");
    if let Some(path) = json {
        write(&path, &report.to_json_string())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn check(opts: &Check) -> Result<ExitCode, String> {
    if opts.bless {
        create_dir(&opts.dir)?;
    }
    if let Some(out) = &opts.export {
        create_dir(out)?;
    }
    let selected = scenarios::SCENARIOS.iter().filter(|s| {
        if opts.names.is_empty() {
            !opts.fast || s.fast
        } else {
            opts.names.iter().any(|n| n.name == s.name)
        }
    });
    let mut failures = 0usize;
    for scenario in selected {
        let (text, fresh) = (scenario.run)(&[]);
        let json = fresh.to_json_string();
        if let Some(out) = &opts.export {
            write(&out.join(format!("{}.json", scenario.name)), &json)?;
            write(&out.join(format!("{}.txt", scenario.name)), &text)?;
        }
        let path = opts.dir.join(format!("{}.json", scenario.name));
        if opts.bless {
            write(&path, &json)?;
            println!(
                "blessed  {} ({} metrics)",
                path.display(),
                fresh.metrics.len()
            );
        } else if !gate(scenario, &path, &fresh) {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!(
            "{failures} scenario(s) drifted from the baselines; if intentional, \
             regenerate with `cargo run --release --bin bench -- check --bless`"
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|cmd| match cmd {
        Command::Run {
            scenario,
            json,
            args,
        } => run(scenario, json, &args),
        Command::Check(opts) => check(&opts),
    });
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("bench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn json_flag_forms() {
        for args in [
            &["fig5_algorithm1", "--json", "out.json", "vgg16"][..],
            &["fig5_algorithm1", "vgg16", "--json=out.json"],
        ] {
            let Ok(Command::Run {
                scenario,
                json,
                args,
            }) = parse_strs(args)
            else {
                panic!("{args:?} should parse as a run");
            };
            assert_eq!(scenario.name, "fig5_algorithm1");
            assert_eq!(json, Some(PathBuf::from("out.json")));
            assert_eq!(args, ["vgg16"]);
        }
        let Ok(Command::Run { json, args, .. }) = parse_strs(&["fig7_allreduce"]) else {
            panic!("a bare scenario name should parse as a run");
        };
        assert!(json.is_none() && args.is_empty());

        assert!(parse_strs(&["fig7_allreduce", "--json"]).is_err());
    }

    #[test]
    fn check_flag_forms() {
        let Ok(Command::Check(Check {
            fast,
            bless,
            dir,
            export,
            names,
        })) = parse_strs(&[
            "check",
            "--fast",
            "--bless",
            "--dir",
            "d",
            "--export",
            "e",
            "fig7_allreduce",
        ])
        else {
            panic!("check flags should parse");
        };
        assert!(fast && bless);
        assert_eq!(
            (dir, export),
            (PathBuf::from("d"), Some(PathBuf::from("e")))
        );
        assert_eq!(
            names.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["fig7_allreduce"]
        );

        let Ok(Command::Check(Check { dir, names, .. })) = parse_strs(&["check"]) else {
            panic!("a bare check should parse");
        };
        assert!(dir.ends_with("docs/results/baseline") && names.is_empty());
    }

    #[test]
    fn usage_errors() {
        for args in [
            &[][..],
            &["--help"],
            &["no_such_figure"],
            &["fig7_allreduce", "--fast"],
            &["fig7_allreduce", "--no-such-flag"],
            &["check", "--json", "x"],
            &["check", "--dir"],
            &["check", "no_such_figure"],
        ] {
            assert!(parse_strs(args).is_err(), "{args:?} should be rejected");
        }
    }
}

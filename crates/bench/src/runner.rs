//! Shared entry point for the per-figure binaries.
//!
//! Every binary under `src/bin/` is `scenario_main("<name>")`: the text
//! table always goes to stdout, and `--json <path>` additionally writes
//! the structured [`swprof::Report`] for `bench-check` and CI artifacts.
//! Remaining arguments are passed through to the scenario (e.g.
//! `fig5_algorithm1 vgg16`).

use crate::scenarios;

/// Parse `--json <path>` out of an argument list, returning the path and
/// the remaining positional arguments.
pub fn split_json_flag(args: &[String]) -> Result<(Option<String>, Vec<String>), String> {
    let mut json_path = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            let path = it.next().ok_or("--json requires a path argument")?;
            json_path = Some(path.clone());
        } else if let Some(path) = a.strip_prefix("--json=") {
            json_path = Some(path.to_string());
        } else {
            rest.push(a.clone());
        }
    }
    Ok((json_path, rest))
}

/// Parse `--backend <name>` out of an argument list, returning the
/// backend name and the remaining arguments. Names are resolved by
/// [`swbackend::parse`] (`sw26010`, `host`, `host:<threads>`).
pub fn split_backend_flag(args: &[String]) -> Result<(Option<String>, Vec<String>), String> {
    let mut backend = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--backend" {
            let name = it.next().ok_or("--backend requires a name argument")?;
            backend = Some(name.clone());
        } else if let Some(name) = a.strip_prefix("--backend=") {
            backend = Some(name.to_string());
        } else {
            rest.push(a.clone());
        }
    }
    Ok((backend, rest))
}

/// Entry point used by every scenario binary's `main`.
pub fn scenario_main(name: &str) {
    let scenario = scenarios::find(name)
        .unwrap_or_else(|| panic!("scenario '{name}' is not registered in scenarios::SCENARIOS"));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (json_path, rest) = match split_json_flag(&args) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("{name}: {e}");
            std::process::exit(2);
        }
    };
    let (backend, rest) = match split_backend_flag(&rest) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("{name}: {e}");
            std::process::exit(2);
        }
    };
    if let Some(b) = backend {
        match swbackend::parse(&b) {
            Ok(mode) => swbackend::install_default(mode),
            Err(e) => {
                eprintln!("{name}: {e}");
                std::process::exit(2);
            }
        }
    }
    let (text, report) = (scenario.run)(&rest);
    print!("{text}");
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json_string()) {
            eprintln!("{name}: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn json_flag_forms() {
        let (p, rest) = split_json_flag(&strs(&["--json", "out.json", "vgg16"])).unwrap();
        assert_eq!(p.as_deref(), Some("out.json"));
        assert_eq!(rest, ["vgg16"]);

        let (p, rest) = split_json_flag(&strs(&["vgg16", "--json=o.json"])).unwrap();
        assert_eq!(p.as_deref(), Some("o.json"));
        assert_eq!(rest, ["vgg16"]);

        let (p, rest) = split_json_flag(&strs(&[])).unwrap();
        assert!(p.is_none() && rest.is_empty());

        assert!(split_json_flag(&strs(&["--json"])).is_err());
    }

    #[test]
    fn backend_flag_forms() {
        let (b, rest) = split_backend_flag(&strs(&["--backend", "host", "vgg16"])).unwrap();
        assert_eq!(b.as_deref(), Some("host"));
        assert_eq!(rest, ["vgg16"]);

        let (b, rest) = split_backend_flag(&strs(&["vgg16", "--backend=host:4"])).unwrap();
        assert_eq!(b.as_deref(), Some("host:4"));
        assert_eq!(rest, ["vgg16"]);

        let (b, rest) = split_backend_flag(&strs(&[])).unwrap();
        assert!(b.is_none() && rest.is_empty());

        assert!(split_backend_flag(&strs(&["--backend"])).is_err());
    }

    #[test]
    fn backend_names_resolve() {
        for name in ["sw26010", "host", "host:4"] {
            assert!(swbackend::parse(name).is_ok(), "{name} should parse");
        }
        for name in ["cuda", "timing", "timing-only"] {
            assert!(swbackend::parse(name).is_err(), "{name} should be rejected");
        }
    }
}

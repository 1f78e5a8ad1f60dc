//! `--compare A B`: two result sets (directories of run records written
//! by this benchmark) side by side, judged against the bounds.

use std::collections::BTreeMap;
use std::path::Path;

use swjson::Json;

use crate::registry::{self, Better};
use crate::stats;

/// Relative tolerance under which two exact values count as equal.
const EXACT_TOL: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    Unresolved,
    /// A wall-clock reading with no bound: shown, never judged.
    Info,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Info => "-",
        }
    }
}

/// Values of one metric over the runs of one set.
#[derive(Debug, Default, Clone)]
struct Series {
    values: Vec<f64>,
    unit: String,
    exact: bool,
}

/// (workload, traced) -> metric -> series, plus failed-operation totals.
#[derive(Default)]
struct ResultSet {
    groups: BTreeMap<(String, bool), BTreeMap<String, Series>>,
    failed: BTreeMap<(String, bool), u64>,
}

fn load(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(traced)) = (
            doc.get("workload").and_then(|w| w.as_str()),
            doc.get("traced").and_then(|t| t.as_bool()),
        ) else {
            continue; // not a run record
        };
        let key = (workload.to_string(), traced);
        *set.failed.entry(key.clone()).or_default() +=
            doc.get("failed").and_then(|f| f.as_u64()).unwrap_or(0);
        let exact: Vec<&str> = doc
            .get("exact")
            .and_then(|e| e.as_arr())
            .map(|a| a.iter().filter_map(|n| n.as_str()).collect())
            .unwrap_or_default();
        let group = set.groups.entry(key).or_default();
        for section in ["metrics", "extras"] {
            for (name, v) in doc.get(section).and_then(|m| m.as_obj()).unwrap_or(&[]) {
                let Some(value) = v.get("value").and_then(|x| x.as_f64()) else {
                    continue;
                };
                let series = group.entry(name.clone()).or_default();
                series.values.push(value);
                series.unit = v.get("unit").and_then(|u| u.as_str()).unwrap_or("").into();
                series.exact = exact.contains(&name.as_str());
            }
        }
    }
    if set.groups.is_empty() {
        return Err(format!("{} holds no run records", dir.display()));
    }
    Ok(set)
}

fn direction(name: &str) -> Option<Better> {
    registry::end_to_end(name)
        .map(|m| m.better)
        .or_else(|| registry::per_layer(name).map(|m| m.better))
}

/// Share by which `b` is worse than `a` (negative when better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

fn judge(name: &str, a: &Series, b: &Series) -> Verdict {
    let (ma, mb) = (stats::median(&a.values), stats::median(&b.values));
    if a.exact || b.exact {
        let same = a
            .values
            .iter()
            .chain(&b.values)
            .all(|v| (v - ma).abs() <= EXACT_TOL * ma.abs().max(v.abs()));
        return match (same, direction(name)) {
            (true, _) => Verdict::Pass,
            // A simulated result that moved the right way is a change,
            // not a regression.
            (false, Some(better)) if worse_by(ma, mb, better) < 0.0 => Verdict::Pass,
            (false, _) => Verdict::Fail,
        };
    }
    let Some(def) = registry::end_to_end(name) else {
        return Verdict::Info;
    };
    let worse = worse_by(ma, mb, def.better);
    let all_better = b.values.iter().all(|&vb| {
        a.values
            .iter()
            .all(|&va| worse_by(va, vb, def.better) < 0.0)
    });
    let spread = stats::iqr_share(&a.values).max(stats::iqr_share(&b.values));
    if spread > def.bound && !all_better {
        Verdict::Unresolved
    } else if worse > def.bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    }
}

/// Print the comparison; returns whether anything failed.
pub fn run(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let mut failed = false;
    for (key, metrics_a) in &a.groups {
        let Some(metrics_b) = b.groups.get(key) else {
            println!("== {} ({}): only in A", key.0, kind(key.1));
            continue;
        };
        println!("== {} ({} runs)", key.0, kind(key.1));
        println!(
            "{:<48}{:>16}{:>16}{:>9}{:>8}  verdict",
            "metric", "median A", "median B", "B vs A", "runs"
        );
        for (name, sa) in metrics_a {
            let Some(sb) = metrics_b.get(name) else {
                continue;
            };
            let (ma, mb) = (stats::median(&sa.values), stats::median(&sb.values));
            let rel = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let verdict = judge(name, sa, sb);
            failed |= verdict == Verdict::Fail;
            let bound = match registry::end_to_end(name) {
                Some(def) if !sa.exact => format!(" (bound {:.0} %)", def.bound * 100.0),
                _ if sa.exact => " (exact)".to_string(),
                _ => String::new(),
            };
            println!(
                "{:<48}{:>16.6}{:>16.6}{:>+8.2}%{:>5}/{:<3} {}{} {}",
                name,
                ma,
                mb,
                rel * 100.0,
                sa.values.len(),
                sb.values.len(),
                verdict.as_str(),
                bound,
                sa.unit
            );
        }
        let (fa, fb) = (a.failed[key], b.failed.get(key).copied().unwrap_or(0));
        let verdict = if fb > fa {
            Verdict::Fail
        } else {
            Verdict::Pass
        };
        failed |= verdict == Verdict::Fail;
        println!(
            "{:<48}{:>16}{:>16}{:>9}{:>8}  {} (bound 0)",
            "failed operations",
            fa,
            fb,
            "",
            "",
            verdict.as_str()
        );
    }
    for key in b.groups.keys().filter(|k| !a.groups.contains_key(*k)) {
        println!("== {} ({}): only in B", key.0, kind(key.1));
    }
    Ok(failed)
}

fn kind(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "untraced"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64], exact: bool) -> Series {
        Series {
            values: values.to_vec(),
            unit: "ms".into(),
            exact,
        }
    }

    #[test]
    fn bounded_wall_metric_is_judged_against_its_bound() {
        let a = series(&[100.0, 101.0, 99.0, 100.5, 99.5], false);
        let same = series(&[100.2, 101.1, 99.3, 100.4, 99.9], false);
        let slow = series(&[140.0, 141.0, 139.0, 140.5, 139.5], false);
        let fast = series(&[60.0, 61.0, 59.0, 60.5, 59.5], false);
        // op_wall_p50_ms: lower is better, bound 25 %.
        assert_eq!(judge("op_wall_p50_ms", &a, &same), Verdict::Pass);
        assert_eq!(judge("op_wall_p50_ms", &a, &slow), Verdict::Fail);
        assert_eq!(judge("op_wall_p50_ms", &a, &fast), Verdict::Pass);
        // wall_items_per_s: higher is better.
        assert_eq!(judge("wall_items_per_s", &a, &fast), Verdict::Fail);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = series(&[60.0, 100.0, 140.0, 80.0, 120.0], false);
        let also = series(&[65.0, 105.0, 145.0, 85.0, 125.0], false);
        assert_eq!(judge("op_wall_p50_ms", &noisy, &also), Verdict::Unresolved);
        // Unless every run of B beats every run of A.
        let clear = series(&[30.0, 40.0, 50.0, 35.0, 45.0], false);
        assert_eq!(judge("op_wall_p50_ms", &noisy, &clear), Verdict::Pass);
    }

    #[test]
    fn exact_metrics_must_repeat() {
        let a = series(&[7.8, 7.8, 7.8], true);
        assert_eq!(
            judge("sim_vgg16_img_per_s", &a, &series(&[7.8, 7.8], true)),
            Verdict::Pass
        );
        // Higher is better for img/s: a drop fails, a gain passes.
        assert_eq!(
            judge("sim_vgg16_img_per_s", &a, &series(&[7.7, 7.7], true)),
            Verdict::Fail
        );
        assert_eq!(
            judge("sim_vgg16_img_per_s", &a, &series(&[7.9, 7.9], true)),
            Verdict::Pass
        );
        // An exact extra with no registered direction must not move.
        assert_eq!(
            judge("sim_serve_slo_ms", &a, &series(&[7.9], true)),
            Verdict::Fail
        );
        // Unbounded wall readings are never judged.
        let w = series(&[1.0, 2.0], false);
        assert_eq!(judge("swdnn.conv_fwd.host_wall_ms", &w, &w), Verdict::Info);
    }
}

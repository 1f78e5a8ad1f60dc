//! What one run of one workload produced, and how it is printed.

use swjson::{obj, Json};

use crate::registry::{self, Clock};

/// A named value with its unit; `exact` marks simulated values and
/// counts, which repeat exactly for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub exact: bool,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub seconds: f64,
    /// Operations attempted: timed ops plus every correctness check.
    pub attempted: u64,
    pub failed: u64,
    /// What failed, first few only.
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this kind of run.
    pub metrics: Vec<Value>,
    /// Further readings printed and written but not part of the contract:
    /// the workload's own simulated results on an untraced run, tail
    /// percentiles with their sample counts.
    pub extras: Vec<Value>,
    /// Wall milliseconds of every reference operation, in issue order:
    /// kept in the record so a run can be re-read with other statistics.
    pub samples_ms: Vec<f64>,
    /// Free-form report sections (decomposition tables).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, seed: u64, traced: bool, seconds: f64) -> Outcome {
        Outcome {
            workload,
            seed,
            traced,
            seconds,
            ..Outcome::default()
        }
    }

    /// Count one attempted operation or check; record why if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Record an end-to-end metric (untraced run).
    pub fn end_to_end(&mut self, name: &str, value: f64) {
        let def = registry::end_to_end(name)
            .unwrap_or_else(|| panic!("`{name}` is not an end-to-end metric"));
        self.metrics.push(Value {
            name: name.to_string(),
            value,
            unit: def.unit.to_string(),
            exact: false,
        });
    }

    /// Record a per-layer metric. On an untraced run it goes to the
    /// extras: the contract reserves that run for end-to-end metrics.
    pub fn layer(&mut self, name: &str, value: f64) {
        let def =
            registry::per_layer(name).unwrap_or_else(|| panic!("`{name}` is not a layer metric"));
        let v = Value {
            name: name.to_string(),
            value,
            unit: def.unit.to_string(),
            exact: def.clock != Clock::Wall,
        };
        if self.traced {
            self.metrics.push(v);
        } else {
            self.extras.push(v);
        }
    }

    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &str, exact: bool) {
        self.extras.push(Value {
            name: name.into(),
            value,
            unit: unit.to_string(),
            exact,
        });
    }

    /// Names the contract requires for this kind of run that were not
    /// recorded, and recorded names it does not know, or non-finite
    /// values: a bug in the benchmark, never a property of the program.
    pub fn contract_errors(&self) -> Vec<String> {
        let want: Vec<&str> = if self.traced {
            registry::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            registry::END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut errs = Vec::new();
        for w in &want {
            match self.metrics.iter().filter(|m| m.name == *w).count() {
                0 => errs.push(format!("metric `{w}` was not measured")),
                1 => {}
                n => errs.push(format!("metric `{w}` was recorded {n} times")),
            }
        }
        for m in &self.metrics {
            if !want.contains(&m.name.as_str()) {
                errs.push(format!("metric `{}` is not in BENCHMARK.json", m.name));
            }
            if !m.value.is_finite() {
                errs.push(format!("metric `{}` is not finite", m.name));
            }
        }
        errs
    }

    fn values_json(values: &[Value]) -> Json {
        Json::Obj(
            values
                .iter()
                .map(|v| {
                    (
                        v.name.clone(),
                        obj()
                            .field("value", v.value)
                            .field("unit", v.unit.as_str())
                            .build(),
                    )
                })
                .collect(),
        )
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self) -> String {
        obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted as i64)
            .field("failed", self.failed as i64)
            .field("metrics", Self::values_json(&self.metrics))
            .build()
            .to_compact_string()
    }

    /// The record written to `out/` and read back by `--compare`.
    pub fn record(&self) -> Json {
        let exact: Vec<Json> = self
            .metrics
            .iter()
            .chain(&self.extras)
            .filter(|v| v.exact)
            .map(|v| Json::Str(v.name.clone()))
            .collect();
        obj()
            .field("workload", self.workload)
            .field("seed", self.seed as i64)
            .field("traced", self.traced)
            .field("seconds", self.seconds)
            .field(
                "host_threads",
                std::thread::available_parallelism().map_or(1, |n| n.get()) as i64,
            )
            .field("correct", self.correct())
            .field("attempted", self.attempted as i64)
            .field("failed", self.failed as i64)
            .field(
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            )
            .field("metrics", Self::values_json(&self.metrics))
            .field("extras", Self::values_json(&self.extras))
            .field("exact", Json::Arr(exact))
            .field(
                "op_wall_ms_samples",
                Json::Arr(self.samples_ms.iter().map(|&v| Json::Num(v)).collect()),
            )
            .build()
    }

    /// Every value by name with its unit, then the notes.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {} run, {} s, {} host threads)",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.seconds,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        for v in self.metrics.iter().chain(&self.extras) {
            println!("{:<48} {:>18.6} {}", v.name, v.value, v.unit);
        }
        println!(
            "{:<48} {:>18} ops ({} failed, failed_frac {})",
            "attempted",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        for n in &self.notes {
            println!("{n}");
        }
    }
}

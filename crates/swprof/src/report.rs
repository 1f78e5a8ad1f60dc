//! The serialisable report structure.

use sw26010::{SimTime, Stats};
use swjson::{obj, Json};

/// Bumped whenever the JSON layout changes incompatibly; `bench check`
/// refuses to compare across versions.
pub(crate) const SCHEMA_VERSION: i64 = 1;

/// One named duration, possibly refined into sub-phases (e.g. `compute`
/// under one iteration, `forward`/`backward` under `compute`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseTiming {
    pub name: String,
    pub seconds: f64,
    pub children: Vec<PhaseTiming>,
}

impl PhaseTiming {
    pub fn new(name: &str, seconds: f64) -> Self {
        PhaseTiming {
            name: name.to_string(),
            seconds,
            children: Vec::new(),
        }
    }

    pub fn leaf(name: &str, t: SimTime) -> Self {
        Self::new(name, t.seconds())
    }

    pub fn child(mut self, child: PhaseTiming) -> Self {
        self.children.push(child);
        self
    }

    fn to_json(&self) -> Json {
        let mut b = obj()
            .field("name", self.name.as_str())
            .field("seconds", self.seconds);
        if !self.children.is_empty() {
            b = b.field(
                "children",
                Json::Arr(self.children.iter().map(|c| c.to_json()).collect()),
            );
        }
        b.build()
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PhaseTiming {
            name: str_field(v, "name")?,
            seconds: f64_field(v, "seconds")?,
            children: match v.get("children") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(Self::from_json)
                    .collect::<Result<_, _>>()?,
                _ => Vec::new(),
            },
        })
    }
}

/// Snapshot of the hardware counters of one scope (kernel, launch, core
/// group) — the serialisable mirror of [`sw26010::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsSnap {
    pub dma_get_bytes: u64,
    pub dma_put_bytes: u64,
    pub dma_requests: u64,
    pub rlc_bytes: u64,
    pub rlc_messages: u64,
    pub flops: u64,
    pub mpe_flops: u64,
    pub launches: u64,
    pub busy_seconds: f64,
}

impl From<&Stats> for StatsSnap {
    fn from(s: &Stats) -> Self {
        StatsSnap {
            dma_get_bytes: s.dma_get_bytes,
            dma_put_bytes: s.dma_put_bytes,
            dma_requests: s.dma_requests,
            rlc_bytes: s.rlc_bytes,
            rlc_messages: s.rlc_messages,
            flops: s.flops,
            mpe_flops: s.mpe_flops,
            launches: s.launches,
            busy_seconds: s.busy.seconds(),
        }
    }
}

impl StatsSnap {
    pub fn dma_bytes(&self) -> u64 {
        self.dma_get_bytes + self.dma_put_bytes
    }

    fn to_json(self) -> Json {
        obj()
            .field("dma_get_bytes", self.dma_get_bytes)
            .field("dma_put_bytes", self.dma_put_bytes)
            .field("dma_requests", self.dma_requests)
            .field("rlc_bytes", self.rlc_bytes)
            .field("rlc_messages", self.rlc_messages)
            .field("flops", self.flops)
            .field("mpe_flops", self.mpe_flops)
            .field("launches", self.launches)
            .field("busy_seconds", self.busy_seconds)
            .build()
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(StatsSnap {
            dma_get_bytes: u64_field(v, "dma_get_bytes")?,
            dma_put_bytes: u64_field(v, "dma_put_bytes")?,
            dma_requests: u64_field(v, "dma_requests")?,
            rlc_bytes: u64_field(v, "rlc_bytes")?,
            rlc_messages: u64_field(v, "rlc_messages")?,
            flops: u64_field(v, "flops")?,
            mpe_flops: u64_field(v, "mpe_flops")?,
            launches: u64_field(v, "launches")?,
            busy_seconds: f64_field(v, "busy_seconds")?,
        })
    }
}

/// Roofline attribution of a kernel/layer on a given machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Memory traffic dominates: `bytes / mem_bw >= flops / peak_flops`.
    Bandwidth,
    /// Arithmetic dominates.
    Compute,
}

impl Bound {
    /// Classify work of `flops` floating-point operations moving `bytes`
    /// of memory traffic on a machine with the given peaks.
    pub(crate) fn attribute(flops: f64, bytes: f64, peak_flops: f64, mem_bw: f64) -> Bound {
        if bytes / mem_bw >= flops / peak_flops {
            Bound::Bandwidth
        } else {
            Bound::Compute
        }
    }

    /// Classification straight from a counter snapshot.
    pub(crate) fn from_snap(snap: &StatsSnap, peak_flops: f64, mem_bw: f64) -> Bound {
        Bound::attribute(
            snap.flops as f64,
            snap.dma_bytes() as f64,
            peak_flops,
            mem_bw,
        )
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            Bound::Bandwidth => "bandwidth",
            Bound::Compute => "compute",
        }
    }

    fn parse(s: &str) -> Result<Bound, String> {
        match s {
            "bandwidth" => Ok(Bound::Bandwidth),
            "compute" => Ok(Bound::Compute),
            other => Err(format!("unknown bound '{other}'")),
        }
    }
}

/// One kernel (or layer) execution: attribution tag, counters, roofline
/// classification.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Attribution tag, e.g. `"conv_explicit"` or `"alexnet/conv2.fwd"`.
    pub name: String,
    pub stats: StatsSnap,
    pub bound: Option<Bound>,
}

impl KernelRecord {
    pub fn new(name: &str, stats: StatsSnap) -> Self {
        KernelRecord {
            name: name.to_string(),
            stats,
            bound: None,
        }
    }

    /// Attach a roofline classification for the given machine balance.
    pub fn with_roofline(mut self, peak_flops: f64, mem_bw: f64) -> Self {
        self.bound = Some(Bound::from_snap(&self.stats, peak_flops, mem_bw));
        self
    }

    fn to_json(&self) -> Json {
        let mut b = obj()
            .field("name", self.name.as_str())
            .field("stats", self.stats.to_json());
        if let Some(bound) = self.bound {
            b = b.field("bound", bound.as_str());
        }
        b.build()
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(KernelRecord {
            name: str_field(v, "name")?,
            stats: StatsSnap::from_json(
                v.get("stats")
                    .ok_or_else(|| "kernel record missing 'stats'".to_string())?,
            )?,
            bound: match v.get("bound") {
                Some(j) => Some(Bound::parse(
                    j.as_str()
                        .ok_or_else(|| "'bound' must be a string".to_string())?,
                )?),
                None => None,
            },
        })
    }
}

/// A metric value; the variant *is* the tolerance class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Deterministic hardware/algorithm counter — compared exactly.
    Count(u64),
    /// Modelled timing (or a value derived from one) — compared with a
    /// relative tolerance.
    Real(f64),
}

impl MetricValue {
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Count(c) => *c as f64,
            MetricValue::Real(r) => *r,
        }
    }

    pub fn class(&self) -> &'static str {
        match self {
            MetricValue::Count(_) => "counter",
            MetricValue::Real(_) => "timing",
        }
    }
}

/// One named metric of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: MetricValue,
}

/// A structured benchmark report: what each `crates/bench` binary emits
/// via `--json` and what `bench check` compares against baselines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    pub name: String,
    /// Free-form configuration echo (batch sizes, node counts, ...).
    pub config: Vec<(String, String)>,
    pub(crate) phases: Vec<PhaseTiming>,
    pub kernels: Vec<KernelRecord>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(name: &str) -> Self {
        Report {
            name: name.to_string(),
            ..Default::default()
        }
    }

    pub fn config(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Record an exact counter metric (0% tolerance in `bench check`).
    pub fn count(&mut self, name: &str, value: u64) -> &mut Self {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: MetricValue::Count(value),
        });
        self
    }

    /// Record a timing-class metric (relative tolerance in `bench check`).
    pub fn real(&mut self, name: &str, value: f64) -> &mut Self {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: MetricValue::Real(value),
        });
        self
    }

    pub fn phase(&mut self, phase: PhaseTiming) -> &mut Self {
        self.phases.push(phase);
        self
    }

    pub fn kernel(&mut self, record: KernelRecord) -> &mut Self {
        self.kernels.push(record);
        self
    }

    /// Record a kernel and flatten its key counters + busy time into
    /// gated metrics under `kernel.<name>.*`.
    pub fn kernel_with_metrics(&mut self, record: KernelRecord) -> &mut Self {
        let prefix = format!("kernel.{}", record.name);
        self.count(&format!("{prefix}.dma_bytes"), record.stats.dma_bytes());
        self.count(&format!("{prefix}.dma_requests"), record.stats.dma_requests);
        self.count(&format!("{prefix}.rlc_messages"), record.stats.rlc_messages);
        self.count(&format!("{prefix}.flops"), record.stats.flops);
        self.real(&format!("{prefix}.busy_seconds"), record.stats.busy_seconds);
        self.kernel(record)
    }

    /// Record a phase tree and flatten every node into gated metrics
    /// under `phase.<path>.seconds`.
    pub fn phase_with_metrics(&mut self, phase: PhaseTiming) -> &mut Self {
        fn flatten(report: &mut Report, path: &str, p: &PhaseTiming) {
            report.real(&format!("phase.{path}.seconds"), p.seconds);
            for c in &p.children {
                let child_path = format!("{path}.{}", c.name);
                flatten(report, &child_path, c);
            }
        }
        flatten(self, &phase.name.clone(), &phase);
        self.phase(phase)
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Json {
        obj()
            .field("schema", Json::Int(SCHEMA_VERSION))
            .field("name", self.name.as_str())
            .field(
                "config",
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            )
            .field(
                "phases",
                Json::Arr(self.phases.iter().map(|p| p.to_json()).collect()),
            )
            .field(
                "kernels",
                Json::Arr(self.kernels.iter().map(|k| k.to_json()).collect()),
            )
            .field(
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            obj()
                                .field("name", m.name.as_str())
                                .field("class", m.value.class())
                                .field(
                                    "value",
                                    match m.value {
                                        MetricValue::Count(c) => Json::from(c),
                                        MetricValue::Real(r) => Json::Num(r),
                                    },
                                )
                                .build()
                        })
                        .collect(),
                ),
            )
            .build()
    }

    /// Canonical on-disk rendering (pretty, trailing newline).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    pub fn from_json_str(text: &str) -> Result<Report, String> {
        let v = Json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_i64)
            .ok_or_else(|| "report missing 'schema'".to_string())?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "report schema {schema} != supported {SCHEMA_VERSION}; regenerate with --bless"
            ));
        }
        let mut report = Report::new(&str_field(&v, "name")?);
        if let Some(fields) = v.get("config").and_then(Json::as_obj) {
            for (k, val) in fields {
                report.config.push((
                    k.clone(),
                    val.as_str()
                        .ok_or_else(|| "config values must be strings".to_string())?
                        .to_string(),
                ));
            }
        }
        if let Some(items) = v.get("phases").and_then(Json::as_arr) {
            report.phases = items
                .iter()
                .map(PhaseTiming::from_json)
                .collect::<Result<_, _>>()?;
        }
        if let Some(items) = v.get("kernels").and_then(Json::as_arr) {
            report.kernels = items
                .iter()
                .map(KernelRecord::from_json)
                .collect::<Result<_, _>>()?;
        }
        if let Some(items) = v.get("metrics").and_then(Json::as_arr) {
            for m in items {
                let name = str_field(m, "name")?;
                let class = str_field(m, "class")?;
                let value = match class.as_str() {
                    "counter" => MetricValue::Count(u64_field(m, "value")?),
                    "timing" => MetricValue::Real(f64_field(m, "value")?),
                    other => return Err(format!("unknown metric class '{other}'")),
                };
                report.metrics.push(Metric { name, value });
            }
        }
        Ok(report)
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing counter field '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut r = Report::new("fig5_algorithm1");
        r.config("network", "alexnet").config("chip_batch", 256);
        r.phase_with_metrics(
            PhaseTiming::new("iteration", 2.75)
                .child(PhaseTiming::new("compute", 2.5))
                .child(PhaseTiming::new("intra", 0.2))
                .child(PhaseTiming::new("update", 0.05)),
        );
        let snap = StatsSnap {
            dma_get_bytes: 1 << 30,
            dma_put_bytes: 1 << 29,
            dma_requests: 4096,
            rlc_bytes: 123_456,
            rlc_messages: 789,
            flops: 3_000_000_000_000,
            mpe_flops: 42,
            launches: 13,
            busy_seconds: 1.875,
        };
        r.kernel_with_metrics(KernelRecord::new("gemm", snap).with_roofline(3.02e12, 28.0e9));
        r.count("allreduce.cross_bytes", 999);
        r.real("throughput_img_per_sec", 94.17);
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sample_report();
        let text = r.to_json_string();
        let back = Report::from_json_str(&text).unwrap();
        assert_eq!(back, r);
        // And fully stable: render -> parse -> render is identity.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = sample_report()
            .to_json_string()
            .replace(&format!("\"schema\": {SCHEMA_VERSION}"), "\"schema\": 999");
        let err = Report::from_json_str(&text).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn phase_metrics_are_flattened_hierarchically() {
        let r = sample_report();
        for name in [
            "phase.iteration.seconds",
            "phase.iteration.compute.seconds",
            "phase.iteration.intra.seconds",
            "phase.iteration.update.seconds",
        ] {
            assert!(r.metric(name).is_some(), "missing {name}");
        }
        assert_eq!(
            r.metric("phase.iteration.compute.seconds").unwrap().value,
            MetricValue::Real(2.5)
        );
    }

    #[test]
    fn kernel_metrics_have_counter_class() {
        let r = sample_report();
        assert!(matches!(
            r.metric("kernel.gemm.flops").unwrap().value,
            MetricValue::Count(3_000_000_000_000)
        ));
        assert!(matches!(
            r.metric("kernel.gemm.busy_seconds").unwrap().value,
            MetricValue::Real(_)
        ));
    }

    #[test]
    fn roofline_attribution() {
        // SW26010 machine balance: 3.02 Tflops / 28 GB/s measured DMA.
        let (peak, bw) = (3.02e12, 28.0e9);
        // 1 flop per byte: clearly bandwidth bound.
        assert_eq!(Bound::attribute(1e9, 1e9, peak, bw), Bound::Bandwidth);
        // 1000 flops per byte: clearly compute bound.
        assert_eq!(Bound::attribute(1e12, 1e9, peak, bw), Bound::Compute);
        // The knee sits at peak/bw ~ 107.9 flops/byte.
        let knee = peak / bw;
        assert_eq!(
            Bound::attribute((knee - 1.0) * 1e6, 1e6, peak, bw),
            Bound::Bandwidth
        );
        assert_eq!(
            Bound::attribute((knee + 1.0) * 1e6, 1e6, peak, bw),
            Bound::Compute
        );
    }

    #[test]
    fn stats_snap_mirrors_stats() {
        let s = sw26010::Stats {
            dma_get_bytes: 10,
            dma_put_bytes: 20,
            dma_requests: 3,
            rlc_bytes: 40,
            rlc_messages: 5,
            flops: 600,
            mpe_flops: 7,
            launches: 8,
            busy: SimTime::from_seconds(0.5),
        };
        let snap = StatsSnap::from(&s);
        assert_eq!(snap.dma_bytes(), 30);
        assert_eq!(snap.flops, 600);
        assert_eq!(snap.busy_seconds, 0.5);
    }
}

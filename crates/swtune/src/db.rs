//! The on-disk tune DB: searched winners, keyed by layer shape,
//! serialised deterministically through `swjson`.
//!
//! The DB carries an *invalidation key* binding it to the machine model
//! (LDM capacity, mesh geometry) and the search-space version. A DB
//! written against a different machine or an older candidate space is
//! rejected at parse time — a stale cache is an error, never a silent
//! fallback. The recorded seed is provenance only: winners are
//! seed-independent, so `--check` regenerates with the recorded seed and
//! demands byte identity.

use swdnn::conv_implicit::{ConvTiles, ImplicitPass};
use swdnn::gemm::TilePlan;
use swdnn::{Broadcast, Buffering, ConvShape, TilingScheme};
use swjson::{obj, Json};

use crate::search::{tune_all, LayerTuning, PassTuning, TunedPlan};
use crate::shapes::shape_key;
use crate::space::SPACE_VERSION;

/// Schema version of the DB layout itself.
pub(crate) const DB_VERSION: i64 = 1;

/// The key a DB must match to be usable on this build: machine model
/// extents plus the candidate-space version.
pub(crate) fn invalidation_key() -> String {
    format!(
        "ldm={};mesh={};space={}",
        sw26010::arch::LDM_BYTES,
        sw26010::arch::MESH_DIM,
        SPACE_VERSION
    )
}

/// A complete tuning database: one entry per canonical layer.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneDb {
    pub seed: u64,
    pub layers: Vec<LayerTuning>,
}

fn pass_key(pass: ImplicitPass) -> &'static str {
    match pass {
        ImplicitPass::Forward => "fwd",
        ImplicitPass::BackwardWeights => "dw",
        ImplicitPass::BackwardInput => "dx",
    }
}

fn parse_pass_key(key: &str) -> Result<ImplicitPass, String> {
    match key {
        "fwd" => Ok(ImplicitPass::Forward),
        "dw" => Ok(ImplicitPass::BackwardWeights),
        "dx" => Ok(ImplicitPass::BackwardInput),
        other => Err(format!("tune db: unknown pass `{other}`")),
    }
}

fn plan_json(plan: &TunedPlan) -> Json {
    match plan {
        TunedPlan::Explicit(s) => obj()
            .field("kind", "explicit")
            .field("mt", s.tile.mt)
            .field("nt", s.tile.nt)
            .field("kt", s.tile.kt)
            .field("double_buffer", s.buffering == Buffering::Double)
            .field("no_rlc", s.broadcast == Broadcast::DmaReplicate)
            .build(),
        TunedPlan::Implicit(t) => obj()
            .field("kind", "implicit")
            .field("mt", t.mt)
            .field("nt", t.nt)
            .field("kt", t.kt)
            .build(),
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("tune db: missing field `{key}`"))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    field(v, key)?
        .as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| format!("tune db: field `{key}` is not a non-negative integer"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("tune db: field `{key}` is not a number"))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("tune db: field `{key}` is not a string"))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("tune db: field `{key}` is not a bool"))
}

fn parse_plan(v: &Json) -> Result<TunedPlan, String> {
    let mt = usize_field(v, "mt")?;
    let nt = usize_field(v, "nt")?;
    let kt = usize_field(v, "kt")?;
    match str_field(v, "kind")? {
        "explicit" => Ok(TunedPlan::Explicit(TilingScheme {
            tile: TilePlan { mt, nt, kt },
            buffering: if bool_field(v, "double_buffer")? {
                Buffering::Double
            } else {
                Buffering::Single
            },
            broadcast: if bool_field(v, "no_rlc")? {
                Broadcast::DmaReplicate
            } else {
                Broadcast::RowCol
            },
        })),
        "implicit" => Ok(TunedPlan::Implicit(ConvTiles { mt, nt, kt })),
        other => Err(format!("tune db: unknown plan kind `{other}`")),
    }
}

fn shape_json(shape: &ConvShape) -> Json {
    obj()
        .field("batch", shape.batch)
        .field("in_c", shape.in_c)
        .field("in_h", shape.in_h)
        .field("in_w", shape.in_w)
        .field("out_c", shape.out_c)
        .field("k", shape.k)
        .field("stride", shape.stride)
        .field("pad", shape.pad)
        .build()
}

fn parse_shape(v: &Json) -> Result<ConvShape, String> {
    Ok(ConvShape {
        batch: usize_field(v, "batch")?,
        in_c: usize_field(v, "in_c")?,
        in_h: usize_field(v, "in_h")?,
        in_w: usize_field(v, "in_w")?,
        out_c: usize_field(v, "out_c")?,
        k: usize_field(v, "k")?,
        stride: usize_field(v, "stride")?,
        pad: usize_field(v, "pad")?,
    })
}

impl TuneDb {
    /// Run the full search over the canonical sweep.
    pub fn generate(seed: u64) -> TuneDb {
        TuneDb {
            seed,
            layers: tune_all(seed),
        }
    }

    /// The searched winner for `(shape, pass)`, if this DB has one.
    pub fn lookup(&self, shape: &ConvShape, pass: ImplicitPass) -> Option<&PassTuning> {
        self.layers
            .iter()
            .find(|l| l.shape == *shape)?
            .passes
            .iter()
            .find(|p| p.pass == pass)
    }

    pub fn to_json(&self) -> Json {
        let layers: Vec<Json> = self
            .layers
            .iter()
            .map(|l| {
                let passes: Vec<Json> = l
                    .passes
                    .iter()
                    .map(|p| {
                        obj()
                            .field("pass", pass_key(p.pass))
                            .field("label", p.plan.label())
                            .field("plan", plan_json(&p.plan))
                            .field("tuned_seconds", p.tuned_seconds)
                            .field("hand_seconds", p.hand_seconds)
                            .field("candidates", p.candidates)
                            .build()
                    })
                    .collect();
                obj()
                    .field("name", l.name.as_str())
                    .field("key", shape_key(&l.shape))
                    .field("shape", shape_json(&l.shape))
                    .field("passes", Json::Arr(passes))
                    .build()
            })
            .collect();
        obj()
            .field("version", DB_VERSION)
            .field("invalidation_key", invalidation_key())
            .field("seed", self.seed)
            .field("layers", Json::Arr(layers))
            .build()
    }

    /// Deterministic on-disk form (pretty JSON, trailing newline).
    pub fn render(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parse and *validate* a DB: a version or invalidation-key mismatch
    /// is an error — stale caches must be regenerated, never reused —
    /// and so is a degenerate shape or a plan its kernel would refuse
    /// (zero extent, LDM overflow, non-dividing fibre tile,
    /// double-buffered replication): a hand-edited DB fails here with
    /// the layer named, not with a panic at its first launch.
    pub fn parse(text: &str) -> Result<TuneDb, String> {
        let v = Json::parse(text)?;
        let version = field(&v, "version")?
            .as_i64()
            .ok_or("tune db: `version` is not an integer")?;
        if version != DB_VERSION {
            return Err(format!(
                "tune db is stale: version {version}, expected {DB_VERSION}"
            ));
        }
        let key = str_field(&v, "invalidation_key")?;
        let want = invalidation_key();
        if key != want {
            return Err(format!(
                "tune db is stale: invalidation key `{key}`, this build wants `{want}`"
            ));
        }
        let seed = field(&v, "seed")?
            .as_u64()
            .ok_or("tune db: `seed` is not a non-negative integer")?;
        let mut layers = Vec::new();
        for lv in field(&v, "layers")?
            .as_arr()
            .ok_or("tune db: `layers` is not an array")?
        {
            let name = str_field(lv, "name")?;
            let shape = parse_shape(field(lv, "shape")?)?;
            shape
                .validate()
                .map_err(|e| format!("tune db: layer `{name}`: {e}"))?;
            let mut passes = Vec::new();
            for pv in field(lv, "passes")?
                .as_arr()
                .ok_or("tune db: `passes` is not an array")?
            {
                let pass = parse_pass_key(str_field(pv, "pass")?)?;
                let plan = parse_plan(field(pv, "plan")?)?;
                match &plan {
                    TunedPlan::Explicit(s) => s.validate(),
                    TunedPlan::Implicit(t) => t.validate(pass, &shape),
                }
                .map_err(|v| {
                    let (key, label) = (pass_key(pass), plan.label());
                    format!("tune db: layer `{name}` pass `{key}`: infeasible plan `{label}`: {v}")
                })?;
                passes.push(PassTuning {
                    pass,
                    plan,
                    tuned_seconds: f64_field(pv, "tuned_seconds")?,
                    hand_seconds: f64_field(pv, "hand_seconds")?,
                    candidates: usize_field(pv, "candidates")?,
                });
            }
            layers.push(LayerTuning {
                name: name.to_string(),
                shape,
                passes,
            });
        }
        Ok(TuneDb { seed, layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{tune_layer, DEFAULT_SEED};

    fn small_db() -> TuneDb {
        let shape = ConvShape {
            batch: 16,
            in_c: 128,
            in_h: 14,
            in_w: 14,
            out_c: 128,
            k: 3,
            stride: 1,
            pad: 1,
        };
        TuneDb {
            seed: DEFAULT_SEED,
            layers: vec![tune_layer("small", &shape, DEFAULT_SEED)],
        }
    }

    #[test]
    fn render_parse_roundtrip_is_lossless() {
        let db = small_db();
        let text = db.render();
        let back = TuneDb::parse(&text).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.render(), text, "re-render must be byte-identical");
    }

    #[test]
    fn lookup_finds_winners_by_shape_and_pass() {
        let db = small_db();
        let shape = db.layers[0].shape;
        let hit = db.lookup(&shape, ImplicitPass::Forward).unwrap();
        assert_eq!(hit.pass, ImplicitPass::Forward);
        let miss_shape = ConvShape { batch: 99, ..shape };
        assert!(db.lookup(&miss_shape, ImplicitPass::Forward).is_none());
    }

    #[test]
    fn stale_invalidation_key_is_rejected() {
        let text = small_db()
            .render()
            .replace(SPACE_VERSION, "gemm-v0.conv-v0");
        let err = TuneDb::parse(&text).unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    /// Re-render `small_db()` with pass `key`'s plan replaced by `plan`.
    fn with_plan(key: &str, plan: TunedPlan) -> String {
        let mut db = small_db();
        let pass = parse_pass_key(key).unwrap();
        let slot = db.layers[0].passes.iter_mut().find(|p| p.pass == pass);
        slot.unwrap().plan = plan;
        db.render()
    }

    #[test]
    fn infeasible_or_degenerate_plans_are_parse_errors() {
        let tile = |mt, nt, kt| TilePlan { mt, nt, kt };
        let explicit = |tile, buffering, broadcast| {
            TunedPlan::Explicit(TilingScheme {
                tile,
                buffering,
                broadcast,
            })
        };
        for (key, plan, why) in [
            // Zero extent.
            (
                "fwd",
                explicit(tile(0, 8, 8), Buffering::Single, Broadcast::RowCol),
                "0 CPEs",
            ),
            // 64^3 tiles overflow LDM many times over.
            (
                "dw",
                explicit(tile(64, 64, 64), Buffering::Single, Broadcast::RowCol),
                "overflows LDM",
            ),
            // A pair no kernel implements (used to run single-buffered).
            (
                "dx",
                explicit(tile(2, 2, 2), Buffering::Double, Broadcast::DmaReplicate),
                "+db+norlc",
            ),
            // The fibre tile (nt) must divide the batch of 16.
            (
                "fwd",
                TunedPlan::Implicit(ConvTiles {
                    mt: 4,
                    nt: 5,
                    kt: 4,
                }),
                "im:4x5x4",
            ),
            (
                "dw",
                TunedPlan::Implicit(ConvTiles {
                    mt: 64,
                    nt: 64,
                    kt: 16,
                }),
                "overflows LDM",
            ),
        ] {
            let err = TuneDb::parse(&with_plan(key, plan)).unwrap_err();
            assert!(err.contains("infeasible plan"), "{err}");
            assert!(err.contains("layer `small`"), "{err}");
            assert!(err.contains(why), "expected `{why}` in: {err}");
        }
    }

    #[test]
    fn degenerate_shape_is_a_parse_error() {
        let text = small_db().render().replace("\"in_h\": 14", "\"in_h\": 0");
        let err = TuneDb::parse(&text).unwrap_err();
        assert!(err.contains("layer `small`"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let text = small_db()
            .render()
            .replace("\"version\": 1", "\"version\": 99");
        let err = TuneDb::parse(&text).unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }
}

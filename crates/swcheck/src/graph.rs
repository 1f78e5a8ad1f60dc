//! # swcheck::graph — net-definition lint over the model zoo
//!
//! A thin driver over [`swcaffe_core::lint`]: the lint itself lives in
//! the core crate so `Net::from_def*` and `swserve`'s graph optimizer
//! can run it as a typed pre-flight; this module packages it as a
//! standalone checker pass with the same report conventions as the
//! kernel sanitizer, and sweeps the complete model zoo — every paper
//! network at its Table III batch size, the tiny test nets, *and* the
//! post-fusion definitions `swserve::optimize` emits — as a regression
//! gate: all of them must lint clean.

use swcaffe_core::models;
use swcaffe_core::netdef::NetDef;

pub use swcaffe_core::lint::{infer_shapes, lint_def, GraphViolation};

/// Result of linting one net definition.
#[derive(Debug, Clone)]
pub struct GraphOutcome {
    /// Case label (`<net>` for raw definitions, `<net>.optimized` for
    /// the optimizer's post-fusion output).
    pub name: String,
    pub layers: usize,
    pub violations: Vec<GraphViolation>,
    /// Set when the definition could not even be produced (e.g. the
    /// optimizer rejected it); a failure independent of lint findings.
    pub error: Option<String>,
}

impl GraphOutcome {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.error.is_none()
    }
}

/// Lint one definition.
pub fn check_net_def(def: &NetDef) -> GraphOutcome {
    GraphOutcome {
        name: def.name.clone(),
        layers: def.layers.len(),
        violations: lint_def(def),
        error: None,
    }
}

/// The complete zoo at the paper's batch sizes plus the tiny test nets.
pub(crate) fn zoo_defs() -> Vec<NetDef> {
    vec![
        models::alexnet_bn(8),
        models::vgg16(4),
        models::vgg19(4),
        models::resnet50(4),
        models::googlenet(8),
        models::tiny_cnn(2, 10),
        models::tiny_dropout_cnn(2, 10),
    ]
}

/// Sweep the model zoo: every raw definition and every post-fusion
/// optimized definition must lint clean. Any violation here means a
/// shipped network or an optimizer pass regressed.
pub fn check_model_zoo() -> Vec<GraphOutcome> {
    let mut outcomes = Vec::new();
    for def in zoo_defs() {
        outcomes.push(check_net_def(&def));
        match swserve::optimize(&def) {
            Ok(frozen) => {
                let mut out = check_net_def(&frozen.def);
                out.name = format!("{}.optimized", def.name);
                outcomes.push(out);
            }
            Err(e) => outcomes.push(GraphOutcome {
                name: format!("{}.optimized", def.name),
                layers: 0,
                violations: Vec::new(),
                error: Some(e),
            }),
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_whole_zoo_and_its_optimized_forms_lint_clean() {
        for out in check_model_zoo() {
            assert!(
                out.is_clean(),
                "{}: error={:?} violations={:?}",
                out.name,
                out.error,
                out.violations
            );
        }
    }
}

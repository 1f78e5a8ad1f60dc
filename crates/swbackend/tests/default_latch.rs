//! Regression: the process-default mode lookup is latched. A mid-run
//! `SWCAFFE_BACKEND` mutation must never flip the default, and
//! `install_default` must win over the environment unconditionally.
//!
//! Single test function on purpose: the default-mode state is
//! process-global, and this file is its own test binary, so the
//! sequence below fully controls the latch order.

use sw26010::ExecMode;
use swbackend::{default_functional_mode, install_default};

#[test]
fn install_wins_and_env_is_latched() {
    // Start from a clean environment (the CI conformance matrix exports
    // SWCAFFE_BACKEND for the whole run) and latch the env lookup.
    std::env::remove_var("SWCAFFE_BACKEND");
    assert_eq!(default_functional_mode(), ExecMode::Functional);

    // A mid-run environment mutation must be invisible: the env was
    // read exactly once, at first lookup.
    std::env::set_var("SWCAFFE_BACKEND", "host:5");
    assert_eq!(default_functional_mode(), ExecMode::Functional);

    // install_default (the --backend flag path) wins over everything.
    install_default(ExecMode::HostNative { threads: 3 });
    assert_eq!(
        default_functional_mode(),
        ExecMode::HostNative { threads: 3 }
    );

    // Further env churn still cannot override the installed default.
    std::env::set_var("SWCAFFE_BACKEND", "host:7");
    assert_eq!(
        default_functional_mode(),
        ExecMode::HostNative { threads: 3 }
    );

    // Re-installing is allowed (explicit code, not ambient state).
    install_default(ExecMode::Functional);
    assert_eq!(default_functional_mode(), ExecMode::Functional);
    // An installed TimingOnly still materialises values for callers.
    install_default(ExecMode::TimingOnly);
    assert_eq!(default_functional_mode(), ExecMode::Functional);
}

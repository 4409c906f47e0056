//! Whole runs: tracing changes no output, and everything deterministic
//! repeats exactly between two runs with the same seed.
//!
//! Each workload runs one pass over its request list three times
//! (untraced, then traced twice), which takes minutes in a release build
//! and far longer in a debug build, so these tests only run with
//! `cargo test --release`.

use almost_perfbench::{run, Metric, Options, Report};

const SEED: u64 = 7;

fn one_pass(workload: &str, trace: bool) -> Report {
    let report = run(&Options {
        workload: workload.into(),
        seed: SEED,
        seconds: 1e-3,
        trace,
    })
    .expect("set-up succeeds");
    assert_eq!(report.failed, 0, "{workload}: {}", report.summary.render());
    report
}

/// The per-layer counts the issue pins as exact: pass calls, AND
/// ratios, trie hits and misses, CEC calls, tape operations.
fn deterministic(report: &Report) -> Vec<Metric> {
    report
        .metrics
        .iter()
        .filter(|m| {
            m.name.ends_with(".calls")
                || m.name.ends_with(".and_ratio")
                || m.name.starts_with("almost.trie.")
                || m.name == "ml.tape_ops"
        })
        .cloned()
        .collect()
}

fn check(workload: &str) {
    if cfg!(debug_assertions) {
        eprintln!("{workload}: skipped in debug builds; run `cargo test --release`");
        return;
    }
    let plain = one_pass(workload, false);
    let traced = one_pass(workload, true);
    let again = one_pass(workload, true);

    assert!(!plain.fingerprints.is_empty());
    assert_eq!(plain.fingerprints, traced.fingerprints, "{workload}");
    assert_eq!(traced.fingerprints, again.fingerprints, "{workload}");
    assert_eq!(plain.quality, traced.quality, "{workload}");
    assert_eq!(traced.quality, again.quality, "{workload}");
    let counts = deterministic(&traced);
    assert!(
        counts.iter().any(|m| m.value > 0.0),
        "{workload}: no counts"
    );
    assert_eq!(counts, deterministic(&again), "{workload}");
}

#[test]
fn secure_flow_repeats() {
    check("secure_flow");
}

#[test]
fn omla_attack_repeats() {
    check("omla_attack");
}

#[test]
fn key_recovery_repeats() {
    check("key_recovery");
}

//! Smoke tests for the paper-artifact experiment layer: every experiment
//! `run()` must produce non-empty formatted output at quick scale, so the
//! `src/bin/*` binaries can't silently rot. Each output is also recorded
//! as a JSON artifact under `target/experiment-artifacts/` — CI uploads the
//! directory, so the perf/accuracy trajectory is inspectable per PR.
//!
//! Tests share the on-disk weight cache (`target/mlexray-cache/`), so they
//! serialize on a process-wide mutex: two experiments training the same mini
//! model must not write the same cache file concurrently.

use std::sync::Mutex;

use mlexray_bench::experiments;
use mlexray_bench::support::{record_artifact, Scale};

static EXPERIMENT_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` holding the experiment lock, checks the output looks like a
/// rendered table/series (non-empty, multi-line, with a header row) and
/// records it as a CI artifact.
fn smoke(name: &str, f: impl FnOnce(&Scale) -> String) {
    let _guard = EXPERIMENT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let out = f(&Scale::quick());
    assert!(!out.trim().is_empty(), "experiment produced empty output");
    assert!(
        out.trim().lines().count() >= 2,
        "experiment output should have a title and at least one data row:\n{out}"
    );
    let path = record_artifact(name, true, &out);
    assert!(path.exists(), "artifact not written: {}", path.display());
}

#[test]
fn table1_renders() {
    smoke("table1", |_| experiments::table1::run());
}

#[test]
fn table2_renders() {
    smoke("table2", experiments::table2::run);
}

#[test]
fn table3_int8_renders() {
    smoke("table3", experiments::table3_5::run_int8);
}

#[test]
fn table5_float_renders() {
    smoke("table5", experiments::table3_5::run_float);
}

#[test]
fn table4_renders() {
    smoke("table4", experiments::table4::run);
}

#[test]
fn fig3_renders() {
    smoke("fig3", experiments::fig3::run);
}

#[test]
fn fig4_renders() {
    smoke("fig4", experiments::fig4::run);
}

#[test]
fn fig5_renders() {
    smoke("fig5", experiments::fig5::run);
}

#[test]
fn fig6_renders() {
    smoke("fig6", experiments::fig6::run);
}

#[test]
fn appendix_a_renders() {
    smoke("appendix_a", experiments::appendix_a::run);
}

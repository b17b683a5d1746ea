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
fn smoke(name: &str, f: impl FnOnce(&Scale) -> String) -> String {
    let _guard = EXPERIMENT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let out = f(&Scale::quick());
    assert!(!out.trim().is_empty(), "experiment produced empty output");
    assert!(
        out.trim().lines().count() >= 2,
        "experiment output should have a title and at least one data row:\n{out}"
    );
    let path = record_artifact(name, true, &out);
    assert!(path.exists(), "artifact not written: {}", path.display());
    out
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

#[test]
fn fig_batching_renders_and_batched_invoke_is_equivalent_and_fast() {
    let mut result = None;
    let out = smoke("fig_batching", |scale| {
        let (r, rendered) = experiments::fig_batching::run_measured(scale);
        result = Some(r);
        rendered
    });
    assert!(
        out.contains("bitwise-identical to sequential invokes: true"),
        "batched invoke must not drift numerically:\n{out}"
    );
    let result = result.expect("smoke ran the closure");
    assert!(result.bitwise_identical);
    assert!(
        result.arena_bytes < result.unshared_bytes,
        "the memory plan's first-fit layout must achieve reuse over \
         lifetime-disjoint tensors ({} planned vs {} unshared bytes)",
        result.arena_bytes,
        result.unshared_bytes
    );
    let at = |batch: usize| {
        result
            .points
            .iter()
            .find(|p| p.batch == batch)
            .expect("sweep covers batch size")
    };
    // Single and batched invokes run the same kernels, so there is no
    // speedup to demand — only a catastrophic-regression floor.
    assert!(
        at(8).speedup > 0.3,
        "batched invoke catastrophically slower than single invokes: {:.2}x",
        at(8).speedup
    );
    assert!(result.replay_fps_micro_batched > 0.0 && result.replay_fps_per_frame > 0.0);
}

#[test]
fn fig_serving_batches_sheds_and_monitors_correctly() {
    let mut result = None;
    let out = smoke("fig_serving", |scale| {
        let (r, rendered) = experiments::fig_serving::run_measured(scale);
        result = Some(r);
        rendered
    });
    let result = result.expect("smoke ran the closure");
    // Correctness bars hold at any scale, debug or release:
    assert!(
        result.bitwise_identical,
        "served responses must be bitwise-identical to sequential invokes:\n{out}"
    );
    assert!(
        result.balanced,
        "admission books must balance exactly — no silent drops:\n{out}"
    );
    assert!(
        result.shed_queue_full > 0 && result.shed_deadline > 0 && result.overload_completed > 0,
        "the overload phase must exercise queue-full shed, deadline shed \
         AND completion:\n{out}"
    );
    assert!(result.shed_rate > 0.0 && result.shed_rate < 1.0, "{out}");
    assert!(
        !result.drift_alarm_raised,
        "a clean optimized backend must not trip the online validator:\n{out}"
    );
    assert!(
        result.telemetry_persisted > 0,
        "sampled monitoring must persist telemetry through the channel sink:\n{out}"
    );
    assert!(
        result.max_batch > 1,
        "the dynamic batcher must coalesce at least one real batch:\n{out}"
    );
    assert!(
        result.p50_ms > 0.0 && result.p99_ms >= result.p50_ms,
        "{out}"
    );
    assert!(
        result.open_loop_completed + result.open_loop_shed == 32 && result.open_loop_completed > 0,
        "the TrafficGenerator open-loop phase must account for every paced \
         arrival and complete most of an ~80%-capacity stream:\n{out}"
    );
    // Coalesced and single requests run the same GEMM, so batching buys
    // amortized dispatch (0.9-1.2x in release), not a bar worth holding:
    // only a catastrophic-regression floor applies, in every mode.
    assert!(
        result.speedup > 0.3,
        "dynamic batching catastrophically slower than single-invoke \
         serving: {:.2}x:\n{out}",
        result.speedup
    );
    // The monitoring tax is judged by `benchmark/` (`wire_monitored` vs
    // `wire_plain`); here only a catastrophic-regression floor applies.
    assert!(
        result.monitoring_overhead < 4.0,
        "sampled monitoring catastrophically expensive: {:.2}x:\n{out}",
        result.monitoring_overhead
    );
    // The structured metrics artifact rides along with the rendered one.
    let metrics = mlexray_bench::support::artifact_dir().join("fig_serving_metrics.json");
    assert!(metrics.exists(), "structured metrics artifact missing");
}

#[test]
fn fig_rpc_seals_beat_uploads_and_stay_bitwise_correct() {
    let mut result = None;
    let out = smoke("fig_rpc", |scale| {
        let (r, rendered) = experiments::fig_rpc::run_measured(scale);
        result = Some(r);
        rendered
    });
    let result = result.expect("smoke ran the closure");
    // Correctness bars hold at any scale, debug or release:
    assert!(
        result.bitwise_identical,
        "wire responses must be bitwise-identical to in-process submits:\n{out}"
    );
    assert!(
        result.balanced,
        "serve books must balance under the RPC door:\n{out}"
    );
    assert_eq!(
        result.connections_accepted, result.sessions as u64,
        "one TCP connection per session:\n{out}"
    );
    assert_eq!(
        result.requests_served,
        (result.sessions * (2 * result.rounds + 3)) as u64,
        "warmup + uploads + seal + sealed re-infers + unseal, per session:\n{out}"
    );
    // The zero-copy dividend is structural, not a perf race: a sealed
    // re-infer moves a fixed-size handle frame, an upload moves the whole
    // tensor. 10x is conservative even at quick scale (49 KB vs ~40 B).
    assert!(
        result.sealed_bytes_per_req * 10.0 < result.upload_bytes_per_req,
        "sealed re-infers must move a small fraction of upload bytes \
         ({:.0} vs {:.0} bytes/request):\n{out}",
        result.sealed_bytes_per_req,
        result.upload_bytes_per_req
    );
    // Sealing saves bytes, not time: the upload it skips is ~6 us of a
    // round trip at edge tensor sizes (`exray_bench`: infer - sealed), far
    // inside scheduler noise. Only a catastrophic-regression floor applies.
    assert!(
        result.sealed_p95_ms <= result.upload_p95_ms * 2.0,
        "sealed re-infer catastrophically slower than upload \
         ({:.2} vs {:.2} ms p95):\n{out}",
        result.sealed_p95_ms,
        result.upload_p95_ms
    );
    assert!(result.upload_fps > 0.0 && result.sealed_fps > 0.0, "{out}");
    // The structured metrics artifact rides along with the rendered one.
    let metrics = mlexray_bench::support::artifact_dir().join("fig_rpc_metrics.json");
    assert!(metrics.exists(), "structured metrics artifact missing");
}

#[test]
fn fig_metrics_bounds_quantile_error_and_matches_drained_books() {
    let mut result = None;
    let out = smoke("fig_metrics", |scale| {
        let (r, rendered) = experiments::fig_metrics::run_measured(scale);
        result = Some(r);
        rendered
    });
    let result = result.expect("smoke ran the closure");
    // The histogram's design bound is a hard bar at any scale: quantile
    // estimates within one sub-bucket of relative error, never below the
    // exact percentile (measure() asserts the one-sided direction itself).
    assert!(
        result.max_quantile_rel_err <= result.design_bound,
        "quantile error {:.4} exceeded the one-bucket bound {:.3}:\n{out}",
        result.max_quantile_rel_err,
        result.design_bound
    );
    assert!(
        result.footprint_constant,
        "histogram footprint moved under load — accounting is not O(1):\n{out}"
    );
    assert!(
        result.histogram_bytes * 100 < result.vec_equivalent_bytes,
        "bounded histogram ({} B) must undercut the unbounded Vec \
         equivalent ({} B) by orders of magnitude:\n{out}",
        result.histogram_bytes,
        result.vec_equivalent_bytes
    );
    assert!(
        result.counters_match,
        "the wire exposition must equal the drained books exactly:\n{out}"
    );
    assert!(
        result.balanced,
        "drained books must balance under the scrape phase:\n{out}"
    );
    assert_eq!(
        result.scrape_completed,
        experiments::fig_metrics::SCRAPE_REQUESTS as u64
    );
    assert!(result.exposition_series > 10, "{out}");
    // The structured metrics artifact rides along with the rendered one.
    let metrics = mlexray_bench::support::artifact_dir().join("fig_metrics_metrics.json");
    assert!(metrics.exists(), "structured metrics artifact missing");
}

#[test]
fn fig_differential_localizes_injected_bugs() {
    let mut result = None;
    let out = smoke("fig_differential", |scale| {
        let (r, rendered) = experiments::fig_differential::run_measured(scale);
        result = Some(r);
        rendered
    });
    let result = result.expect("smoke ran the closure");
    let by_name = |prefix: &str| {
        result
            .scenarios
            .iter()
            .find(|s| s.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("scenario {prefix} missing"))
    };
    // The acceptance bar: the clean run reports no divergence, every
    // injected defect localizes to exactly the eligible layer, and
    // bisection confirms the defects op-local.
    let clean = by_name("clean");
    assert!(
        clean.hit && clean.localized.is_none(),
        "clean ref-vs-opt int8 run must be bitwise equivalent:\n{out}"
    );
    for prefix in ["dwconv-bug", "avgpool-bug"] {
        let s = by_name(prefix);
        assert!(
            s.hit,
            "{prefix} localized {:?}, expected {:?}:\n{out}",
            s.localized, s.expected
        );
        assert_eq!(
            s.op_local,
            Some(true),
            "{prefix} must bisect op-local:\n{out}"
        );
    }
    let emulator = by_name("edge-emulator");
    assert!(
        emulator.hit,
        "emulator numerics must first surface at the first GEMM layer:\n{out}"
    );
    assert!(
        result.localization_accuracy >= 1.0,
        "every scenario must localize correctly:\n{out}"
    );
    assert!(
        result.overhead_factor > 0.0,
        "overhead measurement produced nothing:\n{out}"
    );
}

#[test]
fn fig_simd_beats_scalar_and_parallel_invoke_stays_bitwise() {
    let mut result = None;
    let out = smoke("fig_simd", |scale| {
        let (r, rendered) = experiments::fig_simd::run_measured(scale);
        result = Some(r);
        rendered
    });
    let result = result.expect("smoke ran the closure");
    // Correctness bars hold at any scale, debug or release: splitting one
    // batched invoke across workers must never change a bit, and the SIMD
    // kernels must track the scalar ones end-to-end through the zoo model.
    assert!(
        result.parallel_bitwise_identical,
        "parallel invoke must match the sequential SIMD batched invoke \
         bitwise at every worker count:\n{out}"
    );
    assert!(
        result.max_rel_err <= 1e-2,
        "SIMD outputs drifted {:.2e} from the scalar kernels:\n{out}",
        result.max_rel_err
    );
    assert!(result.scalar_fps > 0.0 && result.simd_fps > 0.0, "{out}");
    assert_eq!(
        result.points.len(),
        experiments::fig_simd::WORKER_SWEEP.len()
    );
    // Catastrophic-regression floors hold at any scale, debug or release
    // (at quick scale the model is too small for the SIMD GEMM to beat the
    // scalar kernels — dispatch overhead dominates a width-0.25 64x64
    // MobileNet — so the quick run only guards against collapse). They
    // compare the AVX2+FMA engine with the optimized kernels: the forced
    // scalar mirror (`MLEXRAY_SIMD=scalar`) computes every `mul_add` in
    // software and is held to bits, not to speed.
    if mlexray_nn::simd::active_engine() != mlexray_nn::simd::SimdEngine::Scalar {
        assert!(
            result.simd_speedup > 0.3,
            "SIMD backend catastrophically slower than scalar: {:.2}x:\n{out}",
            result.simd_speedup
        );
        assert!(
            result.combined_speedup > 0.2,
            "parallel SIMD invoke catastrophically slower than the scalar \
             baseline: {:.2}x:\n{out}",
            result.combined_speedup
        );
    }
    // The structured metrics artifact rides along with the rendered one.
    let metrics = mlexray_bench::support::artifact_dir().join("fig_simd_metrics.json");
    assert!(metrics.exists(), "structured metrics artifact missing");
}

#[test]
fn fig_trace_bounds_the_tax_reconciles_and_attributes() {
    let mut result = None;
    let out = smoke("fig_trace", |scale| {
        let (r, rendered) = experiments::fig_trace::run_measured(scale);
        result = Some(r);
        rendered
    });
    let result = result.expect("smoke ran the closure");
    // Correctness bars hold at any scale, debug or release:
    assert!(
        result.footprint_constant,
        "ring footprint moved under a {}-span flood — not fixed-size:\n{out}",
        result.flood_spans
    );
    assert!(
        result.flood_spans >= 100_000,
        "the footprint phase must push at least 100k spans:\n{out}"
    );
    assert!(
        result.drops_accounted && result.spans_dropped > 0,
        "every overflowed span must be counted dropped, never silently \
         lost ({} dropped, accounted: {}):\n{out}",
        result.spans_dropped,
        result.drops_accounted
    );
    assert!(
        result.reconciled,
        "profiler root-span total must reconcile with the latency \
         histogram within one sub-bucket ({} ns diff, bound {} ns):\n{out}",
        result.reconcile_diff_ns, result.reconcile_bound_ns
    );
    assert!(
        result.slow_attributed,
        "an injected slow batch must be attributed to batch formation, \
         not exec ({:.1} ms batch vs {:.2} ms exec):\n{out}",
        result.slow_batch_wait_ms, result.slow_exec_ms
    );
    assert!(
        result.chrome_events > 0,
        "the Chrome-trace export of the reconciliation traces is empty:\n{out}"
    );
    assert!(
        result.sampled >= result.tax_requests / experiments::fig_trace::TAX_SAMPLING,
        "the 1/16 clock sampled too few requests ({} of {}):\n{out}",
        result.sampled,
        result.tax_requests
    );
    assert!(
        result.balanced,
        "serving books must balance across every tracing phase:\n{out}"
    );
    // At any scale, tracing must never be catastrophically expensive.
    assert!(
        result.tracing_tax < 4.0,
        "tracing catastrophically expensive: {:.2}x p95:\n{out}",
        result.tracing_tax
    );
    // The structured metrics artifact rides along with the rendered one.
    let metrics = mlexray_bench::support::artifact_dir().join("fig_trace_metrics.json");
    assert!(metrics.exists(), "structured metrics artifact missing");
}

#[test]
fn fig_scaling_renders_scales_and_is_deterministic() {
    // run_measured pays for the (expensive) worker sweep once and hands
    // back both the rendering (artifact + string checks) and the numbers
    // (determinism/speedup assertions).
    let mut sweep = None;
    let out = smoke("fig_scaling", |scale| {
        let (s, rendered) = experiments::fig_scaling::run_measured(scale);
        sweep = Some(s);
        rendered
    });
    assert!(
        out.contains("reports identical across worker counts: true"),
        "merged reports must not depend on worker count:\n{out}"
    );
    let sweep = sweep.expect("smoke ran the closure");
    assert!(
        sweep.reports_identical,
        "merged validation report differed across worker counts"
    );
    let at = |workers: usize| {
        sweep
            .points
            .iter()
            .find(|p| p.workers == workers)
            .expect("sweep covers worker count")
    };
    // Wall-clock speedup needs real, unshared cores, so it is not ranked
    // here; sharding must still never cost more than 2x.
    assert!(
        at(4).speedup > 0.5,
        "sharding overhead ate >2x throughput on a {}-core host: {:.2}x",
        sweep.available_cores,
        at(4).speedup
    );
}

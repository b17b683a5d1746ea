//! Table 2: run-time instrumentation overhead — latency, memory and
//! per-frame storage of an instrumented MobileNetV2 classification app on
//! Pixel 4 / Pixel 3, CPU and GPU.

use mlexray_core::{collect_logs, ImagePipeline, MonitorConfig};
use mlexray_datasets::synth_image::{generate, SynthImageSpec};
use mlexray_edgesim::{DeviceProfile, Processor, SimulatedDevice};
use mlexray_models::{canonical_preprocess, zoo, FullFamily};
use mlexray_nn::{convert_to_mobile, BackendSpec};

use crate::support::{format_table, to_frames, Scale};

/// Runs the Table 2 measurement.
pub fn run(scale: &Scale) -> String {
    let model = zoo::full_model(
        FullFamily::MobileNetV2,
        scale.full_input,
        1000,
        scale.full_width,
        3,
    )
    .expect("model builds");
    let mobile = convert_to_mobile(&model).expect("conversion");
    let canonical = canonical_preprocess("mobilenet_v2", scale.full_input);

    // Measure the real per-frame log volume of the runtime monitor once.
    let frames = to_frames(
        &generate(SynthImageSpec {
            resolution: scale.full_input,
            count: 2,
            seed: 7,
        })
        .expect("frames"),
    );
    let pipeline = ImagePipeline::new(mobile.clone(), canonical);
    let logs =
        collect_logs(&pipeline, &frames, MonitorConfig::runtime()).expect("instrumented run");
    let bytes_per_frame = logs.byte_size() / frames.len() as u64;

    let input = frames[0].image.clone();
    let tensor = pipeline.preprocess.apply(&input).expect("preprocess");

    let mut rows = Vec::new();
    for (profile, label) in [
        (DeviceProfile::pixel4(), "Pixel 4"),
        (DeviceProfile::pixel3(), "Pixel 3"),
    ] {
        for processor in [Processor::Cpu, Processor::Gpu] {
            let device = SimulatedDevice::new(profile.clone(), processor);
            let run = device
                .run(
                    &mobile.graph,
                    std::slice::from_ref(&tensor),
                    BackendSpec::optimized(),
                )
                .expect("sim run");
            let overhead_ns = profile.monitor_overhead_ns(processor, bytes_per_frame);
            let base_ms = run.total_ms();
            let inst_ms = base_ms + overhead_ns / 1e6;
            let mem_mb = (run.peak_activation_bytes + run.model_bytes) as f64 / 1e6;
            let monitor_mb = (bytes_per_frame * 100) as f64 / 1e6; // 100-frame session buffer
            let proc = match processor {
                Processor::Cpu => "CPU only",
                Processor::Gpu => "GPU enabled",
            };
            rows.push(vec![
                format!("{label} ({proc})"),
                format!("{base_ms:.1}"),
                format!("{inst_ms:.1}"),
                format!("{:.1}%", (inst_ms - base_ms) / base_ms * 100.0),
                format!("{mem_mb:.2}"),
                format!("{:.2}", mem_mb + monitor_mb),
                format!("{:.2}", bytes_per_frame as f64 / 1024.0),
            ]);
        }
    }
    format!(
        "Table 2: runtime instrumentation overhead (MobileNetV2 @{}, {} log bytes/frame)\n{}",
        scale.full_input,
        bytes_per_frame,
        format_table(
            &[
                "Device",
                "Lat (ms)",
                "Lat inst (ms)",
                "Overhead",
                "Mem (MB)",
                "Mem inst (MB)",
                "Disk (KB/frame)"
            ],
            &rows
        )
    )
}

//! The §4.5 latency investigation: the same model on different simulated
//! devices and resolvers, triaged with ML-EXray's per-layer latency
//! analysis — who is slow, by how much, and which layers are stragglers.
//!
//! Run with: `cargo run --release --example latency_triage`

use mlexray::edgesim::{DeviceProfile, Processor, SimulatedDevice};
use mlexray::models::{canonical_preprocess, zoo, FullFamily};
use mlexray::nn::{convert_to_mobile, BackendSpec, KernelFlavor};
use mlexray::preprocess::Image;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A width-0.5 MobileNetV2 at 96x96 keeps this example fast.
    let ckpt = zoo::full_model(FullFamily::MobileNetV2, 96, 1000, 0.5, 4)?;
    let mobile = convert_to_mobile(&ckpt)?;
    let canonical = canonical_preprocess("mobilenet_v2", 96);
    let frame = Image::checkerboard(96, 96, [200, 60, 40], [30, 90, 210]);
    let input = canonical.apply(&frame)?;

    println!("MobileNetV2(x0.5)@96 across simulated targets:\n");
    let targets = [
        (
            "Pixel 4 CPU, OpResolver",
            DeviceProfile::pixel4(),
            Processor::Cpu,
            KernelFlavor::Optimized,
        ),
        (
            "Pixel 4 GPU, OpResolver",
            DeviceProfile::pixel4(),
            Processor::Gpu,
            KernelFlavor::Optimized,
        ),
        (
            "Pixel 3 CPU, OpResolver",
            DeviceProfile::pixel3(),
            Processor::Cpu,
            KernelFlavor::Optimized,
        ),
        (
            "x86 emulator, OpResolver",
            DeviceProfile::x86_emulator(),
            Processor::Cpu,
            KernelFlavor::Optimized,
        ),
        (
            "Pixel 4 CPU, RefOpResolver",
            DeviceProfile::pixel4(),
            Processor::Cpu,
            KernelFlavor::Reference,
        ),
    ];
    let mut baseline_ms = None;
    for (label, profile, processor, flavor) in targets {
        let device = SimulatedDevice::new(profile, processor);
        let run = device.run(
            &mobile.graph,
            std::slice::from_ref(&input),
            BackendSpec {
                flavor,
                ..BackendSpec::optimized()
            },
        )?;
        let ms = run.total_ms();
        let rel = baseline_ms
            .map(|b: f64| format!("{:>7.1}x", ms / b))
            .unwrap_or_else(|| "   1.0x".into());
        baseline_ms.get_or_insert(ms);
        println!("{label:<28} {ms:>10.1} ms {rel}");

        // Straggler triage on the most interesting target.
        if flavor == KernelFlavor::Reference {
            println!("\n  top layer types on the reference resolver (the §4.5 finding):");
            for (op, count, ns) in run.latency_by_op_label().into_iter().take(3) {
                println!("    {op}({count}): {:.1} ms", ns / 1e6);
            }
        }
    }
    println!(
        "\nconclusion: the reference resolver is orders of magnitude slower and its cost\n\
         concentrates in convolutions; the x86 emulator cannot reproduce device latency\n\
         because op optimizations are architecture-specific (§4.5)."
    );
    Ok(())
}

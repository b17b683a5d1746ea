//! Dedicated quantized-path coverage: round-trip and saturation edge cases
//! for the quantization parameter machinery (`quantize.rs` + tensor quant),
//! zero-point extremes (0 and 255), per-axis parameters, and hand-computed
//! golden vectors for the quantized conv and fully-connected kernels.

use mlexray_nn::{
    calibrate, output_params, quantize_model, Activation, BackendSpec, GraphBuilder, Interpreter,
    Model, ModelVariant, OpKind, Padding, QuantizationOptions,
};
use mlexray_tensor::{affine_dequantize, affine_quantize_u8, DType, QuantParams, Shape, Tensor};

// --- parameter edge cases ---------------------------------------------------

#[test]
fn zero_point_saturates_at_0_for_all_positive_ranges() {
    // An all-positive range nudges min to 0, putting the zero point at 0.
    let p = QuantParams::from_min_max_u8(2.0, 10.0);
    let (scale, zp) = p.scalar();
    assert_eq!(zp, 0, "all-positive range must pin zero point at 0");
    // Values below the range clamp to the zero point's code.
    assert_eq!(affine_quantize_u8(-50.0, scale, zp), 0);
    assert_eq!(affine_quantize_u8(1e6, scale, zp), 255);
    // Zero is exactly representable (the TFLite padding requirement).
    assert_eq!(affine_dequantize(zp, scale, zp), 0.0);
}

#[test]
fn zero_point_saturates_at_255_for_all_negative_ranges() {
    let p = QuantParams::from_min_max_u8(-10.0, -2.0);
    let (scale, zp) = p.scalar();
    assert_eq!(zp, 255, "all-negative range must pin zero point at 255");
    assert_eq!(affine_quantize_u8(1e6, scale, zp), 255);
    assert_eq!(affine_quantize_u8(-1e6, scale, zp), 0);
    assert_eq!(affine_dequantize(zp, scale, zp), 0.0);
}

#[test]
fn u8_roundtrip_error_is_bounded_by_half_a_step() {
    let p = QuantParams::from_min_max_u8(-3.0, 5.0);
    let (scale, _) = p.scalar();
    let values: Vec<f32> = (0..200).map(|i| -3.0 + i as f32 * 0.04).collect();
    let t = Tensor::from_f32(Shape::vector(values.len()), values.clone()).unwrap();
    let q = t.quantize_to_u8(&p).unwrap();
    for (orig, back) in values.iter().zip(q.to_f32_vec()) {
        assert!(
            (orig - back).abs() <= scale * 0.5 + 1e-6,
            "{orig} -> {back} exceeds half a step ({scale})"
        );
    }
}

#[test]
fn out_of_range_values_saturate_not_wrap() {
    let p = QuantParams::from_min_max_u8(-1.0, 1.0);
    let t = Tensor::from_f32(Shape::vector(4), vec![-100.0, -1.0, 1.0, 100.0]).unwrap();
    let q = t.quantize_to_u8(&p).unwrap();
    let codes = q.as_u8().unwrap();
    assert_eq!(codes[0], 0, "below-range saturates to 0");
    assert_eq!(codes[3], 255, "above-range saturates to 255");
    assert!(codes[1] < codes[2]);
}

#[test]
fn per_axis_params_quantize_each_channel_with_its_own_scale() {
    // Channel 0 spans ±100, channel 1 spans ±0.01: per-axis keeps both.
    let t = Tensor::from_f32(
        Shape::new(vec![2, 1, 1, 2]),
        vec![100.0, -50.0, 0.01, -0.005],
    )
    .unwrap();
    let p = QuantParams::symmetric_i8_per_channel(&[(-100.0, 100.0), (-0.01, 0.01)], 0).unwrap();
    let q = t.quantize_to_i8(&p).unwrap();
    let back = q.to_f32_vec();
    assert!((back[0] - 100.0).abs() < 1.0);
    assert!(
        (back[2] - 0.01).abs() < 0.001,
        "small channel survives: {}",
        back[2]
    );
    // Per-channel accessor exposes each channel's scale.
    assert!(p.for_channel(0).0 > 100.0 * p.for_channel(1).0);
    assert!(p.is_per_channel());
}

// --- hand-computed quantized kernel vectors ---------------------------------

/// 1x1 conv, one input channel, one output channel, all quantization
/// parameters chosen so the arithmetic is checkable by hand:
///
/// `s_in = 0.5, zp_in = 10; w = +2 (s_w = 1.0); bias = 4;`
/// `s_out = 1.0, zp_out = 3`.
///
/// For input code `q`: real = 0.5(q-10); conv real out = 2*real + bias_real
/// where bias_real = bias * s_in * s_w = 2.0. Requant:
/// `out = zp_out + round(s_in*s_w/s_out * (2*(q-10) + 4))`.
#[test]
fn quantized_conv_golden_vector_by_hand() {
    let mut b = GraphBuilder::new("hand_conv");
    let x = b.input_typed(
        "x",
        Shape::nhwc(1, 2, 2, 1),
        DType::U8,
        Some(QuantParams::PerTensor {
            scale: 0.5,
            zero_point: 10,
        }),
    );
    let w = b.constant(
        "w",
        Tensor::from_i8(
            Shape::new(vec![1, 1, 1, 1]),
            vec![2],
            QuantParams::PerTensor {
                scale: 1.0,
                zero_point: 0,
            },
        )
        .unwrap(),
    );
    let bias = b.constant(
        "b",
        Tensor::from_i32(Shape::vector(1), vec![4], None).unwrap(),
    );
    let y = b.push_node(
        "conv",
        OpKind::Conv2d {
            stride: 1,
            padding: Padding::Valid,
            activation: Activation::None,
        },
        vec![x, w, bias],
        Shape::nhwc(1, 2, 2, 1),
        DType::U8,
        Some(QuantParams::PerTensor {
            scale: 1.0,
            zero_point: 3,
        }),
    );
    b.output(y);
    let g = b.finish().unwrap();
    let input = Tensor::from_u8(
        Shape::nhwc(1, 2, 2, 1),
        vec![10, 12, 8, 255],
        QuantParams::PerTensor {
            scale: 0.5,
            zero_point: 10,
        },
    )
    .unwrap();
    // q=10: acc = 2*0+4 = 4   -> 3 + round(0.5*4)   = 5
    // q=12: acc = 2*2+4 = 8   -> 3 + round(0.5*8)   = 7
    // q=8:  acc = 2*-2+4 = 0  -> 3 + round(0.5*0)   = 3
    // q=255: acc = 2*245+4=494-> 3 + round(0.5*494) = 250
    let expected: Vec<u8> = vec![5, 7, 3, 250];
    for options in [BackendSpec::optimized(), BackendSpec::reference()] {
        let mut interp = Interpreter::new(&g, options).unwrap();
        let out = interp.invoke(std::slice::from_ref(&input)).unwrap();
        assert_eq!(out[0].as_u8().unwrap(), &expected[..], "{options:?}");
    }
}

/// Fully-connected with `s_in = 0.25, zp_in = 128, w = [1, -1] (s_w = 0.5),`
/// `s_out = 0.125, zp_out = 128`: `out = 128 + round((q0-q1))` since
/// `s_in*s_w/s_out = 1.0`.
#[test]
fn quantized_fc_golden_vector_by_hand() {
    let mut b = GraphBuilder::new("hand_fc");
    let x = b.input_typed(
        "x",
        Shape::matrix(1, 2),
        DType::U8,
        Some(QuantParams::PerTensor {
            scale: 0.25,
            zero_point: 128,
        }),
    );
    let w = b.constant(
        "w",
        Tensor::from_i8(
            Shape::matrix(1, 2),
            vec![1, -1],
            QuantParams::PerTensor {
                scale: 0.5,
                zero_point: 0,
            },
        )
        .unwrap(),
    );
    let y = b.push_node(
        "fc",
        OpKind::FullyConnected {
            activation: Activation::None,
        },
        vec![x, w],
        Shape::matrix(1, 1),
        DType::U8,
        Some(QuantParams::PerTensor {
            scale: 0.125,
            zero_point: 128,
        }),
    );
    b.output(y);
    let g = b.finish().unwrap();
    for (q0, q1, want) in [
        (130u8, 128u8, 130u8),
        (128, 130, 126),
        (255, 0, 255),
        (0, 255, 0),
    ] {
        let input = Tensor::from_u8(
            Shape::matrix(1, 2),
            vec![q0, q1],
            QuantParams::PerTensor {
                scale: 0.25,
                zero_point: 128,
            },
        )
        .unwrap();
        let mut interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
        let out = interp.invoke(&[input]).unwrap();
        assert_eq!(
            out[0].as_u8().unwrap()[0],
            want,
            "codes ({q0}, {q1}): saturation must clamp, not wrap"
        );
    }
}

// --- end-to-end quantizer behavior ------------------------------------------

/// The quantizer must assign every activation per-tensor u8 params and the
/// output boundary must dequantize back to a distribution.
#[test]
fn quantizer_assigns_params_and_roundtrips_outputs() {
    let mut b = GraphBuilder::new("m");
    let x = b.input("x", Shape::nhwc(1, 4, 4, 2));
    let w = b.constant(
        "w",
        Tensor::from_f32(
            Shape::new(vec![3, 3, 3, 2]),
            (0..54).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect(),
        )
        .unwrap(),
    );
    let conv = b
        .conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu6)
        .unwrap();
    let m = b.mean("gap", conv).unwrap();
    let sm = b.softmax("softmax", m).unwrap();
    b.output(sm);
    let model = Model {
        graph: b.finish().unwrap(),
        family: "t".into(),
        variant: ModelVariant::MobileFloat,
    };
    let samples: Vec<Vec<Tensor>> = (0..6)
        .map(|s| {
            vec![Tensor::from_f32(
                Shape::nhwc(1, 4, 4, 2),
                (0..32)
                    .map(|i| ((i + s * 3) % 11) as f32 * 0.2 - 1.0)
                    .collect(),
            )
            .unwrap()]
        })
        .collect();
    let calib = calibrate(&model.graph, samples.iter().map(Vec::as_slice)).unwrap();
    let q = quantize_model(&model, &calib, QuantizationOptions::default()).unwrap();

    // Every quantized compute node output carries per-tensor params.
    let conv_params = output_params(&q.graph, "conv").expect("conv output is quantized");
    assert!(!conv_params.is_per_channel());
    let (scale, zp) = conv_params.scalar();
    assert!(scale > 0.0);
    assert!((0..=255).contains(&zp));

    let mut interp = Interpreter::new(&q.graph, BackendSpec::optimized()).unwrap();
    let out = interp.invoke(&samples[0]).unwrap();
    assert_eq!(out[0].dtype(), DType::F32, "output boundary dequantizes");
    let p: f32 = out[0].as_f32().unwrap().iter().sum();
    assert!((p - 1.0).abs() < 1e-3, "softmax distribution survives: {p}");
}

/// Per-tensor weight quantization must crush tiny channels that per-channel
/// preserves — the §2 ablation the quantizer exists to demonstrate.
#[test]
fn per_channel_vs_per_tensor_weight_resolution() {
    let mut b = GraphBuilder::new("m");
    let x = b.input("x", Shape::nhwc(1, 2, 2, 1));
    // Two output channels with wildly different weight magnitudes.
    let w = b.constant(
        "w",
        Tensor::from_f32(Shape::new(vec![2, 1, 1, 1]), vec![50.0, 0.02]).unwrap(),
    );
    let conv = b
        .conv2d("conv", x, w, None, 1, Padding::Same, Activation::None)
        .unwrap();
    b.output(conv);
    let model = Model {
        graph: b.finish().unwrap(),
        family: "t".into(),
        variant: ModelVariant::MobileFloat,
    };
    let samples: Vec<Vec<Tensor>> = (0..4)
        .map(|s| {
            vec![Tensor::from_f32(
                Shape::nhwc(1, 2, 2, 1),
                vec![0.2 * s as f32, 0.5, -0.5, 1.0],
            )
            .unwrap()]
        })
        .collect();
    let calib = calibrate(&model.graph, samples.iter().map(Vec::as_slice)).unwrap();

    let run = |per_channel: bool| -> f32 {
        let q = quantize_model(
            &model,
            &calib,
            QuantizationOptions {
                per_channel_weights: per_channel,
            },
        )
        .unwrap();
        let mut interp = Interpreter::new(&q.graph, BackendSpec::optimized()).unwrap();
        let out = interp.invoke(&samples[3]).unwrap();
        // Reconstructed small-channel output.
        out[0].as_f32().unwrap()[1]
    };
    let float_small = 0.02 * 0.2 * 3.0;
    let per_channel_err = (run(true) - float_small).abs();
    let per_tensor_err = (run(false) - float_small).abs();
    assert!(
        per_channel_err < per_tensor_err + 1e-6,
        "per-channel ({per_channel_err}) must beat per-tensor ({per_tensor_err})"
    );
}

//! Property-based tests on the core data structures and numeric invariants
//! of the stack (quantization round trips, geometry bijections, kernel
//! equivalences, validation metrics).

use proptest::prelude::*;

use mlexray::nn::{Activation, BackendSpec, GraphBuilder, Interpreter, KernelFlavor, Padding};
use mlexray::preprocess::{
    flip_horizontal, resize, rotate, ChannelOrder, Image, ResizeMethod, Rotation,
};
use mlexray::tensor::{
    affine_dequantize, affine_quantize_u8, normalized_rmse, rmse, QuantParams, Shape, Tensor,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantize→dequantize reconstruction error is bounded by half a step
    /// for in-range values (Eqns. 1–2 of the paper).
    #[test]
    fn quantization_roundtrip_error_bounded(
        lo in -10.0f32..0.0,
        width in 0.1f32..20.0,
        vals in prop::collection::vec(0.0f32..1.0, 1..64),
    ) {
        let hi = lo + width;
        let params = QuantParams::from_min_max_u8(lo, hi);
        let (scale, zp) = params.scalar();
        for v in vals {
            let real = lo + v * width;
            let q = affine_quantize_u8(real, scale, zp);
            let back = affine_dequantize(q as i32, scale, zp);
            prop_assert!((back - real).abs() <= scale * 0.5 + 1e-5);
        }
    }

    /// rMSE is symmetric, non-negative, and zero iff inputs are identical.
    #[test]
    fn rmse_metric_properties(a in prop::collection::vec(-5.0f32..5.0, 1..32)) {
        let b: Vec<f32> = a.iter().map(|v| v + 1.0).collect();
        prop_assert!((rmse(&a, &b) - 1.0).abs() < 1e-4);
        prop_assert_eq!(rmse(&a, &a), 0.0);
        prop_assert!((rmse(&a, &b) - rmse(&b, &a)).abs() < 1e-6);
        prop_assert!(normalized_rmse(&a, &b) >= 0.0);
    }

    /// NHWC flat offsets are a bijection onto 0..len.
    #[test]
    fn shape_offsets_are_bijective(n in 1usize..3, h in 1usize..5, w in 1usize..5, c in 1usize..4) {
        let shape = Shape::nhwc(n, h, w, c);
        let mut seen = vec![false; shape.num_elements()];
        for ni in 0..n {
            for hi in 0..h {
                for wi in 0..w {
                    for ci in 0..c {
                        let off = shape.offset_nhwc(ni, hi, wi, ci);
                        prop_assert!(!seen[off]);
                        seen[off] = true;
                    }
                }
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// Four quarter-turns and double flips are identities; channel-order
    /// round trips restore bytes exactly.
    #[test]
    fn image_geometry_identities(w in 2usize..10, h in 2usize..10, seed in 0u8..255) {
        let mut img = Image::solid(w, h, [seed, seed.wrapping_add(40), seed.wrapping_add(90)]);
        img.set_pixel(w - 1, h - 1, [1, 2, 3]);
        let mut r = img.clone();
        for _ in 0..4 {
            r = rotate(&r, Rotation::Deg90);
        }
        prop_assert_eq!(&r, &img);
        prop_assert_eq!(flip_horizontal(&flip_horizontal(&img)), img.clone());
        let bgr = img.to_order(ChannelOrder::Bgr);
        prop_assert_eq!(bgr.to_order(ChannelOrder::Rgb), img);
    }

    /// Resizing never produces values outside the source value range
    /// (area/bilinear are convex combinations; nearest is a selection).
    #[test]
    fn resize_respects_value_bounds(
        lo in 0u8..100,
        hi in 150u8..255,
        tw in 1usize..12,
        th in 1usize..12,
    ) {
        let img = Image::checkerboard(9, 7, [lo; 3], [hi; 3]);
        for method in [ResizeMethod::Nearest, ResizeMethod::Bilinear, ResizeMethod::AreaAverage] {
            let out = resize(&img, tw, th, method).unwrap();
            for y in 0..th {
                for x in 0..tw {
                    let p = out.pixel(x, y);
                    prop_assert!(p[0] >= lo && p[0] <= hi, "{method:?}");
                }
            }
        }
    }

    /// The two float conv resolvers agree within float tolerance on random
    /// weights and inputs (the benign summation-order drift of §4.4).
    #[test]
    fn conv_resolvers_agree_on_float(
        seed in 0u64..1000,
        stride in 1usize..3,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new("p");
        let x = b.input("x", Shape::nhwc(1, 6, 6, 3));
        let wdata: Vec<f32> = (0..4 * 3 * 3 * 3).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let w = b.constant("w", Tensor::from_f32(Shape::new(vec![4, 3, 3, 3]), wdata).unwrap());
        let y = b.conv2d("c", x, w, None, stride, Padding::Same, Activation::Relu6).unwrap();
        b.output(y);
        let g = b.finish().unwrap();
        let input_data: Vec<f32> = (0..108).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let input = Tensor::from_f32(Shape::nhwc(1, 6, 6, 3), input_data).unwrap();

        let mut opt = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
        let mut reference = Interpreter::new(
            &g,
            BackendSpec { flavor: KernelFlavor::Reference, ..Default::default() },
        )
        .unwrap();
        let a = opt.invoke(std::slice::from_ref(&input)).unwrap();
        let c = reference.invoke(&[input]).unwrap();
        for (u, v) in a[0].as_f32().unwrap().iter().zip(c[0].as_f32().unwrap()) {
            prop_assert!((u - v).abs() < 1e-4, "{u} vs {v}");
        }
    }

    /// Softmax outputs are a probability distribution for any logits.
    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-20.0f32..20.0, 2..16)) {
        let n = logits.len();
        let mut b = GraphBuilder::new("s");
        let x = b.input("x", Shape::matrix(1, n));
        let y = b.softmax("softmax", x).unwrap();
        b.output(y);
        let g = b.finish().unwrap();
        let mut interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
        let out = interp
            .invoke(&[Tensor::from_f32(Shape::matrix(1, n), logits).unwrap()])
            .unwrap();
        let p = out[0].as_f32().unwrap();
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}

//! Integration tests for the graph transforms: activation splitting (the
//! trainer's view) and the conversion → quantization chain on a model that
//! exercises every fusable op.

use mlexray_nn::{
    convert_to_mobile, Activation, BackendSpec, GraphBuilder, Interpreter, Model, OpKind, Padding,
    TensorId,
};
use mlexray_tensor::{he_normal, Shape, Tensor};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn fused_model(seed: u64) -> Model {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new("fused");
    let x = b.input("x", Shape::nhwc(1, 6, 6, 3));
    let w1 = b.constant(
        "w1",
        he_normal(Shape::new(vec![4, 3, 3, 3]), 27, &mut rng).unwrap(),
    );
    let c1 = b
        .conv2d("c1", x, w1, None, 1, Padding::Same, Activation::HardSwish)
        .unwrap();
    let w2 = b.constant(
        "w2",
        he_normal(Shape::new(vec![1, 3, 3, 4]), 9, &mut rng).unwrap(),
    );
    let d1 = b
        .depthwise_conv2d("d1", c1, w2, None, 1, Padding::Same, Activation::Relu6)
        .unwrap();
    let s = b.b_add_relu(d1, c1);
    let m = b.mean("gap", s).unwrap();
    let w3 = b.constant("w3", he_normal(Shape::matrix(3, 4), 4, &mut rng).unwrap());
    let fc = b
        .fully_connected("fc", m, w3, None, Activation::Sigmoid)
        .unwrap();
    let out = b.softmax("softmax", fc).unwrap();
    b.output(out);
    Model::checkpoint(b.finish().unwrap(), "fused")
}

trait AddRelu {
    fn b_add_relu(&mut self, a: TensorId, b: TensorId) -> TensorId;
}

impl AddRelu for GraphBuilder {
    fn b_add_relu(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.add("res", a, b, Activation::Relu).unwrap()
    }
}

fn run(model: &Model, input: &Tensor) -> Vec<f32> {
    let mut interp = Interpreter::new(&model.graph, BackendSpec::optimized()).unwrap();
    interp.invoke(std::slice::from_ref(input)).unwrap()[0]
        .as_f32()
        .unwrap()
        .to_vec()
}

#[test]
fn split_preserves_function_and_constant_ids() {
    let model = fused_model(4);
    let split = model.graph.split_fused_activations();
    // Every fused op gained a standalone Act node: 4 fused ops here.
    assert_eq!(split.layer_count(), model.graph.layer_count() + 4);
    // No fused activations remain.
    for node in split.nodes() {
        assert!(
            node.op
                .fused_activation()
                .map(|a| a == Activation::None)
                .unwrap_or(true),
            "node {} still has a fused activation",
            node.name
        );
    }
    // Constant slot ids are preserved (the trainer relies on this).
    for (i, def) in model.graph.tensors().iter().enumerate() {
        if def.as_constant().is_some() {
            assert_eq!(
                split.tensor(TensorId(i)).as_constant(),
                def.as_constant(),
                "constant {i} moved"
            );
        }
    }
    // And the function is unchanged.
    let mut rng = SmallRng::seed_from_u64(8);
    let data: Vec<f32> = (0..108).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let input = Tensor::from_f32(Shape::nhwc(1, 6, 6, 3), data).unwrap();
    let a = run(&model, &input);
    let split_model = Model {
        graph: split,
        ..model.clone()
    };
    let b = run(&split_model, &input);
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() < 1e-5, "{x} vs {y}");
    }
}

#[test]
fn set_constant_validates_shape_and_kind() {
    let model = fused_model(5);
    let mut graph = model.graph.clone();
    // Find a constant and replace it with a same-shaped tensor.
    let (id, old) = graph
        .tensors()
        .iter()
        .enumerate()
        .find_map(|(i, d)| d.as_constant().map(|t| (i, t.clone())))
        .unwrap();
    let replacement = Tensor::filled_f32(old.shape().clone(), 0.5);
    graph.set_constant(TensorId(id), replacement).unwrap();
    // Wrong shape is rejected.
    assert!(graph
        .set_constant(TensorId(id), Tensor::filled_f32(Shape::vector(2), 0.0))
        .is_err());
    // Non-constant slots are rejected (slot 0 is the graph input).
    assert!(graph
        .set_constant(
            TensorId(0),
            Tensor::filled_f32(Shape::nhwc(1, 6, 6, 3), 0.0)
        )
        .is_err());
}

#[test]
fn conversion_is_idempotent_on_bn_free_graphs() {
    // A graph with no BatchNorm/standalone-Act nodes converts to itself.
    let model = fused_model(6);
    let mobile = convert_to_mobile(&model).unwrap();
    assert_eq!(mobile.graph.layer_count(), model.graph.layer_count());
    let mut rng = SmallRng::seed_from_u64(9);
    let data: Vec<f32> = (0..108).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let input = Tensor::from_f32(Shape::nhwc(1, 6, 6, 3), data).unwrap();
    let a = run(&model, &input);
    let b = run(&mobile, &input);
    assert_eq!(a, b);
}

#[test]
fn node_macs_cover_every_op() {
    let model = fused_model(7);
    for i in 0..model.graph.layer_count() {
        let macs = model.graph.node_macs(mlexray_nn::NodeId(i));
        assert!(macs > 0, "node {i} has zero MACs");
    }
    assert!(model.graph.total_macs() > 0);
    // Softmax node exists and is found by name.
    assert!(model.graph.node_by_name("softmax").is_some());
    assert!(model.graph.node_by_name("missing").is_none());
    let _ = OpKind::Softmax.type_label();
}

//! Mini-SSD: an analytically-constructed single-shot detector.
//!
//! Detection training is not the paper's contribution, so the backbone
//! filters are hand-set color detectors rather than trained weights (a
//! deliberate substitution): the network computes per-grid-cell class
//! probabilities with a 1x1 color-detector conv, a stride-4 average pool and
//! a 1x1 classification head + softmax. Post-processing (decode + NMS) and
//! the mAP@0.5 evaluation are the same code paths a trained SSD would use —
//! which is what the Fig. 4(b) preprocessing-bug experiment exercises.

use mlexray_nn::{Activation, GraphBuilder, Model, Padding, Result};
use mlexray_tensor::{Shape, Tensor};

/// Grid stride in input pixels.
pub const CELL: usize = 4;

/// Number of classes including background (index 0).
pub const NUM_CLASSES_WITH_BG: usize = 3;

/// A decoded detection in normalized corner coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetBox {
    /// Left edge.
    pub x0: f32,
    /// Top edge.
    pub y0: f32,
    /// Right edge.
    pub x1: f32,
    /// Bottom edge.
    pub y1: f32,
    /// Object class (0-based, background removed).
    pub class: usize,
    /// Confidence score.
    pub score: f32,
}

/// A ground-truth box in normalized corner coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GtBox {
    /// Left edge.
    pub x0: f32,
    /// Top edge.
    pub y0: f32,
    /// Right edge.
    pub x1: f32,
    /// Bottom edge.
    pub y1: f32,
    /// Object class (0-based).
    pub class: usize,
}

#[allow(clippy::too_many_arguments)]
fn iou(ax0: f32, ay0: f32, ax1: f32, ay1: f32, bx0: f32, by0: f32, bx1: f32, by1: f32) -> f32 {
    let ix = (ax1.min(bx1) - ax0.max(bx0)).max(0.0);
    let iy = (ay1.min(by1) - ay0.max(by0)).max(0.0);
    let inter = ix * iy;
    let a = (ax1 - ax0) * (ay1 - ay0);
    let b = (bx1 - bx0) * (by1 - by0);
    if a + b - inter > 0.0 {
        inter / (a + b - inter)
    } else {
        0.0
    }
}

impl DetBox {
    /// IoU with a ground-truth box.
    pub fn iou_gt(&self, gt: &GtBox) -> f32 {
        iou(
            self.x0, self.y0, self.x1, self.y1, gt.x0, gt.y0, gt.x1, gt.y1,
        )
    }

    /// IoU with another detection.
    pub fn iou_det(&self, other: &DetBox) -> f32 {
        iou(
            self.x0, self.y0, self.x1, self.y1, other.x0, other.y0, other.x1, other.y1,
        )
    }
}

/// Builds the mini-SSD model: 1x1 color-detector conv → stride-4 average
/// pool → 1x1 class head → per-cell softmax. Input is a `[-1, 1]`-normalized
/// `[1, input, input, 3]` RGB tensor; output is `[1, g, g, 3]` class
/// probabilities with `g = input / CELL`.
///
/// # Errors
///
/// Propagates graph-construction errors (`input` must be a multiple of
/// [`CELL`]).
pub fn mini_ssd(input: usize) -> Result<Model> {
    let mut b = GraphBuilder::new("mini_ssd");
    let x = b.input("image", Shape::nhwc(1, input, input, 3));
    // Hand-set detectors: rows are output channels [red, green, bright].
    let det_w = Tensor::from_f32(
        Shape::new(vec![3, 1, 1, 3]),
        vec![
            1.5, -0.75, -0.75, // red detector
            -0.75, 1.5, -0.75, // green detector
            0.4, 0.4, 0.4, // brightness context
        ],
    )?;
    let det_b = Tensor::from_f32(Shape::vector(3), vec![-0.2, -0.2, 0.0])?;
    let w = b.constant("detectors", det_w);
    let bias = b.constant("detector_bias", det_b);
    let feats = b.conv2d(
        "color_features",
        x,
        w,
        Some(bias),
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let pooled = b.avg_pool2d("grid_pool", feats, CELL, CELL, CELL, Padding::Valid)?;
    // Class head: [bg, red, green] logits from [red, green, bright] features.
    let head_w = Tensor::from_f32(
        Shape::new(vec![3, 1, 1, 3]),
        vec![
            -2.0, -2.0, 0.0, // background
            3.0, -1.0, 0.0, // red object
            -1.0, 3.0, 0.0, // green object
        ],
    )?;
    let head_b = Tensor::from_f32(Shape::vector(3), vec![1.0, -1.2, -1.2])?;
    let hw = b.constant("head_w", head_w);
    let hb = b.constant("head_b", head_b);
    let logits = b.conv2d(
        "class_head",
        pooled,
        hw,
        Some(hb),
        1,
        Padding::Same,
        Activation::None,
    )?;
    let probs = b.softmax("class_probs", logits)?;
    b.output(probs);
    Ok(Model::checkpoint(b.finish()?, "mini_ssd"))
}

/// Decodes the `[1, g, g, 3]` probability map into boxes: confident cells
/// are grouped by 4-connectivity and each group becomes one detection whose
/// box is the group's cell extent.
///
/// # Panics
///
/// Panics if `probs` is not a 4-D float tensor with 3 channels.
pub fn decode(probs: &Tensor, threshold: f32) -> Vec<DetBox> {
    let dims = probs.shape().dims();
    assert_eq!(dims.len(), 4);
    assert_eq!(dims[3], NUM_CLASSES_WITH_BG);
    let (g_h, g_w) = (dims[1], dims[2]);
    let p = probs.as_f32().expect("float probabilities");
    let cell_prob = |y: usize, x: usize, c: usize| p[(y * g_w + x) * 3 + c];

    // Confident non-background cells.
    let mut label = vec![usize::MAX; g_h * g_w];
    let mut confident = Vec::new();
    for y in 0..g_h {
        for x in 0..g_w {
            let (red, green) = (cell_prob(y, x, 1), cell_prob(y, x, 2));
            if red.max(green) > threshold {
                confident.push((y, x, if red >= green { 1usize } else { 2 }, red.max(green)));
            }
        }
    }
    // Union by 4-connectivity (same class).
    let mut groups: Vec<Vec<(usize, usize, f32)>> = Vec::new();
    let mut group_class: Vec<usize> = Vec::new();
    for &(y, x, class, score) in &confident {
        let left = x > 0
            && label[y * g_w + x - 1] != usize::MAX
            && group_class[label[y * g_w + x - 1]] == class;
        let up = y > 0
            && label[(y - 1) * g_w + x] != usize::MAX
            && group_class[label[(y - 1) * g_w + x]] == class;
        let gid = match (left, up) {
            (true, _) => label[y * g_w + x - 1],
            (false, true) => label[(y - 1) * g_w + x],
            _ => {
                groups.push(Vec::new());
                group_class.push(class);
                groups.len() - 1
            }
        };
        label[y * g_w + x] = gid;
        groups[gid].push((y, x, score));
    }
    groups
        .iter()
        .zip(&group_class)
        .filter(|(cells, _)| !cells.is_empty())
        .map(|(cells, &class)| {
            let min_x = cells.iter().map(|c| c.1).min().expect("non-empty");
            let max_x = cells.iter().map(|c| c.1).max().expect("non-empty");
            let min_y = cells.iter().map(|c| c.0).min().expect("non-empty");
            let max_y = cells.iter().map(|c| c.0).max().expect("non-empty");
            let score = cells.iter().map(|c| c.2).fold(0.0f32, f32::max);
            DetBox {
                x0: min_x as f32 / g_w as f32,
                y0: min_y as f32 / g_h as f32,
                x1: (max_x + 1) as f32 / g_w as f32,
                y1: (max_y + 1) as f32 / g_h as f32,
                class: class - 1,
                score,
            }
        })
        .collect()
}

/// Greedy non-maximum suppression.
pub fn nms(mut dets: Vec<DetBox>, iou_threshold: f32) -> Vec<DetBox> {
    dets.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept: Vec<DetBox> = Vec::new();
    for d in dets {
        if kept
            .iter()
            .all(|k| k.class != d.class || k.iou_det(&d) < iou_threshold)
        {
            kept.push(d);
        }
    }
    kept
}

/// Mean average precision at the given IoU threshold over a set of scenes.
///
/// `detections[i]` and `ground_truth[i]` belong to scene `i`. AP uses
/// all-point interpolation per class; classes with no ground truth are
/// skipped.
pub fn mean_average_precision(
    detections: &[Vec<DetBox>],
    ground_truth: &[Vec<GtBox>],
    iou_threshold: f32,
    num_classes: usize,
) -> f32 {
    assert_eq!(detections.len(), ground_truth.len());
    let mut aps = Vec::new();
    for class in 0..num_classes {
        let total_gt: usize = ground_truth
            .iter()
            .map(|g| g.iter().filter(|b| b.class == class).count())
            .sum();
        if total_gt == 0 {
            continue;
        }
        // Collect detections of this class across scenes, tagged by scene.
        let mut dets: Vec<(usize, DetBox)> = Vec::new();
        for (scene, ds) in detections.iter().enumerate() {
            for d in ds.iter().filter(|d| d.class == class) {
                dets.push((scene, *d));
            }
        }
        dets.sort_by(|a, b| {
            b.1.score
                .partial_cmp(&a.1.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut matched: Vec<Vec<bool>> =
            ground_truth.iter().map(|g| vec![false; g.len()]).collect();
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut curve: Vec<(f32, f32)> = Vec::new();
        for (scene, d) in dets {
            let gts = &ground_truth[scene];
            let best = gts
                .iter()
                .enumerate()
                .filter(|(gi, g)| g.class == class && !matched[scene][*gi])
                .map(|(gi, g)| (gi, d.iou_gt(g)))
                .filter(|(_, i)| *i >= iou_threshold)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            match best {
                Some((gi, _)) => {
                    matched[scene][gi] = true;
                    tp += 1;
                }
                None => fp += 1,
            }
            curve.push((tp as f32 / total_gt as f32, tp as f32 / (tp + fp) as f32));
        }
        // All-point interpolated AP.
        let mut ap = 0.0f32;
        let mut prev_recall = 0.0f32;
        for i in 0..curve.len() {
            let max_prec = curve[i..].iter().map(|c| c.1).fold(0.0f32, f32::max);
            ap += (curve[i].0 - prev_recall) * max_prec;
            prev_recall = curve[i].0;
        }
        aps.push(ap);
    }
    if aps.is_empty() {
        0.0
    } else {
        aps.iter().sum::<f32>() / aps.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{BackendSpec, Interpreter};

    #[test]
    fn model_shapes() {
        let m = mini_ssd(32).unwrap();
        let out_id = m.graph.outputs()[0];
        assert_eq!(m.graph.tensor(out_id).shape().dims(), &[1, 8, 8, 3]);
    }

    #[test]
    fn detects_a_centered_red_block() {
        let m = mini_ssd(32).unwrap();
        // Build a [-1,1] image: red block covering pixels 12..20.
        let mut data = vec![0.0f32; 32 * 32 * 3];
        for y in 0..32 {
            for x in 0..32 {
                let i = (y * 32 + x) * 3;
                let red = (12..20).contains(&x) && (12..20).contains(&y);
                data[i] = if red { 0.7 } else { -0.7 };
                data[i + 1] = -0.7;
                data[i + 2] = -0.7;
            }
        }
        let input = Tensor::from_f32(Shape::nhwc(1, 32, 32, 3), data).unwrap();
        let mut interp = Interpreter::new(&m.graph, BackendSpec::optimized()).unwrap();
        let probs = interp.invoke(&[input]).unwrap();
        let dets = nms(decode(&probs[0], 0.5), 0.5);
        assert_eq!(dets.len(), 1, "{dets:?}");
        assert_eq!(dets[0].class, 0, "red is class 0 after background removal");
        let gt = GtBox {
            x0: 12.0 / 32.0,
            y0: 12.0 / 32.0,
            x1: 20.0 / 32.0,
            y1: 20.0 / 32.0,
            class: 0,
        };
        assert!(dets[0].iou_gt(&gt) >= 0.5, "IoU {}", dets[0].iou_gt(&gt));
    }

    #[test]
    fn nms_suppresses_duplicates() {
        let a = DetBox {
            x0: 0.0,
            y0: 0.0,
            x1: 0.5,
            y1: 0.5,
            class: 0,
            score: 0.9,
        };
        let b = DetBox {
            x0: 0.05,
            y0: 0.05,
            x1: 0.5,
            y1: 0.5,
            class: 0,
            score: 0.8,
        };
        let c = DetBox {
            x0: 0.6,
            y0: 0.6,
            x1: 0.9,
            y1: 0.9,
            class: 0,
            score: 0.7,
        };
        let kept = nms(vec![a, b, c], 0.5);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].score, 0.9);
    }

    #[test]
    fn map_perfect_and_empty() {
        let gt = vec![vec![GtBox {
            x0: 0.1,
            y0: 0.1,
            x1: 0.3,
            y1: 0.3,
            class: 0,
        }]];
        let perfect = vec![vec![DetBox {
            x0: 0.1,
            y0: 0.1,
            x1: 0.3,
            y1: 0.3,
            class: 0,
            score: 0.9,
        }]];
        assert!((mean_average_precision(&perfect, &gt, 0.5, 2) - 1.0).abs() < 1e-6);
        let nothing: Vec<Vec<DetBox>> = vec![vec![]];
        assert_eq!(mean_average_precision(&nothing, &gt, 0.5, 2), 0.0);
    }

    #[test]
    fn map_penalizes_false_positives() {
        let gt = vec![vec![GtBox {
            x0: 0.1,
            y0: 0.1,
            x1: 0.3,
            y1: 0.3,
            class: 0,
        }]];
        let noisy = vec![vec![
            DetBox {
                x0: 0.1,
                y0: 0.1,
                x1: 0.3,
                y1: 0.3,
                class: 0,
                score: 0.6,
            },
            DetBox {
                x0: 0.6,
                y0: 0.6,
                x1: 0.8,
                y1: 0.8,
                class: 0,
                score: 0.9,
            },
        ]];
        let map = mean_average_precision(&noisy, &gt, 0.5, 2);
        assert!(map < 1.0 && map > 0.3, "{map}");
    }
}

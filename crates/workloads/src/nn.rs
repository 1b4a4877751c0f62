//! A small trainable neural network with int8 weight quantization — the
//! substrate for real accuracy-under-faults measurements (paper Sec. II-B2,
//! Fig. 13).
//!
//! The paper corrupts ResNet weights stored in eNVM and measures ImageNet
//! accuracy; here a compact ReLU MLP trained on the procedural dataset of
//! [`crate::dataset`] plays that role. The quantized weight bytes round-trip
//! through [`QuantizedMlp::weight_bytes`] / [`QuantizedMlp::load_weight_bytes`],
//! which is exactly where a fault injector corrupts them.
//!
//! A fault trial need not rebuild the model: [`QuantizedMlp::forward_with_image`]
//! evaluates a corrupted image by recomputing only what its changed bytes reach,
//! starting from the clean model's [`QuantizedMlp::layer_outputs`]. Every
//! product runs through the exact kernels of [`crate::tensor`], so it scores
//! bit-identically to loading the image and re-running [`QuantizedMlp::accuracy`].

use crate::dataset::Dataset;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

/// One dense layer: `y = relu?(x·W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix, `in_dim × out_dim`.
    pub weights: Matrix,
    /// Bias, `out_dim`.
    pub bias: Vec<f32>,
    /// Whether ReLU follows this layer (all but the last).
    pub relu: bool,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, relu: bool, rng: &mut impl Rng) -> Self {
        Self {
            weights: Matrix::he_init(in_dim, out_dim, rng),
            bias: vec![0.0; out_dim],
            relu,
        }
    }

    fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.weights);
        y.add_row_bias(&self.bias);
        if self.relu {
            y.relu_inplace();
        }
        y
    }
}

/// A multi-layer perceptron classifier.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// The dense layers, input to output.
    pub layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[256, 64, 32, 10]`.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two widths are given.
    pub fn new(widths: &[usize], seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Dense::new(w[0], w[1], i + 2 < widths.len(), &mut rng))
            .collect();
        Self { layers }
    }

    /// Forward pass over a batch (one sample per row).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Total parameter count.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.bias.len())
            .sum()
    }

    /// Classification accuracy over a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        accuracy_of(&self.forward(&data.images), data)
    }

    /// One epoch of minibatch SGD with softmax cross-entropy. Returns mean
    /// loss.
    pub fn train_epoch(
        &mut self,
        data: &Dataset,
        lr: f32,
        batch: usize,
        rng: &mut impl Rng,
    ) -> f64 {
        let n = data.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut total_loss = 0.0f64;
        let mut batches = 0;

        for chunk in order.chunks(batch.max(1)) {
            let mut rows = Vec::with_capacity(chunk.len() * data.images.cols());
            for &i in chunk {
                rows.extend_from_slice(data.images.row(i));
            }
            let bx = Matrix::from_vec(chunk.len(), data.images.cols(), rows);
            let by: Vec<usize> = chunk.iter().map(|&i| data.labels[i]).collect();
            total_loss += self.sgd_step(&bx, &by, lr);
            batches += 1;
        }
        total_loss / batches.max(1) as f64
    }

    /// One SGD step on a batch; returns batch loss.
    #[allow(clippy::needless_range_loop)] // r/c index matrices and labels together
    fn sgd_step(&mut self, x: &Matrix, labels: &[usize], lr: f32) -> f64 {
        // Forward, caching activations.
        let mut activations = vec![x.clone()];
        for layer in &self.layers {
            let next = layer.forward(activations.last().expect("nonempty"));
            activations.push(next);
        }
        let logits = activations.last().expect("nonempty").clone();
        let batch = x.rows() as f32;

        // Softmax + cross-entropy gradient: (softmax - onehot) / batch.
        let mut delta = Matrix::zeros(logits.rows(), logits.cols());
        let mut loss = 0.0f64;
        for r in 0..logits.rows() {
            let row = logits.row(r);
            let max = row.iter().cloned().fold(f32::MIN, f32::max);
            let exp: Vec<f32> = row.iter().map(|v| (v - max).exp()).collect();
            let sum: f32 = exp.iter().sum();
            for c in 0..logits.cols() {
                let p = exp[c] / sum;
                let target = if labels[r] == c { 1.0 } else { 0.0 };
                delta.set(r, c, (p - target) / batch);
                if labels[r] == c {
                    loss -= (p.max(1e-9)).ln() as f64;
                }
            }
        }
        loss /= batch as f64;

        // Backward through the layers.
        for i in (0..self.layers.len()).rev() {
            let input = &activations[i];
            let output = &activations[i + 1];
            // ReLU gradient mask.
            if self.layers[i].relu {
                for (d, &o) in delta.as_mut_slice().iter_mut().zip(output.as_slice()) {
                    if o <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            let grad_w = input.matmul_tn(&delta);
            // Layer 0's input gradient would flow into the data: never read.
            let next_delta = (i > 0).then(|| delta.matmul(&self.layers[i].weights.transposed()));
            let layer = &mut self.layers[i];
            for (w, g) in layer
                .weights
                .as_mut_slice()
                .iter_mut()
                .zip(grad_w.as_slice())
            {
                *w -= lr * g;
            }
            for c in 0..layer.bias.len() {
                let g: f32 = (0..delta.rows()).map(|r| delta.get(r, c)).sum();
                layer.bias[c] -= lr * g;
            }
            if let Some(next) = next_delta {
                delta = next;
            }
        }
        loss
    }

    /// Trains until reaching `target_accuracy` on `train` or `max_epochs`.
    /// Returns the reached training accuracy.
    pub fn train_to(
        &mut self,
        train: &Dataset,
        target_accuracy: f64,
        max_epochs: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = self.accuracy(train);
        for _ in 0..max_epochs {
            if acc >= target_accuracy {
                break;
            }
            self.train_epoch(train, 0.1, 32, &mut rng);
            acc = self.accuracy(train);
        }
        acc
    }
}

/// An int8-quantized snapshot of an [`Mlp`]: symmetric per-layer scales,
/// weights exposed as raw bytes for storage in (faulty) memory.
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    widths: Vec<usize>,
    scales: Vec<f32>,
    /// The weight image: every layer's int8 weights (row-major `in × out`),
    /// input layer first.
    image: Vec<u8>,
    biases: Vec<Vec<f32>>,
    relu: Vec<bool>,
}

impl QuantizedMlp {
    /// Quantizes a trained network to int8 weights.
    pub fn quantize(mlp: &Mlp) -> Self {
        let mut widths = vec![mlp.layers[0].weights.rows()];
        let mut scales = Vec::new();
        let mut image = Vec::new();
        let mut biases = Vec::new();
        let mut relu = Vec::new();
        for layer in &mlp.layers {
            widths.push(layer.weights.cols());
            let scale = layer.weights.abs_max().max(1e-9) / 127.0;
            scales.push(scale);
            image.extend(
                layer
                    .weights
                    .as_slice()
                    .iter()
                    .map(|&w| (w / scale).round().clamp(-127.0, 127.0) as i8 as u8),
            );
            biases.push(layer.bias.clone());
            relu.push(layer.relu);
        }
        Self {
            widths,
            scales,
            image,
            biases,
            relu,
        }
    }

    /// Total weight storage in bytes (what lives in the eNVM array).
    pub fn weight_bytes_len(&self) -> usize {
        self.image.len()
    }

    /// Serializes all quantized weights into one contiguous byte buffer —
    /// the image a fault injector corrupts.
    pub fn weight_bytes(&self) -> Vec<u8> {
        self.image.clone()
    }

    /// Loads (possibly corrupted) weight bytes back.
    ///
    /// # Panics
    ///
    /// Panics when `bytes.len()` differs from [`Self::weight_bytes_len`].
    pub fn load_weight_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            self.weight_bytes_len(),
            "weight image size mismatch"
        );
        self.image.copy_from_slice(bytes);
    }

    /// Layer `i`'s slice of a weight image.
    fn layer_bytes<'a>(&self, image: &'a [u8], i: usize) -> &'a [u8] {
        let start: usize = self.widths.windows(2).take(i).map(|w| w[0] * w[1]).sum();
        &image[start..start + self.widths[i] * self.widths[i + 1]]
    }

    /// The output columns of layer `i` whose weights differ between `image`
    /// and this model's own image, ascending.
    fn changed_columns(&self, image: &[u8], i: usize) -> Vec<usize> {
        let out_dim = self.widths[i + 1];
        let mut changed = vec![false; out_dim];
        let pairs = self
            .layer_bytes(image, i)
            .iter()
            .zip(self.layer_bytes(&self.image, i));
        for (index, (a, b)) in pairs.enumerate() {
            if a != b {
                changed[index % out_dim] = true;
            }
        }
        (0..out_dim).filter(|&j| changed[j]).collect()
    }

    /// Layer `i` over `x` with dequantized `weights`: the layer's columns,
    /// or any selection of them with the matching `bias` entries.
    fn dense(&self, i: usize, x: &Matrix, weights: Matrix, bias: &[f32]) -> Matrix {
        let mut y = x.matmul(&weights);
        y.add_row_bias(bias);
        if self.relu[i] {
            y.relu_inplace();
        }
        y
    }

    /// Layer `i` over `x` with weights dequantized from `bytes`.
    fn layer(&self, i: usize, x: &Matrix, bytes: &[u8]) -> Matrix {
        let weights = Matrix::from_vec(
            self.widths[i],
            self.widths[i + 1],
            bytes
                .iter()
                .map(|&q| q as i8 as f32 * self.scales[i])
                .collect(),
        );
        self.dense(i, x, weights, &self.biases[i])
    }

    /// Every layer's output over a batch, input to output: the hidden
    /// activations, then the logits.
    pub fn layer_outputs(&self, x: &Matrix) -> Vec<Matrix> {
        let mut outputs: Vec<Matrix> = Vec::with_capacity(self.biases.len());
        for i in 0..self.biases.len() {
            let input = outputs.last().unwrap_or(x);
            let output = self.layer(i, input, self.layer_bytes(&self.image, i));
            outputs.push(output);
        }
        outputs
    }

    /// Forward pass with dequantized weights.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.layer_outputs(x).pop().expect("at least one layer")
    }

    /// Classification accuracy over a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        accuracy_of(&self.forward(&data.images), data)
    }

    /// Classification accuracy over `data` with the weights replaced by
    /// `image`: [`Self::forward_with_image`]'s logits, scored.
    pub fn accuracy_with_image(&self, data: &Dataset, clean: &[Matrix], image: &[u8]) -> f64 {
        accuracy_of(&self.forward_with_image(&data.images, clean, image), data)
    }

    /// The logits over `x` with the weights replaced by `image`,
    /// bit-identical to loading `image` into a copy of this model and
    /// calling [`Self::forward`]. `clean` is this model's
    /// [`Self::layer_outputs`] over the same `x`.
    ///
    /// Only what `image`'s changed bytes reach is recomputed:
    /// 1. Find the first layer whose bytes differ. With none, the weights
    ///    are this model's and the pass is deterministic: the clean logits
    ///    are the answer.
    /// 2. Gather that layer's changed output columns into a packed weight
    ///    matrix and run it through the same `matmul`, bias and ReLU. An
    ///    output element depends only on its input row and weight column,
    ///    and the exact kernels of [`crate::tensor`] sum it in the same
    ///    order however many columns run together, so the packed columns
    ///    equal the full layer's bit for bit.
    /// 3. Scatter them into a copy of the clean output.
    /// 4. Run the layers after it in full on the image's bytes.
    ///
    /// # Panics
    ///
    /// Panics when `image` or `clean` does not match this model's shape.
    pub fn forward_with_image(&self, x: &Matrix, clean: &[Matrix], image: &[u8]) -> Matrix {
        assert_eq!(image.len(), self.image.len(), "weight image size mismatch");
        assert_eq!(clean.len(), self.biases.len(), "one clean output per layer");
        let changed = (0..clean.len()).find_map(|i| {
            let columns = self.changed_columns(image, i);
            (!columns.is_empty()).then_some((i, columns))
        });
        let Some((first, columns)) = changed else {
            return clean.last().expect("at least one layer").clone();
        };

        let out_dim = self.widths[first + 1];
        let bytes = self.layer_bytes(image, first);
        let packed = Matrix::from_fn(self.widths[first], columns.len(), |r, c| {
            bytes[r * out_dim + columns[c]] as i8 as f32 * self.scales[first]
        });
        let bias: Vec<f32> = columns.iter().map(|&j| self.biases[first][j]).collect();
        let input = if first == 0 { x } else { &clean[first - 1] };
        let part = self.dense(first, input, packed, &bias);

        let mut h = clean[first].clone();
        for r in 0..h.rows() {
            for (c, &j) in columns.iter().enumerate() {
                h.set(r, j, part.get(r, c));
            }
        }
        for i in first + 1..clean.len() {
            h = self.layer(i, &h, self.layer_bytes(image, i));
        }
        h
    }
}

/// Share of `data`'s samples whose logits row peaks at its label.
fn accuracy_of(logits: &Matrix, data: &Dataset) -> f64 {
    let correct = data
        .labels
        .iter()
        .enumerate()
        .filter(|&(i, &label)| logits.argmax_row(i) == label)
        .count();
    correct as f64 / data.len().max(1) as f64
}

/// Trains the standard fault-study classifier: a `[256, 64, 32, 10]` MLP on
/// the procedural dataset, quantized to int8. Returns the quantized model
/// and the held-out test set. Deterministic in `seed`.
pub fn trained_classifier(seed: u64) -> (QuantizedMlp, Dataset) {
    let train = crate::dataset::generate(1200, seed);
    let test = crate::dataset::generate(400, seed.wrapping_add(1));
    let mut mlp = Mlp::new(
        &[crate::dataset::INPUT_DIM, 64, 32, crate::dataset::CLASSES],
        seed,
    );
    mlp.train_to(&train, 0.97, 60, seed);
    (QuantizedMlp::quantize(&mlp), test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset;

    #[test]
    fn training_reaches_high_accuracy() {
        let train = dataset::generate(800, 11);
        let mut mlp = Mlp::new(&[dataset::INPUT_DIM, 48, dataset::CLASSES], 11);
        let before = mlp.accuracy(&train);
        let after = mlp.train_to(&train, 0.95, 50, 11);
        assert!(
            before < 0.3,
            "untrained accuracy should be near chance, got {before}"
        );
        assert!(after > 0.9, "training failed to converge: {after}");
    }

    #[test]
    fn quantization_preserves_accuracy() {
        let (quant, test) = trained_classifier(21);
        let acc = quant.accuracy(&test);
        assert!(acc > 0.85, "quantized test accuracy {acc}");
    }

    #[test]
    fn weight_bytes_roundtrip() {
        let (mut quant, test) = trained_classifier(22);
        let baseline = quant.accuracy(&test);
        let bytes = quant.weight_bytes();
        quant.load_weight_bytes(&bytes);
        assert_eq!(quant.accuracy(&test), baseline);
    }

    #[test]
    fn corrupting_weights_degrades_accuracy() {
        let (mut quant, test) = trained_classifier(23);
        let baseline = quant.accuracy(&test);
        let mut bytes = quant.weight_bytes();
        // Destroy 20 % of bits — accuracy must collapse toward chance.
        let mut state = 0x12345u64;
        for b in bytes.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if state >> 60 < 3 {
                *b ^= (state >> 32) as u8;
            }
        }
        quant.load_weight_bytes(&bytes);
        let corrupted = quant.accuracy(&test);
        assert!(
            corrupted < baseline - 0.2,
            "corruption had no effect: {baseline} -> {corrupted}"
        );
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mlp = Mlp::new(&[256, 64, 32, 10], 1);
        assert_eq!(
            mlp.parameter_count(),
            256 * 64 + 64 + 64 * 32 + 32 + 32 * 10 + 10
        );
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn loading_wrong_size_panics() {
        let (mut quant, _) = trained_classifier(24);
        quant.load_weight_bytes(&[0u8; 3]);
    }
}

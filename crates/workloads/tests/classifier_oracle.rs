//! Exactness of the classifier's fast paths against test-only oracles.
//!
//! Part (a): the register-blocked [`Matrix::matmul`] and [`Matrix::matmul_tn`]
//! are bit-identical to a naive i-k-j loop (every output element from
//! `+0.0`, ascending `k`, zero left-hand entries skipped, a separate
//! multiply then add) and to `transposed().matmul`. Shapes straddle the
//! 16-wide accumulator block: narrower, not a multiple of it, and wide.
//! Left-hand matrices carry `+0.0` and `-0.0`, and right-hand ones carry
//! infinities, so a dropped zero skip shows as `0 × ∞ = NaN`; full-mantissa
//! values make a fused multiply-add round differently.
//!
//! Part (b): [`QuantizedMlp::forward_with_image`] (recompute only what a
//! corrupted weight image reaches) gives bit-identical logits, and so the
//! same accuracy, as the full re-evaluation it replaces: clone the model,
//! load the image, run the whole forward pass. Images range from no change
//! to dense corruption. The net is small, so the suite stays fast in a
//! debug build.

use nvmx_workloads::dataset::{self, Dataset};
use nvmx_workloads::nn::{Mlp, QuantizedMlp};
use nvmx_workloads::tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// The reference product: the textbook i-k-j loop with the zero skip.
fn naive_matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(lhs.rows(), rhs.cols());
    for i in 0..lhs.rows() {
        for k in 0..lhs.cols() {
            let a = lhs.get(i, k);
            if a == 0.0 {
                continue;
            }
            for j in 0..rhs.cols() {
                let sum = out.get(i, j) + a * rhs.get(k, j);
                out.set(i, j, sum);
            }
        }
    }
    out
}

/// Element-wise bit equality; any two NaNs match (which NaN payload an
/// `∞ − ∞` yields is the hardware's choice, not the kernel's).
fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}: shape"
    );
    for (index, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {index} is {g:e} ({:#010x}), want {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// A column count: below the 16-wide block, a multiple of it, not a
/// multiple of it, or wide.
fn width(choice: u64, rng: &mut StdRng) -> usize {
    match choice % 4 {
        0 => rng.gen_range(1..16),
        1 => 16 * rng.gen_range(1..5),
        2 => 16 * rng.gen_range(1..4) + rng.gen_range(1..16),
        _ => rng.gen_range(64..130),
    }
}

/// A left-hand entry: a third are `+0.0` or `-0.0`.
fn lhs_entry(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..6) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-2.0..2.0f32),
    }
}

/// A right-hand entry: mostly full-mantissa values, sometimes `±∞`.
fn rhs_entry(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..40) {
        0 => f32::INFINITY,
        1 => f32::NEG_INFINITY,
        _ => rng.gen_range(-2.0..2.0f32),
    }
}

fn random_matrix(
    rows: usize,
    cols: usize,
    rng: &mut StdRng,
    entry: fn(&mut StdRng) -> f32,
) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| entry(rng))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn blocked_matmul_equals_the_naive_loop(seed in any::<u64>(), shape in 0u64..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, inner) = (rng.gen_range(0..7), rng.gen_range(0..40));
        let cols = width(shape, &mut rng);
        let lhs = random_matrix(rows, inner, &mut rng, lhs_entry);
        let rhs = random_matrix(inner, cols, &mut rng, rhs_entry);
        assert_same_bits(&lhs.matmul(&rhs), &naive_matmul(&lhs, &rhs), "matmul");
    }

    #[test]
    fn matmul_tn_equals_the_transposed_product(seed in any::<u64>(), shape in 0u64..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (inner, rows) = (rng.gen_range(0..40), rng.gen_range(1..24));
        let cols = width(shape, &mut rng);
        let lhs = random_matrix(inner, rows, &mut rng, lhs_entry);
        let rhs = random_matrix(inner, cols, &mut rng, rhs_entry);
        let got = lhs.matmul_tn(&rhs);
        assert_same_bits(&got, &lhs.transposed().matmul(&rhs), "matmul_tn vs transposed");
        assert_same_bits(&got, &naive_matmul(&lhs.transposed(), &rhs), "matmul_tn vs naive");
    }
}

/// The smallest witnesses of the contract, one per way to break it.
#[test]
fn kernels_skip_zeros_and_round_each_product() {
    // A zero times ∞ is skipped, whichever sign the zero has.
    for zero in [0.0f32, -0.0] {
        let lhs = Matrix::from_vec(1, 2, vec![zero, 1.0]);
        let rhs = Matrix::from_vec(2, 1, vec![f32::INFINITY, 1.0]);
        assert_eq!(lhs.matmul(&rhs).as_slice(), &[1.0]);
        assert_eq!(lhs.transposed().matmul_tn(&rhs).as_slice(), &[1.0]);
    }
    // (1 + 2⁻²³)² rounds to 1 + 2⁻²² before the add, which then cancels
    // exactly; a fused multiply-add would keep the 2⁻⁴⁶ term instead.
    let x = 1.0 + f32::EPSILON;
    let lhs = Matrix::from_vec(1, 2, vec![-1.0 - 2.0 * f32::EPSILON, x]);
    let rhs = Matrix::from_vec(2, 1, vec![1.0, x]);
    assert_eq!(lhs.matmul(&rhs).as_slice(), &[0.0]);
    // Every element starts at +0.0: an all-skipped sum stays +0.0.
    let lhs = Matrix::from_vec(1, 1, vec![-0.0]);
    let rhs = Matrix::from_vec(1, 17, vec![-1.0; 17]);
    assert!(lhs.matmul(&rhs).as_slice().iter().all(|v| v.to_bits() == 0));
}

/// A small trained, quantized net (two hidden layers of 40 and 20: a full
/// accumulator block plus a tail, and a tail alone) and its test set.
fn small_net() -> &'static (QuantizedMlp, Dataset, Vec<Matrix>) {
    static NET: OnceLock<(QuantizedMlp, Dataset, Vec<Matrix>)> = OnceLock::new();
    NET.get_or_init(|| {
        let train = dataset::generate(240, 31);
        let test = dataset::generate(64, 32);
        let mut mlp = Mlp::new(&[dataset::INPUT_DIM, 40, 20, dataset::CLASSES], 31);
        mlp.train_to(&train, 0.9, 4, 31);
        let model = QuantizedMlp::quantize(&mlp);
        let clean = model.layer_outputs(&test.images);
        (model, test, clean)
    })
}

/// Byte ranges of each layer in the weight image.
fn layer_ranges() -> Vec<std::ops::Range<usize>> {
    let widths = [dataset::INPUT_DIM, 40, 20, dataset::CLASSES];
    let mut start = 0;
    widths
        .windows(2)
        .map(|w| {
            let range = start..start + w[0] * w[1];
            start = range.end;
            range
        })
        .collect()
}

/// Sets `image[index]` to a different random byte.
fn change(image: &mut [u8], index: usize, rng: &mut StdRng) {
    image[index] ^= rng.gen_range(1..=255u8);
}

/// A corrupted copy of `clean`, by `mode`:
/// 0 no change, 1 one byte in each layer, 2 last layer only,
/// 3 flips to −128, 4 about 12 % of bytes (never under 10 % at this
/// image size), 5 a random subset from one layer on.
fn corrupted_image(clean: &[u8], mode: u64, rng: &mut StdRng) -> Vec<u8> {
    let mut image = clean.to_vec();
    let ranges = layer_ranges();
    match mode {
        0 => {}
        1 => {
            for range in &ranges {
                let index = rng.gen_range(range.clone());
                change(&mut image, index, rng);
            }
        }
        2 => {
            let last = ranges.last().unwrap().clone();
            for _ in 0..rng.gen_range(1..8) {
                let index = rng.gen_range(last.clone());
                change(&mut image, index, rng);
            }
        }
        3 => {
            for _ in 0..rng.gen_range(1..24) {
                let index = rng.gen_range(0..image.len());
                image[index] = 0x80;
            }
        }
        4 => {
            for byte in image.iter_mut() {
                if rng.gen_range(0..8) == 0 {
                    *byte ^= rng.gen_range(1..=255u8);
                }
            }
        }
        _ => {
            let layer = rng.gen_range(0..ranges.len());
            for _ in 0..rng.gen_range(1..64) {
                let index = rng.gen_range(ranges[layer].start..image.len());
                change(&mut image, index, rng);
            }
        }
    }
    image
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_trial_equals_full_reevaluation(seed in any::<u64>(), mode in 0u64..6) {
        let (model, test, clean) = small_net();
        let mut rng = StdRng::seed_from_u64(seed);
        let image = corrupted_image(&model.weight_bytes(), mode, &mut rng);

        let mut full = model.clone();
        full.load_weight_bytes(&image);
        let want = full.forward(&test.images);
        let got = model.forward_with_image(&test.images, clean, &image);
        assert_same_bits(&got, &want, &format!("mode {mode} logits"));
        prop_assert_eq!(
            model.accuracy_with_image(test, clean, &image).to_bits(),
            full.accuracy(test).to_bits()
        );
    }
}

/// The unchanged image scores the clean model exactly, and a dense
/// corruption actually moves the logits (so the property above compares
/// two evaluations that could differ).
#[test]
fn unchanged_image_is_the_baseline_and_corruption_is_visible() {
    let (model, test, clean) = small_net();
    let image = model.weight_bytes();
    assert_eq!(
        model.accuracy_with_image(test, clean, &image),
        model.accuracy(test)
    );
    let mut rng = StdRng::seed_from_u64(5);
    let dense = corrupted_image(&image, 4, &mut rng);
    assert_ne!(
        model
            .forward_with_image(&test.images, clean, &dense)
            .as_slice(),
        clean.last().unwrap().as_slice()
    );
}

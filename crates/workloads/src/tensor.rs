//! A minimal dense-matrix type — just enough linear algebra for the neural
//! network substrate (no external BLAS; the nets are small by design).
//!
//! # Exact products
//!
//! [`Matrix::matmul`] and [`Matrix::matmul_tn`] are register-blocked, yet
//! bit-identical to the textbook i-k-j loop. Every output element starts at
//! `+0.0` and accumulates `lhs[i][k] * rhs[k][j]` over ascending `k`,
//! skipping each `k` whose left-hand entry is zero (`+0.0` or `-0.0`), as a
//! separate multiply then add: no fused multiply-add, no reassociation.
//! Blocking only changes which output elements sit in registers together,
//! never the order of any one element's sum. So a column of a product does
//! not depend on which other columns are computed with it: multiplying by a
//! matrix of gathered columns reproduces those columns of the full product
//! bit for bit, which is what the fault trials' incremental re-evaluation
//! ([`crate::nn::QuantizedMlp::forward_with_image`]) relies on.

use rand::Rng;

/// Output columns one accumulator block holds in registers.
const BLOCK: usize = 16;

/// A row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix with He-initialized weights (for ReLU networks).
    pub fn he_init(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let scale = (2.0 / cols as f64).sqrt() as f32;
        Self::from_fn(rows, cols, |_, _| {
            // Box–Muller standard normal.
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            z * scale
        })
    }

    /// Creates a matrix wrapping existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of the backing storage (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self × rhs`, under the exact-product contract of the module docs.
    ///
    /// # Panics
    ///
    /// Panics when inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            accumulate_row(out.row_mut(i), self.row(i).iter().copied(), rhs);
        }
        out
    }

    /// `selfᵀ × rhs` without building the transposed copy, bit-identical to
    /// `self.transposed().matmul(rhs)` (the exact-product contract of the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics when the row counts disagree.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let mut column = Vec::with_capacity(self.rows);
        for i in 0..self.cols {
            column.clear();
            column.extend(self.data.iter().skip(i).step_by(self.cols));
            accumulate_row(out.row_mut(i), column.iter().copied(), rhs);
        }
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Adds `bias` to every row in place.
    ///
    /// # Panics
    ///
    /// Panics when `bias.len() != cols`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Applies ReLU in place.
    pub fn relu_inplace(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Index of the largest element in row `r`.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Largest absolute value in the matrix (used for quantization scale).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

/// `out_row[j] += Σ_k lhs[k] · rhs[k][j]` over ascending `k`, skipping zero
/// `lhs[k]`: full [`BLOCK`]-wide chunks accumulate in registers from `+0.0`,
/// the tail accumulates in `out_row`, which the caller zeroes.
fn accumulate_row(out_row: &mut [f32], lhs: impl Iterator<Item = f32> + Clone, rhs: &Matrix) {
    let n = rhs.cols;
    if n == 0 {
        return;
    }
    let blocked = n - n % BLOCK;
    for j0 in (0..blocked).step_by(BLOCK) {
        let mut acc = [0.0f32; BLOCK];
        for (a, rhs_row) in lhs.clone().zip(rhs.data.chunks_exact(n)) {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in acc.iter_mut().zip(&rhs_row[j0..j0 + BLOCK]) {
                *o += a * b;
            }
        }
        out_row[j0..j0 + BLOCK].copy_from_slice(&acc);
    }
    let tail = &mut out_row[blocked..];
    for (a, rhs_row) in lhs.zip(rhs.data.chunks_exact(n)) {
        if a == 0.0 {
            continue;
        }
        for (o, &b) in tail.iter_mut().zip(&rhs_row[blocked..]) {
            *o += a * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let eye = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_is_the_transposed_product() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        assert_eq!(a.matmul_tn(&b).as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(a.transposed().get(2, 1), 6.0);
    }

    #[test]
    fn relu_and_bias() {
        let mut a = Matrix::from_vec(1, 3, vec![-1.0, 0.5, 2.0]);
        a.add_row_bias(&[0.5, 0.5, -3.0]);
        a.relu_inplace();
        assert_eq!(a.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn argmax_picks_largest() {
        let a = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.3, 5.0, 1.0, 2.0]);
        assert_eq!(a.argmax_row(0), 1);
        assert_eq!(a.argmax_row(1), 0);
    }

    #[test]
    fn he_init_has_plausible_spread() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::he_init(64, 64, &mut rng);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        let var: f32 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / m.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        let expected = 2.0 / 64.0;
        assert!(
            (var / expected - 1.0).abs() < 0.3,
            "var {var} vs {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}

//! Sparse input layer: embedding gather fused with the dense-numeric
//! affine half.

use super::{Layer, Param};
use crate::backend::{self, Backend};
use crate::init::Init;
use crate::sparse::{SparseBatchRef, SparseSpec};
use crate::tensor::Tensor;
use crate::workspace;
use rand::Rng;

/// Which representation the most recent training forward consumed, so
/// `backward` routes to the matching gradient kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LastInput {
    None,
    Dense,
    Sparse,
}

/// Affine input layer `y = x W + b` where `x` may arrive *sparse*.
///
/// Parameter layout is exactly [`super::Linear`]'s (`W: in × out`,
/// `b: 1 × out`, visited weight-then-bias), and construction draws the same
/// initialiser samples, so checkpoints are interchangeable between the two
/// layers — a model can resume a dense-trained state dict on the sparse
/// path and vice versa.
///
/// The sparse forward is a row gather over the weight table fused with the
/// dense-numeric half ([`backend::Backend::gather_gemm`]); the sparse
/// backward scatter-adds into the weight gradient
/// ([`backend::Backend::scatter_grad`]). Both accumulate in the dense
/// kernels' element order, so outputs and gradients are bit-identical to
/// feeding the densified batch through `Linear` (finite values; see the
/// backend docs for the `0·∞` caveat). Dense `forward`/`backward` remain
/// available and match `Linear` exactly — the GAN discriminator feeds
/// generator output (dense) and real rows (sparse) through this same
/// layer.
///
/// As an *input* layer, its sparse backward returns an empty `rows × 0`
/// gradient: there is no upstream layer to feed, and the densified input
/// gradient would be a `rows × in_width` buffer nobody reads. The dense
/// backward still returns the full input gradient (the GAN generator path
/// needs it).
#[derive(Debug, Clone)]
pub struct EmbeddingGather {
    weight: Param,
    bias: Param,
    spec: SparseSpec,
    cached_input: Option<Tensor>,
    cached_rows: usize,
    cached_numeric: Vec<f32>,
    cached_indices: Vec<u32>,
    last_input: LastInput,
}

impl EmbeddingGather {
    /// Creates the layer for `spec`'s input layout. Draws exactly the
    /// samples `Linear::new(spec.in_width(), fan_out, init, rng)` would, so
    /// a model seeded identically initialises identically on either path.
    pub fn new(spec: SparseSpec, fan_out: usize, init: Init, rng: &mut impl Rng) -> Self {
        let (weight, bias) = init.affine(spec.in_width(), fan_out, rng);
        Self::from_parts(spec, weight, bias)
    }

    /// The layer for `spec` with the given `spec.in_width() × fan_out`
    /// weight and `1 × fan_out` bias, such as a fitted model's saved
    /// parameters.
    ///
    /// # Panics
    /// Panics if the weight does not have `spec.in_width()` rows or the
    /// bias is not one row as wide as the weight.
    pub fn from_parts(spec: SparseSpec, weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.rows(), spec.in_width(), "weight must have one row per input slot");
        assert_eq!(bias.shape(), (1, weight.cols()), "bias must be 1 x fan_out");
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            spec,
            cached_input: None,
            cached_rows: 0,
            cached_numeric: Vec::new(),
            cached_indices: Vec::new(),
            last_input: LastInput::None,
        }
    }

    /// The sparse input layout this layer was built for.
    pub fn spec(&self) -> &SparseSpec {
        &self.spec
    }

    /// Input feature count (densified width).
    pub fn fan_in(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output feature count.
    pub fn fan_out(&self) -> usize {
        self.weight.value.cols()
    }

    /// Sparse training pass: [`EmbeddingGather::infer_sparse`], caching
    /// the batch for the scatter-add backward.
    pub fn forward_sparse(&mut self, batch: SparseBatchRef<'_>) -> Tensor {
        let out = self.infer_sparse(batch);
        self.cached_rows = batch.rows;
        self.cached_numeric.clear();
        self.cached_numeric.extend_from_slice(batch.numeric);
        self.cached_indices.clear();
        self.cached_indices.extend_from_slice(batch.indices);
        self.last_input = LastInput::Sparse;
        out
    }

    /// Sparse inference pass: gathers one weight row per nonzero.
    pub fn infer_sparse(&self, batch: SparseBatchRef<'_>) -> Tensor {
        batch.check(&self.spec);
        let n_out = self.fan_out();
        let mut out = workspace::take(batch.rows, n_out);
        backend::timed(backend::GATHER_COUNTERS, || {
            backend::get().gather_gemm(
                batch.rows,
                n_out,
                &self.spec,
                batch.numeric,
                batch.indices,
                self.weight.value.as_slice(),
                out.as_mut_slice(),
            )
        });
        out.add_row_broadcast(self.bias.value.as_slice());
        out
    }
}

impl Layer for EmbeddingGather {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        workspace::cache_assign(&mut self.cached_input, input);
        self.last_input = LastInput::Dense;
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.cols(), self.fan_in(), "EmbeddingGather dense input width");
        let mut out = input.matmul(&self.weight.value);
        out.add_row_broadcast(self.bias.value.as_slice());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match self.last_input {
            LastInput::Dense => {
                let input = self
                    .cached_input
                    .as_ref()
                    .expect("EmbeddingGather::backward without a cached dense forward");
                let dw = input.transpose_matmul(grad_output);
                self.weight.grad.add_assign(&dw);
                workspace::recycle(dw);
                let mut db = workspace::take(1, grad_output.cols());
                grad_output.sum_rows_into(db.as_mut_slice());
                self.bias.grad.add_assign(&db);
                workspace::recycle(db);
                grad_output.matmul_transpose(&self.weight.value)
            }
            LastInput::Sparse => {
                let rows = self.cached_rows;
                assert_eq!(rows, grad_output.rows(), "grad rows must match cached batch");
                let n_out = self.fan_out();
                let mut dw = workspace::take(self.spec.in_width(), n_out);
                backend::timed(backend::SCATTER_COUNTERS, || {
                    backend::get().scatter_grad(
                        rows,
                        n_out,
                        &self.spec,
                        &self.cached_numeric,
                        &self.cached_indices,
                        grad_output.as_slice(),
                        dw.as_mut_slice(),
                    )
                });
                self.weight.grad.add_assign(&dw);
                workspace::recycle(dw);
                let mut db = workspace::take(1, n_out);
                grad_output.sum_rows_into(db.as_mut_slice());
                self.bias.grad.add_assign(&db);
                workspace::recycle(db);
                Tensor::zeros(rows, 0)
            }
            LastInput::None => {
                panic!("EmbeddingGather::backward called without a forward pass")
            }
        }
    }

    fn try_forward_sparse(&mut self, batch: SparseBatchRef<'_>) -> Option<Tensor> {
        Some(self.forward_sparse(batch))
    }

    fn try_infer_sparse(&self, batch: SparseBatchRef<'_>) -> Option<Tensor> {
        Some(self.infer_sparse(batch))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{gradcheck, Linear};
    use crate::sparse::SparseField;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> SparseSpec {
        SparseSpec::new(vec![
            SparseField::Numeric { slot: 0 },
            SparseField::Categorical { offset: 1, width: 6 },
            SparseField::Numeric { slot: 7 },
            SparseField::Categorical { offset: 8, width: 3 },
        ])
    }

    /// Densifies a sparse batch for the oracle path.
    fn densify(spec: &SparseSpec, rows: usize, numeric: &[f32], indices: &[u32]) -> Tensor {
        let mut dense = Tensor::zeros(rows, spec.in_width());
        for r in 0..rows {
            let mut num_i = 0;
            let mut cat_i = 0;
            for field in spec.fields() {
                match *field {
                    SparseField::Numeric { slot } => {
                        dense.row_mut(r)[slot] = numeric[r * spec.n_numeric() + num_i];
                        num_i += 1;
                    }
                    SparseField::Categorical { .. } => {
                        let idx = indices[r * spec.n_categorical() + cat_i] as usize;
                        dense.row_mut(r)[idx] = 1.0;
                        cat_i += 1;
                    }
                }
            }
        }
        dense
    }

    #[test]
    fn init_and_dense_path_match_linear_exactly() {
        let spec = spec();
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut gather = EmbeddingGather::new(spec.clone(), 5, Init::XavierUniform, &mut rng_a);
        let mut linear = Linear::new(spec.in_width(), 5, Init::XavierUniform, &mut rng_b);
        assert_eq!(gather.weight.value, *linear.weight());
        let x = crate::init::randn(4, spec.in_width(), &mut rng_a);
        let yg = gather.forward(&x);
        let yl = linear.forward(&x);
        assert_eq!(yg, yl);
        let g = Tensor::full(4, 5, 0.3);
        assert_eq!(gather.backward(&g), linear.backward(&g));
    }

    #[test]
    fn sparse_forward_and_backward_match_densified_oracle() {
        let spec = spec();
        let rows = 5;
        let mut rng = StdRng::seed_from_u64(11);
        let mut gather = EmbeddingGather::new(spec.clone(), 4, Init::XavierUniform, &mut rng);
        let mut oracle = gather.clone();
        let numeric: Vec<f32> =
            (0..rows * spec.n_numeric()).map(|i| i as f32 * 0.3 - 1.0).collect();
        let indices: Vec<u32> =
            (0..rows).flat_map(|r| [1 + (r as u32 % 6), 8 + (r as u32 % 3)]).collect();
        let batch = SparseBatchRef { rows, numeric: &numeric, indices: &indices };
        let dense = densify(&spec, rows, &numeric, &indices);

        let ys = gather.forward_sparse(batch);
        let yd = oracle.forward(&dense);
        assert_eq!(ys, yd, "sparse forward must equal densified dense forward");

        let g = crate::init::randn(rows, 4, &mut rng);
        let dx_sparse = gather.backward(&g);
        let dx_dense = oracle.backward(&g);
        assert_eq!(dx_sparse.shape(), (rows, 0), "sparse input layer returns empty dx");
        assert_eq!(dx_dense.shape(), (rows, spec.in_width()));
        assert_eq!(gather.weight.grad, oracle.weight.grad, "weight grads bit-identical");
        assert_eq!(gather.bias.grad, oracle.bias.grad, "bias grads bit-identical");
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let spec = spec();
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = EmbeddingGather::new(spec.clone(), 3, Init::XavierUniform, &mut rng);
        let x = crate::init::randn(5, spec.in_width(), &mut rng);
        gradcheck::check_input_grad(&mut layer, &x, 1e-2);
        gradcheck::check_param_grads(&mut layer, &x, 1e-2);
    }

    #[test]
    fn mixed_sparse_and_dense_steps_route_backward_correctly() {
        // The GAN discriminator alternates real (sparse) and fake (dense)
        // batches through this one layer; each backward must consume the
        // matching cache.
        let spec = spec();
        let rows = 3;
        let mut rng = StdRng::seed_from_u64(23);
        let mut layer = EmbeddingGather::new(spec.clone(), 2, Init::XavierUniform, &mut rng);
        let numeric = vec![0.5f32; rows * spec.n_numeric()];
        let indices: Vec<u32> = (0..rows).flat_map(|_| [2u32, 9u32]).collect();
        let batch = SparseBatchRef { rows, numeric: &numeric, indices: &indices };
        let g = Tensor::full(rows, 2, 1.0);

        let _ = layer.forward_sparse(batch);
        let dx = layer.backward(&g);
        assert_eq!(dx.cols(), 0);

        let dense = densify(&spec, rows, &numeric, &indices);
        let _ = layer.forward(&dense);
        let dx = layer.backward(&g);
        assert_eq!(dx.shape(), (rows, spec.in_width()));
    }
}

//! Composition of layers.

use super::{Layer, Param};
use crate::sparse::SparseBatchRef;
use crate::tensor::Tensor;

/// A stack of layers applied in order; backward runs in reverse.
///
/// Layers are `Send + Sync`, so a stack can move to another thread and be
/// shared by threads that run [`Layer::infer`] on it at once.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer + Send + Sync>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + Send + Sync + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer + Send + Sync>) {
        self.layers.push(layer);
    }

    /// Number of layers in the stack.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Training pass over a sparse one-hot batch: the first layer must be a
    /// sparse consumer ([`super::EmbeddingGather`]); the rest of the stack
    /// runs dense with the usual arena ping-pong.
    ///
    /// # Panics
    /// Panics when the stack is empty or the first layer has no sparse
    /// input path.
    pub fn forward_sparse(&mut self, batch: SparseBatchRef<'_>) -> Tensor {
        self.try_forward_sparse(batch)
            .expect("Sequential::forward_sparse: first layer does not accept sparse batches")
    }
}

/// Feeds `x` through `layers` in order. Each layer's output ping-pongs
/// through the workspace arena, so a pass does not clone the batch and
/// intermediate buffers are recycled for the next call instead of dropped.
fn pipe<L>(
    mut x: Tensor,
    layers: impl Iterator<Item = L>,
    apply: impl Fn(L, &Tensor) -> Tensor,
) -> Tensor {
    for layer in layers {
        let y = apply(layer, &x);
        crate::workspace::recycle(std::mem::replace(&mut x, y));
    }
    x
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        // The first layer reads `input` directly.
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        pipe(first.forward(input), rest.iter_mut(), |layer, x| layer.forward(x))
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let Some((first, rest)) = self.layers.split_first() else {
            return input.clone();
        };
        pipe(first.infer(input), rest.iter(), |layer, x| layer.infer(x))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        // Mirror of `forward`: gradients ping-pong through the arena.
        let Some((last, rest)) = self.layers.split_last_mut() else {
            return grad_output.clone();
        };
        pipe(last.backward(grad_output), rest.iter_mut().rev(), |layer, g| layer.backward(g))
    }

    fn try_forward_sparse(&mut self, batch: SparseBatchRef<'_>) -> Option<Tensor> {
        let (first, rest) = self.layers.split_first_mut()?;
        let x = first.try_forward_sparse(batch)?;
        Some(pipe(x, rest.iter_mut(), |layer, x| layer.forward(x)))
    }

    fn try_infer_sparse(&self, batch: SparseBatchRef<'_>) -> Option<Tensor> {
        let (first, rest) = self.layers.split_first()?;
        let x = first.try_infer_sparse(batch)?;
        Some(pipe(x, rest.iter(), |layer, x| layer.infer(x)))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_rngs(&mut self, f: &mut dyn FnMut(&mut rand::rngs::StdRng)) {
        for layer in &mut self.layers {
            layer.visit_rngs(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }
}

/// Builds the paper's standard MLP block: `Linear → GELU` repeated, with a
/// final linear projection and optional dropout between hidden layers
/// (§V-A: GELU activations, dropout 0.01 in the diffusion backbone).
pub fn mlp(
    dims: &[usize],
    dropout: Option<f32>,
    seed: u64,
    rng: &mut impl rand::Rng,
) -> Sequential {
    assert!(dims.len() >= 2, "mlp needs at least input and output dims");
    let mut seq = Sequential::new();
    for i in 0..dims.len() - 1 {
        seq.add(Box::new(super::Linear::new(
            dims[i],
            dims[i + 1],
            crate::init::Init::XavierUniform,
            rng,
        )));
        let is_last = i + 2 == dims.len();
        if !is_last {
            seq.add(Box::new(super::Activation::new(super::ActivationKind::Gelu)));
            if let Some(p) = dropout {
                if p > 0.0 {
                    seq.add(Box::new(super::Dropout::new(p, seed.wrapping_add(i as u64))));
                }
            }
        }
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::gradcheck;
    use crate::layers::{Activation, ActivationKind, Linear};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn two_layer_stack_gradcheck() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut net = Sequential::new()
            .push(Linear::new(4, 8, Init::XavierUniform, &mut rng))
            .push(Activation::new(ActivationKind::Gelu))
            .push(Linear::new(8, 2, Init::XavierUniform, &mut rng));
        let x = crate::init::randn(3, 4, &mut rng);
        gradcheck::check_input_grad(&mut net, &x, 2e-2);
        gradcheck::check_param_grads(&mut net, &x, 2e-2);
    }

    #[test]
    fn mlp_builder_shapes() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut net = mlp(&[10, 64, 64, 3], Some(0.01), 7, &mut rng);
        let x = crate::init::randn(5, 10, &mut rng);
        let y = net.infer(&x);
        assert_eq!(y.shape(), (5, 3));
        // 10*64+64 + 64*64+64 + 64*3+3
        assert_eq!(net.param_count(), 10 * 64 + 64 + 64 * 64 + 64 + 64 * 3 + 3);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        let x = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        assert_eq!(net.forward(&x), x);
        assert_eq!(net.infer(&x), x);
        assert_eq!(net.backward(&x), x);
    }
}

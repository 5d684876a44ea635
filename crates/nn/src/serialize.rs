//! State-dict persistence: export/import all parameters of a network.
//!
//! The architecture is reconstructible from its configuration (and seed),
//! so persisting a trained model means persisting its parameter tensors in
//! visit order — the same contract as a PyTorch `state_dict`. The format is
//! little-endian: `count u32 | (rows u32, cols u32, data f32*)*`.
//!
//! [`export_train_state`] / [`import_train_state`] extend this to a full
//! **training-state dict** — everything a checkpoint needs for
//! bit-identical resume:
//!
//! ```text
//! params   tensor_list                  (visit_params order)
//! buffers  u32 count | (u32 len | f32*)*   (visit_buffers order)
//! rngs     u32 count | u64*              (visit_rngs order, raw states)
//! adam     f32 lr | f32 beta1 | f32 beta2 | f32 eps | u64 t
//!          | tensor_list m | tensor_list v
//! ```
//!
//! All readers are hardened against adversarial length prefixes: a count
//! or shape implying more bytes than the buffer holds is rejected *before*
//! any allocation sized from it (mirroring the transport's
//! `Message::decode` hardening).

use crate::layers::Layer;
use crate::optim::{Adam, AdamState};
use crate::tensor::Tensor;

/// Errors raised when importing a state dict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateDictError {
    /// The byte buffer ended early, had trailing garbage, or carried a
    /// length prefix implying more data than the buffer holds.
    Malformed,
    /// Tensor count differs from the network's parameter count.
    CountMismatch {
        /// Tensors in the buffer.
        got: usize,
        /// Parameters in the network.
        expected: usize,
    },
    /// A tensor's shape differs from the corresponding parameter.
    ShapeMismatch {
        /// Parameter index (visit order).
        index: usize,
        /// Shape in the buffer.
        got: (usize, usize),
        /// Shape in the network.
        expected: (usize, usize),
    },
}

impl std::fmt::Display for StateDictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateDictError::Malformed => write!(f, "malformed state dict"),
            StateDictError::CountMismatch { got, expected } => {
                write!(f, "state dict has {got} tensors, network has {expected}")
            }
            StateDictError::ShapeMismatch { index, got, expected } => {
                write!(f, "parameter {index}: state dict shape {got:?} vs network {expected:?}")
            }
        }
    }
}

impl std::error::Error for StateDictError {}

/// Bounded little-endian reader over a byte buffer. Every length or count
/// it returns has been checked against the bytes actually remaining, so
/// callers can size allocations from it safely.
struct Reader<'a> {
    bytes: &'a [u8],
    cursor: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, cursor: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.cursor
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateDictError> {
        let end = self.cursor.checked_add(n).ok_or(StateDictError::Malformed)?;
        let slice = self.bytes.get(self.cursor..end).ok_or(StateDictError::Malformed)?;
        self.cursor = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, StateDictError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StateDictError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, StateDictError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads `len` f32 values after verifying the bytes exist.
    fn f32_vec(&mut self, len: usize) -> Result<Vec<f32>, StateDictError> {
        let n = len.checked_mul(4).ok_or(StateDictError::Malformed)?;
        let slice = self.take(n)?;
        Ok(slice.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Reads a `count u32 | (rows u32, cols u32, f32*)*` tensor list. The
    /// count is bounded by the smallest possible per-tensor encoding
    /// (8 bytes) before the vector is allocated.
    fn tensor_list(&mut self) -> Result<Vec<Tensor>, StateDictError> {
        let count = self.u32()? as usize;
        if count > self.remaining() / 8 {
            return Err(StateDictError::Malformed);
        }
        let mut tensors = Vec::with_capacity(count);
        for _ in 0..count {
            let rows = self.u32()? as usize;
            let cols = self.u32()? as usize;
            let len = rows.checked_mul(cols).ok_or(StateDictError::Malformed)?;
            tensors.push(Tensor::from_vec(rows, cols, self.f32_vec(len)?));
        }
        Ok(tensors)
    }

    fn finish(self) -> Result<(), StateDictError> {
        if self.cursor == self.bytes.len() {
            Ok(())
        } else {
            Err(StateDictError::Malformed)
        }
    }
}

fn write_tensor_list(out: &mut Vec<u8>, tensors: &[Tensor]) {
    out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for t in tensors {
        out.extend_from_slice(&(t.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(t.cols() as u32).to_le_bytes());
        for &v in t.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Serialises every parameter of `layer` (visit order) to bytes.
pub fn export_state_dict(layer: &mut dyn Layer) -> Vec<u8> {
    let mut tensors: Vec<Tensor> = Vec::new();
    layer.visit_params(&mut |p| tensors.push(p.value.clone()));
    let mut out = Vec::with_capacity(4 + tensors.iter().map(|t| 8 + 4 * t.len()).sum::<usize>());
    write_tensor_list(&mut out, &tensors);
    out
}

/// Validates a parsed tensor list against the network's parameters and, on
/// success, writes the tensors into them.
fn apply_params(layer: &mut dyn Layer, tensors: &[Tensor]) -> Result<(), StateDictError> {
    let mut expected = 0usize;
    let mut shape_err: Option<StateDictError> = None;
    layer.visit_params(&mut |p| {
        if let Some(t) = tensors.get(expected) {
            if t.shape() != p.value.shape() && shape_err.is_none() {
                shape_err = Some(StateDictError::ShapeMismatch {
                    index: expected,
                    got: t.shape(),
                    expected: p.value.shape(),
                });
            }
        }
        expected += 1;
    });
    if tensors.len() != expected {
        return Err(StateDictError::CountMismatch { got: tensors.len(), expected });
    }
    if let Some(e) = shape_err {
        return Err(e);
    }
    let mut idx = 0usize;
    layer.visit_params(&mut |p| {
        p.value = tensors[idx].clone();
        idx += 1;
    });
    Ok(())
}

/// Restores parameters exported by [`export_state_dict`] into `layer`.
///
/// The network must have the same architecture (parameter count and
/// shapes, in visit order).
pub fn import_state_dict(layer: &mut dyn Layer, bytes: &[u8]) -> Result<(), StateDictError> {
    let mut r = Reader::new(bytes);
    let tensors = r.tensor_list()?;
    r.finish()?;
    apply_params(layer, &tensors)
}

/// Serialises the full training state of a `(network, Adam)` pair:
/// parameters, state buffers, internal RNG states, and the complete
/// optimizer state (hyperparameters, step counter, both moment vectors).
pub fn export_train_state(layer: &mut dyn Layer, opt: &Adam) -> Vec<u8> {
    let mut out = export_state_dict(layer);

    let mut buffers: Vec<Vec<f32>> = Vec::new();
    layer.visit_buffers(&mut |b| buffers.push(b.clone()));
    out.extend_from_slice(&(buffers.len() as u32).to_le_bytes());
    for b in &buffers {
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        for &v in b {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    let mut rng_states: Vec<u64> = Vec::new();
    layer.visit_rngs(&mut |r| rng_states.push(r.state()));
    out.extend_from_slice(&(rng_states.len() as u32).to_le_bytes());
    for s in &rng_states {
        out.extend_from_slice(&s.to_le_bytes());
    }

    let adam = opt.snapshot();
    out.extend_from_slice(&adam.lr.to_le_bytes());
    out.extend_from_slice(&adam.beta1.to_le_bytes());
    out.extend_from_slice(&adam.beta2.to_le_bytes());
    out.extend_from_slice(&adam.eps.to_le_bytes());
    out.extend_from_slice(&adam.t.to_le_bytes());
    write_tensor_list(&mut out, &adam.m);
    write_tensor_list(&mut out, &adam.v);
    out
}

/// Restores a blob written by [`export_train_state`] into `layer` and
/// `opt`. Everything is parsed and validated against the network before
/// any mutation, so a failed import leaves both untouched.
pub fn import_train_state(
    layer: &mut dyn Layer,
    opt: &mut Adam,
    bytes: &[u8],
) -> Result<(), StateDictError> {
    let mut r = Reader::new(bytes);
    let params = r.tensor_list()?;

    let buffer_count = r.u32()? as usize;
    if buffer_count > r.remaining() / 4 {
        return Err(StateDictError::Malformed);
    }
    let mut buffers = Vec::with_capacity(buffer_count);
    for _ in 0..buffer_count {
        let len = r.u32()? as usize;
        buffers.push(r.f32_vec(len)?);
    }

    let rng_count = r.u32()? as usize;
    if rng_count > r.remaining() / 8 {
        return Err(StateDictError::Malformed);
    }
    let mut rng_states = Vec::with_capacity(rng_count);
    for _ in 0..rng_count {
        rng_states.push(r.u64()?);
    }

    let adam = AdamState {
        lr: r.f32()?,
        beta1: r.f32()?,
        beta2: r.f32()?,
        eps: r.f32()?,
        t: r.u64()?,
        m: r.tensor_list()?,
        v: r.tensor_list()?,
    };
    r.finish()?;

    // Validate every section against the live network before mutating.
    let (mut n_params, mut n_buffers, mut n_rngs) = (0usize, 0usize, 0usize);
    let mut param_shapes: Vec<(usize, usize)> = Vec::new();
    let mut buffer_lens: Vec<usize> = Vec::new();
    layer.visit_params(&mut |p| {
        param_shapes.push(p.value.shape());
        n_params += 1;
    });
    layer.visit_buffers(&mut |b| {
        buffer_lens.push(b.len());
        n_buffers += 1;
    });
    layer.visit_rngs(&mut |_| n_rngs += 1);
    if params.len() != n_params {
        return Err(StateDictError::CountMismatch { got: params.len(), expected: n_params });
    }
    for (index, (t, &shape)) in params.iter().zip(&param_shapes).enumerate() {
        if t.shape() != shape {
            return Err(StateDictError::ShapeMismatch { index, got: t.shape(), expected: shape });
        }
    }
    if buffers.len() != n_buffers || rng_states.len() != n_rngs {
        return Err(StateDictError::Malformed);
    }
    if buffers.iter().zip(&buffer_lens).any(|(b, &len)| b.len() != len) {
        return Err(StateDictError::Malformed);
    }
    // Adam moments are either absent (optimizer never stepped) or aligned
    // one-to-one with the parameters.
    if !adam.m.is_empty() || !adam.v.is_empty() {
        if adam.m.len() != n_params || adam.v.len() != n_params {
            return Err(StateDictError::CountMismatch { got: adam.m.len(), expected: n_params });
        }
        for (index, ((m, v), &shape)) in adam.m.iter().zip(&adam.v).zip(&param_shapes).enumerate() {
            if m.shape() != shape || v.shape() != shape {
                return Err(StateDictError::ShapeMismatch {
                    index,
                    got: m.shape(),
                    expected: shape,
                });
            }
        }
    }

    let mut idx = 0usize;
    layer.visit_params(&mut |p| {
        p.value = params[idx].clone();
        idx += 1;
    });
    let mut idx = 0usize;
    layer.visit_buffers(&mut |b| {
        *b = buffers[idx].clone();
        idx += 1;
    });
    let mut idx = 0usize;
    layer.visit_rngs(&mut |r| {
        *r = rand::rngs::StdRng::from_state(rng_states[idx]);
        idx += 1;
    });
    opt.restore(adam);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, Init};
    use crate::layers::{mlp, BatchNorm1d, Linear, Sequential};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn round_trip_restores_exact_outputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = mlp(&[4, 16, 2], None, 0, &mut rng);
        let x = randn(3, 4, &mut rng);
        let before = net.infer(&x);
        let dict = export_state_dict(&mut net);

        // A fresh network with different init gives different outputs...
        let mut other = mlp(&[4, 16, 2], None, 99, &mut StdRng::seed_from_u64(99));
        assert_ne!(other.infer(&x), before);
        // ...until the state dict is loaded.
        import_state_dict(&mut other, &dict).unwrap();
        assert_eq!(other.infer(&x), before);
    }

    #[test]
    fn shape_mismatch_is_rejected_without_mutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = mlp(&[4, 8, 2], None, 1, &mut rng);
        let dict = export_state_dict(&mut net);
        let mut wrong = mlp(&[4, 16, 2], None, 1, &mut rng);
        let x = randn(2, 4, &mut rng);
        let before = wrong.infer(&x);
        let err = import_state_dict(&mut wrong, &dict).unwrap_err();
        assert!(matches!(err, StateDictError::ShapeMismatch { .. }));
        assert_eq!(wrong.infer(&x), before, "failed import must not mutate");
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut small = Linear::new(2, 2, Init::XavierUniform, &mut rng);
        let dict = export_state_dict(&mut small);
        let mut big = mlp(&[2, 4, 2], None, 2, &mut rng);
        assert!(matches!(
            import_state_dict(&mut big, &dict),
            Err(StateDictError::CountMismatch { .. })
        ));
    }

    #[test]
    fn truncated_and_padded_buffers_are_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Linear::new(3, 3, Init::XavierUniform, &mut rng);
        let dict = export_state_dict(&mut net);
        assert_eq!(
            import_state_dict(&mut net, &dict[..dict.len() - 2]),
            Err(StateDictError::Malformed)
        );
        let mut padded = dict.clone();
        padded.push(0);
        assert_eq!(import_state_dict(&mut net, &padded), Err(StateDictError::Malformed));
    }

    #[test]
    fn empty_network_round_trips() {
        use crate::layers::{Activation, ActivationKind};
        let mut net = Sequential::new().push(Activation::new(ActivationKind::Relu));
        let dict = export_state_dict(&mut net);
        import_state_dict(&mut net, &dict).unwrap();
    }

    #[test]
    fn adversarial_length_prefixes_are_rejected_before_allocating() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Linear::new(2, 2, Init::XavierUniform, &mut rng);

        // Huge tensor count with no data behind it.
        let huge_count = u32::MAX.to_le_bytes().to_vec();
        assert_eq!(import_state_dict(&mut net, &huge_count), Err(StateDictError::Malformed));

        // One tensor whose claimed shape implies ~16 GiB of data.
        let mut huge_shape = Vec::new();
        huge_shape.extend_from_slice(&1u32.to_le_bytes());
        huge_shape.extend_from_slice(&65_536u32.to_le_bytes());
        huge_shape.extend_from_slice(&65_536u32.to_le_bytes());
        assert_eq!(import_state_dict(&mut net, &huge_shape), Err(StateDictError::Malformed));

        // Shape whose element count overflows usize on 32-bit multiply.
        let mut overflow = Vec::new();
        overflow.extend_from_slice(&1u32.to_le_bytes());
        overflow.extend_from_slice(&u32::MAX.to_le_bytes());
        overflow.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(import_state_dict(&mut net, &overflow), Err(StateDictError::Malformed));
    }

    #[test]
    fn garbage_bytes_never_panic_or_mutate() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = mlp(&[3, 8, 3], Some(0.1), 5, &mut rng);
        let mut opt = Adam::new(1e-3);
        let x = randn(2, 3, &mut rng);
        let before = net.infer(&x);
        let mut fuzz_rng = StdRng::seed_from_u64(0xf022);
        for _ in 0..500 {
            let len = fuzz_rng.gen_range(0..256usize);
            let bytes: Vec<u8> = (0..len).map(|_| fuzz_rng.gen_range(0..=255u32) as u8).collect();
            if import_state_dict(&mut net, &bytes).is_ok()
                || import_train_state(&mut net, &mut opt, &bytes).is_ok()
            {
                // Vanishingly unlikely, but a structurally valid random blob
                // must still have matched the network exactly.
                continue;
            }
        }
        // Mutations only happen after full validation, so the network is
        // untouched by the 500 rejected imports.
        assert_eq!(net.infer(&x), before);
    }

    #[test]
    fn train_state_round_trips_params_buffers_rngs_and_adam() {
        let mut rng = StdRng::seed_from_u64(6);
        // Dropout (internal RNG) + BatchNorm (running-stat buffers) + the
        // usual Linear/Activation mix.
        let build = |seed: u64, rng: &mut StdRng| {
            let mut net = mlp(&[4, 8, 4], Some(0.2), seed, rng);
            net.add(Box::new(BatchNorm1d::new(4)));
            net
        };
        let mut net = build(7, &mut rng);
        let mut opt = Adam::new(1e-2);
        let x = randn(8, 4, &mut rng);
        for _ in 0..5 {
            net.zero_grad();
            let y = net.forward(&x);
            let _ = net.backward(&y);
            opt.step(&mut net);
        }
        let state = export_train_state(&mut net, &opt);

        let mut other = build(7, &mut StdRng::seed_from_u64(999));
        let mut other_opt = Adam::new(0.5);
        import_train_state(&mut other, &mut other_opt, &state).unwrap();

        // Both copies must now evolve identically through further
        // stochastic training steps (dropout masks included).
        for _ in 0..5 {
            net.zero_grad();
            other.zero_grad();
            let a = net.forward(&x);
            let b = other.forward(&x);
            assert_eq!(a, b, "train forward diverged");
            let _ = net.backward(&a);
            let _ = other.backward(&b);
            opt.step(&mut net);
            other_opt.step(&mut other);
        }
        assert_eq!(net.infer(&x), other.infer(&x));
    }
}

//! The resumable minibatch training loop every model trains through: the
//! silo autoencoders, the latent DDPM, and the TabDDPM and GAN baselines.
//!
//! One loop means one checkpoint payload format
//! (`u64 caller-RNG state | train state`), one resume rule and one
//! crash-injection point per step. For a fixed seed, a crash at any step
//! followed by a resume is bit-identical to an uninterrupted run, and with
//! [`Checkpointer::disabled`] the loop consumes exactly the RNG draws of
//! the training steps themselves.

use rand::rngs::StdRng;
use rand::Rng;
use silofuse_checkpoint::{CheckpointError, Checkpointer};
use silofuse_nn::serialize::{Reader, StateDictError};
use silofuse_observe as observe;

/// A model whose whole training state (weights, buffers, layer RNGs and
/// optimizer moments) round-trips through bytes, so training that
/// restores it continues as if it had never stopped.
pub trait TrainState {
    /// Exports the full training state.
    fn export_train_state(&mut self) -> Vec<u8>;

    /// Restores a state exported by [`TrainState::export_train_state`].
    ///
    /// # Errors
    /// A [`StateDictError`] if the blob is malformed or the architectures
    /// differ.
    fn import_train_state(&mut self, bytes: &[u8]) -> Result<(), StateDictError>;
}

/// One training phase: `steps` minibatch steps, checkpointed through
/// `ckpt` under (`name`, `phase`).
#[derive(Debug, Clone, Copy)]
pub struct TrainLoop<'a> {
    /// Model label of the phase's `train_epoch` events.
    pub model: &'static str,
    /// Learning rate the `train_epoch` events report.
    pub lr: f32,
    /// Steps in the whole phase, including any already checkpointed.
    pub steps: usize,
    /// Rows per minibatch (all rows when there are fewer).
    pub batch_size: usize,
    /// Where the phase checkpoints; [`Checkpointer::disabled`] for nowhere.
    pub ckpt: &'a Checkpointer,
    /// Checkpoint name.
    pub name: &'a str,
    /// Checkpoint phase, also the phase a crash point names.
    pub phase: &'a str,
}

impl TrainLoop<'_> {
    /// Trains `model` on minibatches of `rows` rows: each step draws
    /// `batch_size` row indices uniformly with replacement from `rng`, then
    /// `step` trains on them (it may draw more from `rng`) and returns the
    /// loss. `on_step` sees the completed-step count after every step; it
    /// runs before that step's checkpoint and consumes no RNG draws, so
    /// callers use it for liveness signals keyed to the logical clock.
    ///
    /// When `ckpt` resumes and holds a checkpoint, model and RNG state come
    /// from it and training continues at its step; a finished phase runs
    /// no step and writes nothing. Otherwise an enabled checkpointer first
    /// saves step 0, so a crash before the first periodic save does not
    /// resume with an already-advanced RNG.
    ///
    /// Returns the loss of the last step run (0 when none ran).
    ///
    /// # Errors
    /// Checkpoint I/O or decode failures, a corrupt or mismatched saved
    /// state, or [`CheckpointError::Crashed`] when an armed crash point
    /// fires.
    pub fn run<M: TrainState>(
        &self,
        model: &mut M,
        rows: usize,
        rng: &mut StdRng,
        mut step: impl FnMut(&mut M, &[usize], &mut StdRng) -> f32,
        mut on_step: impl FnMut(u64),
    ) -> Result<f32, CheckpointError> {
        let Self { model: label, lr, steps, batch_size, ckpt, name, phase } = *self;
        silofuse_nn::backend::record_telemetry();
        let mut start = 0;
        if let Some(saved) = ckpt.load(name, phase)? {
            let mut r = Reader::new(&saved.payload);
            let state = r.u64().map_err(CheckpointError::state)?;
            model.import_train_state(r.rest()).map_err(CheckpointError::state)?;
            *rng = StdRng::from_state(state);
            start = (saved.step as usize).min(steps);
        } else if ckpt.is_enabled() {
            ckpt.save(name, phase, 0, &snapshot(model, rng))?;
        }
        ckpt.maybe_crash(phase, start as u64)?;
        let stride = observe::epoch_stride(steps);
        let batch = batch_size.min(rows);
        let mut last = 0.0;
        for i in start..steps {
            let idx: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..rows)).collect();
            last = step(model, &idx, rng);
            if i % stride == 0 {
                observe::train_epoch(label, i as u64, f64::from(last), f64::from(lr), batch as u64);
            }
            let done = (i + 1) as u64;
            on_step(done);
            if ckpt.is_enabled() && ckpt.due(done, steps as u64) {
                ckpt.save(name, phase, done, &snapshot(model, rng))?;
            }
            ckpt.maybe_crash(phase, done)?;
        }
        Ok(last)
    }
}

/// Checkpoint payload: the caller RNG's state (8 LE bytes), then the
/// model's train state.
fn snapshot<M: TrainState>(model: &mut M, rng: &StdRng) -> Vec<u8> {
    let mut payload = rng.state().to_le_bytes().to_vec();
    payload.extend_from_slice(&model.export_train_state());
    payload
}

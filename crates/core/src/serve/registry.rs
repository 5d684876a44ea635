//! The model registry: named [`LatentDiff`] synthesizers, each fitted
//! from a dataset profile under a per-model [`Checkpointer`]. Opening a
//! registry over a directory that already holds the checkpoints of a
//! previous run *loads* the models — resume fast-forwards every training
//! phase bit-identically from its final checkpoint — so a restarted
//! server serves exactly the rows the old one would have.
//!
//! Sampling only reads a fitted model, so the registry is shared, not
//! locked: every tenant thread samples from the same models at once.

use super::{job_base, ServeError};
use crate::budget::TrainBudget;
use rand::{rngs::StdRng, SeedableRng};
use silofuse_checkpoint::Checkpointer;
use silofuse_diffusion::{RowRangeOverflow, SampleRequestError};
use silofuse_models::LatentDiff;
use silofuse_tabular::{profiles, Schema, Table};
use std::path::Path;

/// Recipe for one registry model: what to call it, which dataset profile
/// and how many rows to fit on, the training seed, and the budget.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Registry name (also the tenant-facing catalog name).
    pub name: String,
    /// Dataset profile fitted on, e.g. `"Loan"`.
    pub profile: String,
    /// Training rows generated from the profile.
    pub rows: usize,
    /// Seed for data generation and training.
    pub seed: u64,
    /// Training budget.
    pub budget: TrainBudget,
}

impl ModelSpec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        profile: impl Into<String>,
        rows: usize,
        seed: u64,
        budget: TrainBudget,
    ) -> Self {
        Self { name: name.into(), profile: profile.into(), rows, seed, budget }
    }
}

pub(crate) struct ModelEntry {
    pub(crate) name: String,
    pub(crate) schema: Schema,
    /// Shared by every tenant thread: sampling borrows the model
    /// immutably, and each row's noise depends only on `(model, job,
    /// row)`, so concurrent jobs neither wait for nor perturb each other.
    model: LatentDiff,
}

/// An ordered, immutable collection of fitted synthesizers addressed by
/// the `model` id of a [`silofuse_distributed::Message::ServeRequest`].
pub struct ModelRegistry {
    entries: Vec<ModelEntry>,
}

impl ModelRegistry {
    /// Fits (or, when `dir` holds complete checkpoints from a previous
    /// open, reloads bit-identically) every spec. Each model checkpoints
    /// under `dir/<name>/` every `every` steps; stale `.tmp` debris from
    /// a crashed writer is swept before the first load. `dir = None`
    /// trains in memory with no persistence.
    pub fn open(dir: Option<&Path>, every: u64, specs: &[ModelSpec]) -> Result<Self, ServeError> {
        let mut entries: Vec<ModelEntry> = Vec::with_capacity(specs.len());
        for spec in specs {
            if entries.iter().any(|e| e.name == spec.name) {
                return Err(ServeError::DuplicateModel(spec.name.clone()));
            }
            let profile = profiles::profile_by_name(&spec.profile)
                .ok_or_else(|| ServeError::UnknownProfile(spec.profile.clone()))?;
            let ckpt = match dir {
                Some(d) => Checkpointer::new(d.join(&spec.name), every).with_resume(true),
                None => Checkpointer::disabled(),
            };
            ckpt.sweep_stale_tmp()?;
            let table = profile.generate(spec.rows, spec.seed);
            let mut model = LatentDiff::new(spec.budget.latent_config(spec.seed));
            model.set_checkpointer(ckpt);
            let mut rng = StdRng::seed_from_u64(spec.seed);
            model.try_fit(&table, &mut rng)?;
            let schema = model.schema().expect("try_fit succeeded, the model is fitted").clone();
            entries.push(ModelEntry { name: spec.name.clone(), schema, model });
        }
        Ok(Self { entries })
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The wire id of the model named `name`.
    pub fn model_id(&self, name: &str) -> Option<u32> {
        self.entries.iter().position(|e| e.name == name).map(|i| i as u32)
    }

    /// `(name, schema)` of every model, in id order — the catalog a
    /// tenant receives on connect.
    pub fn catalog(&self) -> Vec<(String, Schema)> {
        self.entries.iter().map(|e| (e.name.clone(), e.schema.clone())).collect()
    }

    pub(crate) fn entry(&self, id: u32) -> Option<&ModelEntry> {
        self.entries.get(id as usize)
    }

    /// Synthesizes `rows` rows of job `(model, job)` starting at absolute
    /// row `start_row`. This is the ground-truth sampling path: the
    /// server streams its chunks through it, and tests call it directly
    /// to check served bytes against an unchunked reference. Any number
    /// of threads may call it at once; each gets exactly the bytes a lone
    /// call would.
    ///
    /// # Errors
    /// [`ServeError::Protocol`] for an unknown model id, and
    /// [`ServeError::Sample`] for a range whose end overflows the row
    /// index.
    pub fn sample(
        &self,
        model: u32,
        job: u64,
        start_row: u64,
        rows: u32,
    ) -> Result<Table, ServeError> {
        let entry = self
            .entry(model)
            .ok_or_else(|| ServeError::Protocol(format!("unknown model id {model}")))?;
        let (start_row, rows) = RowRangeOverflow::check(start_row, u64::from(rows))
            .map_err(SampleRequestError::from)?;
        let base = job_base(&entry.name, job);
        Ok(entry.model.try_synthesize_range(start_row, rows, base)?)
    }
}

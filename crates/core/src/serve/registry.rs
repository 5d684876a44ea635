//! The model registry: named [`LatentDiff`] synthesizers, each fitted
//! from a dataset profile under a per-model [`Checkpointer`].
//!
//! A model's checkpoint directory ends up holding three kinds of file:
//!
//! - `spec.ckpt`, the [`ModelSpec`] a fit started from, written before
//!   training;
//! - the training checkpoints (weights, Adam moments, RNG states) that
//!   let an interrupted fit resume bit-identically;
//! - `snapshot.ckpt`, written when the fit completes: the spec again and
//!   only what sampling reads ([`LatentDiff::export_fitted`]: the table
//!   encoder, the latent scaler and the networks' parameters), about a
//!   third of the training checkpoints' bytes.
//!
//! Reopening a finished model reads the snapshot alone, so a restart
//! costs one file read and no data generation, encoding or training,
//! and a restarted server serves exactly the rows the old one would
//! have. Every reopen first compares the spec asked for with the one the
//! directory was fitted from and refuses a mismatch
//! ([`ServeError::SpecMismatch`]), so old weights never meet a table, an
//! encoder or a scaler fitted for another spec.
//!
//! Sampling only reads a fitted model, so the registry is shared, not
//! locked: every tenant thread samples from the same models at once.

use super::{job_base, ServeError};
use crate::budget::TrainBudget;
use rand::{rngs::StdRng, SeedableRng};
use silofuse_checkpoint::{CheckpointError, Checkpointer};
use silofuse_diffusion::{RowRangeOverflow, SampleRequestError};
use silofuse_models::LatentDiff;
use silofuse_nn::serialize::{self, Reader, StateDictError};
use silofuse_tabular::profiles::{self, DatasetProfile};
use silofuse_tabular::{Schema, Table};
use std::path::Path;

/// Name and kind of the file that holds a fitted model's spec and what
/// sampling reads.
const SNAPSHOT: &str = "snapshot";
/// Name and kind of the file that holds the spec a fit started from.
const SPEC: &str = "spec";

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

    /// The fields the fitted model is a function of, by name: the
    /// training data, the seed, and the budget fields
    /// [`TrainBudget::latent_config`] reads. The name is the directory's.
    fn fields(&self) -> Vec<(&'static str, String)> {
        let b = &self.budget;
        vec![
            ("profile", self.profile.clone()),
            ("rows", self.rows.to_string()),
            ("seed", self.seed.to_string()),
            ("budget.ae_steps", b.ae_steps.to_string()),
            ("budget.diffusion_steps", b.diffusion_steps.to_string()),
            ("budget.batch_size", b.batch_size.to_string()),
            ("budget.hidden_dim", b.hidden_dim.to_string()),
            ("budget.timesteps", b.timesteps.to_string()),
            ("budget.inference_steps", b.inference_steps.to_string()),
            ("budget.encoding", format!("{:?}", b.encoding)),
        ]
    }

    /// [`Self::fields`] as `u32 count | (field | value)*`, each string
    /// `u32 len | utf-8`.
    fn to_bytes(&self) -> Vec<u8> {
        let fields = self.fields();
        let mut out = (fields.len() as u32).to_le_bytes().to_vec();
        for (field, value) in &fields {
            serialize::write_str(&mut out, field);
            serialize::write_str(&mut out, value);
        }
        out
    }

    /// Reads a spec [`Self::to_bytes`] wrote and checks that this spec
    /// asks for the same model.
    ///
    /// # Errors
    /// [`ServeError::SpecMismatch`] naming the first field that differs,
    /// and [`ServeError::Checkpoint`] for bytes that are not a spec.
    fn check_saved(&self, r: &mut Reader<'_>) -> Result<(), ServeError> {
        let malformed = |e: StateDictError| ServeError::Checkpoint(CheckpointError::state(e));
        let count = r.u32().map_err(malformed)? as usize;
        if count > r.remaining() / 8 {
            return Err(malformed(StateDictError::Malformed));
        }
        let mut saved = Vec::with_capacity(count);
        for _ in 0..count {
            saved.push((r.str().map_err(malformed)?, r.str().map_err(malformed)?));
        }
        let requested = self.fields();
        let mismatch =
            |field: &str, saved: Option<&str>, requested: Option<&str>| ServeError::SpecMismatch {
                model: self.name.clone(),
                field: field.to_string(),
                saved: saved.unwrap_or("nothing").to_string(),
                requested: requested.unwrap_or("nothing").to_string(),
            };
        for (field, value) in &requested {
            let was = saved.iter().find(|(f, _)| f == field).map(|&(_, v)| v);
            if was != Some(value.as_str()) {
                return Err(mismatch(field, was, Some(value)));
            }
        }
        match saved.iter().find(|(f, _)| requested.iter().all(|(r, _)| r != f)) {
            Some(&(field, value)) => Err(mismatch(field, Some(value), None)),
            None => Ok(()),
        }
    }

    /// Generates the spec's table and fits its model, checkpointing (and
    /// resuming) through `ckpt`.
    fn fit(&self, profile: &DatasetProfile, ckpt: Checkpointer) -> Result<LatentDiff, ServeError> {
        let table = profile.generate(self.rows, self.seed);
        let mut model = LatentDiff::new(self.budget.latent_config(self.seed));
        model.set_checkpointer(ckpt);
        model.try_fit(&table, &mut StdRng::seed_from_u64(self.seed))?;
        Ok(model)
    }

    /// The spec's model under `ckpt`'s directory: loaded from its snapshot
    /// when there is one, else fitted (resuming any training checkpoints
    /// there) and then snapshotted. Either way the directory's spec is
    /// checked first.
    fn load_or_fit(
        &self,
        profile: &DatasetProfile,
        ckpt: Checkpointer,
    ) -> Result<LatentDiff, ServeError> {
        ckpt.sweep_stale_tmp()?;
        let config = self.budget.latent_config(self.seed);
        if let Some(snapshot) = ckpt.load(SNAPSHOT, SNAPSHOT)? {
            let mut r = Reader::new(&snapshot.payload);
            self.check_saved(&mut r)?;
            return LatentDiff::from_fitted(config, r.rest())
                .map_err(|e| CheckpointError::state(e).into());
        }
        match ckpt.load(SPEC, SPEC)? {
            Some(record) => {
                let mut r = Reader::new(&record.payload);
                self.check_saved(&mut r)?;
                r.finish().map_err(CheckpointError::state)?;
            }
            None => ckpt.save(SPEC, SPEC, 0, &self.to_bytes())?,
        }
        let mut model = self.fit(profile, ckpt.clone())?;
        let mut snapshot = self.to_bytes();
        snapshot.extend(model.export_fitted().expect("try_fit succeeded, the model is fitted"));
        let steps = (config.ae_steps + config.diffusion_steps) as u64;
        ckpt.save(SNAPSHOT, SNAPSHOT, steps, &snapshot)?;
        Ok(model)
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
    /// Opens every spec's model. With a checkpoint directory, model
    /// `name` lives under `dir/<name>/` (stale `.tmp` debris from a
    /// crashed writer is swept first):
    ///
    /// - when `snapshot.ckpt` is there, the model is built from it alone:
    ///   no data generation, encoding, training or training-checkpoint
    ///   load, and it samples the bytes of the model that wrote it;
    /// - otherwise (a directory written before snapshots existed, or a fit
    ///   that crashed) the model is fitted, resuming bit-identically from
    ///   any training checkpoints there and checkpointing every `every`
    ///   steps, and the snapshot is written when the fit completes.
    ///
    /// Before either, the spec is compared with the one the directory was
    /// fitted from (kept in the snapshot, or in `spec.ckpt`, written before
    /// training starts). `dir = None` trains in memory with no
    /// persistence.
    ///
    /// # Errors
    /// [`ServeError::DuplicateModel`] and [`ServeError::UnknownProfile`]
    /// for a bad spec list; [`ServeError::SpecMismatch`], naming the
    /// field, when a directory holds a model fitted from another spec,
    /// before anything is generated; [`ServeError::Checkpoint`] for I/O
    /// failures and for a corrupted, truncated or foreign file, which is
    /// never refitted over.
    pub fn open(dir: Option<&Path>, every: u64, specs: &[ModelSpec]) -> Result<Self, ServeError> {
        let mut entries: Vec<ModelEntry> = Vec::with_capacity(specs.len());
        for spec in specs {
            if entries.iter().any(|e| e.name == spec.name) {
                return Err(ServeError::DuplicateModel(spec.name.clone()));
            }
            let profile = profiles::profile_by_name(&spec.profile)
                .ok_or_else(|| ServeError::UnknownProfile(spec.profile.clone()))?;
            let model = match dir {
                Some(d) => {
                    let ckpt = Checkpointer::new(d.join(&spec.name), every).with_resume(true);
                    spec.load_or_fit(&profile, ckpt)?
                }
                None => spec.fit(&profile, Checkpointer::disabled())?,
            };
            let schema = model.schema().expect("an opened model is fitted").clone();
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

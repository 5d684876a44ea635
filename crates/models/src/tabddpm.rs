//! TabDDPM baseline (Kotelnikov et al., §II-A): Gaussian diffusion on
//! quantile-transformed numerics + multinomial diffusion on one-hot
//! categoricals, with the combined loss of Eq. (3).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silofuse_checkpoint::{CheckpointError, Checkpointer};
use silofuse_diffusion::backbone::{BackboneConfig, DiffusionBackbone};
use silofuse_diffusion::gaussian::{GaussianDiffusion, Parameterization};
use silofuse_diffusion::multinomial::MultinomialDiffusion;
use silofuse_diffusion::schedule::{NoiseSchedule, ScheduleKind};
use silofuse_nn::init::randn;
use silofuse_nn::layers::Layer;
use silofuse_nn::loss::mse;
use silofuse_nn::optim::{Adam, Optimizer};
use silofuse_nn::Tensor;
use silofuse_observe as observe;
use silofuse_tabular::encode::QuantileTransformer;
use silofuse_tabular::schema::Schema;
use silofuse_tabular::table::{Column, Table};

/// TabDDPM hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TabDdpmConfig {
    /// Diffusion timesteps (paper: 200).
    pub timesteps: usize,
    /// Beta schedule.
    pub schedule: ScheduleKind,
    /// Adam learning rate.
    pub lr: f32,
    /// Initialisation seed.
    pub seed: u64,
}

impl Default for TabDdpmConfig {
    fn default() -> Self {
        Self { timesteps: 200, schedule: ScheduleKind::Linear, lr: 1e-3, seed: 0 }
    }
}

/// The fitted TabDDPM model.
pub struct TabDdpm {
    backbone: DiffusionBackbone,
    optimizer: Adam,
    gaussian: GaussianDiffusion,
    multinomials: Vec<MultinomialDiffusion>,
    quantilers: Vec<QuantileTransformer>,
    schema: Schema,
    /// Schema indices of numeric columns, in order.
    numeric_cols: Vec<usize>,
    /// Schema indices of categorical columns, in order.
    cat_cols: Vec<usize>,
    /// One-hot widths of categorical columns.
    cat_widths: Vec<usize>,
    lr: f32,
}

impl std::fmt::Debug for TabDdpm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TabDdpm({} num, {} cat)", self.numeric_cols.len(), self.cat_cols.len())
    }
}

impl TabDdpm {
    /// Builds an untrained TabDDPM for `table`'s schema, fitting the
    /// quantile transformers on `table`.
    pub fn new(table: &Table, config: TabDdpmConfig) -> Self {
        let schema = table.schema().clone();
        let numeric_cols = schema.numeric_indices();
        let cat_cols = schema.categorical_indices();
        let cat_widths: Vec<usize> =
            cat_cols.iter().map(|&i| schema.columns()[i].kind.one_hot_width()).collect();
        let quantilers = numeric_cols
            .iter()
            .map(|&i| QuantileTransformer::fit(table.column(i).as_numeric().unwrap()))
            .collect();
        let multinomials = cat_widths.iter().map(|&k| MultinomialDiffusion::new(k)).collect();

        let data_dim = numeric_cols.len() + cat_widths.iter().sum::<usize>();
        let out_dim = data_dim;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let backbone = DiffusionBackbone::new(
            BackboneConfig::paper_tabddpm(data_dim, out_dim),
            config.seed,
            &mut rng,
        );
        let schedule = NoiseSchedule::new(config.schedule, config.timesteps);
        Self {
            backbone,
            optimizer: Adam::new(config.lr),
            gaussian: GaussianDiffusion::new(schedule, Parameterization::PredictNoise),
            multinomials,
            quantilers,
            schema,
            numeric_cols,
            cat_cols,
            cat_widths,
            lr: config.lr,
        }
    }

    fn schedule(&self) -> &NoiseSchedule {
        self.gaussian.schedule()
    }

    /// Quantile-scaled numeric matrix of `table` (`rows x n_numeric`).
    fn numeric_matrix(&self, table: &Table) -> Tensor {
        let mut out = Tensor::zeros(table.n_rows(), self.numeric_cols.len());
        for (j, (&col, q)) in self.numeric_cols.iter().zip(&self.quantilers).enumerate() {
            let values = table.column(col).as_numeric().unwrap();
            for (r, &v) in values.iter().enumerate() {
                out.row_mut(r)[j] = q.transform(v) as f32;
            }
        }
        out
    }

    /// Per-feature category codes of `table`.
    fn cat_codes(&self, table: &Table) -> Vec<Vec<u32>> {
        self.cat_cols
            .iter()
            .map(|&col| table.column(col).as_categorical().unwrap().to_vec())
            .collect()
    }

    /// One optimisation step on a batch; returns the combined Eq. (3) loss.
    pub fn train_step(&mut self, batch: &Table, rng: &mut StdRng) -> f32 {
        let n = batch.n_rows();
        let n_num = self.numeric_cols.len();
        let total_cat: usize = self.cat_widths.iter().sum();
        let schedule_len = self.schedule().timesteps();

        let ts: Vec<usize> = (0..n).map(|_| rng.gen_range(0..schedule_len)).collect();

        // Numeric forward process.
        let x0_num = self.numeric_matrix(batch);
        let noise = randn(n, n_num.max(1), rng);
        let xt_num = if n_num > 0 {
            self.gaussian.q_sample(&x0_num, &ts, &noise.slice_cols(0, n_num))
        } else {
            Tensor::zeros(n, 0)
        };

        // Categorical forward process (sampled one-hot of x_t).
        let x0_cat = self.cat_codes(batch);
        let mut xt_cat_codes: Vec<Vec<u32>> = Vec::with_capacity(self.cat_cols.len());
        let mut xt_cat_onehot = Tensor::zeros(n, total_cat);
        {
            let schedule = self.gaussian.schedule().clone();
            let mut offset = 0;
            for (f, m) in self.multinomials.iter().enumerate() {
                let mut codes = Vec::with_capacity(n);
                for r in 0..n {
                    let code = m.q_sample(x0_cat[f][r], ts[r], &schedule, rng);
                    xt_cat_onehot.row_mut(r)[offset + code as usize] = 1.0;
                    codes.push(code);
                }
                xt_cat_codes.push(codes);
                offset += self.cat_widths[f];
            }
        }

        let input = Tensor::concat_cols(&[&xt_num, &xt_cat_onehot]);
        let pred = self.backbone.predict(&input, &ts);

        // Combined loss and gradient (Eq. 3): L = L_simple + mean_v M[v].
        let mut grad = Tensor::zeros(n, pred.cols());
        let mut loss = 0.0f32;
        if n_num > 0 {
            let eps_pred = pred.slice_cols(0, n_num);
            let (l, g) = mse(&eps_pred, &noise.slice_cols(0, n_num));
            loss += l;
            for r in 0..n {
                grad.row_mut(r)[..n_num].copy_from_slice(g.row(r));
            }
        }
        if !self.multinomials.is_empty() {
            let schedule = self.gaussian.schedule().clone();
            let n_feats = self.multinomials.len() as f32;
            let mut offset = n_num;
            let mut cat_loss = 0.0f64;
            for (f, m) in self.multinomials.iter().enumerate() {
                let w = self.cat_widths[f];
                for r in 0..n {
                    let logits = &pred.row(r)[offset..offset + w];
                    let (l, g) = m.kl_loss_and_grad(
                        x0_cat[f][r],
                        xt_cat_codes[f][r],
                        ts[r],
                        logits,
                        &schedule,
                    );
                    cat_loss += l;
                    let scale = 1.0 / (n as f32 * n_feats);
                    for (dst, &gv) in grad.row_mut(r)[offset..offset + w].iter_mut().zip(&g) {
                        *dst += gv * scale;
                    }
                }
                offset += w;
            }
            loss += (cat_loss / (f64::from(n as u32) * f64::from(n_feats))) as f32;
        }

        self.backbone.net_mut().zero_grad();
        let _ = self.backbone.backward_to_input(&grad);
        self.optimizer.step(self.backbone.net_mut());
        loss
    }

    /// Trains for `steps` minibatch steps.
    pub fn fit(&mut self, table: &Table, steps: usize, batch_size: usize, rng: &mut StdRng) -> f32 {
        self.fit_resumable(
            table,
            steps,
            batch_size,
            rng,
            &Checkpointer::disabled(),
            "",
            "tabddpm-train",
        )
        .expect("checkpointing disabled: no I/O or injected crash can fail")
    }

    /// Step-resumable training: periodically checkpoints the backbone,
    /// optimizer and caller RNG under `name`, resuming from the latest
    /// checkpoint when `ckpt` has resume enabled.
    ///
    /// With checkpointing disabled this is bit-identical to [`TabDdpm::fit`]:
    /// checkpoints never consume RNG draws.
    ///
    /// # Errors
    /// Propagates checkpoint I/O or decode failures, a corrupt/mismatched
    /// saved state, or an injected [`CheckpointError::Crashed`].
    #[allow(clippy::too_many_arguments)]
    pub fn fit_resumable(
        &mut self,
        table: &Table,
        steps: usize,
        batch_size: usize,
        rng: &mut StdRng,
        ckpt: &Checkpointer,
        name: &str,
        phase: &str,
    ) -> Result<f32, CheckpointError> {
        let _span = observe::span("tabddpm-train");
        silofuse_nn::backend::record_telemetry();
        let mut start = 0usize;
        if let Some(saved) = ckpt.load(name, phase)? {
            if saved.payload.len() < 8 {
                return Err(CheckpointError::Truncated);
            }
            let state = u64::from_le_bytes(saved.payload[..8].try_into().unwrap());
            self.import_train_state(&saved.payload[8..]).map_err(CheckpointError::state)?;
            *rng = StdRng::from_state(state);
            start = (saved.step as usize).min(steps);
        } else if ckpt.is_enabled() {
            // Phase-entry checkpoint: a crash before the first periodic save
            // must not resume with an already-advanced RNG.
            let payload = self.snapshot_with_rng(rng);
            ckpt.save(name, phase, 0, &payload)?;
        }
        ckpt.maybe_crash(phase, start as u64)?;
        let stride = observe::epoch_stride(steps);
        let n = table.n_rows();
        let mut last = 0.0;
        for step in start..steps {
            let idx: Vec<usize> = (0..batch_size.min(n)).map(|_| rng.gen_range(0..n)).collect();
            let batch = table.select_rows(&idx);
            last = self.train_step(&batch, rng);
            if step % stride == 0 {
                observe::train_epoch(
                    "tabddpm",
                    step as u64,
                    f64::from(last),
                    f64::from(self.lr),
                    batch.n_rows() as u64,
                );
            }
            let done = (step + 1) as u64;
            if ckpt.is_enabled() && ckpt.due(done, steps as u64) {
                let payload = self.snapshot_with_rng(rng);
                ckpt.save(name, phase, done, &payload)?;
            }
            ckpt.maybe_crash(phase, done)?;
        }
        Ok(last)
    }

    /// Exports the full training state: backbone weights, buffers, layer
    /// RNGs and the Adam optimizer.
    pub fn export_train_state(&mut self) -> Vec<u8> {
        silofuse_nn::serialize::export_train_state(self.backbone.net_mut(), &self.optimizer)
    }

    /// Restores a training state exported by [`TabDdpm::export_train_state`].
    ///
    /// # Errors
    /// Returns a [`StateDictError`](silofuse_nn::serialize::StateDictError)
    /// if the blob is malformed or the architectures differ.
    pub fn import_train_state(
        &mut self,
        bytes: &[u8],
    ) -> Result<(), silofuse_nn::serialize::StateDictError> {
        silofuse_nn::serialize::import_train_state(
            self.backbone.net_mut(),
            &mut self.optimizer,
            bytes,
        )
    }

    /// Checkpoint payload: caller RNG state (8 LE bytes) then the train state.
    fn snapshot_with_rng(&mut self, rng: &StdRng) -> Vec<u8> {
        let mut payload = rng.state().to_le_bytes().to_vec();
        payload.extend_from_slice(&self.export_train_state());
        payload
    }

    /// Samples `n` synthetic rows over `inference_steps` strided reverse
    /// steps (paper: train 200, infer 25).
    pub fn sample(&mut self, n: usize, inference_steps: usize, rng: &mut StdRng) -> Table {
        let n_num = self.numeric_cols.len();
        let total_cat: usize = self.cat_widths.iter().sum();
        let steps = self.schedule().inference_steps(inference_steps);
        let schedule = self.gaussian.schedule().clone();

        let mut x_num = randn(n, n_num, rng);
        let mut cat_codes: Vec<Vec<u32>> = self
            .multinomials
            .iter()
            .map(|m| (0..n).map(|_| m.sample_prior(rng)).collect())
            .collect();

        for (i, &t) in steps.iter().enumerate() {
            let ts = vec![t; n];
            let mut onehot = Tensor::zeros(n, total_cat);
            let mut offset = 0;
            for (f, codes) in cat_codes.iter().enumerate() {
                for (r, &c) in codes.iter().enumerate() {
                    onehot.row_mut(r)[offset + c as usize] = 1.0;
                }
                offset += self.cat_widths[f];
            }
            let input = Tensor::concat_cols(&[&x_num, &onehot]);
            let pred = self.backbone.infer(&input, &ts);
            let last_step = i + 1 == steps.len();
            let t_prev = if last_step { 0 } else { steps[i + 1] };

            // Numeric DDIM-style update on the sub-schedule.
            if n_num > 0 {
                let eps_hat = pred.slice_cols(0, n_num);
                let ab_t = schedule.alpha_bar(t);
                let x0_hat = x_num.zip_with(&eps_hat, |xt, e| {
                    ((xt - (1.0 - ab_t).sqrt() * e) / ab_t.sqrt()).clamp(-6.0, 6.0)
                });
                if last_step {
                    x_num = x0_hat;
                } else {
                    let ab_prev = schedule.alpha_bar(t_prev);
                    let sigma =
                        ((1.0 - ab_prev) / (1.0 - ab_t)).sqrt() * (1.0 - ab_t / ab_prev).sqrt();
                    let dir = (1.0 - ab_prev - sigma * sigma).max(0.0).sqrt();
                    let mut next = x0_hat.scale(ab_prev.sqrt());
                    next.add_scaled(&eps_hat, dir);
                    let z = randn(n, n_num, rng);
                    next.add_scaled(&z, sigma);
                    x_num = next;
                }
            }

            // Categorical strided posterior sampling.
            let mut offset = n_num;
            for (f, m) in self.multinomials.iter().enumerate() {
                let w = self.cat_widths[f];
                for (r, code) in cat_codes[f].iter_mut().enumerate().take(n) {
                    let logits = &pred.row(r)[offset..offset + w];
                    *code = if last_step {
                        m.p_sample(*code, 0, logits, &schedule, rng)
                    } else {
                        m.p_sample_between(*code, t, t_prev, logits, &schedule, rng)
                    };
                }
                offset += w;
            }
        }

        self.assemble(n, &x_num, &cat_codes)
    }

    fn assemble(&self, n: usize, x_num: &Tensor, cat_codes: &[Vec<u32>]) -> Table {
        let mut columns: Vec<Option<Column>> = vec![None; self.schema.width()];
        for (j, (&col, q)) in self.numeric_cols.iter().zip(&self.quantilers).enumerate() {
            let values = (0..n).map(|r| q.inverse(f64::from(x_num.row(r)[j]))).collect();
            columns[col] = Some(Column::Numeric(values));
        }
        for (f, &col) in self.cat_cols.iter().enumerate() {
            columns[col] = Some(Column::Categorical(cat_codes[f].clone()));
        }
        let columns: Vec<Column> = columns.into_iter().map(Option::unwrap).collect();
        Table::new(self.schema.clone(), columns).expect("sampled data is schema-valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silofuse_tabular::profiles;

    #[test]
    fn shapes_and_schema_round_trip() {
        let t = profiles::loan().generate(64, 0);
        let mut model = TabDdpm::new(&t, TabDdpmConfig { timesteps: 20, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(0);
        let loss = model.train_step(&t, &mut rng);
        assert!(loss.is_finite());
        let sample = model.sample(16, 10, &mut rng);
        assert_eq!(sample.n_rows(), 16);
        assert_eq!(sample.schema(), t.schema());
    }

    #[test]
    fn training_reduces_combined_loss() {
        let t = profiles::diabetes().generate(256, 1);
        let mut model = TabDdpm::new(
            &t,
            TabDdpmConfig { timesteps: 50, lr: 2e-3, seed: 1, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(1);
        let first: f32 = (0..5).map(|_| model.train_step(&t, &mut rng)).sum::<f32>() / 5.0;
        model.fit(&t, 250, 128, &mut rng);
        let last: f32 = (0..5).map(|_| model.train_step(&t, &mut rng)).sum::<f32>() / 5.0;
        assert!(last < first, "loss did not fall: {first} -> {last}");
    }

    #[test]
    fn sampled_numerics_stay_in_data_range() {
        let t = profiles::diabetes().generate(256, 2);
        let mut model = TabDdpm::new(
            &t,
            TabDdpmConfig { timesteps: 50, lr: 2e-3, seed: 2, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(2);
        model.fit(&t, 150, 128, &mut rng);
        let sample = model.sample(64, 10, &mut rng);
        // Quantile inverse guarantees range containment.
        for &col in &t.schema().numeric_indices() {
            let orig = t.column(col).as_numeric().unwrap();
            let lo = orig.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = orig.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let synth = sample.column(col).as_numeric().unwrap();
            assert!(synth.iter().all(|&v| v >= lo - 1e-9 && v <= hi + 1e-9));
        }
    }

    #[test]
    fn fit_crash_and_resume_is_bit_identical() {
        use silofuse_checkpoint::CrashPoint;
        let t = profiles::loan().generate(128, 6);
        let cfg = TabDdpmConfig { timesteps: 20, ..Default::default() };

        // Uninterrupted baseline.
        let mut clean = TabDdpm::new(&t, cfg);
        let mut rng_clean = StdRng::seed_from_u64(21);
        clean.fit(&t, 24, 32, &mut rng_clean);
        let state_after_fit = rng_clean.state();
        let sample_clean = clean.sample(16, 5, &mut rng_clean);

        // Crash at step 10 (cadence 4 → last save at step 8), then resume.
        let dir =
            std::env::temp_dir().join(format!("silofuse-tabddpm-crash-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ckpt = Checkpointer::new(&dir, 4)
            .with_crash(Some(CrashPoint::parse("tabddpm-train:10").unwrap()));
        let mut crashed = TabDdpm::new(&t, cfg);
        let mut rng = StdRng::seed_from_u64(21);
        let err = crashed.fit_resumable(&t, 24, 32, &mut rng, &ckpt, "tabddpm", "tabddpm-train");
        assert!(matches!(err, Err(CheckpointError::Crashed { .. })));
        drop(crashed);

        let resume = Checkpointer::new(&dir, 4).with_resume(true);
        let mut revived = TabDdpm::new(&t, TabDdpmConfig { seed: 444, ..cfg });
        let mut rng2 = StdRng::seed_from_u64(999);
        revived.fit_resumable(&t, 24, 32, &mut rng2, &resume, "tabddpm", "tabddpm-train").unwrap();
        assert_eq!(rng2.state(), state_after_fit);
        let sample_resumed = revived.sample(16, 5, &mut rng2);
        assert_eq!(sample_resumed, sample_clean, "resumed TabDDPM output differs from clean run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn categorical_only_table_trains() {
        let t = profiles::loan().generate(64, 3);
        let cats = t.schema().categorical_indices();
        let part = t.project(&cats);
        let mut model = TabDdpm::new(&part, TabDdpmConfig { timesteps: 20, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(3);
        assert!(model.train_step(&part, &mut rng).is_finite());
        let s = model.sample(8, 5, &mut rng);
        assert_eq!(s.schema(), part.schema());
    }

    #[test]
    fn numeric_only_table_trains() {
        let t = profiles::loan().generate(64, 4);
        let nums = t.schema().numeric_indices();
        let part = t.project(&nums);
        let mut model = TabDdpm::new(&part, TabDdpmConfig { timesteps: 20, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(4);
        assert!(model.train_step(&part, &mut rng).is_finite());
        let s = model.sample(8, 5, &mut rng);
        assert_eq!(s.n_rows(), 8);
    }
}

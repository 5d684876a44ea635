//! GAN baselines: GAN(linear) ≈ CTGAN and GAN(conv) ≈ CTAB-GAN (§V-A).
//!
//! Both train on one-hot encodings with min-max-scaled numerics — the
//! mainstream encoding whose sparsity/width blow-up the paper criticises —
//! using four generator layers with LeakyReLU and LayerNorm and a transposed
//! discriminator, Adam with β₁ = 0.5. The linear discriminator reads real
//! rows as sparse index+value batches through an [`EmbeddingGather`]
//! first layer; the conv discriminator convolves over the full one-hot
//! signal, so it reads them dense.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_checkpoint::{CheckpointError, Checkpointer};
use silofuse_diffusion::{TrainLoop, TrainState};
use silofuse_nn::init::{randn, Init};
use silofuse_nn::layers::{
    Activation, ActivationKind, Conv1d, EmbeddingGather, Layer, LayerNorm, Linear, Sequential,
};
use silofuse_nn::loss::bce_with_logits;
use silofuse_nn::optim::Adam;
use silofuse_nn::serialize::{self, StateDictError};
use silofuse_nn::sparse::SparseSpec;
use silofuse_nn::Tensor;
use silofuse_observe as observe;
use silofuse_tabular::encode::{ScalingKind, TableEncoder};
use silofuse_tabular::table::Table;
use silofuse_tabular::SparseBatch;

/// Generator/discriminator backbone flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GanArchitecture {
    /// Linear stack (CTGAN-style).
    Linear,
    /// 1-D convolutional stack (CTAB-GAN-style).
    Conv,
}

/// GAN hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct GanConfig {
    /// Backbone flavour.
    pub architecture: GanArchitecture,
    /// Noise input width.
    pub noise_dim: usize,
    /// Hidden width (linear) / base channel count (conv).
    pub hidden_dim: usize,
    /// Adam learning rate (β₁ = 0.5 as is standard for GANs).
    pub lr: f32,
    /// Initialisation seed.
    pub seed: u64,
}

impl Default for GanConfig {
    fn default() -> Self {
        Self {
            architecture: GanArchitecture::Linear,
            noise_dim: 64,
            hidden_dim: 256,
            lr: 2e-4,
            seed: 0,
        }
    }
}

/// Per-step GAN losses.
#[derive(Debug, Clone, Copy)]
pub struct GanLosses {
    /// Discriminator loss (real + fake halves).
    pub d_loss: f32,
    /// Generator (non-saturating) loss.
    pub g_loss: f32,
}

/// A GAN synthesizer bound to one table schema.
pub struct TabularGan {
    generator: Sequential,
    discriminator: Sequential,
    g_opt: Adam,
    d_opt: Adam,
    table_encoder: TableEncoder,
    /// Reusable sparse batch for real discriminator inputs, for the linear
    /// architecture; `None` for the conv one, which reads real rows dense.
    /// Fake batches are generator output and always dense.
    sparse: Option<SparseBatch>,
    noise_dim: usize,
    lr: f32,
}

impl std::fmt::Debug for TabularGan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TabularGan(width={})", self.table_encoder.encoded_width())
    }
}

impl TabularGan {
    /// Builds an untrained GAN for `table`'s schema, fitting scalers on it.
    pub fn new(table: &Table, config: GanConfig) -> Self {
        let table_encoder = TableEncoder::fit(table, ScalingKind::MinMax);
        let width = table_encoder.encoded_width();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (generator, discriminator, sparse) = match config.architecture {
            GanArchitecture::Linear => (
                linear_generator(config.noise_dim, config.hidden_dim, width, &mut rng),
                linear_discriminator(
                    crate::sparse::sparse_spec(table.schema()),
                    config.hidden_dim,
                    &mut rng,
                ),
                Some(table_encoder.sparse_batch()),
            ),
            GanArchitecture::Conv => (
                conv_generator(config.noise_dim, width, &mut rng),
                conv_discriminator(width, &mut rng),
                None,
            ),
        };
        Self {
            generator,
            discriminator,
            g_opt: Adam::with_betas(config.lr, 0.5, 0.999),
            d_opt: Adam::with_betas(config.lr, 0.5, 0.999),
            table_encoder,
            sparse,
            noise_dim: config.noise_dim,
            lr: config.lr,
        }
    }

    /// Discriminator forward over a *real* batch: sparse for the linear
    /// discriminator (the EmbeddingGather first layer gathers weight rows
    /// instead of multiplying one-hot zeros), dense one-hot for the conv
    /// one. Encoding consumes no RNG draws.
    fn discriminate_real(&mut self, real: &Table) -> Tensor {
        let Self { table_encoder, sparse, discriminator, .. } = self;
        match sparse {
            Some(batch) => {
                table_encoder
                    .encode_sparse_into(real, batch)
                    .expect("batch codes already validated against the fitted schema");
                discriminator.forward_sparse(crate::sparse::batch_ref(batch))
            }
            None => {
                let x = Tensor::from_vec(
                    real.n_rows(),
                    table_encoder.encoded_width(),
                    table_encoder.encode(real),
                );
                discriminator.forward(&x)
            }
        }
    }

    /// One adversarial step (one D update, one G update) on a real batch.
    pub fn train_step(&mut self, real: &Table, rng: &mut StdRng) -> GanLosses {
        let n = real.n_rows();
        let noise = randn(n, self.noise_dim, rng);
        let x_fake = self.generator.forward(&noise);

        // --- Discriminator update: maximise log D(x) + log(1 - D(G(z))).
        // Real (sparse for the linear architecture) and fake (dense)
        // batches go through the same first layer; each backward consumes
        // the matching cache.
        self.discriminator.zero_grad();
        let logits_real = self.discriminate_real(real);
        let ones = Tensor::full(n, 1, 1.0);
        let (l_real, g_real) = bce_with_logits(&logits_real, &ones);
        let _ = self.discriminator.backward(&g_real);
        let logits_fake = self.discriminator.forward(&x_fake);
        let zeros = Tensor::zeros(n, 1);
        let (l_fake, g_fake) = bce_with_logits(&logits_fake, &zeros);
        let _ = self.discriminator.backward(&g_fake);
        self.d_opt.step(&mut self.discriminator);

        // --- Generator update: non-saturating, maximise log D(G(z)).
        self.generator.zero_grad();
        self.discriminator.zero_grad();
        let logits_fake2 = self.discriminator.forward(&x_fake);
        let (g_loss, g_grad) = bce_with_logits(&logits_fake2, &ones);
        let grad_fake = self.discriminator.backward(&g_grad);
        let _ = self.generator.backward(&grad_fake);
        self.g_opt.step(&mut self.generator);

        GanLosses { d_loss: l_real + l_fake, g_loss }
    }

    /// Trains for `steps` minibatch steps.
    pub fn fit(&mut self, table: &Table, steps: usize, batch_size: usize, rng: &mut StdRng) {
        self.fit_resumable(
            table,
            steps,
            batch_size,
            rng,
            &Checkpointer::disabled(),
            "",
            "gan-train",
        )
        .expect("checkpointing disabled: no I/O or injected crash can fail");
    }

    /// Step-resumable training through the shared [`TrainLoop`]:
    /// periodically checkpoints generator, discriminator, both Adam
    /// optimizers and the caller RNG under `name`, resuming from the
    /// latest checkpoint when `ckpt` has resume enabled.
    ///
    /// With checkpointing disabled this is bit-identical to
    /// [`TabularGan::fit`]: checkpoints never consume RNG draws.
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
    ) -> Result<(), CheckpointError> {
        let _span = observe::span("gan-train");
        let run = TrainLoop { model: "gan", lr: self.lr, steps, batch_size, ckpt, name, phase };
        let step = |gan: &mut Self, idx: &[usize], rng: &mut StdRng| {
            gan.train_step(&table.select_rows(idx), rng).g_loss
        };
        run.run(self, table.n_rows(), rng, step, |_| {}).map(drop)
    }

    /// Generates `n` synthetic rows. The noise for all rows is drawn up
    /// front; the generator then runs over blocks of
    /// [`DECODE_BLOCK_ROWS`](crate::autoencoder::DECODE_BLOCK_ROWS) rows,
    /// each decoded in place, as [`crate::TabularAutoencoder::decode`] does.
    pub fn sample(&mut self, n: usize, rng: &mut StdRng) -> Table {
        let noise = randn(n, self.noise_dim, rng);
        let out = self.table_encoder.column_decoder(self.table_encoder.slot_offsets(), n);
        crate::autoencoder::decode_in_blocks(&self.generator, &noise, out)
    }
}

impl TrainState for TabularGan {
    /// Generator and discriminator weights plus both Adam optimizers,
    /// framed as `u32 generator-section length | generator section |
    /// discriminator section`.
    fn export_train_state(&mut self) -> Vec<u8> {
        let gen = serialize::export_train_state(&mut self.generator, &self.g_opt);
        let disc = serialize::export_train_state(&mut self.discriminator, &self.d_opt);
        crate::frame_pair(&gen, &disc)
    }

    fn import_train_state(&mut self, bytes: &[u8]) -> Result<(), StateDictError> {
        let (gen, disc) = crate::split_pair(bytes)?;
        serialize::import_train_state(&mut self.generator, &mut self.g_opt, gen)?;
        serialize::import_train_state(&mut self.discriminator, &mut self.d_opt, disc)
    }
}

fn linear_generator(noise: usize, hidden: usize, out: usize, rng: &mut StdRng) -> Sequential {
    let mut seq = Sequential::new();
    let dims = [noise, hidden, hidden, hidden, out];
    for i in 0..4 {
        seq.add(Box::new(Linear::new(dims[i], dims[i + 1], Init::KaimingNormal, rng)));
        if i < 3 {
            seq.add(Box::new(Activation::new(ActivationKind::LeakyRelu)));
            seq.add(Box::new(LayerNorm::new(dims[i + 1])));
        }
    }
    seq
}

/// Linear discriminator over `spec`'s one-hot layout. The first layer is
/// an [`EmbeddingGather`], with the parameters and initialiser draws of a
/// `Linear` on the one-hot width: real rows arrive sparse, generator
/// output dense.
fn linear_discriminator(spec: SparseSpec, hidden: usize, rng: &mut StdRng) -> Sequential {
    let mut seq = Sequential::new();
    let dims = [spec.in_width(), hidden, hidden, hidden, 1];
    seq.add(Box::new(EmbeddingGather::new(spec, dims[1], Init::KaimingNormal, rng)));
    seq.add(Box::new(Activation::new(ActivationKind::LeakyRelu)));
    seq.add(Box::new(LayerNorm::new(dims[1])));
    for i in 1..4 {
        seq.add(Box::new(Linear::new(dims[i], dims[i + 1], Init::KaimingNormal, rng)));
        if i < 3 {
            seq.add(Box::new(Activation::new(ActivationKind::LeakyRelu)));
            seq.add(Box::new(LayerNorm::new(dims[i + 1])));
        }
    }
    seq
}

/// Conv generator: linear lift to a multi-channel signal, then conv layers
/// refining it down to a single channel of the output width.
fn conv_generator(noise: usize, out_width: usize, rng: &mut StdRng) -> Sequential {
    let channels = 4usize;
    Sequential::new()
        .push(Linear::new(noise, channels * out_width, Init::KaimingNormal, rng))
        .push(Activation::new(ActivationKind::LeakyRelu))
        .push(Conv1d::new(channels, channels, 3, 1, 1, out_width, rng))
        .push(Activation::new(ActivationKind::LeakyRelu))
        .push(Conv1d::new(channels, 1, 3, 1, 1, out_width, rng))
}

/// Conv discriminator: strided convolutions then a linear head (the
/// "transposed" architecture of the generator).
fn conv_discriminator(input_width: usize, rng: &mut StdRng) -> Sequential {
    let c1 = Conv1d::new(1, 4, 5, 2, 2, input_width, rng);
    let l1 = c1.output_len();
    let c2 = Conv1d::new(4, 8, 5, 2, 2, l1, rng);
    let flat = c2.output_width();
    Sequential::new()
        .push(c1)
        .push(Activation::new(ActivationKind::LeakyRelu))
        .push(c2)
        .push(Activation::new(ActivationKind::LeakyRelu))
        .push(Linear::new(flat, 1, Init::KaimingNormal, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use silofuse_tabular::profiles;

    #[test]
    fn linear_gan_shapes_and_decoding() {
        let t = profiles::loan().generate(64, 0);
        let mut gan = TabularGan::new(&t, GanConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let losses = gan.train_step(&t, &mut rng);
        assert!(losses.d_loss.is_finite() && losses.g_loss.is_finite());
        let sample = gan.sample(16, &mut rng);
        assert_eq!(sample.n_rows(), 16);
        assert_eq!(sample.schema(), t.schema());
    }

    #[test]
    fn conv_gan_shapes_and_decoding() {
        let t = profiles::loan().generate(64, 0);
        let cfg = GanConfig { architecture: GanArchitecture::Conv, ..Default::default() };
        let mut gan = TabularGan::new(&t, cfg);
        let mut rng = StdRng::seed_from_u64(0);
        let losses = gan.train_step(&t, &mut rng);
        assert!(losses.d_loss.is_finite() && losses.g_loss.is_finite());
        let sample = gan.sample(8, &mut rng);
        assert_eq!(sample.n_rows(), 8);
    }

    /// Blocked sampling draws the same noise and writes the bytes of one
    /// whole-batch generator pass decoded by `TableEncoder::decode`, at
    /// every block boundary and for both architectures.
    #[test]
    fn blocked_sample_equals_the_whole_batch_generator() {
        let loan = profiles::loan().generate(64, 4);
        let churn = profiles::churn().generate(64, 4);
        for (table, architecture) in [
            (&loan, GanArchitecture::Linear),
            (&loan, GanArchitecture::Conv),
            (&churn, GanArchitecture::Linear),
        ] {
            let cfg = GanConfig { architecture, hidden_dim: 32, ..Default::default() };
            let mut gan = TabularGan::new(table, cfg);
            let mut rng = StdRng::seed_from_u64(8);
            gan.fit(table, 2, 32, &mut rng);
            for rows in [0, 1, 255, 256, 257, 785] {
                let (mut a, mut b) =
                    (StdRng::seed_from_u64(rows as u64), StdRng::seed_from_u64(rows as u64));
                let sampled = gan.sample(rows, &mut a);
                let fake = gan.generator.infer(&randn(rows, gan.noise_dim, &mut b));
                let oracle = gan.table_encoder.decode(fake.as_slice()).unwrap();
                let ctx = format!("{architecture:?}, width {}, {rows} rows", fake.cols());
                crate::assert_same_bytes(&sampled, &oracle, &ctx);
                assert_eq!(a.state(), b.state(), "{ctx}: noise draws");
            }
        }
    }

    #[test]
    fn adversarial_training_moves_generator_output_toward_data() {
        // 1-D sanity: data mean strongly positive; after training, generated
        // numerics should drift toward the data's range.
        let t = profiles::diabetes().generate(256, 1);
        let mut gan =
            TabularGan::new(&t, GanConfig { hidden_dim: 128, lr: 5e-4, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(2);
        gan.fit(&t, 200, 128, &mut rng);
        let sample = gan.sample(256, &mut rng);
        // Every generated numeric must be finite and within the min-max
        // decode range (the decoder clamps), and the discriminator should
        // not trivially separate them (loss sanity).
        for (col, meta) in sample.columns().iter().zip(sample.schema().columns()) {
            if let Some(v) = col.as_numeric() {
                assert!(v.iter().all(|x| x.is_finite()), "{}", meta.name);
            }
        }
    }

    #[test]
    fn gan_fit_crash_and_resume_is_bit_identical() {
        use silofuse_checkpoint::CrashPoint;
        let t = profiles::loan().generate(128, 9);
        let cfg = GanConfig { hidden_dim: 64, ..Default::default() };

        // Uninterrupted baseline.
        let mut clean = TabularGan::new(&t, cfg);
        let mut rng_clean = StdRng::seed_from_u64(17);
        clean.fit(&t, 30, 32, &mut rng_clean);
        let state_after_fit = rng_clean.state();
        let sample_clean = clean.sample(16, &mut rng_clean);

        // Crash mid-run, then resume a fresh differently-seeded model.
        let dir = std::env::temp_dir().join(format!("silofuse-gan-crash-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ckpt =
            Checkpointer::new(&dir, 4).with_crash(Some(CrashPoint::parse("gan-train:14").unwrap()));
        let mut crashed = TabularGan::new(&t, cfg);
        let mut rng = StdRng::seed_from_u64(17);
        let err = crashed.fit_resumable(&t, 30, 32, &mut rng, &ckpt, "gan", "gan-train");
        assert!(matches!(err, Err(CheckpointError::Crashed { .. })));
        drop(crashed);

        let resume = Checkpointer::new(&dir, 4).with_resume(true);
        let mut revived = TabularGan::new(&t, GanConfig { seed: 555, ..cfg });
        let mut rng2 = StdRng::seed_from_u64(999);
        revived.fit_resumable(&t, 30, 32, &mut rng2, &resume, "gan", "gan-train").unwrap();
        assert_eq!(rng2.state(), state_after_fit);
        let sample_resumed = revived.sample(16, &mut rng2);
        assert_eq!(sample_resumed, sample_clean, "resumed GAN output differs from clean run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gan_produces_varied_categories() {
        let t = profiles::loan().generate(256, 7);
        let mut gan = TabularGan::new(&t, GanConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        gan.fit(&t, 100, 128, &mut rng);
        let sample = gan.sample(128, &mut rng);
        // At least one categorical column should emit more than one class
        // (untrained GANs may collapse, trained ones on Loan shouldn't be
        // fully constant everywhere).
        let varied = sample
            .columns()
            .iter()
            .filter_map(|c| c.as_categorical())
            .any(|codes| codes.iter().any(|&v| v != codes[0]));
        assert!(varied, "all categorical outputs collapsed to constants");
    }
}

//! The sparse categorical path against a dense one-hot oracle.
//!
//! Categorical columns reach the autoencoders and the linear GAN
//! discriminator only as sparse index+value batches, through an
//! `EmbeddingGather` first layer. The oracle is built here from public
//! parts: `Linear`-first copies of the same networks, loaded with the
//! models' own weights, fed one-hot rows from `TableEncoder::encode`,
//! trained with the same losses and Adam steps. Per-step losses, latents
//! and train-state bytes must match exactly, not approximately: the
//! gather/scatter kernels accumulate in the dense kernels' element order,
//! and the skipped `0·w` terms cannot perturb a round-to-nearest
//! accumulator for finite weights. Train states cross between the two
//! representations in both directions, through a crash and a resume too.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silofuse_checkpoint::{CheckpointError, Checkpointer, CrashPoint};
use silofuse_diffusion::{TrainLoop, TrainState};
use silofuse_models::{AutoencoderConfig, GanConfig, TabularAutoencoder, TabularGan};
use silofuse_nn::init::{randn, Init};
use silofuse_nn::layers::{mlp, Activation, ActivationKind, Layer, LayerNorm, Linear, Sequential};
use silofuse_nn::loss::{bce_with_logits, gaussian_nll_at, grouped_softmax_cross_entropy_at};
use silofuse_nn::optim::Adam;
use silofuse_nn::serialize::{self, Reader, StateDictError};
use silofuse_nn::{backend, Tensor};
use silofuse_tabular::encode::{ScalingKind, TableEncoder};
use silofuse_tabular::profiles;
use silofuse_tabular::table::Table;

/// Every schema of the sweep, each drawn by every case: narrow Loan, the
/// paper's widest real column (Churn, 2 932-way), mid-width Heloc, the
/// synthetic 1k-way and 10k-way profiles (one-hot width 10 021), and
/// Loan's numeric-only projection, whose index buffer is empty.
const SCHEMAS: [&str; 6] = ["Loan", "Churn", "Heloc", "HighCard1k", "HighCard10k", "Loan numeric"];

fn dataset(name: &str, rows: usize, seed: u64) -> Table {
    match name {
        "Loan numeric" => {
            let t = profiles::loan().generate(rows, seed);
            t.project(&t.schema().numeric_indices())
        }
        _ => profiles::profile_by_name(name).expect("a known profile").generate(rows, seed),
    }
}

fn ae_cfg(seed: u64) -> AutoencoderConfig {
    AutoencoderConfig { hidden_dim: 24, lr: 2e-3, seed, ..Default::default() }
}

/// `u32 first-section length | first | second`: how the models frame
/// their weight and train-state blobs.
fn frame(first: &[u8], second: &[u8]) -> Vec<u8> {
    let mut out = (first.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(first);
    out.extend_from_slice(second);
    out
}

fn split(bytes: &[u8]) -> Result<(&[u8], &[u8]), StateDictError> {
    let mut r = Reader::new(bytes);
    let len = r.u32()? as usize;
    Ok((r.bytes(len)?, r.rest()))
}

/// Overwrites `net`'s parameters with the tensor list that a state dict
/// or a train state starts with.
fn load_params(net: &mut Sequential, section: &[u8]) {
    let mut tensors = Reader::new(section).tensor_list().expect("a tensor list").into_iter();
    net.visit_params(&mut |p| {
        let t = tensors.next().expect("one tensor per parameter");
        assert_eq!(t.shape(), p.value.shape(), "the oracle mirrors the model's layers");
        p.value = t;
    });
    assert!(tensors.next().is_none(), "one parameter per tensor");
}

/// One-hot rows of `table`, the dense input the oracle's first `Linear`
/// reads.
fn one_hot(encoder: &TableEncoder, table: &Table) -> Tensor {
    Tensor::from_vec(table.n_rows(), encoder.encoded_width(), encoder.encode(table))
}

/// The dense oracle of [`TabularAutoencoder`].
struct DenseAe {
    encoder: Sequential,
    decoder: Sequential,
    enc_opt: Adam,
    dec_opt: Adam,
    table_encoder: TableEncoder,
}

impl DenseAe {
    /// A `Linear`-first copy of `ae`, fitted on `table` with `cfg`, as it
    /// is now.
    fn copy_of(ae: &mut TabularAutoencoder, table: &Table, cfg: AutoencoderConfig) -> Self {
        let table_encoder = TableEncoder::fit(table, ScalingKind::Standard);
        let heads = 2 * table.schema().numeric_count()
            + table_encoder.categorical_group_widths().iter().sum::<usize>();
        let (width, h, latent) = (table_encoder.encoded_width(), cfg.hidden_dim, ae.latent_dim());
        let rng = &mut StdRng::seed_from_u64(0);
        let mut encoder = mlp(&[width, h, h, latent], None, 0, rng);
        let mut decoder = mlp(&[latent, h, h, heads], None, 0, rng);
        let weights = ae.export_weights();
        let (enc, dec) = split(&weights).unwrap();
        load_params(&mut encoder, enc);
        load_params(&mut decoder, dec);
        let (enc_opt, dec_opt) = (Adam::new(cfg.lr), Adam::new(cfg.lr));
        Self { encoder, decoder, enc_opt, dec_opt, table_encoder }
    }

    fn train_step(&mut self, batch: &Table) -> f32 {
        self.encoder.zero_grad();
        self.decoder.zero_grad();
        let z = self.encoder.forward(&one_hot(&self.table_encoder, batch));
        let heads = self.decoder.forward(&z);
        let n = batch.schema().numeric_count();
        let numeric =
            Tensor::from_vec(batch.n_rows(), n, self.table_encoder.numeric_features(batch));
        let widths = self.table_encoder.categorical_group_widths();
        let mut grad = Tensor::zeros(heads.rows(), heads.cols());
        let mut loss = 0.0;
        if n > 0 {
            loss += gaussian_nll_at(&heads, 0, &numeric, &mut grad);
        }
        if !widths.is_empty() {
            let targets = self.table_encoder.categorical_targets(batch);
            loss += grouped_softmax_cross_entropy_at(
                &heads,
                2 * n,
                &widths,
                targets.as_slice(),
                &mut grad,
            );
        }
        let grad_z = self.decoder.backward(&grad);
        let _ = self.encoder.backward(&grad_z);
        self.dec_opt.step(&mut self.decoder);
        self.enc_opt.step(&mut self.encoder);
        loss
    }

    fn encode(&self, table: &Table) -> Tensor {
        self.encoder.infer(&one_hot(&self.table_encoder, table))
    }

    /// Trains through the models' resumable loop, checkpointing like
    /// [`TabularAutoencoder::fit_resumable`].
    fn fit_resumable(
        &mut self,
        table: &Table,
        steps: usize,
        rng: &mut StdRng,
        ckpt: &Checkpointer,
    ) -> Result<f32, CheckpointError> {
        let run = TrainLoop {
            model: "autoencoder",
            lr: self.enc_opt.snapshot().lr,
            steps,
            batch_size: 32,
            ckpt,
            name: "ae",
            phase: "ae-train",
        };
        run.run(
            self,
            table.n_rows(),
            rng,
            |m, idx, _| m.train_step(&table.select_rows(idx)),
            |_| {},
        )
    }
}

impl TrainState for DenseAe {
    fn export_train_state(&mut self) -> Vec<u8> {
        let enc = serialize::export_train_state(&mut self.encoder, &self.enc_opt);
        frame(&enc, &serialize::export_train_state(&mut self.decoder, &self.dec_opt))
    }

    fn import_train_state(&mut self, bytes: &[u8]) -> Result<(), StateDictError> {
        let (enc, dec) = split(bytes)?;
        serialize::import_train_state(&mut self.encoder, &mut self.enc_opt, enc)?;
        serialize::import_train_state(&mut self.decoder, &mut self.dec_opt, dec)
    }
}

/// The linear GAN's four affine layers through `dims`, each hidden one
/// followed by LeakyReLU and LayerNorm: its generator, and over the
/// one-hot width its discriminator with a `Linear` first layer.
fn gan_stack(dims: [usize; 5]) -> Sequential {
    let rng = &mut StdRng::seed_from_u64(0);
    let mut net = Sequential::new();
    for i in 0..4 {
        net.add(Box::new(Linear::new(dims[i], dims[i + 1], Init::KaimingNormal, rng)));
        if i < 3 {
            net.add(Box::new(Activation::new(ActivationKind::LeakyRelu)));
            net.add(Box::new(LayerNorm::new(dims[i + 1])));
        }
    }
    net
}

/// The dense oracle of the linear [`TabularGan`].
struct DenseGan {
    generator: Sequential,
    discriminator: Sequential,
    g_opt: Adam,
    d_opt: Adam,
    table_encoder: TableEncoder,
    noise_dim: usize,
}

impl DenseGan {
    fn copy_of(gan: &mut TabularGan, table: &Table, cfg: GanConfig) -> Self {
        let table_encoder = TableEncoder::fit(table, ScalingKind::MinMax);
        let (width, h) = (table_encoder.encoded_width(), cfg.hidden_dim);
        let mut generator = gan_stack([cfg.noise_dim, h, h, h, width]);
        let mut discriminator = gan_stack([width, h, h, h, 1]);
        let state = gan.export_train_state();
        let (gen, disc) = split(&state).unwrap();
        load_params(&mut generator, gen);
        load_params(&mut discriminator, disc);
        let adam = || Adam::with_betas(cfg.lr, 0.5, 0.999);
        Self {
            generator,
            discriminator,
            g_opt: adam(),
            d_opt: adam(),
            table_encoder,
            noise_dim: cfg.noise_dim,
        }
    }

    /// One D update on the real and the fake batch, then one
    /// non-saturating G update: `(d_loss, g_loss)`.
    fn train_step(&mut self, real: &Table, rng: &mut StdRng) -> (f32, f32) {
        let n = real.n_rows();
        let x_fake = self.generator.forward(&randn(n, self.noise_dim, rng));
        let (ones, zeros) = (Tensor::full(n, 1, 1.0), Tensor::zeros(n, 1));
        self.discriminator.zero_grad();
        let logits_real = self.discriminator.forward(&one_hot(&self.table_encoder, real));
        let (l_real, g_real) = bce_with_logits(&logits_real, &ones);
        let _ = self.discriminator.backward(&g_real);
        let logits_fake = self.discriminator.forward(&x_fake);
        let (l_fake, g_fake) = bce_with_logits(&logits_fake, &zeros);
        let _ = self.discriminator.backward(&g_fake);
        self.d_opt.step(&mut self.discriminator);

        self.generator.zero_grad();
        self.discriminator.zero_grad();
        let logits = self.discriminator.forward(&x_fake);
        let (g_loss, g_grad) = bce_with_logits(&logits, &ones);
        let grad_fake = self.discriminator.backward(&g_grad);
        let _ = self.generator.backward(&grad_fake);
        self.g_opt.step(&mut self.generator);
        (l_real + l_fake, g_loss)
    }

    fn export_train_state(&mut self) -> Vec<u8> {
        let gen = serialize::export_train_state(&mut self.generator, &self.g_opt);
        frame(&gen, &serialize::export_train_state(&mut self.discriminator, &self.d_opt))
    }

    fn sample(&self, n: usize, rng: &mut StdRng) -> Table {
        let fake = self.generator.infer(&randn(n, self.noise_dim, rng));
        self.table_encoder.decode(fake.as_slice()).unwrap()
    }
}

/// Row indices of one minibatch, drawn as the training loop draws them.
fn draw_batch(table: &Table, batch: usize, rng: &mut StdRng) -> Table {
    let rows = table.n_rows();
    let idx: Vec<usize> = (0..batch.min(rows)).map(|_| rng.gen_range(0..rows)).collect();
    table.select_rows(&idx)
}

/// Runs `f` with the backend at `threads` workers.
fn at_threads(threads: usize, f: impl FnOnce()) {
    let found = backend::threads();
    backend::set_threads(threads);
    f();
    backend::set_threads(found);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On every schema, each autoencoder training step returns the
    /// oracle's loss, and training ends in the oracle's train state and
    /// latents, at 1, 2 and 4 workers.
    #[test]
    fn ae_training_and_synthesis_match_dense_oracle(
        batch_sel in 0usize..4,
        steps in 1usize..5,
        threads_sel in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let threads = [1usize, 2, 4][threads_sel];
        at_threads(threads, || {
            // Each case runs every batch size too, a different one per schema.
            for (i, name) in SCHEMAS.into_iter().enumerate() {
                let batch = [1usize, 7, 32, 64][(batch_sel + i) % 4];
                let ctx = format!("{name}, batch {batch}, {threads} workers, seed {seed}");
                let t = dataset(name, 80, seed);
                let mut ae = TabularAutoencoder::new(&t, ae_cfg(seed));
                let mut dense = DenseAe::copy_of(&mut ae, &t, ae_cfg(seed));
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                for step in 0..steps {
                    let b = draw_batch(&t, batch, &mut rng);
                    let (got, want) = (ae.train_step(&b), dense.train_step(&b));
                    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: loss of step {step}");
                }
                assert!(ae.export_train_state() == dense.export_train_state(), "{ctx}: state");
                assert_eq!(ae.encode(&t), dense.encode(&t), "{ctx}: latents");
            }
        });
    }

    /// On every schema, the linear GAN's sparse real batches give the
    /// oracle's losses at each step, its train state and its samples.
    #[test]
    fn gan_training_and_sampling_match_dense_oracle(
        batch_sel in 0usize..2,
        steps in 1usize..4,
        threads_sel in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let threads = [1usize, 2, 4][threads_sel];
        at_threads(threads, || {
            for (i, name) in SCHEMAS.into_iter().enumerate() {
                let batch = [8usize, 32][(batch_sel + i) % 2];
                let ctx = format!("{name}, batch {batch}, {threads} workers, seed {seed}");
                let t = dataset(name, 64, seed);
                let cfg = GanConfig { hidden_dim: 24, noise_dim: 12, seed, ..Default::default() };
                let mut gan = TabularGan::new(&t, cfg);
                let mut dense = DenseGan::copy_of(&mut gan, &t, cfg);
                let mut rows = StdRng::seed_from_u64(seed ^ 0x9a4);
                let mut rng_s = StdRng::seed_from_u64(seed);
                let mut rng_d = rng_s.clone();
                for step in 0..steps {
                    let b = draw_batch(&t, batch, &mut rows);
                    let got = gan.train_step(&b, &mut rng_s);
                    let want = dense.train_step(&b, &mut rng_d);
                    let bits = |(d, g): (f32, f32)| (d.to_bits(), g.to_bits());
                    assert_eq!(bits((got.d_loss, got.g_loss)), bits(want), "{ctx}: step {step}");
                }
                assert!(gan.export_train_state() == dense.export_train_state(), "{ctx}: state");
                let sample = gan.sample(16, &mut rng_s);
                assert_eq!(sample, dense.sample(16, &mut rng_d), "{ctx}: sample");
            }
        });
    }
}

/// The oracle crashes mid-fit; a fresh autoencoder with another seed
/// resumes from the oracle's checkpoint and ends where the oracle's
/// uninterrupted run does, at 1, 2 and 4 workers.
#[test]
fn checkpoint_resume_crosses_the_representation_switch() {
    let t = profiles::churn().generate(96, 3);
    for threads in [1, 2, 4] {
        at_threads(threads, || {
            let mut seeded = TabularAutoencoder::new(&t, ae_cfg(0));
            let mut clean = DenseAe::copy_of(&mut seeded, &t, ae_cfg(0));
            let mut rng_clean = StdRng::seed_from_u64(11);
            clean.fit_resumable(&t, 20, &mut rng_clean, &Checkpointer::disabled()).unwrap();

            // The victim crashes at step 10 (cadence 4, last save at step 8).
            let dir = std::env::temp_dir()
                .join(format!("silofuse-repr-switch-{}-{threads}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let crash = CrashPoint::parse("ae-train:10").unwrap();
            let armed = Checkpointer::new(&dir, 4).with_crash(Some(crash));
            let mut victim = DenseAe::copy_of(&mut seeded, &t, ae_cfg(0));
            let err = victim.fit_resumable(&t, 20, &mut StdRng::seed_from_u64(11), &armed);
            assert!(matches!(err, Err(CheckpointError::Crashed { .. })), "{threads} workers");

            let resume = Checkpointer::new(&dir, 4).with_resume(true);
            let mut revived = TabularAutoencoder::new(&t, ae_cfg(999));
            let mut rng = StdRng::seed_from_u64(777);
            let run =
                revived.fit_resumable(&t, 20, 32, &mut rng, &resume, "ae", "ae-train", &mut |_| {});
            run.unwrap();
            assert!(
                revived.export_train_state() == clean.export_train_state(),
                "{threads} workers"
            );
            assert_eq!(revived.encode(&t), clean.encode(&t), "{threads} workers");
            assert_eq!(rng.state(), rng_clean.state(), "{threads} workers: caller RNG");
            let _ = std::fs::remove_dir_all(&dir);
        });
    }
}

/// The mirror image: an autoencoder's train state, imported into an
/// oracle with other weights, trains on exactly as the autoencoder does.
#[test]
fn sparse_checkpoint_resumes_on_the_dense_path() {
    let t = profiles::heloc().generate(80, 7);
    let mut ae = TabularAutoencoder::new(&t, ae_cfg(1));
    ae.fit(&t, 12, 32, &mut StdRng::seed_from_u64(29));
    let mut dense = DenseAe::copy_of(&mut TabularAutoencoder::new(&t, ae_cfg(888)), &t, ae_cfg(1));
    dense.import_train_state(&ae.export_train_state()).unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    for step in 0..6 {
        let b = draw_batch(&t, 32, &mut rng);
        assert_eq!(ae.train_step(&b).to_bits(), dense.train_step(&b).to_bits(), "step {step}");
    }
    assert!(ae.export_train_state() == dense.export_train_state());
}

/// A table without categorical columns trains through an empty index
/// buffer: the batch holds only the numeric slots, and training matches
/// the oracle.
#[test]
fn numeric_only_table_survives_forced_sparse() {
    let t = dataset("Loan numeric", 64, 5);
    let mut ae = TabularAutoencoder::new(&t, ae_cfg(2));
    let mut dense = DenseAe::copy_of(&mut ae, &t, ae_cfg(2));
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..5 {
        let b = draw_batch(&t, 32, &mut rng);
        assert_eq!(ae.train_step(&b).to_bits(), dense.train_step(&b).to_bits());
    }
    assert_eq!(ae.sparse_batch_bytes(), 32 * t.n_cols() * 4);
    assert!(ae.export_train_state() == dense.export_train_state());
}

//! Criterion microbenchmarks for the substrate hot paths: tensor kernels,
//! layer forward/backward, diffusion training/sampling, GBDT fitting, the
//! benchmark metrics, and the wire codec.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_diffusion::backbone::{BackboneConfig, DiffusionBackbone};
use silofuse_diffusion::gaussian::{GaussianDdpm, GaussianDiffusion, Parameterization};
use silofuse_diffusion::multinomial::MultinomialDiffusion;
use silofuse_diffusion::schedule::{NoiseSchedule, ScheduleKind};
use silofuse_distributed::Message;
use silofuse_metrics::{resemblance, ResemblanceConfig};
use silofuse_models::{AutoencoderConfig, TabularAutoencoder};
use silofuse_nn::init::{randn, Init};
use silofuse_nn::layers::{Layer, Linear};
use silofuse_nn::Tensor;
use silofuse_tabular::profiles;
use silofuse_trees::{BoostParams, GbdtBinaryClassifier};

fn bench_tensor(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = randn(128, 128, &mut rng);
    let b = randn(128, 128, &mut rng);
    let mut group = c.benchmark_group("tensor");
    group.throughput(Throughput::Elements((128 * 128 * 128) as u64));
    group.bench_function("matmul_128", |bench| bench.iter(|| a.matmul(&b)));
    group.bench_function("matmul_transpose_128", |bench| bench.iter(|| a.matmul_transpose(&b)));
    group.bench_function("transpose_matmul_128", |bench| bench.iter(|| a.transpose_matmul(&b)));
    group.finish();
}

fn bench_layers(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let x = randn(256, 64, &mut rng);
    let mut group = c.benchmark_group("layers");
    group.bench_function("linear_forward_backward_256x64_to_128", |bench| {
        bench.iter_batched(
            || Linear::new(64, 128, Init::XavierUniform, &mut StdRng::seed_from_u64(2)),
            |mut layer| {
                let y = layer.forward(&x);
                let g = Tensor::full(y.rows(), y.cols(), 1.0);
                layer.backward(&g)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_diffusion(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let make = || {
        let mut init_rng = StdRng::seed_from_u64(3);
        let schedule = NoiseSchedule::new(ScheduleKind::Linear, 200);
        let diffusion = GaussianDiffusion::new(schedule, Parameterization::PredictX0);
        let backbone =
            DiffusionBackbone::new(BackboneConfig::paper_latent(13, 128), 3, &mut init_rng);
        GaussianDdpm::new(diffusion, backbone, 1e-3)
    };
    let data = randn(128, 13, &mut rng);
    let mut group = c.benchmark_group("diffusion");
    group.bench_function("ddpm_train_step_b128_d13", |bench| {
        let mut ddpm = make();
        let mut rng = StdRng::seed_from_u64(4);
        bench.iter(|| ddpm.train_step(&data, &mut rng))
    });
    group.bench_function("ddpm_sample_64_rows_25_steps", |bench| {
        let ddpm = make();
        let mut rng = StdRng::seed_from_u64(5);
        bench.iter(|| ddpm.sample(64, 25, 1.0, &mut rng))
    });
    group.bench_function("multinomial_kl_k30", |bench| {
        let m = MultinomialDiffusion::new(30);
        let schedule = NoiseSchedule::new(ScheduleKind::Linear, 200);
        let logits: Vec<f32> = (0..30).map(|i| (i as f32 * 0.37).sin()).collect();
        bench.iter(|| m.kl_loss_and_grad(3, 17, 100, &logits, &schedule))
    });
    group.finish();
}

fn bench_autoencoder(c: &mut Criterion) {
    let table = profiles::loan().generate(256, 7);
    let mut group = c.benchmark_group("autoencoder");
    group.bench_function("train_step_loan_256", |bench| {
        let mut ae = TabularAutoencoder::new(
            &table,
            AutoencoderConfig { hidden_dim: 128, ..Default::default() },
        );
        bench.iter(|| ae.train_step(&table))
    });
    group.bench_function("encode_loan_256", |bench| {
        let ae = TabularAutoencoder::new(
            &table,
            AutoencoderConfig { hidden_dim: 128, ..Default::default() },
        );
        bench.iter(|| ae.encode(&table))
    });
    group.finish();
}

fn bench_trees(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    use rand::Rng;
    let n = 1024;
    let features: Vec<Vec<f64>> =
        (0..10).map(|_| (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect();
    let labels: Vec<u32> =
        (0..n).map(|i| u32::from(features[0][i] + features[1][i] > 0.0)).collect();
    c.bench_function("gbdt_fit_40_trees_1024x10", |bench| {
        bench.iter(|| {
            GbdtBinaryClassifier::fit(
                &features,
                &labels,
                &BoostParams { n_trees: 40, ..Default::default() },
            )
        })
    });
}

fn bench_metrics(c: &mut Criterion) {
    let real = profiles::diabetes().generate(512, 9);
    let synth = profiles::diabetes().generate(512, 10);
    c.bench_function("resemblance_diabetes_512", |bench| {
        bench.iter(|| resemblance(&real, &synth, &ResemblanceConfig::default()))
    });
}

fn bench_codec(c: &mut Criterion) {
    let msg = Message::LatentUpload { client: 1, rows: 256, cols: 16, data: vec![0.5; 256 * 16] };
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(msg.wire_size() as u64));
    group.bench_function("encode_16KiB_latents", |bench| bench.iter(|| msg.encode()));
    let encoded = msg.encode();
    group.bench_function("decode_16KiB_latents", |bench| {
        bench.iter(|| Message::decode(encoded.clone()).unwrap())
    });
    group.finish();
}

/// Short measurement windows keep the full workspace bench run to a few
/// minutes on one core; bump these for precision work.
fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_tensor,
        bench_layers,
        bench_diffusion,
        bench_autoencoder,
        bench_trees,
        bench_metrics,
        bench_codec
}
criterion_main!(benches);

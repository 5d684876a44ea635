//! Layer probes: on one thread, with telemetry on, call each hidden
//! layer's public functions at the workload's exact shapes and time every
//! call. Phase spans say which phase a run waited on; the probes say what
//! each layer inside that phase costs; the `nn.kernel.*` counters read
//! around each probe say what each kernel inside that layer costs.
//!
//! The probes build fresh models of the workload's shapes: timing depends
//! on the shapes, not on the trained weights the fitted model keeps
//! private.

use crate::report::Values;
use crate::stats::median;
use rand::{rngs::StdRng, Rng, SeedableRng};
use silofuse_core::diffusion::gaussian::{GaussianDdpm, GaussianDiffusion, Parameterization};
use silofuse_core::diffusion::{BackboneConfig, DiffusionBackbone, NoiseSchedule};
use silofuse_core::models::{AutoencoderConfig, LatentDiffConfig, TabularAutoencoder};
use silofuse_core::nn::backend::KERNEL_COUNTERS;
use silofuse_core::nn::{init, workspace};
use silofuse_core::tabular::Table;
use silofuse_core::ModelRegistry;
use silofuse_observe::{self as observe, Telemetry, TelemetryHub};
use std::fmt::Write as _;
use std::time::Instant;

const WARM_STEPS: usize = 3;
const AE_STEPS: usize = 10;
const DDPM_STEPS: usize = 12;
const REPEATS: usize = 3;
const SCOPE: &str = "probe";

const KERNELS: usize = KERNEL_COUNTERS.len();

/// Snapshot of the program's `nn.kernel.*` call and nanosecond counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels {
    calls: [u64; KERNELS],
    ns: [u64; KERNELS],
}

impl Kernels {
    fn read(t: &Telemetry) -> Self {
        let mut k = Self::default();
        for (i, c) in KERNEL_COUNTERS.iter().enumerate() {
            k.calls[i] = t.metrics().counter(c.calls).get();
            k.ns[i] = t.metrics().counter(c.nanos).get();
        }
        k
    }

    fn since(self, earlier: Self) -> Self {
        let mut d = Self::default();
        for i in 0..KERNELS {
            d.calls[i] = self.calls[i] - earlier.calls[i];
            d.ns[i] = self.ns[i] - earlier.ns[i];
        }
        d
    }

    fn add(&mut self, other: Self) {
        for i in 0..KERNELS {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
    }

    fn sum_where(&self, keep: impl Fn(&str) -> bool) -> f64 {
        KERNEL_COUNTERS
            .iter()
            .zip(self.ns)
            .filter(|(c, _)| keep(c.nanos))
            .map(|(_, ns)| ns as f64)
            .sum()
    }

    /// Nanoseconds inside any counted kernel.
    pub fn total_ns(&self) -> f64 {
        self.sum_where(|_| true)
    }

    /// Nanoseconds inside the three GEMM kernels.
    pub fn gemm_ns(&self) -> f64 {
        self.sum_where(|name| name.contains("gemm"))
    }

    /// Nanoseconds inside the sparse gather and scatter kernels.
    pub fn gather_scatter_ns(&self) -> f64 {
        self.sum_where(|name| name.contains(".gather.") || name.contains(".scatter."))
    }

    /// `kernel share%` for every kernel that ran, then the uncounted rest
    /// of `wall_ns`.
    pub fn describe(&self, wall_ns: f64) -> String {
        let mut parts = Vec::new();
        for (c, (&calls, &ns)) in KERNEL_COUNTERS.iter().zip(self.calls.iter().zip(&self.ns)) {
            if calls > 0 {
                let name = c.nanos.trim_start_matches("nn.kernel.").trim_end_matches(".ns");
                parts.push(format!("{name} {:.1}%", 100.0 * ns as f64 / wall_ns));
            }
        }
        parts.push(format!("outside kernels {:.1}%", 100.0 * (1.0 - self.total_ns() / wall_ns)));
        parts.join(", ")
    }
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// `Σ fan_in × fan_out` of a chain of dense layers of widths `dims`.
fn mac_per_row(dims: &[usize]) -> f64 {
    dims.windows(2).map(|w| (w[0] * w[1]) as f64).sum()
}

/// Layer widths of the paper's latent diffusion backbone.
fn backbone_dims(width: usize, hidden: usize) -> Vec<usize> {
    let cfg = BackboneConfig::paper_latent(width, hidden);
    let mut dims = vec![cfg.data_dim + cfg.time_embed_dim];
    dims.extend(std::iter::repeat(cfg.hidden_dim).take(cfg.depth));
    dims.push(cfg.out_dim);
    dims
}

/// Probe of one silo's autoencoder.
#[derive(Debug, Clone)]
pub struct AeProbe {
    pub sparse: bool,
    pub head_width: usize,
    pub step_ms: f64,
    pub batch_ms: f64,
    pub encode_us_per_row: f64,
    pub decode_us_per_row: f64,
    pub gather_scatter_ms: f64,
    pub kernel_share: f64,
    kernels: Kernels,
    wall_s: f64,
    gemm_flops: f64,
    misses: u64,
}

/// The slowest silo's `train_step`, split through the public
/// forward/backward entry points.
#[derive(Debug, Clone, Default)]
pub struct SplitProbe {
    pub enc_fwd_ms: f64,
    pub dec_loss_bwd_ms: f64,
    pub enc_bwd_ms: f64,
    /// `zero_grad` plus `opt_step`.
    pub adam_ms: f64,
}

/// Probe results the stacked and serve workloads share.
#[derive(Debug, Default)]
pub struct Shared {
    gemm_flops: f64,
    gemm_ns: f64,
    kernel_share_ddpm: Option<f64>,
    kernel_share_sample: f64,
    /// Workspace misses over `steps` warm training steps.
    misses: u64,
    steps: usize,
    train_step_ms: Option<f64>,
    sample_us_per_row: f64,
}

impl Shared {
    pub fn set(&self, values: &mut Values) {
        values.set("nn.gemm_gflops", self.gemm_flops / self.gemm_ns);
        values.set("nn.kernel_share.sample", self.kernel_share_sample);
        values.set("diffusion.sample_us_per_row", self.sample_us_per_row);
        if let Some(v) = self.kernel_share_ddpm {
            values.set("nn.kernel_share.ddpm", v);
        }
        if self.steps > 0 {
            values.set("nn.workspace_misses_per_step", self.misses as f64 / self.steps as f64);
        }
        if let Some(v) = self.train_step_ms {
            values.set("diffusion.train_step_ms", v);
        }
    }
}

/// Everything the stacked workloads probe.
#[derive(Debug)]
pub struct StackedProbe {
    pub silos: Vec<AeProbe>,
    /// The silo with the slowest probed `train_step`.
    pub slowest: usize,
    pub split: SplitProbe,
    pub shared: Shared,
}

fn batch_rows(part: &Table, batch: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = part.n_rows();
    (0..batch.min(n)).map(|_| rng.gen_range(0..n)).collect()
}

fn probe_ae(
    part: &Table,
    cfg: AutoencoderConfig,
    batch: usize,
    decode_rows: usize,
    t: &Telemetry,
) -> (AeProbe, TabularAutoencoder) {
    let mut ae = TabularAutoencoder::new(part, cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9b0e);
    let schema = part.schema();
    let head_width = 2 * schema.numeric_count()
        + ae.table_encoder().categorical_group_widths().iter().sum::<usize>();
    let (h, lat) = (cfg.hidden_dim, ae.latent_dim());
    let sparse = ae.uses_sparse();

    // Minibatch assembly exactly as the fit loop does it, plus the batch
    // encode the AE's first layer consumes.
    let mut batch_s = Vec::new();
    {
        let encoder = ae.table_encoder();
        let mut sparse_batch = encoder.sparse_batch();
        for _ in 0..AE_STEPS {
            let idx = batch_rows(part, batch, &mut rng);
            let ((), s) = secs(|| {
                let b = part.select_rows(&idx);
                if sparse {
                    encoder.encode_sparse_into(&b, &mut sparse_batch).expect("codes in range");
                } else {
                    std::hint::black_box(encoder.encode(&b));
                }
            });
            batch_s.push(s);
        }
    }

    for _ in 0..WARM_STEPS {
        let b = part.select_rows(&batch_rows(part, batch, &mut rng));
        ae.train_step(&b);
    }
    let misses = workspace::misses();
    let before = Kernels::read(t);
    let mut step_s = Vec::new();
    let mut rows = 0;
    for _ in 0..AE_STEPS {
        let b = part.select_rows(&batch_rows(part, batch, &mut rng));
        rows = b.n_rows();
        let (_, s) = secs(|| std::hint::black_box(ae.train_step(&b)));
        step_s.push(s);
    }
    let kernels = Kernels::read(t).since(before);
    let misses = workspace::misses() - misses;
    let wall_s: f64 = step_s.iter().sum();

    let input = ae.table_encoder().encoded_width();
    let mut dims = vec![h, h, lat, h, h, head_width];
    if !sparse {
        dims.insert(0, input);
    }
    let gemm_flops = 6.0 * (rows * AE_STEPS) as f64 * mac_per_row(&dims);

    let encode_s = median(
        &(0..REPEATS).map(|_| secs(|| workspace::recycle(ae.encode(part))).1).collect::<Vec<_>>(),
    );
    let latents = init::randn(decode_rows, lat, &mut rng);
    let decode_s = median(
        &(0..REPEATS)
            .map(|_| secs(|| std::hint::black_box(ae.decode(&latents))).1)
            .collect::<Vec<_>>(),
    );

    let probe = AeProbe {
        sparse,
        head_width,
        step_ms: median(&step_s) * 1e3,
        batch_ms: median(&batch_s) * 1e3,
        encode_us_per_row: encode_s * 1e6 / part.n_rows() as f64,
        decode_us_per_row: decode_s * 1e6 / decode_rows as f64,
        gather_scatter_ms: kernels.gather_scatter_ns() / 1e6 / AE_STEPS as f64,
        kernel_share: kernels.total_ns() / (wall_s * 1e9),
        kernels,
        wall_s,
        gemm_flops,
        misses,
    };
    (probe, ae)
}

/// Splits `train_step` of `ae` into its four public parts; writes the
/// per-part kernel breakdown into `report`.
fn probe_split(
    ae: &mut TabularAutoencoder,
    part: &Table,
    batch: usize,
    t: &Telemetry,
    report: &mut String,
) -> SplitProbe {
    let mut rng = StdRng::seed_from_u64(0x5b117);
    let mut parts_s: [Vec<f64>; 4] = Default::default();
    let mut kernels = [Kernels::default(); 4];
    for _ in 0..AE_STEPS {
        let b = part.select_rows(&batch_rows(part, batch, &mut rng));
        let mut mark = Kernels::read(t);
        let mut lap = |i: usize, s: f64, parts_s: &mut [Vec<f64>; 4]| {
            let now = Kernels::read(t);
            kernels[i].add(now.since(mark));
            mark = now;
            parts_s[i].push(s);
        };
        let (z, s) = secs(|| {
            ae.zero_grad();
            ae.encoder_forward_train(&b)
        });
        lap(0, s, &mut parts_s);
        let ((_, grad_z), s) = secs(|| ae.decoder_loss_backward(&z, &b));
        lap(1, s, &mut parts_s);
        let ((), s) = secs(|| ae.encoder_backward(&grad_z));
        lap(2, s, &mut parts_s);
        let ((), s) = secs(|| ae.opt_step());
        lap(3, s, &mut parts_s);
        workspace::recycle(z);
        workspace::recycle(grad_z);
    }
    let names = ["encoder forward", "decoder+loss+backward", "encoder backward", "adam"];
    let step: f64 = parts_s.iter().map(|p| median(p)).sum();
    for (i, name) in names.iter().enumerate() {
        let wall: f64 = parts_s[i].iter().sum();
        let _ = writeln!(
            report,
            "    {name:<22} {:>8.3} ms ({:>4.1}% of step): {}",
            median(&parts_s[i]) * 1e3,
            100.0 * median(&parts_s[i]) / step,
            kernels[i].describe(wall * 1e9)
        );
    }
    SplitProbe {
        enc_fwd_ms: median(&parts_s[0]) * 1e3,
        dec_loss_bwd_ms: median(&parts_s[1]) * 1e3,
        enc_bwd_ms: median(&parts_s[2]) * 1e3,
        adam_ms: median(&parts_s[3]) * 1e3,
    }
}

fn build_ddpm(cfg: &LatentDiffConfig, width: usize) -> GaussianDdpm {
    let mut init_rng = StdRng::seed_from_u64(cfg.seed ^ 0x51d0);
    let backbone = DiffusionBackbone::new(
        BackboneConfig::paper_latent(width, cfg.ddpm_hidden),
        cfg.seed,
        &mut init_rng,
    );
    let parameterization = if cfg.predict_noise {
        Parameterization::PredictNoise
    } else {
        Parameterization::PredictX0
    };
    let diffusion =
        GaussianDiffusion::new(NoiseSchedule::new(cfg.schedule, cfg.timesteps), parameterization);
    GaussianDdpm::new(diffusion, backbone, cfg.ddpm_lr)
}

/// `GaussianDdpm::train_step` at the coordinator's latent width, then
/// `ChunkedSampler::next_chunk` for `sample_rows` rows at the configured
/// inference steps.
#[allow(clippy::too_many_arguments)]
fn probe_diffusion(
    cfg: &LatentDiffConfig,
    width: usize,
    train_rows: usize,
    train: bool,
    sample_rows: usize,
    t: &Telemetry,
    shared: &mut Shared,
    report: &mut String,
) {
    let mut ddpm = build_ddpm(cfg, width);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xd1ff);
    let dims = backbone_dims(width, cfg.ddpm_hidden);
    if train {
        let z = init::randn(train_rows, width, &mut rng);
        let batch = |rng: &mut StdRng| {
            let idx: Vec<usize> =
                (0..cfg.batch_size.min(train_rows)).map(|_| rng.gen_range(0..train_rows)).collect();
            z.select_rows(&idx)
        };
        for _ in 0..WARM_STEPS {
            let b = batch(&mut rng);
            ddpm.train_step(&b, &mut rng);
        }
        let misses = workspace::misses();
        let before = Kernels::read(t);
        let mut step_s = Vec::new();
        let mut rows = 0;
        for _ in 0..DDPM_STEPS {
            let b = batch(&mut rng);
            rows = b.rows();
            step_s.push(secs(|| std::hint::black_box(ddpm.train_step(&b, &mut rng))).1);
        }
        let kernels = Kernels::read(t).since(before);
        let wall: f64 = step_s.iter().sum();
        shared.gemm_flops += 6.0 * (rows * DDPM_STEPS) as f64 * mac_per_row(&dims);
        shared.gemm_ns += kernels.gemm_ns();
        shared.kernel_share_ddpm = Some(kernels.total_ns() / (wall * 1e9));
        shared.train_step_ms = Some(median(&step_s) * 1e3);
        let misses = workspace::misses() - misses;
        shared.misses += misses;
        shared.steps += DDPM_STEPS;
        let _ = writeln!(
            report,
            "  ddpm train_step {:.3} ms at width {width} (batch {rows}), {misses} workspace misses in {DDPM_STEPS} warm steps: {}",
            median(&step_s) * 1e3,
            kernels.describe(wall * 1e9)
        );
    }

    let before = Kernels::read(t);
    let mut per_row = Vec::new();
    let mut wall = 0.0;
    for _ in 0..REPEATS {
        let mut sampler = ddpm
            .chunked_sampler(
                sample_rows,
                cfg.inference_steps,
                cfg.eta,
                cfg.synth_chunk_rows,
                &mut rng,
            )
            .expect("the standard budget's inference steps are valid");
        let ((), s) = secs(|| {
            while let Some((_, z)) = sampler.next_chunk() {
                workspace::recycle(z);
            }
        });
        per_row.push(s / sample_rows as f64);
        wall += s;
    }
    let kernels = Kernels::read(t).since(before);
    shared.gemm_flops +=
        2.0 * (REPEATS * sample_rows * cfg.inference_steps) as f64 * mac_per_row(&dims);
    shared.gemm_ns += kernels.gemm_ns();
    shared.kernel_share_sample = kernels.total_ns() / (wall * 1e9);
    shared.sample_us_per_row = median(&per_row) * 1e6;
    let _ = writeln!(
        report,
        "  sampler next_chunk {:.1} us/row ({sample_rows} rows, {} steps): {}",
        shared.sample_us_per_row,
        cfg.inference_steps,
        kernels.describe(wall * 1e9)
    );
}

fn ae_config(cfg: &LatentDiffConfig, silo: usize) -> AutoencoderConfig {
    // The per-silo seed rule of the stacked protocol.
    let mut ae = cfg.ae;
    ae.seed = cfg.seed ^ (silo as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ae
}

/// Probes of a stacked workload over its silo `partitions`.
pub fn stacked(
    cfg: &LatentDiffConfig,
    partitions: &[Table],
    synth_rows: usize,
    hub: &TelemetryHub,
    report: &mut String,
) -> StackedProbe {
    let _scope = observe::scope(SCOPE);
    let t = hub.scope(SCOPE);
    let decode_rows = synth_rows;
    let mut aes = Vec::new();
    let mut silos = Vec::new();
    let _ = writeln!(report, "\nlayer probes (one thread, telemetry on):");
    for (i, part) in partitions.iter().enumerate() {
        let (probe, ae) = probe_ae(part, ae_config(cfg, i), cfg.batch_size, decode_rows, &t);
        let _ = writeln!(
            report,
            "  silo{i} train_step {:.3} ms, batch {:.3} ms, encode {:.2} us/row, decode {:.2} us/row: {}",
            probe.step_ms,
            probe.batch_ms,
            probe.encode_us_per_row,
            probe.decode_us_per_row,
            probe.kernels.describe(probe.wall_s * 1e9)
        );
        silos.push(probe);
        aes.push(ae);
    }
    let steps: Vec<f64> = silos.iter().map(|s| s.step_ms).collect();
    let (slowest, _) = crate::attrib::slowest(&steps).expect("at least one silo");
    let _ = writeln!(
        report,
        "  silo{slowest} has the slowest step; {} workspace misses in {AE_STEPS} warm steps; split:",
        silos[slowest].misses
    );
    let split = probe_split(&mut aes[slowest], &partitions[slowest], cfg.batch_size, &t, report);

    let slow = &silos[slowest];
    let mut shared = Shared {
        gemm_flops: slow.gemm_flops,
        gemm_ns: slow.kernels.gemm_ns(),
        misses: slow.misses,
        steps: AE_STEPS,
        ..Shared::default()
    };
    let width: usize = aes.iter().map(TabularAutoencoder::latent_dim).sum();
    let train_rows = partitions[0].n_rows();
    probe_diffusion(cfg, width, train_rows, true, synth_rows, &t, &mut shared, report);
    StackedProbe { silos, slowest, split, shared }
}

/// Probes of the serve workload: the sampler at page size, the decoder
/// of the served schema, and `ModelRegistry::sample` of one page.
pub fn serve(
    cfg: &LatentDiffConfig,
    train: &Table,
    registry: &ModelRegistry,
    page_rows: u32,
    hub: &TelemetryHub,
    report: &mut String,
) -> (Shared, f64) {
    let _scope = observe::scope(SCOPE);
    let t = hub.scope(SCOPE);
    let _ = writeln!(report, "\nlayer probes (one thread, telemetry on):");
    let mut shared = Shared::default();
    let width = train.schema().width();
    probe_diffusion(cfg, width, train.n_rows(), false, page_rows as usize, &t, &mut shared, report);

    let mut ae = TabularAutoencoder::new(train, cfg.ae);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xdec0);
    let latents = init::randn(page_rows as usize, ae.latent_dim(), &mut rng);
    let before = Kernels::read(&t);
    let decode: Vec<f64> =
        (0..REPEATS).map(|_| secs(|| std::hint::black_box(ae.decode(&latents))).1).collect();
    let kernels = Kernels::read(&t).since(before);
    let head = 2 * train.schema().numeric_count()
        + ae.table_encoder().categorical_group_widths().iter().sum::<usize>();
    let h = cfg.ae.hidden_dim;
    shared.gemm_flops +=
        2.0 * (REPEATS * page_rows as usize) as f64 * mac_per_row(&[ae.latent_dim(), h, h, head]);
    shared.gemm_ns += kernels.gemm_ns();
    let decode_us = median(&decode) * 1e6 / f64::from(page_rows);
    let _ = writeln!(report, "  decode {decode_us:.2} us/row ({page_rows} rows)");

    let model = registry.model_id("loan").expect("the served model is cataloged");
    let before = Kernels::read(&t);
    let span = observe::span("bench.page-probe");
    let page: Vec<f64> = (0..REPEATS)
        .map(|k| {
            let start = u64::from(page_rows) * k as u64;
            secs(|| registry.sample(model, 7, start, page_rows).expect("probe page samples")).1
        })
        .collect();
    let wall = span.stop().as_secs_f64();
    let kernels = Kernels::read(&t).since(before);
    let spans = crate::attrib::spans_of(hub, SCOPE);
    let sample = crate::attrib::path_time(&spans, "bench.page-probe/sample");
    let decode = crate::attrib::path_time(&spans, "bench.page-probe/decode");
    let _ = writeln!(
        report,
        "  registry sample {:.3} ms/page: sample phase {:.1}%, decode phase {:.1}%, rest {:.1}%; {}",
        median(&page) * 1e3,
        100.0 * sample / wall,
        100.0 * decode / wall,
        100.0 * (1.0 - (sample + decode) / wall),
        kernels.describe(wall * 1e9)
    );
    (shared, decode_us)
}

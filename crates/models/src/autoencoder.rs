//! Tabular autoencoder with per-feature distribution heads (§III-B, §IV-A).
//!
//! The encoder maps scaled numerics and one-hot categoricals to a
//! continuous latent. Batches reach it sparse (index+value, see
//! [`SparseBatch`]): its first layer is an [`EmbeddingGather`] that adds
//! up one weight row per categorical column instead of multiplying the
//! one-hot zeros. The decoder maps latents to *distribution parameters*:
//! a Gaussian head `(μ, log σ²)` per numeric feature and a softmax head
//! per categorical feature, trained with negative log-likelihood (paper
//! Eq. 4), exactly like the tabular VAE decoders the paper cites.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_checkpoint::{CheckpointError, Checkpointer};
use silofuse_diffusion::{TrainLoop, TrainState};
use silofuse_nn::init::Init;
use silofuse_nn::layers::{Activation, ActivationKind, EmbeddingGather, Layer, Linear, Sequential};
use silofuse_nn::loss::{gaussian_nll_at, grouped_softmax_cross_entropy_at};
use silofuse_nn::optim::Adam;
use silofuse_nn::serialize::{self, Reader, SavedParams, StateDictError};
use silofuse_nn::{workspace, Tensor};
use silofuse_tabular::encode::{
    CategoricalTargets, ColumnDecoder, NumericCodec, QuantileTransformer, ScalingKind, TableEncoder,
};
use silofuse_tabular::schema::{ColumnKind, ColumnMeta, Schema};
use silofuse_tabular::table::Table;
use silofuse_tabular::SparseBatch;
use std::convert::Infallible;

/// Autoencoder hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AutoencoderConfig {
    /// Hidden layer width for both encoder and decoder.
    pub hidden_dim: usize,
    /// Latent width. The paper sets this to the number of original
    /// (pre-one-hot) features; pass `None` to use that rule.
    pub latent_dim: Option<usize>,
    /// Adam learning rate.
    pub lr: f32,
    /// Initialisation / dropout seed.
    pub seed: u64,
}

impl Default for AutoencoderConfig {
    fn default() -> Self {
        Self { hidden_dim: 256, latent_dim: None, lr: 1e-3, seed: 0 }
    }
}

/// Decoder head layout for one table schema.
#[derive(Debug, Clone)]
struct HeadLayout {
    /// Numeric feature count (each uses two head slots: μ and log σ²).
    n_numeric: usize,
    /// Categorical group widths, schema order.
    cat_widths: Vec<usize>,
}

impl HeadLayout {
    fn width(&self) -> usize {
        2 * self.n_numeric + self.cat_widths.iter().sum::<usize>()
    }
}

/// A fitted tabular autoencoder bound to one table schema.
pub struct TabularAutoencoder {
    encoder: Sequential,
    decoder: Sequential,
    enc_opt: Adam,
    dec_opt: Adam,
    table_encoder: TableEncoder,
    /// Reusable sparse training batch, cleared and refilled in place each
    /// step, so steady-state training allocates nothing here.
    sparse: SparseBatch,
    heads: HeadLayout,
    latent_dim: usize,
    lr: f32,
}

impl std::fmt::Debug for TabularAutoencoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TabularAutoencoder(latent={})", self.latent_dim)
    }
}

/// Targets extracted from a batch for the NLL loss.
struct BatchTargets {
    numeric: Tensor,
    categorical: CategoricalTargets,
}

impl TabularAutoencoder {
    /// Builds an (untrained) autoencoder for `table`'s schema, fitting the
    /// feature scalers on `table`.
    pub fn new(table: &Table, config: AutoencoderConfig) -> Self {
        Self::from_encoder(TableEncoder::fit(table, ScalingKind::Standard), config)
    }

    /// Builds an (untrained) autoencoder around a fitted table encoder: the
    /// networks and initial weights [`Self::new`] builds on the table the
    /// encoder was fitted on.
    pub fn from_encoder(table_encoder: TableEncoder, config: AutoencoderConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let Ok(ae) = Self::build(table_encoder, config, |i, o| {
            Ok::<_, Infallible>(Init::XavierUniform.affine(i, o, &mut rng))
        });
        ae
    }

    /// Assembles the networks for `table_encoder`'s schema, each affine
    /// layer's `(weight, bias)` from `affine(fan_in, fan_out)` in layer
    /// order: encoder, then decoder.
    fn build<E>(
        table_encoder: TableEncoder,
        config: AutoencoderConfig,
        mut affine: impl FnMut(usize, usize) -> Result<(Tensor, Tensor), E>,
    ) -> Result<Self, E> {
        let schema = table_encoder.schema();
        let latent_dim = config.latent_dim.unwrap_or_else(|| schema.width().max(1));
        let heads = HeadLayout {
            n_numeric: schema.numeric_count(),
            cat_widths: table_encoder.categorical_group_widths(),
        };
        let h = config.hidden_dim;
        // Three affine layers per side, GELU activations (§V-A). The first
        // encoder layer is an EmbeddingGather over the one-hot layout: the
        // parameters and initialiser draws of a `Linear` on the one-hot
        // width, fed index+value batches.
        let (weight, bias) = affine(table_encoder.encoded_width(), h)?;
        let spec = crate::sparse::sparse_spec(schema);
        let mut linear = |fan_in, fan_out| -> Result<Linear, E> {
            let (weight, bias) = affine(fan_in, fan_out)?;
            Ok(Linear::from_parts(weight, bias))
        };
        let encoder = Sequential::new()
            .push(EmbeddingGather::from_parts(spec, weight, bias))
            .push(Activation::new(ActivationKind::Gelu))
            .push(linear(h, h)?)
            .push(Activation::new(ActivationKind::Gelu))
            .push(linear(h, latent_dim)?);
        let decoder = Sequential::new()
            .push(linear(latent_dim, h)?)
            .push(Activation::new(ActivationKind::Gelu))
            .push(linear(h, h)?)
            .push(Activation::new(ActivationKind::Gelu))
            .push(linear(h, heads.width())?);
        let sparse = table_encoder.sparse_batch();
        Ok(Self {
            encoder,
            decoder,
            enc_opt: Adam::new(config.lr),
            dec_opt: Adam::new(config.lr),
            table_encoder,
            sparse,
            heads,
            latent_dim,
            lr: config.lr,
        })
    }

    /// Appends what inference reads, for [`Self::read_fitted`]: the fitted
    /// table encoder (the schema, then each numeric column's scaling with
    /// its exact `f64` bits) and the encoder's and decoder's parameters as
    /// two state dicts. No optimizer state and no layer RNGs.
    pub fn write_fitted(&mut self, out: &mut Vec<u8>) {
        write_table_encoder(out, &self.table_encoder);
        serialize::write_state_dict(out, &mut self.encoder);
        serialize::write_state_dict(out, &mut self.decoder);
    }

    /// Reads what [`Self::write_fitted`] wrote and builds the autoencoder
    /// around it for `config`'s architecture, its networks straight from
    /// the saved tensors (no initialiser draws). Encodes and decodes the
    /// bytes of the model that wrote it.
    ///
    /// # Errors
    /// [`StateDictError`] when the bytes are malformed or do not fit
    /// `config`'s architecture.
    pub fn read_fitted(
        r: &mut Reader<'_>,
        config: AutoencoderConfig,
    ) -> Result<Self, StateDictError> {
        let table_encoder = read_table_encoder(r)?;
        let mut params = r.tensor_list()?;
        params.extend(r.tensor_list()?);
        let mut saved = SavedParams::new(params);
        let ae = Self::build(table_encoder, config, |i, o| saved.affine(i, o))?;
        saved.finish()?;
        Ok(ae)
    }

    /// True: batches are always encoded sparsely (index+value buffers).
    pub fn uses_sparse(&self) -> bool {
        true
    }

    /// Bytes held by the most recent training batch. Scales with
    /// nonzeros, not with the one-hot width.
    pub fn sparse_batch_bytes(&self) -> usize {
        self.sparse.batch_bytes()
    }

    /// Latent width `s_i`.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// The feature encoder fitted at construction.
    pub fn table_encoder(&self) -> &TableEncoder {
        &self.table_encoder
    }

    fn targets(&self, table: &Table) -> BatchTargets {
        // Numeric targets in *scaled* space so the Gaussian heads see
        // standardised values. `numeric_features` emits exactly the numeric
        // slots of the dense encoding (bitwise), without materialising the
        // one-hot blocks — on wide schemas the dense detour dominated this
        // path's allocation.
        let numeric = Tensor::from_vec(
            table.n_rows(),
            self.heads.n_numeric,
            self.table_encoder.numeric_features(table),
        );
        BatchTargets { numeric, categorical: self.table_encoder.categorical_targets(table) }
    }

    /// NLL loss (Eq. 4) and its gradient with respect to the head outputs.
    /// Both losses read their columns of `heads` in place (`μ`, then
    /// `log σ²`, then the logit groups) and write the same columns of one
    /// gradient tensor, which together they cover.
    fn loss_and_head_grad(&self, heads: &Tensor, targets: &BatchTargets) -> (f32, Tensor) {
        let n = self.heads.n_numeric;
        let mut grad = workspace::take(heads.rows(), heads.cols());
        let mut loss = 0.0f32;
        if n > 0 {
            loss += gaussian_nll_at(heads, 0, &targets.numeric, &mut grad);
        }
        if !self.heads.cat_widths.is_empty() {
            loss += grouped_softmax_cross_entropy_at(
                heads,
                2 * n,
                &self.heads.cat_widths,
                targets.categorical.as_slice(),
                &mut grad,
            );
        }
        (loss, grad)
    }

    /// Fills `batch` with `table`'s sparse encoding.
    fn encode_sparse(table_encoder: &TableEncoder, table: &Table, batch: &mut SparseBatch) {
        table_encoder
            .encode_sparse_into(table, batch)
            .expect("batch codes already validated against the fitted schema");
    }

    /// One optimisation step on a batch (rows of `table`); returns the loss.
    ///
    /// Every step temporary goes back to the workspace arena, so a warm
    /// step allocates no fresh tensor storage.
    pub fn train_step(&mut self, batch: &Table) -> f32 {
        self.zero_grad();
        let z = self.encoder_forward_train(batch);
        let (loss, grad_z) = self.decoder_loss_backward(&z, batch);
        workspace::recycle(z);
        self.encoder_backward(&grad_z);
        workspace::recycle(grad_z);
        self.opt_step();
        loss
    }

    /// Trains for `steps` minibatch steps of size `batch_size`.
    pub fn fit(&mut self, table: &Table, steps: usize, batch_size: usize, rng: &mut StdRng) -> f32 {
        let off = Checkpointer::disabled();
        self.fit_resumable(table, steps, batch_size, rng, &off, "", "", &mut |_| {})
            .expect("checkpointing disabled: no I/O or injected crash can fail")
    }

    /// Step-resumable training through the shared [`TrainLoop`]: it
    /// periodically checkpoints the full training state (weights, Adam
    /// moments, caller RNG) under `name`, and resumes from the latest
    /// checkpoint when `ckpt` has resume enabled. `on_step` sees the
    /// completed-step count after every step; it consumes no RNG draws, so
    /// callers use it for heartbeats keyed to the logical training clock.
    ///
    /// With checkpointing disabled this is bit-identical to
    /// [`TabularAutoencoder::fit`]: checkpoints never consume RNG draws.
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
        on_step: &mut dyn FnMut(u64),
    ) -> Result<f32, CheckpointError> {
        let run =
            TrainLoop { model: "autoencoder", lr: self.lr, steps, batch_size, ckpt, name, phase };
        run.run(
            self,
            table.n_rows(),
            rng,
            |ae, idx, _| ae.train_step(&table.select_rows(idx)),
            on_step,
        )
    }

    /// Encodes a table into latents `Z_i = E_i(X_i)` (inference pass). The
    /// sparse batch gives the bits a dense one-hot batch through a `Linear`
    /// would for finite weights — see the backend gather/scatter
    /// determinism docs.
    pub fn encode(&self, table: &Table) -> Tensor {
        let mut batch = self.table_encoder.sparse_batch();
        Self::encode_sparse(&self.table_encoder, table, &mut batch);
        self.encoder
            .try_infer_sparse(crate::sparse::batch_ref(&batch))
            .expect("the sparse encoder starts with an embedding gather")
    }

    /// Decodes latents back into a table: numeric = μ head, categorical =
    /// argmax over logits.
    ///
    /// The decoder runs over blocks of [`DECODE_BLOCK_ROWS`] rows, and each
    /// block's μ columns and logit blocks are decoded in place from its
    /// head output into columns allocated once for all rows. A call holds
    /// one block's `DECODE_BLOCK_ROWS × head` logits at a time, however
    /// many rows it decodes, and the table equals one whole-batch pass's.
    ///
    /// # Panics
    /// Panics if `latents` width differs from the latent dimension.
    pub fn decode(&self, latents: &Tensor) -> Table {
        assert_eq!(latents.cols(), self.latent_dim, "latent width mismatch");
        let out = self.table_encoder.column_decoder(self.head_offsets(), latents.rows());
        decode_in_blocks(&self.decoder, latents, out)
    }

    /// Where each schema column reads its head slots: a numeric column its
    /// μ (head column = its index among the numerics), a categorical
    /// column its logit block (from `2·n_numeric`, in schema order).
    fn head_offsets(&self) -> Vec<usize> {
        let (mut mu, mut logits) = (0, 2 * self.heads.n_numeric);
        let schema = self.table_encoder.schema();
        schema
            .columns()
            .iter()
            .map(|meta| {
                let next = match meta.kind {
                    ColumnKind::Numeric => &mut mu,
                    ColumnKind::Categorical { .. } => &mut logits,
                };
                let at = *next;
                *next += meta.kind.one_hot_width();
                at
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Raw forward/backward plumbing for the end-to-end baselines.
    // ------------------------------------------------------------------

    /// Encoder training pass (caches for backward). Refills the reusable
    /// sparse batch in place, so a warm step allocates nothing.
    pub fn encoder_forward_train(&mut self, table: &Table) -> Tensor {
        Self::encode_sparse(&self.table_encoder, table, &mut self.sparse);
        self.encoder.forward_sparse(crate::sparse::batch_ref(&self.sparse))
    }

    /// Decoder forward + NLL loss on `batch`, returning the loss and the
    /// gradient with respect to the latent input.
    pub fn decoder_loss_backward(&mut self, z: &Tensor, batch: &Table) -> (f32, Tensor) {
        let targets = self.targets(batch);
        let heads = self.decoder.forward(z);
        let (loss, grad_heads) = self.loss_and_head_grad(&heads, &targets);
        workspace::recycle(heads);
        let grad_z = self.decoder.backward(&grad_heads);
        workspace::recycle(grad_heads);
        (loss, grad_z)
    }

    /// Backpropagates a latent gradient through the encoder.
    pub fn encoder_backward(&mut self, grad_z: &Tensor) {
        workspace::recycle(self.encoder.backward(grad_z));
    }

    /// Zeroes both networks' gradients.
    pub fn zero_grad(&mut self) {
        self.encoder.zero_grad();
        self.decoder.zero_grad();
    }

    /// Applies one optimizer step to both networks.
    pub fn opt_step(&mut self) {
        self.dec_opt.step(&mut self.decoder);
        self.enc_opt.step(&mut self.encoder);
    }

    /// Exports encoder + decoder weights as a state dict
    /// (`u32 encoder-blob length | encoder blob | decoder blob`). Rebuild
    /// the architecture with [`TabularAutoencoder::new`] on the same schema
    /// and config, then [`TabularAutoencoder::import_weights`].
    pub fn export_weights(&mut self) -> Vec<u8> {
        let enc = serialize::export_state_dict(&mut self.encoder);
        crate::frame_pair(&enc, &serialize::export_state_dict(&mut self.decoder))
    }

    /// Restores weights exported by [`TabularAutoencoder::export_weights`].
    ///
    /// # Errors
    /// Returns the underlying [`StateDictError`](silofuse_nn::serialize::StateDictError)
    /// if the blob is malformed or the architectures differ.
    pub fn import_weights(&mut self, bytes: &[u8]) -> Result<(), StateDictError> {
        let (enc, dec) = crate::split_pair(bytes)?;
        serialize::import_state_dict(&mut self.encoder, enc)?;
        serialize::import_state_dict(&mut self.decoder, dec)
    }
}

/// Rows per network pass when a decoder head or a GAN generator turns
/// rows into a table: the serve page size. A decode holds one block's
/// network output at a time, so its memory follows the output width, not
/// the number of rows asked for.
pub const DECODE_BLOCK_ROWS: usize = 256;

/// Runs `net` over `input` in blocks of [`DECODE_BLOCK_ROWS`] rows and
/// decodes each block's output in place with `out`. Every layer of the
/// decoders and generators computes an output row from its input row
/// alone, so the table equals the decode of one whole-batch pass, byte for
/// byte.
pub(crate) fn decode_in_blocks(net: &Sequential, input: &Tensor, mut out: ColumnDecoder) -> Table {
    let (rows, cols) = input.shape();
    for start in (0..rows).step_by(DECODE_BLOCK_ROWS) {
        let end = (start + DECODE_BLOCK_ROWS).min(rows);
        let mut block = workspace::take(end - start, cols);
        block.as_mut_slice().copy_from_slice(&input.as_slice()[start * cols..end * cols]);
        let y = net.infer(&block);
        workspace::recycle(block);
        out.push_rows(y.as_slice(), y.cols()).expect("the offsets fit the network's output");
        workspace::recycle(y);
    }
    out.finish().expect("argmax codes lie inside their cardinality")
}

/// Appends a fitted table encoder: `u32 columns`, then per column its name
/// (`u32 len | utf-8`), its kind (`0` numeric, `1` categorical followed by
/// `u32 cardinality`) and its scaling (`0` none, `1` standard `mean std`,
/// `2` min-max `min max`, `3` quantile `u32 len | f64*`). Every `f64` keeps
/// its exact bits.
fn write_table_encoder(out: &mut Vec<u8>, encoder: &TableEncoder) {
    let columns = encoder.schema().columns();
    out.extend_from_slice(&(columns.len() as u32).to_le_bytes());
    for (meta, codec) in columns.iter().zip(encoder.numeric_codecs()) {
        serialize::write_str(out, &meta.name);
        match meta.kind {
            ColumnKind::Numeric => out.push(0),
            ColumnKind::Categorical { cardinality } => {
                out.push(1);
                out.extend_from_slice(&cardinality.to_le_bytes());
            }
        }
        let mut f64s = |tag: u8, values: &[f64]| {
            out.push(tag);
            values.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
        };
        match codec {
            None => f64s(0, &[]),
            Some(NumericCodec::Standard { mean, std }) => f64s(1, &[*mean, *std]),
            Some(NumericCodec::MinMax { min, max }) => f64s(2, &[*min, *max]),
            Some(NumericCodec::Quantile(q)) => {
                out.push(3);
                out.extend_from_slice(&(q.sorted().len() as u32).to_le_bytes());
                q.sorted().iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
            }
        }
    }
}

/// Reads what [`write_table_encoder`] wrote.
fn read_table_encoder(r: &mut Reader<'_>) -> Result<TableEncoder, StateDictError> {
    let n = r.u32()? as usize;
    // Every column takes at least its name length and two tags.
    if n > r.remaining() / 6 {
        return Err(StateDictError::Malformed);
    }
    let (mut columns, mut codecs) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let name = r.str()?;
        columns.push(match r.u8()? {
            0 => ColumnMeta::numeric(name),
            1 => match r.u32()? {
                0 => return Err(StateDictError::Malformed),
                cardinality => ColumnMeta::categorical(name, cardinality),
            },
            _ => return Err(StateDictError::Malformed),
        });
        codecs.push(match r.u8()? {
            0 => None,
            1 => Some(NumericCodec::Standard { mean: r.f64()?, std: r.f64()? }),
            2 => Some(NumericCodec::MinMax { min: r.f64()?, max: r.f64()? }),
            3 => {
                let len = r.u32()? as usize;
                let sorted = r.f64_vec(len)?;
                let q = QuantileTransformer::try_fit(&sorted).ok_or(StateDictError::Malformed)?;
                Some(NumericCodec::Quantile(q))
            }
            _ => return Err(StateDictError::Malformed),
        });
    }
    TableEncoder::from_parts(Schema::new(columns), codecs).map_err(|_| StateDictError::Malformed)
}

impl TrainState for TabularAutoencoder {
    /// Weights, layer RNGs and both Adam optimizers, framed like
    /// [`TabularAutoencoder::export_weights`]
    /// (`u32 encoder-section length | encoder section | decoder section`).
    fn export_train_state(&mut self) -> Vec<u8> {
        let enc = serialize::export_train_state(&mut self.encoder, &self.enc_opt);
        crate::frame_pair(&enc, &serialize::export_train_state(&mut self.decoder, &self.dec_opt))
    }

    fn import_train_state(&mut self, bytes: &[u8]) -> Result<(), StateDictError> {
        let (enc, dec) = crate::split_pair(bytes)?;
        serialize::import_train_state(&mut self.encoder, &mut self.enc_opt, enc)?;
        serialize::import_train_state(&mut self.decoder, &mut self.dec_opt, dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silofuse_tabular::profiles;

    fn toy_table(rows: usize) -> Table {
        profiles::loan().generate(rows, 3)
    }

    #[test]
    fn shapes_are_consistent() {
        let t = toy_table(64);
        let ae = TabularAutoencoder::new(&t, AutoencoderConfig::default());
        assert_eq!(ae.latent_dim(), t.schema().width());
        let z = ae.encode(&t);
        assert_eq!(z.shape(), (64, t.schema().width()));
        let decoded = ae.decode(&z);
        assert_eq!(decoded.n_rows(), 64);
        assert_eq!(decoded.schema(), t.schema());
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let t = toy_table(256);
        let mut ae = TabularAutoencoder::new(
            &t,
            AutoencoderConfig { hidden_dim: 128, lr: 2e-3, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(0);
        let first = ae.fit(&t, 5, 128, &mut rng);
        let last = ae.fit(&t, 300, 128, &mut rng);
        assert!(last < first, "loss did not fall: {first} -> {last}");
    }

    #[test]
    fn trained_autoencoder_reconstructs_categoricals() {
        let t = toy_table(256);
        let mut ae = TabularAutoencoder::new(
            &t,
            AutoencoderConfig { hidden_dim: 128, lr: 2e-3, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(1);
        ae.fit(&t, 600, 128, &mut rng);
        let z = ae.encode(&t);
        let rec = ae.decode(&z);
        // Categorical accuracy across all categorical columns.
        let mut correct = 0usize;
        let mut total = 0usize;
        for (orig, recon) in t.columns().iter().zip(rec.columns()) {
            if let (Some(a), Some(b)) = (orig.as_categorical(), recon.as_categorical()) {
                correct += a.iter().zip(b).filter(|(x, y)| x == y).count();
                total += a.len();
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.75, "categorical reconstruction accuracy {acc}");
    }

    #[test]
    fn trained_autoencoder_reconstructs_numerics() {
        let t = toy_table(256);
        let mut ae = TabularAutoencoder::new(
            &t,
            AutoencoderConfig { hidden_dim: 128, lr: 2e-3, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(2);
        ae.fit(&t, 600, 128, &mut rng);
        let z = ae.encode(&t);
        let rec = ae.decode(&z);
        // R^2-style check on the first numeric column.
        let idx = t.schema().numeric_indices()[0];
        let orig = t.column(idx).as_numeric().unwrap();
        let recon = rec.column(idx).as_numeric().unwrap();
        let mean = orig.iter().sum::<f64>() / orig.len() as f64;
        let ss_tot: f64 = orig.iter().map(|v| (v - mean) * (v - mean)).sum();
        let ss_res: f64 = orig.iter().zip(recon).map(|(a, b)| (a - b) * (a - b)).sum();
        let r2 = 1.0 - ss_res / ss_tot.max(1e-12);
        assert!(r2 > 0.5, "numeric reconstruction R2 {r2}");
    }

    #[test]
    fn e2e_plumbing_produces_finite_grads() {
        let t = toy_table(32);
        let mut ae = TabularAutoencoder::new(&t, AutoencoderConfig::default());
        ae.zero_grad();
        let z = ae.encoder_forward_train(&t);
        let (loss, grad_z) = ae.decoder_loss_backward(&z, &t);
        assert!(loss.is_finite());
        assert_eq!(grad_z.shape(), z.shape());
        assert!(grad_z.all_finite());
        ae.encoder_backward(&grad_z);
        ae.opt_step();
    }

    #[test]
    fn categorical_only_partition_works() {
        // A silo that owns only categorical columns (possible under
        // permuted partitioning) must still train.
        let t = toy_table(64);
        let cats = t.schema().categorical_indices();
        let part = t.project(&cats);
        let mut ae = TabularAutoencoder::new(&part, AutoencoderConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let loss = ae.fit(&part, 10, 32, &mut rng);
        assert!(loss.is_finite());
        let zp = ae.encode(&part);
        let rec = ae.decode(&zp);
        assert_eq!(rec.schema(), part.schema());
    }

    #[test]
    fn weight_export_import_round_trips_latents() {
        let t = toy_table(64);
        let cfg = AutoencoderConfig::default();
        let mut trained = TabularAutoencoder::new(&t, cfg);
        let mut rng = StdRng::seed_from_u64(8);
        trained.fit(&t, 50, 32, &mut rng);
        let z_before = trained.encode(&t);
        let blob = trained.export_weights();

        let mut fresh = TabularAutoencoder::new(&t, AutoencoderConfig { seed: 999, ..cfg });
        assert_ne!(fresh.encode(&t), z_before);
        fresh.import_weights(&blob).unwrap();
        assert_eq!(fresh.encode(&t), z_before);
    }

    #[test]
    fn train_state_round_trips_into_fresh_model() {
        let t = toy_table(96);
        let cfg = AutoencoderConfig { hidden_dim: 64, ..Default::default() };
        let mut trained = TabularAutoencoder::new(&t, cfg);
        let mut rng = StdRng::seed_from_u64(5);
        trained.fit(&t, 30, 32, &mut rng);
        let blob = trained.export_train_state();

        let mut fresh = TabularAutoencoder::new(&t, AutoencoderConfig { seed: 777, ..cfg });
        fresh.import_train_state(&blob).unwrap();
        // Both copies must continue training bit-identically: same Adam
        // moments, same step counters, same weights.
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        trained.fit(&t, 10, 32, &mut rng_a);
        fresh.fit(&t, 10, 32, &mut rng_b);
        assert_eq!(trained.export_weights(), fresh.export_weights());
        // Truncated/garbage blobs must be rejected, not panic.
        assert!(fresh.import_train_state(&blob[..blob.len() / 2]).is_err());
        assert!(fresh.import_train_state(&[1, 2, 3]).is_err());
    }

    #[test]
    fn fit_crash_and_resume_is_bit_identical() {
        use silofuse_checkpoint::CrashPoint;
        let t = toy_table(128);
        let cfg = AutoencoderConfig { hidden_dim: 64, ..Default::default() };

        // Uninterrupted baseline.
        let mut clean = TabularAutoencoder::new(&t, cfg);
        let mut rng_clean = StdRng::seed_from_u64(11);
        clean.fit(&t, 40, 32, &mut rng_clean);
        let z_clean = clean.encode(&t);

        // Crash at step 23 (checkpoint cadence 7 → last save at step 21).
        let dir = std::env::temp_dir().join(format!("silofuse-ae-crash-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ckpt =
            Checkpointer::new(&dir, 7).with_crash(Some(CrashPoint::parse("ae-train:23").unwrap()));
        let mut crashed = TabularAutoencoder::new(&t, cfg);
        let mut rng = StdRng::seed_from_u64(11);
        let err = crashed.fit_resumable(&t, 40, 32, &mut rng, &ckpt, "ae", "ae-train", &mut |_| {});
        assert!(matches!(err, Err(CheckpointError::Crashed { .. })));
        drop(crashed); // the "process" died

        // Restart: fresh model, wrong RNG seed; everything comes from disk.
        let resume = Checkpointer::new(&dir, 7).with_resume(true);
        let mut revived = TabularAutoencoder::new(&t, cfg);
        let mut rng2 = StdRng::seed_from_u64(999);
        revived
            .fit_resumable(&t, 40, 32, &mut rng2, &resume, "ae", "ae-train", &mut |_| {})
            .unwrap();
        assert_eq!(revived.encode(&t), z_clean);
        assert_eq!(rng2.state(), rng_clean.state());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What inference reads round-trips under every numeric scaling: the
    /// read-back autoencoder encodes and decodes the same bytes, and
    /// writes the same bytes again, so every codec `f64` kept its bits.
    #[test]
    fn fitted_state_round_trips_under_every_scaling() {
        let t = toy_table(96);
        let cfg = AutoencoderConfig { hidden_dim: 32, ..Default::default() };
        for scaling in [ScalingKind::Standard, ScalingKind::MinMax, ScalingKind::QuantileGaussian] {
            let mut ae = TabularAutoencoder::from_encoder(TableEncoder::fit(&t, scaling), cfg);
            ae.fit(&t, 6, 32, &mut StdRng::seed_from_u64(2));
            let mut bytes = Vec::new();
            ae.write_fitted(&mut bytes);
            let mut r = Reader::new(&bytes);
            let mut loaded = TabularAutoencoder::read_fitted(&mut r, cfg).unwrap();
            r.finish().unwrap();
            let mut again = Vec::new();
            loaded.write_fitted(&mut again);
            assert_eq!(again, bytes, "{scaling:?}");
            assert_eq!(loaded.encode(&t), ae.encode(&t), "{scaling:?}");
            let latents =
                silofuse_nn::init::randn(300, ae.latent_dim(), &mut StdRng::seed_from_u64(3));
            let ctx = format!("{scaling:?}");
            crate::assert_same_bytes(&loaded.decode(&latents), &ae.decode(&latents), &ctx);
            for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
                let err = TabularAutoencoder::read_fitted(&mut Reader::new(&bytes[..cut]), cfg);
                assert!(err.is_err(), "{scaling:?}: cut at {cut}");
            }
            let narrower = AutoencoderConfig { hidden_dim: 16, ..cfg };
            assert!(TabularAutoencoder::read_fitted(&mut Reader::new(&bytes), narrower).is_err());
        }
    }

    #[test]
    fn weight_import_rejects_wrong_architecture() {
        let t = toy_table(32);
        let mut a = TabularAutoencoder::new(&t, AutoencoderConfig::default());
        let blob = a.export_weights();
        let mut b =
            TabularAutoencoder::new(&t, AutoencoderConfig { hidden_dim: 64, ..Default::default() });
        assert!(b.import_weights(&blob).is_err());
    }

    #[test]
    fn numeric_only_partition_works() {
        let t = toy_table(64);
        let nums = t.schema().numeric_indices();
        let part = t.project(&nums);
        let mut ae = TabularAutoencoder::new(&part, AutoencoderConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let loss = ae.fit(&part, 10, 32, &mut rng);
        assert!(loss.is_finite());
    }

    /// The decode before blocking: one decoder pass over every row,
    /// re-packed into the encoder's one-hot layout (μ in a numeric slot,
    /// logits in a categorical block) and decoded by `TableEncoder::decode`.
    fn whole_batch_decode(ae: &TabularAutoencoder, latents: &Tensor) -> Table {
        let heads = ae.decoder.infer(latents);
        let logits_at = 2 * ae.heads.n_numeric;
        let width = ae.table_encoder.encoded_width();
        let mut data = vec![0.0f32; heads.rows() * width];
        for (r, row) in data.chunks_exact_mut(width).enumerate() {
            let (mut slot, mut num_idx, mut cat_slot) = (0, 0, 0);
            for meta in ae.table_encoder.schema().columns() {
                match meta.kind {
                    ColumnKind::Numeric => {
                        row[slot] = heads.row(r)[num_idx];
                        num_idx += 1;
                        slot += 1;
                    }
                    ColumnKind::Categorical { cardinality } => {
                        let (k, at) = (cardinality as usize, logits_at + cat_slot);
                        row[slot..slot + k].copy_from_slice(&heads.row(r)[at..at + k]);
                        cat_slot += k;
                        slot += k;
                    }
                }
            }
        }
        ae.table_encoder.decode(&data).unwrap()
    }

    /// The blocked decode writes the bytes of the whole-batch oracle at
    /// every block boundary, on Churn's sparse silo head (its 2 932-way
    /// column and two more logit groups) and on Loan's mixed numeric and
    /// categorical head.
    #[test]
    fn blocked_decode_equals_the_whole_batch_oracle() {
        use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
        let churn = profiles::churn().generate(96, 5);
        let plan = PartitionPlan::new(churn.n_cols(), 4, PartitionStrategy::Default);
        let silo0 = plan.split(&churn).swap_remove(0);
        for (name, table) in [("churn silo 0", silo0), ("loan", toy_table(96))] {
            let cfg = AutoencoderConfig { hidden_dim: 48, ..Default::default() };
            let mut ae = TabularAutoencoder::new(&table, cfg);
            let mut rng = StdRng::seed_from_u64(31);
            ae.fit(&table, 4, 32, &mut rng);
            match name {
                "loan" => assert!(ae.heads.n_numeric > 0 && !ae.heads.cat_widths.is_empty()),
                _ => assert!(ae.heads.width() > 2_900, "{}", ae.heads.width()),
            }
            for rows in [0, 1, 255, 256, 257, 785] {
                let latents = silofuse_nn::init::randn(rows, ae.latent_dim(), &mut rng);
                let ctx = format!("{name}, {rows} rows");
                let oracle = whole_batch_decode(&ae, &latents);
                crate::assert_same_bytes(&ae.decode(&latents), &oracle, &ctx);
            }
        }
    }

    /// After warm-up an AE training step takes every buffer from the
    /// workspace arena and refills its sparse batch in place.
    #[test]
    fn warm_train_step_allocates_nothing() {
        let t = toy_table(96);
        let batch = t.select_rows(&(0..32).collect::<Vec<_>>());
        let mut ae =
            TabularAutoencoder::new(&t, AutoencoderConfig { hidden_dim: 32, ..Default::default() });
        for step in 0..8 {
            if step == 4 {
                silofuse_nn::workspace::reset_counters();
            }
            ae.train_step(&batch);
        }
        assert_eq!(silofuse_nn::workspace::misses(), 0, "a warm step allocated");
        let schema = t.schema();
        let per_row = 4 * (schema.numeric_count() + schema.categorical_count());
        assert_eq!(ae.sparse_batch_bytes(), 32 * per_row);
    }
}

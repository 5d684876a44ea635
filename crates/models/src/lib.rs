//! # silofuse-models
//!
//! The centralized tabular synthesizers of the SiloFuse evaluation:
//!
//! * [`autoencoder::TabularAutoencoder`] — encoder/decoder with Gaussian and
//!   multinomial distribution heads (paper §III-B, Eq. 4);
//! * [`tabddpm::TabDdpm`] — the TabDDPM baseline (Gaussian + multinomial
//!   diffusion on one-hot data, Eq. 3);
//! * [`latentdiff::LatentDiff`] — centralized latent diffusion with stacked
//!   training (SiloFuse's single-silo upper bound);
//! * [`e2e::E2eCentralized`] — the jointly-trained end-to-end baseline (Fig. 8);
//! * [`gan::TabularGan`] — GAN(linear)/GAN(conv) baselines (§V-A);
//!
//! all unified behind [`synthesizer::Synthesizer`]. The autoencoder,
//! TabDDPM and the GANs implement [`silofuse_diffusion::TrainState`] and
//! train through [`silofuse_diffusion::TrainLoop`], the workspace's one
//! resumable minibatch loop; so do both phases of LatentDiff. Only the
//! jointly-trained E2E model keeps a loop of its own.

#![warn(missing_docs)]

pub mod autoencoder;
pub mod e2e;
pub mod gan;
pub mod latentdiff;
pub(crate) mod sparse;
pub mod synthesizer;
pub mod tabddpm;

pub use autoencoder::{AutoencoderConfig, TabularAutoencoder, DECODE_BLOCK_ROWS};
pub use e2e::E2eCentralized;
pub use gan::{GanArchitecture, GanConfig, TabularGan};
pub use latentdiff::{LatentDiff, LatentDiffConfig, LatentScaler};
pub use synthesizer::Synthesizer;
pub use tabddpm::{TabDdpm, TabDdpmConfig};

/// Asserts that two tables hold the same bytes: equal schemas, equal
/// category codes, and numerics equal bit for bit.
#[cfg(test)]
pub(crate) fn assert_same_bytes(
    a: &silofuse_tabular::Table,
    b: &silofuse_tabular::Table,
    ctx: &str,
) {
    use silofuse_tabular::Column;
    assert_eq!(a.schema(), b.schema(), "{ctx}: schema");
    assert_eq!(a.n_rows(), b.n_rows(), "{ctx}: rows");
    for (c, (x, y)) in a.columns().iter().zip(b.columns()).enumerate() {
        match (x, y) {
            (Column::Numeric(x), Column::Numeric(y)) => {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(y), "{ctx}: numeric column {c}");
            }
            _ => assert_eq!(x, y, "{ctx}: column {c}"),
        }
    }
}

//! Empirical companion to Theorem 1 (latent irreversibility).
//!
//! The theorem states the coordinator cannot reconstruct real samples from
//! latents alone: without the privately-held decoder, the encoding function
//! is unknown and the pre-image is unidentifiable. This module provides the
//! harness the `theorem1` experiment binary uses to demonstrate the result
//! empirically: a coordinator-side attacker with *only* the latents cannot
//! beat even a generously-informed blind baseline, while the legitimate
//! decoder reconstructs accurately.

use silofuse_models::TabularAutoencoder;
use silofuse_nn::Tensor;
use silofuse_tabular::table::{Column, Table};

/// Root-mean-square error between two tables' numeric columns, after
/// per-column standardisation by the reference table's std (so columns are
/// comparable). Categorical columns contribute their misclassification rate.
pub fn reconstruction_error(reference: &Table, candidate: &Table) -> f64 {
    assert_eq!(reference.schema(), candidate.schema(), "schema mismatch");
    assert_eq!(reference.n_rows(), candidate.n_rows(), "row count mismatch");
    let mut total = 0.0f64;
    let mut count = 0usize;
    for (a, b) in reference.columns().iter().zip(candidate.columns()) {
        match (a, b) {
            (Column::Numeric(x), Column::Numeric(y)) => {
                let mean = x.iter().sum::<f64>() / x.len().max(1) as f64;
                let std = (x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                    / x.len().max(1) as f64)
                    .sqrt()
                    .max(1e-9);
                let mse = x
                    .iter()
                    .zip(y)
                    .map(|(u, v)| {
                        let d = (u - v) / std;
                        d * d
                    })
                    .sum::<f64>()
                    / x.len().max(1) as f64;
                total += mse;
                count += 1;
            }
            (Column::Categorical(x), Column::Categorical(y)) => {
                let err =
                    x.iter().zip(y).filter(|(u, v)| u != v).count() as f64 / x.len().max(1) as f64;
                total += err;
                count += 1;
            }
            _ => unreachable!("schemas matched"),
        }
    }
    (total / count.max(1) as f64).sqrt()
}

/// The legitimate reconstruction: encode with the client's encoder, decode
/// with its (private) decoder.
pub fn decoder_reconstruction(ae: &mut TabularAutoencoder, table: &Table) -> Table {
    let z = ae.encode(table);
    ae.decode(&z)
}

/// A *generously informed* blind attacker at the coordinator: it has the
/// latents but no decoder, so the best schema-valid strategy available is a
/// constant guess. We grant it the hindsight-optimal constants (true column
/// means / modes — more than a real attacker could know), which bounds every
/// decoder-less attack that cannot invert the unknown encoder.
pub fn blind_attacker_reconstruction(table: &Table) -> Table {
    let columns = table
        .columns()
        .iter()
        .map(|col| match col {
            Column::Numeric(v) => {
                let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
                Column::Numeric(vec![mean; v.len()])
            }
            Column::Categorical(codes) => {
                let mut counts = std::collections::HashMap::new();
                for &c in codes {
                    *counts.entry(c).or_insert(0usize) += 1;
                }
                let mode = counts.into_iter().max_by_key(|&(_, n)| n).map(|(c, _)| c).unwrap_or(0);
                Column::Categorical(vec![mode; codes.len()])
            }
        })
        .collect();
    Table::new(table.schema().clone(), columns).expect("same schema")
}

/// A decoder-less attacker that at least *uses* the latents: it guesses
/// features by copying the nearest latent neighbour's features — but since
/// it has no (latent, feature) pairs, the best it can do is pair latents
/// with *its own* guesses, which collapses to the blind baseline. To give
/// the attack real teeth for the experiment, this variant assumes the
/// attacker somehow obtained `leaked_fraction` of the true (latent, row)
/// pairs and nearest-neighbour matches the rest — quantifying how privacy
/// erodes as auxiliary knowledge grows.
pub fn knn_attacker_reconstruction(latents: &Tensor, table: &Table, leaked_rows: usize) -> Table {
    let n = table.n_rows();
    let leaked = leaked_rows.min(n);
    if leaked == 0 {
        return blind_attacker_reconstruction(table);
    }
    // Attacker knows rows [0, leaked) exactly; reconstructs the rest by
    // nearest neighbour in latent space among the leaked rows.
    let mut source_row = vec![0usize; n];
    for (r, src) in source_row.iter_mut().enumerate().take(leaked) {
        *src = r;
    }
    for (r, src) in source_row.iter_mut().enumerate().skip(leaked) {
        let query = latents.row(r);
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for cand in 0..leaked {
            let d: f64 = latents
                .row(cand)
                .iter()
                .zip(query)
                .map(|(&a, &b)| f64::from(a - b) * f64::from(a - b))
                .sum();
            if d < best_d {
                best_d = d;
                best = cand;
            }
        }
        *src = best;
    }
    let columns = table
        .columns()
        .iter()
        .map(|col| match col {
            Column::Numeric(v) => Column::Numeric(source_row.iter().map(|&s| v[s]).collect()),
            Column::Categorical(codes) => {
                Column::Categorical(source_row.iter().map(|&s| codes[s]).collect())
            }
        })
        .collect();
    Table::new(table.schema().clone(), columns).expect("same schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use silofuse_models::AutoencoderConfig;
    use silofuse_tabular::profiles;

    #[test]
    fn trained_decoder_beats_blind_attacker() {
        let t = profiles::loan().generate(256, 0);
        let mut ae = TabularAutoencoder::new(
            &t,
            AutoencoderConfig { hidden_dim: 128, lr: 2e-3, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(0);
        ae.fit(&t, 500, 128, &mut rng);

        let decoded = decoder_reconstruction(&mut ae, &t);
        let blind = blind_attacker_reconstruction(&t);
        let err_decoder = reconstruction_error(&t, &decoded);
        let err_blind = reconstruction_error(&t, &blind);
        assert!(
            err_decoder < err_blind * 0.8,
            "decoder {err_decoder} should beat blind attacker {err_blind}"
        );
    }

    #[test]
    fn zero_leak_knn_equals_blind() {
        let t = profiles::diabetes().generate(64, 1);
        let ae = TabularAutoencoder::new(&t, AutoencoderConfig::default());
        let z = ae.encode(&t);
        let knn = knn_attacker_reconstruction(&z, &t, 0);
        let blind = blind_attacker_reconstruction(&t);
        assert_eq!(knn, blind);
    }

    #[test]
    fn perfect_reconstruction_has_zero_error() {
        let t = profiles::diabetes().generate(32, 2);
        assert_eq!(reconstruction_error(&t, &t), 0.0);
    }

    #[test]
    fn leaking_more_rows_helps_the_attacker() {
        let t = profiles::loan().generate(256, 3);
        let mut ae = TabularAutoencoder::new(
            &t,
            AutoencoderConfig { hidden_dim: 128, lr: 2e-3, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(3);
        ae.fit(&t, 400, 128, &mut rng);
        let z = ae.encode(&t);
        let weak = reconstruction_error(&t, &knn_attacker_reconstruction(&z, &t, 8));
        let strong = reconstruction_error(&t, &knn_attacker_reconstruction(&z, &t, 128));
        assert!(strong < weak, "more leaked rows must reduce error: {weak} -> {strong}");
    }
}

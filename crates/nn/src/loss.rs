//! Loss functions.
//!
//! Every loss returns `(scalar_loss, grad_wrt_prediction)` where the gradient
//! is already averaged over the batch, so `Layer::backward(grad)` followed by
//! an optimizer step performs a correct mean-loss update. The `_at` forms of
//! the two decoder losses instead read their columns of a wider head matrix
//! in place, write the same columns of the caller's gradient tensor and
//! return the loss alone.

use crate::backend::{self, Backend};
use crate::tensor::Tensor;
use crate::workspace;

/// Mean squared error `mean((pred - target)^2)` — Eq. (2)/(5) of the paper.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len() as f32;
    // The difference buffer doubles as the gradient: scale it in place
    // after the loss is read off, instead of materialising both.
    let mut grad = pred.sub(target);
    let loss = grad.norm_sq() / n;
    grad.scale_assign(2.0 / n);
    (loss, grad)
}

/// Binary cross entropy with logits (numerically stable); `target` in {0,1}.
pub fn bce_with_logits(logits: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(logits.shape(), target.shape(), "bce shape mismatch");
    let n = logits.len() as f32;
    let mut loss = 0.0f32;
    let mut grad = workspace::take(logits.rows(), logits.cols());
    for i in 0..logits.len() {
        let x = logits.as_slice()[i];
        let t = target.as_slice()[i];
        // log(1 + e^-|x|) + max(x, 0) - x*t
        loss += x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
        let sigmoid = 1.0 / (1.0 + (-x).exp());
        grad.as_mut_slice()[i] = (sigmoid - t) / n;
    }
    (loss / n, grad)
}

/// Softmax cross entropy over row-wise logit groups.
///
/// `groups` gives the width of each categorical feature's logit block inside
/// a row; `targets` is a single **column-major** buffer of class indices —
/// `targets[g * rows + r]` is the class for feature `g` of row `r` (the
/// layout `silofuse_tabular`'s `CategoricalTargets::as_slice` produces).
/// The loss is averaged over rows and features; the returned gradient has the
/// same shape as `logits`.
pub fn grouped_softmax_cross_entropy(
    logits: &Tensor,
    groups: &[usize],
    targets: &[u32],
) -> (f32, Tensor) {
    let total: usize = groups.iter().sum();
    assert_eq!(logits.cols(), total, "logit width must equal sum of group widths");
    let mut grad = workspace::take(logits.rows(), logits.cols());
    let loss = grouped_softmax_cross_entropy_at(logits, 0, groups, targets, &mut grad);
    (loss, grad)
}

/// [`grouped_softmax_cross_entropy`] over the logit blocks that start at
/// column `offset` of `heads`, read in place: writes the gradient into the
/// same columns of `grad` (shaped like `heads`; its other columns are left
/// alone) and returns the loss. Runs the backend's counted
/// [`Backend::cross_entropy`](crate::backend::Backend::cross_entropy)
/// kernel.
///
/// # Panics
/// Panics if the groups overrun `heads`, `grad` is shaped differently, or
/// `targets` does not hold one class per (row, group).
pub fn grouped_softmax_cross_entropy_at(
    heads: &Tensor,
    offset: usize,
    groups: &[usize],
    targets: &[u32],
    grad: &mut Tensor,
) -> f32 {
    let total: usize = groups.iter().sum();
    assert!(offset + total <= heads.cols(), "logit groups overrun the head columns");
    assert_eq!(heads.shape(), grad.shape(), "gradient shape must match the heads");
    let rows = heads.rows();
    assert_eq!(targets.len(), rows * groups.len(), "one target per (row, group)");
    backend::timed(backend::CROSS_ENTROPY_COUNTERS, || {
        backend::get().cross_entropy(
            rows,
            heads.cols(),
            offset,
            heads.as_slice(),
            groups,
            targets,
            grad.as_mut_slice(),
        )
    })
}

/// Symmetric clamp applied to the predicted log-variance in
/// [`gaussian_nll`], in both the loss and its gradient. Without it,
/// `exp(-log_var)` overflows to `inf` (and the gradients to NaN) for the
/// strongly negative predictions an untrained variance head emits early
/// in training.
pub const GAUSSIAN_NLL_LOG_VAR_CLAMP: f32 = 10.0;

/// Gaussian negative log-likelihood with a learned diagonal variance.
///
/// `mu` and `log_var` are the decoder head outputs; `target` the observed
/// values. Per element: `0.5 * (lv + (x - mu)^2 / exp(lv))` with
/// `lv = clamp(log_var, ±`[`GAUSSIAN_NLL_LOG_VAR_CLAMP`]`)` (the `log 2π`
/// constant is dropped). Returns `(loss, grad_mu, grad_log_var)`.
///
/// The clamp is applied *symmetrically in loss and gradient*: where the
/// prediction saturates the clamp, the loss no longer depends on
/// `log_var`, so `grad_log_var` is exactly `0` there — consistent with
/// finite differences of the clamped loss, instead of reporting a
/// gradient for a direction the loss cannot move in.
pub fn gaussian_nll(mu: &Tensor, log_var: &Tensor, target: &Tensor) -> (f32, Tensor, Tensor) {
    assert_eq!(mu.shape(), target.shape(), "gaussian_nll shape mismatch");
    assert_eq!(mu.shape(), log_var.shape(), "gaussian_nll shape mismatch");
    let heads = Tensor::concat_cols(&[mu, log_var]);
    let mut grad = workspace::take(heads.rows(), heads.cols());
    let loss = gaussian_nll_at(&heads, 0, target, &mut grad);
    let mut parts = grad.split_cols(&[mu.cols(), mu.cols()]).into_iter();
    workspace::recycle(heads);
    workspace::recycle(grad);
    (loss, parts.next().expect("two parts"), parts.next().expect("two parts"))
}

/// [`gaussian_nll`] over heads read in place: `μ` in the `n = target.cols()`
/// columns of `heads` from `offset`, `log σ²` in the `n` after them. Writes
/// both gradients into the same columns of `grad` (shaped like `heads`; its
/// other columns are left alone) and returns the loss. Runs the backend's
/// counted [`Backend::gaussian_nll`](crate::backend::Backend::gaussian_nll)
/// kernel.
///
/// # Panics
/// Panics if the `2n` columns overrun `heads`, or `grad` or `target` is
/// shaped differently.
pub fn gaussian_nll_at(heads: &Tensor, offset: usize, target: &Tensor, grad: &mut Tensor) -> f32 {
    let n = target.cols();
    assert!(offset + 2 * n <= heads.cols(), "Gaussian heads overrun the head columns");
    assert_eq!(heads.rows(), target.rows(), "gaussian_nll row count mismatch");
    assert_eq!(heads.shape(), grad.shape(), "gradient shape must match the heads");
    backend::timed(backend::GAUSSIAN_NLL_COUNTERS, || {
        backend::get().gaussian_nll(
            heads.rows(),
            n,
            heads.cols(),
            offset,
            heads.as_slice(),
            target.as_slice(),
            grad.as_mut_slice(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_at_target() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let (l, g) = mse(&a, &a);
        assert_eq!(l, 0.0);
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_known_value_and_grad() {
        let p = Tensor::from_vec(1, 2, vec![1.0, 3.0]);
        let t = Tensor::from_vec(1, 2, vec![0.0, 0.0]);
        let (l, g) = mse(&p, &t);
        assert!((l - 5.0).abs() < 1e-6);
        assert_eq!(g.as_slice(), &[1.0, 3.0]); // 2*(p-t)/2
    }

    #[test]
    fn bce_matches_manual() {
        let logits = Tensor::from_vec(1, 2, vec![0.0, 0.0]);
        let target = Tensor::from_vec(1, 2, vec![1.0, 0.0]);
        let (l, g) = bce_with_logits(&logits, &target);
        // -log(0.5) for both entries.
        assert!((l - std::f32::consts::LN_2).abs() < 1e-3);
        assert!((g.as_slice()[0] + 0.25).abs() < 1e-6);
        assert!((g.as_slice()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn bce_is_stable_for_large_logits() {
        let logits = Tensor::from_vec(1, 2, vec![100.0, -100.0]);
        let target = Tensor::from_vec(1, 2, vec![1.0, 0.0]);
        let (l, g) = bce_with_logits(&logits, &target);
        assert!(l.is_finite() && l < 1e-3);
        assert!(g.all_finite());
    }

    #[test]
    fn grouped_ce_perfect_prediction_has_low_loss() {
        // Two features with 2 and 3 classes.
        let logits = Tensor::from_vec(1, 5, vec![10.0, -10.0, -10.0, 10.0, -10.0]);
        let targets = [0u32, 1u32];
        let (l, _) = grouped_softmax_cross_entropy(&logits, &[2, 3], &targets);
        assert!(l < 1e-3, "loss {l}");
    }

    #[test]
    fn grouped_ce_grad_sums_to_zero_per_group() {
        let logits =
            Tensor::from_vec(2, 5, vec![0.3, -0.2, 0.1, 0.9, -0.5, 1.0, 2.0, -1.0, 0.0, 0.5]);
        // Row targets (1, 2) and (0, 0), column-major: group 0 then group 1.
        let targets = [1u32, 0, 2, 0];
        let (_, g) = grouped_softmax_cross_entropy(&logits, &[2, 3], &targets);
        for r in 0..2 {
            let row = g.row(r);
            assert!((row[0] + row[1]).abs() < 1e-6);
            assert!((row[2] + row[3] + row[4]).abs() < 1e-6);
        }
    }

    #[test]
    fn grouped_ce_finite_difference() {
        let logits = Tensor::from_vec(1, 4, vec![0.2, -0.3, 0.5, 0.1]);
        let targets = [1u32, 0u32];
        let groups = [2, 2];
        let (_, g) = grouped_softmax_cross_entropy(&logits, &groups, &targets);
        let eps = 1e-3;
        for i in 0..4 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let (fp, _) = grouped_softmax_cross_entropy(&lp, &groups, &targets);
            let (fm, _) = grouped_softmax_cross_entropy(&lm, &groups, &targets);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - g.as_slice()[i]).abs() < 1e-3,
                "grad mismatch at {i}: {numeric} vs {}",
                g.as_slice()[i]
            );
        }
    }

    /// The two-pass formula for grouped cross-entropy, which evaluated
    /// every `exp` twice, summing the loss terms serially: `(loss, grad)`.
    fn two_pass_ce(logits: &Tensor, groups: &[usize], targets: &[u32]) -> (f32, Vec<f32>) {
        let (rows, total) = logits.shape();
        let denom = (rows * groups.len()) as f32;
        let mut want_loss = 0.0f32;
        let mut want_grad = vec![0.0f32; rows * total];
        for r in 0..rows {
            let row = logits.row(r);
            let mut offset = 0;
            for (g, &width) in groups.iter().enumerate() {
                let block = &row[offset..offset + width];
                let target = targets[g * rows + r] as usize;
                let max = block.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0f32;
                for &v in block {
                    sum += (v - max).exp();
                }
                want_loss += sum.ln() + max - block[target];
                for (k, &v) in block.iter().enumerate() {
                    let p = (v - max).exp() / sum;
                    want_grad[r * total + offset + k] =
                        (p - if k == target { 1.0 } else { 0.0 }) / denom;
                }
                offset += width;
            }
        }
        (want_loss / denom, want_grad)
    }

    /// Churn's silo-0 head (groups 2932, 7 and 7) on `rows` rows, with one
    /// target per (row, group).
    fn churn_head(rows: usize) -> (Tensor, [usize; 3], Vec<u32>) {
        let groups = [2932, 7, 7];
        let total: usize = groups.iter().sum();
        let logits = Tensor::from_fn(rows, total, |r, c| {
            ((r * 7919 + c * 104_729) % 2003) as f32 / 97.0 - 10.0
        });
        let targets: Vec<u32> =
            (0..rows * groups.len()).map(|i| ((i * 131) % groups[i / rows]) as u32).collect();
        (logits, groups, targets)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Loss and gradient bits equal the two-pass formula, which evaluated
    /// every `exp` twice, on Churn's silo-0 head (groups 2932, 7 and 7).
    #[test]
    fn grouped_ce_matches_the_two_pass_formula_bitwise() {
        let (logits, groups, targets) = churn_head(5);
        let (want_loss, want_grad) = two_pass_ce(&logits, &groups, &targets);
        let (loss, grad) = grouped_softmax_cross_entropy(&logits, &groups, &targets);
        assert_eq!(loss.to_bits(), want_loss.to_bits());
        assert_eq!(bits(grad.as_slice()), bits(&want_grad));
    }

    /// On a full 192-row Churn batch the loss fans out over row blocks,
    /// and its bits still equal the serial sum of the terms, at every
    /// worker count; so do the gradient's.
    #[test]
    fn fanned_out_ce_equals_the_serial_sum_at_churn_groups() {
        use crate::backend::Parallel;
        let (logits, groups, targets) = churn_head(192);
        let (rows, total) = logits.shape();
        let (want_loss, want_grad) = two_pass_ce(&logits, &groups, &targets);
        for threads in [1, 2, 4, 7] {
            let mut grad = vec![f32::NAN; rows * total];
            let loss = Parallel::new(threads).cross_entropy(
                rows,
                total,
                0,
                logits.as_slice(),
                &groups,
                &targets,
                &mut grad,
            );
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "loss at {threads} workers");
            assert_eq!(bits(&grad), bits(&want_grad), "grad at {threads} workers");
        }
    }

    #[test]
    fn gaussian_nll_minimised_at_target_mean() {
        let target = Tensor::from_vec(1, 1, vec![2.0]);
        let lv = Tensor::zeros(1, 1);
        let (l_at, g_mu, _) = gaussian_nll(&target.clone(), &lv, &target);
        let off = Tensor::from_vec(1, 1, vec![3.0]);
        let (l_off, _, _) = gaussian_nll(&off, &lv, &target);
        assert!(l_at < l_off);
        assert_eq!(g_mu.as_slice()[0], 0.0);
    }

    #[test]
    fn gaussian_nll_finite_difference() {
        let mu = Tensor::from_vec(1, 2, vec![0.5, -0.2]);
        let lv = Tensor::from_vec(1, 2, vec![0.3, -0.6]);
        let target = Tensor::from_vec(1, 2, vec![1.0, 0.0]);
        let (_, g_mu, g_lv) = gaussian_nll(&mu, &lv, &target);
        let eps = 1e-3;
        for i in 0..2 {
            let mut p = mu.clone();
            p.as_mut_slice()[i] += eps;
            let mut m = mu.clone();
            m.as_mut_slice()[i] -= eps;
            let (fp, _, _) = gaussian_nll(&p, &lv, &target);
            let (fm, _, _) = gaussian_nll(&m, &lv, &target);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - g_mu.as_slice()[i]).abs() < 1e-3);

            let mut p = lv.clone();
            p.as_mut_slice()[i] += eps;
            let mut m = lv.clone();
            m.as_mut_slice()[i] -= eps;
            let (fp, _, _) = gaussian_nll(&mu, &p, &target);
            let (fm, _, _) = gaussian_nll(&mu, &m, &target);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - g_lv.as_slice()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn gaussian_nll_extreme_log_var_stays_finite_with_zero_grad() {
        // Regression: an untrained variance head can emit huge ±log_var;
        // exp(-lv) must not overflow the loss to inf or the grads to NaN.
        let mu = Tensor::from_vec(1, 4, vec![0.0, 1.0, -2.0, 3.0]);
        let target = Tensor::from_vec(1, 4, vec![0.5, -1.0, 2.0, -3.0]);
        for extreme in [1e4f32, 1e6, 1e30] {
            let lv = Tensor::from_vec(1, 4, vec![-extreme, extreme, -extreme, extreme]);
            let (l, g_mu, g_lv) = gaussian_nll(&mu, &lv, &target);
            assert!(l.is_finite(), "loss inf/NaN at log_var ±{extreme}");
            assert!(g_mu.as_slice().iter().all(|v| v.is_finite()), "grad_mu at ±{extreme}");
            // The clamp saturates, so the loss is locally constant in
            // log_var: the gradient must be exactly zero, matching finite
            // differences of the clamped loss.
            assert!(g_lv.as_slice().iter().all(|&v| v == 0.0), "grad_lv at ±{extreme}");
        }
    }

    #[test]
    fn gaussian_nll_grad_consistent_across_clamp_boundary() {
        // Finite differences of the *clamped* loss agree with the
        // analytic gradient just inside and deep outside the clamp.
        let mu = Tensor::from_vec(1, 1, vec![0.3]);
        let target = Tensor::from_vec(1, 1, vec![-0.4]);
        let eps = 1e-3f32;
        for lv0 in [
            -GAUSSIAN_NLL_LOG_VAR_CLAMP + 0.1,
            GAUSSIAN_NLL_LOG_VAR_CLAMP - 0.1,
            -GAUSSIAN_NLL_LOG_VAR_CLAMP - 5.0,
            GAUSSIAN_NLL_LOG_VAR_CLAMP + 5.0,
            0.7,
        ] {
            let lv = Tensor::from_vec(1, 1, vec![lv0]);
            let (_, _, g_lv) = gaussian_nll(&mu, &lv, &target);
            let p = Tensor::from_vec(1, 1, vec![lv0 + eps]);
            let m = Tensor::from_vec(1, 1, vec![lv0 - eps]);
            let (fp, _, _) = gaussian_nll(&mu, &p, &target);
            let (fm, _, _) = gaussian_nll(&mu, &m, &target);
            let numeric = (fp - fm) / (2.0 * eps);
            let tol = 2e-2 * (1.0 + g_lv.as_slice()[0].abs());
            assert!(
                (numeric - g_lv.as_slice()[0]).abs() < tol,
                "lv={lv0}: numeric {numeric} vs analytic {}",
                g_lv.as_slice()[0]
            );
        }
    }
}

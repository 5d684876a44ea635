//! A single gradient-boosted regression tree with histogram splits.

use crate::binning::BinnedFeatures;

/// Tree-growing hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum hessian sum per child (XGBoost's `min_child_weight`).
    pub min_child_weight: f64,
    /// L2 regularisation on leaf weights.
    pub lambda: f64,
    /// Minimum gain to accept a split.
    pub gamma: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self { max_depth: 4, min_child_weight: 1.0, lambda: 1.0, gamma: 0.0 }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Split { feature: usize, threshold: f64, left: usize, right: usize },
    Leaf { value: f64 },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Fits a tree to per-row gradients and hessians on binned features.
    pub fn fit(binned: &BinnedFeatures, grads: &[f64], hess: &[f64], params: &TreeParams) -> Self {
        assert_eq!(grads.len(), binned.rows(), "one gradient per row");
        assert_eq!(hess.len(), binned.rows(), "one hessian per row");
        let mut tree = Tree { nodes: Vec::new() };
        let rows: Vec<u32> = (0..binned.rows() as u32).collect();
        tree.grow(binned, grads, hess, params, rows, 0);
        tree
    }

    /// Recursively grows a node and returns its index.
    fn grow(
        &mut self,
        binned: &BinnedFeatures,
        grads: &[f64],
        hess: &[f64],
        params: &TreeParams,
        rows: Vec<u32>,
        depth: usize,
    ) -> usize {
        let g_total: f64 = rows.iter().map(|&i| grads[i as usize]).sum();
        let h_total: f64 = rows.iter().map(|&i| hess[i as usize]).sum();
        let leaf_value = -g_total / (h_total + params.lambda);

        if depth >= params.max_depth || rows.len() < 2 {
            return self.push_leaf(leaf_value);
        }

        // Best split over all features/bins via histograms.
        let parent_score = g_total * g_total / (h_total + params.lambda);
        let mut best: Option<(usize, usize, f64)> = None; // (feature, bin, gain)
        for j in 0..binned.n_features() {
            let n_bins = binned.n_bins(j);
            if n_bins < 2 {
                continue;
            }
            let mut hist_g = vec![0.0f64; n_bins];
            let mut hist_h = vec![0.0f64; n_bins];
            for &i in &rows {
                let b = binned.bin(j, i as usize) as usize;
                hist_g[b] += grads[i as usize];
                hist_h[b] += hess[i as usize];
            }
            let mut gl = 0.0;
            let mut hl = 0.0;
            for b in 0..n_bins - 1 {
                gl += hist_g[b];
                hl += hist_h[b];
                let gr = g_total - gl;
                let hr = h_total - hl;
                if hl < params.min_child_weight || hr < params.min_child_weight {
                    continue;
                }
                let gain =
                    gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - parent_score;
                if gain > params.gamma && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((j, b, gain));
                }
            }
        }

        let Some((feature, bin, _)) = best else {
            return self.push_leaf(leaf_value);
        };

        let (left_rows, right_rows): (Vec<u32>, Vec<u32>) =
            rows.into_iter().partition(|&i| (binned.bin(feature, i as usize) as usize) <= bin);
        debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());

        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let left = self.grow(binned, grads, hess, params, left_rows, depth + 1);
        let right = self.grow(binned, grads, hess, params, right_rows, depth + 1);
        self.nodes[node_idx] =
            Node::Split { feature, threshold: binned.threshold(feature, bin), left, right };
        node_idx
    }

    fn push_leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    /// Predicts the tree output for one row (`row[j]` = feature `j`).
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    idx = if row[*feature] < *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Accumulates per-feature split counts into `counts`.
    pub fn count_feature_use(&self, counts: &mut [usize]) {
        for node in &self.nodes {
            if let Node::Split { feature, .. } = node {
                counts[*feature] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squared-loss gradients toward targets from zero predictions:
    /// grad = pred - y = -y, hess = 1.
    fn grads_for(targets: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (targets.iter().map(|&y| -y).collect(), vec![1.0; targets.len()])
    }

    #[test]
    fn single_split_recovers_step_function() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| if v < 50.0 { -1.0 } else { 1.0 }).collect();
        let binned = BinnedFeatures::fit(std::slice::from_ref(&x), 32);
        let (g, h) = grads_for(&y);
        let tree = Tree::fit(
            &binned,
            &g,
            &h,
            &TreeParams { max_depth: 1, lambda: 0.0, ..Default::default() },
        );
        // Predictions should approximate the step function.
        assert!(tree.predict_row(&[10.0]) < -0.8);
        assert!(tree.predict_row(&[90.0]) > 0.8);
    }

    #[test]
    fn deeper_trees_fit_xor() {
        // XOR needs depth 2. Slightly unbalanced cell counts break the
        // zero-gain tie a perfectly symmetric XOR presents to greedy splits.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let counts = [30, 25, 25, 20];
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..counts[a * 2 + b] {
                    xs.push((a as f64, b as f64));
                    ys.push(if a != b { 1.0 } else { -1.0 });
                }
            }
        }
        let f0: Vec<f64> = xs.iter().map(|p| p.0).collect();
        let f1: Vec<f64> = xs.iter().map(|p| p.1).collect();
        let binned = BinnedFeatures::fit(&[f0, f1], 4);
        let (g, h) = grads_for(&ys);
        let params = TreeParams { max_depth: 2, lambda: 0.0, min_child_weight: 0.5, gamma: 0.0 };
        let tree = Tree::fit(&binned, &g, &h, &params);
        assert!(tree.predict_row(&[0.0, 1.0]) > 0.5);
        assert!(tree.predict_row(&[1.0, 0.0]) > 0.5);
        assert!(tree.predict_row(&[0.0, 0.0]) < -0.5);
        assert!(tree.predict_row(&[1.0, 1.0]) < -0.5);
    }

    #[test]
    fn lambda_shrinks_leaf_values() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y = vec![10.0; 10];
        let binned = BinnedFeatures::fit(&[x], 4);
        let (g, h) = grads_for(&y);
        let plain = Tree::fit(
            &binned,
            &g,
            &h,
            &TreeParams { max_depth: 0, lambda: 0.0, ..Default::default() },
        );
        let reg = Tree::fit(
            &binned,
            &g,
            &h,
            &TreeParams { max_depth: 0, lambda: 10.0, ..Default::default() },
        );
        assert!((plain.predict_row(&[0.0]) - 10.0).abs() < 1e-9);
        assert!(reg.predict_row(&[0.0]) < 6.0);
    }

    #[test]
    fn max_depth_zero_is_single_leaf() {
        let x = vec![vec![1.0, 2.0, 3.0]];
        let binned = BinnedFeatures::fit(&x, 4);
        let tree = Tree::fit(
            &binned,
            &[-1.0, -2.0, -3.0],
            &[1.0; 3],
            &TreeParams { max_depth: 0, lambda: 0.0, ..Default::default() },
        );
        assert_eq!(tree.n_nodes(), 1);
        assert!((tree.predict_row(&[9.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn min_child_weight_blocks_tiny_splits() {
        let x: Vec<f64> = (0..4).map(|i| i as f64).collect();
        let y = vec![-1.0, -1.0, -1.0, 1.0];
        let binned = BinnedFeatures::fit(&[x], 8);
        let (g, h) = grads_for(&y);
        let strict = TreeParams { max_depth: 3, min_child_weight: 10.0, lambda: 0.0, gamma: 0.0 };
        let tree = Tree::fit(&binned, &g, &h, &strict);
        assert_eq!(tree.n_nodes(), 1, "split should be blocked");
    }

    #[test]
    fn feature_use_counts_splits() {
        let f0: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let f1 = vec![0.0; 100]; // useless feature
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { -1.0 } else { 1.0 }).collect();
        let binned = BinnedFeatures::fit(&[f0, f1], 16);
        let (g, h) = grads_for(&y);
        let tree = Tree::fit(&binned, &g, &h, &TreeParams::default());
        let mut counts = vec![0usize; 2];
        tree.count_feature_use(&mut counts);
        assert!(counts[0] >= 1);
        assert_eq!(counts[1], 0);
    }
}

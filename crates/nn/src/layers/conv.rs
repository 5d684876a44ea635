//! 1-D convolution over tabular feature vectors.
//!
//! The GAN(conv) baseline from the paper (CTAB-GAN-style) treats a sample's
//! encoded feature vector as a 1-D signal with channels. A batch row stores
//! the signal channel-major: `[c0 p0, c0 p1, .., c1 p0, ..]`.

use super::{Layer, Param};
use crate::init::Init;
use crate::tensor::Tensor;
use rand::Rng;

/// 1-D convolution with zero padding.
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel_size: usize,
    stride: usize,
    padding: usize,
    /// `(out_channels, in_channels * kernel_size)`.
    weight: Param,
    /// `(1, out_channels)`.
    bias: Param,
    cached_input: Option<Tensor>,
    input_len: usize,
}

impl Conv1d {
    /// Creates a convolution for signals of length `input_len`.
    ///
    /// # Panics
    /// Panics if the configuration yields a non-positive output length.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel_size: usize,
        stride: usize,
        padding: usize,
        input_len: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        assert!(input_len + 2 * padding >= kernel_size, "kernel larger than padded input");
        let fan_in = in_channels * kernel_size;
        Self {
            in_channels,
            out_channels,
            kernel_size,
            stride,
            padding,
            weight: Param::new(Init::KaimingNormal.sample(fan_in, out_channels, rng).transpose()),
            bias: Param::new(Tensor::zeros(1, out_channels)),
            cached_input: None,
            input_len,
        }
    }

    /// Output signal length.
    pub fn output_len(&self) -> usize {
        (self.input_len + 2 * self.padding - self.kernel_size) / self.stride + 1
    }

    /// Output feature width (`out_channels * output_len`), i.e. the column
    /// count of the tensors this layer produces.
    pub fn output_width(&self) -> usize {
        self.out_channels * self.output_len()
    }

    /// Expected input feature width (`in_channels * input_len`).
    pub fn input_width(&self) -> usize {
        self.in_channels * self.input_len
    }

    #[inline]
    fn signal_at(&self, row: &[f32], channel: usize, pos: isize) -> f32 {
        if pos < 0 || pos as usize >= self.input_len {
            0.0
        } else {
            row[channel * self.input_len + pos as usize]
        }
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        crate::workspace::cache_assign(&mut self.cached_input, input);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.cols(),
            self.input_width(),
            "Conv1d expected width {} got {}",
            self.input_width(),
            input.cols()
        );
        let out_len = self.output_len();
        let mut out = crate::workspace::take_zeroed(input.rows(), self.out_channels * out_len);
        for r in 0..input.rows() {
            let row = input.row(r);
            for oc in 0..self.out_channels {
                let w_row = self.weight.value.row(oc);
                let b = self.bias.value.as_slice()[oc];
                for op in 0..out_len {
                    let start = (op * self.stride) as isize - self.padding as isize;
                    let mut acc = b;
                    for ic in 0..self.in_channels {
                        let w_base = ic * self.kernel_size;
                        for k in 0..self.kernel_size {
                            acc += w_row[w_base + k] * self.signal_at(row, ic, start + k as isize);
                        }
                    }
                    out.row_mut(r)[oc * out_len + op] = acc;
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv1d::backward called without a cached forward pass");
        let out_len = self.output_len();
        let mut grad_in = crate::workspace::take_zeroed(input.rows(), input.cols());

        // Split borrows so the weight value (read) and grad (written) can be
        // held at once without copying each filter row per (sample, channel).
        let weight = &self.weight.value;
        let weight_grad = &mut self.weight.grad;
        for r in 0..input.rows() {
            let in_row = input.row(r);
            let g_row = grad_output.row(r);
            for oc in 0..self.out_channels {
                let w_row = weight.row(oc);
                for op in 0..out_len {
                    let g = g_row[oc * out_len + op];
                    if g == 0.0 {
                        continue;
                    }
                    self.bias.grad.as_mut_slice()[oc] += g;
                    let start = (op * self.stride) as isize - self.padding as isize;
                    for ic in 0..self.in_channels {
                        let w_base = ic * self.kernel_size;
                        for k in 0..self.kernel_size {
                            let pos = start + k as isize;
                            if pos < 0 || pos as usize >= self.input_len {
                                continue;
                            }
                            let pos = pos as usize;
                            // dW
                            weight_grad.row_mut(oc)[w_base + k] +=
                                g * in_row[ic * self.input_len + pos];
                            // dX
                            grad_in.row_mut(r)[ic * self.input_len + pos] += g * w_row[w_base + k];
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_reproduces_signal() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv1d::new(1, 1, 1, 1, 0, 5, &mut rng);
        conv.weight.value = Tensor::from_vec(1, 1, vec![1.0]);
        let x = Tensor::from_vec(1, 5, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let y = conv.infer(&x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn moving_sum_kernel() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv1d::new(1, 1, 3, 1, 1, 4, &mut rng);
        conv.weight.value = Tensor::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        conv.bias.value = Tensor::zeros(1, 1);
        let x = Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.infer(&x);
        // Zero-padded 3-tap moving sums: [0+1+2, 1+2+3, 2+3+4, 3+4+0]
        assert_eq!(y.as_slice(), &[3.0, 6.0, 9.0, 7.0]);
    }

    #[test]
    fn stride_downsamples() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv1d::new(2, 3, 3, 2, 1, 8, &mut rng);
        assert_eq!(conv.output_len(), 4);
        assert_eq!(conv.output_width(), 12);
    }

    #[test]
    fn gradcheck_multichannel() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut conv = Conv1d::new(2, 3, 3, 1, 1, 6, &mut rng);
        let x = crate::init::randn(3, 12, &mut rng);
        gradcheck::check_input_grad(&mut conv, &x, 2e-2);
        gradcheck::check_param_grads(&mut conv, &x, 2e-2);
    }

    #[test]
    fn gradcheck_strided() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut conv = Conv1d::new(1, 2, 3, 2, 1, 7, &mut rng);
        let x = crate::init::randn(2, 7, &mut rng);
        gradcheck::check_input_grad(&mut conv, &x, 2e-2);
        gradcheck::check_param_grads(&mut conv, &x, 2e-2);
    }
}

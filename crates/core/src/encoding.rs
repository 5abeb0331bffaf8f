//! The vector-encoding layer: per-position channel bundling with binary
//! feature vectors.

use rand::Rng;
use univsa_nn::ste::{sign, ste_grad};
use univsa_nn::Param;
use univsa_tensor::{uniform, Tensor};

use crate::UniVsaError;

/// The UniVSA encoding stage `s_d = sgn(Σ_o F[o,d] · a[o,d])`.
///
/// Unlike a dense layer, each output position `d` only combines the `O`
/// channel values *at that position* — this is Eq. 1's binding-and-bundling
/// specialized to the convolutional layout, where the feature vectors
/// `fᵢ ∈ F` index the *channel position* of the BiConv output rather than
/// the raw feature position.
///
/// Latent weights `F` are floats binarized with `sign` in the forward pass
/// (straight-through estimator backward); the binarized matrix is exported
/// as the feature-vector set **F**.
#[derive(Debug, Clone)]
pub struct EncodingLayer {
    f_latent: Param, // (channels, dim)
    channels: usize,
    dim: usize,
    cached_input: Option<Vec<Tensor>>,
    cached_pre: Option<Vec<Tensor>>,
}

impl EncodingLayer {
    /// Creates the layer for `channels` input channels and `dim` output
    /// positions, latent weights drawn from `U(-1, 1)`.
    pub fn new<R: Rng + ?Sized>(channels: usize, dim: usize, rng: &mut R) -> Self {
        Self {
            f_latent: Param::new(uniform(&[channels, dim], -1.0, 1.0, rng)),
            channels,
            dim,
            cached_input: None,
            cached_pre: None,
        }
    }

    /// Input channel count `O`.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Output dimension `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The latent weight parameter.
    #[inline]
    pub fn f_latent(&self) -> &Param {
        &self.f_latent
    }

    /// Mutable latent weight parameter (for the optimizer).
    #[inline]
    pub fn f_latent_mut(&mut self) -> &mut Param {
        &mut self.f_latent
    }

    /// The binarized feature vectors `sign(F)`.
    pub fn binary_f(&self) -> Tensor {
        sign(self.f_latent.value())
    }

    /// Forward pass over a batch of `(channels, dim)` activation maps,
    /// caching intermediates (the batch itself among them, hence by
    /// value); returns one `(dim,)` bipolar sample vector per input.
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Shape`] if any input has the wrong shape.
    pub fn forward(&mut self, batch: Vec<Tensor>) -> Result<Vec<Tensor>, UniVsaError> {
        let fb = self.binary_f();
        // per-sample encodings are independent: fan out to the worker
        // pool; results return in sample order
        let results = univsa_par::map_indexed("train.encode_fwd", batch.len(), |i| {
            self.pre_activation(&batch[i], &fb).map(|pre| {
                let out = sign(&pre);
                (pre, out)
            })
        });
        let mut pres = Vec::with_capacity(batch.len());
        let mut outs = Vec::with_capacity(batch.len());
        for r in results {
            let (pre, out) = r?;
            outs.push(out);
            pres.push(pre);
        }
        self.cached_input = Some(batch);
        self.cached_pre = Some(pres);
        Ok(outs)
    }

    /// Forward pass without caching (inference only).
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Shape`] if the input has the wrong shape.
    pub fn infer(&self, a: &Tensor) -> Result<Tensor, UniVsaError> {
        Ok(sign(&self.pre_activation(a, &self.binary_f())?))
    }

    fn pre_activation(&self, a: &Tensor, fb: &Tensor) -> Result<Tensor, UniVsaError> {
        if a.shape().dims() != [self.channels, self.dim] {
            return Err(UniVsaError::Shape(univsa_tensor::ShapeError::new(format!(
                "encoding input must be ({}, {}), got {}",
                self.channels,
                self.dim,
                a.shape()
            ))));
        }
        let mut pre = vec![0.0f32; self.dim];
        for o in 0..self.channels {
            let arow = &a.as_slice()[o * self.dim..(o + 1) * self.dim];
            let frow = &fb.as_slice()[o * self.dim..(o + 1) * self.dim];
            for ((p, &av), &fv) in pre.iter_mut().zip(arow).zip(frow) {
                *p += av * fv;
            }
        }
        Tensor::from_vec(pre, &[self.dim]).map_err(UniVsaError::from)
    }

    /// Backward pass: accumulates the latent `F` gradient and returns the
    /// per-sample gradients w.r.t. the channel activations.
    ///
    /// The output-sign STE window is scaled by the channel fan-in `O`
    /// (pre-activations range over `[-O, O]`).
    ///
    /// # Errors
    ///
    /// Returns an error if shapes disagree or `forward` was not called
    /// first.
    pub fn backward(&mut self, grad_out: &[Tensor]) -> Result<Vec<Tensor>, UniVsaError> {
        let inputs = self.cached_input.as_ref().ok_or_else(|| {
            UniVsaError::Input("EncodingLayer::backward called before forward".into())
        })?;
        let pres = self.cached_pre.as_ref().ok_or_else(|| {
            UniVsaError::Input("EncodingLayer::backward called before forward".into())
        })?;
        if grad_out.len() != inputs.len() {
            return Err(UniVsaError::Input(format!(
                "backward batch size {} disagrees with forward batch size {}",
                grad_out.len(),
                inputs.len()
            )));
        }
        let inv_fan = 1.0 / self.channels as f32;
        let fb = self.binary_f();
        let (channels, dim) = (self.channels, self.dim);
        // per-sample contributions run on workers; the shared F gradient
        // is folded afterwards in strict sample order (each per-sample
        // addend is the exact product the serial loop adds), so results
        // are bit-identical at every thread count
        let results = univsa_par::map_indexed("train.encode_bwd", grad_out.len(), |s| {
            if grad_out[s].shape() != pres[s].shape() {
                return Err(UniVsaError::Input(format!(
                    "encoding gradient must be ({dim},), got {}",
                    grad_out[s].shape()
                )));
            }
            // STE through the output sign, window scaled by fan-in, in one
            // pass: the same multiply and compare as
            // `ste_grad(g, &pre.scale(1 / fan))`, without the tensors
            let g_pre: Vec<f32> = grad_out[s]
                .as_slice()
                .iter()
                .zip(pres[s].as_slice())
                .map(|(&g, &p)| if (p * inv_fan).abs() <= 1.0 { g } else { 0.0 })
                .collect();
            let mut df = vec![0.0f32; channels * dim];
            let mut ga = vec![0.0f32; channels * dim];
            for o in 0..channels {
                let arow = &inputs[s].as_slice()[o * dim..(o + 1) * dim];
                let frow = &fb.as_slice()[o * dim..(o + 1) * dim];
                let dfrow = &mut df[o * dim..(o + 1) * dim];
                let garow = &mut ga[o * dim..(o + 1) * dim];
                for d in 0..dim {
                    let gp = g_pre[d];
                    dfrow[d] = gp * arow[d];
                    garow[d] = gp * frow[d];
                }
            }
            Tensor::from_vec(ga, &[channels, dim])
                .map(|ga| (df, ga))
                .map_err(UniVsaError::from)
        });
        let mut df_binary = Tensor::zeros(&[channels, dim]);
        let mut grad_inputs = Vec::with_capacity(grad_out.len());
        for r in results {
            let (df, ga) = r?;
            for (acc, v) in df_binary.as_mut_slice().iter_mut().zip(&df) {
                *acc += *v;
            }
            grad_inputs.push(ga);
        }
        let df = ste_grad(&df_binary, self.f_latent.value());
        self.f_latent.grad_mut().axpy(1.0, &df)?;
        Ok(grad_inputs)
    }

    /// Zeroes the latent gradient.
    pub fn zero_grad(&mut self) {
        self.f_latent.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = EncodingLayer::new(3, 4, &mut rng);
        // force F latent to known signs
        layer.f_latent.value_mut().as_mut_slice().copy_from_slice(&[
            1.0, -1.0, 1.0, -1.0, //
            1.0, 1.0, -1.0, -1.0, //
            -1.0, 1.0, 1.0, 1.0,
        ]);
        let a = Tensor::from_vec(
            vec![
                1.0, 1.0, 1.0, 1.0, //
                -1.0, -1.0, -1.0, -1.0, //
                1.0, -1.0, 1.0, -1.0,
            ],
            &[3, 4],
        )
        .unwrap();
        let out = layer.forward(vec![a]).unwrap();
        // pre[d] = Σ_o F[o,d]*a[o,d]
        // d0: 1*1 + 1*(-1) + (-1)*1 = -1 → -1
        // d1: (-1)*1 + 1*(-1) + 1*(-1) = -3 → -1
        // d2: 1*1 + (-1)*(-1) + 1*1 = 3 → +1
        // d3: (-1)*1 + (-1)*(-1) + 1*(-1) = -1 → -1
        assert_eq!(out[0].as_slice(), &[-1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn sgn_zero_tiebreak_positive() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = EncodingLayer::new(2, 1, &mut rng);
        layer
            .f_latent
            .value_mut()
            .as_mut_slice()
            .copy_from_slice(&[1.0, 1.0]);
        let a = Tensor::from_vec(vec![1.0, -1.0], &[2, 1]).unwrap();
        let out = layer.forward(vec![a]).unwrap();
        assert_eq!(out[0].as_slice(), &[1.0]);
    }

    #[test]
    fn rejects_wrong_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = EncodingLayer::new(2, 3, &mut rng);
        assert!(layer.forward(vec![Tensor::zeros(&[3, 2])]).is_err());
    }

    #[test]
    fn backward_shapes_and_flow() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = EncodingLayer::new(4, 6, &mut rng);
        let a = univsa_tensor::signs(&[4, 6], &mut rng);
        let out = layer.forward(vec![a]).unwrap();
        layer.zero_grad();
        let g: Vec<Tensor> = out.iter().map(|o| o.map(|_| 1.0)).collect();
        let ga = layer.backward(&g).unwrap();
        assert_eq!(ga[0].shape().dims(), &[4, 6]);
        assert!(layer.f_latent.grad().as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = EncodingLayer::new(2, 2, &mut rng);
        assert!(layer.backward(&[Tensor::zeros(&[2])]).is_err());
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = EncodingLayer::new(3, 5, &mut rng);
        let a = univsa_tensor::signs(&[3, 5], &mut rng);
        let out = layer.forward(vec![a.clone()]).unwrap();
        assert_eq!(layer.infer(&a).unwrap(), out[0]);
    }
}

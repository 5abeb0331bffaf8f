//! 2-D convolution (forward and gradients) for the binary feature
//! extraction layer.
//!
//! The UniVSA BiConv layer convolves a value-vector feature map of shape
//! `(C_in, H, W)` with a kernel bank of shape `(C_out, C_in, K, K)` using
//! stride 1 and `same` zero padding, so the output is `(C_out, H, W)` and
//! the VSA dimension `D = H·W` is preserved (consistent with the paper's
//! memory model Eq. 5, which charges `W×L×O` for the feature vectors).
//!
//! Zero padding is sound in the bipolar domain: a padded `0` contributes
//! nothing to the pre-activation sum, which is exactly how the hardware's
//! boundary handling behaves.

use crate::{gemm, ShapeError, Tensor};

/// Geometry of a stride-1 `same`-padded 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Input channel count (`D_H` in the paper).
    pub in_channels: usize,
    /// Output channel count (`O` in the paper).
    pub out_channels: usize,
    /// Square kernel side (`D_K` in the paper). Must be odd for `same`
    /// padding.
    pub kernel: usize,
    /// Input/output height (`W` in the paper's `(W, L)` window grid).
    pub height: usize,
    /// Input/output width (`L` in the paper's `(W, L)` window grid).
    pub width: usize,
}

impl Conv2dSpec {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any extent is zero or the kernel is even
    /// (even kernels cannot be `same`-padded symmetrically).
    pub fn validate(&self) -> Result<(), ShapeError> {
        if self.in_channels == 0
            || self.out_channels == 0
            || self.kernel == 0
            || self.height == 0
            || self.width == 0
        {
            return Err(ShapeError::new("conv2d extents must all be nonzero"));
        }
        if self.kernel.is_multiple_of(2) {
            return Err(ShapeError::new(format!(
                "same-padded conv2d needs an odd kernel, got {}",
                self.kernel
            )));
        }
        Ok(())
    }

    /// Expected input shape `(in_channels, height, width)`.
    pub fn input_dims(&self) -> [usize; 3] {
        [self.in_channels, self.height, self.width]
    }

    /// Output shape `(out_channels, height, width)`.
    pub fn output_dims(&self) -> [usize; 3] {
        [self.out_channels, self.height, self.width]
    }

    /// Kernel shape `(out_channels, in_channels, kernel, kernel)`.
    pub fn kernel_dims(&self) -> [usize; 4] {
        [
            self.out_channels,
            self.in_channels,
            self.kernel,
            self.kernel,
        ]
    }

    fn pad(&self) -> isize {
        (self.kernel / 2) as isize
    }
}

/// Forward 2-D convolution: `input (C_in,H,W) ⊛ kernel (C_out,C_in,K,K) →
/// (C_out,H,W)` with stride 1 and `same` zero padding.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or the operand shapes do
/// not match it.
///
/// # Examples
///
/// ```
/// use univsa_tensor::{conv2d, Conv2dSpec, Tensor};
/// let spec = Conv2dSpec { in_channels: 1, out_channels: 1, kernel: 3, height: 4, width: 4 };
/// let input = Tensor::full(&[1, 4, 4], 1.0);
/// let kernel = Tensor::full(&[1, 1, 3, 3], 1.0);
/// let out = conv2d(&input, &kernel, &spec)?;
/// // interior pixel sees all 9 taps
/// assert_eq!(out.at(&[0, 1, 1]), 9.0);
/// // corner pixel sees only 4
/// assert_eq!(out.at(&[0, 0, 0]), 4.0);
/// # Ok::<(), univsa_tensor::ShapeError>(())
/// ```
pub fn conv2d(input: &Tensor, kernel: &Tensor, spec: &Conv2dSpec) -> Result<Tensor, ShapeError> {
    spec.validate()?;
    check_dims(input, &spec.input_dims(), "conv2d input")?;
    check_dims4(kernel, &spec.kernel_dims(), "conv2d kernel")?;
    let (ci, h, w, k) = (spec.in_channels, spec.height, spec.width, spec.kernel);
    let hw = h * w;
    // im2col: the kernel bank (C_out, C_in, K, K) is already a row-major
    // (C_out × C_in·K·K) matrix; lowering the input to a (C_in·K·K × H·W)
    // column matrix turns the convolution into one blocked GEMM. Column
    // row order (c, ky, kx) matches the naive tap order, and out-of-bounds
    // taps become ±0 products, so the result is bit-identical to
    // [`conv2d_naive`].
    let cols = shifted_cols(input.as_slice(), ci, h, w, k, spec.pad());
    let mut out = vec![0.0f32; spec.out_channels * hw];
    gemm::gemm(
        kernel.as_slice(),
        &cols,
        spec.out_channels,
        ci * k * k,
        hw,
        &mut out,
    );
    Tensor::from_vec(out, &spec.output_dims())
}

/// Reference implementation of [`conv2d`] (original row-sliced tap loops),
/// retained as the test oracle for the im2col path.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or the operand shapes do
/// not match it.
pub fn conv2d_naive(
    input: &Tensor,
    kernel: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    spec.validate()?;
    check_dims(input, &spec.input_dims(), "conv2d input")?;
    check_dims4(kernel, &spec.kernel_dims(), "conv2d kernel")?;
    let (ci, h, w, k) = (spec.in_channels, spec.height, spec.width, spec.kernel);
    let pad = spec.pad();
    let x = input.as_slice();
    let kbuf = kernel.as_slice();
    let mut out = vec![0.0f32; spec.out_channels * h * w];
    // row-sliced accumulation: for every kernel tap, add a shifted slice of
    // the input row into the output row (vectorizes, no per-element bounds
    // arithmetic)
    for co in 0..spec.out_channels {
        let kbase = co * ci * k * k;
        for c in 0..ci {
            let xbase = c * h * w;
            let kcbase = kbase + c * k * k;
            for oy in 0..h {
                let orow_start = co * h * w + oy * w;
                for ky in 0..k {
                    let iy = oy as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let xrow = &x[xbase + iy as usize * w..xbase + (iy as usize + 1) * w];
                    let krow = &kbuf[kcbase + ky * k..kcbase + ky * k + k];
                    let orow = &mut out[orow_start..orow_start + w];
                    for (kx, &kv) in krow.iter().enumerate() {
                        if kv == 0.0 {
                            continue;
                        }
                        let shift = kx as isize - pad;
                        let lo = (-shift).max(0) as usize;
                        let hi = (w as isize).min(w as isize - shift).max(0) as usize;
                        if lo >= hi {
                            continue;
                        }
                        let src =
                            &xrow[(lo as isize + shift) as usize..(hi as isize + shift) as usize];
                        for (o, &xv) in orow[lo..hi].iter_mut().zip(src) {
                            *o += kv * xv;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &spec.output_dims())
}

/// Gradient of the convolution output w.r.t. the input: a full correlation
/// of `grad_out (C_out,H,W)` with the flipped kernel, producing
/// `(C_in,H,W)`.
///
/// Stages `grad_out` through [`Conv2dGrad`]; callers that also need the
/// kernel gradient should stage once and call both of its methods.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or shapes mismatch.
pub fn conv2d_input_grad(
    grad_out: &Tensor,
    kernel: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    Conv2dGrad::new(grad_out, spec)?.input_grad(kernel)
}

/// Reference implementation of [`conv2d_input_grad`] (original row-sliced
/// tap loops), retained as the test oracle.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or shapes mismatch.
pub fn conv2d_input_grad_naive(
    grad_out: &Tensor,
    kernel: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    spec.validate()?;
    check_dims(grad_out, &spec.output_dims(), "conv2d_input_grad grad_out")?;
    check_dims4(kernel, &spec.kernel_dims(), "conv2d_input_grad kernel")?;
    let (ci, h, w, k) = (spec.in_channels, spec.height, spec.width, spec.kernel);
    let pad = spec.pad();
    let g = grad_out.as_slice();
    let kbuf = kernel.as_slice();
    let mut out = vec![0.0f32; ci * h * w];
    // d input[c, iy, ix] = Σ_co Σ_ky Σ_kx g[co, iy+pad-ky, ix+pad-kx] * K[co, c, ky, kx]
    // — a correlation with the flipped kernel; accumulated row-sliced like
    // the forward pass
    for co in 0..spec.out_channels {
        for c in 0..ci {
            let kcbase = (co * ci + c) * k * k;
            for iy in 0..h {
                let orow_start = c * h * w + iy * w;
                for ky in 0..k {
                    let oy = iy as isize + pad - ky as isize;
                    if oy < 0 || oy >= h as isize {
                        continue;
                    }
                    let grow = &g[co * h * w + oy as usize * w..co * h * w + (oy as usize + 1) * w];
                    let krow = &kbuf[kcbase + ky * k..kcbase + ky * k + k];
                    let orow = &mut out[orow_start..orow_start + w];
                    for (kx, &kv) in krow.iter().enumerate() {
                        if kv == 0.0 {
                            continue;
                        }
                        // ox = ix + pad - kx ⇒ source shifted by (pad - kx)
                        let shift = pad - kx as isize;
                        let lo = (-shift).max(0) as usize;
                        let hi = (w as isize).min(w as isize - shift).max(0) as usize;
                        if lo >= hi {
                            continue;
                        }
                        let src =
                            &grow[(lo as isize + shift) as usize..(hi as isize + shift) as usize];
                        for (o, &gv) in orow[lo..hi].iter_mut().zip(src) {
                            *o += kv * gv;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &spec.input_dims())
}

/// Gradient of the convolution output w.r.t. the kernel, producing
/// `(C_out,C_in,K,K)`.
///
/// Stages `grad_out` through [`Conv2dGrad`]; callers that also need the
/// input gradient should stage once and call both of its methods.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or shapes mismatch.
pub fn conv2d_kernel_grad(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    Conv2dGrad::new(grad_out, spec)?.kernel_grad(input)
}

/// Reference implementation of [`conv2d_kernel_grad`] (original tap-outer
/// loops), retained as the test oracle.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or shapes mismatch.
pub fn conv2d_kernel_grad_naive(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    spec.validate()?;
    check_dims(input, &spec.input_dims(), "conv2d_kernel_grad input")?;
    check_dims(grad_out, &spec.output_dims(), "conv2d_kernel_grad grad_out")?;
    let (ci, h, w, k) = (spec.in_channels, spec.height, spec.width, spec.kernel);
    let pad = spec.pad();
    let x = input.as_slice();
    let g = grad_out.as_slice();
    let mut out = vec![0.0f32; spec.out_channels * ci * k * k];
    for co in 0..spec.out_channels {
        for c in 0..ci {
            let kcbase = (co * ci + c) * k * k;
            for ky in 0..k {
                for kx in 0..k {
                    // dot products of shifted row slices
                    let shift = kx as isize - pad;
                    let lo = (-shift).max(0) as usize;
                    let hi = (w as isize).min(w as isize - shift).max(0) as usize;
                    let mut acc = 0.0f32;
                    if lo < hi {
                        for oy in 0..h {
                            let iy = oy as isize + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let grow = &g[co * h * w + oy * w..co * h * w + oy * w + w];
                            let xrow =
                                &x[c * h * w + iy as usize * w..c * h * w + (iy as usize + 1) * w];
                            let src = &xrow
                                [(lo as isize + shift) as usize..(hi as isize + shift) as usize];
                            acc += grow[lo..hi]
                                .iter()
                                .zip(src)
                                .map(|(&gv, &xv)| gv * xv)
                                .sum::<f32>();
                        }
                    }
                    out[kcbase + ky * k + kx] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &spec.kernel_dims())
}

/// Output channels a kernel-gradient lane block advances together.
const LANES: usize = 16;
/// Widest output-row segment the input-gradient kernel holds in
/// registers; also the right-hand slack of the padded staging layout.
const SEG: usize = 16;
/// Input channels accumulated together per row segment, so each loaded
/// `grad_out` segment feeds `CB` output rows.
const CB: usize = 4;

/// A convolution output gradient `(C_out, H, W)` staged once in the two
/// layouts the gradient kernels read:
///
/// - position-major `(H·W, C_out)` for [`Conv2dGrad::kernel_grad`], so
///   the `C_out` accumulators of one kernel tap sit side by side in vector
///   lanes;
/// - zero-padded `(C_out, H + 2·pad, W + 2·pad + 16)` for
///   [`Conv2dGrad::input_grad`], so every tap of an output-row segment is
///   one contiguous in-bounds load.
///
/// Both kernels are bit-identical to the `_naive` oracles for finite
/// inputs (see the module tests and DESIGN.md's bit-exactness section).
///
/// # Examples
///
/// ```
/// use univsa_tensor::{conv2d_input_grad_naive, conv2d_kernel_grad_naive};
/// use univsa_tensor::{Conv2dGrad, Conv2dSpec, Tensor};
/// let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, height: 4, width: 5 };
/// let x = Tensor::full(&[2, 4, 5], -1.0);
/// let kernel = Tensor::full(&[3, 2, 3, 3], 1.0);
/// let g = Tensor::from_vec((0..60).map(|i| i as f32 * 0.25).collect(), &[3, 4, 5])?;
/// let staged = Conv2dGrad::new(&g, &spec)?;
/// assert_eq!(staged.kernel_grad(&x)?, conv2d_kernel_grad_naive(&x, &g, &spec)?);
/// assert_eq!(staged.input_grad(&kernel)?, conv2d_input_grad_naive(&g, &kernel, &spec)?);
/// # Ok::<(), univsa_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Conv2dGrad {
    spec: Conv2dSpec,
    pos_major: Vec<f32>,
    padded: Vec<f32>,
}

impl Conv2dGrad {
    /// Stages `grad_out`, which must have the spec's output shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the spec is invalid or `grad_out` has the
    /// wrong shape.
    pub fn new(grad_out: &Tensor, spec: &Conv2dSpec) -> Result<Self, ShapeError> {
        check_dims(grad_out, &spec.output_dims(), "conv2d grad_out")?;
        let g = grad_out.as_slice();
        Self::from_fn(spec, |i| g[i])
    }

    /// Stages the gradient whose element at flat `(C_out, H, W)` index `i`
    /// is `grad(i)`, calling `grad` exactly once per element. Lets a caller
    /// fuse an elementwise pass (such as a straight-through-estimator mask)
    /// into staging instead of materializing it as a tensor first.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the spec is invalid.
    pub fn from_fn(
        spec: &Conv2dSpec,
        mut grad: impl FnMut(usize) -> f32,
    ) -> Result<Self, ShapeError> {
        spec.validate()?;
        let (co, h, w) = (spec.out_channels, spec.height, spec.width);
        let pad = spec.pad() as usize;
        let (hp, wp) = padded_extent(spec);
        let mut pos_major = vec![0.0f32; h * w * co];
        let mut padded = vec![0.0f32; co * hp * wp];
        // a block of output channels at a time: each position receives a
        // contiguous run of writes instead of one store per cache line
        for c0 in (0..co).step_by(LANES) {
            let block = c0..co.min(c0 + LANES);
            for y in 0..h {
                for x in 0..w {
                    let dst = &mut pos_major[(y * w + x) * co..][block.clone()];
                    for (o, d) in block.clone().zip(dst) {
                        let v = grad((o * h + y) * w + x);
                        *d = v;
                        padded[(o * hp + y + pad) * wp + x + pad] = v;
                    }
                }
            }
        }
        Ok(Self {
            spec: *spec,
            pos_major,
            padded,
        })
    }

    /// Gradient w.r.t. the kernel, `(C_out, C_in, K, K)`, for the forward
    /// `input (C_in, H, W)`; bit-identical to [`conv2d_kernel_grad_naive`].
    ///
    /// The oracle computes each tap as a fold, in ascending `oy`, of
    /// per-row dots, each a sequential `Iterator::sum::<f32>` over `ox`.
    /// That chain cannot be vectorized within one output without
    /// reassociating, but the `C_out` outputs sharing a `(c, ky, kx)` tap
    /// are independent: they advance together, one per vector lane, over
    /// the same `ox` sequence, so every element still sees the oracle's
    /// exact operations in the oracle's order.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `input` has the wrong shape.
    pub fn kernel_grad(&self, input: &Tensor) -> Result<Tensor, ShapeError> {
        let spec = &self.spec;
        check_dims(input, &spec.input_dims(), "conv2d_kernel_grad input")?;
        let (ci, co, h, w, k) = (
            spec.in_channels,
            spec.out_channels,
            spec.height,
            spec.width,
            spec.kernel,
        );
        let (hw, kk, pad) = (h * w, k * k, spec.pad());
        let x = input.as_slice();
        // the start value of `Iterator::sum::<f32>` (a signed zero)
        let init: f32 = std::iter::empty::<f32>().sum();
        // (c, ky, kx)-major accumulators, C_out contiguous per tap
        let mut taps = vec![0.0f32; ci * kk * co];
        // oy outermost: the per-row dots fold into each tap in ascending
        // oy, as in the oracle, while the row's g and x stay cache-hot
        for oy in 0..h {
            let grows = &self.pos_major[oy * w * co..][..w * co];
            for ky in 0..k {
                let iy = oy as isize + ky as isize - pad;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for c in 0..ci {
                    let xrow = &x[c * hw + iy as usize * w..][..w];
                    for kx in 0..k {
                        let shift = kx as isize - pad;
                        let lo = (-shift).max(0) as usize;
                        let hi = (w as isize).min(w as isize - shift).max(0) as usize;
                        if lo >= hi {
                            continue;
                        }
                        let xs =
                            &xrow[(lo as isize + shift) as usize..(hi as isize + shift) as usize];
                        let grows = &grows[lo * co..hi * co];
                        let dst = &mut taps[((c * k + ky) * k + kx) * co..][..co];
                        let mut c0 = 0;
                        while c0 < co {
                            c0 += match co - c0 {
                                r if r >= LANES => row_dots::<LANES>(grows, co, c0, xs, init, dst),
                                r if r >= 8 => row_dots::<8>(grows, co, c0, xs, init, dst),
                                r if r >= 4 => row_dots::<4>(grows, co, c0, xs, init, dst),
                                _ => row_dots::<1>(grows, co, c0, xs, init, dst),
                            };
                        }
                    }
                }
            }
        }
        let mut out = vec![0.0f32; co * ci * kk];
        for (t, row) in taps.chunks_exact(co).enumerate() {
            for (o, &v) in row.iter().enumerate() {
                out[o * ci * kk + t] = v;
            }
        }
        Tensor::from_vec(out, &spec.kernel_dims())
    }

    /// Gradient w.r.t. the input, `(C_in, H, W)`, for the forward `kernel
    /// (C_out, C_in, K, K)`; bit-identical to [`conv2d_input_grad_naive`].
    ///
    /// A direct correlation over the padded staging copy: each output-row
    /// segment of `CB` input channels stays in registers while every
    /// `(co, ky, kx)` tap is added in ascending order, the oracle's
    /// per-element order. Zero kernel taps are skipped as in the oracle;
    /// taps that fall in the padding add `±0`, which leaves an accumulator
    /// that started at `+0` unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `kernel` has the wrong shape.
    pub fn input_grad(&self, kernel: &Tensor) -> Result<Tensor, ShapeError> {
        let spec = &self.spec;
        check_dims4(kernel, &spec.kernel_dims(), "conv2d_input_grad kernel")?;
        let (ci, co, h, w, kk) = (
            spec.in_channels,
            spec.out_channels,
            spec.height,
            spec.width,
            spec.kernel * spec.kernel,
        );
        // kernel permuted to (C_out, K, K, C_in): the taps a channel block
        // shares are adjacent
        let kbuf = kernel.as_slice();
        let mut taps = vec![0.0f32; co * kk * ci];
        for o in 0..co {
            for c in 0..ci {
                for t in 0..kk {
                    taps[(o * kk + t) * ci + c] = kbuf[(o * ci + c) * kk + t];
                }
            }
        }
        let mut out = vec![0.0f32; ci * h * w];
        for iy in 0..h {
            let mut x0 = 0;
            while x0 < w {
                // the segment width follows the row width left, so narrow
                // rows (and row tails) do not pay for a full segment
                x0 += match w - x0 {
                    r if r > 8 => self.row_segments::<SEG>(&taps, iy, x0, &mut out),
                    r if r > 4 => self.row_segments::<8>(&taps, iy, x0, &mut out),
                    _ => self.row_segments::<4>(&taps, iy, x0, &mut out),
                };
            }
        }
        Tensor::from_vec(out, &spec.input_dims())
    }

    /// Input-gradient segment `x0 .. x0 + S` of row `iy` for every input
    /// channel, `CB` channels at a time; returns `S`.
    fn row_segments<const S: usize>(
        &self,
        taps: &[f32],
        iy: usize,
        x0: usize,
        out: &mut [f32],
    ) -> usize {
        let ci = self.spec.in_channels;
        let mut c0 = 0;
        while c0 < ci {
            c0 += match ci - c0 {
                r if r >= CB => self.segment::<S, CB>(taps, iy, x0, c0, out),
                r if r >= 2 => self.segment::<S, 2>(taps, iy, x0, c0, out),
                _ => self.segment::<S, 1>(taps, iy, x0, c0, out),
            };
        }
        S
    }

    /// Accumulates output row `iy`, columns `x0 .. x0 + S`, of input
    /// channels `c0 .. c0 + B` in registers; returns `B`.
    #[inline(always)]
    fn segment<const S: usize, const B: usize>(
        &self,
        taps: &[f32],
        iy: usize,
        x0: usize,
        c0: usize,
        out: &mut [f32],
    ) -> usize {
        let spec = &self.spec;
        let (ci, h, w, k) = (spec.in_channels, spec.height, spec.width, spec.kernel);
        let (hp, wp) = padded_extent(spec);
        let p2 = 2 * spec.pad() as usize;
        let mut acc = [[0.0f32; S]; B];
        for o in 0..spec.out_channels {
            for ky in 0..k {
                // padded row of oy = iy + pad - ky
                let grow = &self.padded[(o * hp + iy + p2 - ky) * wp + x0..][..S + p2];
                let tap_row = &taps[(o * k + ky) * k * ci..][..k * ci];
                for kx in 0..k {
                    // padded column of ox = ix + pad - kx
                    let src = &grow[p2 - kx..][..S];
                    for (a, &kv) in acc.iter_mut().zip(&tap_row[kx * ci + c0..][..B]) {
                        if kv == 0.0 {
                            continue;
                        }
                        for (v, &g) in a.iter_mut().zip(src) {
                            *v += kv * g;
                        }
                    }
                }
            }
        }
        let n = S.min(w - x0);
        for (b, a) in acc.iter().enumerate() {
            out[((c0 + b) * h + iy) * w + x0..][..n].copy_from_slice(&a[..n]);
        }
        B
    }
}

/// `(rows, cols)` of one channel of the padded staging layout: `pad` zero
/// rows above and below, `pad` zero columns left, and `pad + SEG` right so
/// a segment starting anywhere in the row reads in bounds.
fn padded_extent(spec: &Conv2dSpec) -> (usize, usize) {
    let pad = spec.pad() as usize;
    (spec.height + 2 * pad, spec.width + 2 * pad + SEG)
}

/// Folds one row's dots into output channels `c0 .. c0 + N` of one
/// kernel tap: lane `j` runs `Iterator::sum::<f32>` over
/// `g[ox, c0 + j] · xs[ox]` in ascending `ox`, then adds into `dst`.
/// Returns `N`.
#[inline(always)]
fn row_dots<const N: usize>(
    grows: &[f32],
    co: usize,
    c0: usize,
    xs: &[f32],
    init: f32,
    dst: &mut [f32],
) -> usize {
    let mut acc = [init; N];
    for (g, &xv) in grows.chunks_exact(co).zip(xs) {
        for (a, &gv) in acc.iter_mut().zip(&g[c0..c0 + N]) {
            *a += gv * xv;
        }
    }
    for (d, a) in dst[c0..c0 + N].iter_mut().zip(acc) {
        *d += a;
    }
    N
}

/// Lowers a `(chans, h, w)` map to a `(chans·k·k × h·w)` column matrix:
/// row `(c, ky, kx)` holds `x[c, oy + ky - pad, ox + kx - pad]`.
/// Out-of-bounds taps stay zero.
fn shifted_cols(x: &[f32], chans: usize, h: usize, w: usize, k: usize, pad: isize) -> Vec<f32> {
    let hw = h * w;
    let mut cols = vec![0.0f32; chans * k * k * hw];
    for c in 0..chans {
        for ky in 0..k {
            let dy = ky as isize - pad;
            for kx in 0..k {
                let dx = kx as isize - pad;
                let lo = (-dx).max(0) as usize;
                let hi = ((w as isize).min(w as isize - dx)).max(0) as usize;
                if lo >= hi {
                    continue;
                }
                let row = ((c * k + ky) * k + kx) * hw;
                for oy in 0..h {
                    let iy = oy as isize + dy;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src = &x[c * hw + iy as usize * w..][..w];
                    let dst = &mut cols[row + oy * w..][..w];
                    dst[lo..hi].copy_from_slice(
                        &src[(lo as isize + dx) as usize..(hi as isize + dx) as usize],
                    );
                }
            }
        }
    }
    cols
}

fn check_dims(t: &Tensor, dims: &[usize; 3], what: &str) -> Result<(), ShapeError> {
    if t.shape().dims() != dims {
        return Err(ShapeError::new(format!(
            "{what} must have shape {:?}, got {}",
            dims,
            t.shape()
        )));
    }
    Ok(())
}

fn check_dims4(t: &Tensor, dims: &[usize; 4], what: &str) -> Result<(), ShapeError> {
    if t.shape().dims() != dims {
        return Err(ShapeError::new(format!(
            "{what} must have shape {:?}, got {}",
            dims,
            t.shape()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spec(ci: usize, co: usize, k: usize, h: usize, w: usize) -> Conv2dSpec {
        Conv2dSpec {
            in_channels: ci,
            out_channels: co,
            kernel: k,
            height: h,
            width: w,
        }
    }

    fn random_tensor(dims: &[usize], rng: &mut StdRng) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(), dims).unwrap()
    }

    #[test]
    fn identity_kernel_passes_through() {
        let s = spec(1, 1, 3, 5, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let x = random_tensor(&[1, 5, 5], &mut rng);
        let mut k = Tensor::zeros(&[1, 1, 3, 3]);
        *k.at_mut(&[0, 0, 1, 1]) = 1.0;
        let y = conv2d(&x, &k, &s).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn rejects_even_kernel() {
        let s = spec(1, 1, 2, 4, 4);
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_zero_extent() {
        assert!(spec(0, 1, 3, 4, 4).validate().is_err());
        assert!(spec(1, 1, 3, 0, 4).validate().is_err());
    }

    #[test]
    fn rejects_wrong_shapes() {
        let s = spec(2, 3, 3, 4, 4);
        let x = Tensor::zeros(&[1, 4, 4]);
        let k = Tensor::zeros(&[3, 2, 3, 3]);
        assert!(conv2d(&x, &k, &s).is_err());
        let x = Tensor::zeros(&[2, 4, 4]);
        let k = Tensor::zeros(&[3, 2, 3, 5]);
        assert!(conv2d(&x, &k, &s).is_err());
    }

    #[test]
    fn sums_channels() {
        let s = spec(2, 1, 1, 2, 2);
        let x =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 2, 2]).unwrap();
        let k = Tensor::from_vec(vec![1.0, 1.0], &[1, 2, 1, 1]).unwrap();
        let y = conv2d(&x, &k, &s).unwrap();
        assert_eq!(y.as_slice(), &[11.0, 22.0, 33.0, 44.0]);
    }

    /// Finite-difference check of both gradient paths.
    #[test]
    fn gradients_match_finite_difference() {
        let s = spec(2, 3, 3, 4, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let x = random_tensor(&[2, 4, 3], &mut rng);
        let k = random_tensor(&[3, 2, 3, 3], &mut rng);
        let g = random_tensor(&[3, 4, 3], &mut rng);

        // analytic
        let gx = conv2d_input_grad(&g, &k, &s).unwrap();
        let gk = conv2d_kernel_grad(&x, &g, &s).unwrap();

        let loss =
            |x: &Tensor, k: &Tensor| -> f32 { conv2d(x, k, &s).unwrap().mul(&g).unwrap().sum() };
        let eps = 1e-2f32;
        // input grad: spot check several coordinates
        for idx in [0usize, 5, 11, 23] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xp, &k) - loss(&xm, &k)) / (2.0 * eps);
            assert!(
                (fd - gx.as_slice()[idx]).abs() < 1e-2,
                "input grad at {idx}: fd={fd} analytic={}",
                gx.as_slice()[idx]
            );
        }
        // kernel grad
        for idx in [0usize, 8, 17, 53] {
            let mut kp = k.clone();
            kp.as_mut_slice()[idx] += eps;
            let mut km = k.clone();
            km.as_mut_slice()[idx] -= eps;
            let fd = (loss(&x, &kp) - loss(&x, &km)) / (2.0 * eps);
            assert!(
                (fd - gk.as_slice()[idx]).abs() < 1e-2,
                "kernel grad at {idx}: fd={fd} analytic={}",
                gk.as_slice()[idx]
            );
        }
    }

    /// Element-wise `to_bits` equality: unlike `==`, tells `+0` from `-0`.
    fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    /// Optimized forward and both gradient kernels against the oracles.
    fn assert_matches_naive(s: &Conv2dSpec, x: &Tensor, kn: &Tensor, g: &Tensor) {
        let what = format!("{s:?}");
        assert_bits_eq(
            &conv2d(x, kn, s).unwrap(),
            &conv2d_naive(x, kn, s).unwrap(),
            &format!("conv2d {what}"),
        );
        let staged = Conv2dGrad::new(g, s).unwrap();
        assert_bits_eq(
            &staged.input_grad(kn).unwrap(),
            &conv2d_input_grad_naive(g, kn, s).unwrap(),
            &format!("input grad {what}"),
        );
        assert_bits_eq(
            &staged.kernel_grad(x).unwrap(),
            &conv2d_kernel_grad_naive(x, g, s).unwrap(),
            &format!("kernel grad {what}"),
        );
    }

    fn bipolar_tensor(dims: &[usize], rng: &mut StdRng) -> Tensor {
        let n: usize = dims.iter().product();
        let v = (0..n).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 });
        Tensor::from_vec(v.collect(), dims).unwrap()
    }

    /// A gradient as the output STE hands it on: small magnitudes with
    /// exact `+0` and `-0` entries mixed in.
    fn ste_like_grad(dims: &[usize], rng: &mut StdRng) -> Tensor {
        let n: usize = dims.iter().product();
        let v = (0..n).map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0) * 1e-3,
        });
        Tensor::from_vec(v.collect(), dims).unwrap()
    }

    /// The optimized kernels must be bit-identical to the naive oracles
    /// across kernel sizes, non-square maps, rows narrower than one
    /// register segment, and channel counts that leave lane-block tails.
    #[test]
    fn optimized_conv_matches_naive_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(99);
        for &(ci, co, k, h, w) in &[
            (1usize, 1usize, 1usize, 3usize, 3usize),
            (2, 3, 3, 4, 3),
            (3, 2, 3, 7, 11),
            (2, 4, 5, 6, 9),
            (4, 1, 5, 5, 4),
            (1, 2, 7, 9, 8),
            // narrower than a segment, and K = 5 on it
            (3, 5, 3, 4, 6),
            (5, 21, 5, 6, 6),
            // a row of two full segments plus a 4-wide tail
            (2, 19, 3, 3, 37),
        ] {
            let s = spec(ci, co, k, h, w);
            let x = random_tensor(&[ci, h, w], &mut rng);
            let kn = random_tensor(&[co, ci, k, k], &mut rng);
            let g = random_tensor(&[co, h, w], &mut rng);
            assert_matches_naive(&s, &x, &kn, &g);
            // the free functions stage through the same kernels
            assert_eq!(
                conv2d_input_grad(&g, &kn, &s).unwrap(),
                conv2d_input_grad_naive(&g, &kn, &s).unwrap()
            );
            assert_eq!(
                conv2d_kernel_grad(&x, &g, &s).unwrap(),
                conv2d_kernel_grad_naive(&x, &g, &s).unwrap()
            );
        }
    }

    /// The six Table I BiConv geometries `(D_H, O, D_K, W, L)` with the
    /// operands training feeds them: bipolar value maps and binarized
    /// kernels, and gradients carrying exact signed zeros.
    #[test]
    fn table1_geometries_match_naive_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(2025);
        for &(ci, co, k, h, w) in &[
            (8usize, 95usize, 3usize, 16usize, 64usize), // EEGMMI
            (8, 151, 3, 16, 6),                          // BCI-III-V
            (8, 16, 3, 23, 64),                          // CHB-B
            (4, 16, 5, 23, 64),                          // CHB-IB
            (4, 22, 3, 16, 40),                          // ISOLET
            (8, 18, 3, 16, 36),                          // HAR
        ] {
            let s = spec(ci, co, k, h, w);
            let x = bipolar_tensor(&[ci, h, w], &mut rng);
            let kn = bipolar_tensor(&[co, ci, k, k], &mut rng);
            let g = ste_like_grad(&[co, h, w], &mut rng);
            assert_matches_naive(&s, &x, &kn, &g);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        /// Random geometries, including zero taps in every operand.
        #[test]
        fn gradient_kernels_match_naive_on_random_geometries(
            ci in 1usize..7,
            co in 1usize..40,
            k_half in 0usize..3,
            h in 1usize..9,
            w in 1usize..41,
            seed in 0u64..1 << 32,
        ) {
            let k = 2 * k_half + 1;
            let s = spec(ci, co, k, h, w);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = random_tensor(&[ci, h, w], &mut rng)
                .map(|v| if v.abs() < 0.2 { 0.0 } else { v });
            let kn = random_tensor(&[co, ci, k, k], &mut rng)
                .map(|v| if v.abs() < 0.2 { 0.0 } else { v });
            let g = ste_like_grad(&[co, h, w], &mut rng);
            assert_matches_naive(&s, &x, &kn, &g);
        }
    }

    /// Exact zeros in kernel and input exercise the naive zero-skip paths
    /// against the im2col ±0-product additions.
    #[test]
    fn optimized_conv_matches_naive_with_zeros() {
        let s = spec(2, 2, 3, 5, 6);
        let mut rng = StdRng::seed_from_u64(17);
        let mut x = random_tensor(&[2, 5, 6], &mut rng);
        let mut kn = random_tensor(&[2, 2, 3, 3], &mut rng);
        let mut g = random_tensor(&[2, 5, 6], &mut rng);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        for (i, v) in kn.as_mut_slice().iter_mut().enumerate() {
            if i % 4 == 0 {
                *v = 0.0;
            }
        }
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = 0.0;
            }
        }
        assert_eq!(
            conv2d(&x, &kn, &s).unwrap(),
            conv2d_naive(&x, &kn, &s).unwrap()
        );
        assert_eq!(
            conv2d_input_grad(&g, &kn, &s).unwrap(),
            conv2d_input_grad_naive(&g, &kn, &s).unwrap()
        );
        assert_eq!(
            conv2d_kernel_grad(&x, &g, &s).unwrap(),
            conv2d_kernel_grad_naive(&x, &g, &s).unwrap()
        );
    }

    #[test]
    fn output_dims_match_spec() {
        let s = spec(3, 5, 3, 7, 9);
        let mut rng = StdRng::seed_from_u64(3);
        let x = random_tensor(&[3, 7, 9], &mut rng);
        let k = random_tensor(&[5, 3, 3, 3], &mut rng);
        let y = conv2d(&x, &k, &s).unwrap();
        assert_eq!(y.shape().dims(), &[5, 7, 9]);
    }
}

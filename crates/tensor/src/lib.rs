//! # univsa-tensor
//!
//! Minimal dense `f32` tensor substrate used to train the UniVSA "partial
//! BNN" (the low-dimensional-computing training strategy of the paper).
//!
//! This is deliberately a small, CPU-only, row-major tensor library: the
//! training topologies in this workspace are fixed and tiny (an MLP value
//! box, one binary convolution, one binary encoding layer, and a handful of
//! binary dense heads), so the substrate only needs shapes, matrix
//! multiplication, an `im2col` 2-D convolution, reductions, and seeded
//! initializers.
//!
//! # Examples
//!
//! ```
//! use univsa_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), univsa_tensor::ShapeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod error;
mod gemm;
mod init;
mod linalg;
mod shape;
mod tensor;

pub use conv::{
    conv2d, conv2d_input_grad, conv2d_input_grad_naive, conv2d_kernel_grad,
    conv2d_kernel_grad_naive, conv2d_naive, Conv2dGrad, Conv2dSpec,
};
pub use error::ShapeError;
pub use init::{kaiming_uniform, signs, uniform};
pub use shape::Shape;
pub use tensor::Tensor;

#![warn(missing_docs)]
//! # alfi-tensor
//!
//! Dense tensor substrate for the ALFI fault-injection framework.
//!
//! This crate replaces the role PyTorch tensors play in the original
//! PyTorchALFI tool (Gräfe et al., DSN 2023). It provides:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor with NCHW conventions,
//!   elementwise and linear-algebra kernels sufficient for CNN inference;
//! * [`bits`] — bit-level fault primitives on IEEE-754 `f32` values
//!   (single-bit flips, bit-field classification, flip direction), the
//!   core mechanism by which hardware faults are modelled at the
//!   application level;
//! * [`mod@f16`] and [`quant`] — software half-precision (`f16`/`bf16`) and
//!   affine-quantized `int8` numeric types with the same flip API, used
//!   for the paper's "vulnerability of different numeric types" use case;
//! * [`conv`] — convolution and pooling compute kernels used by
//!   `alfi-nn` layers;
//! * [`gemm`] — cache-blocked, panel-packed GEMM microkernels with a
//!   fused bias, plus the `ALFI_KERNEL` reference/blocked path switch.
//!   Both paths are bit-identical by contract;
//! * [`elementwise`] — GELU on the same path switch: the libm
//!   expression on the reference path, a bit-exact AVX2/scalar port of
//!   fdlibm `tanhf` on the blocked path.
//!
//! # Example
//!
//! ```
//! use alfi_tensor::{Tensor, bits};
//!
//! let mut t = Tensor::zeros(&[2, 3]);
//! t.set(&[1, 2], 1.0);
//! // Flip the top exponent bit of one element — a classic SDE-producing fault.
//! let flipped = bits::flip_bit(t.get(&[1, 2]), 30);
//! assert!(flipped > 1.0e30);
//! ```

pub mod bits;
pub mod conv;
pub mod elementwise;
pub mod error;
pub mod f16;
pub mod gemm;
mod meter;
pub mod quant;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::{matmul_rows, Tensor};

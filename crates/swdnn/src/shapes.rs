//! Shape descriptors shared by the kernel library.

/// Why a layer shape was rejected. Kernel entry points check shapes
/// *before* any output-extent arithmetic, so a degenerate configuration
/// (zero-sized spatial dims, kernel larger than the padded input) fails
/// with one of these instead of a usize underflow deep in an index
/// computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// A dimension that must be positive is zero (`which` names it).
    ZeroDim {
        op: &'static str,
        which: &'static str,
    },
    /// Kernel/window size or stride is zero.
    ZeroKernelOrStride { op: &'static str },
    /// The kernel/window does not fit inside the padded input, so the
    /// output extent `(in + 2*pad - k)/stride + 1` would underflow.
    KernelExceedsInput {
        op: &'static str,
        k: usize,
        padded_h: usize,
        padded_w: usize,
    },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::ZeroDim { op, which } => {
                write!(f, "{op}: dimension `{which}` must be positive")
            }
            ShapeError::ZeroKernelOrStride { op } => {
                write!(f, "{op}: kernel size and stride must be positive")
            }
            ShapeError::KernelExceedsInput {
                op,
                k,
                padded_h,
                padded_w,
            } => write!(
                f,
                "{op}: kernel {k} larger than padded input {padded_h}x{padded_w}"
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

impl From<ShapeError> for String {
    fn from(e: ShapeError) -> String {
        e.to_string()
    }
}

/// Dimensions of a GEMM `C (m x n) = A (m x k) * B (k x n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmDims {
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl GemmDims {
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        GemmDims { m, n, k }
    }

    /// Multiply-add flop count (2mnk).
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }
}

/// Whether an operand is stored transposed (row-major storage throughout;
/// `Trans` means the logical `m x k` matrix is stored as `k x m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Trans {
    #[default]
    No,
    Yes,
}

impl Trans {
    pub(crate) fn is_trans(self) -> bool {
        matches!(self, Trans::Yes)
    }
}

/// Configuration of a 2-D convolution, square kernels and symmetric
/// stride/padding as used by all the networks in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Mini-batch size.
    pub batch: usize,
    /// Input channels (paper: N_i).
    pub in_c: usize,
    /// Input height (paper: R_i).
    pub in_h: usize,
    /// Input width (paper: C_i).
    pub in_w: usize,
    /// Output channels / filters (paper: N_o).
    pub out_c: usize,
    /// Filter size K (K x K).
    pub k: usize,
    /// Stride S.
    pub stride: usize,
    /// Zero padding P.
    pub pad: usize,
}

impl ConvShape {
    /// Output height: (R_i + 2P - K)/S + 1.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Output width: (C_i + 2P - K)/S + 1.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Elements of the input tensor (B, N_i, R_i, C_i).
    pub fn input_len(&self) -> usize {
        self.batch * self.in_c * self.in_h * self.in_w
    }

    /// Elements of the output tensor (B, N_o, R_o, C_o).
    pub fn output_len(&self) -> usize {
        self.batch * self.out_c * self.out_h() * self.out_w()
    }

    /// Elements of the filter tensor (N_o, N_i, K, K).
    pub fn weight_len(&self) -> usize {
        self.out_c * self.in_c * self.k * self.k
    }

    /// Rows of the im2col matrix for one image: K*K*N_i.
    pub fn col_rows(&self) -> usize {
        self.k * self.k * self.in_c
    }

    /// Columns of the im2col matrix for one image: R_o * C_o.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Forward multiply-add flops for the whole batch.
    pub fn forward_flops(&self) -> u64 {
        2 * self.batch as u64
            * self.out_c as u64
            * self.out_h() as u64
            * self.out_w() as u64
            * self.in_c as u64
            * (self.k * self.k) as u64
    }

    /// Validate that the geometry is consistent. Every conv/im2col kernel
    /// entry point calls this before touching output extents, so the
    /// `out_h()`/`out_w()` subtraction can never underflow on a shape
    /// that got past it.
    pub fn validate(&self) -> Result<(), ShapeError> {
        const OP: &str = "conv";
        for (which, v) in [
            ("batch", self.batch),
            ("in_c", self.in_c),
            ("in_h", self.in_h),
            ("in_w", self.in_w),
            ("out_c", self.out_c),
        ] {
            if v == 0 {
                return Err(ShapeError::ZeroDim { op: OP, which });
            }
        }
        if self.k == 0 || self.stride == 0 {
            return Err(ShapeError::ZeroKernelOrStride { op: OP });
        }
        if self.in_h + 2 * self.pad < self.k || self.in_w + 2 * self.pad < self.k {
            return Err(ShapeError::KernelExceedsInput {
                op: OP,
                k: self.k,
                padded_h: self.in_h + 2 * self.pad,
                padded_w: self.in_w + 2 * self.pad,
            });
        }
        Ok(())
    }
}

/// Pooling operator type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMethod {
    Max,
    Average,
}

/// Configuration of a 2-D pooling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolShape {
    pub batch: usize,
    pub channels: usize,
    pub in_h: usize,
    pub in_w: usize,
    /// Window size K (K x K tiles).
    pub k: usize,
    pub stride: usize,
    pub pad: usize,
    pub method: PoolMethod,
}

impl PoolShape {
    /// Caffe-style ceil-mode output size, clipped so windows start inside
    /// the padded input.
    pub fn out_h(&self) -> usize {
        pooled_dim(self.in_h, self.k, self.stride, self.pad)
    }

    pub fn out_w(&self) -> usize {
        pooled_dim(self.in_w, self.k, self.stride, self.pad)
    }

    pub fn input_len(&self) -> usize {
        self.batch * self.channels * self.in_h * self.in_w
    }

    pub fn output_len(&self) -> usize {
        self.batch * self.channels * self.out_h() * self.out_w()
    }

    /// Validate that the geometry is consistent (see
    /// [`ConvShape::validate`] for the contract).
    pub fn validate(&self) -> Result<(), ShapeError> {
        const OP: &str = "pool";
        for (which, v) in [
            ("batch", self.batch),
            ("channels", self.channels),
            ("in_h", self.in_h),
            ("in_w", self.in_w),
        ] {
            if v == 0 {
                return Err(ShapeError::ZeroDim { op: OP, which });
            }
        }
        if self.k == 0 || self.stride == 0 {
            return Err(ShapeError::ZeroKernelOrStride { op: OP });
        }
        if self.in_h + 2 * self.pad < self.k || self.in_w + 2 * self.pad < self.k {
            return Err(ShapeError::KernelExceedsInput {
                op: OP,
                k: self.k,
                padded_h: self.in_h + 2 * self.pad,
                padded_w: self.in_w + 2 * self.pad,
            });
        }
        Ok(())
    }
}

fn pooled_dim(in_dim: usize, k: usize, stride: usize, pad: usize) -> usize {
    // Caffe: ceil((in + 2*pad - k) / stride) + 1, then clip the last window
    // to start within the input + padding.
    let mut out = (in_dim + 2 * pad - k).div_ceil(stride) + 1;
    if pad > 0 && (out - 1) * stride >= in_dim + pad {
        out -= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg_conv1_1_shape() {
        // VGG-16 conv1_1: 3 -> 64 channels, 224x224, k=3, s=1, p=1.
        let c = ConvShape {
            batch: 128,
            in_c: 3,
            in_h: 224,
            in_w: 224,
            out_c: 64,
            k: 3,
            stride: 1,
            pad: 1,
        };
        c.validate().unwrap();
        assert_eq!(c.out_h(), 224);
        assert_eq!(c.out_w(), 224);
        assert_eq!(c.col_rows(), 27);
        assert_eq!(c.col_cols(), 224 * 224);
    }

    #[test]
    fn alexnet_conv1_shape() {
        // AlexNet conv1: 3 -> 96, 227x227, k=11, s=4, p=0 -> 55x55.
        let c = ConvShape {
            batch: 256,
            in_c: 3,
            in_h: 227,
            in_w: 227,
            out_c: 96,
            k: 11,
            stride: 4,
            pad: 0,
        };
        assert_eq!(c.out_h(), 55);
        assert_eq!(c.out_w(), 55);
    }

    #[test]
    fn pool_ceil_mode_matches_caffe() {
        // AlexNet pool1: 55x55, k=3, s=2 -> 27x27 (ceil mode).
        let p = PoolShape {
            batch: 1,
            channels: 96,
            in_h: 55,
            in_w: 55,
            k: 3,
            stride: 2,
            pad: 0,
            method: PoolMethod::Max,
        };
        assert_eq!(p.out_h(), 27);
        assert_eq!(p.out_w(), 27);
    }

    #[test]
    fn gemm_flops() {
        assert_eq!(GemmDims::new(2, 3, 4).flops(), 48);
    }

    #[test]
    fn invalid_conv_rejected() {
        let c = ConvShape {
            batch: 1,
            in_c: 1,
            in_h: 2,
            in_w: 2,
            out_c: 1,
            k: 5,
            stride: 1,
            pad: 0,
        };
        assert!(matches!(
            c.validate(),
            Err(ShapeError::KernelExceedsInput { k: 5, .. })
        ));
    }

    #[test]
    fn degenerate_conv_shapes_are_typed_errors() {
        let base = ConvShape {
            batch: 2,
            in_c: 3,
            in_h: 8,
            in_w: 8,
            out_c: 4,
            k: 3,
            stride: 1,
            pad: 1,
        };
        // 0-sized spatial dim.
        let mut c = base;
        c.in_h = 0;
        assert_eq!(
            c.validate(),
            Err(ShapeError::ZeroDim {
                op: "conv",
                which: "in_h"
            })
        );
        // Zero batch / channels.
        let mut c = base;
        c.batch = 0;
        assert!(matches!(c.validate(), Err(ShapeError::ZeroDim { .. })));
        let mut c = base;
        c.in_c = 0;
        assert!(matches!(c.validate(), Err(ShapeError::ZeroDim { .. })));
        // Zero stride.
        let mut c = base;
        c.stride = 0;
        assert!(matches!(
            c.validate(),
            Err(ShapeError::ZeroKernelOrStride { .. })
        ));
        // Stride larger than the extent is degenerate but well-defined:
        // one output position.
        let mut c = base;
        c.stride = 50;
        c.validate().unwrap();
        assert_eq!((c.out_h(), c.out_w()), (1, 1));
        // The error converts into the String the layer builders expect.
        let mut c = base;
        c.k = 0;
        let as_string: String = c.validate().unwrap_err().into();
        assert!(as_string.contains("kernel size and stride"), "{as_string}");
    }

    #[test]
    fn degenerate_pool_shapes_are_typed_errors() {
        let base = PoolShape {
            batch: 1,
            channels: 4,
            in_h: 6,
            in_w: 6,
            k: 2,
            stride: 2,
            pad: 0,
            method: PoolMethod::Max,
        };
        base.validate().unwrap();
        let mut p = base;
        p.in_w = 0;
        assert_eq!(
            p.validate(),
            Err(ShapeError::ZeroDim {
                op: "pool",
                which: "in_w"
            })
        );
        let mut p = base;
        p.k = 9;
        assert!(matches!(
            p.validate(),
            Err(ShapeError::KernelExceedsInput { .. })
        ));
        let mut p = base;
        p.stride = 0;
        assert!(matches!(
            p.validate(),
            Err(ShapeError::ZeroKernelOrStride { .. })
        ));
    }
}

//! Device descriptions (Table I) and per-layer roofline models.

use swdnn::ConvShape;

/// Static specification of a processor, as in Table I.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSpec {
    pub name: &'static str,
    pub release_year: u32,
    pub bandwidth_gbs: f64,
    pub float_tflops: f64,
    pub double_tflops: f64,
}

impl DeviceSpec {
    /// Peak single-precision rate in flops/s.
    pub fn peak_flops(&self) -> f64 {
        self.float_tflops * 1e12
    }

    /// Memory bandwidth in bytes/s.
    pub(crate) fn mem_bandwidth(&self) -> f64 {
        self.bandwidth_gbs * 1e9
    }

    /// Machine balance in flops per byte — the roofline knee: work with a
    /// lower arithmetic intensity is bandwidth-bound on this device.
    pub fn machine_balance(&self) -> f64 {
        self.peak_flops() / self.mem_bandwidth()
    }
}

/// Table I, column SW26010.
pub fn sw26010_spec() -> DeviceSpec {
    DeviceSpec {
        name: "SW26010",
        release_year: 2014,
        bandwidth_gbs: 128.0,
        float_tflops: 3.02,
        double_tflops: 3.02,
    }
}

/// Table I, column NVIDIA K40m.
pub fn k40m_spec() -> DeviceSpec {
    DeviceSpec {
        name: "Nvidia K40m",
        release_year: 2013,
        bandwidth_gbs: 288.0,
        float_tflops: 4.29,
        double_tflops: 1.43,
    }
}

/// Table I, column Intel Knights Landing.
pub fn intel_knl_spec() -> DeviceSpec {
    DeviceSpec {
        name: "Intel KNL",
        release_year: 2016,
        bandwidth_gbs: 475.0,
        float_tflops: 6.92,
        double_tflops: 3.46,
    }
}

/// A comparator device with the calibration knobs of its software stack.
#[derive(Debug, Clone, Copy)]
pub struct Device {
    /// Peak single-precision flops/s.
    pub(crate) peak_flops: f64,
    /// Device memory bandwidth, bytes/s.
    pub(crate) mem_bw: f64,
    /// Best-case fraction of peak the conv/GEMM library achieves on
    /// large, well-shaped problems.
    pub(crate) gemm_eff: f64,
    /// Receptive-field size (in_channels * k * k) below which library
    /// efficiency degrades linearly (thin GEMMs, tail effects).
    pub(crate) eff_knee: f64,
    /// Floor on the efficiency degradation factor.
    pub(crate) eff_floor: f64,
    /// Fixed overhead per layer invocation (kernel launch / dispatch).
    pub(crate) layer_overhead: f64,
    /// Host-side input-pipeline cost per image per iteration (decode +
    /// transform + PCIe for GPUs; zero where the data is consumed in
    /// place). The paper: "data reading ... accounts for over 40% \[of\]
    /// AlexNet" on the K40m.
    pub(crate) input_pipeline_per_image: f64,
}

/// Caffe + cuDNN v5.1 on a K40m, calibrated to Table III.
pub fn gpu_k40m() -> Device {
    Device {
        peak_flops: 4.29e12,
        mem_bw: 288.0e9,
        gemm_eff: 0.33,
        eff_knee: 900.0,
        eff_floor: 0.30,
        layer_overhead: 20.0e-6,
        input_pipeline_per_image: 6.5e-3,
    }
}

/// Caffe + OpenBLAS on the 12-core E5-2680 v3, calibrated to Table III.
pub fn cpu_e5_2680v3() -> Device {
    Device {
        peak_flops: 1.28e12,
        mem_bw: 68.0e9,
        gemm_eff: 0.085,
        eff_knee: 900.0,
        eff_floor: 0.4,
        layer_overhead: 5.0e-6,
        input_pipeline_per_image: 0.0,
    }
}

impl Device {
    /// Library efficiency for a convolution shape: degrades when the
    /// GEMM's shared dimension (in_channels * k^2) is thin.
    fn conv_eff(&self, shape: &ConvShape) -> f64 {
        let k_dim = (shape.in_c * shape.k * shape.k) as f64;
        let factor = (k_dim / self.eff_knee).clamp(self.eff_floor, 1.0);
        self.gemm_eff * factor
    }

    fn roofline(&self, flops: f64, bytes: f64, eff: f64) -> f64 {
        self.layer_overhead + (flops / (self.peak_flops * eff)).max(bytes / self.mem_bw)
    }

    /// Convolution forward time for the whole batch.
    pub fn conv_forward(&self, shape: &ConvShape) -> f64 {
        let flops = shape.forward_flops() as f64;
        let bytes = 4.0
            * (shape.input_len() + shape.output_len() + shape.weight_len() * shape.batch.min(8))
                as f64;
        self.roofline(flops, bytes, self.conv_eff(shape))
    }

    /// Convolution backward time (both gradients: ~2x the forward work).
    pub fn conv_backward(&self, shape: &ConvShape, input_grad_needed: bool) -> f64 {
        let passes = if input_grad_needed { 2.0 } else { 1.0 };
        let flops = passes * shape.forward_flops() as f64;
        let bytes = (1.0 + passes) * 4.0 * (shape.input_len() + shape.output_len()) as f64;
        self.layer_overhead
            + (flops / (self.peak_flops * self.conv_eff(shape))).max(bytes / self.mem_bw)
    }

    /// Dense (inner-product) layer, `m x n x k` GEMM per pass.
    pub fn gemm(&self, m: usize, n: usize, k: usize) -> f64 {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let bytes = 4.0 * (m * k + k * n + m * n) as f64;
        // Dense layers at small batch are weight-bandwidth-bound; the knee
        // keys on the reduction dimension.
        let factor = ((k as f64) / self.eff_knee).clamp(self.eff_floor, 1.0);
        self.roofline(flops, bytes, self.gemm_eff * factor)
    }

    /// Memory-bound streaming op over `elems` elements with `streams`
    /// tensor traversals.
    pub(crate) fn streaming(&self, elems: usize, streams: usize) -> f64 {
        self.layer_overhead + (elems * streams) as f64 * 4.0 / self.mem_bw
    }

    /// Host input pipeline for one iteration of `batch` images.
    pub(crate) fn input_pipeline(&self, batch: usize) -> f64 {
        batch as f64 * self.input_pipeline_per_image
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vgg_conv(ni: usize, no: usize, hw: usize, b: usize) -> ConvShape {
        ConvShape {
            batch: b,
            in_c: ni,
            in_h: hw,
            in_w: hw,
            out_c: no,
            k: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn table_i_specs() {
        let sw = sw26010_spec();
        assert_eq!(
            sw.float_tflops, sw.double_tflops,
            "SW26010 has no native SP"
        );
        // The SW26010's defining imbalance (Sec. II-A): ~23.6 flops/byte
        // against DRAM, an order past contemporary GPUs.
        assert!((sw.machine_balance() - 3.02e12 / 128.0e9).abs() < 1e-9);
        assert!(sw.machine_balance() > 20.0);
        let gpu = k40m_spec();
        assert!(gpu.float_tflops > 3.0 * gpu.double_tflops / 1.1);
        let knl = intel_knl_spec();
        assert!(knl.bandwidth_gbs > gpu.bandwidth_gbs);
    }

    #[test]
    fn gpu_fast_on_large_convs() {
        let gpu = gpu_k40m();
        let shape = vgg_conv(256, 256, 56, 64);
        let t = gpu.conv_forward(&shape);
        let achieved = shape.forward_flops() as f64 / t;
        // cuDNN-era K40m: hundreds of Gflops on big VGG layers.
        assert!(achieved > 300.0e9, "achieved {achieved:.3e}");
        assert!(achieved < 4.29e12);
    }

    #[test]
    fn gpu_thin_convs_degrade() {
        let gpu = gpu_k40m();
        let big = vgg_conv(256, 256, 56, 4);
        let thin = ConvShape { in_c: 3, ..big };
        let rate = |s: &ConvShape| s.forward_flops() as f64 / gpu.conv_forward(s);
        assert!(rate(&thin) < 0.6 * rate(&big));
    }

    #[test]
    fn cpu_is_an_order_slower_than_gpu() {
        let gpu = gpu_k40m();
        let cpu = cpu_e5_2680v3();
        let shape = vgg_conv(128, 128, 112, 16);
        assert!(cpu.conv_forward(&shape) > 5.0 * gpu.conv_forward(&shape));
    }

    #[test]
    fn streaming_ops_are_bandwidth_bound() {
        let gpu = gpu_k40m();
        // 100 MB of pooling on the GPU: well under a millisecond beyond
        // the launch overhead.
        let t = gpu.streaming(25_000_000, 2);
        assert!(t < 1.0e-3);
        assert!(t > 25_000_000.0 * 8.0 / 288.0e9);
    }
}

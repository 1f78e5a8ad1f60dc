//! # baselines — the paper's comparator systems as roofline cost models
//!
//! The paper compares swCaffe on SW26010 against Caffe+cuDNN on an NVIDIA
//! K40m and Caffe+OpenBLAS on a 12-core Xeon E5-2680 v3 (Table I specs,
//! Table III throughputs, Figs. 8/9 per-layer times). Neither device is
//! available here, so both are modelled: per-layer roofline costs
//! (`max(flops / effective_peak, bytes / bandwidth)` plus fixed per-layer
//! launch overheads) with efficiency knobs calibrated to the throughputs
//! the paper measured. The GPU additionally pays a host-side data-pipeline
//! cost per image (LMDB decode + PCIe transfer), which is what lets
//! swCaffe *beat* the K40m on AlexNet in Table III despite the GPU's
//! higher peak.

pub(crate) mod device;
pub mod eval;

pub use device::{
    cpu_e5_2680v3, gpu_k40m, intel_knl_spec, k40m_spec, sw26010_spec, Device, DeviceSpec,
};
pub use eval::{network_times, throughput_img_per_sec, LayerTime};

//! Fig. 2: DMA get/put bandwidth for continuous and strided access
//! patterns, as a function of per-CPE data size / block size and the
//! number of CPEs issuing concurrently.

use std::fmt::Write as _;

use sw26010::{dma, CoreGroup, ExecMode, MemView, MemViewMut};
use swprof::{KernelRecord, Report};

const GB: f64 = 1.0e9;
const CPE_COUNTS: [usize; 5] = [1, 8, 16, 32, 64];

pub fn run(_args: &[String]) -> (String, Report) {
    let mut out = String::new();
    let mut report = Report::new("fig2_dma");

    writeln!(
        out,
        "Fig. 2 (left): continuous DMA, aggregate bandwidth (GB/s)"
    )
    .unwrap();
    write!(out, "{:>10}", "size").unwrap();
    for n in CPE_COUNTS {
        write!(out, "{:>9}", format!("{n}CPE")).unwrap();
    }
    writeln!(out).unwrap();
    for size in [
        128, 256, 512, 1024, 2048, 4096, 8192, 16384, 24576, 32768, 49152,
    ] {
        write!(out, "{:>10}", human(size)).unwrap();
        for n in CPE_COUNTS {
            let bw = dma::continuous_aggregate_bandwidth(size, n) / GB;
            write!(out, "{bw:>9.2}").unwrap();
            report.real(&format!("continuous_gbs.{size}B.{n}cpe"), bw);
        }
        writeln!(out).unwrap();
    }

    writeln!(out).unwrap();
    writeln!(
        out,
        "Fig. 2 (right): strided DMA (32 KB total per CPE), aggregate bandwidth (GB/s)"
    )
    .unwrap();
    write!(out, "{:>10}", "block").unwrap();
    for n in CPE_COUNTS {
        write!(out, "{:>9}", format!("{n}CPE")).unwrap();
    }
    writeln!(out).unwrap();
    let total = 32 * 1024;
    for block in [
        4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
    ] {
        write!(out, "{:>10}", human(block)).unwrap();
        for n in CPE_COUNTS {
            let bw = dma::strided_aggregate_bandwidth(block, total, n) / GB;
            write!(out, "{bw:>9.2}").unwrap();
            report.real(&format!("strided_gbs.{block}B.{n}cpe"), bw);
        }
        writeln!(out).unwrap();
    }

    let peak = dma::continuous_aggregate_bandwidth(32768, 64) / GB;
    let mpe = 1.0 / dma::mpe_memcpy_time(1_000_000_000).seconds();
    writeln!(out).unwrap();
    writeln!(
        out,
        "Reference points: 64-CPE continuous saturates at {peak:.1} GB/s (paper: ~28); \
         MPE memcpy path: {mpe:.1} GB/s (paper: 9.9).",
    )
    .unwrap();
    report.real("reference.continuous_64cpe_gbs", peak);
    report.real("reference.mpe_memcpy_gbs", mpe);

    // A real DMA round-trip microkernel on one core group: every CPE
    // fetches 1 KB, scales it, writes it back. The counter snapshot gates
    // the DMA accounting itself (bytes, request count) at 0% tolerance.
    let n = 256usize;
    let input = vec![1.0f32; 64 * n];
    let mut output = vec![0.0f32; 64 * n];
    let src = MemView::new(&input);
    let dst = MemViewMut::new(&mut output);
    let mut cg = CoreGroup::new(ExecMode::Functional);
    cg.run(64, |cpe| {
        let mut buf = cpe.ldm.alloc_f32(n);
        cpe.dma_get(src, cpe.idx() * n, &mut buf);
        cpe.compute(n as u64, || {
            for v in buf.iter_mut() {
                *v *= 2.0;
            }
        });
        cpe.dma_put(dst, cpe.idx() * n, &buf);
    });
    assert!(
        output.iter().all(|&v| v == 2.0),
        "DMA round-trip corrupted data"
    );
    report.kernel_with_metrics(
        KernelRecord::new("dma_roundtrip", cg.stats().into()).with_roofline(
            sw26010::arch::CPE_CLUSTER_PEAK_FLOPS,
            sw26010::arch::DMA_PEAK_BANDWIDTH,
        ),
    );

    (out, report)
}

fn human(bytes: usize) -> String {
    if bytes >= 1024 {
        format!("{}K", bytes / 1024)
    } else {
        format!("{bytes}")
    }
}

//! Ablations of the design choices DESIGN.md calls out:
//!  1. register-communication GEMM vs per-CPE DMA replication (Principle 4)
//!  2. topology-aware vs natural vs ring vs binomial all-reduce
//!  3. CPE-cluster vs MPE reduction arithmetic
//!  4. packed vs per-layer gradient all-reduce
//!  5. striped vs single-split training-set layout
//!  6. continuous-DMA chunk size (Principle 3)

use std::fmt::Write as _;

use swdnn::gemm::time_model_no_rlc;
use swdnn::{Buffering, GemmDims, TilingScheme};
use swio::{IoModel, Layout};
use swnet::{allreduce, Algorithm, NetParams, RankMap, ReduceEngine, Topology};
use swprof::Report;

pub fn run(_args: &[String]) -> (String, Report) {
    let mut out = String::new();
    let mut report = Report::new("ablations");

    writeln!(
        out,
        "=== Ablation 1: GEMM with vs without register communication ==="
    )
    .unwrap();
    writeln!(out, "    (plus the double-buffered design-space probe)").unwrap();
    for (m, n, k) in [(512, 512, 512), (1024, 1024, 1024), (4096, 4096, 1024)] {
        let dims = GemmDims::new(m, n, k);
        let hand = TilingScheme::hand(dims);
        let double = TilingScheme {
            buffering: Buffering::Double,
            ..hand
        };
        let with = hand.time_model(dims, 0.0).seconds();
        let without = time_model_no_rlc(dims, hand.tile).seconds();
        let db = double.time_model(dims, 0.0).seconds();
        writeln!(
            out,
            "  {m}x{n}x{k}: RLC {:.3} ms, no-RLC {:.3} ms ({:.2}x from Principle 4),              double-buffered {:.3} ms ({:.2}x further)",
            with * 1e3,
            without * 1e3,
            without / with,
            db * 1e3,
            with / db
        )
        .unwrap();
        report.real(&format!("gemm.{m}x{n}x{k}.rlc_s"), with);
        report.real(&format!("gemm.{m}x{n}x{k}.no_rlc_s"), without);
        report.real(&format!("gemm.{m}x{n}x{k}.double_buffered_s"), db);
    }

    writeln!(out).unwrap();
    writeln!(
        out,
        "=== Ablation 2: all-reduce algorithm (1024 nodes, 232.6 MB) ==="
    )
    .unwrap();
    let topo = Topology::new(1024);
    let params = NetParams::sunway_allreduce(ReduceEngine::CpeClusters);
    let elems = 58_150_000;
    for (label, key, map, algo) in [
        (
            "topology-aware RHD (swCaffe)",
            "rhd_topology",
            RankMap::RoundRobin,
            Algorithm::RecursiveHalvingDoubling,
        ),
        (
            "natural RHD (stock MPICH)",
            "rhd_natural",
            RankMap::Natural,
            Algorithm::RecursiveHalvingDoubling,
        ),
        ("ring", "ring", RankMap::Natural, Algorithm::Ring),
        (
            "binomial tree",
            "binomial",
            RankMap::Natural,
            Algorithm::Binomial,
        ),
    ] {
        let r = allreduce(&topo, &params, map, algo, elems, None);
        writeln!(
            out,
            "  {label:<30} {:>8.3} s  ({} steps, {:.1} GB across the switch)",
            r.elapsed.seconds(),
            r.steps,
            r.cross_bytes as f64 / 1e9
        )
        .unwrap();
        report.real(&format!("allreduce.{key}.elapsed_s"), r.elapsed.seconds());
        report.count(&format!("allreduce.{key}.steps"), r.steps as u64);
        report.count(&format!("allreduce.{key}.cross_bytes"), r.cross_bytes);
    }
    let ps = swnet::parameter_server_round(&topo, &params, 0, elems);
    writeln!(
        out,
        "  {:<30} {:>8.3} s  (one port serialises all traffic; Sec. V-A's rejected design)",
        "parameter server",
        ps.seconds()
    )
    .unwrap();
    report.real("allreduce.parameter_server.elapsed_s", ps.seconds());

    writeln!(out).unwrap();
    writeln!(
        out,
        "=== Ablation 3: reduction arithmetic engine (1024 nodes, 232.6 MB) ==="
    )
    .unwrap();
    for (label, key, engine) in [
        ("CPE clusters", "cpe_clusters", ReduceEngine::CpeClusters),
        ("MPE", "mpe", ReduceEngine::Mpe),
    ] {
        let p = NetParams::sunway_allreduce(engine);
        let r = allreduce(
            &topo,
            &p,
            RankMap::RoundRobin,
            Algorithm::RecursiveHalvingDoubling,
            elems,
            None,
        );
        writeln!(out, "  {label:<14} {:>8.3} s", r.elapsed.seconds()).unwrap();
        report.real(
            &format!("reduce_engine.{key}.elapsed_s"),
            r.elapsed.seconds(),
        );
    }

    writeln!(out).unwrap();
    writeln!(
        out,
        "=== Ablation 4: packed vs per-layer gradient all-reduce (64 nodes, VGG-16) ==="
    )
    .unwrap();
    let vgg_layers: Vec<usize> = vec![
        1_728,
        36_864,
        73_728,
        147_456,
        294_912,
        589_824,
        589_824,
        1_179_648,
        2_359_296,
        2_359_296,
        2_359_296,
        2_359_296,
        2_359_296,
        102_760_448,
        16_777_216,
        4_096_000,
    ];
    let topo64 = Topology::with_supernode(64, 32);
    let (per_layer, packed) =
        swtrain::packing::per_layer_vs_packed(&topo64, &params, RankMap::RoundRobin, &vgg_layers);
    writeln!(
        out,
        "  per-layer: {per_layer:.3} s   packed: {packed:.3} s   -> {:.2}x",
        per_layer / packed
    )
    .unwrap();
    report.real("packing.per_layer_s", per_layer);
    report.real("packing.packed_s", packed);

    writeln!(out).unwrap();
    writeln!(
        out,
        "=== Ablation 5: file layout (192 MB mini-batch per node) ==="
    )
    .unwrap();
    let batch = 192 << 20;
    for n in [8usize, 64, 256, 1024] {
        let single = IoModel::taihulight(Layout::SingleSplit)
            .batch_read_time(n, batch)
            .seconds();
        let striped = IoModel::taihulight(Layout::paper_striped())
            .batch_read_time(n, batch)
            .seconds();
        writeln!(
            out,
            "  {n:>4} readers: single-split {single:>8.2} s/batch, striped {striped:>6.2} s/batch ({:.0}x)",
            single / striped
        )
        .unwrap();
        report.real(&format!("io.{n}readers.single_split_s"), single);
        report.real(&format!("io.{n}readers.striped_s"), striped);
    }

    writeln!(out).unwrap();
    writeln!(
        out,
        "=== Ablation 6: DMA transfer granularity (Principle 3) ==="
    )
    .unwrap();
    for size in [256usize, 1024, 4096, 16384] {
        let bw = sw26010::dma::continuous_aggregate_bandwidth(size, 64) / 1e9;
        writeln!(out, "  {size:>6} B per CPE: {bw:>6.2} GB/s aggregate").unwrap();
        report.real(&format!("dma.{size}B_per_cpe_gbs"), bw);
    }
    (out, report)
}

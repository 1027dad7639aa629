//! Criterion bench of the incremental indexed engine (`MT-LR-PAR`) at widths
//! 4–6 on the redundant-binary Kogge-Stone architecture whose term growth
//! the index was built to contain, plus the scan-based MT-LR reference at
//! width 4 for scale (at width 6 the reference runs for seconds, so only the
//! indexed engine sweeps the full width range).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbmv_bench::session_verify;
use gbmv_core::Method;
use gbmv_genmul::MultiplierSpec;

fn bench_indexed_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("indexed_reduction");
    group.sample_size(10);
    for width in [4usize, 5, 6] {
        let netlist = MultiplierSpec::parse("SP-RT-KS", width)
            .expect("architecture")
            .build();
        group.bench_with_input(
            BenchmarkId::new("MT-LR-PAR/SP-RT-KS", width),
            &netlist,
            |b, nl| {
                b.iter(|| session_verify(nl, width, Method::MtLrPar));
            },
        );
    }
    let netlist = MultiplierSpec::parse("SP-RT-KS", 4)
        .expect("architecture")
        .build();
    group.bench_with_input(
        BenchmarkId::new("MT-LR/SP-RT-KS", 4usize),
        &netlist,
        |b, nl| {
            b.iter(|| session_verify(nl, 4, Method::MtLr));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_indexed_reduction);
criterion_main!(benches);

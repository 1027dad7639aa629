//! Ablation bench: the cost of the individual rewriting schemes (fanout, XOR,
//! XOR+common) on the same circuit, plus MT-LR with logic reduction off
//! (`VanishingRules::Off`). Complements the `ablation` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbmv_core::{
    AlgebraicModel, FanoutRewrite, LogicReductionRewrite, PhaseContext, RewriteStrategy,
    VanishingRules, XorRewrite,
};
use gbmv_genmul::MultiplierSpec;

fn bench_rewriting_schemes(c: &mut Criterion) {
    let width = 8;
    let netlist = MultiplierSpec::parse("SP-CT-BK", width)
        .expect("architecture")
        .build();
    let base_model = AlgebraicModel::from_netlist(&netlist).unwrap();
    let mut group = c.benchmark_group("ablation_rewriting");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("scheme", "fanout"), &base_model, |b, m| {
        b.iter(|| {
            let mut model = m.clone();
            FanoutRewrite.rewrite(&mut model, &PhaseContext::default());
            model.num_polynomials()
        });
    });
    group.bench_with_input(BenchmarkId::new("scheme", "xor"), &base_model, |b, m| {
        b.iter(|| {
            let mut model = m.clone();
            XorRewrite.rewrite(&mut model, &PhaseContext::default());
            model.num_polynomials()
        });
    });
    group.bench_with_input(
        BenchmarkId::new("scheme", "logic_reduction"),
        &base_model,
        |b, m| {
            b.iter(|| {
                let mut model = m.clone();
                LogicReductionRewrite.rewrite(&mut model, &PhaseContext::default());
                model.num_polynomials()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("scheme", "logic_reduction_no_rules"),
        &base_model,
        |b, m| {
            b.iter(|| {
                let mut model = m.clone();
                let ctx = PhaseContext {
                    rules: VanishingRules::Off,
                    ..PhaseContext::default()
                };
                LogicReductionRewrite.rewrite(&mut model, &ctx);
                model.num_polynomials()
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_rewriting_schemes);
criterion_main!(benches);

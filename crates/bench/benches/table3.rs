//! Criterion bench corresponding to Table III: isolates the Gröbner basis
//! reduction time after logic reduction rewriting (the paper reports that
//! reduction is only a fraction of the MT-LR total).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbmv_core::{
    AlgebraicModel, GreedyReduction, LogicReductionRewrite, PhaseContext, ReductionStrategy,
    RewriteStrategy, Spec,
};
use gbmv_genmul::MultiplierSpec;

fn bench_table3(c: &mut Criterion) {
    let width = 8;
    let mut group = c.benchmark_group("table3_gb_reduction");
    group.sample_size(10);
    for arch in ["BP-WT-CL", "SP-CT-BK", "SP-DT-HC"] {
        let netlist = MultiplierSpec::parse(arch, width)
            .expect("architecture")
            .build();
        // Prepare the rewritten model once; the bench measures the reduction.
        let pristine = AlgebraicModel::from_netlist(&netlist).expect("acyclic");
        let (spec, _modulus) = Spec::multiplier(width)
            .instantiate(&pristine)
            .expect("interface");
        let mut model = pristine.clone();
        LogicReductionRewrite.rewrite(&mut model, &PhaseContext::default());
        group.bench_with_input(
            BenchmarkId::new("gb_reduction_after_mtlr", arch),
            &(model, spec),
            |b, (model, spec)| {
                b.iter(|| {
                    let (r, stats) = GreedyReduction { vanishing: false }.reduce(
                        model,
                        spec,
                        &PhaseContext::default(),
                    );
                    assert_eq!(stats.stop, None);
                    assert!(r.drop_multiples_of_pow2(2 * width as u32).is_zero());
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);

//! Differential harness for the indexed rewriting engine: the Step-2 rewrite
//! on the incrementally indexed term store
//! (`IndexedLogicReductionRewrite`, the rewriter of `MT-LR-PAR`) must
//! produce **term-for-term identical post-rewrite models** to the scan-based
//! `LogicReductionRewrite` oracle across every genmul architecture at
//! width 4, the paper's ten architectures at widths 5–6, and fault-injected
//! mutants. `tests/parallel_equivalence.rs` pins the full pipeline's verdicts
//! on the same circuits against the MT-LR oracle; this file runs no full
//! pipeline, so each oracle result is computed once, there.
//!
//! Both strategies run through their `RewriteStrategy` entry, under one
//! `PhaseContext` with `rules: VanishingRules::XorAnd` and
//! `modulus_bits: Some(2n)`. The byte-identity comparison thus runs the
//! indexed engine in its **tracker mode**: the same static per-monomial
//! pattern test as the oracle's tracker, judged at insertion instead of by
//! post-step sweeps. Both sides' coefficients are
//! canonicalized modulo `2^(2n)` before the sorted term dumps are compared:
//! the indexed engine *stores* the canonical representative in
//! `[0, 2^(2n))`, while the oracle keeps exact integers, and the two only
//! ever differ by multiples of `2^(2n)`, which the zero test quotients out.
//! Everything else — which polynomials survive `UpdateModel`, which
//! monomials each tail contains, every canonical coefficient — must be
//! bit-identical.
//!
//! The same circuits also pin the **spec-weighted** tails that `MT-LR-PAR`
//! builds: with the weights `W(v)` of `spec_weights` in the context's
//! `spec_weights`, the indexed engine keeps the tail of `v` modulo
//! `2^(2n - W(v))` only. That run must keep the
//! oracle's polynomial set, and every tail must equal the oracle's tail
//! reduced modulo `2^(2n - W(v))`.
//!
//! The file also pins a cancel landing as Step 2 starts: it must surface as
//! `Outcome::Cancelled` before any rewrite or reduction work.

mod common;

use std::time::Duration;

use common::{all_architectures, fault_injected_mutants, PAPER_ARCHITECTURES};
use gbmv::core::rewrite::spec_weights;
use gbmv::core::{
    AlgebraicModel, IndexedLogicReductionRewrite, LogicReductionRewrite, Phase, PhaseContext,
    Progress, RewriteStrategy, Stop, VanishingRules,
};
use gbmv::genmul::MultiplierSpec;
use gbmv::netlist::Netlist;
use gbmv::poly::{Int, Monomial, Polynomial};
use gbmv::{DeadlineToken, Method, Outcome, Session, Spec};

fn sorted_terms(p: &Polynomial) -> Vec<(Monomial, Int)> {
    let mut terms: Vec<(Monomial, Int)> = p.iter().map(|(m, c)| (m.clone(), c.clone())).collect();
    terms.sort_by(|a, b| a.0.cmp(&b.0));
    terms
}

/// Rewrites one copy of the model with the scan-based oracle and two with
/// the indexed engine in tracker mode, one under a context with uniform
/// `2^(2n)` moduli and one under the same context with spec weights. The uniform run must be bit-identical to
/// the oracle: the same surviving polynomial set and, per polynomial, the
/// same sorted term dump after canonicalizing both sides modulo `2^(2n)`.
/// The weighted run must keep the same polynomial set, with every tail
/// equal to the oracle's modulo `2^(2n - W(v))`.
fn assert_rewrite_equivalent(netlist: &Netlist, width: usize) {
    let base = AlgebraicModel::from_netlist(netlist).expect("acyclic");
    let (spec, modulus) = Spec::multiplier(width)
        .instantiate(&base)
        .expect("multiplier interface");
    let k = modulus.expect("multipliers have a modulus");
    let weights = spec_weights(&base, &spec, k);
    // The oracle applies the tracker in both `XorAnd` and `Closure` mode
    // and ignores the modulus and the weights; only the indexed engine
    // reads them.
    let uniform = PhaseContext {
        rules: VanishingRules::XorAnd,
        modulus_bits: Some(k),
        ..PhaseContext::default()
    };
    let spec_weighted = PhaseContext {
        spec_weights: Some(weights.clone()),
        ..uniform.clone()
    };
    let mut oracle = base.clone();
    let o_stats = LogicReductionRewrite.rewrite(&mut oracle, &uniform);
    let mut indexed = base.clone();
    let i_stats = IndexedLogicReductionRewrite.rewrite(&mut indexed, &uniform);
    let mut weighted = base.clone();
    let w_stats = IndexedLogicReductionRewrite.rewrite(&mut weighted, &spec_weighted);
    assert_eq!(
        (o_stats.stop, i_stats.stop, w_stats.stop),
        (None, None, None),
        "{} width {width}: all three rewrites must complete",
        netlist.name()
    );
    let o_polys = oracle.polynomial_order();
    for (label, model) in [("uniform", &indexed), ("weighted", &weighted)] {
        assert_eq!(
            o_polys,
            model.polynomial_order(),
            "{} width {width}: UpdateModel must keep the same polynomial set ({label})",
            netlist.name()
        );
    }
    for v in o_polys {
        let oracle_tail = oracle.tail(v).expect("oracle tail");
        let want = sorted_terms(&oracle_tail.mod_coeffs_pow2(k));
        let got = sorted_terms(&indexed.tail(v).expect("indexed tail").mod_coeffs_pow2(k));
        assert_eq!(
            want,
            got,
            "{} width {width}: post-rewrite tail of {} diverges from the scan oracle",
            netlist.name(),
            oracle.name(v)
        );
        let bits = k - weights[v.index()];
        let want = sorted_terms(&oracle_tail.mod_coeffs_pow2(bits));
        let got = sorted_terms(
            &weighted
                .tail(v)
                .expect("weighted tail")
                .mod_coeffs_pow2(bits),
        );
        assert_eq!(
            want,
            got,
            "{} width {width}: weighted tail of {} differs from the oracle's mod 2^{bits}",
            netlist.name(),
            oracle.name(v)
        );
    }
}

/// Every genmul architecture at width 4.
#[test]
fn every_architecture_width_4_rewrites_identically() {
    for arch in all_architectures() {
        let netlist = MultiplierSpec::parse(&arch, 4)
            .expect("architecture")
            .build();
        assert_rewrite_equivalent(&netlist, 4);
    }
}

/// The paper's ten Table I/II architectures at widths 5 and 6.
#[test]
fn paper_architectures_widths_5_6_rewrite_identically() {
    for width in [5usize, 6] {
        for arch in PAPER_ARCHITECTURES {
            let netlist = MultiplierSpec::parse(arch, width)
                .expect("architecture")
                .build();
            assert_rewrite_equivalent(&netlist, width);
        }
    }
}

/// Fault-injected mutants: the rewrite stays bit-identical on buggy
/// circuits too.
#[test]
fn fault_injected_mutants_rewrite_identically() {
    for (_arch, mutant) in fault_injected_mutants(4) {
        assert_rewrite_equivalent(&mutant, 4);
    }
}

/// Runs `arch` at width 8 on `MT-LR-PAR` with a `DeadlineToken::cancel()`
/// fired from an observer as Step 2 starts, and asserts the run stops there:
/// `Outcome::Cancelled` — not `ResourceLimit { Rewrite }` — with no
/// substitution done in either step.
fn assert_cancel_at_rewrite_start(arch: &str) {
    let netlist = MultiplierSpec::parse(arch, 8)
        .expect("architecture")
        .build();
    let token = DeadlineToken::new();
    let observer_token = token.clone();
    let report = Session::extract(&netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(8))
        .strategy(Method::MtLrPar)
        .cancel_token(token)
        .observer(move |p| {
            if matches!(
                p,
                Progress::PhaseStarted {
                    phase: Phase::Rewrite
                }
            ) {
                observer_token.cancel();
            }
        })
        .run()
        .expect("interface");
    assert_eq!(
        report.outcome,
        Outcome::Cancelled,
        "{arch}: a token cancel during rewriting must surface as Cancelled"
    );
    assert_eq!(report.stats.rewrite.stop, Some(Stop::Token));
    assert_eq!(
        report.stats.rewrite.substitutions, 0,
        "{arch}: the engine polls the token before the first substitution"
    );
    assert_eq!(report.stats.reduction.substitutions, 0);
    assert!(
        report.stats.total_time < Duration::from_secs(20),
        "{arch}: cancellation took {:?}",
        report.stats.total_time
    );
}

/// A mid-rewrite cancel on the indexed engine surfaces as
/// `Outcome::Cancelled`, not `ResourceLimit { Rewrite }` (SP-RT-KS).
#[test]
fn mid_rewrite_cancel_returns_cancelled_not_resource_limit() {
    assert_cancel_at_rewrite_start("SP-RT-KS");
}

/// The same mid-rewrite cancel on a second architecture (SP-DT-HC): the run
/// returns with `Outcome::Cancelled`, and the reduction never starts.
#[test]
fn mid_rewrite_cancel_on_parallel_preset_joins_cleanly() {
    assert_cancel_at_rewrite_start("SP-DT-HC");
}

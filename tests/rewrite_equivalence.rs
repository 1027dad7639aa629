//! Differential harness for the indexed rewriting engine: the Step-2 rewrite
//! on the incrementally indexed term store
//! (`indexed_logic_reduction_rewriting`, the rewriter of `MT-LR-PAR`) must
//! produce **term-for-term identical post-rewrite models** to the scan-based
//! `logic_reduction_rewriting` oracle across every genmul architecture at
//! width 4, the paper's ten architectures at widths 5–6, and fault-injected
//! mutants. `tests/parallel_equivalence.rs` pins the full pipeline's verdicts
//! on the same circuits against the MT-LR oracle; this file runs no full
//! pipeline, so each oracle result is computed once, there.
//!
//! The byte-identity comparison runs the indexed engine in its **tracker
//! mode** (`VanishingRules { closure: false, .. }`): the same static
//! per-monomial pattern test as the oracle's tracker, judged at insertion
//! instead of by post-step sweeps. Both sides' coefficients are
//! canonicalized modulo `2^(2n)` before the sorted term dumps are compared:
//! the indexed engine *stores* the canonical representative in
//! `[0, 2^(2n))`, while the oracle keeps exact integers, and the two only
//! ever differ by multiples of `2^(2n)`, which the zero test quotients out.
//! Everything else — which polynomials survive `UpdateModel`, which
//! monomials each tail contains, every canonical coefficient — must be
//! bit-identical.
//!
//! The file also pins a cancel landing as Step 2 starts: it must surface as
//! `Outcome::Cancelled` before any rewrite or reduction work.

mod common;

use std::time::Duration;

use common::{all_architectures, fault_injected_mutants, PAPER_ARCHITECTURES};
use gbmv::core::rewrite::{
    indexed_logic_reduction_rewriting, logic_reduction_rewriting, RewriteConfig,
};
use gbmv::core::{AlgebraicModel, Phase, Progress, VanishingRules};
use gbmv::genmul::MultiplierSpec;
use gbmv::netlist::Netlist;
use gbmv::poly::{Int, Monomial, Polynomial};
use gbmv::{Budget, DeadlineToken, Method, Outcome, Session, Spec};

fn sorted_terms(p: &Polynomial) -> Vec<(Monomial, Int)> {
    let mut terms: Vec<(Monomial, Int)> = p.iter().map(|(m, c)| (m.clone(), c.clone())).collect();
    terms.sort_by(|a, b| a.0.cmp(&b.0));
    terms
}

/// Rewrites one copy of the model with the scan-based oracle and one with
/// the indexed engine in tracker mode, then asserts bit-identical
/// post-rewrite models: the same surviving polynomial set and, per
/// polynomial, the same sorted term dump after canonicalizing both sides
/// modulo `2^(2n)`.
fn assert_rewrite_equivalent(netlist: &Netlist, width: usize) {
    let base = AlgebraicModel::from_netlist(netlist).expect("acyclic");
    let k = 2 * width as u32;
    // The oracle ignores the `closure` flag; only the indexed engine
    // switches on it.
    let config = RewriteConfig {
        rules: VanishingRules {
            closure: false,
            ..VanishingRules::default()
        },
        ..RewriteConfig::default()
    };
    let mut oracle = base.clone();
    let o_stats = logic_reduction_rewriting(&mut oracle, &config);
    let mut indexed = base.clone();
    let i_stats = indexed_logic_reduction_rewriting(&mut indexed, &config, Some(k));
    assert!(
        !o_stats.limit_exceeded && !i_stats.limit_exceeded,
        "{} width {width}: both rewrites must complete",
        netlist.name()
    );
    let o_polys = oracle.polynomial_order();
    let i_polys = indexed.polynomial_order();
    assert_eq!(
        o_polys,
        i_polys,
        "{} width {width}: UpdateModel must keep the same polynomial set",
        netlist.name()
    );
    for v in o_polys {
        let want = sorted_terms(&oracle.tail(v).expect("oracle tail").mod_coeffs_pow2(k));
        let got = sorted_terms(&indexed.tail(v).expect("indexed tail").mod_coeffs_pow2(k));
        assert_eq!(
            want,
            got,
            "{} width {width}: post-rewrite tail of {} diverges from the scan oracle",
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

/// Runs `arch` at width 8 on `MT-LR-PAR` with `threads` workers and a
/// `DeadlineToken::cancel()` fired from an observer as Step 2 starts, and
/// asserts the run stops there: `Outcome::Cancelled` — not
/// `ResourceLimit { Rewrite }` — with no substitution done in either step.
fn assert_cancel_at_rewrite_start(arch: &str, threads: usize) {
    let netlist = MultiplierSpec::parse(arch, 8)
        .expect("architecture")
        .build();
    let token = DeadlineToken::new();
    let observer_token = token.clone();
    let report = Session::extract(&netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(8))
        .strategy(Method::MtLrPar)
        .budget(Budget::default().with_threads(threads))
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
        "{arch}, {threads} threads: a token cancel during rewriting must surface as Cancelled"
    );
    assert!(report.stats.rewrite.limit_exceeded);
    assert_eq!(
        report.stats.rewrite.substitutions, 0,
        "{arch}, {threads} threads: the engine polls the token before the first substitution"
    );
    assert_eq!(report.stats.reduction.substitutions, 0);
    assert!(
        report.stats.total_time < Duration::from_secs(20),
        "{arch}, {threads} threads: cancellation took {:?}",
        report.stats.total_time
    );
}

/// A mid-rewrite cancel on the single-threaded indexed engine surfaces as
/// `Outcome::Cancelled`, not `ResourceLimit { Rewrite }`.
#[test]
fn mid_rewrite_cancel_returns_cancelled_not_resource_limit() {
    assert_cancel_at_rewrite_start("SP-RT-KS", 1);
}

/// The same mid-rewrite cancel at four threads: the run returns (no dangling
/// workers — the sharded reduction never starts when Step 2 is cancelled)
/// with `Outcome::Cancelled`.
#[test]
fn mid_rewrite_cancel_on_parallel_preset_joins_cleanly() {
    assert_cancel_at_rewrite_start("SP-DT-HC", 4);
}

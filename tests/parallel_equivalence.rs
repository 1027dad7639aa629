//! The verdict harness of the indexed engine: every result of `MT-LR-PAR` is
//! pinned against the scan-based MT-LR oracle, and each oracle result is
//! computed once per circuit.
//!
//! The circuits are every genmul architecture at width 4, the paper's ten
//! architectures at widths 5–6, and fault-injected mutants — the circuits on
//! which `tests/rewrite_equivalence.rs` pins the Step-2 rewrite byte for byte
//! against the scan rewriter. Per circuit the scan-based MT-LR pipeline runs
//! once, and `MT-LR-PAR`, in its default closure mode, runs once and must
//! reproduce the oracle's verdict, canonical remainder term count and
//! grounded counterexample bit for bit. On the width-4 circuits and the
//! mutants, `MT-LR-PAR` also runs in `VanishingRules::XorAnd` mode (both of
//! its phases then cancel with the scan tracker's patterns) and must match
//! the same reference: MT-LR applies the tracker in both modes.
//!
//! The comparison is exact: the pipeline canonicalizes remainders modulo
//! `2^(2n)`, and the fully reduced remainder is the unique multilinear normal
//! form of the specification over the primary inputs. So the engines ground
//! the *same* counterexample regardless of substitution order — the oracle's
//! greedy order against the indexed engine's column-weighted one — or
//! term-storage layout. The closure mode cancels strictly
//! more monomials than the tracker and so cannot be byte-identical after
//! rewriting, but every extra cancellation is a member of the circuit ideal,
//! so completed verdicts and counterexamples are exactly preserved.

mod common;

use std::time::Duration;

use common::{all_architectures, fault_injected_mutants, PAPER_ARCHITECTURES};
use gbmv::core::{Phase, VanishingRules};
use gbmv::genmul::MultiplierSpec;
use gbmv::netlist::Netlist;
use gbmv::poly::{Int, Monomial, Polynomial};
use gbmv::{Budget, DeadlineToken, Method, Outcome, Report, Session, Spec};

fn run(netlist: &Netlist, width: usize, method: Method, budget: Budget) -> Report {
    run_with_rules(netlist, width, method, budget, VanishingRules::default())
}

fn run_with_rules(
    netlist: &Netlist,
    width: usize,
    method: Method,
    budget: Budget,
    rules: VanishingRules,
) -> Report {
    Session::extract(netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(width))
        .strategy(method)
        .budget(budget)
        .rules(rules)
        .run()
        .expect("interface")
}

/// Asserts that a candidate run reproduces the reference exactly: same
/// verdict, same canonical remainder term count, and a bit-identical grounded
/// counterexample.
fn assert_outcome_matches(netlist: &Netlist, reference: &Report, candidate: &Report, label: &str) {
    match (&reference.outcome, &candidate.outcome) {
        (Outcome::Verified, Outcome::Verified) => {}
        (
            Outcome::Mismatch {
                remainder_terms: a,
                counterexample: ca,
            },
            Outcome::Mismatch {
                remainder_terms: b,
                counterexample: cb,
            },
        ) => {
            assert_eq!(
                a,
                b,
                "{}: canonical remainders must agree ({label})",
                netlist.name()
            );
            assert_eq!(
                ca,
                cb,
                "{}: counterexamples must be bit-identical ({label})",
                netlist.name()
            );
        }
        // A deterministic term-limit stop: the indexed engine may prune more
        // aggressively (vanishing checks fire before terms are ever
        // materialized) or substitute in a cheaper order, so it is allowed
        // to finish where MT-LR hit the budget — but it must never
        // contradict a definitive verdict.
        (Outcome::ResourceLimit { .. }, got) => {
            assert!(
                matches!(got, Outcome::ResourceLimit { .. } | Outcome::Verified),
                "{}: {label} contradicts the resource-limited run: {got:?}",
                netlist.name()
            );
        }
        (expected, got) => panic!(
            "{}: outcomes diverge ({label}): MT-LR {expected:?}, got {got:?}",
            netlist.name()
        ),
    }
}

/// A completed `MT-LR-PAR` reduction retires every one of the `2n` output
/// columns of a width-`n` multiplier: each output occurs in the spec, and
/// none is left at the end. Column masks do not alias below width 32.
fn assert_every_column_retires(netlist: &Netlist, width: usize, par: &Report, label: &str) {
    if matches!(par.outcome, Outcome::Verified | Outcome::Mismatch { .. }) {
        assert_eq!(
            par.stats.reduction.columns_retired,
            2 * width,
            "{}: retired columns ({label})",
            netlist.name()
        );
    }
}

/// The oracle pass over one circuit: the MT-LR reference, and `MT-LR-PAR`
/// against it. Returns the reference.
fn check_against_oracle(netlist: &Netlist, width: usize, budget: Budget) -> Report {
    let reference = run(netlist, width, Method::MtLr, budget);
    let par = run(netlist, width, Method::MtLrPar, budget);
    assert_outcome_matches(netlist, &reference, &par, "MT-LR-PAR");
    assert_every_column_retires(netlist, width, &par, "MT-LR-PAR");
    reference
}

/// `MT-LR-PAR` in `XorAnd` mode against the MT-LR reference already
/// computed for the circuit.
fn check_xor_and_mode(netlist: &Netlist, width: usize, budget: Budget, reference: &Report) {
    let par = run_with_rules(
        netlist,
        width,
        Method::MtLrPar,
        budget,
        VanishingRules::XorAnd,
    );
    assert_outcome_matches(netlist, reference, &par, "MT-LR-PAR, XorAnd mode");
    assert_every_column_retires(netlist, width, &par, "MT-LR-PAR, XorAnd mode");
}

/// Every genmul architecture at width 4.
#[test]
fn every_architecture_width_4_matches_mt_lr() {
    let budget = Budget::default();
    for arch in all_architectures() {
        let netlist = MultiplierSpec::parse(&arch, 4)
            .expect("architecture")
            .build();
        let reference = check_against_oracle(&netlist, 4, budget);
        assert!(
            reference.outcome.is_verified(),
            "{arch}: MT-LR must verify at width 4, got {:?}",
            reference.outcome
        );
        check_xor_and_mode(&netlist, 4, budget, &reference);
    }
}

/// The paper's ten Table I/II architectures at widths 5 and 6, under a
/// deterministic term budget (no wall clock, so a blow-up surfaces as the
/// same `ResourceLimit` on every machine).
#[test]
fn paper_architectures_widths_5_6_match_mt_lr() {
    let budget = Budget {
        max_terms: 2_000_000,
        deadline: None,
        ..Budget::default()
    };
    for width in [5usize, 6] {
        for arch in PAPER_ARCHITECTURES {
            let netlist = MultiplierSpec::parse(arch, width)
                .expect("architecture")
                .build();
            check_against_oracle(&netlist, width, budget);
        }
    }
}

/// Step 3's substitution order, pinned through the counts it yields: the
/// reduction phase's substitutions, index hits, cancelled monomials, peak
/// and retired columns on three designs, as the engine read them when every
/// step scanned every occurrence count.
#[test]
fn reduction_counts_pin_the_substitution_order() {
    // (architecture, width, substitutions, index hits, cancelled, peak, columns)
    let pins = [
        ("SP-RT-KS", 6, 177, 51_656, 93_620, 18_594, 12),
        ("SP-DT-HC", 6, 117, 1_766, 787, 1_175, 12),
        ("BP-WT-CL", 8, 188, 514, 160, 264, 16),
    ];
    let budget = Budget {
        deadline: None,
        ..Budget::default()
    };
    for (arch, width, substitutions, index_hits, cancelled, peak, columns) in pins {
        let netlist = MultiplierSpec::parse(arch, width)
            .expect("architecture")
            .build();
        let report = run(&netlist, width, Method::MtLrPar, budget);
        assert!(report.outcome.is_verified(), "{arch} w{width}");
        let r = &report.stats.reduction;
        assert_eq!(
            (
                r.substitutions,
                r.index_hits,
                r.cancelled_vanishing,
                r.peak_terms,
                r.columns_retired
            ),
            (substitutions, index_hits, cancelled, peak, columns),
            "{arch} w{width}"
        );
    }
}

/// Fault-injected mutants: the mismatch verdict grounds the same
/// counterexample (operand words, circuit word, expected word) on both
/// engines.
#[test]
fn fault_injected_variants_produce_identical_counterexamples() {
    let width = 4;
    let budget = Budget::default();
    for (arch, mutant) in fault_injected_mutants(width) {
        let reference = check_against_oracle(&mutant, width, budget);
        check_xor_and_mode(&mutant, width, budget, &reference);
        let Outcome::Mismatch { counterexample, .. } = &reference.outcome else {
            panic!(
                "{arch}: mutant must be rejected, got {:?}",
                reference.outcome
            );
        };
        let cex = counterexample.as_ref().expect("counterexample");
        assert!(cex.operand("a").is_some() && cex.operand("b").is_some());
    }
}

/// SP-DT-HC at width 8 rewrites in a fraction of a second and then reduces
/// for tens of seconds, so a stop shortly after the start lands
/// mid-reduction with certainty.
fn long_reduction() -> Netlist {
    MultiplierSpec::parse("SP-DT-HC", 8)
        .expect("architecture")
        .build()
}

/// A mid-reduction cancel through the shared `DeadlineToken`, fired from
/// another thread, yields `Outcome::Cancelled` — not `ResourceLimit` — and
/// the run returns promptly.
#[test]
fn mid_reduction_cancel_returns_cancelled_and_joins_workers() {
    let netlist = long_reduction();
    let token = DeadlineToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            token.cancel();
        })
    };
    let report = Session::extract(&netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(8))
        .strategy(Method::MtLrPar)
        .cancel_token(token)
        .run()
        .expect("interface");
    canceller.join().expect("canceller thread");
    assert_eq!(
        report.outcome,
        Outcome::Cancelled,
        "a token cancel must surface as Cancelled, not ResourceLimit"
    );
    // The run reacted to the cancel instead of completing the reduction
    // (generous bound: cancellation is polled every few thousand products,
    // orders of magnitude below this).
    assert!(
        report.stats.total_time < Duration::from_secs(20),
        "cancellation took {:?}",
        report.stats.total_time
    );
}

/// A budget deadline that expires mid-reduction surfaces as
/// `ResourceLimit { phase: Reduce }` — not `Cancelled`: the budget's
/// `DeadlineToken` is the only clock, and the pipeline maps its stops to
/// outcomes.
#[test]
fn mid_reduction_deadline_returns_resource_limit() {
    let netlist = long_reduction();
    let budget = Budget::default().with_deadline(Duration::from_millis(300));
    let report = run(&netlist, 8, Method::MtLrPar, budget);
    assert_eq!(
        report.outcome,
        Outcome::ResourceLimit {
            phase: Phase::Reduce
        },
        "an expired deadline must surface as a reduction resource limit"
    );
    assert!(
        report.stats.total_time < Duration::from_secs(20),
        "the deadline stop took {:?}",
        report.stats.total_time
    );
}

/// A cyclic netlist surfaces `ExtractError` on the `MT-LR-PAR` path:
/// extraction fails before any strategy runs (and
/// `gbmv::netlist::cone::decompose_output_cones` reports the stuck nets when
/// called directly).
#[test]
fn cyclic_netlist_surfaces_extract_error_on_parallel_path() {
    use gbmv::netlist::GateKind;
    let mut nl = Netlist::new("cyc");
    let a = nl.add_input("a");
    let x = nl.add_net("x");
    let y = nl.add_net("y");
    nl.add_gate_driving(GateKind::And, x, &[a, y]).unwrap();
    nl.add_gate_driving(GateKind::Or, y, &[a, x]).unwrap();
    nl.add_output("y", y);
    let gbmv::core::ExtractError::CombinationalCycle { nets } = Session::extract(&nl).unwrap_err();
    assert!(nets.contains(&"x".to_string()) && nets.contains(&"y".to_string()));
    let stuck = gbmv::netlist::cone::decompose_output_cones(&nl, 0.5).unwrap_err();
    assert!(!stuck.is_empty());
}

/// Two side-by-side units with disjoint output cones verify under one custom
/// specification on `MT-LR-PAR`. The specification's input-only terms go
/// straight to the engine's retired accumulator.
#[test]
fn disjoint_units_verify_at_every_thread_count() {
    use gbmv::poly::Var;
    // Two independent blocks: x = a ^ b (tail a + b - 2ab), y = c & d.
    let mut nl = Netlist::new("two_units");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let d = nl.add_input("d");
    let x = nl.xor2(a, b, "x");
    let y = nl.and2(c, d, "y");
    nl.add_output("x", x);
    nl.add_output("y", y);
    let (a, b, c, d, x, y) = (Var(a.0), Var(b.0), Var(c.0), Var(d.0), Var(x.0), Var(y.0));
    let spec = Polynomial::from_terms(vec![
        (Monomial::var(x), Int::from(-1)),
        (Monomial::var(a), Int::one()),
        (Monomial::var(b), Int::one()),
        (Monomial::from_vars(vec![a, b]), Int::from(-2)),
        (Monomial::var(y), Int::from(-1)),
        (Monomial::from_vars(vec![c, d]), Int::one()),
    ]);
    let report = Session::extract(&nl)
        .expect("acyclic")
        .spec(Spec::polynomial("two-units", spec))
        .strategy(Method::MtLrPar)
        .run()
        .expect("interface");
    assert!(report.outcome.is_verified(), "{:?}", report.outcome);
}

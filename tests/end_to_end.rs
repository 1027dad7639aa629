//! Cross-crate integration tests: generator -> algebraic verifier -> SAT
//! baseline -> simulation all agree, driven through the `Session` API.

use gbmv::genmul::{build_adder, AdderKind, MultiplierSpec};
use gbmv::netlist::fault::distinguishable_mutant;
use gbmv::netlist::sim::random_equivalence_check;
use gbmv::netlist::Netlist;
use gbmv::sat::{check_against_product, check_equivalence};
use gbmv::{Budget, Method, Outcome, Report, Session, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn verify_mul(netlist: &Netlist, width: usize, method: Method) -> Report {
    Session::extract(netlist)
        .expect("generated netlists are acyclic")
        .spec(Spec::multiplier(width))
        .strategy(method)
        .run()
        .expect("multiplier interface")
}

/// Every Table I / Table II architecture family verifies with MT-LR at a
/// small width and agrees with the SAT baseline.
#[test]
fn all_paper_architectures_verify_with_mt_lr() {
    let width = 4;
    // Includes the redundant-binary trees: with intermediate mod-2^(2n)
    // dropping and the level-greedy substitution order in the reduction
    // engine they verify at this width (the seed engine blew up on them).
    let architectures = [
        "SP-AR-RC", "SP-WT-CL", "SP-RT-KS", "SP-CT-BK", "SP-DT-HC", "BP-AR-RC", "BP-WT-CL",
        "BP-RT-KS", "BP-CT-BK", "BP-DT-HC",
    ];
    for arch in architectures {
        let netlist = MultiplierSpec::parse(arch, width)
            .expect("architecture")
            .build();
        let report = verify_mul(&netlist, width, Method::MtLr);
        assert!(
            report.outcome.is_verified(),
            "{arch} must verify with MT-LR, got {:?}",
            report.outcome
        );
        assert!(
            check_against_product(&netlist, width, None).is_equivalent(),
            "{arch} must also pass the SAT miter baseline"
        );
    }
}

/// MT-FO (the baseline) hits the resource limit on a parallel-prefix Booth
/// multiplier where MT-LR succeeds under the same budget — the headline
/// comparison of the paper. (MT-FO succeeding on the simple array multiplier
/// is covered by `gbmv-core`'s unit tests at a smaller width.)
#[test]
fn mt_fo_blows_up_where_mt_lr_succeeds() {
    let width = 6;
    // With intermediate mod-2^(2n) coefficient dropping in the reduction
    // engine both methods got dramatically cheaper; at this width MT-FO peaks
    // above 10k terms while MT-LR stays near 100, so a 2k budget separates
    // them with ample margin on both sides. No deadline: the verdict depends
    // only on the term budget, so the contrast is deterministic on any
    // machine and at any thread count.
    let tight = Budget {
        max_terms: 2_000,
        deadline: None,
        threads: 0,
    };
    let complex = MultiplierSpec::parse("BP-WT-CL", width)
        .expect("architecture")
        .build();
    let mut session = Session::extract(&complex)
        .expect("acyclic")
        .spec(Spec::multiplier(width))
        .budget(tight)
        .counterexamples(false);
    session = session.strategy(Method::MtFo);
    let fo_complex = session.run().expect("interface");
    assert!(
        fo_complex.outcome.is_resource_limit(),
        "MT-FO must blow up on BP-WT-CL under the term budget, got {:?}",
        fo_complex.outcome
    );
    session = session.strategy(Method::MtLr);
    let lr_complex = session.run().expect("interface");
    assert!(
        lr_complex.outcome.is_verified(),
        "MT-LR must verify BP-WT-CL under the same budget, got {:?}",
        lr_complex.outcome
    );
    assert!(lr_complex.stats.cancelled_vanishing() > 0);
    // The indexed rewriter stays within the same tight budget: in its
    // default closure mode it cancels at least as much as the scan engine's
    // tracker (byte-identity in tracker mode is pinned by
    // `tests/rewrite_equivalence.rs`), so the rewrite peak cannot regress
    // past the oracle's.
    session = session.strategy(Method::MtLrPar);
    let par_complex = session.run().expect("interface");
    assert!(
        par_complex.outcome.is_verified(),
        "MT-LR-PAR must verify BP-WT-CL under the same budget, got {:?}",
        par_complex.outcome
    );
    assert!(par_complex.stats.rewrite.index_hits > 0);
    assert!(par_complex.stats.rewrite.columns_retired > 0);
    assert!(par_complex.stats.rewrite.peak_terms <= tight.max_terms);
}

/// Single-gate faults injected into three different architectures are
/// rejected with `Outcome::Mismatch`, and the typed counterexample is
/// validated against netlist simulation: the circuit word differs from the
/// specification word exactly as the counterexample claims.
#[test]
fn faults_across_architectures_yield_validated_counterexamples() {
    let width = 4;
    for (arch, seed) in [("BP-CT-BK", 7u64), ("SP-WT-CL", 11), ("SP-AR-RC", 23)] {
        let golden = MultiplierSpec::parse(arch, width)
            .expect("architecture")
            .build();
        let mut rng = StdRng::seed_from_u64(seed);
        let (fault, mutant) = distinguishable_mutant(&golden, 200, &mut rng).expect("mutant");
        // Simulation sees the difference.
        assert!(random_equivalence_check(&golden, &mutant, 8, &mut rng).is_some());
        // The algebraic verifier rejects it with a grounded counterexample.
        let report = verify_mul(&mutant, width, Method::MtLr);
        match &report.outcome {
            Outcome::Mismatch {
                remainder_terms,
                counterexample,
            } => {
                assert!(*remainder_terms > 0, "{arch}: empty remainder");
                let cex = counterexample
                    .as_ref()
                    .unwrap_or_else(|| panic!("{arch}: no counterexample for {fault:?}"));
                let a = cex.operand("a").expect("operand a");
                let b = cex.operand("b").expect("operand b");
                let simulated = mutant.evaluate_words(&[a, b], &[width, width]);
                assert_eq!(
                    Some(simulated),
                    cex.circuit_word,
                    "{arch}: counterexample circuit word must match simulation"
                );
                assert_eq!(
                    Some((a * b) % (1 << (2 * width))),
                    cex.expected_word,
                    "{arch}: expected word must be the true product"
                );
                assert_ne!(
                    cex.circuit_word, cex.expected_word,
                    "{arch}: counterexample must expose the fault"
                );
            }
            other => panic!("{arch}: expected mismatch, got {other:?}"),
        }
        // The SAT miter rejects it too.
        assert!(!check_equivalence(&golden, &mutant, None).is_equivalent());
    }
}

/// Standalone final-stage adders of every family verify (including with a
/// carry-in) and equivalent pairs are proved equivalent by SAT.
#[test]
fn adder_families_verify_and_are_equivalent() {
    let width = 8;
    let reference = build_adder(width, AdderKind::RippleCarry, false);
    for kind in AdderKind::all() {
        let adder = build_adder(width, kind, false);
        let report = Session::extract(&adder)
            .expect("acyclic")
            .spec(Spec::adder(width))
            .strategy(Method::MtLr)
            .run()
            .expect("adder interface");
        assert!(
            report.outcome.is_verified(),
            "{kind:?} adder failed: {:?}",
            report.outcome
        );
        assert!(check_equivalence(&reference, &adder, None).is_equivalent());
    }
}

/// The netlist text format round-trips a generated multiplier and the
/// re-parsed circuit still verifies.
#[test]
fn netlist_format_round_trip_preserves_verifiability() {
    let width = 4;
    let netlist = MultiplierSpec::parse("SP-DT-HC", width)
        .expect("architecture")
        .build();
    let text = gbmv::netlist::write_netlist(&netlist);
    let parsed = gbmv::netlist::parse_netlist(&text).expect("parse back");
    assert_eq!(parsed.inputs().len(), netlist.inputs().len());
    let report = verify_mul(&parsed, width, Method::MtLr);
    assert!(report.outcome.is_verified());
}

/// Statistics behave as the paper describes: architectures with
/// carry-lookahead / Kogge-Stone final adders produce more vanishing
/// monomials than ripple-carry ones.
#[test]
fn vanishing_monomial_counts_follow_architecture_complexity() {
    let width = 4;
    // Same partial products and accumulator; only the final adder differs, so
    // the difference in #CVM is attributable to the parallel-prefix carry
    // logic.
    let rc = MultiplierSpec::parse("SP-AR-RC", width)
        .expect("architecture")
        .build();
    let ks = MultiplierSpec::parse("SP-AR-KS", width)
        .expect("architecture")
        .build();
    let rc_report = verify_mul(&rc, width, Method::MtLr);
    let ks_report = verify_mul(&ks, width, Method::MtLr);
    assert!(rc_report.outcome.is_verified());
    assert!(ks_report.outcome.is_verified());
    assert!(
        ks_report.stats.cancelled_vanishing() > rc_report.stats.cancelled_vanishing(),
        "KS: {}, RC: {}",
        ks_report.stats.cancelled_vanishing(),
        rc_report.stats.cancelled_vanishing()
    );
}

//! Integration tests of the redesigned verification API: custom strategies
//! plugged in from outside `gbmv_core`, portfolio parity with the
//! pre-redesign entry points, and fallible extraction.

use gbmv::core::{PhaseContext, PhaseStats, ReductionStrategy, SessionError, Stop};
use gbmv::genmul::MultiplierSpec;
use gbmv::netlist::{GateKind, Netlist};
use gbmv::poly::Polynomial;
use gbmv::sat::check_against_product;
use gbmv::{Budget, Method, Outcome, Portfolio, Session, Spec};

/// A user-defined reduction strategy implemented entirely against the public
/// API: plain reverse-topological substitution (the paper's Algorithm 1
/// without the greedy reordering), with budget and cancellation handling.
struct TopoReduction;

impl ReductionStrategy for TopoReduction {
    fn name(&self) -> &str {
        "topo"
    }

    fn reduce(
        &self,
        model: &gbmv::core::AlgebraicModel,
        spec: &Polynomial,
        ctx: &PhaseContext,
    ) -> (Polynomial, PhaseStats) {
        let mut stats = PhaseStats::default();
        let mut r = spec.clone();
        let mut scratch = Polynomial::zero();
        stats.peak_terms = r.num_terms();
        for v in model.substitution_order() {
            if ctx.token.expired() {
                stats.stop = Some(Stop::Token);
                return (r, stats);
            }
            if !r.contains_var(v) {
                continue;
            }
            let tail = match model.tail(v) {
                Some(tail) => tail,
                None => continue,
            };
            r.substitute_into(v, tail, &mut scratch);
            std::mem::swap(&mut r, &mut scratch);
            stats.substitutions += 1;
            if let Some(k) = ctx.modulus_bits {
                r.retain_non_multiples_of_pow2(k);
            }
            stats.peak_terms = stats.peak_terms.max(r.num_terms());
            if r.num_terms() > ctx.max_terms {
                stats.stop = Some(Stop::Terms);
                return (r, stats);
            }
        }
        stats.final_terms = r.num_terms();
        (r, stats)
    }
}

/// A custom `ReductionStrategy` implemented outside `gbmv_core` runs
/// end-to-end through `Session::run` and reaches the same verdict as the
/// built-in greedy engine.
#[test]
fn custom_reduction_strategy_runs_through_session() {
    let netlist = MultiplierSpec::parse("SP-WT-CL", 4)
        .expect("architecture")
        .build();
    let mut session = Session::extract(&netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(4))
        .strategy(Method::MtLr)
        .reduction_strategy(TopoReduction);
    let report = session.run().expect("interface");
    assert!(
        report.outcome.is_verified(),
        "custom reduction must verify: {:?}",
        report.outcome
    );
    assert_eq!(report.strategy, "logic-reduction+topo");
    assert!(report.stats.reduction.substitutions > 0);
}

/// The custom strategy honours the session budget like the built-in one.
#[test]
fn custom_reduction_strategy_honours_budget() {
    let netlist = MultiplierSpec::parse("SP-WT-KS", 6)
        .expect("architecture")
        .build();
    let mut session = Session::extract(&netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(6))
        .strategy(Method::MtNaive)
        .reduction_strategy(TopoReduction)
        .budget(Budget::default().with_max_terms(50));
    let report = session.run().expect("interface");
    assert!(report.outcome.is_resource_limit(), "{:?}", report.outcome);
}

/// The portfolio reproduces Table I's MT-LR-vs-SAT comparison at width 4 in
/// one call per architecture, with verdicts identical to standalone `Session`
/// runs and the standalone SAT check. (This test previously compared against
/// the deprecated `verify_multiplier` shim, which has since been removed.)
#[test]
fn portfolio_reproduces_table1_mtlr_vs_sat_at_width_4() {
    let width = 4;
    for arch in ["SP-AR-RC", "SP-WT-CL", "SP-RT-KS", "SP-CT-BK", "SP-DT-HC"] {
        let netlist = MultiplierSpec::parse(arch, width)
            .expect("architecture")
            .build();
        let report = Portfolio::extract(&netlist)
            .expect("acyclic")
            .spec(Spec::multiplier(width))
            .method(Method::MtLr)
            .method(Method::MtLrPar)
            .sat_baseline(None)
            .run_all()
            .expect("interface");

        // Standalone verdicts through the session API and the SAT miter.
        let standalone = Session::extract(&netlist)
            .expect("acyclic")
            .spec(Spec::multiplier(width))
            .strategy(Method::MtLr)
            .run()
            .expect("interface");
        let standalone_sat = check_against_product(&netlist, width, None);

        let mtlr = report.get("MT-LR").expect("MT-LR run");
        let mtlr_par = report.get("MT-LR-PAR").expect("MT-LR-PAR run");
        let cec = report.get("CEC").expect("CEC run");
        assert_eq!(
            mtlr.outcome.is_verified(),
            standalone.outcome.is_verified(),
            "{arch}: portfolio MT-LR verdict must match the standalone session"
        );
        assert_eq!(
            mtlr.outcome, mtlr_par.outcome,
            "{arch}: the parallel engine must agree with MT-LR"
        );
        assert_eq!(
            cec.outcome.is_verified(),
            standalone_sat.is_equivalent(),
            "{arch}: portfolio CEC verdict must match check_against_product"
        );
        assert!(mtlr.outcome.is_verified(), "{arch}: {:?}", mtlr.outcome);
        assert!(report.verdict().expect("winner").is_verified());
    }
}

/// A portfolio race returns a definitive winner and cooperatively cancels
/// (or lets finish) the losers.
#[test]
fn portfolio_race_produces_a_winner() {
    let netlist = MultiplierSpec::parse("SP-WT-CL", 4)
        .expect("architecture")
        .build();
    let report = Portfolio::extract(&netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(4))
        .method(Method::MtLr)
        .method(Method::MtFo)
        .sat_baseline(Some(1_000_000))
        .race()
        .expect("interface");
    assert_eq!(report.runs.len(), 3);
    let winner = report.winner().expect("some strategy finishes");
    assert!(winner.outcome.is_verified(), "{:?}", winner.outcome);
    // Losers either finished with the same verdict or were cancelled/limited;
    // nobody may contradict the winner.
    for run in &report.runs {
        assert!(
            !matches!(run.outcome, Outcome::Mismatch { .. }),
            "{}: contradicts the verified verdict",
            run.strategy
        );
    }
}

/// Portfolio misconfiguration is reported as typed errors.
#[test]
fn portfolio_configuration_errors() {
    let netlist = MultiplierSpec::parse("SP-AR-RC", 4)
        .expect("architecture")
        .build();
    let err = Portfolio::extract(&netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(4))
        .run_all()
        .unwrap_err();
    assert_eq!(err, SessionError::NoStrategies);

    let err = Portfolio::extract(&netlist)
        .expect("acyclic")
        .spec(Spec::signed_multiplier(4))
        .sat_baseline(None)
        .run_all()
        .unwrap_err();
    assert!(matches!(err, SessionError::SatBaselineUnsupported { .. }));
}

/// Regression: a netlist with a combinational cycle is an `ExtractError`
/// from `Session::extract` (the seed API panicked here).
#[test]
fn cyclic_netlist_is_an_extract_error() {
    let mut nl = Netlist::new("cyclic");
    let a = nl.add_input("a");
    let x = nl.add_net("x");
    let y = nl.add_net("y");
    nl.add_gate_driving(GateKind::And, x, &[a, y]).unwrap();
    nl.add_gate_driving(GateKind::Or, y, &[a, x]).unwrap();
    nl.add_output("y", y);
    let err = Session::extract(&nl).unwrap_err();
    let gbmv::core::ExtractError::CombinationalCycle { nets } = err;
    assert!(nets.contains(&"x".to_string()));
    assert!(nets.contains(&"y".to_string()));
    // The portfolio driver surfaces the same error.
    assert!(Portfolio::extract(&nl).is_err());
}

//! The verification session: one extracted model, pluggable phase strategies,
//! explicit budgets, structured progress reporting.
//!
//! [`Session`] is the primary entry point of this crate. A session is created
//! by [extracting](Session::extract) the algebraic model of a netlist once
//! (fallibly — a combinational cycle is an error, not a panic), then
//! configured with a [`Spec`], a strategy (a [`Method`] preset or custom
//! [`RewriteStrategy`]/[`ReductionStrategy`] implementations), a [`Budget`]
//! and an optional [`Progress`] observer, and finally [run](Session::run):
//!
//! ```
//! use gbmv_core::{Method, Session, Spec};
//! use gbmv_genmul::MultiplierSpec;
//!
//! let netlist = MultiplierSpec::parse("SP-WT-CL", 4).unwrap().build();
//! let report = Session::extract(&netlist)?
//!     .spec(Spec::multiplier(4))
//!     .strategy(Method::MtLr)
//!     .run()?;
//! assert!(report.outcome.is_verified());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::time::{Duration, Instant};

use gbmv_netlist::Netlist;
use gbmv_poly::Polynomial;

use crate::budget::{Budget, DeadlineToken};
use crate::counterexample::{find_assignment, ground_assignment, Counterexample};
use crate::model::{AlgebraicModel, ExtractError};
use crate::reduction::{ReductionOutcome, ReductionStats};
use crate::rewrite::RewriteStats;
use crate::spec::{Spec, SpecError};
use crate::strategy::{Method, PhaseContext, ReductionStrategy, RewriteStrategy};
use crate::vanishing::VanishingRules;

/// The phases of a verification run, as reported by [`Progress`] events and
/// [`Outcome::ResourceLimit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Step 2: Gröbner basis rewriting of the model.
    Rewrite,
    /// Steps 3/4: Gröbner basis reduction of the specification.
    Reduce,
    /// Counterexample search after a non-zero remainder.
    Counterexample,
    /// The SAT miter baseline (portfolio runs only).
    Sat,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Phase::Rewrite => "rewriting",
            Phase::Reduce => "reduction",
            Phase::Counterexample => "counterexample",
            Phase::Sat => "sat",
        })
    }
}

/// A structured progress event, delivered to the observer installed with
/// [`Session::observer`]: phase timings are pushed to the observer instead of
/// printed to stderr.
#[derive(Debug, Clone)]
pub enum Progress {
    /// A phase is about to start.
    PhaseStarted {
        /// Which phase.
        phase: Phase,
    },
    /// A phase finished (successfully or by hitting a limit).
    PhaseFinished {
        /// Which phase.
        phase: Phase,
        /// Wall-clock time the phase took.
        elapsed: Duration,
    },
    /// Index statistics of an indexed rewrite phase, delivered right after
    /// its [`Progress::PhaseFinished`] event. Only emitted when the rewrite
    /// strategy actually went through the inverted var→term index (the
    /// scan-based strategies produce no such event, so existing observers
    /// of the default presets see an unchanged sequence).
    RewriteIndexStats {
        /// Peak number of terms of any tail during rewriting.
        peak_terms: usize,
        /// Terms retrieved through the inverted var→term index.
        index_hits: u64,
        /// Output columns completed by the rewrite passes.
        columns_retired: usize,
    },
}

/// The verdict of a verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The remainder is zero: the circuit implements the specification.
    Verified,
    /// The remainder is non-zero: the circuit does not implement the
    /// specification.
    Mismatch {
        /// Number of terms of the (modulo-reduced) remainder (zero when the
        /// mismatch was established by the SAT baseline).
        remainder_terms: usize,
        /// A concrete input assignment exposing the mismatch, if one was
        /// found.
        counterexample: Option<Counterexample>,
    },
    /// The run exceeded the term or time budget before finishing — the
    /// analogue of "TO" in the paper's tables.
    ResourceLimit {
        /// Which phase hit the limit.
        phase: Phase,
    },
    /// The run was cancelled through its [`DeadlineToken`] (e.g. another
    /// portfolio strategy won the race).
    Cancelled,
}

impl Outcome {
    /// Returns `true` for [`Outcome::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, Outcome::Verified)
    }

    /// Returns `true` for [`Outcome::Mismatch`].
    pub fn is_mismatch(&self) -> bool {
        matches!(self, Outcome::Mismatch { .. })
    }

    /// Returns `true` for [`Outcome::ResourceLimit`].
    pub fn is_resource_limit(&self) -> bool {
        matches!(self, Outcome::ResourceLimit { .. })
    }

    /// Returns `true` for a definitive verdict ([`Outcome::Verified`] or
    /// [`Outcome::Mismatch`]) as opposed to a resource limit or cancellation.
    pub fn is_definitive(&self) -> bool {
        matches!(self, Outcome::Verified | Outcome::Mismatch { .. })
    }
}

/// Detailed statistics of one verification run; the columns of Table III.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Rewriting statistics.
    pub rewrite: RewriteStats,
    /// Gröbner basis reduction statistics.
    pub reduction: ReductionStats,
    /// `#P`: polynomials in the model after rewriting.
    pub model_polynomials: usize,
    /// `#M`: monomials in the model after rewriting.
    pub model_monomials: usize,
    /// `#MP`: maximum polynomial size (monomials).
    pub max_polynomial_terms: usize,
    /// `#VM`: maximum monomial size (variables).
    pub max_monomial_vars: usize,
    /// End-to-end wall-clock time of the run (rewriting + reduction +
    /// counterexample search).
    pub total_time: Duration,
}

impl RunStats {
    /// `#CVM`: total number of monomials removed by the vanishing rules,
    /// across the rewriting and reduction phases.
    pub fn cancelled_vanishing(&self) -> u64 {
        self.rewrite.cancelled_vanishing + self.reduction.cancelled_vanishing
    }

    /// Peak intermediate polynomial size over the rewriting and reduction
    /// phases.
    pub fn peak_terms(&self) -> usize {
        self.rewrite.peak_terms.max(self.reduction.peak_terms)
    }
}

/// The result of a verification run: verdict plus statistics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Display name of the strategy that produced this report (e.g. `MT-LR`,
    /// `CEC`, or `rewrite+reduction` for custom strategy pairs).
    pub strategy: String,
    /// The verdict.
    pub outcome: Outcome,
    /// Detailed statistics.
    pub stats: RunStats,
}

/// Why a session (or portfolio) could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// [`Session::run`] was called without a [`Session::spec`].
    MissingSpec,
    /// The specification does not fit the netlist interface.
    Spec(SpecError),
    /// [`crate::Portfolio::run_all`]/[`crate::Portfolio::race`] was called
    /// with no strategies added.
    NoStrategies,
    /// The SAT miter baseline only supports unsigned multiplier
    /// specifications (it checks against a golden array multiplier).
    SatBaselineUnsupported {
        /// The offending specification's display name.
        spec: String,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::MissingSpec => {
                write!(f, "no specification: call Session::spec before run")
            }
            SessionError::Spec(err) => write!(f, "{err}"),
            SessionError::NoStrategies => {
                write!(f, "portfolio has no strategies: add a method or baseline")
            }
            SessionError::SatBaselineUnsupported { spec } => {
                write!(
                    f,
                    "the SAT miter baseline checks against a golden multiplier and \
                     does not support specification `{spec}`"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Spec(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SpecError> for SessionError {
    fn from(err: SpecError) -> Self {
        SessionError::Spec(err)
    }
}

/// A boxed progress observer, as installed by [`Session::observer`].
type ObserverBox = Box<dyn FnMut(&Progress)>;

/// Extracts the algebraic model plus the primary-input names of a netlist —
/// the shared Step 1 of [`Session::extract`] and
/// [`crate::Portfolio::extract`].
pub(crate) fn extract_model(
    netlist: &Netlist,
) -> Result<(AlgebraicModel, Vec<String>), ExtractError> {
    let model = AlgebraicModel::from_netlist(netlist)?;
    let input_names = netlist
        .inputs()
        .iter()
        .map(|&n| netlist.net_name(n).to_string())
        .collect();
    Ok((model, input_names))
}

/// Context needed to ground a counterexample: the pristine model, the input
/// names, and (when known) the specification for the expected output word.
pub(crate) struct CexContext<'a> {
    pub model: &'a AlgebraicModel,
    pub input_names: &'a [String],
    pub spec: Option<&'a Spec>,
}

/// The shared verification pipeline: Step 2 (rewriting) on a clone of the
/// model, Steps 3/4 (reduction and the zero test), then the counterexample
/// search. Used by [`Session::run`] and the [`crate::Portfolio`] entries.
///
/// This is the one place where a reduction stop becomes an [`Outcome`]: a
/// term-limit stop is a resource limit, and a token stop is `Cancelled` or a
/// resource limit depending on whether the token was cancelled.
#[allow(clippy::too_many_arguments)] // internal plumbing shared by Session and Portfolio
pub(crate) fn run_pipeline(
    strategy_name: String,
    base: &AlgebraicModel,
    spec_poly: &Polynomial,
    modulus_bits: Option<u32>,
    rewrite: &dyn RewriteStrategy,
    reduction: &dyn ReductionStrategy,
    ctx: &PhaseContext,
    cex: Option<&CexContext<'_>>,
    observer: &mut dyn FnMut(&Progress),
) -> Report {
    let start = Instant::now();
    let mut stats = RunStats::default();
    let mut model = base.clone();
    // Install the run's modulus into the context: rewrite strategies that
    // store canonical mod-2^k coefficients (the indexed rewriter) read it
    // from there, while reduction strategies receive it explicitly.
    let ctx = &PhaseContext {
        modulus_bits,
        ..ctx.clone()
    };

    observer(&Progress::PhaseStarted {
        phase: Phase::Rewrite,
    });
    // The pipeline measures phase times itself so observer events stay
    // trustworthy even for custom strategies that leave the stats' elapsed
    // fields at zero.
    let phase_start = Instant::now();
    stats.rewrite = rewrite.rewrite(&mut model, ctx);
    let rewrite_elapsed = phase_start.elapsed();
    if stats.rewrite.elapsed.is_zero() {
        stats.rewrite.elapsed = rewrite_elapsed;
    }
    observer(&Progress::PhaseFinished {
        phase: Phase::Rewrite,
        elapsed: rewrite_elapsed,
    });
    if stats.rewrite.index_hits > 0 {
        observer(&Progress::RewriteIndexStats {
            peak_terms: stats.rewrite.peak_terms,
            index_hits: stats.rewrite.index_hits,
            columns_retired: stats.rewrite.columns_retired,
        });
    }
    stats.model_polynomials = model.num_polynomials();
    stats.model_monomials = model.num_monomials();
    stats.max_polynomial_terms = model.max_polynomial_terms();
    stats.max_monomial_vars = model.max_monomial_vars();
    if stats.rewrite.limit_exceeded {
        stats.total_time = start.elapsed();
        let outcome = if ctx.token.is_cancelled() {
            Outcome::Cancelled
        } else {
            Outcome::ResourceLimit {
                phase: Phase::Rewrite,
            }
        };
        return Report {
            strategy: strategy_name,
            outcome,
            stats,
        };
    }

    observer(&Progress::PhaseStarted {
        phase: Phase::Reduce,
    });
    let phase_start = Instant::now();
    let (remainder, reduction_outcome, reduction_stats) =
        reduction.reduce(&model, spec_poly, modulus_bits, ctx);
    let reduce_elapsed = phase_start.elapsed();
    stats.reduction = reduction_stats;
    if stats.reduction.elapsed.is_zero() {
        stats.reduction.elapsed = reduce_elapsed;
    }
    observer(&Progress::PhaseFinished {
        phase: Phase::Reduce,
        elapsed: reduce_elapsed,
    });
    match reduction_outcome {
        ReductionOutcome::Completed => {}
        // A term-limit stop is a genuine divergence even when the shared
        // token was cancelled in the meantime (race losers must not mask a
        // blow-up as a cancellation).
        ReductionOutcome::LimitExceeded { .. } => {
            stats.total_time = start.elapsed();
            return Report {
                strategy: strategy_name,
                outcome: Outcome::ResourceLimit {
                    phase: Phase::Reduce,
                },
                stats,
            };
        }
        // Token stops are disambiguated by the token itself: an explicit
        // cancel is `Cancelled`, a deadline expiry is a resource limit —
        // whichever of the two a strategy reported.
        ReductionOutcome::Cancelled | ReductionOutcome::TimedOut => {
            stats.total_time = start.elapsed();
            let outcome = if ctx.token.is_cancelled() {
                Outcome::Cancelled
            } else {
                Outcome::ResourceLimit {
                    phase: Phase::Reduce,
                }
            };
            return Report {
                strategy: strategy_name,
                outcome,
                stats,
            };
        }
    }

    // Canonicalize the remainder modulo 2^k (not just drop zero terms): the
    // fully reduced remainder is the unique multilinear normal form of the
    // spec over the primary inputs, but engines that drop 2^k-multiples
    // differently (the scan engine keeps exact coefficients, the indexed one
    // stores canonical residues) can end with coefficients differing by
    // multiples of 2^k. Reducing every coefficient into [0, 2^k) makes the
    // reported remainder — and therefore the counterexample search —
    // bit-identical across reduction strategies.
    let remainder = match modulus_bits {
        Some(k) => remainder.mod_coeffs_pow2(k),
        None => remainder,
    };
    let outcome = if remainder.is_zero() {
        Outcome::Verified
    } else {
        let counterexample = cex.and_then(|cex| {
            observer(&Progress::PhaseStarted {
                phase: Phase::Counterexample,
            });
            let search_start = Instant::now();
            let found = find_assignment(cex.model, &remainder, modulus_bits)
                .map(|values| ground_assignment(cex.model, cex.input_names, cex.spec, &values));
            observer(&Progress::PhaseFinished {
                phase: Phase::Counterexample,
                elapsed: search_start.elapsed(),
            });
            found
        });
        Outcome::Mismatch {
            remainder_terms: remainder.num_terms(),
            counterexample,
        }
    };
    stats.total_time = start.elapsed();
    Report {
        strategy: strategy_name,
        outcome,
        stats,
    }
}

/// A verification session: one extracted algebraic model plus the
/// configuration needed to run a strategy against it.
///
/// Built with a consuming builder API (see the module docs); after a
/// run the session can be reconfigured (e.g. a different
/// [strategy](Session::strategy)) and run again without re-extracting the
/// model.
pub struct Session {
    model: AlgebraicModel,
    input_names: Vec<String>,
    spec: Option<Spec>,
    rules: VanishingRules,
    rewrite: Box<dyn RewriteStrategy>,
    reduction: Box<dyn ReductionStrategy>,
    strategy_name: Option<String>,
    budget: Budget,
    token: Option<DeadlineToken>,
    observer: Option<ObserverBox>,
    counterexamples: bool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("spec", &self.spec.as_ref().map(Spec::name))
            .field("strategy", &self.strategy_name())
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Extracts the algebraic model of the netlist (Step 1 of the MT
    /// algorithm) and returns a session configured with the defaults: the
    /// MT-LR strategy, the default [`Budget`], counterexample extraction on.
    ///
    /// Fails with [`ExtractError::CombinationalCycle`] on cyclic netlists.
    pub fn extract(netlist: &Netlist) -> Result<Session, ExtractError> {
        let (model, input_names) = extract_model(netlist)?;
        Ok(Session::from_model(model, input_names))
    }

    /// Wraps an already-extracted model (advanced; prefer
    /// [`Session::extract`]). `input_names` must parallel the model's
    /// primary-input variables in declaration order.
    pub fn from_model(model: AlgebraicModel, input_names: Vec<String>) -> Session {
        Session {
            model,
            input_names,
            spec: None,
            rules: VanishingRules::default(),
            rewrite: Method::MtLr.rewrite_strategy(),
            reduction: Method::MtLr.reduction_strategy(),
            strategy_name: Some(Method::MtLr.name().to_string()),
            budget: Budget::default(),
            token: None,
            observer: None,
            counterexamples: true,
        }
    }

    /// Sets the specification to verify against.
    pub fn spec(mut self, spec: Spec) -> Session {
        self.spec = Some(spec);
        self
    }

    /// Selects a preset strategy pair (one of the paper's methods).
    pub fn strategy(mut self, method: Method) -> Session {
        self.rewrite = method.rewrite_strategy();
        self.reduction = method.reduction_strategy();
        self.strategy_name = Some(method.name().to_string());
        self
    }

    /// Installs a custom Step-2 rewrite strategy (replacing the preset's).
    pub fn rewrite_strategy(mut self, strategy: impl RewriteStrategy + 'static) -> Session {
        self.rewrite = Box::new(strategy);
        self.strategy_name = None;
        self
    }

    /// Installs a custom Step-3/4 reduction strategy (replacing the
    /// preset's).
    pub fn reduction_strategy(mut self, strategy: impl ReductionStrategy + 'static) -> Session {
        self.reduction = Box::new(strategy);
        self.strategy_name = None;
        self
    }

    /// Sets the resource budget of the run.
    pub fn budget(mut self, budget: Budget) -> Session {
        self.budget = budget;
        self
    }

    /// Sets the structural vanishing rules (used by the XOR/logic-reduction
    /// strategies; the ablation study disables them).
    pub fn rules(mut self, rules: VanishingRules) -> Session {
        self.rules = rules;
        self
    }

    /// Installs an external cancellation token. When set it replaces the
    /// token derived from the budget deadline, so the caller owns both
    /// cancellation and the deadline.
    pub fn cancel_token(mut self, token: DeadlineToken) -> Session {
        self.token = Some(token);
        self
    }

    /// Installs a [`Progress`] observer receiving phase start/finish events.
    pub fn observer(mut self, observer: impl FnMut(&Progress) + 'static) -> Session {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Enables or disables the counterexample search on mismatch (on by
    /// default; benchmarks turn it off).
    pub fn counterexamples(mut self, enabled: bool) -> Session {
        self.counterexamples = enabled;
        self
    }

    /// The extracted algebraic model.
    pub fn model(&self) -> &AlgebraicModel {
        &self.model
    }

    /// Primary input net names in declaration order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// The display name of the configured strategy: a preset name like
    /// `MT-LR`, or `<rewrite>+<reduction>` (e.g. `logic-reduction+greedy`)
    /// when individual strategies were installed.
    pub fn strategy_name(&self) -> String {
        match &self.strategy_name {
            Some(name) => name.clone(),
            None => format!("{}+{}", self.rewrite.name(), self.reduction.name()),
        }
    }

    /// Runs the configured strategy against the configured specification.
    ///
    /// Fails with [`SessionError::MissingSpec`] when no spec was set and
    /// [`SessionError::Spec`] when the spec does not fit the netlist
    /// interface. Resource exhaustion and cancellation are *outcomes*
    /// ([`Outcome::ResourceLimit`], [`Outcome::Cancelled`]), not errors.
    pub fn run(&mut self) -> Result<Report, SessionError> {
        let spec = self.spec.clone().ok_or(SessionError::MissingSpec)?;
        let (spec_poly, modulus_bits) = spec.instantiate(&self.model)?;
        let strategy_name = self.strategy_name();
        let token = match &self.token {
            Some(token) => token.clone(),
            None => self.budget.token(),
        };
        let ctx = PhaseContext {
            budget: self.budget,
            token,
            rules: self.rules,
            modulus_bits,
        };
        let cex_ctx = CexContext {
            model: &self.model,
            input_names: &self.input_names,
            spec: Some(&spec),
        };
        let mut noop = |_: &Progress| {};
        let observer: &mut dyn FnMut(&Progress) = match &mut self.observer {
            Some(observer) => observer.as_mut(),
            None => &mut noop,
        };
        Ok(run_pipeline(
            strategy_name,
            &self.model,
            &spec_poly,
            modulus_bits,
            self.rewrite.as_ref(),
            self.reduction.as_ref(),
            &ctx,
            self.counterexamples.then_some(&cex_ctx),
            observer,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmv_genmul::{build_adder, AdderKind, MultiplierSpec};
    use gbmv_netlist::fault::distinguishable_mutant;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn session(arch: &str, width: usize) -> Session {
        let nl = MultiplierSpec::parse(arch, width).unwrap().build();
        Session::extract(&nl).unwrap().spec(Spec::multiplier(width))
    }

    #[test]
    fn mt_lr_verifies_simple_multiplier() {
        let report = session("SP-AR-RC", 4).strategy(Method::MtLr).run().unwrap();
        assert!(report.outcome.is_verified(), "{:?}", report.outcome);
        assert!(report.stats.model_polynomials > 0);
        assert_eq!(report.strategy, "MT-LR");
    }

    #[test]
    fn mt_fo_verifies_array_multiplier() {
        let report = session("SP-AR-RC", 4).strategy(Method::MtFo).run().unwrap();
        assert!(report.outcome.is_verified(), "{:?}", report.outcome);
    }

    #[test]
    fn sessions_rerun_with_different_strategies() {
        let mut s = session("BP-WT-CL", 4);
        let lr = s.run().unwrap();
        assert!(lr.outcome.is_verified());
        s = s.strategy(Method::MtNaive);
        let naive = s.run().unwrap();
        assert!(naive.outcome.is_verified());
        assert_eq!(naive.strategy, "MT");
    }

    #[test]
    fn missing_spec_is_an_error() {
        let nl = MultiplierSpec::parse("SP-AR-RC", 4).unwrap().build();
        let mut s = Session::extract(&nl).unwrap();
        assert_eq!(s.run().unwrap_err(), SessionError::MissingSpec);
    }

    #[test]
    fn interface_mismatch_is_an_error_not_a_panic() {
        let mut s = session("SP-AR-RC", 4).spec(Spec::multiplier(8));
        match s.run().unwrap_err() {
            SessionError::Spec(SpecError::InterfaceMismatch { spec, .. }) => {
                assert_eq!(spec, "mul8u");
            }
            other => panic!("expected interface mismatch, got {other:?}"),
        }
    }

    #[test]
    fn faulty_multiplier_is_rejected_with_grounded_counterexample() {
        let nl = MultiplierSpec::parse("SP-WT-BK", 4).unwrap().build();
        let mut rng = StdRng::seed_from_u64(99);
        let (_fault, mutant) = distinguishable_mutant(&nl, 100, &mut rng).expect("mutant");
        let report = Session::extract(&mutant)
            .unwrap()
            .spec(Spec::multiplier(4))
            .strategy(Method::MtLr)
            .run()
            .unwrap();
        match &report.outcome {
            Outcome::Mismatch {
                remainder_terms,
                counterexample,
            } => {
                assert!(*remainder_terms > 0);
                let cex = counterexample.as_ref().expect("counterexample found");
                let a = cex.operand("a").expect("operand a");
                let b = cex.operand("b").expect("operand b");
                // The typed counterexample carries the two evaluated output
                // words, and they must disagree.
                let got = cex.circuit_word.expect("circuit word");
                let want = cex.expected_word.expect("expected word");
                assert_ne!(got, want, "counterexample must expose the bug");
                assert_eq!(want, (a * b) % 256);
                // Cross-check against netlist simulation.
                assert_eq!(got, mutant.evaluate_words(&[a, b], &[4, 4]));
                // Ordered input assignment covers the full interface.
                assert_eq!(cex.inputs.len(), 8);
                assert_eq!(cex.inputs[0].name, "a0");
                assert!(cex.to_string().contains("specification expects"));
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn adder_verification_all_architectures() {
        for kind in AdderKind::all() {
            let nl = build_adder(6, kind, false);
            let report = Session::extract(&nl)
                .unwrap()
                .spec(Spec::adder(6))
                .run()
                .unwrap();
            assert!(
                report.outcome.is_verified(),
                "{kind:?} adder failed: {:?}",
                report.outcome
            );
        }
    }

    #[test]
    fn adder_with_carry_in_verifies() {
        let nl = build_adder(4, AdderKind::BrentKung, true);
        let report = Session::extract(&nl)
            .unwrap()
            .spec(Spec::adder_with_carry_in(4))
            .run()
            .unwrap();
        assert!(report.outcome.is_verified());
    }

    #[test]
    fn stats_report_vanishing_monomials_for_prefix_architectures() {
        let report = session("SP-CT-KS", 4).run().unwrap();
        assert!(report.outcome.is_verified());
        assert!(
            report.stats.cancelled_vanishing() > 0,
            "Kogge-Stone multiplier must exhibit vanishing monomials"
        );
    }

    fn event_line(p: &Progress) -> String {
        match p {
            Progress::PhaseStarted { phase } => format!("start {phase}"),
            Progress::PhaseFinished { phase, .. } => format!("finish {phase}"),
            Progress::RewriteIndexStats {
                peak_terms,
                index_hits,
                columns_retired,
            } => format!("rewrite-index {peak_terms} {index_hits} {columns_retired}"),
        }
    }

    #[test]
    fn observer_sees_phase_events() {
        let events: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = events.clone();
        let report = session("SP-AR-RC", 4)
            .observer(move |p| sink.borrow_mut().push(event_line(p)))
            .run()
            .unwrap();
        assert!(report.outcome.is_verified());
        let events = events.borrow();
        // The default preset rewrites with the scan-based engine: no index
        // stats event interleaves with the pinned phase sequence.
        assert_eq!(
            *events,
            vec![
                "start rewriting",
                "finish rewriting",
                "start reduction",
                "finish reduction"
            ]
        );
    }

    #[test]
    fn indexed_rewrite_reports_index_stats_to_the_observer() {
        let events: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = events.clone();
        let report = session("SP-CT-KS", 4)
            .strategy(Method::MtLrPar)
            .observer(move |p| sink.borrow_mut().push(event_line(p)))
            .run()
            .unwrap();
        assert!(report.outcome.is_verified());
        assert!(report.stats.rewrite.index_hits > 0);
        assert!(report.stats.rewrite.columns_retired > 0);
        let events = events.borrow();
        assert_eq!(events[0], "start rewriting");
        assert_eq!(events[1], "finish rewriting");
        assert!(
            events[2].starts_with("rewrite-index "),
            "the index stats event must follow the rewrite phase: {events:?}"
        );
    }

    #[test]
    fn cancelled_token_yields_cancelled_outcome() {
        let token = DeadlineToken::new();
        token.cancel();
        let report = session("SP-WT-KS", 8)
            .strategy(Method::MtNaive)
            .cancel_token(token)
            .run()
            .unwrap();
        assert_eq!(report.outcome, Outcome::Cancelled);
    }

    #[test]
    fn signed_spec_rejects_unsigned_multiplier() {
        let report = session("SP-AR-RC", 2)
            .spec(Spec::signed_multiplier(2))
            .run()
            .unwrap();
        match &report.outcome {
            Outcome::Mismatch { counterexample, .. } => {
                let cex = counterexample.as_ref().expect("counterexample");
                // The words disagree precisely because the circuit computes
                // the unsigned product.
                assert_ne!(cex.circuit_word, cex.expected_word);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn custom_polynomial_spec_runs() {
        // z = a & b: spec -z + a*b over the model variables.
        let mut nl = gbmv_netlist::Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.and2(a, b, "z");
        nl.add_output("z", z);
        use gbmv_poly::{Int, Monomial, Polynomial, Var};
        let poly = Polynomial::from_terms(vec![
            (Monomial::var(Var(z.0)), Int::from(-1)),
            (Monomial::from_vars(vec![Var(a.0), Var(b.0)]), Int::one()),
        ]);
        let report = Session::extract(&nl)
            .unwrap()
            .spec(Spec::polynomial("and-gate", poly))
            .strategy(Method::MtNaive)
            .run()
            .unwrap();
        assert!(report.outcome.is_verified(), "{:?}", report.outcome);
    }
}

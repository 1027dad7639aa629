//! The portfolio driver: several strategies against one extracted model.
//!
//! A [`Portfolio`] extracts the algebraic model of a netlist once and runs
//! multiple strategies — [`Method`] presets and the SAT miter baseline
//! behind the same surface — against the same specification. Two execution
//! modes are provided:
//!
//! * [`Portfolio::run_all`] runs every strategy to completion sequentially —
//!   what the paper's comparison tables need (per-strategy wall-clock and
//!   verdicts).
//! * [`Portfolio::race`] runs all strategies concurrently on threads sharing
//!   one [`crate::DeadlineToken`]; the first definitive verdict cancels the
//!   others (first-winner semantics) — what a user who just wants an answer
//!   needs.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use gbmv_netlist::Netlist;
use gbmv_sat::{check_against_product_with, EquivalenceResult};

use crate::budget::{Budget, DeadlineToken};
use crate::counterexample::ground_assignment;
use crate::model::{AlgebraicModel, ExtractError};
use crate::session::{Outcome, Phase, RunStats, Runner, SessionError};
use crate::spec::Spec;
use crate::strategy::Method;
use crate::vanishing::VanishingRules;

/// One strategy of a portfolio.
enum Entry {
    Algebraic(Method),
    SatMiter { conflict_budget: Option<u64> },
}

impl Entry {
    /// The display name of the strategy's runs.
    fn name(&self) -> &'static str {
        match self {
            Entry::Algebraic(method) => method.name(),
            Entry::SatMiter { .. } => "CEC",
        }
    }
}

/// The result of one strategy inside a portfolio run.
#[derive(Debug, Clone)]
pub struct StrategyRun {
    /// Display name of the strategy (e.g. `MT-LR`, `CEC`).
    pub strategy: String,
    /// The strategy's verdict ([`Outcome::Cancelled`] for race losers that
    /// were stopped early).
    pub outcome: Outcome,
    /// Detailed statistics (`None` for the SAT baseline).
    pub stats: Option<RunStats>,
    /// Wall-clock time this strategy ran.
    pub elapsed: Duration,
}

/// The result of a portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Per-strategy results, in the order the strategies were added.
    pub runs: Vec<StrategyRun>,
    winner: Option<usize>,
}

impl PortfolioReport {
    /// The winning run: the first strategy to reach a definitive verdict
    /// (race mode), or the fastest definitive strategy (run-all mode).
    pub fn winner(&self) -> Option<&StrategyRun> {
        self.winner.map(|i| &self.runs[i])
    }

    /// The portfolio's verdict: the winner's outcome, if any strategy
    /// reached one.
    pub fn verdict(&self) -> Option<&Outcome> {
        self.winner().map(|run| &run.outcome)
    }

    /// The run of the strategy named `strategy`, if present.
    pub fn get(&self, strategy: &str) -> Option<&StrategyRun> {
        self.runs.iter().find(|run| run.strategy == strategy)
    }
}

/// A portfolio of verification strategies sharing one extracted model (see
/// the module docs).
///
/// ```
/// use gbmv_core::{Method, Portfolio, Spec};
/// use gbmv_genmul::MultiplierSpec;
///
/// let netlist = MultiplierSpec::parse("SP-AR-RC", 4).unwrap().build();
/// let report = Portfolio::extract(&netlist)?
///     .spec(Spec::multiplier(4))
///     .method(Method::MtLr)
///     .sat_baseline(Some(100_000))
///     .run_all()?;
/// assert!(report.verdict().unwrap().is_verified());
/// assert_eq!(report.runs.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Portfolio {
    netlist: Netlist,
    model: AlgebraicModel,
    spec: Option<Spec>,
    rules: VanishingRules,
    budget: Budget,
    counterexamples: bool,
    entries: Vec<Entry>,
}

impl std::fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Portfolio")
            .field("spec", &self.spec.as_ref().map(Spec::name))
            .field(
                "strategies",
                &self.entries.iter().map(Entry::name).collect::<Vec<_>>(),
            )
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl Portfolio {
    /// Extracts the algebraic model of the netlist once for all strategies.
    /// The netlist is retained (cloned) for the SAT miter baseline.
    pub fn extract(netlist: &Netlist) -> Result<Portfolio, ExtractError> {
        Ok(Portfolio {
            netlist: netlist.clone(),
            model: AlgebraicModel::from_netlist(netlist)?,
            spec: None,
            rules: VanishingRules::default(),
            budget: Budget::default(),
            counterexamples: true,
            entries: Vec::new(),
        })
    }

    /// Sets the specification all strategies verify against.
    pub fn spec(mut self, spec: Spec) -> Portfolio {
        self.spec = Some(spec);
        self
    }

    /// Sets the per-strategy resource budget.
    pub fn budget(mut self, budget: Budget) -> Portfolio {
        self.budget = budget;
        self
    }

    /// Sets the vanishing mode of the algebraic strategies (see
    /// [`crate::Session::rules`]).
    pub fn rules(mut self, rules: VanishingRules) -> Portfolio {
        self.rules = rules;
        self
    }

    /// Enables or disables the counterexample search on mismatch (on by
    /// default; benchmark harnesses turn it off to keep `FAIL` cells cheap).
    pub fn counterexamples(mut self, enabled: bool) -> Portfolio {
        self.counterexamples = enabled;
        self
    }

    /// Adds one of the paper's preset methods as a strategy.
    pub fn method(mut self, method: Method) -> Portfolio {
        self.entries.push(Entry::Algebraic(method));
        self
    }

    /// Adds the SAT miter baseline (named `CEC`): the netlist is checked
    /// against a golden array multiplier with the given conflict budget.
    /// Requires an unsigned multiplier [`Spec`].
    pub fn sat_baseline(mut self, conflict_budget: Option<u64>) -> Portfolio {
        self.entries.push(Entry::SatMiter { conflict_budget });
        self
    }

    /// Binds the spec once for every entry of a run, after checking that
    /// the portfolio can run at all.
    fn runner(&self) -> Result<Runner<'_>, SessionError> {
        let spec = self.spec.as_ref().ok_or(SessionError::MissingSpec)?;
        if self.entries.is_empty() {
            return Err(SessionError::NoStrategies);
        }
        let runner = Runner::new(
            &self.model,
            spec,
            &self.budget,
            self.rules,
            self.counterexamples,
        )?;
        let needs_sat = self
            .entries
            .iter()
            .any(|e| matches!(e, Entry::SatMiter { .. }));
        if needs_sat && spec.unsigned_multiplier_width().is_none() {
            return Err(SessionError::SatBaselineUnsupported { spec: spec.name() });
        }
        Ok(runner)
    }

    fn execute(&self, entry: &Entry, runner: &Runner<'_>, token: DeadlineToken) -> StrategyRun {
        let start = Instant::now();
        let strategy = entry.name().to_string();
        match entry {
            Entry::Algebraic(method) => {
                let (outcome, stats) = runner.run(
                    method.rewrite_strategy().as_ref(),
                    method.reduction_strategy().as_ref(),
                    token,
                    &mut |_| {},
                );
                StrategyRun {
                    strategy,
                    outcome,
                    stats: Some(stats),
                    elapsed: start.elapsed(),
                }
            }
            Entry::SatMiter { conflict_budget } => {
                let spec = runner.spec();
                let width = spec
                    .unsigned_multiplier_width()
                    .expect("validated by runner()");
                let result =
                    check_against_product_with(&self.netlist, width, *conflict_budget, &|| {
                        token.expired()
                    });
                let outcome = match result {
                    EquivalenceResult::Equivalent => Outcome::Verified,
                    EquivalenceResult::NotEquivalent(pattern) => Outcome::Mismatch {
                        remainder_terms: 0,
                        counterexample: self
                            .counterexamples
                            .then(|| ground_assignment(&self.model, spec, &pattern)),
                    },
                    EquivalenceResult::Unknown => {
                        if token.is_cancelled() {
                            Outcome::Cancelled
                        } else {
                            Outcome::ResourceLimit { phase: Phase::Sat }
                        }
                    }
                };
                StrategyRun {
                    strategy,
                    outcome,
                    stats: None,
                    elapsed: start.elapsed(),
                }
            }
        }
    }

    /// Runs every strategy to completion, sequentially and independently
    /// (each with its own deadline token). The report's winner is the fastest
    /// strategy with a definitive verdict.
    pub fn run_all(&self) -> Result<PortfolioReport, SessionError> {
        let runner = self.runner()?;
        let runs: Vec<StrategyRun> = self
            .entries
            .iter()
            .map(|entry| self.execute(entry, &runner, self.budget.token()))
            .collect();
        let winner = runs
            .iter()
            .enumerate()
            .filter(|(_, run)| run.outcome.is_definitive())
            .min_by_key(|(_, run)| run.elapsed)
            .map(|(i, _)| i);
        Ok(PortfolioReport { runs, winner })
    }

    /// Races all strategies concurrently on threads sharing one deadline
    /// token: the first definitive verdict cancels the rest, which report
    /// [`Outcome::Cancelled`]. The report's winner is the first strategy to
    /// finish with a definitive verdict.
    pub fn race(&self) -> Result<PortfolioReport, SessionError> {
        let runner = self.runner()?;
        let token = self.budget.token();
        let slots: Vec<Mutex<Option<(StrategyRun, Instant)>>> =
            self.entries.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for (entry, slot) in self.entries.iter().zip(&slots) {
                let token = token.clone();
                let runner = &runner;
                let this = &*self;
                scope.spawn(move || {
                    let run = this.execute(entry, runner, token.clone());
                    if run.outcome.is_definitive() {
                        token.cancel();
                    }
                    *slot.lock().expect("result slot") = Some((run, Instant::now()));
                });
            }
        });
        let mut runs = Vec::with_capacity(slots.len());
        let mut winner: Option<(usize, Instant)> = None;
        for (i, slot) in slots.into_iter().enumerate() {
            let (run, finished_at) = slot
                .into_inner()
                .expect("result slot")
                .expect("every thread stores its result");
            if run.outcome.is_definitive() && winner.is_none_or(|(_, best)| finished_at < best) {
                winner = Some((i, finished_at));
            }
            runs.push(run);
        }
        Ok(PortfolioReport {
            runs,
            winner: winner.map(|(i, _)| i),
        })
    }
}

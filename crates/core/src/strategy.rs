//! Pluggable phase strategies.
//!
//! The MT algorithm is a pipeline: model extraction, Gröbner basis rewriting
//! (Step 2) and Gröbner basis reduction (Steps 3/4). The rewriting and
//! reduction phases are open for extension through the [`RewriteStrategy`]
//! and [`ReductionStrategy`] traits; the schemes evaluated by the paper
//! (MT, MT-FO, MT-XOR, MT-LR) are provided implementations, plus the indexed
//! engine of `MT-LR-PAR`, and [`Method`] is a thin preset constructor over
//! them. New engines — column-wise spec reduction, alternative substitution
//! orders — plug in as further implementations without touching the session
//! driver.

use gbmv_poly::Polynomial;

use crate::budget::{Budget, DeadlineToken};
use crate::model::AlgebraicModel;
use crate::reduction::{GbReduction, ReductionOutcome, ReductionStats};
use crate::rewrite::{
    fanout_rewriting, indexed_logic_reduction_rewriting, logic_reduction_rewriting, xor_rewriting,
    RewriteConfig, RewriteStats,
};
use crate::vanishing::{VanishingRules, VanishingTracker};

/// Everything a phase strategy needs to know about the run it executes in:
/// the resource budget, the shared cancellation token, and the structural
/// vanishing rules in force.
#[derive(Debug, Clone)]
pub struct PhaseContext {
    /// The resource budget of the run.
    pub budget: Budget,
    /// Shared cancellation token; strategies must poll it in their inner
    /// loops (the provided implementations do).
    pub token: DeadlineToken,
    /// The structural vanishing rules of the run.
    pub rules: VanishingRules,
    /// The modulus (in bits) of the run's zero test, when it has one (for a
    /// multiplier, `Some(2 * width)`). Every strategy reads it from here:
    /// the indexed rewriter and reduction store canonical mod-`2^k`
    /// coefficients, the scan reduction drops multiples of `2^k`. The
    /// session pipeline installs it from the instantiated spec; a context
    /// built by hand for a direct `reduce` call sets it itself.
    pub modulus_bits: Option<u32>,
    /// The spec weight `W(v)` of every variable, indexed by `Var::index`
    /// (see [`crate::rewrite::spec_weights`]), when the run has a modulus.
    /// The indexed rewriter keeps the tail of `v` modulo `2^(k - W(v))`
    /// instead of `2^k`: output bit `s_j` of a multiplier enters the spec
    /// only as `2^j s_j`, so its tail matters only modulo `2^(2n - j)`. The
    /// session pipeline installs it next to [`Self::modulus_bits`];
    /// `None` keeps every tail modulo `2^k`.
    pub spec_weights: Option<Vec<u32>>,
}

impl Default for PhaseContext {
    fn default() -> Self {
        let budget = Budget::default();
        PhaseContext {
            budget,
            token: budget.token(),
            rules: VanishingRules::default(),
            modulus_bits: None,
            spec_weights: None,
        }
    }
}

impl PhaseContext {
    /// The rewrite configuration corresponding to this context (the token
    /// is its clock).
    pub fn rewrite_config(&self) -> RewriteConfig {
        RewriteConfig {
            rules: self.rules,
            max_terms: self.budget.max_terms,
            cancel: self.token.clone(),
        }
    }

    /// A scan-based reduction engine honouring this context (the token is
    /// its clock); [`Self::modulus_bits`] enables intermediate `mod 2^k`
    /// coefficient dropping.
    pub fn reduction_engine(&self) -> GbReduction {
        let mut engine = GbReduction::new(self.budget.max_terms).with_token(self.token.clone());
        if let Some(k) = self.modulus_bits {
            engine = engine.with_modulus(k);
        }
        engine
    }
}

/// A Step-2 strategy: rewrites the model in place before the reduction.
///
/// Implementations must poll `ctx.token` in long-running loops and set
/// [`RewriteStats::limit_exceeded`] when they stop early.
pub trait RewriteStrategy: Send + Sync {
    /// Short display name (used in reports and bench records).
    fn name(&self) -> &str;

    /// Rewrites the model in place, returning the pass statistics.
    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> RewriteStats;
}

/// A Step-3/4 strategy: reduces the specification polynomial against the
/// (rewritten) model and returns the remainder.
///
/// Implementations must poll `ctx.token` in their inner loops.
pub trait ReductionStrategy: Send + Sync {
    /// Short display name (used in reports and bench records).
    fn name(&self) -> &str;

    /// Reduces `spec` against `model`, returning the remainder, why the
    /// reduction ended, and its statistics. [`PhaseContext::modulus_bits`]
    /// is the modulus of the zero test (for intermediate coefficient
    /// dropping).
    fn reduce(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        ctx: &PhaseContext,
    ) -> (Polynomial, ReductionOutcome, ReductionStats);
}

/// No rewriting at all (the plain MT baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRewrite;

impl RewriteStrategy for NoRewrite {
    fn name(&self) -> &str {
        "none"
    }

    fn rewrite(&self, _model: &mut AlgebraicModel, _ctx: &PhaseContext) -> RewriteStats {
        RewriteStats::default()
    }
}

/// Fanout rewriting — the MT-FO baseline of Farahmandi & Alizadeh.
#[derive(Debug, Clone, Copy, Default)]
pub struct FanoutRewrite;

impl RewriteStrategy for FanoutRewrite {
    fn name(&self) -> &str {
        "fanout"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> RewriteStats {
        fanout_rewriting(model, &ctx.rewrite_config())
    }
}

/// XOR rewriting with the vanishing rules (the first half of MT-LR; the
/// paper's ablation shows it is inefficient on its own).
#[derive(Debug, Clone, Copy, Default)]
pub struct XorRewrite;

impl RewriteStrategy for XorRewrite {
    fn name(&self) -> &str {
        "xor"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> RewriteStats {
        xor_rewriting(model, &ctx.rewrite_config())
    }
}

/// Logic reduction rewriting (Algorithm 3): XOR rewriting with the vanishing
/// rules followed by common rewriting — the paper's contribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogicReductionRewrite;

impl RewriteStrategy for LogicReductionRewrite {
    fn name(&self) -> &str {
        "logic-reduction"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> RewriteStats {
        logic_reduction_rewriting(model, &ctx.rewrite_config())
    }
}

/// Logic reduction rewriting on the incrementally indexed term store (see
/// [`indexed_logic_reduction_rewriting`]): in-place extraction through the
/// inverted var→term index, vanishing cancellation applied *during* each
/// substitution (the unit-propagation closure by default, the scan
/// tracker's pattern rules — term-for-term identical post-rewrite models
/// to [`LogicReductionRewrite`] modulo coefficient canonicalization — when
/// `VanishingRules::closure` is off), and canonical coefficients modulo
/// `2^(k - W(v))` from [`PhaseContext::modulus_bits`] and
/// [`PhaseContext::spec_weights`] — the Step 2 of [`Method::MtLrPar`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexedLogicReductionRewrite;

impl RewriteStrategy for IndexedLogicReductionRewrite {
    fn name(&self) -> &str {
        "logic-reduction-indexed"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> RewriteStats {
        indexed_logic_reduction_rewriting(
            model,
            &ctx.rewrite_config(),
            ctx.modulus_bits,
            ctx.spec_weights.as_deref(),
        )
    }
}

/// The provided reduction strategy: greedy smallest-growth substitution order
/// (see [`GbReduction::reduce`]), optionally re-applying the structural
/// vanishing rules after every substitution.
#[derive(Debug, Clone, Copy)]
pub struct GreedyReduction {
    /// Apply the vanishing rules during the reduction (required for the
    /// logic-reduction methods; see [`GbReduction::reduce_with_vanishing`]).
    pub vanishing: bool,
}

impl ReductionStrategy for GreedyReduction {
    fn name(&self) -> &str {
        if self.vanishing {
            "greedy+vanishing"
        } else {
            "greedy"
        }
    }

    fn reduce(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        ctx: &PhaseContext,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        let engine = ctx.reduction_engine();
        if self.vanishing {
            // The gate-function index survives rewriting (only tails change),
            // so the tracker can be built from the rewritten model.
            let mut tracker = VanishingTracker::new(model, ctx.rules);
            engine.reduce_with_vanishing(model, spec, &mut tracker)
        } else {
            engine.reduce(model, spec)
        }
    }
}

/// The verification methods of the paper's tables: presets pairing a
/// [`RewriteStrategy`] with a [`ReductionStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// No rewriting at all; reduce the raw gate-level model.
    MtNaive,
    /// Fanout rewriting — the MT-FO baseline of Farahmandi & Alizadeh \[7\].
    MtFo,
    /// XOR rewriting only (ablation; the paper argues this alone is
    /// inefficient).
    MtXorOnly,
    /// Logic reduction rewriting (XOR + common rewriting with the XOR-AND
    /// vanishing rule) — the paper's contribution.
    MtLr,
    /// MT-LR with both phases on the incremental indexed term store: Step 2
    /// through [`IndexedLogicReductionRewrite`] (in-place extraction,
    /// closure vanishing during substitution, canonical mod-`2^k`
    /// coefficients) and Step 3/4 through [`crate::ParallelReduction`]. Both
    /// phases run on the calling thread, through one shared substitution
    /// loop. Same remainders, verdicts and counterexamples as MT-LR,
    /// different per-step cost. Bench records and reports key on the name
    /// `MT-LR-PAR`, so it stays.
    MtLrPar,
}

impl Method {
    /// All methods: the paper's four in table order, then this repo's
    /// indexed MT-LR engine.
    pub fn all() -> [Method; 5] {
        [
            Method::MtNaive,
            Method::MtFo,
            Method::MtXorOnly,
            Method::MtLr,
            Method::MtLrPar,
        ]
    }

    /// Short display name matching the paper (`MT-LR-PAR` for the indexed
    /// engine, which the paper does not have).
    pub fn name(self) -> &'static str {
        match self {
            Method::MtNaive => "MT",
            Method::MtFo => "MT-FO",
            Method::MtXorOnly => "MT-XOR",
            Method::MtLr => "MT-LR",
            Method::MtLrPar => "MT-LR-PAR",
        }
    }

    /// The Step-2 strategy this preset stands for. `MT-LR` keeps the
    /// scan-based rewriter (it doubles as the differential oracle of the
    /// equivalence harness); `MT-LR-PAR` runs Step 2 on the indexed store.
    pub fn rewrite_strategy(self) -> Box<dyn RewriteStrategy> {
        match self {
            Method::MtNaive => Box::new(NoRewrite),
            Method::MtFo => Box::new(FanoutRewrite),
            Method::MtXorOnly => Box::new(XorRewrite),
            Method::MtLr => Box::new(LogicReductionRewrite),
            Method::MtLrPar => Box::new(IndexedLogicReductionRewrite),
        }
    }

    /// The Step-3/4 strategy this preset stands for.
    pub fn reduction_strategy(self) -> Box<dyn ReductionStrategy> {
        match self {
            Method::MtNaive | Method::MtFo => Box::new(GreedyReduction { vanishing: false }),
            Method::MtXorOnly | Method::MtLr => Box::new(GreedyReduction { vanishing: true }),
            Method::MtLrPar => Box::new(crate::parallel::ParallelReduction),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_match_paper() {
        assert_eq!(Method::MtLr.name(), "MT-LR");
        assert_eq!(Method::MtFo.name(), "MT-FO");
        assert_eq!(Method::MtLrPar.name(), "MT-LR-PAR");
        assert_eq!(Method::all().len(), 5);
        assert_eq!(format!("{}", Method::MtNaive), "MT");
    }

    #[test]
    fn presets_pair_the_paper_strategies() {
        assert_eq!(Method::MtLr.rewrite_strategy().name(), "logic-reduction");
        assert_eq!(Method::MtLr.reduction_strategy().name(), "greedy+vanishing");
        assert_eq!(Method::MtFo.rewrite_strategy().name(), "fanout");
        assert_eq!(Method::MtFo.reduction_strategy().name(), "greedy");
        assert_eq!(Method::MtNaive.rewrite_strategy().name(), "none");
        assert_eq!(Method::MtXorOnly.rewrite_strategy().name(), "xor");
        assert_eq!(
            Method::MtLrPar.rewrite_strategy().name(),
            "logic-reduction-indexed"
        );
        assert_eq!(Method::MtLrPar.reduction_strategy().name(), "indexed");
    }
}

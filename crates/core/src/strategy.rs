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
//!
//! Each provided strategy is the only entry to its engine, and
//! [`PhaseContext`] is the only configuration an engine reads: the session
//! pipeline passes one to every phase, and a direct call of a strategy
//! builds one by hand. Both phases report a [`PhaseStats`], whose
//! [`PhaseStats::stop`] says whether and why the phase ended early.

use std::time::Duration;

use gbmv_poly::Polynomial;

use crate::budget::{Budget, DeadlineToken};
use crate::model::AlgebraicModel;
use crate::reduction::GreedyReduction;
use crate::rewrite::{gb_rewrite, gb_rewrite_indexed, RewriteVanishing};
use crate::vanishing::VanishingRules;

/// Everything a phase strategy reads about the run it executes in, and the
/// only configuration the provided engines have: the term limit, the
/// cancellation token, the vanishing mode, and the run's modulus and spec
/// weights.
///
/// [`crate::Session::run`] and [`crate::Portfolio`] fill it from their
/// [`Budget`] (its deadline becomes the token) and the instantiated spec. A
/// direct call of a strategy builds one by hand:
///
/// ```
/// use gbmv_core::{AlgebraicModel, LogicReductionRewrite, PhaseContext, RewriteStrategy};
/// use gbmv_genmul::MultiplierSpec;
///
/// let netlist = MultiplierSpec::parse("SP-WT-BK", 4).unwrap().build();
/// let mut model = AlgebraicModel::from_netlist(&netlist)?;
/// let stats = LogicReductionRewrite.rewrite(&mut model, &PhaseContext::default());
/// assert_eq!(stats.stop, None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhaseContext {
    /// Stop when any polynomial (a rewritten tail or the intermediate
    /// remainder) passes this many terms: [`Budget::max_terms`] of the run.
    pub max_terms: usize,
    /// Shared cancellation token and the only clock: the run's
    /// [`Budget::deadline`] turned into a deadline. Strategies must poll it
    /// in their inner loops (the provided implementations do).
    pub token: DeadlineToken,
    /// The vanishing mode of the run: which predicate, if any, each engine
    /// applies.
    pub rules: VanishingRules,
    /// The modulus (in bits) of the run's zero test, when it has one (for a
    /// multiplier, `Some(2 * width)`). Every strategy reads it from here:
    /// the indexed rewriter and reduction store canonical mod-`2^k`
    /// coefficients, the scan reduction drops multiples of `2^k`. The
    /// session pipeline installs it from the instantiated spec; a context
    /// built by hand for a direct call sets it itself.
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
    /// The context of a default [`Budget`], with its clock started now, the
    /// default [`VanishingRules::Closure`] mode, and no modulus.
    fn default() -> Self {
        let budget = Budget::default();
        PhaseContext {
            max_terms: budget.max_terms,
            token: budget.token(),
            rules: VanishingRules::default(),
            modulus_bits: None,
            spec_weights: None,
        }
    }
}

/// Why a phase stopped before it finished: the resource it ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// A tail or the remainder passed [`PhaseContext::max_terms`].
    Terms,
    /// [`PhaseContext::token`] expired. The token itself tells an explicit
    /// cancel from a passed deadline.
    Token,
}

/// The report of one phase, Step 2 or Step 3/4: its counters and whether
/// it stopped early.
///
/// An engine fills in its counters and [`Self::stop`]. The session pipeline
/// behind [`crate::Session::run`] and [`crate::Portfolio`] sets
/// [`Self::elapsed`] and maps the stop to the run's [`crate::Outcome`]. A
/// field that does not apply to a phase or an engine stays zero.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Number of variable substitutions performed.
    pub substitutions: usize,
    /// Number of monomials the vanishing rules removed in this phase (its
    /// share of `#CVM`).
    pub cancelled_vanishing: u64,
    /// Peak number of terms of any tail (Step 2) or of the intermediate
    /// remainder (Step 3). An indexed phase that stops at the term limit
    /// reports its step bound, `max_terms + 1`.
    pub peak_terms: usize,
    /// Number of terms the indexed engines retrieved through the inverted
    /// var→term index (one per extracted term; zero for the scan engines).
    pub index_hits: u64,
    /// Number of output columns an indexed phase completed. Step 2 counts
    /// column `j` once the pass moves past the last model polynomial whose
    /// backward cone reaches output `j`, summed over its passes; Step 3
    /// counts a column once no live term mentions a tracked variable
    /// reaching it. Zero for the scan engines.
    pub columns_retired: usize,
    /// Number of polynomials Step 2 removed from the model (`UpdateModel`).
    pub removed_polynomials: usize,
    /// Number of terms of the final remainder of Step 3, before the modulo
    /// reduction of the zero test.
    pub final_terms: usize,
    /// Wall-clock time of the phase, measured by the session pipeline
    /// (zero after a direct strategy call).
    pub elapsed: Duration,
    /// `None` when the phase finished; otherwise the resource that stopped
    /// it. A Step 2 that stopped leaves the model partially rewritten (still
    /// sound); a Step 3 that stopped leaves the remainder unfinished.
    pub stop: Option<Stop>,
}

impl PhaseStats {
    /// Adds the statistics of a later rewrite pass to this one.
    pub(crate) fn merge(&mut self, other: &PhaseStats) {
        self.substitutions += other.substitutions;
        self.cancelled_vanishing += other.cancelled_vanishing;
        self.peak_terms = self.peak_terms.max(other.peak_terms);
        self.index_hits += other.index_hits;
        self.columns_retired += other.columns_retired;
        self.removed_polynomials += other.removed_polynomials;
        self.stop = self.stop.or(other.stop);
    }
}

/// A Step-2 strategy: rewrites the model in place before the reduction.
///
/// Implementations must poll `ctx.token` in long-running loops and report
/// an early stop in [`PhaseStats::stop`].
pub trait RewriteStrategy: Send + Sync {
    /// Short display name (used in reports and bench records).
    fn name(&self) -> &str;

    /// Rewrites the model in place, returning the pass statistics.
    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> PhaseStats;
}

/// A Step-3/4 strategy: reduces the specification polynomial against the
/// (rewritten) model and returns the remainder.
///
/// Implementations must poll `ctx.token` in their inner loops and report an
/// early stop in [`PhaseStats::stop`].
pub trait ReductionStrategy: Send + Sync {
    /// Short display name (used in reports and bench records).
    fn name(&self) -> &str;

    /// Reduces `spec` against `model`, returning the remainder and the
    /// phase statistics; the remainder is final only when
    /// [`PhaseStats::stop`] is `None`. [`PhaseContext::modulus_bits`] is
    /// the modulus of the zero test (for intermediate coefficient
    /// dropping).
    fn reduce(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        ctx: &PhaseContext,
    ) -> (Polynomial, PhaseStats);
}

/// No rewriting at all (the plain MT baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRewrite;

impl RewriteStrategy for NoRewrite {
    fn name(&self) -> &str {
        "none"
    }

    fn rewrite(&self, _model: &mut AlgebraicModel, _ctx: &PhaseContext) -> PhaseStats {
        PhaseStats::default()
    }
}

/// Fanout rewriting — the MT-FO baseline of Farahmandi & Alizadeh: the scan
/// rewriter (Algorithm 2) against the keep-set of fanout variables and
/// primary I/O ([`AlgebraicModel::fanout_keep_set`]), without vanishing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FanoutRewrite;

impl RewriteStrategy for FanoutRewrite {
    fn name(&self) -> &str {
        "fanout"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> PhaseStats {
        let keep = model.fanout_keep_set();
        gb_rewrite(model, &keep, None, ctx)
    }
}

/// XOR rewriting — the first half of MT-LR: the scan rewriter against the
/// keep-set of XOR inputs/outputs and primary I/O
/// ([`AlgebraicModel::xor_keep_set`]), applying the circuit's
/// [`crate::VanishingTracker`], which the reduction then reuses, after every
/// substitution unless [`PhaseContext::rules`] is [`VanishingRules::Off`].
/// The paper's ablation shows it is inefficient on its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct XorRewrite;

impl RewriteStrategy for XorRewrite {
    fn name(&self) -> &str {
        "xor"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> PhaseStats {
        let keep = model.xor_keep_set();
        let tracker = (ctx.rules != VanishingRules::Off).then(|| model.vanishing_tracker());
        gb_rewrite(model, &keep, tracker.as_deref(), ctx)
    }
}

/// Logic reduction rewriting (Algorithm 3), the paper's contribution and
/// the Step 2 of MT-LR: [`XorRewrite`], then, if it completed, common
/// rewriting — the scan rewriter against the variables shared by more than
/// one model polynomial and primary I/O
/// ([`AlgebraicModel::common_keep_set`]), without vanishing.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogicReductionRewrite;

impl RewriteStrategy for LogicReductionRewrite {
    fn name(&self) -> &str {
        "logic-reduction"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> PhaseStats {
        let mut stats = XorRewrite.rewrite(model, ctx);
        if stats.stop.is_none() {
            let keep = model.common_keep_set();
            stats.merge(&gb_rewrite(model, &keep, None, ctx));
        }
        stats
    }
}

/// Logic reduction rewriting on the incrementally indexed term store — the
/// Step 2 of [`Method::MtLrPar`]: the XOR pass and the common pass of
/// [`LogicReductionRewrite`], with the same keep-sets and candidate rule,
/// but with each tail substituted in place through the inverted var→term
/// index, vanishing products cancelled *during* each XOR-pass substitution,
/// and coefficients kept canonical modulo `2^(k - W(v))` from
/// [`PhaseContext::modulus_bits`] and [`PhaseContext::spec_weights`].
///
/// [`PhaseContext::rules`] selects the XOR pass's vanishing predicate:
///
/// * [`VanishingRules::Closure`] (the default), the unit-propagation
///   closure that [`crate::ParallelReduction`] also applies. It cancels
///   strictly more monomials than the scan tracker's patterns, so the
///   rewritten model is smaller than [`LogicReductionRewrite`]'s yet reduces
///   to the same remainder; this is what opens width 16+;
/// * [`VanishingRules::XorAnd`], the scan tracker's pattern rules. Without
///   spec weights the rewritten model is then [`LogicReductionRewrite`]'s
///   term for term, modulo `2^k`; with them each tail is that tail modulo
///   `2^(k - W(v))`. `tests/rewrite_equivalence.rs` pins both across every
///   generator architecture;
/// * [`VanishingRules::Off`], none.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexedLogicReductionRewrite;

impl RewriteStrategy for IndexedLogicReductionRewrite {
    fn name(&self) -> &str {
        "logic-reduction-indexed"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> PhaseStats {
        let keep = model.xor_keep_set();
        let vanishing = RewriteVanishing::new(model, ctx.rules);
        let mut stats = gb_rewrite_indexed(model, &keep, vanishing, ctx);
        if stats.stop.is_none() {
            let keep = model.common_keep_set();
            stats.merge(&gb_rewrite_indexed(model, &keep, None, ctx));
        }
        stats
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
    /// through [`IndexedLogicReductionRewrite`] (in-place drains,
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

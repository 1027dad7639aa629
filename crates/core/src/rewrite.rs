//! Gröbner basis rewriting (Step 2 of the membership testing algorithm).
//!
//! Rewriting is not required for soundness but is what makes the reduction of
//! large integer circuits feasible: it substitutes "uninteresting" internal
//! variables away so that the model depends only on a keep-set `V`, giving
//! common carry terms a chance to cancel during the subsequent reduction, and
//! — in XOR rewriting — removing vanishing monomials with the XOR-AND rule
//! before they can blow up.
//!
//! Three keep-set schemes are provided (Section II-B and IV-B of the paper):
//!
//! * [`RewritingScheme::Fanout`] — fanout variables + primary I/O. This is
//!   the MT-FO baseline of Farahmandi & Alizadeh.
//! * [`RewritingScheme::Xor`] — XOR-gate inputs/outputs + primary I/O, with
//!   the vanishing rule applied after every substitution.
//! * [`RewritingScheme::Common`] — variables shared by more than one model
//!   polynomial + primary I/O.
//!
//! The paper's *logic reduction rewriting* (Algorithm 3) is the sequential
//! application of XOR rewriting followed by common rewriting; see
//! [`logic_reduction_rewriting`].

use std::time::{Duration, Instant};

use gbmv_poly::{FastSet, IndexedPolynomial, Monomial, Polynomial, Var};

use crate::budget::DeadlineToken;
use crate::model::AlgebraicModel;
use crate::vanishing::{ClosureVanishing, VanishScratch, VanishingRules, VanishingTracker};

/// The keep-set selection schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewritingScheme {
    /// Keep fanout variables (MT-FO baseline).
    Fanout,
    /// Keep XOR inputs/outputs and apply the vanishing rule (first half of
    /// MT-LR).
    Xor,
    /// Keep variables shared between polynomials (second half of MT-LR).
    Common,
}

/// Configuration of a rewriting pass.
#[derive(Debug, Clone)]
pub struct RewriteConfig {
    /// Which structural vanishing rules to apply (only used by schemes that
    /// enable the rule, i.e. XOR rewriting).
    pub rules: VanishingRules,
    /// Abort when any tail polynomial exceeds this many terms.
    pub max_terms: usize,
    /// Cooperative cancellation and the only clock: the pass aborts (with
    /// [`RewriteStats::limit_exceeded`]) as soon as the token is cancelled or
    /// its deadline passes. The default token never expires.
    pub cancel: DeadlineToken,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            rules: VanishingRules::default(),
            max_terms: 5_000_000,
            cancel: DeadlineToken::new(),
        }
    }
}

/// Statistics of one or more rewriting passes.
#[derive(Debug, Clone, Default)]
pub struct RewriteStats {
    /// Total number of variable substitutions performed.
    pub substitutions: usize,
    /// Number of monomials removed by the vanishing rule (`#CVM`).
    pub cancelled_vanishing: u64,
    /// Number of polynomials removed from the model (`UpdateModel`).
    pub removed_polynomials: usize,
    /// Peak number of terms of any tail during rewriting.
    pub peak_terms: usize,
    /// Number of terms the indexed rewriter retrieved through the inverted
    /// var→term index (one per extracted term; zero for the scan-based
    /// engine).
    pub index_hits: u64,
    /// Number of output columns completed by the rewrite pass: column `j`
    /// counts once the pass moves past the last model polynomial whose
    /// backward cone reaches primary output `j` — every tail feeding that
    /// column is final from then on. Summed over passes (XOR + common for
    /// logic reduction); zero for the scan-based engine and for passes that
    /// stop at a resource limit.
    pub columns_retired: usize,
    /// Wall-clock time spent rewriting.
    pub elapsed: Duration,
    /// True if the pass hit a resource limit and the model is only partially
    /// rewritten (still sound, but reduction may blow up).
    pub limit_exceeded: bool,
}

impl RewriteStats {
    fn merge(&mut self, other: &RewriteStats) {
        self.substitutions += other.substitutions;
        self.cancelled_vanishing += other.cancelled_vanishing;
        self.removed_polynomials += other.removed_polynomials;
        self.peak_terms = self.peak_terms.max(other.peak_terms);
        self.index_hits += other.index_hits;
        self.columns_retired += other.columns_retired;
        self.elapsed += other.elapsed;
        self.limit_exceeded |= other.limit_exceeded;
    }
}

/// Computes the keep-set `V` of a scheme for the current model.
pub fn keep_set(model: &AlgebraicModel, scheme: RewritingScheme) -> FastSet<Var> {
    match scheme {
        RewritingScheme::Fanout => model.fanout_keep_set(),
        RewritingScheme::Xor => model.xor_keep_set(),
        RewritingScheme::Common => model.common_keep_set(),
    }
}

/// Gröbner basis rewriting (Algorithm 2, `GB-Rew`).
///
/// Rewrites every polynomial of the model so that its tail only mentions
/// variables in `keep` (or primary inputs), substituting other variables with
/// their gate polynomials. When `vanishing` is provided, the XOR-AND rule is
/// applied after every substitution. Finally, polynomials whose leading
/// variables are not in `keep` and are not primary outputs are removed from
/// the model.
pub fn gb_rewrite(
    model: &mut AlgebraicModel,
    keep: &FastSet<Var>,
    mut vanishing: Option<&mut VanishingTracker>,
    config: &RewriteConfig,
) -> RewriteStats {
    let start = Instant::now();
    let mut stats = RewriteStats::default();
    // Scratch polynomial reused across all substitutions of the pass, so each
    // step reuses the previous term table instead of reallocating.
    let mut scratch = Polynomial::zero();
    // "in reverse order of their leading monomial variables": with the
    // monomial order being the reverse topological order of the circuit, this
    // means processing the polynomials from the inputs side towards the
    // outputs, so tails that are substituted in have already been rewritten.
    let order = model.polynomial_order();
    for v in order {
        let mut tail = match model.tail(v) {
            Some(t) => t.clone(),
            None => continue,
        };
        loop {
            if config.cancel.expired() {
                stats.limit_exceeded = true;
                break;
            }
            let vt = match smallest_tail_candidate(model, &tail, keep) {
                Some(u) => u,
                None => break,
            };
            let replacement = model.tail(vt).expect("candidate has a tail").clone();
            tail.substitute_into(vt, &replacement, &mut scratch);
            std::mem::swap(&mut tail, &mut scratch);
            stats.substitutions += 1;
            if let Some(tracker) = vanishing.as_deref_mut() {
                let removed = tracker.apply(&mut tail);
                stats.cancelled_vanishing += removed as u64;
            }
            stats.peak_terms = stats.peak_terms.max(tail.num_terms());
            if tail.num_terms() > config.max_terms {
                stats.limit_exceeded = true;
                break;
            }
        }
        model.set_tail(v, tail);
        if stats.limit_exceeded {
            break;
        }
    }
    // UpdateModel: drop polynomials whose leading variable was substituted
    // away (not kept and not a primary output).
    if !stats.limit_exceeded {
        let order = model.polynomial_order();
        for v in order {
            if !keep.contains(&v) && !model.is_output(v) {
                model.remove(v);
                stats.removed_polynomials += 1;
            }
        }
    }
    stats.elapsed = start.elapsed();
    stats
}

/// Chooses the substitution candidate with the smallest tail, as the paper
/// prescribes, breaking ties by variable index for determinism.
///
/// Iterates the term monomials directly instead of materializing the set of
/// all tail variables per step — the previous implementation allocated a
/// fresh `HashSet<Var>` on every substitution of the rewrite loop. Duplicate
/// variables across monomials re-run the keep/input/tail probes but never
/// allocate.
fn smallest_tail_candidate(
    model: &AlgebraicModel,
    tail: &Polynomial,
    keep: &FastSet<Var>,
) -> Option<Var> {
    let mut best: Option<(usize, u32)> = None;
    for (m, _) in tail.iter() {
        for u in m.vars() {
            if keep.contains(&u) || model.is_input(u) {
                continue;
            }
            if let Some(t) = model.tail(u) {
                let key = (t.num_terms(), u.0);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
    }
    best.map(|(_, u)| Var(u))
}

/// Fanout rewriting: the Step-2 scheme of the MT-FO baseline.
pub fn fanout_rewriting(model: &mut AlgebraicModel, config: &RewriteConfig) -> RewriteStats {
    let keep = keep_set(model, RewritingScheme::Fanout);
    gb_rewrite(model, &keep, None, config)
}

/// XOR rewriting with the XOR-AND vanishing rule (first half of MT-LR).
pub fn xor_rewriting(model: &mut AlgebraicModel, config: &RewriteConfig) -> RewriteStats {
    let keep = keep_set(model, RewritingScheme::Xor);
    let mut tracker = VanishingTracker::new(model, config.rules);
    gb_rewrite(model, &keep, Some(&mut tracker), config)
}

/// Common rewriting (second half of MT-LR).
pub fn common_rewriting(model: &mut AlgebraicModel, config: &RewriteConfig) -> RewriteStats {
    let keep = keep_set(model, RewritingScheme::Common);
    gb_rewrite(model, &keep, None, config)
}

/// Logic reduction rewriting (Algorithm 3): XOR rewriting followed by common
/// rewriting. This is the paper's contribution (the Step 2 used by MT-LR).
pub fn logic_reduction_rewriting(
    model: &mut AlgebraicModel,
    config: &RewriteConfig,
) -> RewriteStats {
    let mut stats = xor_rewriting(model, config);
    if !stats.limit_exceeded {
        let common = common_rewriting(model, config);
        stats.merge(&common);
    }
    stats
}

/// How often the indexed rewriter polls the cancellation token inside a
/// single substitution step, in expanded products — the same cadence as the
/// indexed reduction engine.
const CANCEL_POLL_INTERVAL: usize = 64 * 1024;

/// The vanishing predicate [`gb_rewrite_indexed`] applies during each
/// substitution, selected per preset by [`VanishingRules::closure`] (see
/// [`indexed_xor_rewriting`]).
pub enum RewriteVanishing<'a> {
    /// The scan engine's static per-monomial pattern test. In this mode the
    /// rewriter's result is term-for-term identical to [`gb_rewrite`]'s —
    /// the differential contract pinned by `tests/rewrite_equivalence.rs`.
    Tracker(&'a VanishingTracker),
    /// The unit-propagation closure shared with the reduction engines; the
    /// presets' default. Cancels strictly more monomials than the tracker's
    /// patterns, trading byte-identity for the term-growth headroom that
    /// opens width 16+.
    Closure(&'a ClosureVanishing, VanishScratch),
}

impl<'a> RewriteVanishing<'a> {
    /// Wraps the closure index together with a fresh query scratch.
    pub fn closure(van: &'a ClosureVanishing) -> Self {
        Self::Closure(van, van.scratch())
    }

    fn enabled(&self) -> bool {
        match self {
            Self::Tracker(t) => t.enabled(),
            Self::Closure(c, _) => c.enabled(),
        }
    }

    /// Whether a pre-existing term of a freshly touched tail vanishes.
    fn sweep_vanishes(&mut self, m: &Monomial) -> bool {
        match self {
            Self::Tracker(t) => t.monomial_vanishes(m),
            Self::Closure(c, s) => c.vanishes(m, s),
        }
    }

    /// Installs the residual monomial of an extracted term for the product
    /// judgements that follow; `true` means the residual alone vanishes, so
    /// every product built on it does too (both predicates are monotone in
    /// the monomial's variable set).
    fn begin_rest(&mut self, rest: &Monomial) -> bool {
        match self {
            Self::Tracker(t) => t.monomial_vanishes(rest),
            Self::Closure(c, s) => c.set_rest(rest, s),
        }
    }

    /// Judges one replacement term against the residual installed by the
    /// last [`Self::begin_rest`]: `None` when `tm · rest` vanishes,
    /// otherwise the materialized product monomial.
    fn product(&mut self, tm: &Monomial, rest: &Monomial) -> Option<Monomial> {
        match self {
            Self::Tracker(t) => {
                let pm = tm.mul(rest);
                if t.monomial_vanishes(&pm) {
                    None
                } else {
                    Some(pm)
                }
            }
            Self::Closure(c, s) => {
                if c.rest_union_vanishes(tm, s) {
                    None
                } else {
                    Some(tm.mul(rest))
                }
            }
        }
    }
}

/// Gröbner basis rewriting on the incrementally indexed term store —
/// Algorithm 2 with the same candidate rule and stopping conditions as
/// [`gb_rewrite`], but with each tail held in an [`IndexedPolynomial`]:
///
/// * terms containing the substituted net are drained **in place** through
///   the inverted var→term index instead of re-materializing the whole tail
///   per step;
/// * with `vanishing`, structurally zero monomials are cancelled **during**
///   the substitution — a product whose monomial vanishes is never
///   inserted, and a whole extracted term is skipped when its residual
///   monomial alone already vanishes (sound because both predicates are
///   monotone: every supermonomial of a vanishing monomial vanishes too);
/// * with `modulus_bits = Some(k)`, coefficients are kept canonical mod
///   `2^k` and terms cancel at insertion time;
/// * terms over keep-set variables and primary inputs only (no remaining
///   substitution candidate) retire into the store's inert accumulator,
///   outside all per-step index maintenance.
///
/// The tracked set of each tail's store is its candidate set. On the
/// topologically ordered pass of a well-formed model every replacement tail
/// is already fully rewritten, so the candidate set never grows mid-tail —
/// but the engine still routes replacement-introduced internal nets through
/// [`IndexedPolynomial::track_var`], so partially rewritten models (for
/// example after an earlier pass stopped at a limit) stay correct.
///
/// The rewritten tails are the canonical post-rewrite form: coefficients in
/// `[0, 2^k)` when a modulus is given. Which products cancel depends on the
/// `vanishing` mode:
///
/// * [`RewriteVanishing::Tracker`] applies the *same* static per-monomial
///   test as the scan engine's tracker, so judging each product at
///   insertion is equivalent to sweeping the merged tail after the step
///   (the predicate is monotone), and the pre-existing terms of a tail are
///   swept once, when the first substitution touches it. Modulo the
///   coefficient canonicalization the result is then term-for-term
///   identical to [`gb_rewrite`]'s — pinned across every generator
///   architecture by `tests/rewrite_equivalence.rs`.
/// * [`RewriteVanishing::Closure`] applies the unit-propagation closure of
///   the reduction engines, which cancels strictly more monomials. The
///   post-rewrite model is then *not* syntactically the scan engine's —
///   the closure changes which variables survive the XOR pass, and with
///   them the common keep-set — but every cancelled monomial is a member
///   of the circuit ideal, so a completed reduction ends in exactly the
///   same multilinear remainder, verdict and counterexample (the argument
///   of `reduction.rs`'s closure cancellation). `tests/parallel_equivalence.rs`
///   pins the verdicts. This is the
///   presets' default mode and what opens width 16+: the closure kills the
///   high-degree carry products the tracker's local patterns miss.
pub fn gb_rewrite_indexed(
    model: &mut AlgebraicModel,
    keep: &FastSet<Var>,
    vanishing: Option<RewriteVanishing>,
    config: &RewriteConfig,
    modulus_bits: Option<u32>,
) -> RewriteStats {
    let start = Instant::now();
    let mut stats = RewriteStats::default();
    let mut vanishing = vanishing.filter(|v| v.enabled());
    let order = model.polynomial_order();
    // Suffix unions of the output-column masks over the pass order: column
    // `j` retires once the pass moves past the last polynomial whose
    // backward cone reaches output `j` — see `cone::output_column_masks`.
    let mut suffix = vec![0u64; order.len() + 1];
    for i in (0..order.len()).rev() {
        suffix[i] = suffix[i + 1] | model.column_mask(order[i]);
    }
    let var_count = model.var_count();
    let mut since_poll = 0usize;
    'pass: for (pos, &v) in order.iter().enumerate() {
        let retiring_cols = (suffix[pos] & !suffix[pos + 1]).count_ones() as usize;
        if config.cancel.expired() {
            stats.limit_exceeded = true;
            break 'pass;
        }
        let Some(tail) = model.tail(v) else { continue };
        // Candidate substitution fronts: the non-keep internal nets of the
        // original tail. This matches the scan engine's repeated search —
        // replacements only ever mention keep-set variables and inputs (see
        // above), so the front set shrinks monotonically.
        let mut cand: Vec<Var> = tail
            .vars()
            .into_iter()
            .filter(|&u| !keep.contains(&u) && !model.is_input(u) && model.tail(u).is_some())
            .collect();
        if cand.is_empty() {
            // Nothing to substitute: the scan engine re-stores the identical
            // tail and never applies vanishing to it.
            stats.columns_retired += retiring_cols;
            continue;
        }
        let mut tracked = vec![false; var_count];
        for &u in &cand {
            tracked[u.index()] = true;
        }
        let mut store = IndexedPolynomial::new(tracked, modulus_bits);
        for (m, c) in tail.iter() {
            store.add_term(m.clone(), c.clone());
        }
        // The pre-existing terms have not been vetted against the vanishing
        // rules yet; the sweep happens at the first substitution, mirroring
        // the scan engine's first post-substitution application.
        let mut swept = vanishing.is_none();
        loop {
            if config.cancel.expired() {
                stats.limit_exceeded = true;
                break;
            }
            // The same candidate rule as `smallest_tail_candidate`: smallest
            // replacement tail, tie-broken by variable index.
            let mut best: Option<(usize, u32)> = None;
            for &u in &cand {
                if store.occurrences(u) == 0 {
                    continue;
                }
                let Some(t) = model.tail(u) else { continue };
                let key = (t.num_terms(), u.0);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let Some((_, u)) = best else { break };
            let u = Var(u);
            let replacement = model.tail(u).expect("candidate has a tail");
            let extracted = store.extract_terms_containing(u);
            stats.substitutions += 1;
            if !swept {
                swept = true;
                if let Some(van) = vanishing.as_mut() {
                    // The substituted terms already left the store: they are
                    // expanded rather than pre-filtered, exactly like the
                    // scan engine, whose first tracker sweep also runs on
                    // the already-substituted tail — a vanishing term whose
                    // witness variable is the one being substituted away
                    // expands into products that need not vanish.
                    let removed = store.retain_terms(|m| !van.sweep_vanishes(m));
                    stats.cancelled_vanishing += removed as u64;
                }
            }
            // Tracked-set growth for replacement-introduced internal nets
            // (a no-op on fully rewritten replacements, see above).
            for w in replacement.vars() {
                if !keep.contains(&w)
                    && !model.is_input(w)
                    && model.tail(w).is_some()
                    && !cand.contains(&w)
                {
                    store.track_var(w);
                    cand.push(w);
                }
            }
            let mut aborted = false;
            'terms: for (m, c) in &extracted {
                let rest = m.without(u);
                // Monotonicity of the predicates: if the residual monomial
                // already vanishes, so does every product built on it —
                // skip the whole replacement tail.
                if let Some(van) = vanishing.as_mut() {
                    if van.begin_rest(&rest) {
                        stats.cancelled_vanishing += replacement.num_terms() as u64;
                        continue;
                    }
                }
                for (tm, tc) in replacement.iter() {
                    since_poll += 1;
                    if since_poll >= CANCEL_POLL_INTERVAL {
                        since_poll = 0;
                        if config.cancel.expired() {
                            aborted = true;
                            break 'terms;
                        }
                    }
                    let pm = match vanishing.as_mut() {
                        Some(van) => match van.product(tm, &rest) {
                            Some(pm) => pm,
                            None => {
                                stats.cancelled_vanishing += 1;
                                continue;
                            }
                        },
                        None => tm.mul(&rest),
                    };
                    store.add_term(pm, tc * c);
                }
            }
            if aborted {
                stats.limit_exceeded = true;
                break;
            }
            stats.peak_terms = stats.peak_terms.max(store.num_terms());
            if store.num_terms() > config.max_terms {
                stats.limit_exceeded = true;
                break;
            }
        }
        stats.index_hits += store.index_hits();
        // Reassemble even a partially rewritten tail — the scan engine also
        // stores the tail it had when a limit fired.
        model.set_tail(v, store.into_polynomial());
        if stats.limit_exceeded {
            break 'pass;
        }
        stats.columns_retired += retiring_cols;
    }
    // UpdateModel, exactly as in the scan engine.
    if !stats.limit_exceeded {
        let order = model.polynomial_order();
        for v in order {
            if !keep.contains(&v) && !model.is_output(v) {
                model.remove(v);
                stats.removed_polynomials += 1;
            }
        }
    }
    stats.elapsed = start.elapsed();
    stats
}

/// XOR rewriting on the indexed store, with vanishing cancellation applied
/// during each substitution. [`VanishingRules::closure`] selects the
/// predicate: the unit-propagation closure by default (the presets' fast,
/// width-16-opening mode), the scan tracker's pattern rules when disabled —
/// the byte-identical differential mode of `tests/rewrite_equivalence.rs`.
pub fn indexed_xor_rewriting(
    model: &mut AlgebraicModel,
    config: &RewriteConfig,
    modulus_bits: Option<u32>,
) -> RewriteStats {
    let keep = keep_set(model, RewritingScheme::Xor);
    if config.rules.closure {
        let vanishing = ClosureVanishing::new(model, config.rules);
        let vanishing = RewriteVanishing::closure(&vanishing);
        gb_rewrite_indexed(model, &keep, Some(vanishing), config, modulus_bits)
    } else {
        let vanishing = VanishingTracker::new(model, config.rules);
        let vanishing = RewriteVanishing::Tracker(&vanishing);
        gb_rewrite_indexed(model, &keep, Some(vanishing), config, modulus_bits)
    }
}

/// Common rewriting on the indexed store (no vanishing, like the scan
/// engine's common pass).
pub fn indexed_common_rewriting(
    model: &mut AlgebraicModel,
    config: &RewriteConfig,
    modulus_bits: Option<u32>,
) -> RewriteStats {
    let keep = keep_set(model, RewritingScheme::Common);
    gb_rewrite_indexed(model, &keep, None, config, modulus_bits)
}

/// Logic reduction rewriting (Algorithm 3) on the indexed store: indexed
/// XOR rewriting followed by indexed common rewriting — the Step 2 of the
/// `MT-LR-PAR` preset. With [`VanishingRules::closure`]
/// disabled it produces the canonical (mod `2^k`) form of
/// [`logic_reduction_rewriting`]'s result, term for term; with the default
/// closure mode the model is smaller but reduces to the same remainder.
pub fn indexed_logic_reduction_rewriting(
    model: &mut AlgebraicModel,
    config: &RewriteConfig,
    modulus_bits: Option<u32>,
) -> RewriteStats {
    let mut stats = indexed_xor_rewriting(model, config, modulus_bits);
    if !stats.limit_exceeded {
        let common = indexed_common_rewriting(model, config, modulus_bits);
        stats.merge(&common);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::GbReduction;
    use gbmv_genmul::{build_adder, AdderKind, MultiplierSpec};
    use gbmv_netlist::Netlist;
    use gbmv_poly::spec::{adder_spec, multiplier_spec};

    fn adder_vars(nl: &Netlist, width: usize) -> (Vec<Var>, Vec<Var>, Vec<Var>) {
        let a = (0..width)
            .map(|i| Var(nl.find_net(&format!("a{i}")).unwrap().0))
            .collect();
        let b = (0..width)
            .map(|i| Var(nl.find_net(&format!("b{i}")).unwrap().0))
            .collect();
        let s = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        (a, b, s)
    }

    /// Example 2 of the paper: after fanout rewriting, the 3-bit ripple carry
    /// adder model depends only on carries, inputs and outputs and the
    /// reduction still yields remainder zero.
    #[test]
    fn fanout_rewriting_ripple_carry_adder() {
        let nl = build_adder(3, AdderKind::RippleCarry, false);
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let polys_before = model.num_polynomials();
        let stats = fanout_rewriting(&mut model, &RewriteConfig::default());
        assert!(!stats.limit_exceeded);
        assert!(stats.removed_polynomials > 0);
        assert!(model.num_polynomials() < polys_before);
        // All tails now depend only on kept variables or primary inputs.
        let keep = keep_set(&model, RewritingScheme::Fanout);
        for v in model.polynomial_order() {
            for u in model.tail(v).unwrap().vars() {
                assert!(
                    keep.contains(&u) || model.is_input(u),
                    "tail of {} still mentions {}",
                    model.name(v),
                    model.name(u)
                );
            }
        }
        let (a, b, s) = adder_vars(&nl, 3);
        let spec = adder_spec(&a, &b, &s, None);
        let (r, outcome, _) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(r.is_zero());
    }

    /// Example 3 / Section IV of the paper: XOR rewriting cancels the
    /// vanishing monomials of a parallel-prefix (Kogge-Stone) adder.
    #[test]
    fn xor_rewriting_cancels_vanishing_monomials_on_prefix_adder() {
        let nl = build_adder(8, AdderKind::KoggeStone, false);
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let stats = xor_rewriting(&mut model, &RewriteConfig::default());
        assert!(!stats.limit_exceeded);
        assert!(
            stats.cancelled_vanishing > 0,
            "a Kogge-Stone adder must produce vanishing monomials"
        );
        let (a, b, s) = adder_vars(&nl, 8);
        let spec = adder_spec(&a, &b, &s, None);
        let (r, outcome, _) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(r.is_zero());
    }

    /// Ripple-carry circuits contain only a handful of local vanishing
    /// monomials (one per full adder), far fewer than a parallel-prefix adder
    /// of the same width — the paper's Section III observation.
    #[test]
    fn ripple_carry_has_fewer_vanishing_monomials_than_kogge_stone() {
        let width = 8;
        let rc = build_adder(width, AdderKind::RippleCarry, false);
        let mut rc_model = AlgebraicModel::from_netlist(&rc).unwrap();
        let rc_stats = xor_rewriting(&mut rc_model, &RewriteConfig::default());
        assert!(rc_stats.cancelled_vanishing <= width as u64);

        let ks = build_adder(width, AdderKind::KoggeStone, false);
        let mut ks_model = AlgebraicModel::from_netlist(&ks).unwrap();
        let ks_stats = xor_rewriting(&mut ks_model, &RewriteConfig::default());
        assert!(
            ks_stats.cancelled_vanishing > rc_stats.cancelled_vanishing,
            "Kogge-Stone ({}) must produce more vanishing monomials than ripple carry ({})",
            ks_stats.cancelled_vanishing,
            rc_stats.cancelled_vanishing
        );
    }

    #[test]
    fn logic_reduction_rewriting_multiplier_verifies() {
        let nl = MultiplierSpec::parse("SP-WT-BK", 4).unwrap().build();
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let stats = logic_reduction_rewriting(&mut model, &RewriteConfig::default());
        assert!(!stats.limit_exceeded);
        let a: Vec<Var> = (0..4)
            .map(|i| Var(nl.find_net(&format!("a{i}")).unwrap().0))
            .collect();
        let b: Vec<Var> = (0..4)
            .map(|i| Var(nl.find_net(&format!("b{i}")).unwrap().0))
            .collect();
        let s: Vec<Var> = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let spec = multiplier_spec(&a, &b, &s);
        let (r, outcome, _) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        let r = r.drop_multiples_of_pow2(8);
        assert!(r.is_zero(), "remainder: {}", model.render(&r));
    }

    #[test]
    fn rewriting_preserves_output_polynomials() {
        let nl = build_adder(4, AdderKind::BrentKung, false);
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        logic_reduction_rewriting(&mut model, &RewriteConfig::default());
        for &out in model.outputs() {
            assert!(
                model.tail(out).is_some(),
                "primary output {} must keep its polynomial",
                model.name(out)
            );
        }
    }

    #[test]
    fn term_limit_marks_partial_rewrite() {
        let nl = MultiplierSpec::parse("SP-WT-KS", 8).unwrap().build();
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let config = RewriteConfig {
            max_terms: 3,
            ..RewriteConfig::default()
        };
        let stats = fanout_rewriting(&mut model, &config);
        assert!(stats.limit_exceeded);
    }

    #[test]
    fn cancelled_token_aborts_rewriting() {
        let nl = MultiplierSpec::parse("SP-WT-KS", 6).unwrap().build();
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let token = DeadlineToken::new();
        token.cancel();
        let config = RewriteConfig {
            cancel: token,
            ..RewriteConfig::default()
        };
        let stats = fanout_rewriting(&mut model, &config);
        assert!(stats.limit_exceeded, "cancelled pass must stop early");
        assert_eq!(stats.substitutions, 0);
    }

    #[test]
    fn common_rewriting_reduces_model_size() {
        let nl = MultiplierSpec::parse("SP-CT-BK", 4).unwrap().build();
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let config = RewriteConfig::default();
        xor_rewriting(&mut model, &config);
        let before = model.num_polynomials();
        common_rewriting(&mut model, &config);
        assert!(model.num_polynomials() <= before);
    }

    #[test]
    fn indexed_rewriting_matches_the_scan_oracle() {
        // Full-coverage pinning lives in tests/rewrite_equivalence.rs; this
        // is the crate-level smoke for the same contract. `closure: false`
        // selects the tracker predicate, the byte-identical mode.
        let nl = MultiplierSpec::parse("SP-WT-BK", 4).unwrap().build();
        let base = AlgebraicModel::from_netlist(&nl).unwrap();
        let config = RewriteConfig {
            rules: VanishingRules {
                closure: false,
                ..VanishingRules::default()
            },
            ..RewriteConfig::default()
        };
        let mut oracle = base.clone();
        logic_reduction_rewriting(&mut oracle, &config);
        let mut indexed = base.clone();
        let stats = indexed_logic_reduction_rewriting(&mut indexed, &config, Some(8));
        assert!(!stats.limit_exceeded);
        assert!(stats.index_hits > 0);
        assert!(stats.columns_retired > 0);
        assert_eq!(oracle.polynomial_order(), indexed.polynomial_order());
        for v in oracle.polynomial_order() {
            let want = oracle.tail(v).unwrap().mod_coeffs_pow2(8);
            let got = indexed.tail(v).unwrap().mod_coeffs_pow2(8);
            assert_eq!(
                want.num_terms(),
                got.num_terms(),
                "tail of {}",
                oracle.name(v)
            );
            for (m, c) in want.iter() {
                assert_eq!(&got.coeff(m), c, "tail of {} diverges", oracle.name(v));
            }
        }
    }

    /// The default closure mode cancels at least as much as the tracker
    /// mode, produces a model that is no larger, and still reduces to
    /// remainder zero — the verdict-preservation half of the dual-mode
    /// contract (the byte-identity half is the test above).
    #[test]
    fn closure_mode_rewriting_cancels_more_and_still_verifies() {
        let nl = MultiplierSpec::parse("SP-WT-KS", 4).unwrap().build();
        let base = AlgebraicModel::from_netlist(&nl).unwrap();
        let tracker_config = RewriteConfig {
            rules: VanishingRules {
                closure: false,
                ..VanishingRules::default()
            },
            ..RewriteConfig::default()
        };
        let mut tracked = base.clone();
        let t_stats = indexed_logic_reduction_rewriting(&mut tracked, &tracker_config, Some(8));
        let mut closed = base.clone();
        let c_stats =
            indexed_logic_reduction_rewriting(&mut closed, &RewriteConfig::default(), Some(8));
        assert!(!t_stats.limit_exceeded && !c_stats.limit_exceeded);
        // Note: the cancellation *count* is not comparable across modes —
        // the closure kills residuals before their products ever form, so
        // fewer cancellation events can mean more cancellation.
        assert!(c_stats.cancelled_vanishing > 0);
        assert!(
            c_stats.peak_terms <= t_stats.peak_terms,
            "closure peak ({}) must not exceed the tracker peak ({})",
            c_stats.peak_terms,
            t_stats.peak_terms
        );
        let model_terms = |m: &AlgebraicModel| -> usize {
            m.polynomial_order()
                .into_iter()
                .map(|v| m.tail(v).unwrap().num_terms())
                .sum()
        };
        assert!(model_terms(&closed) <= model_terms(&tracked));
        let a: Vec<Var> = (0..4)
            .map(|i| Var(nl.find_net(&format!("a{i}")).unwrap().0))
            .collect();
        let b: Vec<Var> = (0..4)
            .map(|i| Var(nl.find_net(&format!("b{i}")).unwrap().0))
            .collect();
        let s: Vec<Var> = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let spec = multiplier_spec(&a, &b, &s);
        let (r, outcome, _) = GbReduction::default().reduce(&closed, &spec);
        assert!(outcome.is_completed());
        assert!(
            r.drop_multiples_of_pow2(8).is_zero(),
            "closure-mode rewrite must preserve the verdict"
        );
    }

    #[test]
    fn cancelled_token_aborts_indexed_rewriting() {
        let nl = MultiplierSpec::parse("SP-WT-KS", 6).unwrap().build();
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let token = DeadlineToken::new();
        token.cancel();
        let config = RewriteConfig {
            cancel: token,
            ..RewriteConfig::default()
        };
        let stats = indexed_logic_reduction_rewriting(&mut model, &config, Some(12));
        assert!(stats.limit_exceeded, "cancelled pass must stop early");
        assert_eq!(stats.substitutions, 0);
    }

    #[test]
    fn term_limit_marks_partial_indexed_rewrite() {
        let nl = MultiplierSpec::parse("SP-WT-KS", 8).unwrap().build();
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let config = RewriteConfig {
            max_terms: 3,
            ..RewriteConfig::default()
        };
        let stats = indexed_logic_reduction_rewriting(&mut model, &config, Some(16));
        assert!(stats.limit_exceeded);
    }
}

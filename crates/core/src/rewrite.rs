//! Gröbner basis rewriting (Step 2 of the membership testing algorithm).
//!
//! Rewriting is not required for soundness but is what makes the reduction of
//! large integer circuits feasible: it substitutes "uninteresting" internal
//! variables away so that the model depends only on a keep-set `V`, giving
//! common carry terms a chance to cancel during the subsequent reduction, and
//! — in XOR rewriting — removing vanishing monomials with the XOR-AND rule
//! before they can blow up.
//!
//! The keep-set schemes of the paper (Sections II-B and IV-B) are
//! [`crate::RewriteStrategy`] implementations, each the only entry to its
//! engine:
//!
//! * [`crate::FanoutRewrite`] keeps fanout variables and primary I/O. This
//!   is the MT-FO baseline of Farahmandi & Alizadeh.
//! * [`crate::XorRewrite`] keeps XOR-gate inputs/outputs and primary I/O,
//!   and applies the vanishing rules after every substitution.
//! * [`crate::LogicReductionRewrite`], the paper's *logic reduction
//!   rewriting* (Algorithm 3), runs XOR rewriting and then common rewriting,
//!   which keeps the variables shared by more than one model polynomial.
//! * [`crate::IndexedLogicReductionRewrite`] runs the same two passes on the
//!   incrementally indexed term store (the Step 2 of `MT-LR-PAR`).
//!
//! The first three run the scan rewriter of Algorithm 2 (`GB-Rew`), which
//! rebuilds a tail per substitution; the fourth runs the indexed rewriter,
//! whose product loop Step 3 of `MT-LR-PAR` shares. Both engines read their
//! term limit, token, modulus and spec weights from the
//! [`crate::PhaseContext`] alone, and report a [`crate::PhaseStats`]. This
//! module also holds the spec weights of a run ([`spec_weights`]).

use std::sync::Arc;

use gbmv_poly::{FastSet, IndexedPolynomial, Monomial, Polynomial, Var};

use crate::model::AlgebraicModel;
use crate::strategy::{PhaseContext, PhaseStats, Stop};
use crate::vanishing::{ClosureVanishing, VanishScratch, VanishingRules, VanishingTracker};

/// The spec weight `W(v)` of every model variable, indexed by
/// [`Var::index`]: the smallest 2-adic valuation of the coefficient of a
/// `spec` term whose monomial reaches `v` through the gate DAG, capped at
/// `k`. A variable no spec term reaches gets `k`, so its tail is dropped:
/// no remainder term can contain it. For a multiplier spec
/// (`-2^j s_j` per output, modulus `2^(2n)`) `W(v)` is the lowest output
/// column `v` feeds.
///
/// The weights let Step 2 keep each tail modulo `2^(k - W(v))` instead of
/// `2^k` (see [`crate::IndexedLogicReductionRewrite`]). This is sound for a
/// zero test modulo `2^k`:
///
/// * every remainder term that contains `v` descends from a spec term that
///   reaches `v`, and substitution only multiplies and adds coefficients, so
///   that term's coefficient `c` is a multiple of `2^W(v)` and `c · tail(v)`
///   does not change modulo `2^k`;
/// * a rewritten tail of `v` only mentions variables `u` of `v`'s cone, and
///   there `W(u) <= W(v)`, so substituting `tail(u)`, known modulo
///   `2^(k - W(u))`, into `tail(v)`, kept modulo `2^(k - W(v))`, loses
///   nothing.
pub fn spec_weights(model: &AlgebraicModel, spec: &Polynomial, k: u32) -> Vec<u32> {
    let mut weights = vec![k; model.var_count()];
    for (m, c) in spec.iter() {
        let valuation = (0..k).find(|&b| !c.is_multiple_of_pow2(b + 1)).unwrap_or(k);
        for x in m.vars() {
            if let Some(w) = weights.get_mut(x.index()) {
                *w = (*w).min(valuation);
            }
        }
    }
    // In reverse topological order each gate's weight is final before it
    // propagates to the gate's inputs.
    for (v, gate) in model.gates().rev() {
        let w = weights[v.index()];
        for u in &gate.inputs {
            weights[u.index()] = weights[u.index()].min(w);
        }
    }
    weights
}

/// Gröbner basis rewriting (Algorithm 2, `GB-Rew`).
///
/// Rewrites every polynomial of the model so that its tail only mentions
/// variables in `keep` (or primary inputs), substituting other variables with
/// their gate polynomials. When `vanishing` is provided, the XOR-AND rule is
/// applied after every substitution. Finally, polynomials whose leading
/// variables are not in `keep` and are not primary outputs are removed from
/// the model.
///
/// The pass stops with [`Stop::Token`] when `ctx.token` expires (polled
/// before every substitution), and with [`Stop::Terms`] when a tail passes
/// `ctx.max_terms` (checked after every substitution).
pub(crate) fn gb_rewrite(
    model: &mut AlgebraicModel,
    keep: &FastSet<Var>,
    vanishing: Option<&VanishingTracker>,
    ctx: &PhaseContext,
) -> PhaseStats {
    let mut stats = PhaseStats::default();
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
            if ctx.token.expired() {
                stats.stop = Some(Stop::Token);
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
            if let Some(tracker) = vanishing {
                let removed = tracker.apply(&mut tail);
                stats.cancelled_vanishing += removed as u64;
            }
            stats.peak_terms = stats.peak_terms.max(tail.num_terms());
            if tail.num_terms() > ctx.max_terms {
                stats.stop = Some(Stop::Terms);
                break;
            }
        }
        model.set_tail(v, tail);
        if stats.stop.is_some() {
            break;
        }
    }
    // UpdateModel: drop polynomials whose leading variable was substituted
    // away (not kept and not a primary output).
    if stats.stop.is_none() {
        let order = model.polynomial_order();
        for v in order {
            if !keep.contains(&v) && !model.is_output(v) {
                model.remove(v);
                stats.removed_polynomials += 1;
            }
        }
    }
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

/// How often the shared product loop ([`substitute_step`]) polls the
/// cancellation token, in expanded products, so even a single multi-second
/// substitution step reacts to cancellation.
const CANCEL_POLL_INTERVAL: usize = 64 * 1024;

/// The vanishing predicate the indexed loops apply during each substitution,
/// in the XOR pass of [`crate::IndexedLogicReductionRewrite`] and in
/// [`crate::ParallelReduction`]. [`RewriteVanishing::new`] picks it from the
/// run's [`VanishingRules`].
pub(crate) enum RewriteVanishing {
    /// The scan engine's static per-monomial pattern test
    /// ([`VanishingRules::XorAnd`]). In this mode the rewriter's result is
    /// term-for-term identical to [`gb_rewrite`]'s — the differential
    /// contract pinned by `tests/rewrite_equivalence.rs`.
    Tracker(Arc<VanishingTracker>),
    /// The unit-propagation closure ([`VanishingRules::Closure`], the
    /// presets' default), with its query scratch. Cancels strictly more
    /// monomials than the tracker's patterns, trading byte-identity for the
    /// term-growth headroom that opens width 16+. The index is the model's
    /// own, shared by both phases and every run, so Step 2 can rewrite the
    /// model while holding it.
    Closure(Arc<ClosureVanishing>, VanishScratch),
}

impl RewriteVanishing {
    /// The predicate of `rules` over `model`'s gates: `None` when logic
    /// reduction is off. The indexed engines' only mapping from a mode to a
    /// predicate.
    pub(crate) fn new(model: &AlgebraicModel, rules: VanishingRules) -> Option<Self> {
        match rules {
            VanishingRules::Off => None,
            VanishingRules::XorAnd => Some(Self::Tracker(model.vanishing_tracker())),
            VanishingRules::Closure => {
                let closure = model.closure_vanishing();
                let scratch = closure.scratch();
                Some(Self::Closure(closure, scratch))
            }
        }
    }

    /// Whether a pre-existing term (of a freshly touched tail, or of the
    /// incoming specification) vanishes.
    pub(crate) fn sweep_vanishes(&mut self, m: &Monomial) -> bool {
        match self {
            Self::Tracker(t) => t.monomial_vanishes(m),
            Self::Closure(c, s) => c.vanishes(m, s),
        }
    }

    /// Installs the residual monomial of a drained term for the product
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

/// The product loop of one indexed substitution step, shared by Step 2
/// ([`gb_rewrite_indexed`]) and Step 3 ([`crate::ParallelReduction`]):
/// drains every term `(m, c)` containing `v` out of `store`, one term at a
/// time, and adds `(m / v) · tail` back, so the step's products refill the
/// slots its drain frees and no copy of the drained terms exists. `v` must
/// have the highest drain rank present in `store` (the store's drain
/// contract), and `tail` must not contain `v`.
///
/// * With `vanishing`, a whole drained term is skipped when its residual
///   monomial `m / v` vanishes on its own, and each product is judged before
///   it is built; a vanishing product is never inserted.
/// * `ctx.token` is polled every [`CANCEL_POLL_INTERVAL`] products, counted
///   across steps in `since_poll`; an expired token stops the step with
///   [`Stop::Token`].
/// * The step's term bound is the store size less `occurrences(v)` at the
///   start of the step, plus every product emitted so far. It leaves out
///   the terms still to be drained (the ones a per-step copy of the drained
///   terms would hold) and bounds the rest of the store at any point of the
///   step. The step stops with [`Stop::Terms`] as soon as the bound passes
///   `ctx.max_terms`, raising `stats.peak_terms` to the bound.
///
/// A stopped step abandons its drain, so the terms it has not drained stay
/// in the store, indexed; the term whose products it was adding is gone.
/// A completed step adds its cancelled products to
/// `stats.cancelled_vanishing` and raises `stats.peak_terms` to the store
/// size; a stopped step adds no cancellations. Each caller counts
/// `stats.substitutions` itself.
pub(crate) fn substitute_step(
    store: &mut IndexedPolynomial,
    v: Var,
    tail: &Polynomial,
    mut vanishing: Option<&mut RewriteVanishing>,
    ctx: &PhaseContext,
    since_poll: &mut usize,
    stats: &mut PhaseStats,
) -> Result<(), Stop> {
    let max_terms = ctx.max_terms;
    let base = store.num_terms() - store.occurrences(v) as usize;
    let mut emitted = 0usize;
    let mut cancelled = 0u64;
    let mut drain = store.drain_containing(v);
    while let Some((m, c)) = drain.next(store) {
        let rest = m.without(v);
        if let Some(van) = vanishing.as_deref_mut() {
            if van.begin_rest(&rest) {
                cancelled += tail.num_terms() as u64;
                continue;
            }
        }
        for (tm, tc) in tail.iter() {
            *since_poll += 1;
            if *since_poll >= CANCEL_POLL_INTERVAL {
                *since_poll = 0;
                if ctx.token.expired() {
                    drain.abandon(store);
                    return Err(Stop::Token);
                }
            }
            let pm = match vanishing.as_deref_mut() {
                Some(van) => match van.product(tm, &rest) {
                    Some(pm) => pm,
                    None => {
                        cancelled += 1;
                        continue;
                    }
                },
                None => tm.mul(&rest),
            };
            emitted += 1;
            if base + emitted > max_terms {
                stats.peak_terms = stats.peak_terms.max(base + emitted);
                drain.abandon(store);
                return Err(Stop::Terms);
            }
            store.add_term(pm, tc * &c);
        }
    }
    stats.cancelled_vanishing += cancelled;
    stats.peak_terms = stats.peak_terms.max(store.num_terms());
    Ok(())
}

/// Gröbner basis rewriting on the incrementally indexed term store —
/// Algorithm 2 with the same candidate rule and stopping conditions as
/// [`gb_rewrite`], but with each tail held in an [`IndexedPolynomial`]:
///
/// * terms containing the substituted net are drained **in place** through
///   the inverted var→term index instead of re-materializing the whole tail
///   per step; every candidate has drain rank 1, so any of them may be
///   drained at any time (the store's drain contract) and each term is
///   indexed under every candidate it contains;
/// * with `vanishing`, structurally zero monomials are cancelled **during**
///   the substitution — a product whose monomial vanishes is never
///   inserted, and a whole drained term is skipped when its residual
///   monomial alone already vanishes (sound because both predicates are
///   monotone: every supermonomial of a vanishing monomial vanishes too);
/// * with `ctx.modulus_bits = Some(k)`, coefficients are kept canonical mod
///   `2^k` and terms cancel at insertion time; with `ctx.spec_weights` as
///   well (the [`spec_weights`] of the run), the tail of `v` is kept mod
///   `2^(k - W(v))` instead, so the tail of the top product bit of a
///   multiplier keeps only its parity;
/// * terms over keep-set variables and primary inputs only (no remaining
///   substitution candidate) retire into the store's inert accumulator,
///   outside all per-step index maintenance;
/// * a substitution step stops as soon as its term bound — the tail's size
///   less the terms still to be drained, plus the products the step has
///   emitted — passes `ctx.max_terms`, so no tail outgrows the budget
///   mid-step; `ctx.token` is polled before every substitution and inside
///   the product loop.
///
/// Each step's products come from the loop the indexed reduction shares
/// (`substitute_step`). The pass keeps one store, sized once by the model's
/// variable count: each tail [resets](IndexedPolynomial::reset) it to the
/// tail's candidate set and modulus and
/// [takes](IndexedPolynomial::take_polynomial) the rewritten tail out of it,
/// so a tail costs its terms and candidates, not the variable count. The
/// candidate set is fixed at the reset: the pass is topologically ordered,
/// so every replacement tail was fully rewritten earlier in the same pass (a
/// pass that stops at a limit ends the function), and a replacement never
/// brings in a new candidate.
///
/// The rewritten tails are the canonical post-rewrite form: coefficients in
/// `[0, 2^k)` when a modulus is given (in `[0, 2^(k - W(v)))` with spec
/// weights). Which products cancel depends on the `vanishing` mode:
///
/// * [`RewriteVanishing::Tracker`] applies the *same* static per-monomial
///   test as the scan engine's tracker, so judging each product at
///   insertion is equivalent to sweeping the merged tail after the step
///   (the predicate is monotone), and the pre-existing terms of a tail are
///   swept once, when the first substitution touches it. Modulo the
///   coefficient canonicalization the result is then term-for-term
///   identical to [`gb_rewrite`]'s — pinned across every generator
///   architecture by `tests/rewrite_equivalence.rs`, which also pins the
///   weighted tails against the oracle's tails reduced mod `2^(k - W(v))`.
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
pub(crate) fn gb_rewrite_indexed(
    model: &mut AlgebraicModel,
    keep: &FastSet<Var>,
    mut vanishing: Option<RewriteVanishing>,
    ctx: &PhaseContext,
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let order = model.polynomial_order();
    // Suffix unions of the output-column masks over the pass order: column
    // `j` retires once the pass moves past the last polynomial whose
    // backward cone reaches output `j` — see `AlgebraicModel::column_mask`.
    let mut suffix = vec![0u64; order.len() + 1];
    for i in (0..order.len()).rev() {
        suffix[i] = suffix[i + 1] | model.column_mask(order[i]);
    }
    // One store for the whole pass, re-ranked for each tail, and a dense
    // marker that collects each tail's candidates without a set per tail.
    let mut store = IndexedPolynomial::new(vec![0; model.var_count()], None);
    let mut marked = vec![false; model.var_count()];
    let mut cand: Vec<Var> = Vec::new();
    let mut since_poll = 0usize;
    'pass: for (pos, &v) in order.iter().enumerate() {
        let retiring_cols = (suffix[pos] & !suffix[pos + 1]).count_ones() as usize;
        if ctx.token.expired() {
            stats.stop = Some(Stop::Token);
            break 'pass;
        }
        let Some(tail) = model.tail(v) else { continue };
        let is_candidate =
            |u: Var| !keep.contains(&u) && !model.is_input(u) && model.tail(u).is_some();
        // Candidate substitution fronts: the non-keep internal nets of the
        // original tail. This matches the scan engine's repeated search —
        // replacements only ever mention keep-set variables and inputs (see
        // above), so the front set shrinks monotonically.
        cand.clear();
        for u in tail.iter().flat_map(|(m, _)| m.vars()) {
            if !marked[u.index()] && is_candidate(u) {
                marked[u.index()] = true;
                cand.push(u);
            }
        }
        for u in &cand {
            marked[u.index()] = false;
        }
        if cand.is_empty() {
            // Nothing to substitute: the scan engine re-stores the identical
            // tail and never applies vanishing to it.
            stats.columns_retired += retiring_cols;
            continue;
        }
        let weight = ctx.spec_weights.as_ref().map_or(0, |w| w[v.index()]);
        store.reset(&cand, ctx.modulus_bits.map(|k| k.saturating_sub(weight)));
        for (m, c) in tail.iter() {
            store.add_term(m.clone(), c.clone());
        }
        // The pre-existing terms have not been vetted against the vanishing
        // rules yet; the sweep happens at the first substitution, mirroring
        // the scan engine's first post-substitution application.
        let mut swept = vanishing.is_none();
        loop {
            if ctx.token.expired() {
                stats.stop = Some(Stop::Token);
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
            debug_assert!(
                replacement.vars().into_iter().all(|w| !is_candidate(w)),
                "the replacement tail of {} is not fully rewritten",
                model.name(u)
            );
            stats.substitutions += 1;
            if !swept {
                swept = true;
                if let Some(van) = vanishing.as_mut() {
                    // The sweep skips the terms of `u`: they are expanded
                    // rather than pre-filtered, exactly like the scan
                    // engine, whose first tracker sweep also runs on the
                    // already-substituted tail — a vanishing term whose
                    // witness variable is the one being substituted away
                    // expands into products that need not vanish.
                    let removed = store.retain_terms(|m| m.contains(u) || !van.sweep_vanishes(m));
                    stats.cancelled_vanishing += removed as u64;
                }
            }
            if let Err(stop) = substitute_step(
                &mut store,
                u,
                replacement,
                vanishing.as_mut(),
                ctx,
                &mut since_poll,
                &mut stats,
            ) {
                stats.stop = Some(stop);
                break;
            }
        }
        stats.index_hits += store.index_hits();
        // Reassemble even a partially rewritten tail, with the terms a
        // stopped step had not drained yet — the scan engine also stores
        // the tail it had when a limit fired.
        model.set_tail(v, store.take_polynomial());
        if stats.stop.is_some() {
            break 'pass;
        }
        stats.columns_retired += retiring_cols;
    }
    // UpdateModel, exactly as in the scan engine.
    if stats.stop.is_none() {
        let order = model.polynomial_order();
        for v in order {
            if !keep.contains(&v) && !model.is_output(v) {
                model.remove(v);
                stats.removed_polynomials += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::DeadlineToken;
    use crate::reduction::GreedyReduction;
    use crate::spec::Spec;
    use crate::strategy::{
        FanoutRewrite, IndexedLogicReductionRewrite, LogicReductionRewrite, ReductionStrategy,
        RewriteStrategy, XorRewrite,
    };
    use crate::vanishing::VanishingRules;
    use gbmv_genmul::{build_adder, AdderKind, MultiplierSpec};
    use gbmv_netlist::Netlist;
    use gbmv_poly::spec::{adder_spec, multiplier_spec};

    /// The four rewriting strategies, each the entry to its engine.
    fn rewriters() -> [&'static dyn RewriteStrategy; 4] {
        [
            &FanoutRewrite,
            &XorRewrite,
            &LogicReductionRewrite,
            &IndexedLogicReductionRewrite,
        ]
    }

    /// A context with the tracker predicate (`XorAnd` mode) and a `2^k`
    /// modulus: the byte-identical mode of the indexed rewriter.
    fn tracker_context(k: u32) -> PhaseContext {
        PhaseContext {
            rules: VanishingRules::XorAnd,
            modulus_bits: Some(k),
            ..PhaseContext::default()
        }
    }

    /// The scan reduction without vanishing or modulus, under the default
    /// context.
    fn reduce(model: &AlgebraicModel, spec: &Polynomial) -> Polynomial {
        let (r, stats) =
            GreedyReduction { vanishing: false }.reduce(model, spec, &PhaseContext::default());
        assert_eq!(stats.stop, None);
        r
    }

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
        let stats = FanoutRewrite.rewrite(&mut model, &PhaseContext::default());
        assert_eq!(stats.stop, None);
        assert!(stats.removed_polynomials > 0);
        assert!(model.num_polynomials() < polys_before);
        // All tails now depend only on kept variables or primary inputs.
        let keep = model.fanout_keep_set();
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
        let r = reduce(&model, &spec);
        assert!(r.is_zero());
    }

    /// Example 3 / Section IV of the paper: XOR rewriting cancels the
    /// vanishing monomials of a parallel-prefix (Kogge-Stone) adder.
    #[test]
    fn xor_rewriting_cancels_vanishing_monomials_on_prefix_adder() {
        let nl = build_adder(8, AdderKind::KoggeStone, false);
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let stats = XorRewrite.rewrite(&mut model, &PhaseContext::default());
        assert_eq!(stats.stop, None);
        assert!(
            stats.cancelled_vanishing > 0,
            "a Kogge-Stone adder must produce vanishing monomials"
        );
        let (a, b, s) = adder_vars(&nl, 8);
        let spec = adder_spec(&a, &b, &s, None);
        let r = reduce(&model, &spec);
        assert!(r.is_zero());
    }

    /// Ripple-carry circuits contain only a handful of local vanishing
    /// monomials (one per full adder), far fewer than a parallel-prefix adder
    /// of the same width — the paper's Section III observation.
    #[test]
    fn ripple_carry_has_fewer_vanishing_monomials_than_kogge_stone() {
        let width = 8;
        let ctx = PhaseContext::default();
        let rc = build_adder(width, AdderKind::RippleCarry, false);
        let mut rc_model = AlgebraicModel::from_netlist(&rc).unwrap();
        let rc_stats = XorRewrite.rewrite(&mut rc_model, &ctx);
        assert!(rc_stats.cancelled_vanishing <= width as u64);

        let ks = build_adder(width, AdderKind::KoggeStone, false);
        let mut ks_model = AlgebraicModel::from_netlist(&ks).unwrap();
        let ks_stats = XorRewrite.rewrite(&mut ks_model, &ctx);
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
        let stats = LogicReductionRewrite.rewrite(&mut model, &PhaseContext::default());
        assert_eq!(stats.stop, None);
        let a: Vec<Var> = (0..4)
            .map(|i| Var(nl.find_net(&format!("a{i}")).unwrap().0))
            .collect();
        let b: Vec<Var> = (0..4)
            .map(|i| Var(nl.find_net(&format!("b{i}")).unwrap().0))
            .collect();
        let s: Vec<Var> = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let spec = multiplier_spec(&a, &b, &s);
        let r = reduce(&model, &spec);
        let r = r.drop_multiples_of_pow2(8);
        assert!(r.is_zero(), "remainder: {}", model.render(&r));
    }

    #[test]
    fn rewriting_preserves_output_polynomials() {
        let nl = build_adder(4, AdderKind::BrentKung, false);
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        LogicReductionRewrite.rewrite(&mut model, &PhaseContext::default());
        for &out in model.outputs() {
            assert!(
                model.tail(out).is_some(),
                "primary output {} must keep its polynomial",
                model.name(out)
            );
        }
    }

    /// Every rewriting strategy reads `ctx.max_terms`: a 3-term limit stops
    /// each one part-way.
    #[test]
    fn term_limit_marks_partial_rewrite() {
        let nl = MultiplierSpec::parse("SP-WT-KS", 8).unwrap().build();
        let base = AlgebraicModel::from_netlist(&nl).unwrap();
        let ctx = PhaseContext {
            max_terms: 3,
            ..PhaseContext::default()
        };
        for rewriter in rewriters() {
            let mut model = base.clone();
            let stats = rewriter.rewrite(&mut model, &ctx);
            assert_eq!(stats.stop, Some(Stop::Terms), "{}", rewriter.name());
        }
    }

    /// Every rewriting strategy reads `ctx.token`: a cancelled token stops
    /// each one before its first substitution.
    #[test]
    fn cancelled_token_aborts_rewriting() {
        let nl = MultiplierSpec::parse("SP-WT-KS", 6).unwrap().build();
        let base = AlgebraicModel::from_netlist(&nl).unwrap();
        let ctx = PhaseContext::default();
        ctx.token.cancel();
        for rewriter in rewriters() {
            let mut model = base.clone();
            let stats = rewriter.rewrite(&mut model, &ctx);
            let name = rewriter.name();
            assert_eq!(
                stats.stop,
                Some(Stop::Token),
                "{name}: cancelled pass must stop early"
            );
            assert_eq!(stats.substitutions, 0, "{name}");
        }
    }

    #[test]
    fn common_rewriting_reduces_model_size() {
        let nl = MultiplierSpec::parse("SP-CT-BK", 4).unwrap().build();
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let ctx = PhaseContext::default();
        XorRewrite.rewrite(&mut model, &ctx);
        let before = model.num_polynomials();
        let keep = model.common_keep_set();
        gb_rewrite(&mut model, &keep, None, &ctx);
        assert!(model.num_polynomials() <= before);
    }

    #[test]
    fn indexed_rewriting_matches_the_scan_oracle() {
        // Full-coverage pinning lives in tests/rewrite_equivalence.rs; this
        // is the crate-level smoke for the same contract. `XorAnd` mode
        // selects the tracker predicate, the byte-identical mode.
        let nl = MultiplierSpec::parse("SP-WT-BK", 4).unwrap().build();
        let base = AlgebraicModel::from_netlist(&nl).unwrap();
        let ctx = tracker_context(8);
        let mut oracle = base.clone();
        LogicReductionRewrite.rewrite(&mut oracle, &ctx);
        let mut indexed = base.clone();
        let stats = IndexedLogicReductionRewrite.rewrite(&mut indexed, &ctx);
        assert_eq!(stats.stop, None);
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
        let mut tracked = base.clone();
        let t_stats = IndexedLogicReductionRewrite.rewrite(&mut tracked, &tracker_context(8));
        let mut closed = base.clone();
        let closure_ctx = PhaseContext {
            modulus_bits: Some(8),
            ..PhaseContext::default()
        };
        let c_stats = IndexedLogicReductionRewrite.rewrite(&mut closed, &closure_ctx);
        assert_eq!((t_stats.stop, c_stats.stop), (None, None));
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
        let r = reduce(&closed, &spec);
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
        let ctx = PhaseContext {
            token,
            modulus_bits: Some(12),
            ..PhaseContext::default()
        };
        let stats = IndexedLogicReductionRewrite.rewrite(&mut model, &ctx);
        assert_eq!(
            stats.stop,
            Some(Stop::Token),
            "cancelled pass must stop early"
        );
        assert_eq!(stats.substitutions, 0);
    }

    #[test]
    fn term_limit_marks_partial_indexed_rewrite() {
        let nl = MultiplierSpec::parse("SP-WT-KS", 8).unwrap().build();
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let ctx = PhaseContext {
            max_terms: 3,
            modulus_bits: Some(16),
            ..PhaseContext::default()
        };
        let stats = IndexedLogicReductionRewrite.rewrite(&mut model, &ctx);
        assert_eq!(stats.stop, Some(Stop::Terms));
    }

    /// The bound is checked per emitted product, so a limit-stopped pass
    /// reports a peak of at most one term past the budget.
    #[test]
    fn indexed_rewrite_stops_inside_the_step() {
        let nl = MultiplierSpec::parse("BP-RT-KS", 8).unwrap().build();
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let ctx = PhaseContext {
            max_terms: 200,
            modulus_bits: Some(16),
            ..PhaseContext::default()
        };
        let stats = IndexedLogicReductionRewrite.rewrite(&mut model, &ctx);
        assert_eq!(stats.stop, Some(Stop::Terms));
        assert_eq!(stats.peak_terms, 201);
    }

    fn multiplier_weights(arch: &str, spec: Spec, width: usize) -> (AlgebraicModel, Vec<u32>) {
        let nl = MultiplierSpec::parse(arch, width).unwrap().build();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let (poly, modulus) = spec.instantiate(&model).unwrap();
        let weights = spec_weights(&model, &poly, modulus.unwrap());
        (model, weights)
    }

    /// Output bit `s_j` enters both multiplier specs as `2^j s_j` and feeds
    /// no lower column, so its weight is `j`; every variable feeding output
    /// 0 has weight 0.
    #[test]
    fn spec_weights_of_multiplier_outputs_are_their_columns() {
        for spec in [Spec::multiplier(4), Spec::signed_multiplier(4)] {
            let (model, weights) = multiplier_weights("BP-WT-CL", spec, 4);
            for (j, &s) in model.outputs().iter().enumerate() {
                assert_eq!(weights[s.index()], j as u32, "output {}", model.name(s));
            }
            for v in (0..model.var_count() as u32).map(Var) {
                if model.column_mask(v) & 1 == 1 {
                    assert_eq!(weights[v.index()], 0, "{} feeds s0", model.name(v));
                }
            }
        }
    }

    /// For the unsigned multiplier spec the weight of every variable is the
    /// lowest output column it feeds; a gate feeding no output (the
    /// generator leaves a few) gets the cap `k = 10`.
    #[test]
    fn spec_weights_are_the_lowest_column_fed() {
        let (model, weights) = multiplier_weights("SP-DT-HC", Spec::multiplier(5), 5);
        for v in model.polynomial_order() {
            let lowest = model.column_mask(v).trailing_zeros().min(10);
            assert_eq!(weights[v.index()], lowest, "{}", model.name(v));
        }
    }

    /// An output that also drives a gate feeding a lower output takes the
    /// lower weight: `s1 = a0 & !a0` (constant 0, as the width-1 product
    /// needs) also feeds `s0 = (a0 & b0) | s1`.
    #[test]
    fn output_feeding_a_lower_column_takes_its_weight() {
        let mut nl = Netlist::new("mul1");
        let a0 = nl.add_input("a0");
        let b0 = nl.add_input("b0");
        let na0 = nl.not1(a0, "na0");
        let s1 = nl.and2(a0, na0, "s1");
        let p = nl.and2(a0, b0, "p");
        let s0 = nl.or2(p, s1, "s0");
        nl.add_output("s0", s0);
        nl.add_output("s1", s1);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let (poly, modulus) = Spec::multiplier(1).instantiate(&model).unwrap();
        let weights = spec_weights(&model, &poly, modulus.unwrap());
        assert_eq!(weights[s0.index()], 0);
        assert_eq!(weights[s1.index()], 0, "s1 feeds s0");
        assert_eq!(weights[na0.index()], 0);
    }
}

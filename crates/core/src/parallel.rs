//! The indexed reduction engine behind the `MT-LR-PAR` preset.
//!
//! [`ParallelReduction`] runs the Step-3 reduction (Algorithm 1) over the
//! whole specification with the greedy level-restricted substitution order of
//! [`crate::GbReduction`], the scan-based reference it is pinned against, but
//! on an incrementally indexed term store:
//!
//! * The working remainder lives in an [`IndexedPolynomial`]: an inverted
//!   var→term-handle index makes each substitution step touch only the terms
//!   that actually mention the substituted variable.
//! * Coefficients are kept canonical `mod 2^k`, so modular cancellation
//!   happens at insert instead of in a post-step sweep.
//! * Terms whose support is fully substituted retire into an input-only
//!   accumulator (the incremental form of column-wise spec reduction: once no
//!   live term mentions a tracked variable reaching an output column, that
//!   column's terms never re-enter the hot path). Greedy ties break toward
//!   the lowest output column, so low columns retire early.
//! * Vanishing is checked on newly created monomials only, through the
//!   unit-propagation closure index ([`crate::ClosureVanishing`]), which
//!   covers the paper's XOR-AND/NOR patterns as well as deeper
//!   XOR-chain/majority contradictions.
//! * A substitution step that expands into at least 16 K candidate products
//!   is sharded over term ranges across
//!   [`crate::Budget::effective_threads`] scoped worker threads.
//! * The term budget holds inside a step: a step stops as soon as the store
//!   size at its start plus the products it has emitted passes
//!   [`crate::Budget::max_terms`], so neither the store nor a shard's
//!   partial outgrows the budget.
//!
//! Integer term arithmetic is exact, and neither the substitution order nor
//! the vanishing/modular dropping depends on the thread count, so remainders,
//! verdicts and counterexamples are bit-identical for any `threads` value.
//! Every worker polls the session's [`DeadlineToken`]; a cancellation or
//! deadline expiry stops the step at its next polling point, and the scoped
//! workers join before the strategy returns.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use gbmv_poly::{IndexedPolynomial, Int, Monomial, Polynomial, Var};

use crate::budget::DeadlineToken;
use crate::model::AlgebraicModel;
use crate::reduction::{ReductionOutcome, ReductionStats};
use crate::strategy::{PhaseContext, ReductionStrategy};
use crate::vanishing::{ClosureVanishing, VanishScratch};

/// Shard the expansion of one substitution step across threads once it
/// produces at least this many candidate product terms.
const SHARD_MIN_PRODUCTS: usize = 16 * 1024;

/// Poll the cancellation token every this many generated product terms, so
/// even a single multi-second substitution step reacts to cancellation.
const CANCEL_POLL_INTERVAL: usize = 64 * 1024;

/// The [`ReductionStrategy`] of the preset [`crate::Method::MtLrPar`]: the
/// indexed engine of the module docs, with term-range sharding over
/// [`crate::Budget::threads`]. Vanishing follows the run's
/// [`crate::VanishingRules`] alone: with every rule off, no product is
/// cancelled.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelReduction;

impl ReductionStrategy for ParallelReduction {
    fn name(&self) -> &str {
        "indexed"
    }

    fn reduce(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        modulus_bits: Option<u32>,
        ctx: &PhaseContext,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        let start = Instant::now();
        let vanish =
            Some(ClosureVanishing::new(model, ctx.rules)).filter(ClosureVanishing::enabled);
        let engine = FusedReduction {
            model,
            vanish: vanish.as_ref(),
            modulus_bits,
            max_terms: ctx.budget.max_terms,
            token: &ctx.token,
            threads: ctx.budget.effective_threads(),
        };
        let (r, outcome, mut stats) = engine.reduce(spec);
        stats.elapsed = start.elapsed();
        (r, outcome, stats)
    }
}

/// One run of the indexed engine: the model, the run's limits, and the
/// vanishing index shared by every worker.
struct FusedReduction<'a> {
    model: &'a AlgebraicModel,
    vanish: Option<&'a ClosureVanishing>,
    modulus_bits: Option<u32>,
    max_terms: usize,
    token: &'a DeadlineToken,
    threads: usize,
}

impl FusedReduction<'_> {
    fn reduce(&self, spec: &Polynomial) -> (Polynomial, ReductionOutcome, ReductionStats) {
        let model = self.model;
        let mut stats = ReductionStats::default();
        let mut scratch = self.vanish.map(ClosureVanishing::scratch);

        // The vanishing rules are applied to the incoming spec once;
        // afterwards only newly created monomials can vanish (the property is
        // static per monomial), so surviving terms are never re-checked.
        let mut initial = spec.clone();
        if let (Some(van), Some(s)) = (self.vanish, scratch.as_mut()) {
            stats.cancelled_vanishing += initial.retain_terms(|m| !van.vanishes(m, s)) as u64;
        }

        // The substitutable variables: everything with a model tail. Inputs
        // and tail-less variables are never substituted, so terms made only
        // of those retire out of the indexed hot path.
        let tracked: Vec<bool> = (0..model.var_count())
            .map(|i| {
                let v = Var(i as u32);
                !model.is_input(v) && model.tail(v).is_some()
            })
            .collect();

        // Ingest into the indexed store: coefficients become canonical
        // `mod 2^k` (multiples of `2^k` cancel at insert — the incremental
        // form of the old post-step drop sweep), occurrence counts and the
        // inverted index are maintained from here on by the store itself.
        let mut r = IndexedPolynomial::from_polynomial(&initial, tracked, self.modulus_bits);
        drop(initial);
        stats.peak_terms = r.num_terms();

        // Column retirement accounting: a column is "active" while some live
        // term mentions a tracked variable reaching it, and "retires" when it
        // loses its last such occurrence — from then on all of its terms are
        // input-only and sit in the inert accumulator, outside the indexed
        // hot path. The active mask is recomputed during the candidate scan
        // (which already walks every occurrence count).
        let mut active_cols = 0u64;
        for (i, &occ) in r.occurrence_counts().iter().enumerate() {
            if occ > 0 {
                active_cols |= model.column_mask(Var(i as u32));
            }
        }
        let mut retired_cols = 0u64;

        let outcome = loop {
            // Only the ingested spec can exceed the budget here: every step
            // keeps the store within it (see `expand`).
            if r.num_terms() > self.max_terms {
                break ReductionOutcome::LimitExceeded {
                    terms: r.num_terms(),
                };
            }
            // Candidate selection — the same rule as `GbReduction`: among the
            // variables of the highest present logic level, the smallest
            // estimated growth `occurrences x (tail size - 1)`, tie-broken by
            // variable index — except that the highest output column a
            // variable reaches ranks before the growth estimate. Any order
            // yields the same final remainder: the rewritten model stays a
            // Gröbner basis, so the normal form is order-independent.
            let mut best: Option<(usize, u32, usize, u32)> = None; // (level, colw, growth, idx)
            let mut next_active = 0u64;
            for (i, &occ) in r.occurrence_counts().iter().enumerate() {
                if occ == 0 {
                    continue;
                }
                let v = Var(i as u32);
                let level = model.level(v);
                let mask = model.column_mask(v);
                next_active |= mask;
                let colw = if mask != 0 {
                    63 - mask.leading_zeros()
                } else {
                    0
                };
                let tail_terms = model.tail(v).map(Polynomial::num_terms).unwrap_or(0);
                let growth = occ as usize * tail_terms.saturating_sub(1);
                let replace = match best {
                    None => true,
                    Some((bl, bc, bg, bi)) => {
                        level > bl || (level == bl && (colw, growth, v.0) < (bc, bg, bi))
                    }
                };
                if replace {
                    best = Some((level, colw, growth, v.0));
                }
            }
            let newly_retired = active_cols & !next_active & !retired_cols;
            stats.columns_retired += newly_retired.count_ones() as usize;
            retired_cols |= newly_retired;
            active_cols = next_active;
            let Some((_, _, _, idx)) = best else {
                break ReductionOutcome::Completed;
            };
            let v = Var(idx);

            // In-place substitution through the inverted index: only the
            // terms actually containing `v` are touched.
            let tail = model.tail(v).expect("candidate has a tail");
            let extracted = r.extract_terms_containing(v);
            match self.expand(&mut r, &extracted, tail, v, scratch.as_mut()) {
                Ok(cancelled) => stats.cancelled_vanishing += cancelled,
                Err(stop) => {
                    if let ReductionOutcome::LimitExceeded { terms } = stop {
                        stats.peak_terms = stats.peak_terms.max(terms);
                    }
                    break stop;
                }
            }
            stats.substitutions += 1;

            stats.peak_terms = stats.peak_terms.max(r.num_terms());
            if let Some(stop) = ReductionOutcome::from_token(self.token) {
                break stop;
            }
        };
        stats.index_hits = r.index_hits();
        stats.final_terms = r.num_terms();
        (r.into_polynomial(), outcome, stats)
    }

    /// Expands `extracted x tail` into `r`. A step of at least
    /// [`SHARD_MIN_PRODUCTS`] products is split into one term range per
    /// worker thread: each worker expands its range into a private exact
    /// partial (with its own vanishing scratch), and the partials are folded
    /// into `r` afterwards. Addition is exact and commutative, and the
    /// canonical `mod 2^k` residue of an exact sum equals the residue of the
    /// canonical sum, so the resulting term table (and hence the maintained
    /// occurrence counts) is bit-identical for any thread count.
    ///
    /// The step's term bound is the store size after extraction plus every
    /// product the step emits, and the step stops with [`Self::term_stop`]
    /// once it passes `max_terms`. Each range checks its own products, so
    /// neither the store nor any one partial outgrows the budget; shards
    /// also add their counts to the step's total at every polling point, so
    /// together they overshoot by at most one polling interval each; and
    /// the fold checks the total once more. The bound counts products
    /// rather than distinct terms, so whether a step stops does not depend
    /// on the thread count.
    ///
    /// Returns the number of cancelled (vanishing) products, or the stop.
    fn expand(
        &self,
        r: &mut IndexedPolynomial,
        extracted: &[(Monomial, Int)],
        tail: &Polynomial,
        v: Var,
        scratch: Option<&mut VanishScratch>,
    ) -> Result<u64, ReductionOutcome> {
        let bound = StepBound {
            room: self.max_terms.saturating_sub(r.num_terms()),
            emitted: AtomicUsize::new(0),
        };
        let shards = if extracted.len() * tail.num_terms() >= SHARD_MIN_PRODUCTS {
            self.threads.min(extracted.len())
        } else {
            1
        };
        if shards <= 1 {
            return self.expand_range(extracted, tail, v, scratch, &bound, |m, c| r.add_term(m, c));
        }
        let chunk = extracted.len().div_ceil(shards);
        let partials: Vec<Result<(Polynomial, u64), ReductionOutcome>> =
            std::thread::scope(|scope| {
                let workers: Vec<_> = extracted
                    .chunks(chunk)
                    .map(|range| {
                        let bound = &bound;
                        scope.spawn(move || {
                            let mut scratch = self.vanish.map(ClosureVanishing::scratch);
                            let mut local = Polynomial::zero();
                            let cancelled = self.expand_range(
                                range,
                                tail,
                                v,
                                scratch.as_mut(),
                                bound,
                                |m, c| local.add_term(m, c),
                            )?;
                            Ok((local, cancelled))
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("shard worker"))
                    .collect()
            });
        let partials = partials.into_iter().collect::<Result<Vec<_>, _>>()?;
        if bound.emitted.into_inner() > bound.room {
            return Err(self.term_stop());
        }
        let mut cancelled = 0;
        for (local, local_cancelled) in partials {
            cancelled += local_cancelled;
            for (m, c) in local.iter() {
                r.add_term(m.clone(), c.clone());
            }
        }
        Ok(cancelled)
    }

    /// Expands one range of extracted terms against `tail` into `sink`,
    /// checking the vanishing rules on each product before it is
    /// materialized (when an extracted term's `rest` already vanishes on its
    /// own, its whole tail expansion is skipped) and counting every emitted
    /// product against the step's `bound`. Returns the number of cancelled
    /// products, or the stop when the token expired or the bound passed the
    /// budget mid-range.
    fn expand_range(
        &self,
        range: &[(Monomial, Int)],
        tail: &Polynomial,
        v: Var,
        mut scratch: Option<&mut VanishScratch>,
        bound: &StepBound,
        mut sink: impl FnMut(Monomial, Int),
    ) -> Result<u64, ReductionOutcome> {
        let mut cancelled = 0u64;
        let mut since_poll = 0usize;
        let mut emitted = 0usize;
        let mut published = 0usize;
        for (m, c) in range {
            let rest = m.without(v);
            if let (Some(van), Some(s)) = (self.vanish, scratch.as_deref_mut()) {
                if van.set_rest(&rest, s) {
                    cancelled += tail.num_terms() as u64;
                    continue;
                }
            }
            for (tm, tc) in tail.iter() {
                since_poll += 1;
                if since_poll >= CANCEL_POLL_INTERVAL {
                    since_poll = 0;
                    if let Some(stop) = ReductionOutcome::from_token(self.token) {
                        return Err(stop);
                    }
                    if bound.publish(emitted - published) {
                        return Err(self.term_stop());
                    }
                    published = emitted;
                }
                if let (Some(van), Some(s)) = (self.vanish, scratch.as_deref_mut()) {
                    if van.rest_union_vanishes(tm, s) {
                        cancelled += 1;
                        continue;
                    }
                }
                emitted += 1;
                if emitted > bound.room {
                    return Err(self.term_stop());
                }
                sink(tm.mul(&rest), tc * c);
            }
        }
        bound.publish(emitted - published);
        Ok(cancelled)
    }

    /// The stop of a step whose term bound passed `max_terms`. It reports the
    /// bound's first value past the budget, so the reported terms do not
    /// depend on where the shards noticed.
    fn term_stop(&self) -> ReductionOutcome {
        ReductionOutcome::LimitExceeded {
            terms: self.max_terms.saturating_add(1),
        }
    }
}

/// The term bound of one substitution step, shared by its shards: the
/// products the step may emit before the store could pass `max_terms`, and
/// the products its ranges have published so far. The count publishes no
/// other data, so `Relaxed` suffices; the fold reads it after the scoped
/// workers joined.
struct StepBound {
    room: usize,
    emitted: AtomicUsize,
}

impl StepBound {
    /// Adds `products` to the step's total; `true` once the total passes
    /// the room.
    fn publish(&self, products: usize) -> bool {
        self.emitted.fetch_add(products, Ordering::Relaxed) + products > self.room
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::reduction::GbReduction;
    use crate::spec::Spec;
    use crate::vanishing::VanishingRules;
    use gbmv_genmul::MultiplierSpec;

    fn context(budget: Budget) -> PhaseContext {
        PhaseContext {
            budget,
            token: budget.token(),
            rules: VanishingRules::default(),
            modulus_bits: None,
            spec_weights: None,
        }
    }

    fn model_and_spec(arch: &str, width: usize) -> (AlgebraicModel, Polynomial, Option<u32>) {
        let nl = MultiplierSpec::parse(arch, width).unwrap().build();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let (spec, modulus) = Spec::multiplier(width).instantiate(&model).unwrap();
        (model, spec, modulus)
    }

    #[test]
    fn matches_greedy_engine_remainder_mod_2k() {
        let (model, spec, modulus) = model_and_spec("SP-WT-CL", 4);
        let k = modulus.unwrap();
        let engine = context(Budget::default()).reduction_engine(modulus);
        let (greedy, outcome, _) = engine.reduce(&model, &spec);
        assert!(outcome.is_completed());
        for threads in [1, 2, 8] {
            let ctx = context(Budget::default().with_threads(threads));
            let (r, outcome, stats) = ParallelReduction.reduce(&model, &spec, modulus, &ctx);
            assert!(outcome.is_completed(), "{threads} threads: {outcome:?}");
            assert_eq!(
                r.mod_coeffs_pow2(k),
                greedy.mod_coeffs_pow2(k),
                "{threads} threads must reproduce the greedy remainder"
            );
            assert!(stats.substitutions > 0);
            assert!(stats.index_hits > 0, "indexed extraction must be exercised");
        }
    }

    #[test]
    fn occurrence_counts_survive_a_full_reduction() {
        // A correct multiplier reduces to a zero remainder, which exercises
        // every incremental count-update path (insert, cancel, mod-drop,
        // vanishing skip) and ends with all counts back at zero — the loop
        // only terminates when no tracked variable is left.
        let (model, spec, modulus) = model_and_spec("SP-CT-BK", 4);
        let ctx = context(Budget::default());
        let (r, outcome, stats) = ParallelReduction.reduce(&model, &spec, modulus, &ctx);
        assert!(outcome.is_completed());
        assert!(r.is_zero(), "correct multiplier must verify");
        assert!(stats.cancelled_vanishing > 0);
        assert!(
            stats.columns_retired > 0,
            "a completed reduction substitutes every column's support"
        );
    }

    #[test]
    fn term_limit_is_reported() {
        let (model, spec, modulus) = model_and_spec("SP-WT-KS", 6);
        let ctx = context(Budget::default().with_max_terms(50));
        let (_, outcome, stats) = ParallelReduction.reduce(&model, &spec, modulus, &ctx);
        assert!(matches!(outcome, ReductionOutcome::LimitExceeded { .. }));
        assert!(stats.peak_terms > 50);
    }

    #[test]
    fn cancelled_token_stops_the_engine() {
        let (model, spec, modulus) = model_and_spec("SP-WT-CL", 4);
        let token = DeadlineToken::new();
        token.cancel();
        let ctx = PhaseContext {
            token,
            ..context(Budget::default())
        };
        let (_, outcome, _) = ParallelReduction.reduce(&model, &spec, modulus, &ctx);
        assert_eq!(outcome, ReductionOutcome::Cancelled);
    }

    #[test]
    fn adder_exact_remainder_matches_greedy() {
        // No modulus: the remainder is exact, so it must equal the greedy
        // engine's bit for bit.
        let nl = gbmv_genmul::build_adder(6, gbmv_genmul::AdderKind::KoggeStone, false);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let (spec, modulus) = Spec::adder(6).instantiate(&model).unwrap();
        assert_eq!(modulus, None);
        let (greedy, outcome, _) = GbReduction::new(10_000_000).reduce(&model, &spec);
        assert!(outcome.is_completed());
        for threads in [1, 4] {
            let ctx = context(Budget::default().with_threads(threads));
            let (r, outcome, _) = ParallelReduction.reduce(&model, &spec, None, &ctx);
            assert!(outcome.is_completed());
            assert_eq!(r, greedy);
        }
    }

    /// One step of 256 x 128 = 32 K products, which crosses the sharding
    /// threshold, expanded at `threads` workers under `max_terms`. Returns
    /// the resulting term table and the step's result.
    fn sharded_step(
        threads: usize,
        max_terms: usize,
    ) -> (Polynomial, Result<u64, ReductionOutcome>) {
        let (model, _, _) = model_and_spec("SP-WT-CL", 4);
        let token = DeadlineToken::new();
        let v = Var(0);
        let subset = |bits: usize, base: u32| {
            Monomial::from_vars(
                (0..8u32)
                    .filter(|b| bits >> b & 1 == 1)
                    .map(|b| Var(base + b)),
            )
        };
        let extracted: Vec<(Monomial, Int)> = (0..256)
            .map(|i| (subset(i, 1).mul(&Monomial::var(v)), Int::from(i as i64 + 1)))
            .collect();
        let tail =
            Polynomial::from_terms((0..128).map(|i| (subset(i, 9), Int::from(3 - i as i64))));
        assert!(extracted.len() * tail.num_terms() >= SHARD_MIN_PRODUCTS);
        let engine = FusedReduction {
            model: &model,
            vanish: None,
            modulus_bits: Some(8),
            max_terms,
            token: &token,
            threads,
        };
        let mut r = IndexedPolynomial::new(vec![false; 17], Some(8));
        let result = engine.expand(&mut r, &extracted, &tail, v, None);
        (r.into_polynomial(), result)
    }

    #[test]
    fn sharded_expansion_matches_serial() {
        // Every thread count must leave the same canonical term table
        // behind.
        let serial = sharded_step(1, usize::MAX);
        assert!(serial.0.num_terms() > 0);
        for threads in [2, 3, 8] {
            assert_eq!(
                sharded_step(threads, usize::MAX),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn sharded_step_stops_at_the_term_bound() {
        // The 32 K-product step passes a 1 000-term bound long before it
        // ends, in one range and in every shard split. A 20 000-term bound
        // holds for each shard of two or more on its own, so there the fold
        // must catch the step's total.
        for max_terms in [1_000, 20_000] {
            for threads in [1, 2, 3, 8] {
                let (_, result) = sharded_step(threads, max_terms);
                assert_eq!(
                    result,
                    Err(ReductionOutcome::LimitExceeded {
                        terms: max_terms + 1
                    }),
                    "{threads} threads, {max_terms} terms"
                );
            }
        }
    }
}

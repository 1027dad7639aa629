//! The indexed reduction engine behind the `MT-LR-PAR` preset.
//!
//! [`ParallelReduction`] runs the Step-3 reduction (Algorithm 1) over the
//! whole specification with the greedy level-restricted substitution order of
//! [`crate::GreedyReduction`], the scan-based reference it is pinned against,
//! but on an incrementally indexed term store:
//!
//! * The working remainder lives in an [`IndexedPolynomial`]: an inverted
//!   var→term-handle index makes each substitution step touch only the terms
//!   that actually mention the substituted variable. Each variable's drain
//!   rank is its logic level plus one, and the candidate rule always picks
//!   from the highest level present, so a term is indexed only under its
//!   highest-level variables.
//! * The tracked variables are bucketed by logic level once per run, and
//!   each step scans only the bucket of the highest level that still has
//!   occurrences. That level never rises, since tails mention only lower
//!   levels, so choosing a candidate costs the width of one level, not the
//!   model's variable count.
//! * Coefficients are kept canonical `mod 2^k`, so modular cancellation
//!   happens at insert instead of in a post-step sweep.
//! * Terms whose support is fully substituted retire into an input-only
//!   accumulator (the incremental form of column-wise spec reduction: once no
//!   live term mentions a tracked variable reaching an output column, that
//!   column's terms never re-enter the hot path). Greedy ties break toward
//!   the lowest output column, so low columns retire early. Retired columns
//!   are counted from the store's presence log: per column, the number of
//!   present tracked variables reaching it, updated once per step for the
//!   variables whose presence changed.
//! * Vanishing is checked on newly created monomials only, through the
//!   predicate of the run's [`crate::VanishingRules`]: by default the
//!   unit-propagation closure index ([`crate::ClosureVanishing`]), which
//!   covers both forms of the paper's XOR-AND rule as well as deeper
//!   XOR-chain/majority contradictions; in `XorAnd` mode the
//!   [`crate::VanishingTracker`] of the scan engines; in `Off` mode none.
//! * The term budget holds inside a step: a step stops as soon as the store
//!   size less the terms it has still to drain, plus the products it has
//!   emitted, passes [`PhaseContext::max_terms`]. A stopped reduction
//!   returns no remainder, since it would not be final.
//!
//! Each step runs on the calling thread, through the product loop it shares
//! with the Step-2 rewriter of [`crate::IndexedLogicReductionRewrite`].
//! Integer term arithmetic is exact, so canonical remainders, verdicts and
//! counterexamples equal the scan-based engine's. The engine reads its term
//! limit, token, vanishing mode and modulus from the [`PhaseContext`]
//! alone; it polls [`PhaseContext::token`], and a cancellation or deadline
//! expiry stops the step at its next polling point with [`Stop::Token`].

use gbmv_poly::{IndexedPolynomial, Polynomial, Var};

use crate::model::AlgebraicModel;
use crate::rewrite::{substitute_step, RewriteVanishing};
use crate::strategy::{PhaseContext, PhaseStats, ReductionStrategy, Stop};

/// The [`ReductionStrategy`] of the preset [`crate::Method::MtLrPar`]: the
/// indexed engine of the module docs. Vanishing follows the run's
/// [`crate::VanishingRules`] alone: in `Off` mode no product is cancelled.
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
        ctx: &PhaseContext,
    ) -> (Polynomial, PhaseStats) {
        let mut stats = PhaseStats::default();
        let mut vanishing = RewriteVanishing::new(model, ctx.rules);

        // The vanishing predicate is applied to the incoming spec once;
        // afterwards only newly created monomials can vanish (the property is
        // static per monomial), so surviving terms are never re-checked.
        let mut initial = spec.clone();
        if let Some(van) = vanishing.as_mut() {
            stats.cancelled_vanishing += initial.retain_terms(|m| !van.sweep_vanishes(m)) as u64;
        }

        // The substitutable variables: everything with a model tail, ranked
        // by logic level plus one and bucketed by level. The candidate rule
        // below always drains a variable of the highest level present, which
        // is the store's drain contract. Inputs and tail-less variables are
        // never substituted (rank 0), so terms made only of those retire out
        // of the indexed hot path.
        let mut ranks = vec![0; model.var_count()];
        let mut levels: Vec<Vec<Var>> = Vec::new();
        for (i, rank) in ranks.iter_mut().enumerate() {
            let v = Var(i as u32);
            if !model.is_input(v) && model.tail(v).is_some() {
                let level = model.level(v);
                *rank = level as u32 + 1;
                if levels.len() <= level {
                    levels.resize_with(level + 1, Vec::new);
                }
                levels[level].push(v);
            }
        }

        // Ingest into the indexed store: coefficients become canonical
        // `mod 2^k` (multiples of `2^k` cancel at insert — the incremental
        // form of the old post-step drop sweep), occurrence counts and the
        // inverted index are maintained from here on by the store itself.
        let mut r = IndexedPolynomial::from_polynomial(&initial, ranks, ctx.modulus_bits);
        drop(initial);
        stats.peak_terms = r.num_terms();

        let mut columns = Columns {
            carriers: [0; 64],
            active: 0,
            retired: 0,
        };
        // No level at or above `top` holds an occurring variable. Tails
        // mention only lower levels, so `top` never rises.
        let mut top = levels.len();
        let mut since_poll = 0usize;

        stats.stop = loop {
            // Only the ingested spec can exceed the budget here: every step
            // keeps the store within it (see `substitute_step`).
            if r.num_terms() > ctx.max_terms {
                break Some(Stop::Terms);
            }
            stats.columns_retired += columns.update(&mut r, model);
            // Candidate selection — the same rule as `GreedyReduction`: among the
            // variables of the highest present logic level, the smallest
            // estimated growth `occurrences x (tail size - 1)`, tie-broken by
            // variable index — except that the highest output column a
            // variable reaches ranks before the growth estimate. Any order
            // yields the same final remainder: the rewritten model stays a
            // Gröbner basis, so the normal form is order-independent. Only
            // the top level's bucket is scanned.
            let mut best: Option<(u32, usize, u32)> = None; // (colw, growth, idx)
            while best.is_none() && top > 0 {
                for &v in &levels[top - 1] {
                    let occ = r.occurrences(v);
                    if occ == 0 {
                        continue;
                    }
                    let colw = model.column_mask(v).checked_ilog2().unwrap_or(0);
                    let tail_terms = model.tail(v).map(Polynomial::num_terms).unwrap_or(0);
                    let key = (colw, occ as usize * tail_terms.saturating_sub(1), v.0);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                if best.is_none() {
                    top -= 1;
                }
            }
            let Some((_, _, idx)) = best else {
                break None;
            };
            let v = Var(idx);

            // In-place substitution through the inverted index: only the
            // terms actually containing `v` are touched.
            let tail = model.tail(v).expect("candidate has a tail");
            if let Err(stop) = substitute_step(
                &mut r,
                v,
                tail,
                vanishing.as_mut(),
                ctx,
                &mut since_poll,
                &mut stats,
            ) {
                break Some(stop);
            }
            stats.substitutions += 1;
            if ctx.token.expired() {
                break Some(Stop::Token);
            }
        };
        stats.index_hits = r.index_hits();
        stats.final_terms = r.num_terms();
        // A stopped remainder is not final (see `ReductionStrategy::reduce`),
        // so none is built: that would re-hash the whole store.
        let remainder = match stats.stop {
            Some(_) => Polynomial::zero(),
            None => r.take_polynomial(),
        };
        (remainder, stats)
    }
}

/// Step 3's output-column accounting, fed once per step from the store's
/// presence log. A column is *active* while some live term holds a tracked
/// variable whose column mask carries it, and *retires* the first time it
/// stops being active: from then on all of its terms are input-only and
/// sit in the store's retirement accumulator, outside the indexed hot
/// path.
struct Columns {
    /// Per mask bit, the number of present tracked variables carrying it.
    carriers: [u32; 64],
    /// The active columns at the last update.
    active: u64,
    /// The columns retired so far.
    retired: u64,
}

impl Columns {
    /// Folds the presence changes since the last update into the column
    /// counts and returns the number of columns that retired since then.
    fn update(&mut self, store: &mut IndexedPolynomial, model: &AlgebraicModel) -> usize {
        store.read_presence_log(|v, present| {
            let mut mask = model.column_mask(v);
            while mask != 0 {
                let carriers = &mut self.carriers[mask.trailing_zeros() as usize];
                if present {
                    *carriers += 1;
                } else {
                    *carriers -= 1;
                }
                mask &= mask - 1;
            }
        });
        let active = (0..64)
            .filter(|&j| self.carriers[j] > 0)
            .fold(0u64, |mask, j| mask | 1 << j);
        let retiring = self.active & !active & !self.retired;
        self.retired |= retiring;
        self.active = active;
        retiring.count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::DeadlineToken;
    use crate::reduction::GreedyReduction;
    use crate::spec::Spec;
    use gbmv_genmul::MultiplierSpec;
    use gbmv_poly::{Int, Monomial};

    fn context(modulus_bits: Option<u32>) -> PhaseContext {
        PhaseContext {
            modulus_bits,
            ..PhaseContext::default()
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
        let ctx = context(modulus);
        let (greedy, stats) = GreedyReduction { vanishing: false }.reduce(&model, &spec, &ctx);
        assert_eq!(stats.stop, None);
        let (r, stats) = ParallelReduction.reduce(&model, &spec, &ctx);
        assert_eq!(stats.stop, None);
        assert_eq!(
            r.mod_coeffs_pow2(k),
            greedy.mod_coeffs_pow2(k),
            "the indexed engine must reproduce the greedy remainder"
        );
        assert!(stats.substitutions > 0);
        assert!(stats.index_hits > 0, "indexed drains must be exercised");
    }

    #[test]
    fn occurrence_counts_survive_a_full_reduction() {
        // A correct multiplier reduces to a zero remainder, which exercises
        // every incremental count-update path (insert, cancel, mod-drop,
        // vanishing skip) and ends with all counts back at zero — the loop
        // only terminates when no tracked variable is left.
        let (model, spec, modulus) = model_and_spec("SP-CT-BK", 4);
        let ctx = context(modulus);
        let (r, stats) = ParallelReduction.reduce(&model, &spec, &ctx);
        assert_eq!(stats.stop, None);
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
        let ctx = PhaseContext {
            max_terms: 50,
            ..context(modulus)
        };
        let (_, stats) = ParallelReduction.reduce(&model, &spec, &ctx);
        assert_eq!(stats.stop, Some(Stop::Terms));
        assert!(stats.peak_terms > 50);
    }

    /// A stopped reduction returns no remainder: it would not be final, and
    /// building it would re-hash the whole store.
    #[test]
    fn term_stopped_reduction_returns_no_remainder() {
        let (model, spec, modulus) = model_and_spec("SP-WT-KS", 6);
        let ctx = PhaseContext {
            max_terms: 50,
            ..context(modulus)
        };
        let (r, stats) = ParallelReduction.reduce(&model, &spec, &ctx);
        assert_eq!(stats.stop, Some(Stop::Terms));
        assert!(stats.final_terms > 0);
        assert!(
            r.is_zero(),
            "a stopped reduction returned {} terms",
            r.num_terms()
        );
    }

    #[test]
    fn cancelled_token_stops_the_engine() {
        let (model, spec, modulus) = model_and_spec("SP-WT-CL", 4);
        let token = DeadlineToken::new();
        token.cancel();
        let ctx = PhaseContext {
            token,
            ..context(modulus)
        };
        let (_, stats) = ParallelReduction.reduce(&model, &spec, &ctx);
        assert_eq!(stats.stop, Some(Stop::Token));
    }

    #[test]
    fn adder_exact_remainder_matches_greedy() {
        // No modulus: the remainder is exact, so it must equal the greedy
        // engine's bit for bit.
        let nl = gbmv_genmul::build_adder(6, gbmv_genmul::AdderKind::KoggeStone, false);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let (spec, modulus) = Spec::adder(6).instantiate(&model).unwrap();
        assert_eq!(modulus, None);
        let ctx = context(None);
        let (greedy, stats) = GreedyReduction { vanishing: false }.reduce(&model, &spec, &ctx);
        assert_eq!(stats.stop, None);
        let (r, stats) = ParallelReduction.reduce(&model, &spec, &ctx);
        assert_eq!(stats.stop, None);
        assert_eq!(r, greedy);
    }

    /// The terms of one substitution step of about 256 x 128 = 32 K products
    /// (the terms to drain, all containing `v`, and the tail of `v`), over
    /// 17 variables, with distinct product monomials.
    fn large_step() -> (Vec<(Monomial, Int)>, Polynomial, Var) {
        let v = Var(0);
        let subset = |bits: usize, base: u32| {
            Monomial::from_vars(
                (0..8u32)
                    .filter(|b| bits >> b & 1 == 1)
                    .map(|b| Var(base + b)),
            )
        };
        let terms = (0..256)
            .map(|i| (subset(i, 1).mul(&Monomial::var(v)), Int::from(i as i64 + 1)))
            .collect();
        let tail =
            Polynomial::from_terms((0..128).map(|i| (subset(i, 9), Int::from(3 - i as i64))));
        (terms, tail, v)
    }

    /// Runs [`large_step`] through the shared product loop on a store kept
    /// mod `2^8` that holds its terms to drain, under `max_terms`. Returns
    /// the resulting term table, the step's result and its report.
    fn run_large_step(max_terms: usize) -> (Polynomial, Result<(), Stop>, PhaseStats) {
        let (terms, tail, v) = large_step();
        let mut ranks = vec![0; 17];
        ranks[v.index()] = 1;
        let mut r =
            IndexedPolynomial::from_polynomial(&Polynomial::from_terms(terms), ranks, Some(8));
        let ctx = PhaseContext {
            max_terms,
            ..PhaseContext::default()
        };
        let mut stats = PhaseStats::default();
        let result = substitute_step(&mut r, v, &tail, None, &ctx, &mut 0, &mut stats);
        (r.take_polynomial(), result, stats)
    }

    /// The step's term table equals the plain polynomial substitution of the
    /// same terms, reduced mod `2^8`.
    #[test]
    fn sharded_expansion_matches_serial() {
        let (table, result, stats) = run_large_step(usize::MAX);
        assert_eq!(result, Ok(()));
        assert_eq!(stats.cancelled_vanishing, 0);
        assert!(table.num_terms() > 0);
        let (terms, tail, v) = large_step();
        let want = Polynomial::from_terms(terms)
            .substitute(v, &tail)
            .mod_coeffs_pow2(8);
        assert_eq!(table, want);
    }

    /// The step stops as soon as its products pass the term bound, both long
    /// before its end (1 000 terms) and in its second half (20 000 terms).
    #[test]
    fn sharded_step_stops_at_the_term_bound() {
        for max_terms in [1_000, 20_000] {
            let (_, result, stats) = run_large_step(max_terms);
            assert_eq!(result, Err(Stop::Terms), "{max_terms} terms");
            assert_eq!(stats.peak_terms, max_terms + 1, "{max_terms} terms");
        }
    }
}

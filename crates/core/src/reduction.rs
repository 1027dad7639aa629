//! Gröbner basis reduction (Algorithm 1 of the paper).
//!
//! The specification polynomial is divided by the circuit model: every
//! iteration substitutes one gate-output variable by the tail of its gate
//! polynomial, following the reverse topological substitution order. Because
//! every model polynomial has the shape `-v + tail(v)` and the leading
//! monomials are relatively prime, the S-polynomial step degenerates into
//! variable substitution ([`gbmv_poly::Polynomial::substitute`]).
//!
//! The reduction tracks the statistics the paper reports (peak intermediate
//! size, number of substitutions, run time) and supports resource limits so
//! that intentionally diverging configurations (e.g. MT-FO on a Kogge-Stone
//! multiplier) terminate with [`ReductionOutcome::LimitExceeded`] instead of
//! exhausting memory.
//!
//! [`GbReduction`] is the scan-based reference engine, kept deliberately
//! simple: it is the differential oracle the indexed engine of
//! [`crate::parallel`] is pinned against.

use std::time::{Duration, Instant};

use gbmv_poly::{FastMap, Polynomial, Var};

use crate::budget::DeadlineToken;
use crate::model::AlgebraicModel;
use crate::vanishing::VanishingTracker;

/// Why a reduction run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReductionOutcome {
    /// All substitutions were performed; the remainder is final.
    Completed,
    /// The intermediate polynomial exceeded the configured term limit.
    LimitExceeded {
        /// Number of terms when the limit was hit. The indexed engine stops
        /// inside a step and reports its step bound, `max_terms + 1`.
        terms: usize,
    },
    /// The cancellation token's deadline passed.
    TimedOut,
    /// The cancellation token was cancelled from outside (e.g. another
    /// portfolio strategy finished first).
    Cancelled,
}

impl ReductionOutcome {
    /// Returns `true` if the reduction ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, ReductionOutcome::Completed)
    }

    /// How a run stops once its token has expired: `Cancelled` after an
    /// explicit cancel, `TimedOut` after the deadline; `None` while the token
    /// is live.
    pub(crate) fn from_token(token: &DeadlineToken) -> Option<Self> {
        if token.is_cancelled() {
            Some(ReductionOutcome::Cancelled)
        } else if token.deadline_expired() {
            Some(ReductionOutcome::TimedOut)
        } else {
            None
        }
    }
}

/// Statistics of one Gröbner basis reduction run.
#[derive(Debug, Clone, Default)]
pub struct ReductionStats {
    /// Number of variable substitutions performed.
    pub substitutions: usize,
    /// Peak number of terms of the intermediate remainder.
    pub peak_terms: usize,
    /// Number of terms of the final remainder (before modulo reduction).
    pub final_terms: usize,
    /// Number of monomials removed by the vanishing rules *during the
    /// reduction* (the reduction-phase share of `#CVM`; zero unless
    /// [`GbReduction::reduce_with_vanishing`] is used).
    pub cancelled_vanishing: u64,
    /// Number of terms the indexed engines retrieved through the inverted
    /// var→term index (one per extracted term; zero for the scan-based
    /// reference engine).
    pub index_hits: u64,
    /// Number of output columns that lost their last tracked-variable
    /// occurrence during an indexed reduction (their remaining terms are
    /// input-only and retire out of the indexed hot path; zero for the
    /// scan-based reference engine).
    pub columns_retired: usize,
    /// Wall-clock time of the reduction.
    pub elapsed: Duration,
}

/// The Gröbner basis reduction engine.
#[derive(Debug, Clone)]
pub struct GbReduction {
    /// Abort when the intermediate remainder exceeds this many terms.
    pub max_terms: usize,
    /// Cooperative cancellation and the only clock: the reduction returns
    /// [`ReductionOutcome::Cancelled`] (explicit cancel) or
    /// [`ReductionOutcome::TimedOut`] (deadline) at the next substitution
    /// after the token expires. The default token never expires.
    pub cancel: DeadlineToken,
    /// When set, drop terms whose coefficient is a multiple of `2^k` after
    /// every substitution instead of only at the end.
    ///
    /// For a `mod 2^k` specification this is sound — substitution maps every
    /// term to a sum of terms whose coefficients are multiples of the
    /// original coefficient, so divisibility by `2^k` is preserved and the
    /// dropped terms can never influence the final remainder mod `2^k`. For
    /// Booth and redundant-binary circuits it is also what keeps the
    /// intermediate remainder small: their bit-level implementations are only
    /// congruent (not equal) to the product, and without intermediate modular
    /// dropping the congruence excess accumulates millions of terms that the
    /// final `drop_multiples_of_pow2` would erase anyway.
    pub modulus_bits: Option<u32>,
}

impl Default for GbReduction {
    fn default() -> Self {
        GbReduction {
            max_terms: 5_000_000,
            cancel: DeadlineToken::new(),
            modulus_bits: None,
        }
    }
}

impl GbReduction {
    /// Creates a reduction engine with an explicit term limit.
    pub fn new(max_terms: usize) -> Self {
        GbReduction {
            max_terms,
            ..GbReduction::default()
        }
    }

    /// Enables intermediate `mod 2^k` coefficient dropping (see
    /// [`GbReduction::modulus_bits`]).
    pub fn with_modulus(mut self, k: u32) -> Self {
        self.modulus_bits = Some(k);
        self
    }

    /// Installs a cooperative cancellation token (see [`GbReduction::cancel`]).
    pub fn with_token(mut self, token: DeadlineToken) -> Self {
        self.cancel = token;
        self
    }

    /// Reduces (divides) `spec` with respect to the model. Returns the
    /// remainder, the outcome and the collected statistics.
    ///
    /// Because every model polynomial has the shape `-v + tail(v)` with
    /// `tail(v)` over variables strictly lower in the topological order, the
    /// substitution system is terminating and confluent: the remainder does
    /// not depend on the substitution order. The engine exploits that freedom
    /// and greedily substitutes the variable with the smallest estimated
    /// growth (`occurrences × (tail size - 1)`) first, which keeps the
    /// intermediate remainder orders of magnitude smaller than the fixed
    /// reverse-topological order on deep parallel-prefix carry networks
    /// (Kogge-Stone / Han-Carlson).
    ///
    /// The remainder only mentions primary-input variables when the outcome
    /// is [`ReductionOutcome::Completed`] and the model still contains a
    /// polynomial for every internal variable of `spec`'s cone.
    pub fn reduce(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        self.reduce_greedy_inner(model, spec, None)
    }

    /// Like [`GbReduction::reduce`] but applying the structural vanishing
    /// rules after every substitution. At the synthesized gate level the
    /// reduction can re-create vanishing monomials by multiplying tails of
    /// different (individually clean) model polynomials; removing them here
    /// is the same logic reduction the paper applies during rewriting and is
    /// what keeps redundant-binary trees and wide parallel-prefix adders from
    /// blowing up during Step 3. The monomials removed are added to the
    /// tracker's cancelled count (`#CVM`).
    pub fn reduce_with_vanishing(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        tracker: &mut VanishingTracker,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        self.reduce_greedy_inner(model, spec, Some(tracker))
    }

    /// Greedy-order reduction: repeatedly substitutes the present variable
    /// with the smallest estimated term growth. See [`GbReduction::reduce`]
    /// for why the order is free.
    fn reduce_greedy_inner(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        mut tracker: Option<&mut VanishingTracker>,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        let start = Instant::now();
        let mut stats = ReductionStats::default();
        let mut r = spec.clone();
        let mut scratch = Polynomial::zero();
        let mut occurrences: FastMap<Var, usize> = FastMap::default();
        stats.peak_terms = r.num_terms();
        let outcome = loop {
            // Count, per substitutable variable, the number of terms it
            // appears in. One pass over the remainder per step — the same
            // asymptotic cost as the substitution itself.
            occurrences.clear();
            for (m, _) in r.iter() {
                for u in m.vars() {
                    if !model.is_input(u) && model.tail(u).is_some() {
                        *occurrences.entry(u).or_insert(0) += 1;
                    }
                }
            }
            // Only variables of the highest present logic level are eligible:
            // any lower-level substitution could be undone by a later
            // higher-level one (tails only mention strictly lower levels), so
            // restricting to the top level guarantees every variable is
            // substituted at most once, exactly like the reverse topological
            // order. Within the level the order is free; take the smallest
            // estimated growth (`occurrences x (tail size - 1)`), tie-broken
            // by variable index for determinism.
            let top_level = occurrences.keys().map(|&u| model.level(u)).max();
            let candidate = occurrences
                .iter()
                .filter(|(&u, _)| Some(model.level(u)) == top_level)
                .map(|(&u, &occ)| {
                    let tail_terms = model.tail(u).map(Polynomial::num_terms).unwrap_or(0);
                    (occ * tail_terms.saturating_sub(1), u.0)
                })
                .min();
            let Some((_, idx)) = candidate else {
                break ReductionOutcome::Completed;
            };
            let v = Var(idx);
            let tail = model.tail(v).expect("candidate has a tail");
            r.substitute_into(v, tail, &mut scratch);
            std::mem::swap(&mut r, &mut scratch);
            stats.substitutions += 1;
            if let Some(t) = tracker.as_deref_mut() {
                stats.cancelled_vanishing += t.apply(&mut r) as u64;
            }
            if let Some(k) = self.modulus_bits {
                r.retain_non_multiples_of_pow2(k);
            }
            stats.peak_terms = stats.peak_terms.max(r.num_terms());
            if r.num_terms() > self.max_terms {
                break ReductionOutcome::LimitExceeded {
                    terms: stats.peak_terms,
                };
            }
            if let Some(stop) = ReductionOutcome::from_token(&self.cancel) {
                break stop;
            }
        };
        stats.final_terms = r.num_terms();
        stats.elapsed = start.elapsed();
        (r, outcome, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmv_netlist::Netlist;
    use gbmv_poly::spec::{adder_spec, full_adder_spec};
    use gbmv_poly::{Int, Monomial};

    /// The full adder of Example 1; with `bug`, the `t` gate is an OR
    /// instead of an AND.
    fn full_adder_netlist(bug: bool) -> Netlist {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let x = nl.xor2(a, b, "x");
        let s = nl.xor2(x, cin, "s");
        let d = nl.and2(a, b, "d");
        let t = if bug {
            nl.or2(x, cin, "t")
        } else {
            nl.and2(x, cin, "t")
        };
        let c = nl.or2(d, t, "c");
        nl.add_output("s", s);
        nl.add_output("c", c);
        nl
    }

    /// Example 1 of the paper: reducing the full adder specification
    /// `-2c - s + cin + b + a` by the circuit model gives remainder 0.
    #[test]
    fn full_adder_reduces_to_zero() {
        let nl = full_adder_netlist(false);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let var = |name: &str| Var(nl.find_net(name).unwrap().0);
        let spec = full_adder_spec(var("a"), var("b"), var("cin"), var("s"), var("c"));
        let (r, outcome, stats) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(
            r.is_zero(),
            "remainder must vanish, got {}",
            model.render(&r)
        );
        assert_eq!(stats.substitutions, 5);
        assert!(stats.peak_terms >= 5);
    }

    #[test]
    fn faulty_full_adder_has_nonzero_remainder() {
        let nl = full_adder_netlist(true);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let var = |name: &str| Var(nl.find_net(name).unwrap().0);
        let spec = full_adder_spec(var("a"), var("b"), var("cin"), var("s"), var("c"));
        let (r, outcome, _) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(!r.is_zero(), "buggy adder must not verify");
        // The remainder only mentions primary inputs.
        for v in r.vars() {
            assert!(model.is_input(v), "remainder must be over inputs only");
        }
    }

    /// A 3-bit ripple carry adder verifies without any rewriting (the circuit
    /// of Example 2, on the raw gate-level model).
    #[test]
    fn ripple_carry_adder_3bit_reduces_to_zero() {
        let nl = gbmv_genmul::build_adder(3, gbmv_genmul::AdderKind::RippleCarry, false);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let a: Vec<Var> = (0..3)
            .map(|i| Var(nl.find_net(&format!("a{i}")).unwrap().0))
            .collect();
        let b: Vec<Var> = (0..3)
            .map(|i| Var(nl.find_net(&format!("b{i}")).unwrap().0))
            .collect();
        let s: Vec<Var> = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let spec = adder_spec(&a, &b, &s, None);
        let (r, outcome, _) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(r.is_zero());
    }

    /// A Kogge-Stone adder also reduces to zero on the raw model at small
    /// width (the blow-up only bites at larger widths / multipliers).
    #[test]
    fn kogge_stone_adder_4bit_reduces_to_zero() {
        let nl = gbmv_genmul::build_adder(4, gbmv_genmul::AdderKind::KoggeStone, false);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let a: Vec<Var> = (0..4)
            .map(|i| Var(nl.find_net(&format!("a{i}")).unwrap().0))
            .collect();
        let b: Vec<Var> = (0..4)
            .map(|i| Var(nl.find_net(&format!("b{i}")).unwrap().0))
            .collect();
        let s: Vec<Var> = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let spec = adder_spec(&a, &b, &s, None);
        let (r, outcome, _) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(r.is_zero());
    }

    #[test]
    fn term_limit_aborts_reduction() {
        let nl = gbmv_genmul::MultiplierSpec::parse("SP-WT-KS", 8)
            .unwrap()
            .build();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let a: Vec<Var> = (0..8)
            .map(|i| Var(nl.find_net(&format!("a{i}")).unwrap().0))
            .collect();
        let b: Vec<Var> = (0..8)
            .map(|i| Var(nl.find_net(&format!("b{i}")).unwrap().0))
            .collect();
        let s: Vec<Var> = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let spec = gbmv_poly::spec::multiplier_spec(&a, &b, &s);
        let engine = GbReduction::new(50);
        let (_, outcome, stats) = engine.reduce(&model, &spec);
        assert!(matches!(outcome, ReductionOutcome::LimitExceeded { .. }));
        assert!(stats.peak_terms > 50);
    }

    /// The remainder does not depend on the substitution order: the indexed
    /// engine's column-weighted order reproduces the greedy order's exact
    /// remainder on the correct and the faulty full adder (vanishing off, so
    /// only the order differs).
    #[test]
    fn explicit_order_matches_default_for_full_adder() {
        use crate::strategy::{PhaseContext, ReductionStrategy};
        use crate::vanishing::VanishingRules;
        let ctx = PhaseContext {
            rules: VanishingRules::none(),
            ..PhaseContext::default()
        };
        for bug in [false, true] {
            let nl = full_adder_netlist(bug);
            let model = AlgebraicModel::from_netlist(&nl).unwrap();
            let var = |name: &str| Var(nl.find_net(name).unwrap().0);
            let spec = full_adder_spec(var("a"), var("b"), var("cin"), var("s"), var("c"));
            let (r1, o1, s1) = GbReduction::default().reduce(&model, &spec);
            let (r2, o2, s2) = crate::ParallelReduction.reduce(&model, &spec, &ctx);
            assert!(o1.is_completed() && o2.is_completed());
            assert_eq!(r1, r2, "bug = {bug}");
            assert_eq!(s1.substitutions, s2.substitutions);
        }
    }

    #[test]
    fn constant_gates_are_substituted() {
        let mut nl = Netlist::new("const");
        let a = nl.add_input("a");
        let zero = nl.const0("zero");
        let z = nl.or2(a, zero, "z");
        nl.add_output("z", z);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        // spec: z - a == 0.
        let spec = Polynomial::from_terms(vec![
            (Monomial::var(Var(z.0)), Int::from(-1)),
            (Monomial::var(Var(a.0)), Int::one()),
        ]);
        let (r, outcome, _) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(r.is_zero());
    }
}

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
//! size, number of substitutions) in a [`crate::PhaseStats`] and supports
//! resource limits, so that intentionally diverging configurations (e.g.
//! MT-FO on a Kogge-Stone multiplier) stop with [`Stop::Terms`] instead of
//! exhausting memory.
//!
//! [`GreedyReduction`] is the scan-based reference engine, kept deliberately
//! simple: it is the differential oracle the indexed engine of
//! [`crate::parallel`] is pinned against. It is a [`ReductionStrategy`], the
//! only entry to its loop, and reads its term limit, token, modulus and
//! vanishing mode from the [`PhaseContext`].

use gbmv_poly::{FastMap, Polynomial, Var};

use crate::model::AlgebraicModel;
use crate::strategy::{PhaseContext, PhaseStats, ReductionStrategy, Stop};
use crate::vanishing::VanishingRules;

/// The scan-based reduction (Algorithm 1) behind the paper's presets, and
/// the differential oracle of [`crate::ParallelReduction`]: greedy
/// smallest-growth substitution order over a plain [`Polynomial`],
/// optionally re-applying the structural vanishing rules after every
/// substitution.
///
/// Because every model polynomial has the shape `-v + tail(v)` with
/// `tail(v)` over variables strictly lower in the topological order, the
/// substitution system is terminating and confluent: the remainder does not
/// depend on the substitution order. The engine exploits that freedom and
/// greedily substitutes the variable with the smallest estimated growth
/// (`occurrences × (tail size - 1)`) first, which keeps the intermediate
/// remainder orders of magnitude smaller than the fixed reverse-topological
/// order on deep parallel-prefix carry networks (Kogge-Stone / Han-Carlson).
///
/// It reads from the [`PhaseContext`]:
///
/// * `max_terms`: the reduction stops with [`Stop::Terms`] after the step
///   that passes it;
/// * `token`: polled after every substitution, it stops the reduction with
///   [`Stop::Token`];
/// * `modulus_bits`: with `Some(k)`, terms whose coefficient is a multiple
///   of `2^k` are dropped after every substitution instead of only at the
///   end. For a `mod 2^k` specification this is sound — substitution maps
///   every term to a sum of terms whose coefficients are multiples of the
///   original coefficient, so divisibility by `2^k` is preserved and the
///   dropped terms can never influence the final remainder mod `2^k`. For
///   Booth and redundant-binary circuits it is also what keeps the
///   intermediate remainder small: their bit-level implementations are only
///   congruent (not equal) to the product, and without intermediate modular
///   dropping the congruence excess accumulates millions of terms that the
///   final `drop_multiples_of_pow2` would erase anyway;
/// * `rules`: with `vanishing`, the [`crate::VanishingTracker`] is applied unless
///   the mode is [`VanishingRules::Off`].
///
/// The remainder only mentions primary-input variables when the reduction
/// did not stop and the model still contains a polynomial for every
/// internal variable of `spec`'s cone.
#[derive(Debug, Clone, Copy)]
pub struct GreedyReduction {
    /// Apply the [`crate::VanishingTracker`] after every substitution, unless the
    /// context's mode is [`VanishingRules::Off`] (required for the
    /// logic-reduction methods). At the synthesized gate level the
    /// reduction can re-create vanishing monomials by multiplying tails of
    /// different (individually clean) model polynomials; removing them here
    /// is the same logic reduction the paper applies during rewriting and is
    /// what keeps redundant-binary trees and wide parallel-prefix adders
    /// from blowing up during Step 3. The removed monomials count towards
    /// [`PhaseStats::cancelled_vanishing`] (`#CVM`).
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
    ) -> (Polynomial, PhaseStats) {
        // The tracker indexes the circuit's gate functions, which rewriting
        // leaves alone (only tails change), so Step 2's tracker serves here.
        let tracker =
            (self.vanishing && ctx.rules != VanishingRules::Off).then(|| model.vanishing_tracker());
        let mut stats = PhaseStats::default();
        let mut r = spec.clone();
        let mut scratch = Polynomial::zero();
        let mut occurrences: FastMap<Var, usize> = FastMap::default();
        stats.peak_terms = r.num_terms();
        stats.stop = loop {
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
                break None;
            };
            let v = Var(idx);
            let tail = model.tail(v).expect("candidate has a tail");
            r.substitute_into(v, tail, &mut scratch);
            std::mem::swap(&mut r, &mut scratch);
            stats.substitutions += 1;
            if let Some(t) = &tracker {
                stats.cancelled_vanishing += t.apply(&mut r) as u64;
            }
            if let Some(k) = ctx.modulus_bits {
                r.retain_non_multiples_of_pow2(k);
            }
            stats.peak_terms = stats.peak_terms.max(r.num_terms());
            if r.num_terms() > ctx.max_terms {
                break Some(Stop::Terms);
            }
            if ctx.token.expired() {
                break Some(Stop::Token);
            }
        };
        stats.final_terms = r.num_terms();
        (r, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmv_netlist::Netlist;
    use gbmv_poly::spec::{adder_spec, full_adder_spec};
    use gbmv_poly::{Int, Monomial};

    /// The scan reduction without vanishing or modulus, under the default
    /// context.
    fn reduce(model: &AlgebraicModel, spec: &Polynomial) -> (Polynomial, PhaseStats) {
        GreedyReduction { vanishing: false }.reduce(model, spec, &PhaseContext::default())
    }

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
        let (r, stats) = reduce(&model, &spec);
        assert_eq!(stats.stop, None);
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
        let (r, stats) = reduce(&model, &spec);
        assert_eq!(stats.stop, None);
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
        let (r, stats) = reduce(&model, &spec);
        assert_eq!(stats.stop, None);
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
        let (r, stats) = reduce(&model, &spec);
        assert_eq!(stats.stop, None);
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
        let ctx = PhaseContext {
            max_terms: 50,
            ..PhaseContext::default()
        };
        for vanishing in [false, true] {
            let engine = GreedyReduction { vanishing };
            let (_, stats) = engine.reduce(&model, &spec, &ctx);
            let name = engine.name();
            assert_eq!(stats.stop, Some(Stop::Terms), "{name}");
            assert!(stats.peak_terms > 50, "{name}");
        }
    }

    /// The remainder does not depend on the substitution order: the indexed
    /// engine's column-weighted order reproduces the greedy order's exact
    /// remainder on the correct and the faulty full adder (vanishing off, so
    /// only the order differs).
    #[test]
    fn explicit_order_matches_default_for_full_adder() {
        let ctx = PhaseContext {
            rules: VanishingRules::Off,
            ..PhaseContext::default()
        };
        for bug in [false, true] {
            let nl = full_adder_netlist(bug);
            let model = AlgebraicModel::from_netlist(&nl).unwrap();
            let var = |name: &str| Var(nl.find_net(name).unwrap().0);
            let spec = full_adder_spec(var("a"), var("b"), var("cin"), var("s"), var("c"));
            let (r1, s1) = GreedyReduction { vanishing: false }.reduce(&model, &spec, &ctx);
            let (r2, s2) = crate::ParallelReduction.reduce(&model, &spec, &ctx);
            assert_eq!((s1.stop, s2.stop), (None, None));
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
        let (r, stats) = reduce(&model, &spec);
        assert_eq!(stats.stop, None);
        assert!(r.is_zero());
    }
}

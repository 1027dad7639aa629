use std::collections::hash_map::Entry;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use crate::int::Int;
use crate::monomial::{Monomial, Var};
use crate::{FastMap, FastSet};

/// A sparse multivariate polynomial with [`Int`] coefficients over multilinear
/// (Boolean-domain) monomials.
///
/// Zero coefficients are never stored, so the zero polynomial has no terms and
/// two equal polynomials compare equal structurally. Terms live in a
/// [`FastMap`] keyed by the monomials' cached hashes; together with the
/// small-int coefficient representation this keeps the reduction inner loop
/// ([`Polynomial::add_term`] via [`Polynomial::add_scaled_shifted`]) free of
/// heap allocation for the common case.
///
/// # Example
///
/// ```
/// use gbmv_poly::{Int, Monomial, Polynomial, Var};
///
/// // g := -z + a + b - 2ab models z = a XOR b; substituting the AND gate
/// // polynomial for another variable works the same way.
/// let z = Var(2);
/// let tail = Polynomial::from_terms(vec![
///     (Monomial::var(Var(0)), Int::from(1)),
///     (Monomial::var(Var(1)), Int::from(1)),
///     (Monomial::from_vars(vec![Var(0), Var(1)]), Int::from(-2)),
/// ]);
/// // p = 3z; substituting z by the tail yields 3a + 3b - 6ab.
/// let p = Polynomial::from_terms(vec![(Monomial::var(z), Int::from(3))]);
/// let q = p.substitute(z, &tail);
/// assert_eq!(q.coeff(&Monomial::from_vars(vec![Var(0), Var(1)])), Int::from(-6));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Polynomial {
    terms: FastMap<Monomial, Int>,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial::default()
    }

    /// A zero polynomial with room for `capacity` terms, for callers that
    /// know the size of what they are about to build.
    pub fn with_capacity(capacity: usize) -> Self {
        Polynomial {
            terms: FastMap::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: Int) -> Self {
        let mut p = Polynomial::zero();
        p.add_term(Monomial::one(), c);
        p
    }

    /// The polynomial consisting of a single variable.
    pub fn var(v: Var) -> Self {
        let mut p = Polynomial::zero();
        p.add_term(Monomial::var(v), Int::one());
        p
    }

    /// Builds a polynomial from `(monomial, coefficient)` pairs, combining
    /// duplicates and dropping zero coefficients.
    pub fn from_terms(terms: impl IntoIterator<Item = (Monomial, Int)>) -> Self {
        let iter = terms.into_iter();
        let mut p = Polynomial::with_capacity(iter.size_hint().0);
        for (m, c) in iter {
            p.add_term(m, c);
        }
        p
    }

    /// Returns `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The number of terms (monomials with non-zero coefficient).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The maximum degree (number of variables) over all monomials; 0 for the
    /// zero polynomial.
    pub fn max_degree(&self) -> usize {
        self.terms.keys().map(|m| m.degree()).max().unwrap_or(0)
    }

    /// The coefficient of `monomial` (zero if absent).
    pub fn coeff(&self, monomial: &Monomial) -> Int {
        self.terms.get(monomial).cloned().unwrap_or_else(Int::zero)
    }

    /// Iterates over `(monomial, coefficient)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial, &Int)> {
        self.terms.iter()
    }

    /// Removes all terms, keeping the allocated table for reuse.
    pub fn clear(&mut self) {
        self.terms.clear();
    }

    /// The set of variables appearing in the polynomial (`Vars(p)` in the
    /// paper).
    pub fn vars(&self) -> FastSet<Var> {
        let mut set = FastSet::default();
        for m in self.terms.keys() {
            set.extend(m.vars());
        }
        set
    }

    /// Returns `true` if the variable appears in any term.
    pub fn contains_var(&self, v: Var) -> bool {
        self.terms.keys().any(|m| m.contains(v))
    }

    /// Adds `coeff * monomial` to the polynomial in place. Takes both by
    /// value: callers that own their term hand it over without cloning, and
    /// the map insert reuses the monomial's cached hash.
    pub fn add_term(&mut self, monomial: Monomial, coeff: Int) {
        if coeff.is_zero() {
            return;
        }
        match self.terms.entry(monomial) {
            Entry::Vacant(e) => {
                e.insert(coeff);
            }
            Entry::Occupied(mut e) => {
                let sum = e.get_mut();
                *sum += &coeff;
                if sum.is_zero() {
                    e.remove();
                }
            }
        }
    }

    /// Removes and returns every term whose monomial contains `v`, leaving
    /// the other terms (and the table's allocation) in place.
    ///
    /// This is the extraction half of in-place substitution: instead of
    /// rebuilding the whole term table (cloning terms that do not mention
    /// `v`), the caller extracts the affected terms and adds the expanded
    /// products back. The returned order is unspecified.
    pub fn extract_terms_containing(&mut self, v: Var) -> Vec<(Monomial, Int)> {
        let mut out = Vec::new();
        self.terms.retain(|m, c| {
            if m.contains(v) {
                out.push((m.clone(), std::mem::replace(c, Int::zero())));
                false
            } else {
                true
            }
        });
        out
    }

    /// Adds `other` scaled by `scale` and multiplied by `monomial` in place.
    /// This is the inner loop of substitution and of polynomial
    /// multiplication.
    pub fn add_scaled_shifted(&mut self, other: &Polynomial, monomial: &Monomial, scale: &Int) {
        if scale.is_zero() {
            return;
        }
        self.terms.reserve(other.num_terms());
        if scale.is_one() {
            for (m, c) in other.iter() {
                self.add_term(m.mul(monomial), c.clone());
            }
        } else {
            for (m, c) in other.iter() {
                self.add_term(m.mul(monomial), c * scale);
            }
        }
    }

    /// Multiplies the polynomial by a constant in place.
    pub fn scale(&mut self, factor: &Int) {
        if factor.is_zero() {
            self.terms.clear();
            return;
        }
        if factor.is_one() {
            return;
        }
        for c in self.terms.values_mut() {
            *c *= factor;
        }
    }

    /// Substitutes variable `v` by the polynomial `replacement`.
    ///
    /// Every term `c * v * m` becomes `c * m * replacement` (with Boolean
    /// reduction of repeated variables); terms not containing `v` are kept.
    /// This implements the S-polynomial division step of the membership
    /// testing algorithm for gate polynomials of the form `-v + tail`, where
    /// `replacement = tail`.
    pub fn substitute(&self, v: Var, replacement: &Polynomial) -> Polynomial {
        let mut result = Polynomial::zero();
        self.substitute_into(v, replacement, &mut result);
        result
    }

    /// [`Polynomial::substitute`] writing into a caller-provided scratch
    /// polynomial. The reduction and rewrite loops call this with a reused
    /// scratch so the term table is allocated once per loop instead of once
    /// per substitution step.
    pub fn substitute_into(&self, v: Var, replacement: &Polynomial, out: &mut Polynomial) {
        out.clear();
        out.terms.reserve(self.num_terms());
        for (m, c) in self.iter() {
            if m.contains(v) {
                let rest = m.without(v);
                out.add_scaled_shifted(replacement, &rest, c);
            } else {
                out.add_term(m.clone(), c.clone());
            }
        }
    }

    /// Evaluates the polynomial over a Boolean assignment of the variables.
    pub fn eval_bool(&self, assignment: &impl Fn(Var) -> bool) -> Int {
        let mut sum = Int::zero();
        for (m, c) in self.iter() {
            if m.eval_bool(assignment) {
                sum += c;
            }
        }
        sum
    }

    /// Reduces every coefficient modulo `2^k` (canonical range `[0, 2^k)`),
    /// dropping terms that become zero. Used for the `mod 2^(2n)` multiplier
    /// specification.
    pub fn mod_coeffs_pow2(&self, k: u32) -> Polynomial {
        let mut out = Polynomial::with_capacity(self.num_terms());
        for (m, c) in self.iter() {
            out.add_term(m.clone(), c.mod_pow2(k));
        }
        out
    }

    /// Removes terms whose coefficient is a multiple of `2^k` (the operation
    /// the paper applies to the remainder). Equivalent to [`Self::mod_coeffs_pow2`]
    /// for the purpose of a zero test, but keeps the original coefficients of
    /// surviving terms.
    pub fn drop_multiples_of_pow2(&self, k: u32) -> Polynomial {
        let mut out = Polynomial::with_capacity(self.num_terms());
        for (m, c) in self.iter() {
            if !c.is_multiple_of_pow2(k) {
                out.add_term(m.clone(), c.clone());
            }
        }
        out
    }

    /// In-place variant of [`Self::drop_multiples_of_pow2`]; returns the
    /// number of removed terms. The reduction loop applies this after every
    /// substitution when a modulus is configured.
    pub fn retain_non_multiples_of_pow2(&mut self, k: u32) -> usize {
        let before = self.terms.len();
        self.terms.retain(|_, c| !c.is_multiple_of_pow2(k));
        before - self.terms.len()
    }

    /// Retains only the terms for which `keep` returns `true`. Returns the
    /// number of removed terms. Used by the XOR-AND vanishing rule.
    pub fn retain_terms<F: FnMut(&Monomial) -> bool>(&mut self, mut keep: F) -> usize {
        let before = self.terms.len();
        self.terms.retain(|m, _| keep(m));
        before - self.terms.len()
    }

    /// Renders the polynomial with a custom variable namer, terms sorted by
    /// descending degree then lexicographically, constants last.
    pub fn display_with<F: Fn(Var) -> String>(&self, namer: F) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut terms: Vec<(&Monomial, &Int)> = self.terms.iter().collect();
        terms.sort_by(|(ma, _), (mb, _)| mb.degree().cmp(&ma.degree()).then_with(|| ma.cmp(mb)));
        let mut out = String::new();
        for (i, (m, c)) in terms.iter().enumerate() {
            let neg = c.is_negative();
            let abs = c.abs();
            if i == 0 {
                if neg {
                    out.push('-');
                }
            } else if neg {
                out.push_str(" - ");
            } else {
                out.push_str(" + ");
            }
            if m.is_one() {
                out.push_str(&abs.to_string());
            } else if abs.is_one() {
                out.push_str(&m.display_with(&namer));
            } else {
                out.push_str(&format!("{}*{}", abs, m.display_with(&namer)));
            }
        }
        out
    }
}

impl Add for &Polynomial {
    type Output = Polynomial;
    fn add(self, rhs: &Polynomial) -> Polynomial {
        let mut out = self.clone();
        out.terms.reserve(rhs.num_terms());
        for (m, c) in rhs.iter() {
            out.add_term(m.clone(), c.clone());
        }
        out
    }
}

impl Sub for &Polynomial {
    type Output = Polynomial;
    fn sub(self, rhs: &Polynomial) -> Polynomial {
        let mut out = self.clone();
        out.terms.reserve(rhs.num_terms());
        for (m, c) in rhs.iter() {
            out.add_term(m.clone(), -c);
        }
        out
    }
}

impl Neg for &Polynomial {
    type Output = Polynomial;
    fn neg(self) -> Polynomial {
        let mut out = Polynomial::with_capacity(self.num_terms());
        for (m, c) in self.iter() {
            out.add_term(m.clone(), -c);
        }
        out
    }
}

impl Mul for &Polynomial {
    type Output = Polynomial;
    fn mul(self, rhs: &Polynomial) -> Polynomial {
        let mut out = Polynomial::zero();
        for (m, c) in self.iter() {
            out.add_scaled_shifted(rhs, m, c);
        }
        out
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_with(|v| v.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn xor_tail(a: Var, b: Var) -> Polynomial {
        Polynomial::from_terms(vec![
            (Monomial::var(a), Int::from(1)),
            (Monomial::var(b), Int::from(1)),
            (Monomial::from_vars(vec![a, b]), Int::from(-2)),
        ])
    }

    fn and_tail(a: Var, b: Var) -> Polynomial {
        Polynomial::from_terms(vec![(Monomial::from_vars(vec![a, b]), Int::from(1))])
    }

    #[test]
    fn zero_and_constant() {
        assert!(Polynomial::zero().is_zero());
        assert!(Polynomial::constant(Int::zero()).is_zero());
        let c = Polynomial::constant(Int::from(5));
        assert_eq!(c.num_terms(), 1);
        assert_eq!(c.coeff(&Monomial::one()), Int::from(5));
    }

    #[test]
    fn add_combines_and_cancels() {
        let a = Var(0);
        let p = Polynomial::var(a);
        let q = &p + &p;
        assert_eq!(q.coeff(&Monomial::var(a)), Int::from(2));
        let z = &q - &q;
        assert!(z.is_zero());
        assert_eq!((-&p).coeff(&Monomial::var(a)), Int::from(-1));
    }

    #[test]
    fn mul_applies_boolean_reduction() {
        let a = Var(0);
        // (a) * (a) = a because a^2 = a in the Boolean domain.
        let p = Polynomial::var(a);
        let sq = &p * &p;
        assert_eq!(sq, p);
        // (a + b)^2 = a + b + 2ab
        let b = Var(1);
        let s = &Polynomial::var(a) + &Polynomial::var(b);
        let sq = &s * &s;
        assert_eq!(sq.coeff(&Monomial::var(a)), Int::from(1));
        assert_eq!(sq.coeff(&Monomial::from_vars(vec![a, b])), Int::from(2));
    }

    #[test]
    fn substitute_xor_and_cancels_to_zero() {
        // The vanishing monomial of the paper: X*D with X = a xor b,
        // D = a and b. Substituting both gives the zero polynomial.
        let a = Var(0);
        let b = Var(1);
        let x = Var(2);
        let d = Var(3);
        let p = Polynomial::from_terms(vec![(Monomial::from_vars(vec![x, d]), Int::from(1))]);
        let p = p.substitute(x, &xor_tail(a, b));
        let p = p.substitute(d, &and_tail(a, b));
        assert!(p.is_zero(), "(a xor b)(a and b) must reduce to 0, got {p}");
    }

    #[test]
    fn substitute_keeps_unrelated_terms() {
        let a = Var(0);
        let b = Var(1);
        let z = Var(2);
        let p = Polynomial::from_terms(vec![
            (Monomial::var(z), Int::from(4)),
            (Monomial::var(b), Int::from(7)),
        ]);
        let q = p.substitute(z, &and_tail(a, b));
        assert_eq!(q.coeff(&Monomial::var(b)), Int::from(7));
        assert_eq!(q.coeff(&Monomial::from_vars(vec![a, b])), Int::from(4));
    }

    #[test]
    fn substitute_into_reuses_scratch() {
        let a = Var(0);
        let b = Var(1);
        let z = Var(2);
        let p = Polynomial::from_terms(vec![
            (Monomial::var(z), Int::from(4)),
            (Monomial::var(b), Int::from(7)),
        ]);
        // Pre-populate the scratch with junk; substitute_into must clear it.
        let mut scratch = Polynomial::from_terms(vec![(Monomial::var(Var(9)), Int::from(3))]);
        p.substitute_into(z, &and_tail(a, b), &mut scratch);
        assert_eq!(scratch, p.substitute(z, &and_tail(a, b)));
        assert!(scratch.coeff(&Monomial::var(Var(9))).is_zero());
    }

    #[test]
    fn eval_bool_full_adder_spec() {
        // -2c - s + a + b + cin evaluates to zero for a correct full adder
        // assignment: a=1,b=1,cin=0 -> s=0,c=1.
        let (a, b, cin, s, c) = (Var(0), Var(1), Var(2), Var(3), Var(4));
        let spec = Polynomial::from_terms(vec![
            (Monomial::var(c), Int::from(-2)),
            (Monomial::var(s), Int::from(-1)),
            (Monomial::var(a), Int::from(1)),
            (Monomial::var(b), Int::from(1)),
            (Monomial::var(cin), Int::from(1)),
        ]);
        let assignment = |v: Var| matches!(v, Var(0) | Var(1) | Var(4));
        assert!(spec.eval_bool(&assignment).is_zero());
        let wrong = |v: Var| matches!(v, Var(0) | Var(1) | Var(3));
        assert!(!spec.eval_bool(&wrong).is_zero());
    }

    #[test]
    fn mod_and_drop_pow2() {
        let m = Monomial::var(Var(0));
        let p = Polynomial::from_terms(vec![
            (m.clone(), Int::pow2(8)),
            (Monomial::var(Var(1)), Int::from(3)),
        ]);
        let reduced = p.mod_coeffs_pow2(8);
        assert_eq!(reduced.num_terms(), 1);
        assert_eq!(reduced.coeff(&Monomial::var(Var(1))), Int::from(3));
        let dropped = p.drop_multiples_of_pow2(8);
        assert_eq!(dropped.num_terms(), 1);
        assert!(dropped.coeff(&m).is_zero());
        // In-place variant agrees and reports the removal count.
        let mut q = p.clone();
        let removed = q.retain_non_multiples_of_pow2(8);
        assert_eq!(removed, 1);
        assert_eq!(q, dropped);
    }

    #[test]
    fn retain_terms_counts_removed() {
        let mut p = Polynomial::from_terms(vec![
            (Monomial::var(Var(0)), Int::from(1)),
            (Monomial::from_vars(vec![Var(0), Var(1)]), Int::from(2)),
            (Monomial::one(), Int::from(3)),
        ]);
        let removed = p.retain_terms(|m| m.degree() < 2);
        assert_eq!(removed, 1);
        assert_eq!(p.num_terms(), 2);
    }

    #[test]
    fn display_is_readable() {
        let p = Polynomial::from_terms(vec![
            (Monomial::from_vars(vec![Var(0), Var(1)]), Int::from(-2)),
            (Monomial::var(Var(0)), Int::from(1)),
            (Monomial::one(), Int::from(3)),
        ]);
        assert_eq!(p.to_string(), "-2*x0*x1 + x0 + 3");
        assert_eq!(Polynomial::zero().to_string(), "0");
    }

    /// Generates a random small polynomial for property tests.
    fn arb_poly() -> impl Strategy<Value = Polynomial> {
        proptest::collection::vec((proptest::collection::vec(0u32..6, 0..4), -20i64..20), 0..8)
            .prop_map(|terms| {
                Polynomial::from_terms(terms.into_iter().map(|(vars, c)| {
                    (Monomial::from_vars(vars.into_iter().map(Var)), Int::from(c))
                }))
            })
    }

    fn eval(p: &Polynomial, bits: u32) -> Int {
        p.eval_bool(&|v: Var| (bits >> v.0) & 1 == 1)
    }

    proptest! {
        #[test]
        fn ring_axioms_under_evaluation(p in arb_poly(), q in arb_poly(), bits in 0u32..64) {
            let sum = &p + &q;
            let prod = &p * &q;
            prop_assert_eq!(eval(&sum, bits), &eval(&p, bits) + &eval(&q, bits));
            prop_assert_eq!(eval(&prod, bits), &eval(&p, bits) * &eval(&q, bits));
            prop_assert_eq!(eval(&(&p - &p), bits), Int::zero());
        }

        #[test]
        fn substitution_respects_evaluation(p in arb_poly(), r in arb_poly(), bits in 0u32..64) {
            // Substituting v by a 0/1-valued polynomial must agree with
            // evaluating v at that value. Use r restricted to a Boolean value
            // by evaluating it first.
            let v = Var(2);
            let r_val = !eval(&r, bits).is_zero();
            // Build the replacement as a constant 0/1 polynomial.
            let replacement = if r_val { Polynomial::constant(Int::one()) } else { Polynomial::zero() };
            let substituted = p.substitute(v, &replacement);
            // Evaluate p with v forced to r_val, everything else per `bits`.
            let forced = p.eval_bool(&|u: Var| if u == v { r_val } else { (bits >> u.0) & 1 == 1 });
            // In `substituted`, v no longer occurs, so evaluation ignores it.
            let masked_bits = bits;
            prop_assert_eq!(substituted.eval_bool(&|u: Var| if u == v { false } else { (masked_bits >> u.0) & 1 == 1 }), forced);
        }

        #[test]
        fn add_commutes_and_associates(p in arb_poly(), q in arb_poly(), r in arb_poly()) {
            prop_assert_eq!(&p + &q, &q + &p);
            prop_assert_eq!(&(&p + &q) + &r, &p + &(&q + &r));
            prop_assert_eq!(&p * &q, &q * &p);
        }

        #[test]
        fn substitute_into_matches_substitute(p in arb_poly(), r in arb_poly()) {
            let v = Var(1);
            let mut scratch = Polynomial::zero();
            p.substitute_into(v, &r, &mut scratch);
            prop_assert_eq!(scratch, p.substitute(v, &r));
        }
    }
}

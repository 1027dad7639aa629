//! Multivariate polynomial arithmetic for algebraic circuit verification.
//!
//! The membership-testing algorithm of the paper manipulates polynomials over
//! the Boolean domain: every variable `x` satisfies `x^2 = x`, so all
//! monomials are *multilinear* (a set of distinct variables). Coefficients are
//! arbitrary-precision signed integers because the specification polynomial of
//! an `n x n` multiplier contains coefficients up to `2^(2n-2)` and
//! intermediate coefficients can grow beyond that during reduction.
//!
//! The crate provides:
//!
//! * [`Int`] — a signed arbitrary-precision integer with an inline `i64`
//!   fast path. The representation is canonical: values are stored inline
//!   whenever they fit an `i64` and spill to sign-magnitude base-2^64 limbs
//!   only beyond that, so the reduction inner loop does plain machine
//!   arithmetic with no allocation.
//! * [`Var`], [`Monomial`] — variables and multilinear power products.
//!   Monomials store up to [`INLINE_VARS`] variables inline and cache their
//!   hash at construction. Higher degrees spill to the heap, as a third to
//!   two thirds of the Step-3 products of the large width-8 designs do.
//! * [`Polynomial`] — a sparse sum of terms with [`Int`] coefficients in an
//!   [`FastMap`], with the substitution operation that implements the
//!   S-polynomial step (division by a polynomial of the form `-v + tail`),
//!   including a scratch-reusing [`Polynomial::substitute_into`] for hot
//!   loops.
//! * [`IndexedPolynomial`] — the incrementally indexed term store behind
//!   the reduction hot loop: an inverted var→term-handle index so each
//!   substitution step touches only the terms containing the substituted
//!   net, canonical mod-`2^k` coefficients that cancel at insertion time,
//!   and a retirement accumulator for terms no substitution can reach.
//!   Each variable has a drain rank (`0` = untracked), and a term is
//!   indexed only under the tracked variables of the highest rank it holds.
//!   That is exact under the store's drain contract: a variable is drained
//!   only while no live term holds a higher rank. A [`Drain`] removes the
//!   drained variable's terms one at a time, so the products of a
//!   substitution step refill the slots it frees instead of waiting beside
//!   a copy of the drained terms. The engines' per-step term bound, the
//!   store size less the drained variable's occurrences at the step's
//!   start plus the products emitted since, leaves out the terms still to
//!   be drained.
//! * [`FastMap`] / [`FastSet`] — `ahash`-keyed hash containers used for every
//!   hot map in the engine (term tables, keep-sets, model indices).
//! * [`spec`] — specification polynomials for adders and (modular) multipliers.
//!
//! # Representation invariants
//!
//! * `Int` is inline iff the value fits an `i64` (spill threshold
//!   `|v| > i64::MAX`, respectively `> 2^63` for negative values); limb
//!   vectors are trailing-zero-free. Structural equality/hashing rely on
//!   this.
//! * `Monomial` variable lists are sorted and duplicate-free; the inline
//!   capacity is [`INLINE_VARS`] and the cached hash always matches the
//!   list. Monomials that shrink below the capacity collapse back to the
//!   inline form.
//! * `Polynomial` never stores zero coefficients.
//!
//! # Example
//!
//! ```
//! use gbmv_poly::{Int, Monomial, Polynomial, Var};
//!
//! let a = Var(0);
//! let b = Var(1);
//! // p = a + b - 2ab  (the XOR gate polynomial tail)
//! let p = Polynomial::from_terms(vec![
//!     (Monomial::from_vars(vec![a]), Int::from(1)),
//!     (Monomial::from_vars(vec![b]), Int::from(1)),
//!     (Monomial::from_vars(vec![a, b]), Int::from(-2)),
//! ]);
//! // Evaluate at a=1, b=1: 1 + 1 - 2 = 0 (XOR of equal bits).
//! assert!(p.eval_bool(&|_| true).is_zero());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod indexed;
mod int;
mod monomial;
mod polynomial;
pub mod spec;

pub use indexed::{Drain, IndexedPolynomial};
pub use int::Int;
pub use monomial::{Monomial, Var, INLINE_VARS};
pub use polynomial::Polynomial;

/// A `HashMap` keyed by the fast `ahash` hasher; use for every map on a hot
/// path (term tables, model indices).
pub type FastMap<K, V> = std::collections::HashMap<K, V, ahash::RandomState>;

/// A `HashSet` keyed by the fast `ahash` hasher; use for keep-sets and other
/// hot-path sets.
pub type FastSet<T> = std::collections::HashSet<T, ahash::RandomState>;

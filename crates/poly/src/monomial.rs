use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A polynomial variable, identified by a dense index.
///
/// The verifier assigns one variable per circuit net; the index has no
/// intrinsic meaning beyond identity. Ordering of variables (for leading
/// terms and substitution) is defined externally by the circuit's reverse
/// topological order, not by the numeric value of the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// Returns the variable index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Number of variables a [`Monomial`] stores inline before spilling to the
/// heap, where a monomial costs an allocation and a pointer chase per
/// hash-map equality check. The capacity does not cover the width-8
/// reduction intermediates: of the products Step 3 emits, 38.6 % of 5.16 M
/// spill on SP-RT-KS (degree up to 28) and 65.7 % of 3.12 M on BP-AR-HC
/// (degree up to 26). A larger capacity makes every slot of the term store
/// larger as well; see the ROADMAP's compact-term-store item for the
/// measurements behind keeping 16.
pub const INLINE_VARS: usize = 16;

/// The variable storage of a monomial: inline up to [`INLINE_VARS`]
/// variables, heap vector beyond.
#[derive(Debug, Clone)]
enum VarsRepr {
    Inline { len: u8, vars: [u32; INLINE_VARS] },
    Spilled(Vec<u32>),
}

/// A multilinear monomial: a product of distinct variables.
///
/// Because every circuit variable is Boolean (`x^2 = x`), exponents never
/// exceed one and a monomial is simply a set of variables. The empty monomial
/// is the constant `1`. Variables are stored sorted by index so that equal
/// monomials have equal representations.
///
/// Two representation-level optimizations make monomials cheap in the
/// reduction inner loop:
///
/// * **Inline capacity** — up to [`INLINE_VARS`] variables are stored inline
///   (no heap allocation); higher-degree monomials spill to a `Vec`, which
///   most width-8 Step-3 products of the Kogge–Stone and Han–Carlson
///   designs do (see [`INLINE_VARS`]).
/// * **Cached hash** — the hash of the variable list is computed once at
///   construction, so hash-map probes during [`crate::Polynomial`] term
///   insertion cost a single `u64` mix instead of rehashing the list.
///
/// # Example
///
/// ```
/// use gbmv_poly::{Monomial, Var};
///
/// let ab = Monomial::from_vars(vec![Var(1), Var(0), Var(1)]);
/// assert_eq!(ab.degree(), 2);                       // x^2 reduced to x
/// let abc = ab.mul(&Monomial::from_vars(vec![Var(2)]));
/// assert!(abc.contains(Var(0)) && abc.contains(Var(2)));
/// assert_eq!(ab.without(Var(1)).degree(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Monomial {
    /// Cached hash of the sorted variable list (see [`hash_vars`]).
    hash: u64,
    vars: VarsRepr,
}

/// Multiply-rotate mix of the sorted variable list, cached per monomial.
#[inline]
fn hash_vars(vars: &[u32]) -> u64 {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = vars.len() as u64 ^ SEED;
    for &v in vars {
        h = (h.rotate_left(5) ^ v as u64).wrapping_mul(SEED);
    }
    h
}

impl Monomial {
    /// The constant monomial `1`.
    pub fn one() -> Self {
        Monomial::from_sorted_slice(&[])
    }

    /// A monomial consisting of a single variable.
    pub fn var(v: Var) -> Self {
        Monomial::from_sorted_slice(&[v.0])
    }

    /// Builds a monomial from a list of variables. Duplicates are collapsed
    /// (Boolean domain: `x^2 = x`).
    pub fn from_vars(vars: impl IntoIterator<Item = Var>) -> Self {
        let mut vs: Vec<u32> = vars.into_iter().map(|v| v.0).collect();
        vs.sort_unstable();
        vs.dedup();
        Monomial::from_sorted_vec(vs)
    }

    /// Builds a monomial from an already sorted, duplicate-free slice.
    #[inline]
    fn from_sorted_slice(sorted: &[u32]) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let vars = if sorted.len() <= INLINE_VARS {
            let mut inline = [0u32; INLINE_VARS];
            inline[..sorted.len()].copy_from_slice(sorted);
            VarsRepr::Inline {
                len: sorted.len() as u8,
                vars: inline,
            }
        } else {
            VarsRepr::Spilled(sorted.to_vec())
        };
        Monomial {
            hash: hash_vars(sorted),
            vars,
        }
    }

    /// Like [`Monomial::from_sorted_slice`] but reuses an existing vector for
    /// the spilled case.
    #[inline]
    fn from_sorted_vec(sorted: Vec<u32>) -> Self {
        if sorted.len() <= INLINE_VARS {
            Monomial::from_sorted_slice(&sorted)
        } else {
            Monomial {
                hash: hash_vars(&sorted),
                vars: VarsRepr::Spilled(sorted),
            }
        }
    }

    /// The sorted variable indices.
    #[inline]
    fn as_slice(&self) -> &[u32] {
        match &self.vars {
            VarsRepr::Inline { len, vars } => &vars[..*len as usize],
            VarsRepr::Spilled(vec) => vec,
        }
    }

    /// Returns `true` if this is the constant monomial `1`.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.degree() == 0
    }

    /// The number of distinct variables (total degree in the Boolean domain).
    #[inline]
    pub fn degree(&self) -> usize {
        match &self.vars {
            VarsRepr::Inline { len, .. } => *len as usize,
            VarsRepr::Spilled(vec) => vec.len(),
        }
    }

    /// Returns `true` if the monomial spilled to the heap (degree above
    /// [`INLINE_VARS`]); exposed for tests and statistics.
    pub fn is_spilled(&self) -> bool {
        matches!(self.vars, VarsRepr::Spilled(_))
    }

    /// The cached hash of the variable list.
    #[inline]
    pub fn cached_hash(&self) -> u64 {
        self.hash
    }

    /// Iterates over the variables in ascending index order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.as_slice().iter().map(|&v| Var(v))
    }

    /// Returns `true` if the monomial contains `v`.
    #[inline]
    pub fn contains(&self, v: Var) -> bool {
        self.as_slice().binary_search(&v.0).is_ok()
    }

    /// Multiplies two monomials (set union, Boolean reduction applied).
    pub fn mul(&self, other: &Monomial) -> Monomial {
        if self.is_one() {
            return other.clone();
        }
        if other.is_one() {
            return self.clone();
        }
        let a = self.as_slice();
        let b = other.as_slice();
        // Merge into a stack buffer when the union can possibly stay small;
        // this covers almost all reduction-time products without allocating.
        if a.len() + b.len() <= MERGE_BUF {
            let mut buf = [0u32; MERGE_BUF];
            let n = merge_sorted(a, b, &mut buf);
            Monomial::from_sorted_slice(&buf[..n])
        } else {
            let mut out = Vec::with_capacity(a.len() + b.len());
            merge_sorted_into_vec(a, b, &mut out);
            Monomial::from_sorted_vec(out)
        }
    }

    /// Returns the monomial with `v` removed (identity if `v` is absent).
    pub fn without(&self, v: Var) -> Monomial {
        let s = self.as_slice();
        match s.binary_search(&v.0) {
            Ok(pos) => {
                if s.len() - 1 <= INLINE_VARS {
                    let mut buf = [0u32; INLINE_VARS];
                    buf[..pos].copy_from_slice(&s[..pos]);
                    buf[pos..s.len() - 1].copy_from_slice(&s[pos + 1..]);
                    Monomial::from_sorted_slice(&buf[..s.len() - 1])
                } else {
                    let mut vars = Vec::with_capacity(s.len() - 1);
                    vars.extend_from_slice(&s[..pos]);
                    vars.extend_from_slice(&s[pos + 1..]);
                    Monomial::from_sorted_vec(vars)
                }
            }
            Err(_) => self.clone(),
        }
    }

    /// Returns `true` if `self` divides `other` (subset of variables).
    pub fn divides(&self, other: &Monomial) -> bool {
        let a = self.as_slice();
        let b = other.as_slice();
        if a.len() > b.len() {
            return false;
        }
        let mut j = 0;
        for &v in a {
            loop {
                if j >= b.len() {
                    return false;
                }
                match b[j].cmp(&v) {
                    Ordering::Less => j += 1,
                    Ordering::Equal => {
                        j += 1;
                        break;
                    }
                    Ordering::Greater => return false,
                }
            }
        }
        true
    }

    /// Evaluates the monomial over a Boolean assignment.
    pub fn eval_bool(&self, assignment: &impl Fn(Var) -> bool) -> bool {
        self.as_slice().iter().all(|&v| assignment(Var(v)))
    }

    /// Renders the monomial with a custom variable naming function.
    pub fn display_with<F: Fn(Var) -> String>(&self, namer: F) -> String {
        if self.is_one() {
            "1".to_string()
        } else {
            self.as_slice()
                .iter()
                .map(|&v| namer(Var(v)))
                .collect::<Vec<_>>()
                .join("*")
        }
    }
}

/// Stack-buffer size for [`Monomial::mul`] merges; covers two inline-capacity
/// factors so in-cache products never allocate.
const MERGE_BUF: usize = 2 * INLINE_VARS;

/// Merges two sorted duplicate-free slices into `out`, dropping duplicates
/// across the inputs; returns the merged length. `out` must have room for
/// `a.len() + b.len()` entries.
#[inline]
fn merge_sorted(a: &[u32], b: &[u32], out: &mut [u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[n] = x.min(y);
        n += 1;
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out[n..n + a.len() - i].copy_from_slice(&a[i..]);
    n += a.len() - i;
    out[n..n + b.len() - j].copy_from_slice(&b[j..]);
    n += b.len() - j;
    n
}

/// [`merge_sorted`] into a vector, for unions past the stack buffer.
fn merge_sorted_into_vec(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl PartialEq for Monomial {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.as_slice() == other.as_slice()
    }
}

impl Eq for Monomial {}

impl Hash for Monomial {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    /// Lexicographic on the sorted variable list, matching the ordering of
    /// the previous `Vec<u32>`-based representation (display rendering relies
    /// on it).
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Default for Monomial {
    fn default() -> Self {
        Monomial::one()
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_with(|v| v.to_string()))
    }
}

impl FromIterator<Var> for Monomial {
    fn from_iter<T: IntoIterator<Item = Var>>(iter: T) -> Self {
        Monomial::from_vars(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_dedup() {
        let m = Monomial::from_vars(vec![Var(3), Var(1), Var(3)]);
        assert_eq!(m.degree(), 2);
        assert!(m.contains(Var(1)));
        assert!(m.contains(Var(3)));
        assert!(!m.contains(Var(2)));
        assert!(Monomial::one().is_one());
        assert_eq!(Monomial::var(Var(7)).degree(), 1);
    }

    #[test]
    fn inline_and_spilled_representations_agree() {
        let inline = Monomial::from_vars((0..INLINE_VARS as u32).map(Var));
        assert!(!inline.is_spilled());
        let spilled = Monomial::from_vars((0..INLINE_VARS as u32 + 1).map(Var));
        assert!(spilled.is_spilled());
        // Shrinking a spilled monomial below the inline capacity collapses it
        // back, and the two construction paths agree on hash and equality.
        let back = spilled.without(Var(0));
        assert!(!back.is_spilled());
        let direct = Monomial::from_vars((1..INLINE_VARS as u32 + 1).map(Var));
        assert_eq!(back, direct);
        assert_eq!(back.cached_hash(), direct.cached_hash());
    }

    #[test]
    fn cached_hash_is_stable_across_paths() {
        let a = Monomial::from_vars(vec![Var(0), Var(2)]);
        let b = Monomial::var(Var(2)).mul(&Monomial::var(Var(0)));
        assert_eq!(a, b);
        assert_eq!(a.cached_hash(), b.cached_hash());
        // Degree is mixed in, so a prefix does not collide with the whole.
        let prefix = Monomial::var(Var(0));
        assert_ne!(a.cached_hash(), prefix.cached_hash());
    }

    #[test]
    fn mul_is_union() {
        let a = Monomial::from_vars(vec![Var(0), Var(2)]);
        let b = Monomial::from_vars(vec![Var(1), Var(2)]);
        let ab = a.mul(&b);
        assert_eq!(ab, Monomial::from_vars(vec![Var(0), Var(1), Var(2)]));
        assert_eq!(a.mul(&Monomial::one()), a);
        assert_eq!(Monomial::one().mul(&b), b);
    }

    #[test]
    fn mul_across_the_inline_boundary() {
        let n = INLINE_VARS as u32;
        let lo = Monomial::from_vars((0..n / 2).map(Var));
        let hi = Monomial::from_vars((n / 2 - 1..n + 1).map(Var));
        let u = lo.mul(&hi);
        assert_eq!(u, Monomial::from_vars((0..n + 1).map(Var)));
        assert!(u.is_spilled());
        // Large unions (past the merge stack buffer) still work.
        let big_a = Monomial::from_vars((0..3 * n).map(|i| Var(2 * i)));
        let big_b = Monomial::from_vars((0..3 * n).map(|i| Var(2 * i + 1)));
        let big = big_a.mul(&big_b);
        assert_eq!(big.degree(), 6 * INLINE_VARS);
        assert_eq!(big, Monomial::from_vars((0..6 * n).map(Var)));
    }

    #[test]
    fn without_and_divides() {
        let abc = Monomial::from_vars(vec![Var(0), Var(1), Var(2)]);
        let ac = abc.without(Var(1));
        assert_eq!(ac, Monomial::from_vars(vec![Var(0), Var(2)]));
        assert!(ac.divides(&abc));
        assert!(!abc.divides(&ac));
        assert!(Monomial::one().divides(&abc));
        assert_eq!(abc.without(Var(9)), abc);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Monomial::one().to_string(), "1");
        let m = Monomial::from_vars(vec![Var(2), Var(0)]);
        assert_eq!(m.to_string(), "x0*x2");
        assert_eq!(m.display_with(|v| format!("s{}", v.0)), "s0*s2");
    }

    #[test]
    fn eval_bool() {
        let m = Monomial::from_vars(vec![Var(0), Var(1)]);
        assert!(m.eval_bool(&|_| true));
        assert!(!m.eval_bool(&|v| v == Var(0)));
        assert!(Monomial::one().eval_bool(&|_| false));
    }

    proptest! {
        #[test]
        fn mul_commutative_idempotent(a in proptest::collection::vec(0u32..16, 0..6),
                                      b in proptest::collection::vec(0u32..16, 0..6)) {
            let ma = Monomial::from_vars(a.iter().map(|&v| Var(v)));
            let mb = Monomial::from_vars(b.iter().map(|&v| Var(v)));
            prop_assert_eq!(ma.mul(&mb), mb.mul(&ma));
            prop_assert_eq!(ma.mul(&ma), ma.clone());
            prop_assert!(ma.divides(&ma.mul(&mb)));
        }

        #[test]
        fn divides_iff_subset(a in proptest::collection::vec(0u32..10, 0..5),
                              b in proptest::collection::vec(0u32..10, 0..5)) {
            let ma = Monomial::from_vars(a.iter().map(|&v| Var(v)));
            let mb = Monomial::from_vars(b.iter().map(|&v| Var(v)));
            let subset = ma.vars().all(|v| mb.contains(v));
            prop_assert_eq!(ma.divides(&mb), subset);
        }

        #[test]
        fn equal_monomials_have_equal_hashes(a in proptest::collection::vec(0u32..12, 0..8),
                                             b in proptest::collection::vec(0u32..12, 0..8)) {
            let ma = Monomial::from_vars(a.iter().map(|&v| Var(v)));
            let mb = Monomial::from_vars(b.iter().map(|&v| Var(v)));
            if ma == mb {
                prop_assert_eq!(ma.cached_hash(), mb.cached_hash());
            }
            // Products recompute the cache consistently.
            let prod = ma.mul(&mb);
            let direct = Monomial::from_vars(a.iter().chain(b.iter()).map(|&v| Var(v)));
            prop_assert_eq!(prod.cached_hash(), direct.cached_hash());
            prop_assert_eq!(prod, direct);
        }

        #[test]
        fn ordering_matches_slice_ordering(a in proptest::collection::vec(0u32..10, 0..6),
                                           b in proptest::collection::vec(0u32..10, 0..6)) {
            let ma = Monomial::from_vars(a.iter().map(|&v| Var(v)));
            let mb = Monomial::from_vars(b.iter().map(|&v| Var(v)));
            let mut sa: Vec<u32> = a.clone(); sa.sort_unstable(); sa.dedup();
            let mut sb: Vec<u32> = b.clone(); sb.sort_unstable(); sb.dedup();
            prop_assert_eq!(ma.cmp(&mb), sa.cmp(&sb));
        }
    }
}

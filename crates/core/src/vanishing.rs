use gbmv_netlist::GateKind;
use gbmv_poly::{FastMap, Monomial, Polynomial, Var};

use crate::model::{AlgebraicModel, GateFunction};

/// Which structural vanishing rule the engines apply: logic reduction off,
/// the paper's XOR-AND rule, or its unit-propagation closure.
///
/// Each mode selects one predicate per engine. The scan engines (the
/// rewriter of [`crate::XorRewrite`] and [`crate::LogicReductionRewrite`],
/// and [`crate::GreedyReduction`]) apply [`VanishingTracker`] in both
/// [`VanishingRules::XorAnd`] and [`VanishingRules::Closure`]; the indexed
/// engines of `MT-LR-PAR` apply the tracker in `XorAnd` mode and
/// [`ClosureVanishing`] in `Closure` mode. [`VanishingRules::Off`] cancels
/// nothing anywhere, the "without logic reduction" arm of the paper's
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VanishingRules {
    /// No vanishing rule: MT-LR degenerates into plain XOR and common
    /// rewriting.
    Off,
    /// The paper's XOR-AND rule in both of its forms, `(a⊕b)·(a∧b) = 0` and
    /// `(a⊕b)·a·b = 0`, in every engine. The second form is needed at the
    /// synthesized gate level, where the AND output is often substituted
    /// (inlined to `a·b`) before the paired XOR variable enters the same
    /// monomial. In this mode the indexed rewriter is term for term the
    /// scan rewriter, the contract `tests/rewrite_equivalence.rs` pins.
    XorAnd,
    /// The indexed engines apply the unit-propagation closure of
    /// [`ClosureVanishing`]: 3-input XOR chains (`sum = (a⊕b)⊕c`), the `t·d`
    /// product of every full-adder carry OR and inverter chains all cancel
    /// before they inflate the term table. The scan engines keep the
    /// tracker. The presets' default.
    #[default]
    Closure,
}

/// An index over the structural gate definitions that answers "does this
/// monomial contain a pair of variables that makes it vanish?" quickly: the
/// paper's XOR-AND rule in both forms (see [`VanishingRules::XorAnd`]).
#[derive(Debug)]
pub struct VanishingTracker {
    /// AND outputs by their (sorted) input pair.
    and_outputs: FastMap<(Var, Var), Vec<Var>>,
    /// For every variable that is the output of a 2-input XOR gate, its input
    /// pair.
    xor_inputs: FastMap<Var, (Var, Var)>,
}

impl VanishingTracker {
    /// Builds the tracker from the structural gate information of a model.
    pub fn new(model: &AlgebraicModel) -> Self {
        let mut and_outputs: FastMap<(Var, Var), Vec<Var>> = FastMap::default();
        let mut xor_inputs = FastMap::default();
        for (out, gf) in model.gates() {
            if gf.inputs.len() != 2 {
                continue;
            }
            let pair = (gf.inputs[0], gf.inputs[1]);
            match gf.kind {
                GateKind::Xor => {
                    xor_inputs.insert(out, pair);
                }
                GateKind::And => {
                    and_outputs.entry(pair).or_default().push(out);
                }
                _ => {}
            }
        }
        VanishingTracker {
            and_outputs,
            xor_inputs,
        }
    }

    /// Returns `true` if the monomial is structurally guaranteed to evaluate
    /// to zero under every consistent circuit assignment.
    pub fn monomial_vanishes(&self, monomial: &Monomial) -> bool {
        if monomial.degree() < 2 {
            return false;
        }
        for v in monomial.vars() {
            if let Some(&(a, b)) = self.xor_inputs.get(&v) {
                if let Some(ands) = self.and_outputs.get(&(a, b)) {
                    if ands.iter().any(|w| *w != v && monomial.contains(*w)) {
                        return true;
                    }
                }
                if monomial.contains(a) && monomial.contains(b) {
                    return true;
                }
            }
        }
        false
    }

    /// Removes all vanishing monomials from the polynomial in place,
    /// returning the number of removed terms (`XORAND-Rule(r)` in
    /// Algorithm 2 of the paper; callers sum it into `#CVM`).
    pub fn apply(&self, p: &mut Polynomial) -> usize {
        p.retain_terms(|m| !self.monomial_vanishes(m))
    }
}

/// Maximum number of propagated facts per variable closure; truncation only
/// weakens the rule (fewer detections), never its soundness.
const CLOSURE_FACT_CAP: usize = 48;

/// The assumption-closure vanishing index the indexed engines apply in
/// [`VanishingRules::Closure`] mode.
///
/// For every variable `v` it precomputes the unit-propagation consequences
/// of assuming `v = 1`: the set of variables forced to 1 and the set forced
/// to 0 (through AND/OR/NAND/NOR/NOT/BUF gates, and through 2-input
/// XOR/XNOR gates once one input value is known). A monomial evaluates to
/// zero on every consistent circuit assignment — and can be removed without
/// changing the reduction's final remainder — when the union of its
/// variables' consequence sets is contradictory:
///
/// * some variable is forced both to 1 and to 0 (complement pairs, inverter
///   chains), or
/// * an XOR output forced to 1 has both inputs forced to the same value
///   (subsumes both forms of the paper's XOR-AND rule and the NOR pattern
///   `(a⊕b)·(a NOR b)`, and catches the `t·d` carry product of every
///   full-adder: `t = x∧c` forces `x = a⊕b` to 1 while `d = a∧b` forces
///   both of its inputs), or
/// * an XNOR output forced to 1 has its inputs forced to opposite values.
///
/// Queries write epoch stamps into a caller-owned [`VanishScratch`], so the
/// index itself stays immutable. The engines' inner loop
/// checks products `tm · rest` for a fixed `rest`; [`ClosureVanishing::set_rest`]
/// marks the rest's consequences once and
/// [`ClosureVanishing::rest_union_vanishes`] layers each tail monomial on
/// top without recomputing them.
#[derive(Debug)]
pub struct ClosureVanishing {
    var_count: usize,
    /// Variables forced to 1 when the indexed variable is 1 (includes the
    /// variable itself).
    forced1: Vec<Vec<Var>>,
    /// Variables forced to 0 when the indexed variable is 1.
    forced0: Vec<Vec<Var>>,
    /// `v = 1` is contradictory on its own: the variable is identically 0.
    always_zero: Vec<bool>,
    /// Input pairs of 2-input XOR gates, by output variable.
    xor_pair: Vec<Option<(Var, Var)>>,
    /// Input pairs of 2-input XNOR gates, by output variable.
    xnor_pair: Vec<Option<(Var, Var)>>,
}

/// Scratch space for [`ClosureVanishing`] queries, one per query loop:
/// epoch-stamped membership arrays, so clearing between queries is O(1).
#[derive(Debug, Clone)]
pub struct VanishScratch {
    /// Epoch at which each variable was last forced to 1.
    stamp1: Vec<u64>,
    /// Epoch at which each variable was last forced to 0.
    stamp0: Vec<u64>,
    /// Monotone clock; stamps are valid iff they equal `base` or `cur`.
    clock: u64,
    /// Epoch of the persistent "rest" marks.
    base: u64,
    /// Epoch of the current union query's marks.
    cur: u64,
    /// XOR/XNOR outputs forced to 1 by the rest monomial.
    rest_xor: Vec<Var>,
    /// XOR/XNOR outputs forced to 1 by the current union query.
    cur_xor: Vec<Var>,
}

impl VanishScratch {
    fn in1(&self, v: Var) -> bool {
        let s = self.stamp1[v.index()];
        s == self.base || s == self.cur
    }

    fn in0(&self, v: Var) -> bool {
        let s = self.stamp0[v.index()];
        s == self.base || s == self.cur
    }
}

impl ClosureVanishing {
    /// Builds the index from the structural gate information of a model.
    /// The indexed engines do not build their own: they share the one index
    /// a model builds with this on first use, which every clone of the model
    /// shares too.
    pub fn new(model: &AlgebraicModel) -> Self {
        let var_count = model.var_count();
        let gfs = model.gate_functions();
        let mut xor_pair = vec![None; var_count];
        let mut xnor_pair = vec![None; var_count];
        for (out, gf) in model.gates() {
            if gf.inputs.len() == 2 {
                let pair = (gf.inputs[0], gf.inputs[1]);
                match gf.kind {
                    GateKind::Xor => xor_pair[out.index()] = Some(pair),
                    GateKind::Xnor => xnor_pair[out.index()] = Some(pair),
                    _ => {}
                }
            }
        }
        let mut forced1 = vec![Vec::new(); var_count];
        let mut forced0 = vec![Vec::new(); var_count];
        let mut always_zero = vec![false; var_count];
        for v in 0..var_count {
            let (pos, neg, contradiction) = closure_of(gfs, Var(v as u32));
            forced1[v] = pos;
            forced0[v] = neg;
            always_zero[v] = contradiction;
        }
        ClosureVanishing {
            var_count,
            forced1,
            forced0,
            always_zero,
            xor_pair,
            xnor_pair,
        }
    }

    /// Allocates a scratch sized for this index; one per query loop.
    pub fn scratch(&self) -> VanishScratch {
        VanishScratch {
            stamp1: vec![0; self.var_count],
            stamp0: vec![0; self.var_count],
            clock: 0,
            base: u64::MAX,
            cur: u64::MAX,
            rest_xor: Vec::new(),
            cur_xor: Vec::new(),
        }
    }

    /// Whether the monomial is structurally guaranteed to evaluate to zero
    /// under every consistent circuit assignment.
    pub fn vanishes(&self, m: &Monomial, s: &mut VanishScratch) -> bool {
        self.set_rest(m, s)
    }

    /// Marks the consequence closure of `rest` as the persistent base for
    /// subsequent [`Self::rest_union_vanishes`] calls, and reports whether
    /// `rest` on its own already vanishes (callers then skip the whole
    /// expansion).
    pub fn set_rest(&self, rest: &Monomial, s: &mut VanishScratch) -> bool {
        s.clock += 1;
        s.base = s.clock;
        s.cur = s.base;
        s.rest_xor.clear();
        s.cur_xor.clear();
        for v in rest.vars() {
            if self.mark_var(v, Epoch::Base, s) {
                return true;
            }
        }
        self.xor_rules_fire(s)
    }

    /// Whether `tm · rest` vanishes, for the `rest` installed by the last
    /// [`Self::set_rest`] call on this scratch.
    pub fn rest_union_vanishes(&self, tm: &Monomial, s: &mut VanishScratch) -> bool {
        s.clock += 1;
        s.cur = s.clock;
        s.cur_xor.clear();
        for v in tm.vars() {
            if self.mark_var(v, Epoch::Cur, s) {
                return true;
            }
        }
        self.xor_rules_fire(s)
    }

    /// Marks the consequences of `v = 1`; returns `true` on a detected
    /// contradiction.
    fn mark_var(&self, v: Var, epoch: Epoch, s: &mut VanishScratch) -> bool {
        let i = v.index();
        if i >= self.var_count {
            return false;
        }
        if self.always_zero[i] {
            return true;
        }
        let e = match epoch {
            Epoch::Base => s.base,
            Epoch::Cur => s.cur,
        };
        for &w in &self.forced1[i] {
            if s.in0(w) {
                return true;
            }
            if !s.in1(w) {
                s.stamp1[w.index()] = e;
                if self.xor_pair[w.index()].is_some() || self.xnor_pair[w.index()].is_some() {
                    match epoch {
                        Epoch::Base => s.rest_xor.push(w),
                        Epoch::Cur => s.cur_xor.push(w),
                    }
                }
            }
        }
        for &w in &self.forced0[i] {
            if s.in1(w) {
                return true;
            }
            if !s.in0(w) {
                s.stamp0[w.index()] = e;
            }
        }
        false
    }

    /// Applies the XOR/XNOR contradiction rules over every XOR-ish output
    /// currently forced to 1.
    fn xor_rules_fire(&self, s: &VanishScratch) -> bool {
        for &x in s.rest_xor.iter().chain(&s.cur_xor) {
            if let Some((a, b)) = self.xor_pair[x.index()] {
                if (s.in1(a) && s.in1(b)) || (s.in0(a) && s.in0(b)) {
                    return true;
                }
            }
            if let Some((a, b)) = self.xnor_pair[x.index()] {
                if (s.in1(a) && s.in0(b)) || (s.in0(a) && s.in1(b)) {
                    return true;
                }
            }
        }
        false
    }
}

/// Which epoch new stamps belong to.
enum Epoch {
    Base,
    Cur,
}

/// Unit-propagation closure of the single assumption `seed = 1`: the
/// variables forced to 1 and to 0, and whether the assumption is
/// self-contradictory. Derived facts propagate to a fixpoint, with XOR/XNOR
/// gates re-examined as their input values become known.
fn closure_of(gfs: &[Option<GateFunction>], seed: Var) -> (Vec<Var>, Vec<Var>, bool) {
    let mut pos = vec![seed];
    let mut neg: Vec<Var> = Vec::new();
    let mut contradiction = false;
    // (variable, value) facts whose gate is still to be expanded.
    let mut queue: Vec<(Var, bool)> = vec![(seed, true)];
    let add = |pos: &mut Vec<Var>,
               neg: &mut Vec<Var>,
               queue: &mut Vec<(Var, bool)>,
               contradiction: &mut bool,
               w: Var,
               val: bool| {
        let (mine, other) = if val {
            (&mut *pos, &mut *neg)
        } else {
            (&mut *neg, &mut *pos)
        };
        if other.contains(&w) {
            *contradiction = true;
            return;
        }
        if mine.contains(&w) || mine.len() + other.len() >= CLOSURE_FACT_CAP {
            return;
        }
        mine.push(w);
        queue.push((w, val));
    };
    loop {
        while let Some((u, val)) = queue.pop() {
            if contradiction {
                return (pos, neg, true);
            }
            let Some(gf) = &gfs[u.index()] else { continue };
            match (gf.kind, val) {
                (GateKind::And, true) | (GateKind::Nand, false) | (GateKind::Buf, true) => {
                    for &i in &gf.inputs {
                        add(&mut pos, &mut neg, &mut queue, &mut contradiction, i, true);
                    }
                }
                (GateKind::Nor, true) | (GateKind::Or, false) | (GateKind::Buf, false) => {
                    for &i in &gf.inputs {
                        add(&mut pos, &mut neg, &mut queue, &mut contradiction, i, false);
                    }
                }
                (GateKind::Not, true) => {
                    add(
                        &mut pos,
                        &mut neg,
                        &mut queue,
                        &mut contradiction,
                        gf.inputs[0],
                        false,
                    );
                }
                (GateKind::Not, false) => {
                    add(
                        &mut pos,
                        &mut neg,
                        &mut queue,
                        &mut contradiction,
                        gf.inputs[0],
                        true,
                    );
                }
                (GateKind::Const0, true) | (GateKind::Const1, false) => contradiction = true,
                _ => {}
            }
        }
        if contradiction {
            break;
        }
        // Fixpoint pass for XOR/XNOR gates whose second input value arrived
        // after the output fact was first processed.
        let val_of = |pos: &Vec<Var>, neg: &Vec<Var>, w: Var| {
            if pos.contains(&w) {
                Some(true)
            } else if neg.contains(&w) {
                Some(false)
            } else {
                None
            }
        };
        let mut derived: Vec<(Var, bool)> = Vec::new();
        for (facts, out_val) in [(&pos, true), (&neg, false)] {
            for &u in facts.iter() {
                let Some(gf) = &gfs[u.index()] else { continue };
                if gf.inputs.len() != 2 {
                    continue;
                }
                let parity = match gf.kind {
                    // out = a ⊕ b: a = out ⊕ b.
                    GateKind::Xor => out_val,
                    // out = ¬(a ⊕ b): a = ¬out ⊕ b.
                    GateKind::Xnor => !out_val,
                    _ => continue,
                };
                let (a, b) = (gf.inputs[0], gf.inputs[1]);
                for (known, unknown) in [(a, b), (b, a)] {
                    if let Some(kv) = val_of(&pos, &neg, known) {
                        if val_of(&pos, &neg, unknown).is_none() {
                            derived.push((unknown, parity ^ kv));
                        }
                    }
                }
            }
        }
        for (w, val) in derived {
            add(&mut pos, &mut neg, &mut queue, &mut contradiction, w, val);
        }
        if queue.is_empty() {
            break;
        }
    }
    (pos, neg, contradiction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmv_netlist::Netlist;
    use gbmv_poly::Int;

    /// A tiny parallel-prefix carry structure: X = a^b, D = a&b, N = a nor b.
    fn xd_netlist() -> (Netlist, Var, Var, Var, Var, Var) {
        let mut nl = Netlist::new("xd");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.xor2(a, b, "x");
        let d = nl.and2(a, b, "d");
        let n = nl.add_gate(GateKind::Nor, &[a, b], "n");
        let z = nl.or2(x, d, "z");
        let z2 = nl.or2(z, n, "z2");
        nl.add_output("z2", z2);
        (nl.clone(), Var(a.0), Var(b.0), Var(x.0), Var(d.0), Var(n.0))
    }

    #[test]
    fn xor_and_monomial_vanishes() {
        let (nl, _a, _b, x, d, _n) = xd_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let tracker = VanishingTracker::new(&model);
        assert!(tracker.monomial_vanishes(&Monomial::from_vars(vec![x, d])));
        assert!(!tracker.monomial_vanishes(&Monomial::from_vars(vec![x])));
        assert!(!tracker.monomial_vanishes(&Monomial::from_vars(vec![d])));
    }

    /// The tracker applies both forms of the XOR-AND rule and nothing else:
    /// the inlined form `x·a·b` vanishes, the NOR product `x·n` does not.
    #[test]
    fn extended_rules_only_when_enabled() {
        let (nl, a, b, x, _d, n) = xd_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let tracker = VanishingTracker::new(&model);
        assert!(tracker.monomial_vanishes(&Monomial::from_vars(vec![x, a, b])));
        assert!(!tracker.monomial_vanishes(&Monomial::from_vars(vec![x, n])));
    }

    #[test]
    fn apply_removes_and_counts() {
        let (nl, a, _b, x, d, _n) = xd_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let tracker = VanishingTracker::new(&model);
        let mut p = Polynomial::from_terms(vec![
            (Monomial::from_vars(vec![x, d]), Int::from(7)),
            (Monomial::from_vars(vec![x, d, a]), Int::from(-3)),
            (Monomial::from_vars(vec![x, a]), Int::from(5)),
        ]);
        let removed = tracker.apply(&mut p);
        assert_eq!(removed, 2);
        assert_eq!(p.num_terms(), 1);
        assert_eq!(p.coeff(&Monomial::from_vars(vec![x, a])), Int::from(5));
    }

    #[test]
    fn vanishing_is_semantically_sound() {
        // Exhaustively check that monomials flagged as vanishing indeed
        // evaluate to zero under every consistent circuit assignment.
        let (nl, a, b, x, d, n) = xd_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let tracker = VanishingTracker::new(&model);
        let candidates = [
            Monomial::from_vars(vec![x, d]),
            Monomial::from_vars(vec![x, a, b]),
            Monomial::from_vars(vec![x, d, n]),
        ];
        for m in &candidates {
            assert!(tracker.monomial_vanishes(m));
            for pattern in 0..4u32 {
                let av = pattern & 1 == 1;
                let bv = pattern & 2 != 0;
                let assignment = |v: Var| {
                    if v == a {
                        av
                    } else if v == b {
                        bv
                    } else if v == x {
                        av ^ bv
                    } else if v == d {
                        av && bv
                    } else if v == n {
                        !(av || bv)
                    } else {
                        false
                    }
                };
                assert!(
                    !m.eval_bool(&assignment),
                    "monomial {m} flagged as vanishing but evaluates to 1"
                );
            }
        }
    }

    /// A full adder exactly as `gbmv_genmul` builds it: `x = a⊕b`,
    /// `sum = x⊕c`, `d = a∧b`, `t = x∧c`, `carry = d∨t`.
    fn full_adder_netlist() -> (Netlist, [Var; 8]) {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.xor2(a, b, "x");
        let sum = nl.xor2(x, c, "sum");
        let d = nl.and2(a, b, "d");
        let t = nl.and2(x, c, "t");
        let carry = nl.or2(d, t, "carry");
        nl.add_output("sum", sum);
        nl.add_output("carry", carry);
        let vars = [a, b, c, x, sum, d, t, carry].map(|n| Var(n.0));
        (nl, vars)
    }

    #[test]
    fn closure_catches_the_full_adder_carry_product() {
        // `t·d` is created by every carry OR expansion (`carry = d + t - dt`)
        // and is the dominant vanishing pattern in adder trees: t forces
        // x = a⊕b to 1 while d forces both a and b to 1.
        let (nl, [a, b, c, x, _sum, d, t, _carry]) = full_adder_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let closure = ClosureVanishing::new(&model);
        let mut s = closure.scratch();
        assert!(closure.vanishes(&Monomial::from_vars(vec![t, d]), &mut s));
        // The fixed-pattern tracker misses it: t and d share no direct pair.
        let tracker = VanishingTracker::new(&model);
        assert!(!tracker.monomial_vanishes(&Monomial::from_vars(vec![t, d])));
        // 3-input XOR chain: sum = (a⊕b)⊕c with both of x's inputs forced.
        assert!(closure.vanishes(&Monomial::from_vars(vec![_sum, x, c]), &mut s));
        // Non-vanishing products stay.
        assert!(!closure.vanishes(&Monomial::from_vars(vec![t, a]), &mut s));
        assert!(!closure.vanishes(&Monomial::from_vars(vec![d, c]), &mut s));
        assert!(!closure.vanishes(&Monomial::from_vars(vec![a, b, c]), &mut s));
    }

    #[test]
    fn closure_rest_union_queries_match_full_queries() {
        let (nl, [a, b, _c, x, _sum, d, t, carry]) = full_adder_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let closure = ClosureVanishing::new(&model);
        let mut s = closure.scratch();
        let mut s2 = closure.scratch();
        let rest = Monomial::from_vars(vec![t]);
        assert!(!closure.set_rest(&rest, &mut s));
        for tm in [
            Monomial::from_vars(vec![d]),
            Monomial::from_vars(vec![a]),
            Monomial::from_vars(vec![a, b]),
            Monomial::from_vars(vec![carry]),
            Monomial::from_vars(vec![x]),
        ] {
            assert_eq!(
                closure.rest_union_vanishes(&tm, &mut s),
                closure.vanishes(&tm.mul(&rest), &mut s2),
                "union query diverges for {tm}"
            );
        }
    }

    #[test]
    fn closure_catches_complement_pairs() {
        let mut nl = Netlist::new("inv");
        let a = nl.add_input("a");
        let q = nl.add_gate(GateKind::Not, &[a], "q");
        let r = nl.add_gate(GateKind::Not, &[q], "r");
        let z = nl.or2(q, r, "z");
        nl.add_output("z", z);
        let (a, q, r) = (Var(a.0), Var(q.0), Var(r.0));
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let closure = ClosureVanishing::new(&model);
        let mut s = closure.scratch();
        // q = ¬a, r = ¬q = a: q·a and q·r are contradictory.
        assert!(closure.vanishes(&Monomial::from_vars(vec![q, a]), &mut s));
        assert!(closure.vanishes(&Monomial::from_vars(vec![q, r]), &mut s));
        assert!(!closure.vanishes(&Monomial::from_vars(vec![r, a]), &mut s));
    }

    /// The closure flags both forms of the XOR-AND rule and the NOR product
    /// `x·n`, and, through `a` and `b`, also `d·n`: `d` forces both inputs
    /// to 1, `n` forces both to 0.
    #[test]
    fn closure_subsumes_the_fixed_patterns_in_depth_one_mode() {
        let (nl, a, b, x, d, n) = xd_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let closure = ClosureVanishing::new(&model);
        let mut s = closure.scratch();
        assert!(closure.vanishes(&Monomial::from_vars(vec![x, d]), &mut s));
        assert!(closure.vanishes(&Monomial::from_vars(vec![x, a, b]), &mut s));
        assert!(closure.vanishes(&Monomial::from_vars(vec![x, n]), &mut s));
        assert!(closure.vanishes(&Monomial::from_vars(vec![d, n]), &mut s));
        assert!(!closure.vanishes(&Monomial::from_vars(vec![x, a]), &mut s));
    }

    #[test]
    fn closure_vanishing_is_semantically_sound() {
        // Every monomial the closure index flags must evaluate to zero
        // under every consistent assignment of the full adder's inputs —
        // checked exhaustively over all monomials of degree ≤ 3 and all
        // 8 input patterns.
        let (nl, vars) = full_adder_netlist();
        let [a, b, c, ..] = vars;
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let closure = ClosureVanishing::new(&model);
        let mut s = closure.scratch();
        let mut flagged = 0u32;
        for i in 0..vars.len() {
            for j in i..vars.len() {
                for k in j..vars.len() {
                    let m = Monomial::from_vars(vec![vars[i], vars[j], vars[k]]);
                    if !closure.vanishes(&m, &mut s) {
                        continue;
                    }
                    flagged += 1;
                    for pattern in 0..8u32 {
                        let (av, bv, cv) = (pattern & 1 == 1, pattern & 2 != 0, pattern & 4 != 0);
                        let xv = av ^ bv;
                        let assignment = |v: Var| {
                            [
                                av,
                                bv,
                                cv,
                                xv,
                                xv ^ cv,
                                av && bv,
                                xv && cv,
                                (av && bv) || (xv && cv),
                            ][vars.iter().position(|&u| u == v).unwrap()]
                        };
                        assert!(
                            !m.eval_bool(&assignment),
                            "monomial {m} flagged as vanishing but evaluates to 1 \
                             at a={av} b={bv} c={cv}"
                        );
                    }
                }
            }
        }
        // The index does flag real patterns (t·d among them), and inputs
        // alone are never flagged.
        assert!(flagged > 0);
        assert!(!closure.vanishes(&Monomial::from_vars(vec![a, b, c]), &mut s));
    }
}

use std::sync::{Arc, OnceLock};

use gbmv_netlist::{analysis, GateKind, NetId, Netlist};
use gbmv_poly::{FastMap, FastSet, Int, Monomial, Polynomial, Var};

use crate::vanishing::{ClosureVanishing, VanishingTracker};

/// Why model extraction (Step 1 of the MT algorithm) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The netlist contains a combinational cycle; the gate polynomials of
    /// the named nets cannot be ordered reverse-topologically, so the model
    /// would not be a Gröbner basis.
    CombinationalCycle {
        /// Names of the nets stuck on (or fed only through) a cycle, in net
        /// declaration order, truncated to the first 16.
        nets: Vec<String>,
    },
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::CombinationalCycle { nets } => {
                write!(
                    f,
                    "netlist contains a combinational cycle through: {}",
                    nets.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for ExtractError {}

/// The structural definition of a gate, kept alongside the algebraic model so
/// that the XOR-AND vanishing rule can recognise monomials that always
/// evaluate to zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateFunction {
    /// The gate kind driving the variable.
    pub kind: GateKind,
    /// The gate input variables, sorted by index.
    pub inputs: Vec<Var>,
}

/// The facts of a circuit that Step 1 fixes and no run changes, in dense
/// tables indexed by [`Var::index`]. Every clone of a model shares one.
#[derive(Debug)]
struct Circuit {
    /// Gate-output variables in ascending topological order (inputs side
    /// first). The reverse is the substitution order of the GB reduction.
    topo_order: Vec<Var>,
    /// Logic level per variable.
    levels: Vec<usize>,
    /// The structural definition of the gate driving each variable; `None`
    /// for primary inputs and undriven nets.
    gate_functions: Vec<Option<GateFunction>>,
    /// Primary input variables in declaration order.
    inputs: Vec<Var>,
    /// Primary output variables in declaration order.
    outputs: Vec<Var>,
    /// Whether each variable is a primary input; queried once per candidate
    /// variable in the rewrite inner loop.
    is_input: Vec<bool>,
    /// Whether each variable is a primary output.
    is_output: Vec<bool>,
    /// Fanout count per variable (from the original netlist).
    fanout: Vec<usize>,
    /// Output-column support mask per variable: bit `min(j, 63)` is set
    /// when the variable lies in the backward cone of primary output `j`.
    /// Drives the indexed engines' column-weight substitution order and
    /// their column-retirement accounting.
    column_masks: Vec<u64>,
    /// Net names, for diagnostics.
    names: Vec<String>,
    /// The closure vanishing index over the gate functions, built on first
    /// use and then shared by every phase of every run.
    closure: OnceLock<Arc<ClosureVanishing>>,
    /// The XOR-AND pattern tracker over the gate functions, built and
    /// shared the same way.
    tracker: OnceLock<Arc<VanishingTracker>>,
}

/// The algebraic (Gröbner basis) model of a circuit.
///
/// Every net of the netlist becomes a variable; every gate becomes a
/// polynomial `g := -z + tail(g)` where `z` is the gate output variable and
/// `tail(g)` expresses the gate function over its input variables. With the
/// variables ordered by reverse topological level the leading monomials of
/// all polynomials are single distinct variables — relatively prime — so the
/// model is a Gröbner basis by construction (Definition 2 of the paper).
///
/// The model stores only the tails; the leading term `-z` is implicit. This
/// makes substitution (`Spoly` against a polynomial of this shape) a simple
/// call to [`Polynomial::substitute`].
///
/// Only the tails change after extraction. Everything else — the
/// topological order, levels, gate functions, input/output flags, fanout,
/// output-column masks, names and the closure vanishing index — belongs to
/// one immutable circuit that every clone shares, so cloning a model copies
/// only its tails.
#[derive(Debug, Clone)]
pub struct AlgebraicModel {
    circuit: Arc<Circuit>,
    /// Tail polynomial per variable: `Some` for a gate output whose
    /// polynomial is still in the model.
    tails: Vec<Option<Polynomial>>,
}

impl AlgebraicModel {
    /// Extracts the algebraic model from a netlist (Step 1 of the MT
    /// algorithm).
    ///
    /// Returns [`ExtractError::CombinationalCycle`] if the netlist contains a
    /// combinational cycle (a cyclic model has no reverse-topological
    /// variable order and therefore is not a Gröbner basis by construction).
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, ExtractError> {
        let order = analysis::topological_order_or_cycle(netlist).map_err(|stuck| {
            ExtractError::CombinationalCycle {
                nets: stuck
                    .iter()
                    .take(16)
                    .map(|&n| netlist.net_name(n).to_string())
                    .collect(),
            }
        })?;
        let var_count = netlist.net_count();
        let mut levels = vec![0; var_count];
        let mut gate_functions = vec![None; var_count];
        let mut tails = vec![None; var_count];
        let mut topo_order = Vec::with_capacity(netlist.gate_count());
        for net in order {
            let Some(gate) = netlist.driver(net) else {
                continue;
            };
            let out = Var(net.0);
            let mut inputs: Vec<Var> = gate.inputs.iter().map(|n| Var(n.0)).collect();
            levels[out.index()] = inputs
                .iter()
                .map(|u| levels[u.index()] + 1)
                .max()
                .unwrap_or(0);
            tails[out.index()] = Some(gate_tail(gate.kind, &inputs));
            inputs.sort_unstable();
            gate_functions[out.index()] = Some(GateFunction {
                kind: gate.kind,
                inputs,
            });
            topo_order.push(out);
        }
        let inputs: Vec<Var> = netlist.inputs().iter().map(|n| Var(n.0)).collect();
        let outputs: Vec<Var> = netlist.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let mut is_input = vec![false; var_count];
        for v in &inputs {
            is_input[v.index()] = true;
        }
        let mut is_output = vec![false; var_count];
        let mut column_masks = vec![0u64; var_count];
        for (j, v) in outputs.iter().enumerate() {
            is_output[v.index()] = true;
            column_masks[v.index()] |= 1 << j.min(63);
        }
        // `v` lies in the fan-in cone of output `j` exactly when `j` is
        // reachable from `v`. In reverse topological order each gate's mask
        // is final before it passes to the gate's inputs.
        for &v in topo_order.iter().rev() {
            let mask = column_masks[v.index()];
            for u in gate_functions[v.index()].iter().flat_map(|g| &g.inputs) {
                column_masks[u.index()] |= mask;
            }
        }
        let names = (0..var_count)
            .map(|i| netlist.net_name(NetId(i as u32)).to_string())
            .collect();
        let circuit = Circuit {
            topo_order,
            levels,
            gate_functions,
            inputs,
            outputs,
            is_input,
            is_output,
            fanout: analysis::fanout_counts(netlist),
            column_masks,
            names,
            closure: OnceLock::new(),
            tracker: OnceLock::new(),
        };
        Ok(AlgebraicModel {
            circuit: Arc::new(circuit),
            tails,
        })
    }

    /// Evaluates the circuit on a concrete input assignment by evaluating the
    /// gate tails in topological order, returning the primary output values
    /// in declaration order.
    ///
    /// On a pristine (unrewritten) model this reproduces the netlist
    /// simulation semantics; it is what grounds counterexamples without
    /// keeping the netlist alive. On a (fully) rewritten model the result is
    /// unchanged because substitution preserves the circuit function.
    pub fn evaluate(&self, assignment: &impl Fn(Var) -> bool) -> Vec<bool> {
        let mut values = vec![false; self.var_count()];
        for &v in &self.circuit.inputs {
            values[v.index()] = assignment(v);
        }
        for &v in &self.circuit.topo_order {
            if let Some(tail) = self.tail(v) {
                values[v.index()] = !tail.eval_bool(&|u: Var| values[u.index()]).is_zero();
            }
        }
        self.circuit
            .outputs
            .iter()
            .map(|o| values[o.index()])
            .collect()
    }

    /// The output-column support mask of `v`: bit `min(j, 63)` is set when
    /// `v` lies in the backward (fan-in) cone of primary output `j`, in
    /// declaration order (0 for variables outside the model). Outputs
    /// beyond 63 saturate onto bit 63.
    ///
    /// The indexed engines use the masks two ways: the substitution order
    /// prefers variables that only reach low output columns (their terms
    /// retire into the input-only accumulator sooner), and a column counts
    /// as retired once every tracked variable carrying its bit has been
    /// substituted.
    pub fn column_mask(&self, v: Var) -> u64 {
        self.circuit
            .column_masks
            .get(v.index())
            .copied()
            .unwrap_or(0)
    }

    /// The tail polynomial of the gate polynomial whose leading variable is
    /// `v`, if `v` is a gate output still present in the model.
    pub fn tail(&self, v: Var) -> Option<&Polynomial> {
        self.tails.get(v.index()).and_then(Option::as_ref)
    }

    /// Replaces the tail polynomial of `v`. Used by the rewriting schemes.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a variable of the model
    /// (`v.index() >= self.var_count()`).
    pub fn set_tail(&mut self, v: Var, tail: Polynomial) {
        self.tails[v.index()] = Some(tail);
    }

    /// Removes the polynomial with leading variable `v` from the model
    /// (`UpdateModel` in Algorithm 2). Returns `true` if it was present.
    pub fn remove(&mut self, v: Var) -> bool {
        self.tails
            .get_mut(v.index())
            .and_then(Option::take)
            .is_some()
    }

    /// The tails still present in the model.
    fn present_tails(&self) -> impl Iterator<Item = &Polynomial> {
        self.tails.iter().flatten()
    }

    /// The number of polynomials currently in the model (`#P` of Table III).
    pub fn num_polynomials(&self) -> usize {
        self.present_tails().count()
    }

    /// The total number of monomials over all tails (`#M` of Table III,
    /// counting the implicit leading terms as well).
    pub fn num_monomials(&self) -> usize {
        self.present_tails().map(|p| p.num_terms() + 1).sum()
    }

    /// The maximum number of monomials of any polynomial (`#MP`).
    pub fn max_polynomial_terms(&self) -> usize {
        self.present_tails()
            .map(|p| p.num_terms() + 1)
            .max()
            .unwrap_or(0)
    }

    /// The maximum number of variables in any monomial (`#VM`).
    pub fn max_monomial_vars(&self) -> usize {
        self.present_tails()
            .map(|p| p.max_degree())
            .max()
            .unwrap_or(0)
    }

    /// Gate-output variables in ascending topological order, restricted to
    /// polynomials still present in the model.
    pub fn polynomial_order(&self) -> Vec<Var> {
        self.circuit
            .topo_order
            .iter()
            .copied()
            .filter(|&v| self.tail(v).is_some())
            .collect()
    }

    /// Every gate of the circuit as an `(output, function)` pair, in
    /// ascending topological order, whether or not its polynomial is still
    /// in the model.
    pub(crate) fn gates(&self) -> impl DoubleEndedIterator<Item = (Var, &GateFunction)> {
        self.circuit
            .topo_order
            .iter()
            .filter_map(|&v| Some((v, self.circuit.gate_functions[v.index()].as_ref()?)))
    }

    /// The substitution order of the GB reduction: present polynomials in
    /// *reverse* topological order (outputs first), which together with the
    /// relatively-prime leading monomials realises the division of the
    /// specification polynomial (Algorithm 1 of the paper).
    pub fn substitution_order(&self) -> Vec<Var> {
        let mut order = self.polynomial_order();
        order.reverse();
        order
    }

    /// The logic level of a variable (0 for primary inputs and for
    /// variables outside the model).
    pub fn level(&self, v: Var) -> usize {
        self.circuit.levels.get(v.index()).copied().unwrap_or(0)
    }

    /// The number of variable slots of the model (one per net of the source
    /// netlist); variable indices are strictly below this bound. Used to size
    /// dense per-variable tables (levels, occurrence counts).
    pub fn var_count(&self) -> usize {
        self.tails.len()
    }

    /// Primary input variables in declaration order.
    pub fn inputs(&self) -> &[Var] {
        &self.circuit.inputs
    }

    /// Primary output variables in declaration order.
    pub fn outputs(&self) -> &[Var] {
        &self.circuit.outputs
    }

    /// Returns `true` if `v` is a primary input.
    #[inline]
    pub fn is_input(&self, v: Var) -> bool {
        self.circuit.is_input.get(v.index()) == Some(&true)
    }

    /// Returns `true` if `v` is a primary output.
    #[inline]
    pub fn is_output(&self, v: Var) -> bool {
        self.circuit.is_output.get(v.index()) == Some(&true)
    }

    /// The structural gate definition of every variable, indexed by
    /// [`Var::index`]: `None` for primary inputs and undriven nets. The
    /// vanishing rules are built from it.
    pub fn gate_functions(&self) -> &[Option<GateFunction>] {
        &self.circuit.gate_functions
    }

    /// The closure vanishing index over the circuit's gate functions: built
    /// by the first call, then shared by every clone of the model.
    pub(crate) fn closure_vanishing(&self) -> Arc<ClosureVanishing> {
        Arc::clone(
            self.circuit
                .closure
                .get_or_init(|| Arc::new(ClosureVanishing::new(self))),
        )
    }

    /// The XOR-AND pattern tracker over the circuit's gate functions: built
    /// by the first call, then shared by every clone of the model, so the
    /// two phases of a run build it once.
    pub(crate) fn vanishing_tracker(&self) -> Arc<VanishingTracker> {
        Arc::clone(
            self.circuit
                .tracker
                .get_or_init(|| Arc::new(VanishingTracker::new(self))),
        )
    }

    /// The net name of a variable (for diagnostics), or `"<outside the
    /// model>"` for a variable outside the model.
    pub fn name(&self, v: Var) -> &str {
        self.circuit
            .names
            .get(v.index())
            .map_or("<outside the model>", String::as_str)
    }

    /// The set of variables that have fanout greater than one, plus primary
    /// inputs and outputs: the keep-set of *fanout rewriting* (MT-FO).
    pub fn fanout_keep_set(&self) -> FastSet<Var> {
        let mut set: FastSet<Var> = self
            .circuit
            .topo_order
            .iter()
            .copied()
            .filter(|v| self.circuit.fanout[v.index()] > 1)
            .collect();
        set.extend(self.inputs().iter().copied());
        set.extend(self.outputs().iter().copied());
        set
    }

    /// The set of variables that are inputs or outputs of XOR (or XNOR)
    /// gates, plus primary inputs and outputs: the keep-set of *XOR
    /// rewriting*.
    pub fn xor_keep_set(&self) -> FastSet<Var> {
        let mut set = FastSet::default();
        for (out, gf) in self.gates() {
            if matches!(gf.kind, GateKind::Xor | GateKind::Xnor) {
                set.insert(out);
                set.extend(gf.inputs.iter().copied());
            }
        }
        set.extend(self.inputs().iter().copied());
        set.extend(self.outputs().iter().copied());
        set
    }

    /// The set of variables used in more than one polynomial of the current
    /// model, plus primary inputs and outputs: the keep-set of *common
    /// rewriting*.
    pub fn common_keep_set(&self) -> FastSet<Var> {
        let mut counts: FastMap<Var, usize> = FastMap::default();
        for tail in self.present_tails() {
            for v in tail.vars() {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        let mut set: FastSet<Var> = counts
            .into_iter()
            .filter(|&(_, c)| c > 1)
            .map(|(v, _)| v)
            .collect();
        set.extend(self.inputs().iter().copied());
        set.extend(self.outputs().iter().copied());
        set
    }

    /// Renders a polynomial using net names, convenient for debugging and for
    /// reproducing the paper's worked examples. A variable outside the model
    /// prints as [`Var`]'s own `x<index>`.
    pub fn render(&self, p: &Polynomial) -> String {
        p.display_with(|v| match self.circuit.names.get(v.index()) {
            Some(name) => name.clone(),
            None => v.to_string(),
        })
    }
}

/// The tail polynomial of a gate: `z = f(inputs)` is modeled as
/// `g := -z + tail`, and this returns `tail` such that `tail` evaluates to
/// `f(inputs)` over the Boolean domain.
pub(crate) fn gate_tail(kind: GateKind, inputs: &[Var]) -> Polynomial {
    match kind {
        GateKind::Buf => Polynomial::var(inputs[0]),
        GateKind::Not => &Polynomial::constant(Int::one()) - &Polynomial::var(inputs[0]),
        GateKind::And => Polynomial::from_terms(vec![(
            Monomial::from_vars(inputs.iter().copied()),
            Int::one(),
        )]),
        GateKind::Nand => {
            &Polynomial::constant(Int::one())
                - &Polynomial::from_terms(vec![(
                    Monomial::from_vars(inputs.iter().copied()),
                    Int::one(),
                )])
        }
        GateKind::Or => {
            // 1 - prod(1 - x_i)
            let mut prod = Polynomial::constant(Int::one());
            for &v in inputs {
                let factor = &Polynomial::constant(Int::one()) - &Polynomial::var(v);
                prod = &prod * &factor;
            }
            &Polynomial::constant(Int::one()) - &prod
        }
        GateKind::Nor => {
            let mut prod = Polynomial::constant(Int::one());
            for &v in inputs {
                let factor = &Polynomial::constant(Int::one()) - &Polynomial::var(v);
                prod = &prod * &factor;
            }
            prod
        }
        GateKind::Xor => {
            let mut acc = Polynomial::zero();
            for &v in inputs {
                // acc = acc + v - 2*acc*v
                let pv = Polynomial::var(v);
                let cross = &(&acc * &pv) * &Polynomial::constant(Int::from(-2));
                acc = &(&acc + &pv) + &cross;
            }
            acc
        }
        GateKind::Xnor => {
            let mut acc = Polynomial::zero();
            for &v in inputs {
                let pv = Polynomial::var(v);
                let cross = &(&acc * &pv) * &Polynomial::constant(Int::from(-2));
                acc = &(&acc + &pv) + &cross;
            }
            &Polynomial::constant(Int::one()) - &acc
        }
        GateKind::Const0 => Polynomial::zero(),
        GateKind::Const1 => Polynomial::constant(Int::one()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{IndexedLogicReductionRewrite, PhaseContext, RewriteStrategy};
    use gbmv_genmul::{build_adder, AdderKind, MultiplierSpec};
    use gbmv_netlist::Netlist;

    fn eval_tail(kind: GateKind, values: &[bool]) -> Int {
        let vars: Vec<Var> = (0..values.len() as u32).map(Var).collect();
        let tail = gate_tail(kind, &vars);
        tail.eval_bool(&|v: Var| values[v.index()])
    }

    #[test]
    fn gate_tails_match_gate_semantics() {
        for kind in [
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xnor,
        ] {
            for pattern in 0..4u32 {
                let values = [pattern & 1 == 1, pattern & 2 != 0];
                let expected = kind.eval(&values);
                let got = eval_tail(kind, &values);
                assert_eq!(
                    got,
                    Int::from(expected as i64),
                    "{kind:?} tail mismatch on {values:?}"
                );
            }
        }
        for kind in [GateKind::Not, GateKind::Buf] {
            for v in [false, true] {
                assert_eq!(eval_tail(kind, &[v]), Int::from(kind.eval(&[v]) as i64));
            }
        }
        assert_eq!(eval_tail(GateKind::Const0, &[]), Int::zero());
        assert_eq!(eval_tail(GateKind::Const1, &[]), Int::one());
    }

    #[test]
    fn three_input_gate_tails() {
        for kind in [GateKind::And, GateKind::Or, GateKind::Xor] {
            for pattern in 0..8u32 {
                let values = [pattern & 1 == 1, pattern & 2 != 0, pattern & 4 != 0];
                assert_eq!(
                    eval_tail(kind, &values),
                    Int::from(kind.eval(&values) as i64),
                    "{kind:?} on {values:?}"
                );
            }
        }
    }

    fn full_adder_netlist() -> Netlist {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let x = nl.xor2(a, b, "x");
        let s = nl.xor2(x, cin, "s");
        let d = nl.and2(a, b, "d");
        let t = nl.and2(x, cin, "t");
        let c = nl.or2(d, t, "c");
        nl.add_output("s", s);
        nl.add_output("c", c);
        nl
    }

    #[test]
    fn model_extraction_full_adder() {
        let nl = full_adder_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        assert_eq!(model.num_polynomials(), 5);
        assert_eq!(model.inputs().len(), 3);
        assert_eq!(model.outputs().len(), 2);
        // The XOR gate x = a ^ b has tail a + b - 2ab.
        let x = Var(nl.find_net("x").unwrap().0);
        let tail = model.tail(x).unwrap();
        assert_eq!(tail.num_terms(), 3);
        // Substitution order lists the carry (deepest gate) first.
        let order = model.substitution_order();
        let c = Var(nl.find_net("c").unwrap().0);
        assert_eq!(order[0], c);
        // Leading variables are distinct gate outputs: Gröbner basis by
        // construction.
        let set: std::collections::HashSet<Var> = order.iter().copied().collect();
        assert_eq!(set.len(), order.len());
    }

    #[test]
    fn keep_sets_full_adder() {
        let nl = full_adder_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let x = Var(nl.find_net("x").unwrap().0);
        let a = Var(nl.find_net("a").unwrap().0);
        // x (the a^b XOR) has fanout 2, inputs/outputs always kept.
        let fanout = model.fanout_keep_set();
        assert!(fanout.contains(&x));
        assert!(fanout.contains(&a));
        let d = Var(nl.find_net("d").unwrap().0);
        assert!(!fanout.contains(&d), "single-fanout AND must not be kept");
        // XOR keep set contains the XOR gates, their inputs, and the PIs/POs.
        let xor = model.xor_keep_set();
        assert!(xor.contains(&x));
        let cin = Var(nl.find_net("cin").unwrap().0);
        assert!(xor.contains(&cin));
        assert!(!xor.contains(&d));
    }

    #[test]
    fn model_statistics_are_consistent() {
        let nl = full_adder_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        assert!(model.num_monomials() >= model.num_polynomials());
        assert!(model.max_polynomial_terms() <= model.num_monomials());
        assert!(model.max_monomial_vars() >= 2);
        assert_eq!(model.level(Var(nl.find_net("a").unwrap().0)), 0);
        assert!(model.level(Var(nl.find_net("c").unwrap().0)) >= 2);
    }

    #[test]
    fn render_uses_net_names() {
        let nl = full_adder_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let x = Var(nl.find_net("x").unwrap().0);
        let rendered = model.render(model.tail(x).unwrap());
        assert!(rendered.contains('a') && rendered.contains('b'));
    }

    /// Checks the one-pass extraction against the netlist's own analyses:
    /// each column mask is the OR of `1 << min(j, 63)` over the outputs `j`
    /// whose fan-in cone holds the variable, and each level is
    /// `analysis::logic_levels`'s.
    fn assert_matches_netlist_analyses(netlist: &Netlist) {
        let model = AlgebraicModel::from_netlist(netlist).unwrap();
        let levels = analysis::logic_levels(netlist);
        let mut masks = vec![0u64; netlist.net_count()];
        for (j, &(_, out)) in netlist.outputs().iter().enumerate() {
            for net in analysis::fanin_cone(netlist, &[out]) {
                masks[net.index()] |= 1 << j.min(63);
            }
        }
        assert_eq!(model.var_count(), netlist.net_count());
        for i in 0..netlist.net_count() {
            let (v, name) = (Var(i as u32), netlist.net_name(NetId(i as u32)));
            let design = netlist.name();
            assert_eq!(model.column_mask(v), masks[i], "{design}: mask of {name}");
            assert_eq!(model.level(v), levels[i], "{design}: level of {name}");
        }
    }

    /// Every genmul architecture at width 4, the paper's ten at width 8,
    /// and an adder with 70 outputs, whose masks saturate onto bit 63.
    #[test]
    fn one_pass_extraction_matches_the_netlist_cones_and_levels() {
        for pp in gbmv_genmul::PartialProduct::all() {
            for acc in gbmv_genmul::Accumulator::all() {
                for fsa in gbmv_genmul::FinalAdder::all() {
                    assert_matches_netlist_analyses(&MultiplierSpec::new(4, pp, acc, fsa).build());
                }
            }
        }
        for arch in [
            "SP-AR-RC", "SP-WT-CL", "SP-RT-KS", "SP-CT-BK", "SP-DT-HC", "BP-AR-RC", "BP-WT-CL",
            "BP-RT-KS", "BP-CT-BK", "BP-DT-HC",
        ] {
            assert_matches_netlist_analyses(&MultiplierSpec::parse(arch, 8).unwrap().build());
        }
        let wide = build_adder(69, AdderKind::KoggeStone, false);
        assert_eq!(wide.outputs().len(), 70);
        assert_matches_netlist_analyses(&wide);
    }

    /// A hand-built 2-bit multiplier: s0 = a0·b0, s1/s2 from the cross terms.
    fn two_bit_multiplier() -> Netlist {
        let mut nl = Netlist::new("mul2");
        let a0 = nl.add_input("a0");
        let a1 = nl.add_input("a1");
        let b0 = nl.add_input("b0");
        let b1 = nl.add_input("b1");
        let p00 = nl.and2(a0, b0, "p00");
        let p01 = nl.and2(a0, b1, "p01");
        let p10 = nl.and2(a1, b0, "p10");
        let p11 = nl.and2(a1, b1, "p11");
        let s1 = nl.xor2(p01, p10, "s1");
        let c1 = nl.and2(p01, p10, "c1");
        let s2 = nl.xor2(p11, c1, "s2");
        let c2 = nl.and2(p11, c1, "c2");
        nl.add_output("s0", p00);
        nl.add_output("s1", s1);
        nl.add_output("s2", s2);
        nl.add_output("s3", c2);
        nl
    }

    #[test]
    fn column_masks_track_output_reach() {
        let nl = two_bit_multiplier();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let mask = |name: &str| model.column_mask(Var(nl.find_net(name).unwrap().0));
        // p00 is the s0 output itself and feeds nothing else.
        assert_eq!(mask("p00"), 0b0001);
        // a0 reaches every output column: s0 directly, s1/s2/s3 via p01.
        assert_eq!(mask("a0"), 0b1111);
        // The first carry c1 feeds s2 and s3 only.
        assert_eq!(mask("c1"), 0b1100);
        // a1 misses only the lowest column.
        assert_eq!(mask("a1"), 0b1110);
        // A variable outside the model reaches no column.
        assert_eq!(model.column_mask(Var(nl.net_count() as u32)), 0);
    }

    /// Clones share the circuit, closure index included, whether the index
    /// was built before or after the clone; a rewrite of a clone changes
    /// only the clone's tails.
    #[test]
    fn clones_share_the_circuit_and_copy_the_tails() {
        let nl = MultiplierSpec::parse("SP-WT-BK", 4).unwrap().build();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let early = model.clone();
        let closure = model.closure_vanishing();
        assert!(Arc::ptr_eq(&closure, &early.closure_vanishing()));
        let mut clone = model.clone();
        assert!(Arc::ptr_eq(&closure, &clone.closure_vanishing()));
        let tails = |m: &AlgebraicModel| -> Vec<Option<Polynomial>> {
            (0..m.var_count() as u32)
                .map(|i| m.tail(Var(i)).cloned())
                .collect()
        };
        let pristine = tails(&model);
        let stats = IndexedLogicReductionRewrite.rewrite(&mut clone, &PhaseContext::default());
        assert_eq!(stats.stop, None);
        assert!(stats.removed_polynomials > 0);
        assert_ne!(tails(&clone), pristine, "the rewrite changed nothing");
        assert_eq!(tails(&model), pristine, "the rewrite reached the original");
        assert_eq!(tails(&early), pristine);
        assert!(Arc::ptr_eq(&closure, &clone.closure_vanishing()));
    }

    /// The per-variable lookups a custom spec can reach answer for a
    /// variable outside the model instead of panicking.
    #[test]
    fn lookups_outside_the_model_are_empty() {
        let nl = full_adder_netlist();
        let mut model = AlgebraicModel::from_netlist(&nl).unwrap();
        let ghost = Var(nl.net_count() as u32);
        assert_eq!(model.tail(ghost), None);
        assert!(!model.is_input(ghost));
        assert!(!model.is_output(ghost));
        assert_eq!(model.column_mask(ghost), 0);
        assert_eq!(model.level(ghost), 0);
        assert_eq!(model.name(ghost), "<outside the model>");
        let a = Var(nl.find_net("a").unwrap().0);
        let p = Polynomial::from_terms(vec![(Monomial::from_vars([a, ghost]), Int::one())]);
        assert_eq!(model.render(&p), format!("a*{ghost}"));
        assert!(!model.remove(ghost));
    }

    /// Clones share one vanishing tracker, built on first use, whether they
    /// were made before or after it.
    #[test]
    fn clones_share_one_vanishing_tracker() {
        let nl = MultiplierSpec::parse("SP-WT-BK", 4).unwrap().build();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let early = model.clone();
        let tracker = model.vanishing_tracker();
        assert!(Arc::ptr_eq(&tracker, &model.vanishing_tracker()));
        assert!(Arc::ptr_eq(&tracker, &early.vanishing_tracker()));
        assert!(Arc::ptr_eq(&tracker, &model.clone().vanishing_tracker()));
    }
}

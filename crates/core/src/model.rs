use gbmv_netlist::{analysis, cone, GateKind, NetId, Netlist};
use gbmv_poly::{FastMap, FastSet, Int, Monomial, Polynomial, Var};

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
#[derive(Debug, Clone)]
pub struct AlgebraicModel {
    /// Tail polynomial per gate-output variable.
    tails: FastMap<Var, Polynomial>,
    /// Gate-output variables in ascending topological order (inputs side
    /// first). The reverse is the substitution order of the GB reduction.
    topo_order: Vec<Var>,
    /// Logic level per variable index.
    levels: Vec<usize>,
    /// Primary input variables.
    inputs: Vec<Var>,
    /// Primary output variables in declaration order.
    outputs: Vec<Var>,
    /// O(1) membership indices over `inputs` / `outputs`; queried once per
    /// candidate variable in the rewrite inner loop.
    input_set: FastSet<Var>,
    output_set: FastSet<Var>,
    /// Fanout count per variable index (from the original netlist).
    fanout: Vec<usize>,
    /// Structural gate definitions for the vanishing rule.
    gate_functions: FastMap<Var, GateFunction>,
    /// Output-column support mask per variable index: bit `min(j, 63)` is
    /// set when the variable lies in the backward cone of primary output
    /// `j`. Drives the indexed engines' column-weight substitution order
    /// and their column-retirement accounting.
    column_reach: Vec<u64>,
    /// Net names, for diagnostics.
    names: Vec<String>,
}

impl AlgebraicModel {
    /// Extracts the algebraic model from a netlist (Step 1 of the MT
    /// algorithm).
    ///
    /// Returns [`ExtractError::CombinationalCycle`] if the netlist contains a
    /// combinational cycle (a cyclic model has no reverse-topological
    /// variable order and therefore is not a Gröbner basis by construction).
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, ExtractError> {
        let order = match analysis::topological_order_or_cycle(netlist) {
            Ok(order) => order,
            Err(stuck) => {
                return Err(ExtractError::CombinationalCycle {
                    nets: stuck
                        .iter()
                        .take(16)
                        .map(|&n| netlist.net_name(n).to_string())
                        .collect(),
                });
            }
        };
        let levels = analysis::logic_levels(netlist);
        let fanout = analysis::fanout_counts(netlist);
        let mut tails = FastMap::default();
        let mut gate_functions = FastMap::default();
        let mut topo_order = Vec::new();
        for net in order {
            if let Some(gate) = netlist.driver(net) {
                let out = Var(net.0);
                let input_vars: Vec<Var> = gate.inputs.iter().map(|n| Var(n.0)).collect();
                tails.insert(out, gate_tail(gate.kind, &input_vars));
                let mut sorted_inputs = input_vars.clone();
                sorted_inputs.sort();
                gate_functions.insert(
                    out,
                    GateFunction {
                        kind: gate.kind,
                        inputs: sorted_inputs,
                    },
                );
                topo_order.push(out);
            }
        }
        let inputs: Vec<Var> = netlist.inputs().iter().map(|n| Var(n.0)).collect();
        let outputs: Vec<Var> = netlist.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let input_set: FastSet<Var> = inputs.iter().copied().collect();
        let output_set: FastSet<Var> = outputs.iter().copied().collect();
        let names = (0..netlist.net_count())
            .map(|i| netlist.net_name(NetId(i as u32)).to_string())
            .collect();
        let column_reach = cone::output_column_masks(netlist);
        Ok(AlgebraicModel {
            tails,
            topo_order,
            levels,
            inputs,
            outputs,
            input_set,
            output_set,
            fanout,
            gate_functions,
            column_reach,
            names,
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
        let mut values = vec![false; self.names.len()];
        for &v in &self.inputs {
            values[v.index()] = assignment(v);
        }
        for &v in &self.topo_order {
            if let Some(tail) = self.tails.get(&v) {
                values[v.index()] = !tail.eval_bool(&|u: Var| values[u.index()]).is_zero();
            }
        }
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// The output-column support mask of `v`: bit `min(j, 63)` is set when
    /// `v` lies in the backward cone of primary output `j` (0 for variables
    /// the extraction never saw). See
    /// [`gbmv_netlist::cone::output_column_masks`].
    pub fn column_mask(&self, v: Var) -> u64 {
        self.column_reach.get(v.index()).copied().unwrap_or(0)
    }

    /// The tail polynomial of the gate polynomial whose leading variable is
    /// `v`, if `v` is a gate output still present in the model.
    pub fn tail(&self, v: Var) -> Option<&Polynomial> {
        self.tails.get(&v)
    }

    /// Replaces the tail polynomial of `v`. Used by the rewriting schemes.
    pub fn set_tail(&mut self, v: Var, tail: Polynomial) {
        self.tails.insert(v, tail);
    }

    /// Removes the polynomial with leading variable `v` from the model
    /// (`UpdateModel` in Algorithm 2). Returns `true` if it was present.
    pub fn remove(&mut self, v: Var) -> bool {
        self.tails.remove(&v).is_some()
    }

    /// The number of polynomials currently in the model (`#P` of Table III).
    pub fn num_polynomials(&self) -> usize {
        self.tails.len()
    }

    /// The total number of monomials over all tails (`#M` of Table III,
    /// counting the implicit leading terms as well).
    pub fn num_monomials(&self) -> usize {
        self.tails.values().map(|p| p.num_terms() + 1).sum()
    }

    /// The maximum number of monomials of any polynomial (`#MP`).
    pub fn max_polynomial_terms(&self) -> usize {
        self.tails
            .values()
            .map(|p| p.num_terms() + 1)
            .max()
            .unwrap_or(0)
    }

    /// The maximum number of variables in any monomial (`#VM`).
    pub fn max_monomial_vars(&self) -> usize {
        self.tails
            .values()
            .map(|p| p.max_degree())
            .max()
            .unwrap_or(0)
    }

    /// Gate-output variables in ascending topological order, restricted to
    /// polynomials still present in the model.
    pub fn polynomial_order(&self) -> Vec<Var> {
        self.topo_order
            .iter()
            .copied()
            .filter(|v| self.tails.contains_key(v))
            .collect()
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

    /// The logic level of a variable (0 for primary inputs).
    pub fn level(&self, v: Var) -> usize {
        self.levels[v.index()]
    }

    /// The number of variable slots of the model (one per net of the source
    /// netlist); variable indices are strictly below this bound. Used to size
    /// dense per-variable tables (levels, occurrence counts).
    pub fn var_count(&self) -> usize {
        self.names.len()
    }

    /// Primary input variables in declaration order.
    pub fn inputs(&self) -> &[Var] {
        &self.inputs
    }

    /// Primary output variables in declaration order.
    pub fn outputs(&self) -> &[Var] {
        &self.outputs
    }

    /// Returns `true` if `v` is a primary input.
    #[inline]
    pub fn is_input(&self, v: Var) -> bool {
        self.input_set.contains(&v)
    }

    /// Returns `true` if `v` is a primary output.
    #[inline]
    pub fn is_output(&self, v: Var) -> bool {
        self.output_set.contains(&v)
    }

    /// All structural gate definitions (used to build the vanishing-rule
    /// index).
    pub fn gate_functions(&self) -> &FastMap<Var, GateFunction> {
        &self.gate_functions
    }

    /// The net name of a variable (for diagnostics).
    pub fn name(&self, v: Var) -> &str {
        &self.names[v.index()]
    }

    /// The set of variables that have fanout greater than one, plus primary
    /// inputs and outputs: the keep-set of *fanout rewriting* (MT-FO).
    pub fn fanout_keep_set(&self) -> FastSet<Var> {
        let mut set: FastSet<Var> = self
            .topo_order
            .iter()
            .copied()
            .filter(|v| self.fanout[v.index()] > 1)
            .collect();
        set.extend(self.inputs.iter().copied());
        set.extend(self.outputs.iter().copied());
        set
    }

    /// The set of variables that are inputs or outputs of XOR (or XNOR)
    /// gates, plus primary inputs and outputs: the keep-set of *XOR
    /// rewriting*.
    pub fn xor_keep_set(&self) -> FastSet<Var> {
        let mut set = FastSet::default();
        for (&out, gf) in &self.gate_functions {
            if matches!(gf.kind, GateKind::Xor | GateKind::Xnor) {
                set.insert(out);
                set.extend(gf.inputs.iter().copied());
            }
        }
        set.extend(self.inputs.iter().copied());
        set.extend(self.outputs.iter().copied());
        set
    }

    /// The set of variables used in more than one polynomial of the current
    /// model, plus primary inputs and outputs: the keep-set of *common
    /// rewriting*.
    pub fn common_keep_set(&self) -> FastSet<Var> {
        let mut counts: FastMap<Var, usize> = FastMap::default();
        for tail in self.tails.values() {
            for v in tail.vars() {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        let mut set: FastSet<Var> = counts
            .into_iter()
            .filter(|&(_, c)| c > 1)
            .map(|(v, _)| v)
            .collect();
        set.extend(self.inputs.iter().copied());
        set.extend(self.outputs.iter().copied());
        set
    }

    /// Renders a polynomial using net names, convenient for debugging and for
    /// reproducing the paper's worked examples.
    pub fn render(&self, p: &Polynomial) -> String {
        p.display_with(|v| self.names[v.index()].clone())
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
}

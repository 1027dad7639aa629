use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::gate::{Gate, GateKind};

/// Identifier of a net (a wire) inside a [`Netlist`].
///
/// Net ids are dense indices assigned in creation order; primary inputs are
/// created first by convention but this is not required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl NetId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors produced while constructing or validating a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate refers to a net id that does not exist.
    UnknownNet(NetId),
    /// A net is driven by more than one gate.
    MultipleDrivers(NetId),
    /// A primary input is also driven by a gate.
    DrivenInput(NetId),
    /// The gate arity does not match its [`GateKind`].
    BadArity {
        /// The offending gate kind.
        kind: GateKind,
        /// The number of inputs that was supplied.
        got: usize,
    },
    /// The netlist contains a combinational cycle.
    CombinationalCycle,
    /// An internal net is neither a primary input nor driven by a gate.
    UndrivenNet(NetId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownNet(n) => write!(f, "unknown net {n}"),
            NetlistError::MultipleDrivers(n) => write!(f, "net {n} has multiple drivers"),
            NetlistError::DrivenInput(n) => write!(f, "primary input {n} is driven by a gate"),
            NetlistError::BadArity { kind, got } => {
                write!(f, "gate {kind} used with {got} inputs")
            }
            NetlistError::CombinationalCycle => write!(f, "netlist contains a combinational cycle"),
            NetlistError::UndrivenNet(n) => write!(f, "net {n} has no driver"),
        }
    }
}

impl Error for NetlistError {}

/// A combinational gate-level circuit.
///
/// A netlist owns a set of nets, a list of gates each driving one net, an
/// ordered list of primary inputs and an ordered list of primary outputs.
/// Output ports have names and refer to (possibly shared) nets.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    gates: Vec<Gate>,
    /// driver[net] = index into `gates` of the gate driving the net.
    driver: Vec<Option<usize>>,
    is_input: Vec<bool>,
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the module.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// The number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The primary inputs in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The primary outputs (name, net) in declaration order.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// All gates in insertion order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Mutable access to the gates (used by fault injection).
    pub(crate) fn gates_mut(&mut self) -> &mut [Gate] {
        &mut self.gates
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// Looks up a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names
            .iter()
            .position(|n| n == name)
            .map(|i| NetId(i as u32))
    }

    /// Returns `true` if the net is a primary input.
    pub fn is_input(&self, net: NetId) -> bool {
        self.is_input[net.index()]
    }

    /// Returns the index of the gate driving `net`, if any.
    pub fn driver(&self, net: NetId) -> Option<&Gate> {
        self.driver[net.index()].map(|i| &self.gates[i])
    }

    /// Creates a fresh unnamed internal net.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.into());
        self.driver.push(None);
        self.is_input.push(false);
        id
    }

    /// Declares a new primary input net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.is_input[id.index()] = true;
        self.inputs.push(id);
        id
    }

    /// Declares an existing net as a primary output under `name`.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Adds a gate driving a freshly created net and returns that net.
    ///
    /// # Panics
    ///
    /// Panics if the gate arity does not match the gate kind (e.g. a `Not`
    /// with two inputs); structural errors involving existing nets are caught
    /// by [`Netlist::validate`].
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId], name: impl Into<String>) -> NetId {
        if let Some(ar) = kind.arity() {
            assert_eq!(
                ar,
                inputs.len(),
                "gate {kind} requires {ar} inputs, got {}",
                inputs.len()
            );
        } else {
            assert!(
                inputs.len() >= 2,
                "gate {kind} requires at least two inputs"
            );
        }
        let out = self.add_net(name);
        let gate_idx = self.gates.len();
        self.gates.push(Gate::new(kind, out, inputs.to_vec()));
        self.driver[out.index()] = Some(gate_idx);
        out
    }

    /// Adds a gate driving an already existing net.
    ///
    /// This is used by the parser, where output nets may be referenced before
    /// their driver is declared.
    pub fn add_gate_driving(
        &mut self,
        kind: GateKind,
        output: NetId,
        inputs: &[NetId],
    ) -> Result<(), NetlistError> {
        if let Some(ar) = kind.arity() {
            if ar != inputs.len() {
                return Err(NetlistError::BadArity {
                    kind,
                    got: inputs.len(),
                });
            }
        } else if inputs.len() < 2 {
            return Err(NetlistError::BadArity {
                kind,
                got: inputs.len(),
            });
        }
        if output.index() >= self.net_count() {
            return Err(NetlistError::UnknownNet(output));
        }
        if self.is_input[output.index()] {
            return Err(NetlistError::DrivenInput(output));
        }
        if self.driver[output.index()].is_some() {
            return Err(NetlistError::MultipleDrivers(output));
        }
        let gate_idx = self.gates.len();
        self.gates.push(Gate::new(kind, output, inputs.to_vec()));
        self.driver[output.index()] = Some(gate_idx);
        Ok(())
    }

    /// Convenience: 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId, name: impl Into<String>) -> NetId {
        self.add_gate(GateKind::Xor, &[a, b], name)
    }

    /// Convenience: 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId, name: impl Into<String>) -> NetId {
        self.add_gate(GateKind::And, &[a, b], name)
    }

    /// Convenience: 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId, name: impl Into<String>) -> NetId {
        self.add_gate(GateKind::Or, &[a, b], name)
    }

    /// Convenience: inverter.
    pub fn not1(&mut self, a: NetId, name: impl Into<String>) -> NetId {
        self.add_gate(GateKind::Not, &[a], name)
    }

    /// Convenience: constant-zero net (one fresh gate per call).
    pub fn const0(&mut self, name: impl Into<String>) -> NetId {
        self.add_gate(GateKind::Const0, &[], name)
    }

    /// Convenience: constant-one net (one fresh gate per call).
    pub fn const1(&mut self, name: impl Into<String>) -> NetId {
        self.add_gate(GateKind::Const1, &[], name)
    }

    /// Checks structural well-formedness: every referenced net exists, every
    /// non-input net has exactly one driver, no combinational cycles.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for gate in &self.gates {
            for &inp in &gate.inputs {
                if inp.index() >= self.net_count() {
                    return Err(NetlistError::UnknownNet(inp));
                }
            }
            if gate.output.index() >= self.net_count() {
                return Err(NetlistError::UnknownNet(gate.output));
            }
        }
        for (_, out) in &self.outputs {
            if out.index() >= self.net_count() {
                return Err(NetlistError::UnknownNet(*out));
            }
        }
        // Every net referenced as a gate input or primary output must be driven
        // or be a primary input.
        let mut used: Vec<bool> = vec![false; self.net_count()];
        for gate in &self.gates {
            for &inp in &gate.inputs {
                used[inp.index()] = true;
            }
        }
        for (_, out) in &self.outputs {
            used[out.index()] = true;
        }
        for (id, &is_used) in used.iter().enumerate() {
            if is_used && !self.is_input[id] && self.driver[id].is_none() {
                return Err(NetlistError::UndrivenNet(NetId(id as u32)));
            }
        }
        // Cycle check via topological sort.
        if crate::analysis::topological_order(self).is_none() {
            return Err(NetlistError::CombinationalCycle);
        }
        Ok(())
    }

    /// Evaluates the circuit on a single input assignment.
    ///
    /// `input_values[i]` is the value of `self.inputs()[i]`. Returns the
    /// values of the primary outputs in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len()` differs from the number of primary
    /// inputs or if the netlist has a cycle.
    pub fn evaluate(&self, input_values: &[bool]) -> Vec<bool> {
        crate::sim::evaluate(self, input_values)
    }

    /// Evaluates the circuit treating the inputs/outputs as little-endian
    /// binary numbers. Convenient for arithmetic circuits.
    ///
    /// The input words are mapped to the primary inputs in order, one bit per
    /// input (word 0 bit 0 first). Returns the output bits packed into a
    /// `u128` (at most 128 outputs).
    ///
    /// # Panics
    ///
    /// Panics if there are more than 128 primary outputs.
    pub fn evaluate_words(&self, words: &[u128], widths: &[usize]) -> u128 {
        assert_eq!(words.len(), widths.len());
        let total: usize = widths.iter().sum();
        assert_eq!(
            total,
            self.inputs.len(),
            "input widths must cover all primary inputs"
        );
        assert!(self.outputs.len() <= 128, "too many outputs for u128");
        let mut bits = Vec::with_capacity(total);
        for (&w, &width) in words.iter().zip(widths) {
            for i in 0..width {
                bits.push((w >> i) & 1 == 1);
            }
        }
        let out = self.evaluate(&bits);
        let mut result: u128 = 0;
        for (i, &b) in out.iter().enumerate() {
            if b {
                result |= 1 << i;
            }
        }
        result
    }

    /// A human readable one-line summary (gate/net counts).
    pub fn summary(&self) -> String {
        let mut by_kind: HashMap<GateKind, usize> = HashMap::new();
        for gate in &self.gates {
            *by_kind.entry(gate.kind).or_insert(0) += 1;
        }
        let mut kinds: Vec<_> = by_kind.into_iter().collect();
        kinds.sort();
        let kinds = kinds
            .iter()
            .map(|(k, c)| format!("{k}:{c}"))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "{}: {} inputs, {} outputs, {} gates ({})",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.gates.len(),
            kinds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut nl = Netlist::new("half_adder");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.xor2(a, b, "s");
        let c = nl.and2(a, b, "c");
        nl.add_output("s", s);
        nl.add_output("c", c);
        nl
    }

    #[test]
    fn build_and_evaluate_half_adder() {
        let nl = half_adder();
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.net_count(), 4);
        nl.validate().unwrap();
        assert_eq!(nl.evaluate(&[false, false]), vec![false, false]);
        assert_eq!(nl.evaluate(&[true, false]), vec![true, false]);
        assert_eq!(nl.evaluate(&[false, true]), vec![true, false]);
        assert_eq!(nl.evaluate(&[true, true]), vec![false, true]);
    }

    #[test]
    fn evaluate_words_half_adder() {
        let nl = half_adder();
        assert_eq!(nl.evaluate_words(&[1, 1], &[1, 1]), 0b10);
        assert_eq!(nl.evaluate_words(&[1, 0], &[1, 1]), 0b01);
    }

    #[test]
    fn find_net_by_name() {
        let nl = half_adder();
        let s = nl.find_net("s").unwrap();
        assert_eq!(nl.net_name(s), "s");
        assert!(nl.find_net("does_not_exist").is_none());
    }

    #[test]
    fn validate_detects_undriven_net() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let floating = nl.add_net("floating");
        let z = nl.and2(a, floating, "z");
        nl.add_output("z", z);
        assert_eq!(
            nl.validate(),
            Err(NetlistError::UndrivenNet(floating)),
            "undriven internal net must be rejected"
        );
    }

    #[test]
    fn validate_detects_multiple_drivers() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.and2(a, b, "z");
        let err = nl.add_gate_driving(GateKind::Or, z, &[a, b]);
        assert_eq!(err, Err(NetlistError::MultipleDrivers(z)));
    }

    #[test]
    fn validate_detects_driven_input() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let err = nl.add_gate_driving(GateKind::And, a, &[a, b]);
        assert_eq!(err, Err(NetlistError::DrivenInput(a)));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        let err = nl.add_gate_driving(GateKind::Not, z, &[a, a]);
        assert!(matches!(err, Err(NetlistError::BadArity { .. })));
    }

    #[test]
    fn constants_evaluate() {
        let mut nl = Netlist::new("consts");
        let zero = nl.const0("zero");
        let one = nl.const1("one");
        nl.add_output("zero", zero);
        nl.add_output("one", one);
        assert_eq!(nl.evaluate(&[]), vec![false, true]);
    }

    #[test]
    fn summary_mentions_counts() {
        let nl = half_adder();
        let s = nl.summary();
        assert!(s.contains("2 inputs"));
        assert!(s.contains("2 gates"));
    }
}

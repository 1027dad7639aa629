//! Structural analysis of netlists: topological ordering, logic levels,
//! fanout counts and transitive fan-in cones.
//!
//! These analyses drive the variable ordering and substitution ordering of the
//! algebraic verifier: variables are ordered by *reverse topological level*
//! and the rewriting keep-sets are derived from fanout counts and gate kinds.

use std::collections::{HashSet, VecDeque};

use crate::netlist::{NetId, Netlist};

/// Computes a topological order of all nets (inputs first, outputs last).
///
/// Returns `None` if the netlist contains a combinational cycle. Use
/// [`topological_order_or_cycle`] to learn which nets are stuck on a cycle.
pub fn topological_order(netlist: &Netlist) -> Option<Vec<NetId>> {
    topological_order_or_cycle(netlist).ok()
}

/// Like [`topological_order`], but on failure returns the nets that could not
/// be ordered: every net on (or fed only through) a combinational cycle.
pub fn topological_order_or_cycle(netlist: &Netlist) -> Result<Vec<NetId>, Vec<NetId>> {
    let n = netlist.net_count();
    // in-degree per net: number of distinct input nets of its driver.
    let mut indeg = vec![0usize; n];
    let mut fanout_edges: Vec<Vec<NetId>> = vec![Vec::new(); n];
    for gate in netlist.gates() {
        let mut seen: HashSet<NetId> = HashSet::new();
        for &inp in &gate.inputs {
            if seen.insert(inp) {
                indeg[gate.output.index()] += 1;
                fanout_edges[inp.index()].push(gate.output);
            }
        }
    }
    let mut queue: VecDeque<NetId> = VecDeque::new();
    for (id, &deg) in indeg.iter().enumerate() {
        if deg == 0 {
            queue.push_back(NetId(id as u32));
        }
    }
    let mut order = Vec::with_capacity(n);
    while let Some(net) = queue.pop_front() {
        order.push(net);
        for &succ in &fanout_edges[net.index()] {
            indeg[succ.index()] -= 1;
            if indeg[succ.index()] == 0 {
                queue.push_back(succ);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let placed: HashSet<NetId> = order.into_iter().collect();
        let stuck: Vec<NetId> = (0..n as u32)
            .map(NetId)
            .filter(|id| !placed.contains(id))
            .collect();
        Err(stuck)
    }
}

/// Computes the logic level of every net.
///
/// Primary inputs and constant gates have level 0; every other driven net has
/// level `1 + max(level of driver inputs)`. Undriven non-input nets get level
/// 0 as well (they are rejected by validation anyway).
///
/// # Panics
///
/// Panics if the netlist contains a combinational cycle.
pub fn logic_levels(netlist: &Netlist) -> Vec<usize> {
    let order = topological_order(netlist).expect("netlist must be acyclic");
    let mut level = vec![0usize; netlist.net_count()];
    for net in order {
        if let Some(gate) = netlist.driver(net) {
            let max_in = gate
                .inputs
                .iter()
                .map(|i| level[i.index()])
                .max()
                .unwrap_or(0);
            level[net.index()] = if gate.inputs.is_empty() {
                0
            } else {
                max_in + 1
            };
        }
    }
    level
}

/// Counts, for every net, the number of gate inputs and primary outputs it
/// feeds (its fanout).
pub fn fanout_counts(netlist: &Netlist) -> Vec<usize> {
    let mut counts = vec![0usize; netlist.net_count()];
    for gate in netlist.gates() {
        for &inp in &gate.inputs {
            counts[inp.index()] += 1;
        }
    }
    for (_, out) in netlist.outputs() {
        counts[out.index()] += 1;
    }
    counts
}

/// Computes the transitive fan-in cone of `roots`: every net on a path from a
/// primary input (or constant) to any of the roots, including the roots.
pub fn fanin_cone(netlist: &Netlist, roots: &[NetId]) -> HashSet<NetId> {
    let mut cone: HashSet<NetId> = HashSet::new();
    let mut stack: Vec<NetId> = roots.to_vec();
    while let Some(net) = stack.pop() {
        if !cone.insert(net) {
            continue;
        }
        if let Some(gate) = netlist.driver(net) {
            for &inp in &gate.inputs {
                if !cone.contains(&inp) {
                    stack.push(inp);
                }
            }
        }
    }
    cone
}

/// The depth of the circuit: the maximum logic level over the primary outputs.
pub fn depth(netlist: &Netlist) -> usize {
    let levels = logic_levels(netlist);
    netlist
        .outputs()
        .iter()
        .map(|(_, n)| levels[n.index()])
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    fn two_level() -> Netlist {
        let mut nl = Netlist::new("two_level");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.and2(a, b, "ab");
        let z = nl.or2(ab, c, "z");
        nl.add_output("z", z);
        nl
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let nl = two_level();
        let order = topological_order(&nl).unwrap();
        let pos: Vec<usize> = (0..nl.net_count())
            .map(|i| order.iter().position(|n| n.index() == i).unwrap())
            .collect();
        let ab = nl.find_net("ab").unwrap();
        let z = nl.find_net("z").unwrap();
        let a = nl.find_net("a").unwrap();
        assert!(pos[a.index()] < pos[ab.index()]);
        assert!(pos[ab.index()] < pos[z.index()]);
    }

    #[test]
    fn levels_and_depth() {
        let nl = two_level();
        let levels = logic_levels(&nl);
        assert_eq!(levels[nl.find_net("a").unwrap().index()], 0);
        assert_eq!(levels[nl.find_net("ab").unwrap().index()], 1);
        assert_eq!(levels[nl.find_net("z").unwrap().index()], 2);
        assert_eq!(depth(&nl), 2);
    }

    #[test]
    fn fanout_counts_and_multi_fanout() {
        let mut nl = Netlist::new("fan");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.xor2(a, b, "x");
        let y = nl.and2(x, a, "y");
        let z = nl.or2(x, y, "z");
        nl.add_output("z", z);
        let counts = fanout_counts(&nl);
        assert_eq!(counts[x.index()], 2);
        assert_eq!(counts[a.index()], 2);
        assert_eq!(counts[z.index()], 1);
    }

    #[test]
    fn cone_and_support() {
        let nl = two_level();
        let z = nl.find_net("z").unwrap();
        let cone = fanin_cone(&nl, &[z]);
        assert_eq!(cone.len(), 5);
    }

    #[test]
    fn cycle_detected() {
        // Build a cyclic netlist manually via add_gate_driving.
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate_driving(GateKind::And, x, &[a, y]).unwrap();
        nl.add_gate_driving(GateKind::Or, y, &[a, x]).unwrap();
        assert!(topological_order(&nl).is_none());
        assert!(nl.validate().is_err());
        let stuck = topological_order_or_cycle(&nl).unwrap_err();
        assert!(stuck.contains(&x) && stuck.contains(&y));
        assert!(
            !stuck.contains(&a),
            "acyclic inputs are not part of the cycle"
        );
    }
}

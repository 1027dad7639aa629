//! Output-cone decomposition with shared-prefix analysis.
//!
//! The algebraic verifier's Step-3 reduction is decomposable per output bit:
//! each primary output's backward (fan-in) cone can be reduced independently
//! and the partial remainders recombined. That only pays off when the cones
//! are (mostly) disjoint, though — for carry-propagate arithmetic the cones of
//! adjacent output bits overlap almost completely, and splitting them forfeits
//! the word-level cancellation between columns that keeps the reduction
//! tractable. This module therefore pairs the cone extraction with a
//! *shared-prefix analysis*: cones whose net sets overlap beyond a threshold
//! are merged into one group, so carry-coupled outputs stay together while
//! genuinely independent output clusters (bit-sliced logic, side-by-side
//! units) split into separate groups. On the generated multipliers (all 50
//! architectures, checked at widths 4, 8 and 16) every output cone merges
//! into one group, so the verifier reduces the whole specification at once;
//! it uses this module for the per-net output-column masks that drive
//! column retirement ([`output_column_masks`]).
//!
//! The grouping core ([`group_overlapping_cones`]) is expressed over plain
//! index sets, so it applies to any numbering of the nets.

use std::collections::HashSet;

use crate::analysis::{fanin_cone, topological_order_or_cycle};
use crate::netlist::{NetId, Netlist};

/// The default overlap threshold of [`decompose_output_cones`]: two cones
/// sharing at least half of the smaller cone's nets are merged. This keeps
/// carry-chained output columns (which share nearly everything) in a single
/// group while splitting disjoint output clusters.
pub const DEFAULT_MERGE_OVERLAP: f64 = 0.5;

/// One group of primary outputs plus their combined backward slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputCone {
    /// The primary outputs of this group, in declaration order.
    pub outputs: Vec<NetId>,
    /// Every net in the transitive fan-in of the outputs (including the
    /// outputs themselves), ascending.
    pub nets: Vec<NetId>,
    /// The primary-input support of the group, ascending.
    pub support: Vec<NetId>,
}

/// The result of [`decompose_output_cones`]: merged output cones plus the
/// shared prefix (nets claimed by more than one cone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConeDecomposition {
    /// The merged cones, ordered by their first output's declaration order.
    pub cones: Vec<OutputCone>,
    /// Nets that belong to more than one cone *after* merging — the residual
    /// shared prefix that independent reductions will re-traverse.
    pub shared: Vec<NetId>,
}

impl ConeDecomposition {
    /// The index of the cone owning output `net`, if any.
    pub fn cone_of_output(&self, net: NetId) -> Option<usize> {
        self.cones.iter().position(|c| c.outputs.contains(&net))
    }
}

/// Groups per-output index sets by overlap: scanning in order, each cone is
/// merged into the first existing group that shares at least
/// `merge_overlap · min(|cone|, |group|)` elements, otherwise it starts a new
/// group. Returns the member cone indices of each group, in first-member
/// order.
///
/// The scan is deterministic, so the grouping is reproducible.
pub fn group_overlapping_cones(cones: &[Vec<u32>], merge_overlap: f64) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_sets: Vec<HashSet<u32>> = Vec::new();
    for (i, cone) in cones.iter().enumerate() {
        let cone_set: HashSet<u32> = cone.iter().copied().collect();
        let mut placed = false;
        for (g, set) in group_sets.iter_mut().enumerate() {
            let smaller = cone_set.len().min(set.len());
            let needed = (merge_overlap * smaller as f64).ceil().max(1.0) as usize;
            let overlap = cone_set.iter().filter(|n| set.contains(n)).count();
            if overlap >= needed {
                set.extend(cone_set.iter().copied());
                groups[g].push(i);
                placed = true;
                break;
            }
        }
        if !placed {
            groups.push(vec![i]);
            group_sets.push(cone_set);
        }
    }
    groups
}

/// Per-net output-column support masks: bit `min(j, 63)` of `masks[net.0]`
/// is set exactly when `net` lies in the backward (fan-in) cone of primary
/// output `j` (in declaration order, which for the generated multipliers is
/// ascending column weight). Outputs beyond 63 saturate onto bit 63.
///
/// The indexed reduction engines use the masks two ways: the substitution
/// order prefers nets that only reach low output columns (their terms retire
/// into the input-only accumulator sooner), and a column counts as *retired*
/// once every tracked net carrying its bit has been substituted.
pub fn output_column_masks(netlist: &Netlist) -> Vec<u64> {
    let mut masks = vec![0u64; netlist.net_count()];
    for (j, &(_, out)) in netlist.outputs().iter().enumerate() {
        let bit = 1u64 << j.min(63);
        for net in fanin_cone(netlist, &[out]) {
            masks[net.0 as usize] |= bit;
        }
    }
    masks
}

/// Decomposes a netlist into per-output backward cones, merging cones that
/// overlap by at least `merge_overlap` of the smaller cone (see
/// [`DEFAULT_MERGE_OVERLAP`]).
///
/// Returns `Err` with the nets stuck on (or fed only through) a combinational
/// cycle when the netlist is cyclic — a cyclic cone has no reverse-topological
/// substitution order, so downstream extraction would fail anyway and the
/// decomposition surfaces the problem eagerly.
pub fn decompose_output_cones(
    netlist: &Netlist,
    merge_overlap: f64,
) -> Result<ConeDecomposition, Vec<NetId>> {
    topological_order_or_cycle(netlist)?;
    let outputs: Vec<NetId> = netlist.outputs().iter().map(|&(_, n)| n).collect();
    let per_output: Vec<Vec<u32>> = outputs
        .iter()
        .map(|&out| {
            let mut nets: Vec<u32> = fanin_cone(netlist, &[out]).iter().map(|n| n.0).collect();
            nets.sort_unstable();
            nets
        })
        .collect();
    let groups = group_overlapping_cones(&per_output, merge_overlap);
    let mut claimed: HashSet<NetId> = HashSet::new();
    let mut shared: HashSet<NetId> = HashSet::new();
    let mut cones = Vec::with_capacity(groups.len());
    for members in &groups {
        let group_outputs: Vec<NetId> = members.iter().map(|&i| outputs[i]).collect();
        let mut nets: Vec<NetId> = fanin_cone(netlist, &group_outputs).into_iter().collect();
        nets.sort_unstable();
        for &net in &nets {
            if !claimed.insert(net) {
                shared.insert(net);
            }
        }
        let support: Vec<NetId> = nets
            .iter()
            .copied()
            .filter(|&n| netlist.is_input(n))
            .collect();
        cones.push(OutputCone {
            outputs: group_outputs,
            nets,
            support,
        });
    }
    let mut shared: Vec<NetId> = shared.into_iter().collect();
    shared.sort_unstable();
    Ok(ConeDecomposition { cones, shared })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

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
    fn cone_supports_on_hand_built_multiplier() {
        let nl = two_bit_multiplier();
        // merge_overlap > 1.0 disables merging entirely: one cone per output.
        let d = decompose_output_cones(&nl, 1.1).unwrap();
        assert_eq!(d.cones.len(), 4);
        let name = |n: NetId| nl.net_name(n).to_string();
        let support_names =
            |c: &OutputCone| -> Vec<String> { c.support.iter().map(|&n| name(n)).collect() };
        // s0 = a0 & b0 depends on exactly {a0, b0}.
        assert_eq!(support_names(&d.cones[0]), vec!["a0", "b0"]);
        // s1 = p01 ^ p10 depends on all four inputs.
        assert_eq!(support_names(&d.cones[1]), vec!["a0", "a1", "b0", "b1"]);
        // s2's cone contains the carry c1 and both cross partial products.
        let s2_nets: Vec<String> = d.cones[2].nets.iter().map(|&n| name(n)).collect();
        assert!(s2_nets.contains(&"c1".to_string()));
        assert!(s2_nets.contains(&"p01".to_string()));
        assert!(!s2_nets.contains(&"p00".to_string()), "{s2_nets:?}");
        // The cross partial products are shared between s1/s2/s3 cones.
        assert!(d.shared.iter().any(|&n| name(n) == "p01"));
    }

    #[test]
    fn column_masks_track_output_reach() {
        let nl = two_bit_multiplier();
        let masks = output_column_masks(&nl);
        let find = |name: &str| {
            (0..nl.net_count())
                .map(|i| NetId(i as u32))
                .find(|&n| nl.net_name(n) == name)
                .unwrap()
        };
        // p00 is the s0 output itself and feeds nothing else.
        assert_eq!(masks[find("p00").0 as usize], 0b0001);
        // a0 reaches every output column: s0 directly, s1/s2/s3 via p01.
        assert_eq!(masks[find("a0").0 as usize], 0b1111);
        // The first carry c1 feeds s2 and s3 only.
        assert_eq!(masks[find("c1").0 as usize], 0b1100);
        // a1 misses only the lowest column.
        assert_eq!(masks[find("a1").0 as usize], 0b1110);
    }

    #[test]
    fn overlapping_cones_merge_on_shared_prefix_adders() {
        // A 4-bit Kogge-Stone-style shared-prefix carry structure: all sum
        // bits hang off the same generate/propagate prefix nets, so their
        // cones overlap almost completely and must merge into one group.
        let mut nl = Netlist::new("prefix_adder");
        let a: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("b{i}"))).collect();
        let g: Vec<NetId> = (0..4)
            .map(|i| nl.and2(a[i], b[i], format!("g{i}")))
            .collect();
        let p: Vec<NetId> = (0..4)
            .map(|i| nl.xor2(a[i], b[i], format!("p{i}")))
            .collect();
        // Prefix carries: c1 = g0, c2 = g1 | p1 g0, c3 = g2 | p2 c2.
        let t1 = nl.and2(p[1], g[0], "t1");
        let c2 = nl.or2(g[1], t1, "c2");
        let t2 = nl.and2(p[2], c2, "t2");
        let c3 = nl.or2(g[2], t2, "c3");
        let s0 = nl.add_gate(GateKind::Buf, &[p[0]], "s0");
        let s1 = nl.xor2(p[1], g[0], "s1");
        let s2 = nl.xor2(p[2], c2, "s2");
        let s3 = nl.xor2(p[3], c3, "s3");
        for (i, s) in [s0, s1, s2, s3].into_iter().enumerate() {
            nl.add_output(format!("s{i}"), s);
        }
        let merged = decompose_output_cones(&nl, DEFAULT_MERGE_OVERLAP).unwrap();
        assert_eq!(
            merged.cones.len(),
            1,
            "shared-prefix sum cones must merge: {merged:?}"
        );
        assert_eq!(merged.cones[0].outputs.len(), 4);
        assert!(merged.shared.is_empty(), "a single group shares nothing");
        // With merging disabled the prefix nets are shared between cones.
        let split = decompose_output_cones(&nl, 1.1).unwrap();
        assert_eq!(split.cones.len(), 4);
        assert!(split.shared.contains(&g[0]));
    }

    #[test]
    fn disjoint_cones_stay_separate() {
        // Two independent AND gates: nothing overlaps, nothing merges.
        let mut nl = Netlist::new("disjoint");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let x = nl.and2(a, b, "x");
        let y = nl.and2(c, d, "y");
        nl.add_output("x", x);
        nl.add_output("y", y);
        let dec = decompose_output_cones(&nl, DEFAULT_MERGE_OVERLAP).unwrap();
        assert_eq!(dec.cones.len(), 2);
        assert!(dec.shared.is_empty());
        assert_eq!(dec.cone_of_output(x), Some(0));
        assert_eq!(dec.cone_of_output(y), Some(1));
        assert_eq!(dec.cone_of_output(a), None);
    }

    #[test]
    fn cyclic_netlist_is_an_error() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate_driving(GateKind::And, x, &[a, y]).unwrap();
        nl.add_gate_driving(GateKind::Or, y, &[a, x]).unwrap();
        nl.add_output("y", y);
        let stuck = decompose_output_cones(&nl, DEFAULT_MERGE_OVERLAP).unwrap_err();
        assert!(stuck.contains(&x) && stuck.contains(&y));
    }

    #[test]
    fn grouping_is_order_deterministic() {
        let cones = vec![vec![0, 1, 2], vec![2, 3, 4], vec![10, 11], vec![11, 12]];
        let groups = group_overlapping_cones(&cones, 0.3);
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3]]);
        let strict = group_overlapping_cones(&cones, 0.9);
        assert_eq!(strict.len(), 4);
    }
}

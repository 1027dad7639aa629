//! The three workloads and their seeded set-up.

use std::time::Instant;

use gbmv::genmul::MultiplierSpec;
use gbmv::netlist::fault::random_fault;
use gbmv::netlist::sim::random_equivalence_check;
use gbmv::netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault draws per design before the set-up gives up.
const MAX_DRAWS: usize = 10_000;
/// Random-simulation rounds (64 patterns each) that must tell a mutant apart
/// from its golden design, as in `fault::distinguishable_mutant`.
const CHECK_ROUNDS: usize = 4;
/// Net-name prefixes of the generator's partial-product stage: `pp_` (AND
/// array), `bo_` (Booth encoders), `bs_` (Booth selectors).
const PARTIAL_PRODUCT_NETS: [&str; 3] = ["pp_", "bo_", "bs_"];

/// A workload: a fixed list of architectures at one width and term budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Golden Booth multipliers at width 16: Step-2 rewriting dominates.
    Booth16,
    /// Golden width-8 designs with a parallel-prefix final adder: Step-3
    /// reduction dominates.
    Prefix8,
    /// One seeded single-gate mutant of each width-8 RC/CL/BK design: the
    /// opposite verdict, with a counterexample to confirm.
    Bughunt,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "booth16" => Some(Workload::Booth16),
            "prefix8" => Some(Workload::Prefix8),
            "bughunt" => Some(Workload::Bughunt),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Booth16 => "booth16",
            Workload::Prefix8 => "prefix8",
            Workload::Bughunt => "bughunt",
        }
    }

    pub fn width(self) -> usize {
        match self {
            Workload::Booth16 => 16,
            Workload::Prefix8 | Workload::Bughunt => 8,
        }
    }

    /// Term budget of every run in the workload.
    pub fn max_terms(self) -> usize {
        match self {
            Workload::Booth16 | Workload::Prefix8 => 10_000_000,
            Workload::Bughunt => 1_000_000,
        }
    }

    /// The architectures, in canonical order (before the seeded shuffle).
    pub fn architectures(self) -> Vec<String> {
        match self {
            Workload::Booth16 => ["AR", "WT", "DT", "CT"]
                .iter()
                .flat_map(|acc| ["RC", "BK"].map(|fsa| format!("BP-{acc}-{fsa}")))
                .collect(),
            Workload::Prefix8 => [
                "SP-RT-KS", "BP-AR-HC", "BP-DT-HC", "SP-WT-HC", "SP-CT-HC", "BP-WT-HC", "BP-CT-HC",
                "BP-RT-HC",
            ]
            .map(String::from)
            .to_vec(),
            Workload::Bughunt => ["SP", "BP"]
                .iter()
                .flat_map(|pp| {
                    ["AR", "WT", "DT", "CT", "RT"].iter().flat_map(move |acc| {
                        ["RC", "CL", "BK"].map(|fsa| format!("{pp}-{acc}-{fsa}"))
                    })
                })
                .collect(),
        }
    }
}

/// One circuit to verify.
pub struct Design {
    /// Architecture plus width, with a `*` suffix for a mutant.
    pub name: String,
    pub netlist: Netlist,
    /// True when a fault was injected: the verdict must be a mismatch.
    pub mutant: bool,
}

/// The inputs of a workload plus when each set-up layer ran: netlist
/// generation from `started` to `built`, fault injection (bughunt) from
/// `built` to `mutated`.
pub struct Inputs {
    pub designs: Vec<Design>,
    pub started: Instant,
    pub built: Instant,
    pub mutated: Instant,
}

/// Builds the workload's netlists, injects the seeded faults (bughunt) and
/// shuffles the design order by the seed. Equal seeds give equal inputs.
pub fn set_up(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let width = workload.width();
    let started = Instant::now();
    let mut golden = Vec::new();
    for arch in workload.architectures() {
        let spec = MultiplierSpec::parse(&arch, width)
            .ok_or_else(|| format!("unknown architecture {arch}"))?;
        golden.push((format!("{arch}-{width}"), spec.build()));
    }
    let built = Instant::now();

    let mut designs = Vec::with_capacity(golden.len());
    if workload == Workload::Bughunt {
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, netlist) in &golden {
            let mutant = partial_product_mutant(netlist, &mut rng)
                .ok_or_else(|| format!("no partial-product mutant of {name}"))?;
            designs.push(Design {
                name: format!("{name}*"),
                netlist: mutant,
                mutant: true,
            });
        }
    } else {
        designs.extend(golden.into_iter().map(|(name, netlist)| Design {
            name,
            netlist,
            mutant: false,
        }));
    }
    let mutated = Instant::now();

    // A stream of its own, so that the shuffle does not shift the draws of
    // the fault stream.
    let mut order = StdRng::seed_from_u64(seed ^ 0x6f72_6465_725f_7365);
    for i in (1..designs.len()).rev() {
        designs.swap(i, order.gen_range(0..=i));
    }
    Ok(Inputs {
        designs,
        started,
        built,
        mutated,
    })
}

/// Draws seeded single-gate faults until one sits in the partial-product
/// generator and changes the circuit under random simulation — the draw of
/// `fault::distinguishable_mutant`, restricted to that stage.
///
/// A fault deeper in the accumulator tree or in the final adder pushes about
/// one width-8 mutant in five past the 1 M-term budget after seconds of
/// reduction; such stops would make the workload's time and failure count
/// hinge on the seed. A partial-product fault leaves the rest of the circuit
/// intact, so its verdict costs a golden-sized reduction plus the
/// counterexample search.
fn partial_product_mutant(netlist: &Netlist, rng: &mut StdRng) -> Option<Netlist> {
    for _ in 0..MAX_DRAWS {
        let fault = random_fault(netlist, rng)?;
        let site = netlist.net_name(netlist.gates()[fault.gate_index].output);
        if !PARTIAL_PRODUCT_NETS.iter().any(|p| site.starts_with(p)) {
            continue;
        }
        let mutant = fault.apply(netlist);
        if mutant.validate().is_ok()
            && random_equivalence_check(netlist, &mutant, CHECK_ROUNDS, rng).is_some()
        {
            return Some(mutant);
        }
    }
    None
}

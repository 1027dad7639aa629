//! The circuits both differential harnesses run over: the rewrite harness
//! (`tests/rewrite_equivalence.rs`) and the verdict harness
//! (`tests/parallel_equivalence.rs`) share them, so the two pin their halves
//! of the contract on exactly the same netlists.

use gbmv::genmul::{Accumulator, FinalAdder, MultiplierSpec, PartialProduct};
use gbmv::netlist::fault::distinguishable_mutant;
use gbmv::netlist::Netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's ten Table I/II architectures.
pub const PAPER_ARCHITECTURES: [&str; 10] = [
    "SP-AR-RC", "SP-WT-CL", "SP-RT-KS", "SP-CT-BK", "SP-DT-HC", "BP-AR-RC", "BP-WT-CL", "BP-RT-KS",
    "BP-CT-BK", "BP-DT-HC",
];

/// Every genmul architecture name.
pub fn all_architectures() -> Vec<String> {
    let mut archs = Vec::new();
    for pp in PartialProduct::all() {
        for acc in Accumulator::all() {
            for fsa in FinalAdder::all() {
                archs.push(format!("{}-{}-{}", pp.abbrev(), acc.abbrev(), fsa.abbrev()));
            }
        }
    }
    archs
}

/// One seeded, distinguishable fault-injected mutant of each of four
/// architectures at `width`, with the architecture it was built from.
pub fn fault_injected_mutants(width: usize) -> Vec<(&'static str, Netlist)> {
    [
        ("SP-WT-CL", 3u64),
        ("BP-CT-BK", 17),
        ("SP-DT-HC", 29),
        ("SP-RT-KS", 41),
    ]
    .into_iter()
    .map(|(arch, seed)| {
        let golden = MultiplierSpec::parse(arch, width)
            .expect("architecture")
            .build();
        let mut rng = StdRng::seed_from_u64(seed);
        let (_fault, mutant) = distinguishable_mutant(&golden, 200, &mut rng).expect("mutant");
        (arch, mutant)
    })
    .collect()
}

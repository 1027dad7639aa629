//! Sweeps every multiplier architecture family (2 partial-product generators
//! x 5 accumulators x 5 final adders = 50 architectures) at a small width and
//! verifies each with MT-LR-PAR (indexed rewriting + indexed reduction)
//! through the `Session` API, printing a compact matrix — the full
//! architecture space the paper's benchmark set is drawn from.
//!
//! Each instance runs under a tight term-only [`Budget`] — no wall clock, so
//! the sweep's verdict column is deterministic on any machine and at one
//! thread. Architectures whose reduction still blows up at this width (e.g.
//! the array accumulator feeding a Kogge-Stone final adder) report `TO`,
//! mirroring the paper's tables. A mismatch, by contrast, would be a real
//! bug — the sweep asserts none occur.
//!
//! Run with `cargo run --release --example architecture_sweep`.

use std::time::Instant;

use gbmv::genmul::{Accumulator, FinalAdder, MultiplierSpec, PartialProduct};
use gbmv::{Budget, Method, Session, Spec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let width = 6;
    let budget = Budget {
        max_terms: 1_000_000,
        deadline: None,
        threads: 1,
    };
    println!("MT-LR-PAR verification of all architectures at width {width} (time in ms):");
    println!(
        "{:<6} {:<6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "PP", "Acc", "RC", "CL", "BK", "KS", "HC"
    );
    let mut verified = 0;
    let mut mismatches = 0;
    let mut total = 0;
    for pp in PartialProduct::all() {
        for acc in Accumulator::all() {
            let mut row = format!("{:<6} {:<6}", pp.abbrev(), acc.abbrev());
            for fsa in FinalAdder::all() {
                let spec = MultiplierSpec::new(width, pp, acc, fsa);
                let netlist = spec.build();
                let start = Instant::now();
                let report = Session::extract(&netlist)?
                    .spec(Spec::multiplier(width))
                    .strategy(Method::MtLrPar)
                    .budget(budget)
                    .counterexamples(false)
                    .run()?;
                let ms = start.elapsed().as_millis();
                total += 1;
                if report.outcome.is_verified() {
                    verified += 1;
                    row.push_str(&format!(" {ms:>10}"));
                } else if report.outcome.is_mismatch() {
                    mismatches += 1;
                    row.push_str(&format!(" {:>10}", "FAIL"));
                } else {
                    row.push_str(&format!(" {:>10}", "TO"));
                }
            }
            println!("{row}");
        }
    }
    println!("verified {verified}/{total} architectures within the budget");
    assert_eq!(mismatches, 0, "a mismatch on a correct circuit is a bug");
    Ok(())
}

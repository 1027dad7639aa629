//! Quick perf probe for one (architecture, width, method) instance:
//! `cargo run --release -p gbmv-bench --example idx_perf -- SP-RT-KS 8 par`.
//! Methods: `lr` (MT-LR), `par` (MT-LR-PAR, default).
//! Budget comes from the `GBMV_*` environment variables.

use gbmv_bench::{build_architecture, HarnessConfig};
use gbmv_core::{Budget, Method, Outcome, Session, Spec};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arch = args.get(1).map(String::as_str).unwrap_or("SP-RT-KS");
    let width: usize = args.get(2).and_then(|w| w.parse().ok()).unwrap_or(8);
    let method = match args.get(3).map(String::as_str) {
        Some("lr") => Method::MtLr,
        _ => Method::MtLrPar,
    };
    let config = HarnessConfig::from_env();
    let netlist = build_architecture(arch, width);
    let start = Instant::now();
    let report = Session::extract(&netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(width))
        .strategy(method)
        .budget(Budget {
            max_terms: config.max_terms,
            deadline: Some(config.timeout),
            threads: 0,
        })
        .counterexamples(false)
        .run()
        .expect("interface");
    let elapsed = start.elapsed();
    let s = &report.stats;
    println!(
        "{arch} w{width} {}: {} in {:.1?} (rw {:.1?} red {:.1?}) | peak {} subs {} idx_hits {} cols_retired {} cvm {}",
        report.strategy,
        match report.outcome {
            Outcome::Verified => "ok".to_string(),
            ref o => format!("{o:?}"),
        },
        elapsed,
        s.rewrite.elapsed,
        s.reduction.elapsed,
        s.peak_terms(),
        s.reduction.substitutions,
        s.reduction.index_hits,
        s.reduction.columns_retired,
        s.cancelled_vanishing(),
    );
}

//! Quick perf probe for one (architecture, width, method) instance:
//! `cargo run --release -p gbmv-bench --example idx_perf -- SP-RT-KS 8 par`.
//! Methods: `lr` (MT-LR), `par` (MT-LR-PAR, default).
//! Budget comes from the `GBMV_*` environment variables. An argument that
//! does not parse stops the probe with exit status 2 before it runs. The
//! report ends with the process's peak resident set size in MiB (`VmHWM`
//! of `/proc/self/status`), or `rss n/a` where that file cannot be read.

use gbmv_bench::{build_architecture, or_exit, parse_probe_args, HarnessConfig};
use gbmv_core::{Outcome, Session, Spec};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (arch, width, method) = or_exit(parse_probe_args(&args));
    let config = HarnessConfig::from_env();
    let netlist = build_architecture(&arch, width);
    let start = Instant::now();
    let report = Session::extract(&netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(width))
        .strategy(method)
        .budget(config.budget())
        .counterexamples(false)
        .run()
        .expect("interface");
    let elapsed = start.elapsed();
    let s = &report.stats;
    let rss = peak_rss_mib().map_or_else(|| "n/a".to_string(), |mib| format!("{mib:.1}"));
    println!(
        "{arch} w{width} {}: {} in {:.1?} (rw {:.1?} red {:.1?}) | peak {} subs {} idx_hits {} cols_retired {} cvm {} rss {rss}",
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

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`; `None` where the file or the field cannot be read.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

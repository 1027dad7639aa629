//! Ablation study beyond the paper's tables: isolates the effect of the two
//! halves of logic reduction rewriting.
//!
//! For each architecture the run time of four configurations is reported:
//! MT-FO (baseline), MT-XOR (XOR rewriting only, which the paper argues is
//! inefficient on its own), MT-LR with logic reduction off
//! (`VanishingRules::Off`), and the full MT-LR — each a `Session` run with
//! the strategy (or vanishing mode) swapped.

use gbmv_bench::{build_architecture, format_duration, or_exit, HarnessConfig};
use gbmv_core::{Method, Outcome, Session, Spec, VanishingRules};

fn run(
    arch: &str,
    width: usize,
    method: Method,
    rules: VanishingRules,
    config: &HarnessConfig,
) -> String {
    let netlist = build_architecture(arch, width);
    let report = Session::extract(&netlist)
        .expect("generated netlists are acyclic")
        .spec(Spec::multiplier(width))
        .strategy(method)
        .rules(rules)
        .budget(config.budget())
        .counterexamples(false)
        .run()
        .expect("generated netlists match the multiplier interface");
    match report.outcome {
        Outcome::Verified => format_duration(report.stats.total_time),
        Outcome::ResourceLimit { .. } | Outcome::Cancelled => "TO".to_string(),
        Outcome::Mismatch { .. } => "FAIL".to_string(),
    }
}

fn main() {
    let config = HarnessConfig::from_env();
    let archs = or_exit(config.architectures(&["SP-CT-BK", "BP-WT-CL", "SP-AR-RC"]));
    let rules = VanishingRules::default();
    let no_rules = VanishingRules::Off;
    println!("Ablation: rewriting schemes and vanishing rules");
    println!(
        "{:<12} {:>5} {:>14} {:>14} {:>16} {:>14}",
        "Benchmark", "width", "MT-FO", "MT-XOR", "MT-LR(no rule)", "MT-LR"
    );
    for &width in &config.widths {
        for &arch in &archs {
            let fo = run(arch, width, Method::MtFo, rules, &config);
            let xor_only = run(arch, width, Method::MtXorOnly, rules, &config);
            let lr_no_rule = run(arch, width, Method::MtLr, no_rules, &config);
            let lr = run(arch, width, Method::MtLr, rules, &config);
            println!(
                "{:<12} {:>5} {:>14} {:>14} {:>16} {:>14}",
                arch, width, fo, xor_only, lr_no_rule, lr
            );
        }
    }
}

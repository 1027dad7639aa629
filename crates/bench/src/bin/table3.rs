//! Regenerates Table III of the paper: statistics of the MT-LR algorithm —
//! cancelled vanishing monomials (#CVM), Gröbner-basis reduction time, and
//! the size of the rewritten model (#P, #M, #MP, #VM).
//!
//! Configure with the `GBMV_*` environment variables (see `gbmv-bench`).

use gbmv_bench::{format_duration, or_exit, run_algebraic, table3_architectures, HarnessConfig};
use gbmv_core::Method;

fn main() {
    let config = HarnessConfig::from_env();
    let archs = or_exit(config.architectures(&table3_architectures()));
    println!("Table III: statistics for verification of multipliers by MT-LR");
    println!(
        "{:<12} {:>7} {:>9} {:>14} {:>8} {:>9} {:>6} {:>5}  status",
        "Benchmark", "I/O", "#CVM", "GB reduction", "#P", "#M", "#MP", "#VM"
    );
    for &width in &config.widths {
        for &arch in &archs {
            let (cell, report) = run_algebraic(arch, width, Method::MtLr, &config);
            let stats = &report.stats;
            println!(
                "{:<12} {:>3}/{:<3} {:>9} {:>14} {:>8} {:>9} {:>6} {:>5}  {}",
                arch,
                width,
                2 * width,
                stats.cancelled_vanishing(),
                format_duration(stats.reduction.elapsed),
                stats.model_polynomials,
                stats.model_monomials,
                stats.max_polynomial_terms,
                stats.max_monomial_vars,
                cell.display()
            );
        }
    }
}

//! Regenerates Table I of the paper: verification run-times for multipliers
//! with **simple partial products** across the SAT-miter baseline (the
//! commercial-CEC substitute), MT-FO and MT-LR — one `Portfolio` per
//! instance, so all three strategies share one extracted model.
//!
//! Configure with `GBMV_WIDTHS`, `GBMV_TIMEOUT_SECS`, `GBMV_MAX_TERMS`,
//! `GBMV_CEC_CONFLICTS` (see the crate docs of `gbmv-bench`). Set
//! `GBMV_BENCH_JSON` to additionally write the machine-readable
//! `BENCH_table1.json` used to track the repo's perf trajectory.

use gbmv_bench::{
    bench_json_path, emit_comparison_row, or_exit, print_comparison_header, table1_architectures,
    write_bench_json, HarnessConfig,
};

fn main() {
    let config = HarnessConfig::from_env();
    let archs = or_exit(config.architectures(&table1_architectures()));
    let mut records = Vec::new();
    print_comparison_header("Table I: verification results for simple partial product multipliers");
    for &width in &config.widths {
        for &arch in &archs {
            emit_comparison_row(arch, width, &config, &mut records);
        }
    }
    if let Some(path) = bench_json_path("table1") {
        write_bench_json(&path, &records).expect("write bench json");
        println!("wrote {}", path.display());
    }
}

//! Regenerates Table II of the paper: verification run-times for multipliers
//! with **Booth partial products**. The CPP column of the paper is not
//! applicable to Booth multipliers (marked "-" there) and is not reproduced.
//! Each row is one `Portfolio` run sharing a single extracted model.
//!
//! Configure with the `GBMV_*` environment variables (see `gbmv-bench`). Set
//! `GBMV_BENCH_JSON` to additionally write the machine-readable
//! `BENCH_table2.json` used to track the repo's perf trajectory.

use gbmv_bench::{
    bench_json_path, emit_comparison_row, or_exit, print_comparison_header, table2_architectures,
    write_bench_json, HarnessConfig,
};

fn main() {
    let config = HarnessConfig::from_env();
    let archs = or_exit(config.architectures(&table2_architectures()));
    let mut records = Vec::new();
    print_comparison_header("Table II: verification results for Booth partial product multipliers");
    for &width in &config.widths {
        for &arch in &archs {
            emit_comparison_row(arch, width, &config, &mut records);
        }
    }
    if let Some(path) = bench_json_path("table2") {
        write_bench_json(&path, &records).expect("write bench json");
        println!("wrote {}", path.display());
    }
}

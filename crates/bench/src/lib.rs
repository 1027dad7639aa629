//! Shared harness for regenerating the paper's tables.
//!
//! The binaries `table1`, `table2`, `table3` and `ablation` print the rows of
//! the corresponding tables of the paper; the Criterion benches measure the
//! same workloads at small widths so `cargo bench` finishes in minutes. The
//! table binaries drive one [`Portfolio`] per benchmark instance: the SAT
//! miter baseline and the algebraic methods run against a single extracted
//! model.
//!
//! Run-time configuration is taken from environment variables so the same
//! binaries scale from a smoke test to the full experiment:
//!
//! * `GBMV_WIDTHS` — comma-separated operand widths (default `8,16`).
//! * `GBMV_TIMEOUT_SECS` — per-instance budget in seconds (default `60`).
//! * `GBMV_MAX_TERMS` — polynomial term limit (default `10000000`).
//! * `GBMV_CEC_CONFLICTS` — conflict budget of the SAT miter baseline
//!   (default `200000`).
//! * `GBMV_ARCHS` — comma-separated architecture names; when set, a table
//!   binary only runs the listed architectures (default: all of its table).

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use gbmv_core::{
    Budget, Method, Outcome, Portfolio, PortfolioReport, Report, Session, Spec, StrategyRun,
};
use gbmv_genmul::MultiplierSpec;

/// Run-time configuration of the table binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Operand widths to sweep.
    pub widths: Vec<usize>,
    /// Per-instance wall-clock budget.
    pub timeout: Duration,
    /// Polynomial term limit for the algebraic methods.
    pub max_terms: usize,
    /// Conflict budget of the SAT miter baseline.
    pub cec_conflicts: u64,
    /// Restrict the table binaries to these architectures (`None` = all).
    pub archs: Option<Vec<String>>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            widths: vec![8, 16],
            timeout: Duration::from_secs(60),
            max_terms: 10_000_000,
            cec_conflicts: 200_000,
            archs: None,
        }
    }
}

impl HarnessConfig {
    /// Reads the configuration from the `GBMV_*` environment variables,
    /// falling back to the defaults.
    pub fn from_env() -> Self {
        let mut config = HarnessConfig::default();
        if let Ok(widths) = std::env::var("GBMV_WIDTHS") {
            let parsed: Vec<usize> = widths
                .split(',')
                .filter_map(|w| w.trim().parse().ok())
                .collect();
            if !parsed.is_empty() {
                config.widths = parsed;
            }
        }
        if let Ok(secs) = std::env::var("GBMV_TIMEOUT_SECS") {
            if let Ok(secs) = secs.trim().parse::<u64>() {
                config.timeout = Duration::from_secs(secs);
            }
        }
        if let Ok(terms) = std::env::var("GBMV_MAX_TERMS") {
            if let Ok(terms) = terms.trim().parse::<usize>() {
                config.max_terms = terms;
            }
        }
        if let Ok(conflicts) = std::env::var("GBMV_CEC_CONFLICTS") {
            if let Ok(conflicts) = conflicts.trim().parse::<u64>() {
                config.cec_conflicts = conflicts;
            }
        }
        if let Ok(archs) = std::env::var("GBMV_ARCHS") {
            let parsed: Vec<String> = archs
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(str::to_string)
                .collect();
            if !parsed.is_empty() {
                config.archs = Some(parsed);
            }
        }
        config
    }

    /// Whether this configuration selects `arch` (true unless `GBMV_ARCHS`
    /// names a different subset).
    pub fn selects(&self, arch: &str) -> bool {
        self.archs
            .as_ref()
            .is_none_or(|a| a.iter().any(|x| x == arch))
    }

    /// The per-run resource budget this configuration stands for.
    pub fn budget(&self) -> Budget {
        Budget {
            max_terms: self.max_terms,
            deadline: Some(self.timeout),
            threads: 0,
        }
    }
}

/// Builds the netlist of a named architecture at a given width.
///
/// # Panics
///
/// Panics on unknown architecture names.
pub fn build_architecture(arch: &str, width: usize) -> gbmv_netlist::Netlist {
    MultiplierSpec::parse(arch, width)
        .unwrap_or_else(|| panic!("unknown architecture {arch}"))
        .build()
}

/// One measured cell of a table: the wall-clock time and how the run ended.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Elapsed wall-clock time.
    pub elapsed: Duration,
    /// `"ok"`, `"TO"` (resource limit / cancelled) or `"FAIL"` (unexpected
    /// mismatch).
    pub status: &'static str,
}

impl Cell {
    /// Builds a cell from one portfolio strategy run.
    pub fn from_run(run: &StrategyRun) -> Cell {
        Cell {
            elapsed: run.elapsed,
            status: status_of(&run.outcome),
        }
    }

    /// Formats the cell like the paper's `h:mm:ss` column, or `TO`.
    pub fn display(&self) -> String {
        match self.status {
            "ok" => format_duration(self.elapsed),
            other => other.to_string(),
        }
    }
}

fn status_of(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Verified => "ok",
        Outcome::ResourceLimit { .. } | Outcome::Cancelled => "TO",
        Outcome::Mismatch { .. } => "FAIL",
    }
}

/// Formats a duration as `h:mm:ss.milli`.
pub fn format_duration(d: Duration) -> String {
    let total = d.as_secs();
    let hours = total / 3600;
    let minutes = (total % 3600) / 60;
    let seconds = total % 60;
    let millis = d.subsec_millis();
    format!("{hours}:{minutes:02}:{seconds:02}.{millis:03}")
}

/// Verifies `netlist` as a `width`-bit multiplier with `method` under the
/// default budget, panicking on anything but [`Outcome::Verified`] — the
/// shared measurement kernel of the Criterion benches.
pub fn session_verify(netlist: &gbmv_netlist::Netlist, width: usize, method: Method) {
    let report = Session::extract(netlist)
        .expect("generated netlists are acyclic")
        .spec(Spec::multiplier(width))
        .strategy(method)
        .counterexamples(false)
        .run()
        .expect("generated netlists match the multiplier interface");
    assert!(report.outcome.is_verified(), "{:?}", report.outcome);
}

/// Runs one algebraic verification instance through a [`Session`] and
/// reports the cell plus the full report (for Table III statistics).
pub fn run_algebraic(
    arch: &str,
    width: usize,
    method: Method,
    config: &HarnessConfig,
) -> (Cell, Report) {
    let netlist = build_architecture(arch, width);
    // Time the whole pipeline including Step-1 model extraction, matching
    // the paper's timings and the pre-redesign measurement window.
    let start = std::time::Instant::now();
    let report = Session::extract(&netlist)
        .expect("generated netlists are acyclic")
        .spec(Spec::multiplier(width))
        .strategy(method)
        .budget(config.budget())
        .counterexamples(false)
        .run()
        .expect("generated netlists match the multiplier interface");
    let cell = Cell {
        elapsed: start.elapsed(),
        status: status_of(&report.outcome),
    };
    (cell, report)
}

/// Runs the comparison portfolio of the paper's Table I/II rows — the SAT
/// miter baseline (`CEC`), MT-FO, MT-LR, plus this repo's incremental
/// indexed engine (`MT-LR-PAR`) — against one extracted model.
///
/// Per-strategy elapsed times exclude the (shared, amortized) Step-1 model
/// extraction; counterexample search is disabled so a `FAIL` cell stays
/// cheap. The indexed engine's worker count follows `GBMV_THREADS` (else
/// the machine's parallelism) via [`Budget::effective_threads`].
pub fn table_portfolio(arch: &str, width: usize, config: &HarnessConfig) -> PortfolioReport {
    let netlist = build_architecture(arch, width);
    Portfolio::extract(&netlist)
        .expect("generated netlists are acyclic")
        .spec(Spec::multiplier(width))
        .budget(config.budget())
        .counterexamples(false)
        .sat_baseline(Some(config.cec_conflicts))
        .method(Method::MtFo)
        .method(Method::MtLr)
        .method(Method::MtLrPar)
        .run_all()
        .expect("generated netlists match the multiplier interface")
}

/// One machine-readable benchmark measurement, serialized into the
/// `BENCH_table{1,2}.json` files that track the repo's perf trajectory.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Architecture name (e.g. `SP-CT-BK`).
    pub arch: String,
    /// Operand width in bits.
    pub width: usize,
    /// Strategy name (`MT-FO`, `MT-LR`, `MT-LR-PAR`, `CEC`).
    pub strategy: String,
    /// Wall-clock time in milliseconds.
    pub elapsed_ms: u128,
    /// Peak intermediate polynomial size over rewriting and reduction;
    /// `None` (serialized as `null`) for strategies that do not track terms,
    /// such as the SAT baseline — a `0` would read as a measurement.
    pub peak_terms: Option<usize>,
    /// Number of substitution steps of the reduction phase; `None` for the
    /// SAT baseline.
    pub substitution_steps: Option<usize>,
    /// Number of terms retrieved through the inverted var→term index;
    /// `None` for the SAT baseline, `0` for the scan-based algebraic
    /// engines.
    pub index_hits: Option<u64>,
    /// Number of variable substitutions of the rewrite phase (Step 2);
    /// `None` for the SAT baseline.
    pub rewrite_steps: Option<usize>,
    /// Number of terms the rewrite phase retrieved through the inverted
    /// index; `None` for the SAT baseline, `0` for the scan-based rewriter.
    pub rewrite_index_hits: Option<u64>,
    /// Peak tail size during the rewrite phase; `None` for the SAT baseline.
    pub rewrite_peak_terms: Option<usize>,
    /// Wall-clock time of the rewrite phase in milliseconds; `None` for the
    /// SAT baseline.
    pub rewrite_ms: Option<u128>,
    /// The term budget the run was given.
    pub max_terms: usize,
    /// The wall-clock budget the run was given, in milliseconds.
    pub timeout_ms: u128,
    /// Worker threads the strategy ran with (1 for the single-threaded
    /// strategies; the resolved [`Budget::effective_threads`] for the
    /// indexed engine).
    pub threads: usize,
    /// `"ok"`, `"TO"` or `"FAIL"`.
    pub status: String,
}

impl BenchRecord {
    /// Builds a record from one portfolio strategy run.
    pub fn from_run(arch: &str, width: usize, run: &StrategyRun, config: &HarnessConfig) -> Self {
        // Only the indexed engine fans out; every other strategy runs its
        // phases on one thread.
        let threads = if run.strategy == Method::MtLrPar.name() {
            config.budget().effective_threads()
        } else {
            1
        };
        BenchRecord {
            arch: arch.to_string(),
            width,
            strategy: run.strategy.clone(),
            elapsed_ms: run.elapsed.as_millis(),
            peak_terms: run.stats.as_ref().map(|s| s.peak_terms()),
            substitution_steps: run.stats.as_ref().map(|s| s.reduction.substitutions),
            index_hits: run.stats.as_ref().map(|s| s.reduction.index_hits),
            rewrite_steps: run.stats.as_ref().map(|s| s.rewrite.substitutions),
            rewrite_index_hits: run.stats.as_ref().map(|s| s.rewrite.index_hits),
            rewrite_peak_terms: run.stats.as_ref().map(|s| s.rewrite.peak_terms),
            rewrite_ms: run.stats.as_ref().map(|s| s.rewrite.elapsed.as_millis()),
            max_terms: config.max_terms,
            timeout_ms: config.timeout.as_millis(),
            threads,
            status: status_of(&run.outcome).to_string(),
        }
    }

    fn to_json(&self) -> String {
        fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
            v.as_ref().map_or_else(|| "null".to_string(), T::to_string)
        }
        format!(
            "{{\"arch\": \"{}\", \"width\": {}, \"strategy\": \"{}\", \"elapsed_ms\": {}, \"peak_terms\": {}, \"substitution_steps\": {}, \"index_hits\": {}, \"rewrite_steps\": {}, \"rewrite_index_hits\": {}, \"rewrite_peak_terms\": {}, \"rewrite_ms\": {}, \"max_terms\": {}, \"timeout_ms\": {}, \"threads\": {}, \"status\": \"{}\"}}",
            self.arch,
            self.width,
            self.strategy,
            self.elapsed_ms,
            opt(&self.peak_terms),
            opt(&self.substitution_steps),
            opt(&self.index_hits),
            opt(&self.rewrite_steps),
            opt(&self.rewrite_index_hits),
            opt(&self.rewrite_peak_terms),
            opt(&self.rewrite_ms),
            self.max_terms,
            self.timeout_ms,
            self.threads,
            self.status
        )
    }
}

/// The output path for a table's JSON records when `GBMV_BENCH_JSON` is set
/// to a truthy value (`BENCH_<table>.json` in the current directory), `None`
/// when unset, empty or `0`.
pub fn bench_json_path(table: &str) -> Option<PathBuf> {
    match std::env::var("GBMV_BENCH_JSON") {
        Ok(value) if !value.is_empty() && value != "0" => {
            Some(PathBuf::from(format!("BENCH_{table}.json")))
        }
        _ => None,
    }
}

/// Writes benchmark records as a JSON array (one record per line for easy
/// diffing). All record fields are plain identifiers/numbers, so no string
/// escaping is required.
pub fn write_bench_json(path: &PathBuf, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "[")?;
    for (i, record) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        writeln!(file, "  {}{}", record.to_json(), comma)?;
    }
    writeln!(file, "]")?;
    Ok(())
}

/// The simple-partial-product architectures of Table I.
pub fn table1_architectures() -> Vec<&'static str> {
    vec!["SP-AR-RC", "SP-WT-CL", "SP-RT-KS", "SP-CT-BK", "SP-DT-HC"]
}

/// The Booth-partial-product architectures of Table II.
pub fn table2_architectures() -> Vec<&'static str> {
    vec!["BP-AR-RC", "BP-WT-CL", "BP-RT-KS", "BP-CT-BK", "BP-DT-HC"]
}

/// The architectures whose MT-LR statistics Table III reports.
pub fn table3_architectures() -> Vec<&'static str> {
    vec!["BP-WT-CL", "BP-RT-KS", "SP-DT-HC", "SP-CT-BK"]
}

/// Prints a table header for the per-method comparison tables.
pub fn print_comparison_header(title: &str) {
    println!("{title}");
    println!(
        "{:<12} {:>7} {:>14} {:>14} {:>14} {:>14}",
        "Benchmark", "I/O", "CEC(SAT)", "MT-FO", "MT-LR", "MT-LR-PAR"
    );
}

/// Prints one row of a comparison table.
pub fn print_comparison_row(
    arch: &str,
    width: usize,
    cec: &Cell,
    fo: &Cell,
    lr: &Cell,
    lr_par: &Cell,
) {
    println!(
        "{:<12} {:>3}/{:<3} {:>14} {:>14} {:>14} {:>14}",
        arch,
        width,
        2 * width,
        cec.display(),
        fo.display(),
        lr.display(),
        lr_par.display()
    );
}

/// Runs one comparison-table row through [`table_portfolio`], prints it, and
/// appends the strategy records to `records`.
pub fn emit_comparison_row(
    arch: &str,
    width: usize,
    config: &HarnessConfig,
    records: &mut Vec<BenchRecord>,
) {
    let report = table_portfolio(arch, width, config);
    let cell = |name: &str| Cell::from_run(report.get(name).expect("portfolio strategy"));
    print_comparison_row(
        arch,
        width,
        &cell("CEC"),
        &cell("MT-FO"),
        &cell("MT-LR"),
        &cell("MT-LR-PAR"),
    );
    for run in &report.runs {
        records.push(BenchRecord::from_run(arch, width, run, config));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_millis(1500)), "0:00:01.500");
        assert_eq!(format_duration(Duration::from_secs(3661)), "1:01:01.000");
    }

    #[test]
    fn architectures_listed() {
        assert_eq!(table1_architectures().len(), 5);
        assert_eq!(table2_architectures().len(), 5);
        assert!(table1_architectures().iter().all(|a| a.starts_with("SP")));
        assert!(table2_architectures().iter().all(|a| a.starts_with("BP")));
    }

    #[test]
    fn small_instance_runs_end_to_end() {
        let config = HarnessConfig {
            widths: vec![4],
            timeout: Duration::from_secs(30),
            max_terms: 500_000,
            cec_conflicts: 100_000,
            archs: None,
        };
        let (cell, report) = run_algebraic("SP-AR-RC", 4, Method::MtLr, &config);
        assert_eq!(cell.status, "ok");
        assert!(report.outcome.is_verified());
    }

    #[test]
    fn table_portfolio_agrees_across_strategies() {
        let config = HarnessConfig {
            widths: vec![4],
            timeout: Duration::from_secs(30),
            max_terms: 500_000,
            cec_conflicts: 100_000,
            archs: None,
        };
        let report = table_portfolio("SP-AR-RC", 4, &config);
        assert_eq!(report.runs.len(), 4);
        for run in &report.runs {
            assert!(
                run.outcome.is_verified(),
                "{} should verify: {:?}",
                run.strategy,
                run.outcome
            );
        }
        assert!(report.get("CEC").is_some());
        assert!(report.verdict().unwrap().is_verified());
    }

    #[test]
    fn bench_records_serialize_to_json() {
        let config = HarnessConfig {
            widths: vec![8],
            timeout: Duration::from_secs(60),
            max_terms: 1_000_000,
            cec_conflicts: 1,
            archs: None,
        };
        let run = StrategyRun {
            strategy: "CEC".to_string(),
            outcome: Outcome::Verified,
            stats: None,
            elapsed: Duration::from_millis(42),
        };
        let record = BenchRecord::from_run("SP-AR-RC", 8, &run, &config);
        // The SAT baseline does not track terms: the term/step counters must
        // serialize as `null`, not as a zero that reads like a measurement.
        assert_eq!(
            record.to_json(),
            "{\"arch\": \"SP-AR-RC\", \"width\": 8, \"strategy\": \"CEC\", \"elapsed_ms\": 42, \"peak_terms\": null, \"substitution_steps\": null, \"index_hits\": null, \"rewrite_steps\": null, \"rewrite_index_hits\": null, \"rewrite_peak_terms\": null, \"rewrite_ms\": null, \"max_terms\": 1000000, \"timeout_ms\": 60000, \"threads\": 1, \"status\": \"ok\"}"
        );
        let mut stats = gbmv_core::RunStats::default();
        stats.reduction.peak_terms = 7;
        stats.reduction.substitutions = 3;
        stats.reduction.index_hits = 11;
        stats.rewrite.substitutions = 5;
        stats.rewrite.index_hits = 13;
        stats.rewrite.peak_terms = 9;
        stats.rewrite.elapsed = Duration::from_millis(6);
        let run = StrategyRun {
            strategy: "MT-LR".to_string(),
            outcome: Outcome::Verified,
            stats: Some(stats),
            elapsed: Duration::from_millis(42),
        };
        let record = BenchRecord::from_run("SP-AR-RC", 8, &run, &config);
        assert_eq!(
            record.to_json(),
            "{\"arch\": \"SP-AR-RC\", \"width\": 8, \"strategy\": \"MT-LR\", \"elapsed_ms\": 42, \"peak_terms\": 9, \"substitution_steps\": 3, \"index_hits\": 11, \"rewrite_steps\": 5, \"rewrite_index_hits\": 13, \"rewrite_peak_terms\": 9, \"rewrite_ms\": 6, \"max_terms\": 1000000, \"timeout_ms\": 60000, \"threads\": 1, \"status\": \"ok\"}"
        );
        let dir = std::env::temp_dir().join("gbmv_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        write_bench_json(&path, &[record.clone(), record]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n"));
        assert_eq!(text.matches("SP-AR-RC").count(), 2);
        assert!(text.trim_end().ends_with(']'));
    }

    #[test]
    fn env_config_defaults() {
        let config = HarnessConfig::default();
        assert_eq!(config.widths, vec![8, 16]);
        assert!(config.timeout >= Duration::from_secs(1));
        assert_eq!(config.budget().max_terms, config.max_terms);
    }
}

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
//!
//! An unset or empty variable keeps its default. Any other value must parse
//! in full: a width, timeout, term limit or conflict budget that is not a
//! number, an unknown architecture name, or a `GBMV_ARCHS` name outside the
//! binary's own table stops the binary with exit status 2 and an error that
//! names the variable and its value.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use gbmv_core::{
    Budget, Method, Outcome, Portfolio, PortfolioReport, Report, Session, Spec, StrategyRun,
};
use gbmv_genmul::MultiplierSpec;

/// Run-time configuration of the table binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// The value of the variable `name` parsed by `parse`: `None` when it is
/// unset or empty, an error naming it and its value when `parse` rejects it.
fn parse_var<T>(
    var: &impl Fn(&str) -> Option<String>,
    name: &str,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match var(name).filter(|v| !v.trim().is_empty()) {
        None => Ok(None),
        Some(value) => parse(value.trim())
            .map(Some)
            .ok_or_else(|| format!("{name}={value:?}: expected {expected}")),
    }
}

/// Parses every item of a comma-separated list, or none.
fn parse_list<T>(value: &str, item: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    value.split(',').map(|x| item(x.trim())).collect()
}

/// The parsed value, or, on an error, the end of the process: prints
/// `error: <err>` and exits with status 2 before anything runs.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(2)
    })
}

/// Parses the positional arguments `[ARCH [WIDTH [METHOD]]]` of the
/// `idx_perf` example, without the program name. An absent argument keeps
/// its default: `SP-RT-KS`, width 8, method `par`. A present one must be an
/// architecture [`MultiplierSpec::parse`] knows, a positive width, and `lr`
/// (MT-LR) or `par` (MT-LR-PAR); otherwise the error names the argument and
/// its value.
pub fn parse_probe_args(args: &[String]) -> Result<(String, usize, Method), String> {
    let bad =
        |name: &str, value: &str, expected: &str| format!("{name} {value:?}: expected {expected}");
    if let Some(extra) = args.get(3) {
        return Err(bad("argument", extra, "at most three arguments"));
    }
    let width = match args.get(1) {
        None => 8,
        Some(w) => w
            .parse()
            .ok()
            .filter(|&w: &usize| w > 0)
            .ok_or_else(|| bad("width", w, "a positive integer"))?,
    };
    let arch = args.first().map_or("SP-RT-KS", String::as_str);
    if MultiplierSpec::parse(arch, width).is_none() {
        return Err(bad("architecture", arch, "a name such as SP-AR-RC"));
    }
    let method = match args.get(2).map_or("par", String::as_str) {
        "lr" => Method::MtLr,
        "par" => Method::MtLrPar,
        other => return Err(bad("method", other, "lr or par")),
    };
    Ok((arch.to_string(), width, method))
}

impl HarnessConfig {
    /// Reads the configuration from the `GBMV_*` environment variables (see
    /// the crate docs). Prints the offending variable and its value, and
    /// exits the process with status 2, when a value does not parse.
    pub fn from_env() -> Self {
        let var = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        or_exit(HarnessConfig::from_vars(var))
    }

    /// Reads the configuration through `var`, which maps a `GBMV_*` name to
    /// its value. An unset or empty variable keeps its default; any other
    /// value must parse in full, and every `GBMV_ARCHS` name must be an
    /// architecture [`MultiplierSpec::parse`] knows.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let defaults = HarnessConfig::default();
        let width = |w: &str| w.parse().ok().filter(|&w: &usize| w > 0);
        // The name check ignores the width.
        let arch = |a: &str| MultiplierSpec::parse(a, 1).map(|_| a.to_string());
        Ok(HarnessConfig {
            widths: parse_var(
                &var,
                "GBMV_WIDTHS",
                "positive widths, comma-separated",
                |v| parse_list(v, width),
            )?
            .unwrap_or(defaults.widths),
            timeout: parse_var(&var, "GBMV_TIMEOUT_SECS", "whole seconds", |v| {
                v.parse().ok()
            })?
            .map_or(defaults.timeout, Duration::from_secs),
            max_terms: parse_var(&var, "GBMV_MAX_TERMS", "a term count", |v| v.parse().ok())?
                .unwrap_or(defaults.max_terms),
            cec_conflicts: parse_var(&var, "GBMV_CEC_CONFLICTS", "a conflict count", |v| {
                v.parse().ok()
            })?
            .unwrap_or(defaults.cec_conflicts),
            archs: parse_var(&var, "GBMV_ARCHS", "architectures, comma-separated", |v| {
                parse_list(v, arch)
            })?
            .or(defaults.archs),
        })
    }

    /// The architectures of a binary's `table` that this configuration
    /// runs, in `table`'s order: all of them, or the ones `GBMV_ARCHS`
    /// names. A `GBMV_ARCHS` name outside `table` is an error that names
    /// the variable, the name and `table`.
    pub fn architectures<'a>(&self, table: &[&'a str]) -> Result<Vec<&'a str>, String> {
        let Some(archs) = &self.archs else {
            return Ok(table.to_vec());
        };
        if let Some(name) = archs.iter().find(|a| !table.contains(&a.as_str())) {
            return Err(format!(
                "GBMV_ARCHS names {name:?}: expected one of {}",
                table.join(", ")
            ));
        }
        Ok(table
            .iter()
            .copied()
            .filter(|t| archs.iter().any(|a| a == t))
            .collect())
    }

    /// The per-run resource budget this configuration stands for.
    pub fn budget(&self) -> Budget {
        Budget {
            max_terms: self.max_terms,
            deadline: Some(self.timeout),
            ..Budget::default()
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
/// cheap.
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
    /// `"ok"`, `"TO"` or `"FAIL"`.
    pub status: String,
}

impl BenchRecord {
    /// Builds a record from one portfolio strategy run.
    pub fn from_run(arch: &str, width: usize, run: &StrategyRun, config: &HarnessConfig) -> Self {
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
            status: status_of(&run.outcome).to_string(),
        }
    }

    fn to_json(&self) -> String {
        fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
            v.as_ref().map_or_else(|| "null".to_string(), T::to_string)
        }
        format!(
            "{{\"arch\": \"{}\", \"width\": {}, \"strategy\": \"{}\", \"elapsed_ms\": {}, \"peak_terms\": {}, \"substitution_steps\": {}, \"index_hits\": {}, \"rewrite_steps\": {}, \"rewrite_index_hits\": {}, \"rewrite_peak_terms\": {}, \"rewrite_ms\": {}, \"max_terms\": {}, \"timeout_ms\": {}, \"status\": \"{}\"}}",
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
            "{\"arch\": \"SP-AR-RC\", \"width\": 8, \"strategy\": \"CEC\", \"elapsed_ms\": 42, \"peak_terms\": null, \"substitution_steps\": null, \"index_hits\": null, \"rewrite_steps\": null, \"rewrite_index_hits\": null, \"rewrite_peak_terms\": null, \"rewrite_ms\": null, \"max_terms\": 1000000, \"timeout_ms\": 60000, \"status\": \"ok\"}"
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
            "{\"arch\": \"SP-AR-RC\", \"width\": 8, \"strategy\": \"MT-LR\", \"elapsed_ms\": 42, \"peak_terms\": 9, \"substitution_steps\": 3, \"index_hits\": 11, \"rewrite_steps\": 5, \"rewrite_index_hits\": 13, \"rewrite_peak_terms\": 9, \"rewrite_ms\": 6, \"max_terms\": 1000000, \"timeout_ms\": 60000, \"status\": \"ok\"}"
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

    /// A variable lookup over fixed `(name, value)` pairs.
    fn vars<'a>(pairs: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn unset_and_empty_variables_keep_the_defaults() {
        let defaults = HarnessConfig::default();
        assert_eq!(HarnessConfig::from_vars(vars(&[])), Ok(defaults.clone()));
        let empty = [
            ("GBMV_WIDTHS", ""),
            ("GBMV_TIMEOUT_SECS", " "),
            ("GBMV_MAX_TERMS", ""),
            ("GBMV_CEC_CONFLICTS", ""),
            ("GBMV_ARCHS", ""),
        ];
        assert_eq!(HarnessConfig::from_vars(vars(&empty)), Ok(defaults));
    }

    #[test]
    fn valid_values_parse_in_full() {
        let config = HarnessConfig::from_vars(vars(&[
            ("GBMV_WIDTHS", " 4, 16"),
            ("GBMV_TIMEOUT_SECS", "5"),
            ("GBMV_MAX_TERMS", "2000000"),
            ("GBMV_CEC_CONFLICTS", "1000"),
            ("GBMV_ARCHS", "SP-AR-RC, BP-RT-KS"),
        ]))
        .unwrap();
        assert_eq!(
            config,
            HarnessConfig {
                widths: vec![4, 16],
                timeout: Duration::from_secs(5),
                max_terms: 2_000_000,
                cec_conflicts: 1000,
                archs: Some(vec!["SP-AR-RC".to_string(), "BP-RT-KS".to_string()]),
            }
        );
    }

    /// `GBMV_ARCHS` picks from a binary's own table, in the table's order,
    /// and a name outside the table is an error that names it.
    #[test]
    fn archs_select_from_the_binary_table() {
        let table = table1_architectures();
        let select = |value: &str| {
            HarnessConfig::from_vars(vars(&[("GBMV_ARCHS", value)]))
                .unwrap()
                .architectures(&table)
        };
        assert_eq!(select(""), Ok(table.clone()));
        assert_eq!(
            select("SP-CT-BK,SP-AR-RC"),
            Ok(vec!["SP-AR-RC", "SP-CT-BK"])
        );
        let err = select("SP-AR-RC,BP-WT-CL").unwrap_err();
        for part in ["GBMV_ARCHS", "\"BP-WT-CL\"", &table.join(", ")] {
            assert!(err.contains(part), "{err}");
        }
    }

    /// `idx_perf`'s arguments keep their defaults when absent and name
    /// themselves when they do not parse.
    #[test]
    fn probe_args_parse_or_name_the_argument() {
        let parse = |args: &[&str]| {
            parse_probe_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(parse(&[]), Ok(("SP-RT-KS".to_string(), 8, Method::MtLrPar)));
        assert_eq!(
            parse(&["SP-AR-RC", "4", "lr"]),
            Ok(("SP-AR-RC".to_string(), 4, Method::MtLr))
        );
        for (args, want) in [
            (&["SP-AR-RC", "abc"][..], "width \"abc\": expected"),
            (
                &["SP-AR-RC", "4", "nonsense"],
                "method \"nonsense\": expected",
            ),
            (&["NOPE", "4"], "architecture \"NOPE\": expected"),
            (&["SP-AR-RC", "0"], "width \"0\": expected"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(want), "{args:?}: {err}");
        }
    }

    #[test]
    fn garbage_values_name_the_variable() {
        for (name, value) in [
            ("GBMV_WIDTHS", "abc"),
            ("GBMV_WIDTHS", "8,x"),
            ("GBMV_WIDTHS", "8,"),
            ("GBMV_WIDTHS", "0"),
            ("GBMV_TIMEOUT_SECS", "1.5"),
            ("GBMV_MAX_TERMS", "oops"),
            ("GBMV_CEC_CONFLICTS", "-1"),
            ("GBMV_ARCHS", "NOPE"),
            ("GBMV_ARCHS", "SP-AR-RC,sp-ar-rc"),
        ] {
            let err = HarnessConfig::from_vars(vars(&[(name, value)])).unwrap_err();
            assert!(err.starts_with(&format!("{name}={value:?}")), "{err}");
        }
    }
}

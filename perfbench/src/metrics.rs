//! End-to-end and per-layer metrics of a run, and the process counters they
//! read.

use std::collections::BTreeMap;

use gbmv::core::RunStats;

use crate::trace::Tracer;
use crate::verify::{Stop, Verdict};
use crate::Pass;

/// `USER_HZ`, the unit of the CPU times in `/proc/self/stat` on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// User plus system CPU time of the whole process, all threads included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may hold spaces; the fields after it start at field 3
    // (state), so utime and stime (fields 14 and 15) sit at 11 and 12.
    let (_, rest) = stat.rsplit_once(')').ok_or("unparsable /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "unparsable /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S)
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median over `passes` of a per-pass value.
fn per_pass(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(passes.iter().map(|p| f(p)).collect())
}

/// Sum over a pass's verdicts of a per-verdict count.
fn total(pass: &Pass, f: impl Fn(&Verdict) -> usize) -> f64 {
    pass.verdicts.iter().map(|v| f(v) as f64).sum()
}

/// Largest per-verdict value of a pass.
fn largest(pass: &Pass, f: impl Fn(&Verdict) -> usize) -> f64 {
    pass.verdicts.iter().map(f).max().unwrap_or(0) as f64
}

/// `part / whole`, or 0 when there is no whole.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The end-to-end metrics over the untraced passes: per-pass values, then
/// the median across passes — except `latency_s.p50`, the median over the
/// designs of each design's fastest verdict in the run.
///
/// A shared machine has slow spells of seconds to minutes that only ever
/// add time, and they stretch the few-millisecond `bughunt` verdicts more
/// than the long ones (see the README). A median over passes follows how
/// much of the run such spells covered; a design's fastest verdict follows
/// its own cost.
pub fn end_to_end(passes: &[&Pass], setup_s: f64, solved_frac: f64) -> Result<Vec<Metric>, String> {
    // Every pass verifies the same designs in the same order.
    let fastest: Vec<f64> = (0..passes[0].verdicts.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| p.verdicts[i].latency)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let slowest = |p: &Pass| p.verdicts.iter().map(|v| v.latency).fold(0.0, f64::max);
    Ok(vec![
        metric("wall_s", per_pass(passes, |p| p.wall), "s"),
        metric("latency_s.p50", median(fastest), "s"),
        metric("latency_s.max", per_pass(passes, slowest), "s"),
        metric("cpu_s", per_pass(passes, |p| p.cpu), "s"),
        metric("solved_frac", solved_frac, "ratio"),
        metric(
            "peak_terms",
            per_pass(passes, |p| largest(p, |v| v.stats.peak_terms())),
            "terms",
        ),
        metric("peak_rss_mb", peak_rss_mib()?, "MiB"),
        metric("setup_s", setup_s, "s"),
    ])
}

/// Layer numbers measured outside the verification passes.
pub struct SetUpLayers {
    pub build_s: f64,
    pub mutate_s: f64,
    pub gates: usize,
    pub cone_groups: f64,
}

/// The per-layer metrics: self times from the spans of each traced pass and
/// counts from its reports, medians across the traced passes.
pub fn per_layer(
    tracer: &Tracer,
    traced: &[&Pass],
    untraced: &[&Pass],
    setup: &SetUpLayers,
) -> Vec<Metric> {
    let self_times: Vec<BTreeMap<&str, f64>> =
        traced.iter().map(|p| tracer.self_times(p.index)).collect();
    let layer_s = |name: &str| {
        median(
            self_times
                .iter()
                .map(|t| t.get(name).copied().unwrap_or(0.0))
                .collect(),
        )
    };
    let sum = |f: fn(&RunStats) -> usize| per_pass(traced, |p| total(p, |v| f(&v.stats)));
    let peak = |f: fn(&RunStats) -> usize| per_pass(traced, |p| largest(p, |v| f(&v.stats)));
    let rw_steps = sum(|s| s.rewrite.substitutions);
    let rw_hits = sum(|s| s.rewrite.index_hits as usize);
    let rd_steps = sum(|s| s.reduction.substitutions);
    let rd_hits = sum(|s| s.reduction.index_hits as usize);
    // A mismatch reaches this point only with a counterexample that
    // simulation confirmed; anything else ends the run with an error.
    let mismatches = per_pass(traced, |p| {
        total(p, |v| usize::from(v.stop == Stop::Mismatch))
    });
    let (found, confirmed) = (mismatches, mismatches);
    let mut metrics = vec![
        metric("genmul.build_s", setup.build_s, "s"),
        metric("genmul.gates", setup.gates as f64, "count"),
        metric("fault.mutate_s", setup.mutate_s, "s"),
        metric("cone.groups", setup.cone_groups, "count"),
        metric("extract.s", layer_s("extract"), "s"),
        metric(
            "extract.polys",
            per_pass(traced, |p| total(p, |v| v.polys)),
            "count",
        ),
        metric("rewrite.s", layer_s("rewrite"), "s"),
        metric("rewrite.substitutions", rw_steps, "count"),
        metric("rewrite.index_hits", rw_hits, "count"),
        metric("rewrite.hits_per_step", ratio(rw_hits, rw_steps), "ratio"),
        metric(
            "rewrite.peak_terms",
            peak(|s| s.rewrite.peak_terms),
            "terms",
        ),
        metric(
            "rewrite.cancelled",
            sum(|s| s.rewrite.cancelled_vanishing as usize),
            "count",
        ),
        metric(
            "rewrite.columns_retired",
            sum(|s| s.rewrite.columns_retired),
            "count",
        ),
        metric("reduce.s", layer_s("reduce"), "s"),
        metric("reduce.substitutions", rd_steps, "count"),
        metric("reduce.index_hits", rd_hits, "count"),
        metric("reduce.hits_per_step", ratio(rd_hits, rd_steps), "ratio"),
        metric(
            "reduce.peak_terms",
            peak(|s| s.reduction.peak_terms),
            "terms",
        ),
        metric(
            "reduce.final_terms",
            sum(|s| s.reduction.final_terms),
            "count",
        ),
        metric(
            "reduce.cancelled",
            sum(|s| s.reduction.cancelled_vanishing as usize),
            "count",
        ),
        metric(
            "reduce.columns_retired",
            sum(|s| s.reduction.columns_retired),
            "count",
        ),
        metric("cex.s", layer_s("cex"), "s"),
        metric("cex.found_frac", ratio(found, mismatches), "ratio"),
        metric("cex.confirmed_frac", ratio(confirmed, found), "ratio"),
        metric("pipeline.other_s", layer_s("run"), "s"),
    ];
    for stop in Stop::ALL {
        let count = per_pass(traced, |p| total(p, |v| usize::from(v.stop == stop)));
        metrics.push(metric(stop.metric(), count, "count"));
    }
    let overhead = per_pass(traced, |p| p.wall) - per_pass(untraced, |p| p.wall);
    metrics.push(metric("trace.overhead_s", overhead, "s"));
    metrics
}

//! Verdict benchmark for gbmv: the time until a multiplier gets a verdict.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <booth16|prefix8|bughunt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds the workload's inputs from the seed, then verifies the
//! designs one after another through the public `Session` API — closed loop,
//! one client, `MT-LR-PAR` at two worker threads — in whole passes, starting
//! another pass only while it should end within `--seconds`. Every verdict is
//! checked: golden designs must verify, mutants must be rejected with a
//! counterexample that simulation confirms. A wrong verdict exits with code 1
//! and prints no result. A term-budget stop is no error; it counts against
//! `solved_frac`.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics. With
//! `--trace 1` untraced and traced passes alternate; the traced ones record
//! spans around the calls into each layer (written to `perfbench/out/`) and
//! the last line carries the per-layer metrics.

mod metrics;
mod trace;
mod verify;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gbmv::netlist::cone::{decompose_output_cones, DEFAULT_MERGE_OVERLAP};

use metrics::{cpu_seconds, median, Metric, SetUpLayers};
use trace::{Span, Tracer};
use verify::{Verdict, THREADS};
use workload::{Design, Workload};

/// The set-up is repeated `SETUP_BATCH` times in a row between designs
/// whenever `SETUP_EVERY` has passed since the last batch. Small virtual
/// machines alternate between a fast and a ~1.6× slower state that lasts
/// seconds; batches spread over the whole run sample both, where repetitions
/// back to back at the start would catch one. Within a batch, the first
/// repetition after a large verification pays for re-growing the heap and
/// the others do not, so the median over all repetitions is a warm one.
const SETUP_EVERY: Duration = Duration::from_secs(1);
const SETUP_BATCH: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One pass over the workload's designs. `wall` and `cpu` leave out the
/// set-up repetitions made between designs.
pub struct Pass {
    pub index: usize,
    pub traced: bool,
    pub wall: f64,
    pub cpu: f64,
    pub verdicts: Vec<Verdict>,
}

/// The state of one run: its set-up repetitions and, with `--trace 1`, the
/// spans recorded so far.
struct Bench {
    workload: Workload,
    seed: u64,
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    mutate_s: Vec<f64>,
    last_setup: Instant,
    tracer: Option<Tracer>,
}

impl Bench {
    /// Builds the workload's inputs once, as one timed set-up repetition;
    /// returns them with the repetition's duration in seconds.
    fn set_up(&mut self) -> Result<(Vec<Design>, f64), String> {
        let inputs = workload::set_up(self.workload, self.seed)?;
        let end = Instant::now();
        let secs = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64();
        let total = secs(inputs.started, end);
        self.setup_s.push(total);
        self.build_s.push(secs(inputs.started, inputs.built));
        self.mutate_s.push(secs(inputs.built, inputs.mutated));
        self.last_setup = end;
        if let Some(tracer) = &mut self.tracer {
            let key = format!("rep{}", self.setup_s.len() - 1);
            let span = |parent, name, start, end| Span {
                parent,
                name,
                pass: None,
                key: key.clone(),
                start,
                end,
                counts: vec![],
            };
            let root = tracer.record(span(None, "setup", inputs.started, end));
            tracer.record(span(
                Some(root),
                "genmul.build",
                inputs.started,
                inputs.built,
            ));
            if self.workload == Workload::Bughunt {
                tracer.record(span(
                    Some(root),
                    "fault.mutate",
                    inputs.built,
                    inputs.mutated,
                ));
            }
        }
        Ok((inputs.designs, total))
    }

    fn run_pass(&mut self, designs: &[Design], index: usize, traced: bool) -> Result<Pass, String> {
        let cpu_start = cpu_seconds()?;
        let start = Instant::now();
        let mut setup_s = 0.0;
        let mut verdicts = Vec::with_capacity(designs.len());
        for design in designs {
            let tracer = if traced { self.tracer.as_mut() } else { None };
            let verdict = verify::verify(design, self.workload, index, tracer)?;
            eprintln!(
                "  pass {index} {:<14} {:>9.4} s  {:?}  peak {}",
                design.name,
                verdict.latency,
                verdict.stop,
                verdict.stats.peak_terms()
            );
            verdicts.push(verdict);
            if self.last_setup.elapsed() >= SETUP_EVERY {
                for _ in 0..SETUP_BATCH {
                    setup_s += self.set_up()?.1;
                }
            }
        }
        // The set-up is single-threaded computation, so its CPU time is its
        // wall time.
        let wall = start.elapsed().as_secs_f64() - setup_s;
        let cpu = cpu_seconds()? - cpu_start - setup_s;
        eprintln!(
            "pass {index}{}: wall {wall:.4} s, cpu {cpu:.2} s",
            if traced { " (traced)" } else { "" }
        );
        Ok(Pass {
            index,
            traced,
            wall,
            cpu,
            verdicts,
        })
    }
}

/// Mean number of merged output-cone groups per design at the parallel
/// engine's default overlap; each design's count goes to stderr and to its
/// `cone.decompose` span, outside the design spans.
fn probe_cones(designs: &[Design], tracer: &mut Tracer) -> Result<f64, String> {
    let mut groups = Vec::with_capacity(designs.len());
    for design in designs {
        let start = Instant::now();
        let cones = decompose_output_cones(&design.netlist, DEFAULT_MERGE_OVERLAP)
            .map_err(|_| format!("{}: cyclic netlist", design.name))?
            .cones
            .len();
        tracer.record(Span {
            parent: None,
            name: "cone.decompose",
            pass: None,
            key: design.name.clone(),
            start,
            end: Instant::now(),
            counts: vec![("groups", cones as f64)],
        });
        eprintln!("  cone groups {:<14} {cones}", design.name);
        groups.push(cones as f64);
    }
    Ok(groups.iter().sum::<f64>() / groups.len() as f64)
}

fn print_result(attempted: usize, failed: usize, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<24} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let mut bench = Bench {
        workload,
        seed: args.seed,
        setup_s: Vec::new(),
        build_s: Vec::new(),
        mutate_s: Vec::new(),
        last_setup: Instant::now(),
        tracer: args.trace.then(|| Tracer::new(Instant::now())),
    };
    let (designs, _) = bench.set_up()?;
    eprintln!(
        "{} seed {}: {} designs",
        workload.name(),
        args.seed,
        designs.len()
    );
    let cone_groups = match &mut bench.tracer {
        Some(tracer) => probe_cones(&designs, tracer)?,
        None => 0.0,
    };

    let clock = Instant::now();
    let min_passes = if args.trace { 2 } else { 1 };
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let index = passes.len();
        let traced = args.trace && index % 2 == 1;
        let pass = bench.run_pass(&designs, index, traced)?;
        let last = pass.wall;
        passes.push(pass);
        if passes.len() >= min_passes && clock.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }

    let attempted: usize = passes.iter().map(|p| p.verdicts.len()).sum();
    let solved = passes
        .iter()
        .flat_map(|p| &p.verdicts)
        .filter(|v| v.stop.solved())
        .count();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    println!(
        "{} seed {}: {} designs x {} untraced + {} traced passes, {} set-ups; \
         MT-LR-PAR, {THREADS} threads, {} max terms",
        workload.name(),
        args.seed,
        designs.len(),
        untraced.len(),
        traced.len(),
        bench.setup_s.len(),
        workload.max_terms()
    );
    let metrics = match &bench.tracer {
        Some(tracer) => {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            let path = format!("{dir}/trace-{}-seed{}.jsonl", workload.name(), args.seed);
            std::fs::write(&path, tracer.to_jsonl(workload.name()))
                .map_err(|e| format!("{path}: {e}"))?;
            eprintln!("spans written to {path}");
            let layers = SetUpLayers {
                build_s: median(bench.build_s.clone()),
                mutate_s: median(bench.mutate_s.clone()),
                gates: designs.iter().map(|d| d.netlist.gate_count()).sum(),
                cone_groups,
            };
            metrics::per_layer(tracer, &traced, &untraced, &layers)
        }
        None => metrics::end_to_end(
            &untraced,
            median(bench.setup_s.clone()),
            solved as f64 / attempted as f64,
        )?,
    };
    print_result(attempted, attempted - solved, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

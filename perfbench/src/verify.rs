//! One verification through the public `Session` API, its correctness gate,
//! and its spans.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use gbmv::core::{Phase, Progress, RunStats};
use gbmv::{Budget, Counterexample, Method, Outcome, Session, Spec};

use crate::trace::{Span, Tracer};
use crate::workload::{Design, Workload};

/// Worker threads of the parallel engine: its auto setting on a 2-core
/// machine, pinned so that runs on bigger machines measure the same engine.
pub const THREADS: usize = 2;
/// A safety net only, far above every design's time, so that stops come from
/// the term budget and repeat from run to run.
const DEADLINE: Duration = Duration::from_secs(60);

/// Why a verification run ended, classified from its outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    Verified,
    Mismatch,
    TermsRewrite,
    TermsReduce,
    Time,
    Cancelled,
}

impl Stop {
    pub const ALL: [Stop; 6] = [
        Stop::Verified,
        Stop::Mismatch,
        Stop::TermsRewrite,
        Stop::TermsReduce,
        Stop::Time,
        Stop::Cancelled,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Stop::Verified => "stop.verified",
            Stop::Mismatch => "stop.mismatch",
            Stop::TermsRewrite => "stop.terms.rewrite",
            Stop::TermsReduce => "stop.terms.reduce",
            Stop::Time => "stop.time",
            Stop::Cancelled => "stop.cancelled",
        }
    }

    /// A definitive verdict within budget (a wrong one never gets this far).
    pub fn solved(self) -> bool {
        matches!(self, Stop::Verified | Stop::Mismatch)
    }
}

/// One design's verdict with what it cost.
pub struct Verdict {
    pub stop: Stop,
    /// `Session::extract` plus `Session::run`, in seconds.
    pub latency: f64,
    pub stats: RunStats,
    /// Polynomials of the extracted model.
    pub polys: usize,
}

/// Checks a verdict against what the design is known to be and classifies
/// how the run stopped. A wrong verdict or an unconfirmed counterexample is
/// an error.
fn check(
    design: &Design,
    width: usize,
    outcome: &Outcome,
    stats: &RunStats,
) -> Result<Stop, String> {
    let name = &design.name;
    match outcome {
        Outcome::Verified if design.mutant => Err(format!("{name}: faulty design verified")),
        Outcome::Verified => Ok(Stop::Verified),
        Outcome::Mismatch { .. } if !design.mutant => {
            Err(format!("{name}: correct design rejected"))
        }
        Outcome::Mismatch { counterexample, .. } => {
            let cex = counterexample
                .as_ref()
                .ok_or_else(|| format!("{name}: mismatch without a counterexample"))?;
            confirm(design, width, cex)?;
            Ok(Stop::Mismatch)
        }
        Outcome::ResourceLimit { .. } if stats.total_time >= DEADLINE => Ok(Stop::Time),
        Outcome::ResourceLimit {
            phase: Phase::Rewrite,
        } => Ok(Stop::TermsRewrite),
        Outcome::ResourceLimit { .. } => Ok(Stop::TermsReduce),
        Outcome::Cancelled => Ok(Stop::Cancelled),
    }
}

/// A counterexample is confirmed when the mutant's simulation produces the
/// reported circuit word and that word differs from the product.
fn confirm(design: &Design, width: usize, cex: &Counterexample) -> Result<(), String> {
    let name = &design.name;
    let (Some(a), Some(b)) = (cex.operand("a"), cex.operand("b")) else {
        return Err(format!("{name}: counterexample lacks operands: {cex}"));
    };
    let product = a.wrapping_mul(b) & ((1u128 << (2 * width)) - 1);
    let simulated = design.netlist.evaluate_words(&[a, b], &[width, width]);
    if cex.circuit_word != Some(simulated)
        || cex.expected_word != Some(product)
        || simulated == product
    {
        return Err(format!(
            "{name}: counterexample not confirmed by simulation (a={a}, b={b}, \
             simulated {simulated}, product {product}): {cex}"
        ));
    }
    Ok(())
}

/// Extracts and verifies one design. With a tracer, records the `design`
/// span with its `extract` and `run` children, and under `run` the phase
/// spans timestamped by a progress observer, with the phase's counts.
pub fn verify(
    design: &Design,
    workload: Workload,
    pass: usize,
    tracer: Option<&mut Tracer>,
) -> Result<Verdict, String> {
    let width = workload.width();
    let budget = Budget {
        max_terms: workload.max_terms(),
        deadline: Some(DEADLINE),
        threads: THREADS,
    };
    let events: Rc<RefCell<Vec<(Instant, Progress)>>> = Rc::default();

    let start = Instant::now();
    let session = Session::extract(&design.netlist).map_err(|e| format!("{}: {e}", design.name))?;
    let extracted = Instant::now();
    let polys = session.model().num_polynomials();
    let mut session = session
        .spec(Spec::multiplier(width))
        .strategy(Method::MtLrPar)
        .budget(budget)
        .counterexamples(true);
    if tracer.is_some() {
        let sink = Rc::clone(&events);
        session = session.observer(move |p| sink.borrow_mut().push((Instant::now(), p.clone())));
    }
    let run_start = Instant::now();
    let report = session.run().map_err(|e| format!("{}: {e}", design.name))?;
    let end = Instant::now();

    let stop = check(design, width, &report.outcome, &report.stats)?;
    let stats = report.stats;
    if let Some(tracer) = tracer {
        let span = |parent, name, start, end, counts| Span {
            parent,
            name,
            pass: Some(pass),
            key: design.name.clone(),
            start,
            end,
            counts,
        };
        let root = tracer.record(span(None, "design", start, end, vec![]));
        let counts = vec![("polys", polys as f64)];
        tracer.record(span(Some(root), "extract", start, extracted, counts));
        let run = tracer.record(span(Some(root), "run", run_start, end, vec![]));
        let (rw, rd) = (&stats.rewrite, &stats.reduction);
        let mut open = None;
        for (at, event) in events.borrow().iter() {
            match event {
                Progress::PhaseStarted { phase } => open = Some((*phase, *at)),
                Progress::PhaseFinished { phase, .. } => {
                    let Some((from_phase, from)) = open.take() else {
                        continue;
                    };
                    if from_phase != *phase {
                        continue;
                    }
                    let (name, counts) = match phase {
                        Phase::Rewrite => (
                            "rewrite",
                            vec![
                                ("substitutions", rw.substitutions as f64),
                                ("index_hits", rw.index_hits as f64),
                                ("peak_terms", rw.peak_terms as f64),
                                ("cancelled", rw.cancelled_vanishing as f64),
                                ("columns_retired", rw.columns_retired as f64),
                            ],
                        ),
                        Phase::Reduce => (
                            "reduce",
                            vec![
                                ("substitutions", rd.substitutions as f64),
                                ("index_hits", rd.index_hits as f64),
                                ("peak_terms", rd.peak_terms as f64),
                                ("final_terms", rd.final_terms as f64),
                                ("cancelled", rd.cancelled_vanishing as f64),
                                ("columns_retired", rd.columns_retired as f64),
                            ],
                        ),
                        Phase::Counterexample => ("cex", vec![]),
                        Phase::Sat => ("sat", vec![]),
                    };
                    tracer.record(span(Some(run), name, from, *at, counts));
                }
                Progress::RewriteIndexStats { .. } => {}
            }
        }
    }
    let latency = extracted.duration_since(start) + end.duration_since(run_start);
    Ok(Verdict {
        stop,
        latency: latency.as_secs_f64(),
        stats,
        polys,
    })
}

//! Membership-testing verification of integer arithmetic circuits by
//! symbolic computer algebra.
//!
//! This crate implements the algorithm of *"Formal Verification of Integer
//! Multipliers by Combining Gröbner Basis with Logic Reduction"* (Sayed-Ahmed
//! et al., DATE 2016):
//!
//! 1. **Modeling** ([`AlgebraicModel`]): every gate of the netlist is turned
//!    into a polynomial `g := -z + tail(g)` over Boolean variables; ordering
//!    the variables in reverse topological order makes the model a Gröbner
//!    basis by construction. Extraction is fallible: a combinational cycle is
//!    an [`ExtractError`], not a panic.
//! 2. **Rewriting** ([`rewrite`], pluggable via [`RewriteStrategy`]): the
//!    model is rewritten against a keep-set of variables using repeated
//!    S-polynomial substitution ("GB-Rew", Algorithm 2 of the paper). The
//!    provided strategies are *fanout rewriting* ([`FanoutRewrite`], the
//!    MT-FO baseline of Farahmandi & Alizadeh), *XOR rewriting*
//!    ([`XorRewrite`]) with the **XOR-AND vanishing rule**, and *logic
//!    reduction rewriting* (Algorithm 3, the paper's contribution), on the
//!    scan rewriter ([`LogicReductionRewrite`]) or on the indexed term store
//!    ([`IndexedLogicReductionRewrite`]).
//! 3. **Gröbner basis reduction** ([`reduction`], pluggable via
//!    [`ReductionStrategy`], Algorithm 1): the specification polynomial is
//!    divided by the rewritten model; the circuit is correct iff the
//!    remainder is zero (modulo `2^(2n)` for multipliers). Two engines are
//!    provided: the scan-based reference [`GreedyReduction`], which is the
//!    differential oracle, and the incremental indexed engine of
//!    [`parallel`] ([`ParallelReduction`], preset [`Method::MtLrPar`]), whose
//!    inverted var→term index makes each substitution step touch only the
//!    affected terms. It runs on the calling thread and shares its
//!    substitution loop with the indexed Step-2 rewriter.
//!
//! Each provided strategy is the only entry to its engine, and a
//! [`PhaseContext`] is the only configuration an engine reads: the term
//! limit, the cancellation token, the vanishing mode ([`VanishingRules`]),
//! the modulus and the spec weights of the run. Both phases report a
//! [`PhaseStats`], whose [`Stop`] names the resource that ended the phase
//! early; the session maps it to the run's [`Outcome`] and times each
//! phase.
//!
//! The user-facing entry point is the [`Session`] builder: extract once,
//! choose a [`Spec`] and a strategy (a [`Method`] preset or custom
//! [`RewriteStrategy`]/[`ReductionStrategy`] implementations), bound the run
//! with a [`Budget`], observe [`Progress`], and [`Session::run`]; the
//! session turns the budget into the [`PhaseContext`] of each phase. The
//! [`Portfolio`] driver runs several strategies — including the SAT miter
//! baseline — against one extracted model, sequentially
//! ([`Portfolio::run_all`]) or racing with first-winner semantics
//! ([`Portfolio::race`]).
//!
//! # Example
//!
//! ```
//! use gbmv_core::{Method, Session, Spec};
//! use gbmv_genmul::MultiplierSpec;
//!
//! let netlist = MultiplierSpec::parse("SP-WT-CL", 4).unwrap().build();
//! let report = Session::extract(&netlist)?
//!     .spec(Spec::multiplier(4))
//!     .strategy(Method::MtLr)
//!     .run()?;
//! assert!(report.outcome.is_verified());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod counterexample;
mod model;
pub mod parallel;
mod portfolio;
pub mod reduction;
pub mod rewrite;
mod session;
mod spec;
mod strategy;
mod vanishing;

pub use budget::{Budget, DeadlineToken};
pub use counterexample::{Counterexample, InputBit};
pub use model::{AlgebraicModel, ExtractError, GateFunction};
pub use parallel::ParallelReduction;
pub use portfolio::{Portfolio, PortfolioReport, StrategyRun};
pub use reduction::GreedyReduction;
pub use session::{Outcome, Phase, Progress, Report, RunStats, Session, SessionError};
pub use spec::{Spec, SpecError};
pub use strategy::{
    FanoutRewrite, IndexedLogicReductionRewrite, LogicReductionRewrite, Method, NoRewrite,
    PhaseContext, PhaseStats, ReductionStrategy, RewriteStrategy, Stop, XorRewrite,
};
pub use vanishing::{ClosureVanishing, VanishScratch, VanishingRules, VanishingTracker};

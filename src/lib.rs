//! # gbmv — Gröbner Basis Multiplier Verification
//!
//! A reproduction of *"Formal Verification of Integer Multipliers by Combining
//! Gröbner Basis with Logic Reduction"* (Sayed-Ahmed et al., DATE 2016).
//!
//! This facade crate re-exports the workspace crates under a single name:
//!
//! * [`netlist`] — gate-level circuit representation, simulation, analysis.
//! * [`genmul`] — generators for adders and multipliers in the architecture
//!   families evaluated by the paper (simple/Booth partial products, array /
//!   Wallace / Dadda / (4,2)-compressor / redundant-binary accumulation,
//!   ripple-carry / carry-lookahead / Brent-Kung / Kogge-Stone / Han-Carlson
//!   final adders).
//! * [`poly`] — multivariate polynomials over the Boolean domain with
//!   arbitrary-precision integer coefficients.
//! * [`sat`] — a CDCL SAT solver and miter-based combinational equivalence
//!   checking (the baseline the paper compares against).
//! * [`core`] — the membership-testing verifier: the [`core::Session`] API
//!   with typed [`core::Spec`]s, pluggable rewrite/reduction strategies
//!   ([`core::Method`] presets MT, MT-FO, MT-XOR, MT-LR, and the indexed
//!   engine MT-LR-PAR, which shards large substitution steps over worker
//!   threads), budgets with cooperative cancellation and a worker-thread
//!   knob, and the [`core::Portfolio`] driver that races several strategies
//!   (including the SAT baseline) against one extracted model.
//!
//! The most common entry points are re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use gbmv::genmul::{Accumulator, FinalAdder, MultiplierSpec, PartialProduct};
//! use gbmv::{Method, Session, Spec};
//!
//! // Generate a 4x4 Booth-encoded Wallace-tree multiplier with a
//! // carry-lookahead final adder and verify it with MT-LR.
//! let spec = MultiplierSpec::new(4, PartialProduct::Booth, Accumulator::Wallace,
//!                                FinalAdder::CarryLookAhead);
//! let netlist = spec.build();
//! let report = Session::extract(&netlist)?
//!     .spec(Spec::multiplier(4))
//!     .strategy(Method::MtLr)
//!     .run()?;
//! assert!(report.outcome.is_verified());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Racing MT-LR against the SAT miter baseline, first winner takes all:
//!
//! ```
//! use gbmv::genmul::MultiplierSpec;
//! use gbmv::{Method, Portfolio, Spec};
//!
//! let netlist = MultiplierSpec::parse("SP-AR-RC", 4).unwrap().build();
//! let report = Portfolio::extract(&netlist)?
//!     .spec(Spec::multiplier(4))
//!     .method(Method::MtLr)
//!     .sat_baseline(Some(200_000))
//!     .race()?;
//! assert!(report.verdict().unwrap().is_verified());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use gbmv_core as core;
pub use gbmv_genmul as genmul;
pub use gbmv_netlist as netlist;
pub use gbmv_poly as poly;
pub use gbmv_sat as sat;

pub use gbmv_core::{
    Budget, Counterexample, DeadlineToken, Method, Outcome, ParallelReduction, Portfolio, Report,
    Session, Spec,
};

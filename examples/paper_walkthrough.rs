//! Walks through the worked examples of the paper (Fig. 1 and Examples 1-3):
//! the full adder model, the fanout-rewritten ripple-carry adder, and the
//! vanishing monomials of a parallel-prefix adder.
//!
//! Run with `cargo run --release --example paper_walkthrough`.

use gbmv::core::{
    AlgebraicModel, FanoutRewrite, GreedyReduction, PhaseContext, PhaseStats, ReductionStrategy,
    RewriteStrategy, XorRewrite,
};
use gbmv::genmul::{build_adder, AdderKind};
use gbmv::netlist::Netlist;
use gbmv::poly::spec::{adder_spec, full_adder_spec};
use gbmv::poly::{Polynomial, Var};

fn main() {
    example1_full_adder();
    example2_ripple_carry_fanout_rewriting();
    example3_parallel_prefix_vanishing_monomials();
}

/// Algorithm 1 on its own: the scan reduction, without vanishing or
/// modulus, called directly with a default context.
fn reduce(model: &AlgebraicModel, spec: &Polynomial) -> (Polynomial, PhaseStats) {
    GreedyReduction { vanishing: false }.reduce(model, spec, &PhaseContext::default())
}

/// Example 1: the full adder of Fig. 1 — model extraction and GB reduction of
/// the specification `-2c - s + a + b + cin` down to remainder 0.
fn example1_full_adder() {
    println!("=== Example 1: full adder (Fig. 1) ===");
    let mut nl = Netlist::new("full_adder");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let cin = nl.add_input("cin");
    let x1 = nl.xor2(a, b, "x1");
    let s = nl.xor2(x1, cin, "s");
    let x3 = nl.and2(a, b, "x3");
    let x4 = nl.and2(x1, cin, "x4");
    let c = nl.or2(x3, x4, "c");
    nl.add_output("s", s);
    nl.add_output("c", c);

    let model = AlgebraicModel::from_netlist(&nl).expect("acyclic");
    println!("gate polynomials (g := -leading + tail):");
    for v in model.substitution_order() {
        println!(
            "  -{} + {}",
            model.name(v),
            model.render(model.tail(v).expect("gate polynomial"))
        );
    }
    let spec = full_adder_spec(Var(a.0), Var(b.0), Var(cin.0), Var(s.0), Var(c.0));
    println!("specification: {}", model.render(&spec));
    let (r, stats) = reduce(&model, &spec);
    println!(
        "reduction: stop {:?} after {} substitutions, remainder = {}",
        stats.stop,
        stats.substitutions,
        model.render(&r)
    );
    assert!(r.is_zero());
    println!();
}

/// Example 2: the 3-bit ripple carry adder — after fanout rewriting the model
/// depends only on carries, inputs and outputs, and the carry terms cancel
/// during the reduction.
fn example2_ripple_carry_fanout_rewriting() {
    println!("=== Example 2: 3-bit ripple carry adder, fanout rewriting ===");
    let nl = build_adder(3, AdderKind::RippleCarry, false);
    let mut model = AlgebraicModel::from_netlist(&nl).expect("acyclic");
    let before = model.num_polynomials();
    let stats = FanoutRewrite.rewrite(&mut model, &PhaseContext::default());
    println!(
        "fanout rewriting: {} -> {} polynomials ({} substitutions)",
        before,
        model.num_polynomials(),
        stats.substitutions
    );
    for v in model.substitution_order() {
        println!(
            "  -{} + {}",
            model.name(v),
            model.render(model.tail(v).expect("kept polynomial"))
        );
    }
    let a: Vec<Var> = (0..3)
        .map(|i| Var(nl.find_net(&format!("a{i}")).expect("input").0))
        .collect();
    let b: Vec<Var> = (0..3)
        .map(|i| Var(nl.find_net(&format!("b{i}")).expect("input").0))
        .collect();
    let s: Vec<Var> = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
    let spec = adder_spec(&a, &b, &s, None);
    let (r, rstats) = reduce(&model, &spec);
    println!(
        "reduction: stop {:?}, peak intermediate terms = {}, remainder = {}",
        rstats.stop,
        rstats.peak_terms,
        model.render(&r)
    );
    assert!(r.is_zero());
    println!();
}

/// Example 3 / Section IV: a parallel-prefix adder accumulates vanishing
/// monomials; XOR rewriting with the XOR-AND rule removes them before they
/// can blow up.
fn example3_parallel_prefix_vanishing_monomials() {
    println!("=== Example 3: Kogge-Stone adder, XOR rewriting + vanishing rule ===");
    for width in [4, 8, 16] {
        let nl = build_adder(width, AdderKind::KoggeStone, false);
        let mut model = AlgebraicModel::from_netlist(&nl).expect("acyclic");
        let stats = XorRewrite.rewrite(&mut model, &PhaseContext::default());
        let a: Vec<Var> = (0..width)
            .map(|i| Var(nl.find_net(&format!("a{i}")).expect("input").0))
            .collect();
        let b: Vec<Var> = (0..width)
            .map(|i| Var(nl.find_net(&format!("b{i}")).expect("input").0))
            .collect();
        let s: Vec<Var> = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let spec = adder_spec(&a, &b, &s, None);
        let (r, rstats) = reduce(&model, &spec);
        println!(
            "  width {width:>2}: cancelled vanishing monomials = {:>5}, peak terms = {:>6}, stop {:?}, remainder zero = {}",
            stats.cancelled_vanishing,
            rstats.peak_terms,
            rstats.stop,
            r.is_zero()
        );
        assert!(r.is_zero());
    }
    println!();
}

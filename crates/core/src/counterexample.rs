//! Typed counterexamples for rejected circuits.
//!
//! When the remainder of the Gröbner basis reduction is non-zero, the session
//! searches for a concrete input assignment on which the remainder evaluates
//! to a non-zero value and packages it as a [`Counterexample`]: the ordered
//! input assignment, the operand words the specification sees, and the two
//! evaluated output words (what the circuit produces vs. what the
//! specification demands).

use gbmv_poly::{Int, Polynomial, Var};

use crate::model::AlgebraicModel;
use crate::spec::Spec;

/// One primary-input assignment of a counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputBit {
    /// The net name of the primary input.
    pub name: String,
    /// The assigned value.
    pub value: bool,
}

/// A concrete input assignment exposing a specification mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Input assignments in primary-input declaration order.
    pub inputs: Vec<InputBit>,
    /// Operand words of the specification (e.g. `a` and `b` for a
    /// multiplier), empty for custom polynomial specifications.
    pub operands: Vec<(String, u128)>,
    /// The output word the circuit actually computes on these inputs
    /// (`None` when the output interface is wider than 128 bits).
    pub circuit_word: Option<u128>,
    /// The output word the specification demands (`None` for custom
    /// polynomial specifications).
    pub expected_word: Option<u128>,
}

impl Counterexample {
    /// The assigned value of the input named `name`, if it is a primary
    /// input.
    pub fn value(&self, name: &str) -> Option<bool> {
        self.inputs
            .iter()
            .find(|bit| bit.name == name)
            .map(|bit| bit.value)
    }

    /// The operand word labelled `label` (e.g. `"a"`), if known.
    pub fn operand(&self, label: &str) -> Option<u128> {
        self.operands
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, w)| w)
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.operands.is_empty() {
            let assignment: Vec<String> = self
                .inputs
                .iter()
                .map(|bit| format!("{}={}", bit.name, u8::from(bit.value)))
                .collect();
            write!(f, "{}", assignment.join(" "))?;
        } else {
            let words: Vec<String> = self
                .operands
                .iter()
                .map(|(l, w)| format!("{l}={w}"))
                .collect();
            write!(f, "{}", words.join(", "))?;
        }
        match (self.circuit_word, self.expected_word) {
            (Some(got), Some(want)) => {
                write!(f, ": circuit outputs {got}, specification expects {want}")
            }
            (Some(got), None) => write!(f, ": circuit outputs {got}"),
            _ => Ok(()),
        }
    }
}

/// Builds a [`Counterexample`] from a concrete assignment of the primary
/// inputs (declaration order), naming the bits and grounding the output
/// words from the pristine model, and the operand and expected words from
/// `spec`.
pub(crate) fn ground_assignment(
    model: &AlgebraicModel,
    spec: &Spec,
    values: &[bool],
) -> Counterexample {
    let model_inputs = model.inputs();
    let inputs: Vec<InputBit> = model_inputs
        .iter()
        .zip(values)
        .map(|(&v, &value)| InputBit {
            name: model.name(v).to_string(),
            value,
        })
        .collect();
    let assignment = |v: Var| {
        model_inputs
            .iter()
            .position(|&u| u == v)
            .map(|i| values[i])
            .unwrap_or(false)
    };
    let output_bits = model.evaluate(&assignment);
    let circuit_word = if output_bits.len() <= 128 {
        Some(
            output_bits
                .iter()
                .enumerate()
                .fold(0u128, |acc, (i, &b)| acc | (u128::from(b) << i)),
        )
    } else {
        None
    };
    Counterexample {
        inputs,
        operands: spec.operand_words(values),
        circuit_word,
        expected_word: spec.expected_word(values),
    }
}

/// Searches for an input assignment on which the remainder evaluates to a
/// value that is non-zero (modulo `2^k` if given). Returns the assignment in
/// primary-input declaration order.
///
/// The search is heuristic (monomial supports, pseudo-random patterns, then
/// exhaustive for small interfaces); a non-zero remainder whose witnesses are
/// sparse may legitimately return `None`.
pub(crate) fn find_assignment(
    model: &AlgebraicModel,
    remainder: &Polynomial,
    modulus_bits: Option<u32>,
) -> Option<Vec<bool>> {
    let inputs = model.inputs().to_vec();
    let nonzero = |value: &Int| match modulus_bits {
        Some(k) => !value.is_multiple_of_pow2(k),
        None => !value.is_zero(),
    };
    let to_values = |assignment: &dyn Fn(Var) -> bool| -> Vec<bool> {
        inputs.iter().map(|&v| assignment(v)).collect()
    };
    // Heuristic 1: for each monomial (smallest degree first), set exactly its
    // variables to one.
    let mut monomials: Vec<_> = remainder.iter().map(|(m, _)| m.clone()).collect();
    monomials.sort_by_key(|m| m.degree());
    for m in monomials.iter().take(64) {
        let assignment = |v: Var| m.contains(v);
        if nonzero(&remainder.eval_bool(&assignment)) {
            return Some(to_values(&assignment));
        }
    }
    // Heuristic 2: deterministic pseudo-random assignments.
    let mut seed: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..256 {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let bits = seed;
        let assignment = |v: Var| {
            let idx = inputs.iter().position(|&u| u == v).unwrap_or(0);
            (bits >> (idx % 64)) & 1 == 1
        };
        if nonzero(&remainder.eval_bool(&assignment)) {
            return Some(to_values(&assignment));
        }
    }
    // Heuristic 3: exhaustive for small interfaces.
    if inputs.len() <= 16 {
        for pattern in 0u32..(1u32 << inputs.len()) {
            let assignment = |v: Var| {
                let idx = inputs.iter().position(|&u| u == v).unwrap_or(0);
                (pattern >> idx) & 1 == 1
            };
            if nonzero(&remainder.eval_bool(&assignment)) {
                return Some(to_values(&assignment));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_operands() {
        let cex = Counterexample {
            inputs: vec![
                InputBit {
                    name: "a0".into(),
                    value: true,
                },
                InputBit {
                    name: "b0".into(),
                    value: true,
                },
            ],
            operands: vec![("a".to_string(), 1), ("b".to_string(), 1)],
            circuit_word: Some(0),
            expected_word: Some(1),
        };
        assert_eq!(
            cex.to_string(),
            "a=1, b=1: circuit outputs 0, specification expects 1"
        );
        assert_eq!(cex.value("a0"), Some(true));
        assert_eq!(cex.value("zzz"), None);
        assert_eq!(cex.operand("b"), Some(1));
    }

    #[test]
    fn display_without_operands() {
        let cex = Counterexample {
            inputs: vec![InputBit {
                name: "x".into(),
                value: false,
            }],
            operands: Vec::new(),
            circuit_word: Some(3),
            expected_word: None,
        };
        assert_eq!(cex.to_string(), "x=0: circuit outputs 3");
    }
}

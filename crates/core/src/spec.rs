//! First-class specifications.
//!
//! A [`Spec`] describes *what* a circuit is supposed to compute, independently
//! of any particular netlist: an unsigned or signed (two's-complement)
//! multiplier, an adder with or without carry-in, or an arbitrary user
//! polynomial. A session [instantiates](Spec::instantiate) the spec against an
//! extracted model, which binds the abstract word-level definition to the
//! concrete input/output bit variables — fallibly, so an interface mismatch is
//! an error value instead of a panic.

use gbmv_poly::{spec as polyspec, Int, Monomial, Polynomial, Var};

use crate::model::AlgebraicModel;

/// Why a specification could not be instantiated against a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The circuit interface does not match the specification.
    InterfaceMismatch {
        /// The specification's display name.
        spec: String,
        /// What the specification expects vs. what the netlist provides.
        detail: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::InterfaceMismatch { spec, detail } => {
                write!(
                    f,
                    "specification `{spec}` does not fit the netlist: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

#[derive(Debug, Clone)]
enum SpecKind {
    UnsignedMultiplier { width: usize },
    SignedMultiplier { width: usize },
    Adder { width: usize, carry_in: bool },
    Custom { name: String, poly: Polynomial },
}

/// A word-level specification, instantiated against a model by a
/// [`crate::Session`].
///
/// The built-in constructors assume the interface conventions of
/// `gbmv_genmul`: operand `a` bits first, then operand `b` bits (then the
/// carry-in, if any) as primary inputs, and the result bits in ascending
/// weight order as primary outputs.
#[derive(Debug, Clone)]
pub struct Spec {
    kind: SpecKind,
    /// `Some(k)`: check the remainder modulo `2^k`; `None`: exact. Each
    /// constructor sets it; [`Spec::with_modulus_bits`] overwrites it.
    modulus_bits: Option<u32>,
}

impl Spec {
    /// The unsigned `width x width` multiplier specification
    /// `sum 2^i s_i = (sum 2^i a_i)(sum 2^i b_i)  mod 2^(2*width)`.
    pub fn multiplier(width: usize) -> Spec {
        Spec {
            kind: SpecKind::UnsignedMultiplier { width },
            modulus_bits: Some(2 * width as u32),
        }
    }

    /// The signed (two's-complement) `width x width` multiplier specification:
    /// both operands and the `2*width`-bit product are interpreted in two's
    /// complement, checked modulo `2^(2*width)`.
    pub fn signed_multiplier(width: usize) -> Spec {
        Spec {
            kind: SpecKind::SignedMultiplier { width },
            modulus_bits: Some(2 * width as u32),
        }
    }

    /// The unsigned `width`-bit adder specification with `width + 1` outputs
    /// (sum bits then carry-out) and no carry-in.
    pub fn adder(width: usize) -> Spec {
        Spec {
            kind: SpecKind::Adder {
                width,
                carry_in: false,
            },
            modulus_bits: None,
        }
    }

    /// Like [`Spec::adder`], with a carry-in as the last primary input.
    pub fn adder_with_carry_in(width: usize) -> Spec {
        Spec {
            kind: SpecKind::Adder {
                width,
                carry_in: true,
            },
            modulus_bits: None,
        }
    }

    /// An arbitrary user specification polynomial over the model's variables.
    /// The circuit is correct iff the polynomial reduces to zero (modulo
    /// `2^k` if set via [`Spec::with_modulus_bits`]).
    pub fn polynomial(name: impl Into<String>, poly: Polynomial) -> Spec {
        Spec {
            kind: SpecKind::Custom {
                name: name.into(),
                poly,
            },
            modulus_bits: None,
        }
    }

    /// Overrides the modulus of the zero test: `Some(k)` checks the remainder
    /// modulo `2^k`, `None` demands an exactly-zero remainder. The default is
    /// `2^(2*width)` for multipliers and exact for adders and custom
    /// polynomials.
    pub fn with_modulus_bits(mut self, bits: Option<u32>) -> Spec {
        self.modulus_bits = bits;
        self
    }

    /// A short display name (e.g. `mul8u`, `mul4s`, `add6+cin`).
    pub fn name(&self) -> String {
        match &self.kind {
            SpecKind::UnsignedMultiplier { width } => format!("mul{width}u"),
            SpecKind::SignedMultiplier { width } => format!("mul{width}s"),
            SpecKind::Adder { width, carry_in } => {
                format!("add{width}{}", if *carry_in { "+cin" } else { "" })
            }
            SpecKind::Custom { name, .. } => name.clone(),
        }
    }

    /// The operand width if this is an unsigned multiplier specification
    /// (what the SAT miter baseline of a portfolio supports).
    pub(crate) fn unsigned_multiplier_width(&self) -> Option<usize> {
        match self.kind {
            SpecKind::UnsignedMultiplier { width } => Some(width),
            _ => None,
        }
    }

    /// The modulus of the zero test for this specification (see
    /// [`Spec::with_modulus_bits`]).
    pub fn modulus_bits(&self) -> Option<u32> {
        self.modulus_bits
    }

    /// Binds the specification to a concrete model, producing the
    /// specification polynomial over the model's input/output variables and
    /// the modulus of the zero test.
    ///
    /// Fails with [`SpecError::InterfaceMismatch`] when the model's interface
    /// does not have the expected shape.
    pub fn instantiate(
        &self,
        model: &AlgebraicModel,
    ) -> Result<(Polynomial, Option<u32>), SpecError> {
        let inputs = model.inputs();
        let outputs = model.outputs();
        let mismatch = |detail: String| SpecError::InterfaceMismatch {
            spec: self.name(),
            detail,
        };
        let poly = match &self.kind {
            SpecKind::UnsignedMultiplier { width } | SpecKind::SignedMultiplier { width } => {
                let signed = matches!(self.kind, SpecKind::SignedMultiplier { .. });
                if inputs.len() != 2 * width || outputs.len() != 2 * width {
                    return Err(mismatch(format!(
                        "expected {} inputs and {} outputs, netlist has {} and {}",
                        2 * width,
                        2 * width,
                        inputs.len(),
                        outputs.len()
                    )));
                }
                let a = &inputs[..*width];
                let b = &inputs[*width..];
                if signed {
                    let pa = signed_weighted_sum(a);
                    let pb = signed_weighted_sum(b);
                    &polyspec::weighted_sum(outputs, true) + &(&pa * &pb)
                } else {
                    polyspec::multiplier_spec(a, b, outputs)
                }
            }
            SpecKind::Adder { width, carry_in } => {
                let expected_inputs = 2 * width + usize::from(*carry_in);
                if inputs.len() != expected_inputs || outputs.len() != width + 1 {
                    return Err(mismatch(format!(
                        "expected {} inputs and {} outputs, netlist has {} and {}",
                        expected_inputs,
                        width + 1,
                        inputs.len(),
                        outputs.len()
                    )));
                }
                let a = &inputs[..*width];
                let b = &inputs[*width..2 * width];
                let cin = carry_in.then(|| inputs[2 * width]);
                polyspec::adder_spec(a, b, outputs, cin)
            }
            SpecKind::Custom { poly, .. } => poly.clone(),
        };
        Ok((poly, self.modulus_bits()))
    }

    /// The operand words of this specification under a concrete input
    /// assignment (`inputs` in declaration order), as `(label, value)` pairs —
    /// e.g. `[("a", 3), ("b", 5)]`. Empty for custom polynomial specs and for
    /// interfaces wider than 128 bits per operand.
    pub(crate) fn operand_words(&self, inputs: &[bool]) -> Vec<(String, u128)> {
        let word = |bits: &[bool]| -> Option<u128> {
            if bits.len() > 128 {
                return None;
            }
            Some(
                bits.iter()
                    .enumerate()
                    .fold(0u128, |acc, (i, &b)| acc | (u128::from(b) << i)),
            )
        };
        match &self.kind {
            SpecKind::UnsignedMultiplier { width } | SpecKind::SignedMultiplier { width } => {
                if inputs.len() != 2 * width {
                    return Vec::new();
                }
                let (a, b) = (word(&inputs[..*width]), word(&inputs[*width..]));
                match (a, b) {
                    (Some(a), Some(b)) => vec![("a".to_string(), a), ("b".to_string(), b)],
                    _ => Vec::new(),
                }
            }
            SpecKind::Adder { width, carry_in } => {
                if inputs.len() != 2 * width + usize::from(*carry_in) {
                    return Vec::new();
                }
                let mut words = match (word(&inputs[..*width]), word(&inputs[*width..2 * width])) {
                    (Some(a), Some(b)) => vec![("a".to_string(), a), ("b".to_string(), b)],
                    _ => return Vec::new(),
                };
                if *carry_in {
                    words.push(("cin".to_string(), u128::from(inputs[2 * width])));
                }
                words
            }
            SpecKind::Custom { .. } => Vec::new(),
        }
    }

    /// The output word this specification demands for the given input
    /// assignment, as an unsigned word over the output bits (`None` for
    /// custom polynomial specs or interfaces too wide for `u128`).
    pub(crate) fn expected_word(&self, inputs: &[bool]) -> Option<u128> {
        let words = self.operand_words(inputs);
        match &self.kind {
            SpecKind::UnsignedMultiplier { width } => {
                if *width == 0 || 2 * width > 127 || words.len() != 2 {
                    return None;
                }
                let modulus = 1u128 << (2 * width);
                Some(words[0].1.wrapping_mul(words[1].1) % modulus)
            }
            SpecKind::SignedMultiplier { width } => {
                if *width == 0 || 2 * width > 126 || words.len() != 2 {
                    return None;
                }
                let to_signed = |w: u128| -> i128 {
                    let sign = 1u128 << (width - 1);
                    if w & sign != 0 {
                        w as i128 - (1i128 << width)
                    } else {
                        w as i128
                    }
                };
                let product = to_signed(words[0].1) * to_signed(words[1].1);
                let modulus = 1i128 << (2 * width);
                Some(product.rem_euclid(modulus) as u128)
            }
            SpecKind::Adder { width, carry_in } => {
                if *width >= 127 || words.len() != 2 + usize::from(*carry_in) {
                    return None;
                }
                let cin = if *carry_in { words[2].1 } else { 0 };
                Some(words[0].1 + words[1].1 + cin)
            }
            SpecKind::Custom { .. } => None,
        }
    }
}

/// The two's-complement weighted sum `sum_{i<n-1} 2^i b_i - 2^(n-1) b_{n-1}`.
fn signed_weighted_sum(bits: &[Var]) -> Polynomial {
    let mut p = Polynomial::with_capacity(bits.len());
    for (i, &v) in bits.iter().enumerate() {
        let mut c = Int::pow2(i as u32);
        if i + 1 == bits.len() {
            c = -c;
        }
        p.add_term(Monomial::var(v), c);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmv_genmul::{build_adder, AdderKind, MultiplierSpec};

    fn model(arch: &str, width: usize) -> AlgebraicModel {
        let nl = MultiplierSpec::parse(arch, width).unwrap().build();
        AlgebraicModel::from_netlist(&nl).unwrap()
    }

    #[test]
    fn multiplier_spec_instantiates() {
        let m = model("SP-AR-RC", 4);
        let (poly, modulus) = Spec::multiplier(4).instantiate(&m).unwrap();
        assert_eq!(modulus, Some(8));
        assert!(poly.num_terms() > 8);
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let m = model("SP-AR-RC", 4);
        let err = Spec::multiplier(8).instantiate(&m).unwrap_err();
        let SpecError::InterfaceMismatch { spec, detail } = err;
        assert_eq!(spec, "mul8u");
        assert!(detail.contains("16"), "{detail}");
        assert!(Spec::adder(4).instantiate(&m).is_err());
    }

    #[test]
    fn adder_spec_instantiates_with_and_without_carry() {
        let nl = build_adder(4, AdderKind::BrentKung, true);
        let m = AlgebraicModel::from_netlist(&nl).unwrap();
        assert!(Spec::adder_with_carry_in(4).instantiate(&m).is_ok());
        assert!(Spec::adder(4).instantiate(&m).is_err());
    }

    /// Positive check of the signed spec polynomial: evaluated with the
    /// outputs forced to the true two's-complement product, it vanishes
    /// modulo `2^(2n)` for every operand pair — and does not vanish when the
    /// product is off by one.
    #[test]
    fn signed_spec_vanishes_on_correct_signed_products() {
        use gbmv_poly::Var;
        for width in [2usize, 3] {
            let arch = "SP-AR-RC";
            let m = model(arch, width);
            let (poly, modulus) = Spec::signed_multiplier(width).instantiate(&m).unwrap();
            let k = modulus.unwrap();
            let inputs: Vec<Var> = m.inputs().to_vec();
            let outputs: Vec<Var> = m.outputs().to_vec();
            let to_signed = |w: i64| {
                if w & (1 << (width - 1)) != 0 {
                    w - (1 << width)
                } else {
                    w
                }
            };
            for a in 0..(1i64 << width) {
                for b in 0..(1i64 << width) {
                    let product = to_signed(a) * to_signed(b);
                    let correct = product.rem_euclid(1 << (2 * width));
                    for (s, expect_zero) in
                        [(correct, true), ((correct + 1) % (1 << (2 * width)), false)]
                    {
                        let assignment = |v: Var| {
                            if let Some(i) = inputs.iter().position(|&u| u == v) {
                                if i < width {
                                    (a >> i) & 1 == 1
                                } else {
                                    (b >> (i - width)) & 1 == 1
                                }
                            } else if let Some(i) = outputs.iter().position(|&u| u == v) {
                                (s >> i) & 1 == 1
                            } else {
                                false
                            }
                        };
                        let value = poly.eval_bool(&assignment);
                        assert_eq!(
                            value.is_multiple_of_pow2(k),
                            expect_zero,
                            "a={a} b={b} s={s} width={width}: spec value {value}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn signed_spec_differs_from_unsigned() {
        let m = model("SP-AR-RC", 4);
        let (unsigned, _) = Spec::multiplier(4).instantiate(&m).unwrap();
        let (signed, _) = Spec::signed_multiplier(4).instantiate(&m).unwrap();
        assert_ne!(unsigned, signed);
    }

    #[test]
    fn expected_words() {
        // a = 13 (0b1101), b = 9 (0b1001) at width 4.
        let bits = |w: u128, n: usize| (0..n).map(|i| (w >> i) & 1 == 1).collect::<Vec<_>>();
        let mut inputs = bits(13, 4);
        inputs.extend(bits(9, 4));
        assert_eq!(Spec::multiplier(4).expected_word(&inputs), Some(117));
        // Signed: 13 -> -3, 9 -> -7; (-3)(-7) = 21.
        assert_eq!(Spec::signed_multiplier(4).expected_word(&inputs), Some(21));
        assert_eq!(Spec::adder(4).expected_word(&inputs), Some(22));
        let ops = Spec::multiplier(4).operand_words(&inputs);
        assert_eq!(ops, vec![("a".to_string(), 13), ("b".to_string(), 9)]);
    }

    #[test]
    fn modulus_override() {
        let spec = Spec::multiplier(4).with_modulus_bits(None);
        assert_eq!(spec.modulus_bits(), None);
        let spec = Spec::adder(4).with_modulus_bits(Some(5));
        assert_eq!(spec.modulus_bits(), Some(5));
    }
}

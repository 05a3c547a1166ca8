//! Runtime scalar values with precision-faithful arithmetic.

use crate::types::{Precision, ScalarType};
use core::fmt;
use prescaler_fp16::F16;

/// A runtime scalar value in the interpreter.
///
/// Float arithmetic on mixed precisions promotes to the wider operand and
/// computes *in that precision*: half×half is true binary16 multiplication
/// (via [`prescaler_fp16`]), not f64 math rounded later. This is what makes
/// the reproduction's accuracy losses real rather than modelled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scalar {
    /// Binary16 float.
    F16(F16),
    /// Binary32 float.
    F32(f32),
    /// Binary64 float.
    F64(f64),
    /// 64-bit signed integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
}

impl Scalar {
    /// The float value `v` at precision `p` (rounding once).
    #[must_use]
    pub fn float(v: f64, p: Precision) -> Scalar {
        match p {
            Precision::Half => Scalar::F16(F16::from_f64(v)),
            Precision::Single => Scalar::F32(v as f32),
            Precision::Double => Scalar::F64(v),
        }
    }

    /// The type of this value.
    #[must_use]
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            Scalar::F16(_) => ScalarType::Float(Precision::Half),
            Scalar::F32(_) => ScalarType::Float(Precision::Single),
            Scalar::F64(_) => ScalarType::Float(Precision::Double),
            Scalar::Int(_) => ScalarType::Int,
            Scalar::Bool(_) => ScalarType::Bool,
        }
    }

    /// Widens any numeric value to `f64` (exact for every float precision).
    ///
    /// # Panics
    ///
    /// Panics on `Bool`.
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        match self {
            Scalar::F16(x) => x.to_f64(),
            Scalar::F32(x) => f64::from(*x),
            Scalar::F64(x) => *x,
            Scalar::Int(x) => *x as f64,
            Scalar::Bool(_) => panic!("boolean used as a number"),
        }
    }

    /// Integer view.
    ///
    /// # Panics
    ///
    /// Panics unless the value is `Int`.
    #[must_use]
    pub fn as_int(&self) -> i64 {
        match self {
            Scalar::Int(x) => *x,
            other => panic!("expected an integer, found {other:?}"),
        }
    }

    /// Boolean view.
    ///
    /// # Panics
    ///
    /// Panics unless the value is `Bool`.
    #[must_use]
    pub fn as_bool(&self) -> bool {
        match self {
            Scalar::Bool(x) => *x,
            other => panic!("expected a boolean, found {other:?}"),
        }
    }

    /// Numeric view, or `None` for booleans — the non-panicking twin of
    /// [`Scalar::as_f64`] for callers that must degrade on malformed
    /// kernels instead of aborting.
    #[must_use]
    pub fn try_f64(&self) -> Option<f64> {
        match self {
            Scalar::Bool(_) => None,
            other => Some(other.as_f64()),
        }
    }

    /// Integer view, or `None` unless the value is `Int`.
    #[must_use]
    pub fn try_int(&self) -> Option<i64> {
        match self {
            Scalar::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// Boolean view, or `None` unless the value is `Bool`.
    #[must_use]
    pub fn try_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(x) => Some(*x),
            _ => None,
        }
    }

    /// Converts to the given float precision with a single rounding, as an
    /// explicit `convert_<type>()` OpenCL call or C cast would.
    #[must_use]
    pub fn cast_float(&self, p: Precision) -> Scalar {
        Scalar::float(self.as_f64(), p)
    }

    /// The precision this value computes in, if it is a float.
    #[must_use]
    pub fn precision(&self) -> Option<Precision> {
        self.scalar_type().precision()
    }

    /// Applies a binary float operation at the promoted precision of the
    /// operands. Integer operands are promoted to the other side's float
    /// precision (or compute exactly as integers when both are ints).
    #[must_use]
    pub fn binop(op: FloatBinOp, a: Scalar, b: Scalar) -> Scalar {
        match (a, b) {
            (Scalar::Int(x), Scalar::Int(y)) => Scalar::Int(op.apply_int(x, y)),
            _ => {
                // Bool operands are a type error caught by the checker;
                // default to double for robustness.
                let p = promote(a.precision(), b.precision()).unwrap_or(Precision::Double);
                match p {
                    Precision::Half => {
                        let x = F16::from_f64(a.as_f64());
                        let y = F16::from_f64(b.as_f64());
                        Scalar::F16(op.apply_f16(x, y))
                    }
                    Precision::Single => {
                        let x = a.as_f64() as f32;
                        let y = b.as_f64() as f32;
                        Scalar::F32(op.apply_f32(x, y))
                    }
                    Precision::Double => Scalar::F64(op.apply_f64(a.as_f64(), b.as_f64())),
                }
            }
        }
    }

    /// Compares two numeric values: two integers exactly as `i64`,
    /// anything else in `f64` (exact for every float precision; an integer
    /// against a float widens like `i as f64`).
    #[must_use]
    pub fn compare(op: CmpOp, a: Scalar, b: Scalar) -> Scalar {
        Scalar::Bool(match (a, b) {
            (Scalar::Int(x), Scalar::Int(y)) => op.apply(x, y),
            _ => op.apply(a.as_f64(), b.as_f64()),
        })
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::F16(x) => write!(f, "{x}"),
            Scalar::F32(x) => write!(f, "{x}"),
            Scalar::F64(x) => write!(f, "{x}"),
            Scalar::Int(x) => write!(f, "{x}"),
            Scalar::Bool(x) => write!(f, "{x}"),
        }
    }
}

/// The promotion rule of a binary operation, given each operand's float
/// precision (`None` for a non-float): the wider float precision, or the
/// float side's precision against an integer. `None` when neither operand
/// is a float, i.e. integer arithmetic. Shared by the type checker, both
/// engines and [`Scalar::binop`].
#[inline]
#[must_use]
pub(crate) fn promote(a: Option<Precision>, b: Option<Precision>) -> Option<Precision> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

/// Arithmetic binary operators on floats (and ints, for index math).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FloatBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum (IEEE `minNum` semantics on floats).
    Min,
    /// Maximum (IEEE `maxNum` semantics on floats).
    Max,
}

impl FloatBinOp {
    /// The op in binary64. Shared by the interpreter and the VM, so the
    /// two agree bit for bit (NaNs included, see [`first_nan_f64`]).
    #[inline]
    pub(crate) fn apply_f64(self, x: f64, y: f64) -> f64 {
        first_nan_f64(
            x,
            match self {
                FloatBinOp::Add => x + y,
                FloatBinOp::Sub => x - y,
                FloatBinOp::Mul => x * y,
                FloatBinOp::Div => x / y,
                FloatBinOp::Min => x.min(y),
                FloatBinOp::Max => x.max(y),
            },
        )
    }

    /// The op in binary32 (see [`FloatBinOp::apply_f64`]).
    #[inline]
    pub(crate) fn apply_f32(self, x: f32, y: f32) -> f32 {
        first_nan_f32(
            x,
            match self {
                FloatBinOp::Add => x + y,
                FloatBinOp::Sub => x - y,
                FloatBinOp::Mul => x * y,
                FloatBinOp::Div => x / y,
                FloatBinOp::Min => x.min(y),
                FloatBinOp::Max => x.max(y),
            },
        )
    }

    /// The op in binary16: widen to f32, compute, round once. The f32
    /// significand (24 bits ≥ 2·11 + 2) makes that double rounding
    /// innocuous (Figueroa), so this is correctly rounded binary16
    /// arithmetic, rounded like the [`F16`] operators.
    fn apply_f16(self, x: F16, y: F16) -> F16 {
        F16::from_f32(self.apply_f32(x.to_f32(), y.to_f32()))
    }

    /// The op on integers: wrapping arithmetic, with division by zero
    /// defined as 0. Shared by both engines and constant folding.
    #[inline]
    pub(crate) fn apply_int(self, x: i64, y: i64) -> i64 {
        match self {
            FloatBinOp::Add => x.wrapping_add(y),
            FloatBinOp::Sub => x.wrapping_sub(y),
            FloatBinOp::Mul => x.wrapping_mul(y),
            FloatBinOp::Div => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_div(y)
                }
            }
            FloatBinOp::Min => x.min(y),
            FloatBinOp::Max => x.max(y),
        }
    }

    /// The C spelling of the operator (`min`/`max` print as calls).
    #[must_use]
    pub const fn c_symbol(self) -> &'static str {
        match self {
            FloatBinOp::Add => "+",
            FloatBinOp::Sub => "-",
            FloatBinOp::Mul => "*",
            FloatBinOp::Div => "/",
            FloatBinOp::Min => "min",
            FloatBinOp::Max => "max",
        }
    }
}

/// Pins the NaN a binary op returns when its first operand `x` is NaN and
/// so is the raw result `r`: `x` itself, quietened. IEEE 754 leaves the
/// choice between two NaN operands open, and the compiler may commute
/// `+`, `*`, `min` and `max` at any call site, so without this pin two
/// engines computing the same op could return NaNs of different sign or
/// payload. A NaN from a single NaN operand or from an invalid operation
/// (`inf - inf`) is already deterministic and passes through.
#[inline(always)]
fn first_nan_f64(x: f64, r: f64) -> f64 {
    if r.is_nan() && x.is_nan() {
        f64::from_bits(x.to_bits() | 1 << 51)
    } else {
        r
    }
}

/// [`first_nan_f64`] in binary32.
#[inline(always)]
fn first_nan_f32(x: f32, r: f32) -> f32 {
    if r.is_nan() && x.is_nan() {
        f32::from_bits(x.to_bits() | 1 << 22)
    } else {
        r
    }
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Evaluates the comparison. Shared by both engines and constant
    /// folding; on floats every comparison with a NaN is false except `!=`.
    #[inline]
    pub(crate) fn apply<T: PartialOrd>(self, x: T, y: T) -> bool {
        match self {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        }
    }

    /// The C spelling of the operator.
    #[must_use]
    pub const fn c_symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

/// Unary built-in math functions available to kernels.
///
/// On `Half` operands these compute by widening to `f32` and rounding back,
/// matching how GPU half-precision math libraries implement them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnaryFn {
    /// Negation.
    Neg,
    /// Absolute value.
    Fabs,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
}

impl UnaryFn {
    /// Applies the function at the operand's precision.
    #[must_use]
    pub fn apply(self, x: Scalar) -> Scalar {
        match x {
            Scalar::Int(v) => match self {
                UnaryFn::Neg => Scalar::Int(v.wrapping_neg()),
                UnaryFn::Fabs => Scalar::Int(v.wrapping_abs()),
                _ => Scalar::F64(self.apply_f64(v as f64)),
            },
            Scalar::F16(v) => Scalar::F16(match self {
                UnaryFn::Neg => -v,
                UnaryFn::Fabs => v.abs(),
                UnaryFn::Sqrt => v.sqrt(),
                UnaryFn::Exp => F16::from_f32(v.to_f32().exp()),
                UnaryFn::Log => F16::from_f32(v.to_f32().ln()),
            }),
            Scalar::F32(v) => Scalar::F32(match self {
                UnaryFn::Neg => -v,
                UnaryFn::Fabs => v.abs(),
                UnaryFn::Sqrt => v.sqrt(),
                UnaryFn::Exp => v.exp(),
                UnaryFn::Log => v.ln(),
            }),
            Scalar::F64(v) => Scalar::F64(self.apply_f64(v)),
            Scalar::Bool(_) => panic!("boolean passed to a math function"),
        }
    }

    fn apply_f64(self, v: f64) -> f64 {
        match self {
            UnaryFn::Neg => -v,
            UnaryFn::Fabs => v.abs(),
            UnaryFn::Sqrt => v.sqrt(),
            UnaryFn::Exp => v.exp(),
            UnaryFn::Log => v.ln(),
        }
    }

    /// The C spelling of the function.
    #[must_use]
    pub const fn c_name(self) -> &'static str {
        match self {
            UnaryFn::Neg => "-",
            UnaryFn::Fabs => "fabs",
            UnaryFn::Sqrt => "sqrt",
            UnaryFn::Exp => "exp",
            UnaryFn::Log => "log",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_precision_promotes_to_wider() {
        let a = Scalar::F16(F16::from_f32(1.5));
        let b = Scalar::F32(2.5);
        let r = Scalar::binop(FloatBinOp::Add, a, b);
        assert_eq!(r.scalar_type(), ScalarType::Float(Precision::Single));
        assert_eq!(r.as_f64(), 4.0);
    }

    #[test]
    fn half_arithmetic_actually_loses_precision() {
        let a = Scalar::float(2048.0, Precision::Half);
        let b = Scalar::float(1.0, Precision::Half);
        let r = Scalar::binop(FloatBinOp::Add, a, b);
        assert_eq!(r.as_f64(), 2048.0, "binary16 cannot represent 2049");
        let rd = Scalar::binop(
            FloatBinOp::Add,
            Scalar::float(2048.0, Precision::Double),
            Scalar::float(1.0, Precision::Double),
        );
        assert_eq!(rd.as_f64(), 2049.0);
    }

    #[test]
    fn int_arithmetic_is_exact() {
        let r = Scalar::binop(FloatBinOp::Mul, Scalar::Int(1 << 40), Scalar::Int(3));
        assert_eq!(r.as_int(), 3 << 40);
        let d = Scalar::binop(FloatBinOp::Div, Scalar::Int(7), Scalar::Int(2));
        assert_eq!(d.as_int(), 3);
        let z = Scalar::binop(FloatBinOp::Div, Scalar::Int(7), Scalar::Int(0));
        assert_eq!(z.as_int(), 0, "division by zero is defined as 0 in the IR");
    }

    #[test]
    fn int_float_mix_promotes_to_float_side() {
        let r = Scalar::binop(FloatBinOp::Div, Scalar::F32(1.0), Scalar::Int(3));
        assert_eq!(r.scalar_type(), ScalarType::Float(Precision::Single));
        assert_eq!(r.as_f64(), f64::from(1.0f32 / 3.0f32));
    }

    #[test]
    fn comparisons_yield_bools() {
        assert!(Scalar::compare(CmpOp::Lt, Scalar::Int(1), Scalar::Int(2)).as_bool());
        assert!(Scalar::compare(CmpOp::Ge, Scalar::F64(2.0), Scalar::F64(2.0)).as_bool());
        assert!(!Scalar::compare(CmpOp::Ne, Scalar::F32(1.0), Scalar::Int(1)).as_bool());
        // Integers compare exactly: through f64, 2^53 + 1 would round to
        // 2^53 and compare equal.
        let (big, below) = (Scalar::Int((1 << 53) + 1), Scalar::Int(1 << 53));
        assert!(Scalar::compare(CmpOp::Gt, big, below).as_bool());
        assert!(Scalar::compare(CmpOp::Ne, big, below).as_bool());
        assert!(!Scalar::compare(CmpOp::Le, big, below).as_bool());
    }

    #[test]
    fn cast_float_rounds_once() {
        let x = Scalar::F64(1.0 + 2f64.powi(-11));
        assert_eq!(x.cast_float(Precision::Half).as_f64(), 1.0);
        assert_eq!(x.cast_float(Precision::Double), x);
    }

    #[test]
    fn unary_fns_respect_precision() {
        let h = Scalar::float(2.0, Precision::Half);
        let r = UnaryFn::Sqrt.apply(h);
        assert_eq!(r.scalar_type(), ScalarType::Float(Precision::Half));
        assert_eq!(r.as_f64(), F16::from_f64(2f64.sqrt()).to_f64());
        assert_eq!(UnaryFn::Neg.apply(Scalar::Int(5)).as_int(), -5);
        assert_eq!(UnaryFn::Fabs.apply(Scalar::F64(-3.0)).as_f64(), 3.0);
    }

    #[test]
    #[should_panic(expected = "expected an integer")]
    fn as_int_panics_on_float() {
        let _ = Scalar::F64(1.0).as_int();
    }

    #[test]
    fn two_nan_operands_return_the_first_quietened() {
        // Opposite signs and distinct payloads, the first one signalling:
        // every op at every precision returns the first NaN, quietened.
        let (x, y) = (f64::from_bits(0xFFF0_0000_0000_0001 | 1 << 50), f64::NAN);
        let quiet_x = x.to_bits() | 1 << 51;
        for op in [
            FloatBinOp::Add,
            FloatBinOp::Sub,
            FloatBinOp::Mul,
            FloatBinOp::Div,
            FloatBinOp::Min,
            FloatBinOp::Max,
        ] {
            assert_eq!(op.apply_f64(x, y).to_bits(), quiet_x, "{op:?} f64");
            assert_eq!(op.apply_f64(y, x).to_bits(), y.to_bits(), "{op:?} f64");
            let (xs, ys) = (x as f32, y as f32);
            let r = Scalar::binop(op, Scalar::F32(xs), Scalar::F32(ys)).as_f64();
            assert_eq!((r as f32).to_bits(), xs.to_bits() | 1 << 22, "{op:?} f32");
            let (xh, yh) = (F16::from_bits(0xFD01), F16::from_bits(0x7E00));
            let r = Scalar::binop(op, Scalar::F16(xh), Scalar::F16(yh)).as_f64();
            assert_eq!(F16::from_f64(r).to_bits(), 0xFF01, "{op:?} f16");
        }
    }

    #[test]
    fn min_max_ops() {
        assert_eq!(
            Scalar::binop(FloatBinOp::Max, Scalar::F64(1.0), Scalar::F64(2.0)).as_f64(),
            2.0
        );
        assert_eq!(
            Scalar::binop(FloatBinOp::Min, Scalar::Int(4), Scalar::Int(2)).as_int(),
            2
        );
    }
}

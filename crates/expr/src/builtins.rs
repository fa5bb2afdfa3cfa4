//! Builtin function library available inside Ark expressions.
//!
//! The paper's case studies use `pulse` (TLN input waveform, §4.4), `sat`
//! (ideal CNN saturation) and `sat_ni` (non-ideal MOS saturation, §7.1).
//! `sat`/`sat_ni` are single-argument and handled as [`UnaryOp`]s in the AST;
//! this module hosts the remaining multi-argument builtins and the lookup
//! used by both the tree-walking evaluator and the program compiler.
//!
//! [`UnaryOp`]: crate::UnaryOp

use crate::error::EvalError;

/// Trapezoidal pulse of unit amplitude starting at `t0` with total width
/// `width`. The rise and fall edges each occupy 20% of the width, keeping
/// the waveform band-limited enough that a discretized transmission line
/// (segment delay ≪ ramp time) carries it without dispersive overshoot,
/// matching the paper's `pulse(t, 0, 2e-8)` input (§4.4).
///
/// # Examples
///
/// ```
/// use ark_expr::builtins::pulse;
/// assert_eq!(pulse(-1.0, 0.0, 2.0), 0.0);
/// assert_eq!(pulse(1.0, 0.0, 2.0), 1.0);   // plateau
/// assert_eq!(pulse(3.0, 0.0, 2.0), 0.0);   // after the pulse
/// ```
pub fn pulse(t: f64, t0: f64, width: f64) -> f64 {
    if width <= 0.0 {
        return 0.0;
    }
    let ramp = 0.2 * width;
    let x = t - t0;
    if x <= 0.0 || x >= width {
        0.0
    } else if x < ramp {
        x / ramp
    } else if x > width - ramp {
        (width - x) / ramp
    } else {
        1.0
    }
}

/// Rectangular (ideal) pulse of unit amplitude on `[t0, t0 + width)`.
pub fn square_pulse(t: f64, t0: f64, width: f64) -> f64 {
    if t >= t0 && t < t0 + width {
        1.0
    } else {
        0.0
    }
}

/// Smooth logistic step centered at `t0` with transition scale `tau`.
pub fn smoothstep(t: f64, t0: f64, tau: f64) -> f64 {
    1.0 / (1.0 + (-(t - t0) / tau).exp())
}

/// The smaller of `a` and `b`, with every case pinned: `b` when `a` is NaN
/// or `b < a`, else `a`. A signed-zero tie therefore returns `a`, and a
/// NaN operand yields the other one. `f64::min` leaves the zero tie
/// unspecified (the compiler may swap its operands, and a kernel built
/// for an AVX-512 host did return the other zero than the interpreter),
/// so both engines use this form instead.
///
/// # Examples
///
/// ```
/// use ark_expr::builtins::min;
/// assert_eq!(min(0.0, -0.0).to_bits(), 0.0f64.to_bits());
/// assert_eq!(min(-0.0, 0.0).to_bits(), (-0.0f64).to_bits());
/// assert_eq!(min(f64::NAN, 2.0), 2.0);
/// assert_eq!(min(2.0, f64::NAN), 2.0);
/// ```
// Out of line on purpose: inlined, the extra selects perturb the register
// allocation of the interpreter's laned dispatch loop, which ran the
// Figure 11 yield sweep about 20% slower even though it has no min/max.
#[inline(never)]
pub fn min(a: f64, b: f64) -> f64 {
    if a.is_nan() || b < a {
        b
    } else {
        a
    }
}

/// The larger of `a` and `b`, pinned like [`min`]: `b` when `a` is NaN or
/// `b > a`, else `a`.
#[inline(never)]
pub fn max(a: f64, b: f64) -> f64 {
    if a.is_nan() || b > a {
        b
    } else {
        a
    }
}

/// Number of arguments the named builtin expects, or `None` if unknown.
pub fn builtin_arity(name: &str) -> Option<usize> {
    match name {
        "pulse" | "square_pulse" | "smoothstep" => Some(3),
        "min" | "max" | "pow" | "atan2" => Some(2),
        _ => None,
    }
}

/// Evaluate the named builtin on the given arguments.
///
/// # Errors
///
/// Returns [`EvalError::UnknownFunction`] for an unknown name and
/// [`EvalError::ArityMismatch`] for a wrong argument count.
pub fn eval_builtin(name: &str, args: &[f64]) -> Result<f64, EvalError> {
    let arity = builtin_arity(name).ok_or_else(|| EvalError::UnknownFunction(name.into()))?;
    if args.len() != arity {
        return Err(EvalError::ArityMismatch {
            name: name.into(),
            expected: arity,
            got: args.len(),
        });
    }
    Ok(match name {
        "pulse" => pulse(args[0], args[1], args[2]),
        "square_pulse" => square_pulse(args[0], args[1], args[2]),
        "smoothstep" => smoothstep(args[0], args[1], args[2]),
        "min" => min(args[0], args[1]),
        "max" => max(args[0], args[1]),
        "pow" => args[0].powf(args[1]),
        "atan2" => args[0].atan2(args[1]),
        _ => unreachable!("arity table and dispatch table out of sync"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulse_shape() {
        let (t0, w) = (0.0, 2e-8);
        assert_eq!(pulse(-1e-9, t0, w), 0.0);
        assert_eq!(pulse(0.0, t0, w), 0.0);
        // Plateau region.
        assert_eq!(pulse(1e-8, t0, w), 1.0);
        // Mid-rise.
        let mid_rise = pulse(0.5e-9, t0, w);
        assert!(mid_rise > 0.0 && mid_rise < 1.0);
        // Symmetric mid-fall.
        let mid_fall = pulse(w - 0.5e-9, t0, w);
        assert!((mid_rise - mid_fall).abs() < 1e-12);
        assert_eq!(pulse(w, t0, w), 0.0);
        assert_eq!(pulse(w + 1e-9, t0, w), 0.0);
    }

    #[test]
    fn pulse_degenerate_width() {
        assert_eq!(pulse(0.5, 0.0, 0.0), 0.0);
        assert_eq!(pulse(0.5, 0.0, -1.0), 0.0);
    }

    #[test]
    fn square_pulse_is_half_open() {
        assert_eq!(square_pulse(0.0, 0.0, 1.0), 1.0);
        assert_eq!(square_pulse(1.0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn smoothstep_limits() {
        assert!(smoothstep(-100.0, 0.0, 1.0) < 1e-6);
        assert!(smoothstep(100.0, 0.0, 1.0) > 1.0 - 1e-6);
        assert!((smoothstep(0.0, 0.0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eval_builtin_dispatch() {
        assert_eq!(eval_builtin("min", &[3.0, 5.0]).unwrap(), 3.0);
        assert_eq!(eval_builtin("max", &[3.0, 5.0]).unwrap(), 5.0);
        assert_eq!(eval_builtin("pow", &[2.0, 8.0]).unwrap(), 256.0);
        assert!(matches!(
            eval_builtin("nope", &[]),
            Err(EvalError::UnknownFunction(_))
        ));
        assert!(matches!(
            eval_builtin("min", &[1.0]),
            Err(EvalError::ArityMismatch { .. })
        ));
    }
}

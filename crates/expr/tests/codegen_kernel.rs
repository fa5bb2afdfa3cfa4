//! Opcode-complete native-vs-interpreter parity for generated kernels:
//! one program exercising every `POp` the emitter can see (loads, negated
//! loads, all unary/binary/comparison/boolean operators, the fused
//! mul-add family, select, and the three builtin waveforms), evaluated at
//! awkward points (signed-zero ties and NaN operands among them), must
//! agree **bit for bit** between the interpreter and the native backend —
//! scalar and at every generated lane width, plus the interpreter
//! fallback at a width codegen does not generate.

use ark_expr::{
    parse_expr, Backend, LaneScratch, ProgScratch, ProgramBuilder, SlotResolver, SystemProgram,
};

/// Every expression form that lowers to a distinct opcode. Operand slots
/// are varied so CSE cannot collapse the fusion candidates.
const EXPRS: &[&str] = &[
    "time",
    "var(x)",
    "-var(y)",
    "-(var(x) + var(y))",
    "sin(var(x))",
    "cos(var(y))",
    "tan(0.25*var(x))",
    "tanh(var(z))",
    "exp(0.5*var(y))",
    "ln(abs(var(x)) + 1.5)",
    "sqrt(abs(var(z)) + 0.25)",
    "abs(var(y))",
    "sgn(var(x))",
    "sat(var(z))",
    "sat_ni(var(y))",
    "var(x) + var(y)",
    "var(x) - var(z)",
    "var(y) * var(z)",
    "var(x) / (abs(var(y)) + 2.0)",
    "pow(abs(var(x)) + 0.5, var(y))",
    "min(var(x), var(y))",
    "max(var(y), var(z))",
    "var(x)*var(y) + var(z)",
    "var(z) + var(y)*var(x)",
    "var(z)*var(x) - var(y)",
    "var(y) - var(x)*var(z)",
    "if var(x) < var(y) then var(z) else -var(z)",
    "if var(x) <= var(y) then 1 else 0",
    "if var(x) > var(z) then 1 else 0",
    "if var(x) >= var(z) then 1 else 0",
    "if var(x) == var(y) then 1 else 0",
    "if var(x) != var(y) then 1 else 0",
    "if var(x) > 0 and var(y) > 0 then var(x) else var(y)",
    "if var(x) > 0 or var(z) > 0 then var(z) else var(x)",
    "if not (var(y) > 0) then 2 else 3",
    "pulse(time, 0.1, var(x)*var(x))",
    "square_pulse(time, 0.2, abs(var(y)))",
    "smoothstep(time, 0.5, abs(var(z)) + 0.1)",
    // Time-prologue content (static, time-dependent) and param-free
    // prologue hoisting ride along via `time`-only subtrees.
    "sin(time) * var(x) + cos(time)",
];

const SLOTS: [&str; 3] = ["x", "y", "z"];

fn build() -> SystemProgram {
    let mut pb = ProgramBuilder::new();
    let resolve = SlotResolver(|n: &str| SLOTS.iter().position(|s| *s == n));
    let outs: Vec<_> = EXPRS
        .iter()
        .map(|s| {
            pb.add_expr(&parse_expr(s).unwrap(), &resolve)
                .unwrap_or_else(|e| panic!("{s}: {e:?}"))
        })
        .collect();
    pb.finish(&outs, 0)
}

/// Awkward evaluation points: negatives, zero, subnormal-adjacent, values
/// that land exactly on comparison boundaries.
const POINTS: [([f64; 3], f64); 5] = [
    ([1.0, 2.0, 3.0], 0.15),
    ([-1.5, -1.5, 0.0], 0.5),
    ([0.3333333333333333, -2.5, 1e-8], 0.2),
    ([1.0000000000000002, 1.0, -0.75], 0.9),
    ([0.0, -0.0, 5.0], 0.35),
];

/// Points where an ISA-specific lowering of `min`/`max`/comparisons/select
/// could drift from the interpreter: signed-zero ties both ways round, and
/// NaN operands. The laned tests feed these to every lane unchanged (the
/// per-lane offset applied to [`POINTS`] would turn `-0.0` into `+0.0`).
const SPECIAL: [([f64; 3], f64); 5] = [
    ([0.0, -0.0, 0.0], 0.35),
    ([-0.0, 0.0, -0.0], 0.35),
    ([f64::NAN, 1.0, -0.0], 0.6),
    ([0.5, f64::NAN, f64::NAN], 0.6),
    ([f64::NAN, f64::NAN, f64::NAN], 0.6),
];

#[test]
fn native_scalar_bit_identical_to_interpreter() {
    let interp = build();
    let mut native = build();
    native.set_backend(Backend::Native);
    assert_eq!(native.backend(), Backend::Native);
    assert!(
        native.native_active(),
        "kernel must compile in this environment (rustc is on PATH)"
    );
    let mut si = ProgScratch::default();
    let mut sn = ProgScratch::default();
    let mut oi = vec![0.0; EXPRS.len()];
    let mut on = vec![0.0; EXPRS.len()];
    for (slots, t) in POINTS.into_iter().chain(SPECIAL) {
        // Twice per point: cold, then through the warm time-prologue cache.
        for round in 0..2 {
            interp.eval_into(&mut si, &slots, t, &[], &mut oi);
            native.eval_into(&mut sn, &slots, t, &[], &mut on);
            for (k, (a, b)) in oi.iter().zip(&on).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "round {round} expr `{}` at {slots:?} t={t}: interp {a} vs native {b}",
                    EXPRS[k]
                );
            }
        }
    }
}

fn laned_parity<const L: usize>() {
    let interp = build();
    let mut native = build();
    native.set_backend(Backend::Native);
    let mut si = LaneScratch::<L>::default();
    let mut sn = LaneScratch::<L>::default();
    let mut oi = vec![[0.0; L]; EXPRS.len()];
    let mut on = vec![[0.0; L]; EXPRS.len()];
    // Offset lanes at the ordinary points; at the special points lane `l`
    // of round `k` takes SPECIAL[(k + l) % n] verbatim, so every lane sees
    // every special value, next to lanes holding the others.
    let offset = POINTS.iter().map(|&(base, t)| {
        let slots: Vec<[f64; L]> = (0..3)
            .map(|i| std::array::from_fn(|l| base[i] + 0.0625 * l as f64))
            .collect();
        (slots, t)
    });
    let special = (0..SPECIAL.len()).map(|k| {
        let pick = |l: usize| SPECIAL[(k + l) % SPECIAL.len()].0;
        let slots: Vec<[f64; L]> = (0..3)
            .map(|i| std::array::from_fn(|l| pick(l)[i]))
            .collect();
        (slots, SPECIAL[k].1)
    });
    for (slots, t) in offset.chain(special) {
        interp.eval_lanes_bound(&mut si, &slots, t, &mut oi);
        native.eval_lanes_bound(&mut sn, &slots, t, &mut on);
        for (k, (a, b)) in oi.iter().zip(&on).enumerate() {
            for l in 0..L {
                assert_eq!(
                    a[l].to_bits(),
                    b[l].to_bits(),
                    "expr `{}` lane {l}/{L} t={t}: interp {} vs native {}",
                    EXPRS[k],
                    a[l],
                    b[l]
                );
            }
        }
    }
}

#[test]
fn native_lanes4_bit_identical_to_interpreter() {
    laned_parity::<4>();
}

#[test]
fn native_lanes8_bit_identical_to_interpreter() {
    laned_parity::<8>();
}

/// A width with no generated kernel (L = 2) must transparently interpret —
/// same results, no panic, native stays active for the scalar path.
#[test]
fn unsupported_lane_width_falls_back_to_interpreter() {
    laned_parity::<2>();
    let mut native = build();
    native.set_backend(Backend::Native);
    assert!(native.native_active(), "scalar kernel still available");
}

/// Switching a program back to the interpreter must fully disable the
/// kernel (and stay bit-identical, trivially).
#[test]
fn backend_switch_roundtrip() {
    let mut prog = build();
    prog.set_backend(Backend::Native);
    assert!(prog.native_active());
    prog.set_backend(Backend::Interp);
    assert!(!prog.native_active());
    assert_eq!(prog.backend(), Backend::Interp);
}

//! Property tests pinning the bit-identity guarantee of the fused
//! [`SystemProgram`](ark_expr::SystemProgram) path: on randomized dynamical
//! graphs — mixed node orders (0/1/2), sum and product reductions,
//! algebraic dependency chains, switched-off edges with `off` rules — the
//! fused right-hand side and observation program agree *bit for bit* with
//! the reference tree-walking evaluator ([`ark_expr::eval()`]) run over
//! the compiled per-node expressions ([`CompiledSystem::node_expr`]), at
//! arbitrary states and times, for plain and parametric compiles.
//!
//! The graph generators live in [`common`] and are shared with the
//! Jacobian differential tests (`jacobian_differential.rs`).

mod common;

use ark_core::CompiledSystem;
use ark_expr::{eval, EvalContext, EvalError, Lambda};
use common::{
    arb_spec, compile_spec, compile_spec_parametric, ptest_language, state_vector, GraphSpec,
};
use proptest::prelude::*;

/// Evaluation context over a compiled system: a state node reads its slot
/// of `y`, an algebraic node evaluates its own expression recursively, and
/// a parameter-slot attribute reads `params`.
struct SystemContext<'a> {
    sys: &'a CompiledSystem,
    t: f64,
    y: &'a [f64],
    params: &'a [f64],
}

impl EvalContext for SystemContext<'_> {
    fn time(&self) -> f64 {
        self.t
    }

    fn var(&self, name: &str) -> Result<f64, EvalError> {
        if let Some(i) = self.sys.state_index(name) {
            return Ok(self.y[i]);
        }
        let expr = self
            .sys
            .node_expr(name)
            .ok_or_else(|| EvalError::UnknownVar(name.into()))?;
        eval(expr, self)
    }

    fn attr(&self, entity: &str, attr: &str) -> Result<f64, EvalError> {
        self.sys
            .param_index(entity, attr)
            .map(|i| self.params[i])
            .ok_or_else(|| EvalError::UnknownAttr(entity.into(), attr.into()))
    }

    fn arg(&self, name: &str) -> Result<f64, EvalError> {
        Err(EvalError::UnknownArg(name.into()))
    }

    fn lambda_attr(&self, entity: &str, attr: &str) -> Result<Lambda, EvalError> {
        Err(EvalError::NotALambda(entity.into(), attr.into()))
    }
}

/// The reference right-hand side: the LowOrdEqs chain `d yᵢ/dt = yᵢ₊₁`
/// below a node's highest derivative, its expression at the top.
fn reference_rhs(ctx: &SystemContext<'_>) -> Vec<f64> {
    let svs = ctx.sys.state_vars();
    (0..svs.len())
        .map(|i| match svs.get(i + 1) {
            Some(next) if next.node == svs[i].node => ctx.y[i + 1],
            _ => eval(ctx.sys.node_expr(&svs[i].node).unwrap(), ctx).unwrap(),
        })
        .collect()
}

/// The reference algebraic segment, indexed like
/// [`CompiledSystem::algebraic_index`].
fn reference_algebraics(ctx: &SystemContext<'_>, spec: &GraphSpec) -> Vec<f64> {
    let mut out = vec![0.0; ctx.sys.num_algebraics()];
    for name in (0..spec.types.len()).map(|i| format!("n{i}")) {
        if let Some(slot) = ctx.sys.algebraic_index(&name) {
            out[slot] = ctx.var(&name).unwrap();
        }
    }
    out
}

fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}[{i}] fused {a} vs eval {b}"
        );
    }
}

/// Fused rhs and observation program == the reference evaluator, bit for
/// bit, and a second observation through the same scratch (prologue cache
/// warm) stays stable.
fn check_against_eval(sys: &CompiledSystem, spec: &GraphSpec, t: f64, y: &[f64], params: &[f64]) {
    let ctx = SystemContext { sys, t, y, params };
    let mut scratch = sys.scratch();
    let mut dydt = vec![0.0; y.len()];
    sys.rhs_with_params(t, y, &mut dydt, params, &mut scratch);
    assert_bits("dydt", &dydt, &reference_rhs(&ctx));
    let alg = sys
        .eval_algebraics_with_params(t, y, params, &mut scratch)
        .to_vec();
    assert_bits("alg", &alg, &reference_algebraics(&ctx, spec));
    assert_eq!(
        alg,
        sys.eval_algebraics_with_params(t, y, params, &mut scratch)
    );
}

proptest! {
    /// Plain compiles: every attribute folded to a constant.
    #[test]
    fn fused_bit_identical_to_eval(
        spec in arb_spec(),
        t in 0.0..10.0f64,
        scale in -2.0..2.0f64,
    ) {
        let sys = compile_spec(&ptest_language(), &spec);
        let y = state_vector(sys.num_states(), scale, 0.3);
        check_against_eval(&sys, &spec, t, &y, &[]);
    }

    /// Parametric compiles: a sampled (then perturbed) parameter vector,
    /// read by the reference evaluator through the symbolic attribute
    /// slots.
    #[test]
    fn parametric_fused_bit_identical_to_eval(
        spec in arb_spec(),
        seed in 0u64..1000,
        t in 0.0..10.0f64,
        scale in -2.0..2.0f64,
        wobble in -0.5..0.5f64,
    ) {
        let sys = compile_spec_parametric(&ptest_language(), &spec);
        let params: Vec<f64> = sys.sample_params(seed).iter().map(|w| w + wobble).collect();
        let y = state_vector(sys.num_states(), scale, 0.5);
        check_against_eval(&sys, &spec, t, &y, &params);
    }
}

//! The small parametric design the ensemble suites share.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use ark::core::CompiledSystem;

/// One compiled parametric RC-decay design: `dv/dt = -v / tau` with `tau`
/// and the initial value as per-seed parameters (one compile, so a
/// property can run hundreds of ensembles quickly). Unlike the saturating
/// CNN, its rate is parameter-controlled, so a
/// [`FaultMode::Stiffen`](ark::sim::FaultMode::Stiffen) plan genuinely
/// destabilizes the fixed-step primary solver (and the adaptive fallback
/// chain genuinely rescues it).
pub fn decay_system() -> (ark::core::lang::Language, CompiledSystem) {
    use ark::core::func::GraphBuilder;
    use ark::core::lang::{EdgeType, LanguageBuilder, NodeType, ProdRule, Reduction};
    use ark::core::types::SigType;
    use ark::expr::parse_expr;
    let lang = LanguageBuilder::new("rc")
        .node_type(
            NodeType::new("V", 1, Reduction::Sum)
                .attr("tau", SigType::real(0.0, 100.0))
                .init_default(SigType::real(-100.0, 100.0), 1.0),
        )
        .edge_type(EdgeType::new("E"))
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "V"),
            ("s", "V"),
            "s",
            parse_expr("-var(s)/s.tau").unwrap(),
        ))
        .finish()
        .unwrap();
    let mut b = GraphBuilder::new_parametric(&lang);
    b.node("v", "V").unwrap();
    b.set_attr_param("v", "tau", 1.0).unwrap();
    b.set_init_param("v", 0, 1.0).unwrap();
    b.edge("self", "E", "v", "v").unwrap();
    let pg = b.finish_parametric().unwrap();
    let sys = CompiledSystem::compile_parametric(&lang, &pg).unwrap();
    (lang, sys)
}

/// Seed `seed`'s parameter vector for [`decay_system`]: `tau` and the
/// initial value cycle through 31 and 7 distinct values.
pub fn decay_params(sys: &CompiledSystem, seed: u64) -> Vec<f64> {
    let mut p = sys.nominal_params();
    p[sys.param_index("v", "tau").unwrap()] = 0.25 + 0.0625 * (seed % 31) as f64;
    p[sys.param_index_init("v", 0).unwrap()] = 1.0 + 0.5 * (seed % 7) as f64;
    p
}

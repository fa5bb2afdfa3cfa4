//! Simulation benchmark: RK4 throughput on the 53-node t-line, plus the
//! fused-program-vs-tree-walk expression evaluation ablation.

use ark_core::CompiledSystem;
use ark_expr::{eval, parse_expr, MapContext, ProgScratch, ProgramBuilder, SlotResolver};
use ark_ode::{DormandPrince, OdeSystem, Rk4};
use ark_paradigms::tln::{linear_tline, tln_language, TlineConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_simulate(c: &mut Criterion) {
    let lang = tln_language();
    let graph = linear_tline(&lang, 26, &TlineConfig::default(), 0).unwrap();
    let sys = CompiledSystem::compile(&lang, &graph).unwrap();
    let y0 = sys.initial_state();

    let mut group = c.benchmark_group("simulate_tline_53");
    group.bench_function("rk4_1000_steps", |b| {
        b.iter(|| {
            Rk4 { dt: 2e-11 }
                .integrate(&sys.bind(), 0.0, &y0, 2e-8, usize::MAX)
                .unwrap()
        })
    });
    group.bench_function("dp45_adaptive", |b| {
        b.iter(|| {
            DormandPrince::new(1e-6, 1e-9)
                .integrate(&sys.bind(), 0.0, &y0, 2e-8)
                .unwrap()
        })
    });
    group.bench_function("rhs_only", |b| {
        let mut dydt = vec![0.0; sys.num_states()];
        let mut scratch = sys.scratch();
        b.iter(|| sys.rhs_with(1e-9, &y0, &mut dydt, &mut scratch))
    });
    group.bench_function("rhs_only_bound", |b| {
        let bound = sys.bind();
        let mut dydt = vec![0.0; bound.dim()];
        b.iter(|| bound.rhs(1e-9, &y0, &mut dydt))
    });
    group.finish();

    // Ablation: fused program vs tree-walking evaluation of a production-
    // rule-sized expression.
    let e = parse_expr("-1.6e9*2.0*sin(var(s)-var(t)) - 1e9*sin(2*var(s))").unwrap();
    let ctx = MapContext::new().with_var("s", 0.3).with_var("t", 0.9);
    let mut pb = ProgramBuilder::new();
    let resolve = SlotResolver(|n: &str| match n {
        "s" => Some(0),
        "t" => Some(1),
        _ => None,
    });
    let out = pb.add_expr(&e, &resolve).unwrap();
    let prog = pb.finish(&[out], 0);
    let mut scratch = ProgScratch::default();
    let mut value = [0.0];
    let slots = [0.3, 0.9];
    let mut group = c.benchmark_group("expr_eval");
    group.bench_function("fused", |b| {
        b.iter(|| {
            prog.eval_into(&mut scratch, &slots, 0.0, &[], &mut value);
            value[0]
        })
    });
    group.bench_function("tree_walk", |b| b.iter(|| eval(&e, &ctx).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_simulate);
criterion_main!(benches);

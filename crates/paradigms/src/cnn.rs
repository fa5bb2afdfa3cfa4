//! The cellular nonlinear network (CNN) compute paradigm (paper §7.1).
//!
//! A CNN is a grid of locally coupled cells with dynamics (paper Eq. 5):
//!
//! ```text
//! dxᵢⱼ/dt = −xᵢⱼ + Σ_{kl ∈ N(i,j)} (A·f(x_kl) + B·u_kl) + z
//! ```
//!
//! The `cnn` language maps cells to `V` nodes, outputs `y = sat(x)` to
//! order-0 `Out` nodes, and external inputs to `Inp` nodes; `fE` edges carry
//! the `A`/`B` template weights and `iE` edges wire the nonlinearity and the
//! self term. The `hw_cnn` extension (paper Fig. 10b) adds:
//!
//! * `Vm` — integrator-bias (`z`) mismatch,
//! * `fEm` — template-weight (`g`) mismatch,
//! * `OutNL` — the non-ideal MOS saturation `sat_ni`.
//!
//! One documented deviation from Figure 10a: the paper never says how an
//! `Inp` node acquires its pixel value, so `Inp` carries a `u` attribute and
//! the B-template rule reads `s.u` instead of `var(s)` (see DESIGN.md).

use crate::image::Image;
use ark_core::func::{GraphBuilder, ParametricGraph};
use ark_core::lang::{
    EdgeType, Language, LanguageBuilder, MatchClause, NodeType, Pattern, ProdRule, Reduction,
    ValidityRule,
};
use ark_core::types::SigType;
use ark_core::validate::ExternRegistry;
use ark_core::{CompiledSystem, EvalScratch, FuncError, Graph, LaneScratch, LangError};
use ark_expr::parse_expr;
use ark_ode::{OdeWorkspace, Solver, Strided, Trajectory};
use ark_sim::LaneReadout;

/// A 3×3 CNN template: feedback matrix `A`, control matrix `B`, bias `z`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Template {
    /// Feedback weights applied to neighbor outputs `f(x)`.
    pub a: [[f64; 3]; 3],
    /// Control weights applied to neighbor inputs `u`.
    pub b: [[f64; 3]; 3],
    /// Constant bias `z`.
    pub z: f64,
}

/// The classic Chua–Yang edge-detection template (paper §7.1 workload):
/// `A` has a single center weight of 2, `B` is an 8-surround Laplacian, and
/// `z = −0.5`.
pub const EDGE_TEMPLATE: Template = Template {
    a: [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
    b: [[-1.0, -1.0, -1.0], [-1.0, 8.0, -1.0], [-1.0, -1.0, -1.0]],
    z: -0.5,
};

fn e(src: &str) -> ark_expr::Expr {
    parse_expr(src).expect("static rule expression")
}

/// Build the base CNN language (paper Figure 10a).
///
/// # Panics
///
/// Panics only on an internal definition error (covered by tests).
pub fn cnn_language() -> Language {
    try_cnn_language().expect("CNN language definition is valid")
}

fn try_cnn_language() -> Result<Language, LangError> {
    LanguageBuilder::new("cnn")
        .node_type(
            NodeType::new("V", 1, Reduction::Sum)
                .attr_default("z", SigType::real(-10.0, 10.0), 0.0)
                .init_default(SigType::real(-10.0, 10.0), 0.0),
        )
        .node_type(NodeType::new("Out", 0, Reduction::Sum))
        .node_type(NodeType::new("Inp", 0, Reduction::Sum).attr_default(
            "u",
            SigType::real(-1.0, 1.0),
            0.0,
        ))
        .edge_type(EdgeType::new("iE"))
        .edge_type(EdgeType::new("fE").attr("g", SigType::real(-10.0, 10.0)))
        // B template: external inputs into the cell state.
        .prod(ProdRule::new(
            ("e", "fE"),
            ("s", "Inp"),
            ("t", "V"),
            "t",
            e("e.g*s.u"),
        ))
        // Output nonlinearity y = sat(x).
        .prod(ProdRule::new(
            ("e", "iE"),
            ("s", "V"),
            ("t", "Out"),
            "t",
            e("sat(var(s))"),
        ))
        // Cell leak and bias (self edge): z − x.
        .prod(ProdRule::new(
            ("e", "iE"),
            ("s", "V"),
            ("s", "V"),
            "s",
            e("s.z-var(s)"),
        ))
        // A template: neighbor outputs into the cell state.
        .prod(ProdRule::new(
            ("e", "fE"),
            ("s", "Out"),
            ("t", "V"),
            "t",
            e("e.g*var(s)"),
        ))
        .cstr(ValidityRule::new("V").accept(Pattern::new(vec![
            MatchClause::outgoing(1, Some(1), "iE", &["Out"]),
            MatchClause::incoming(4, Some(9), "fE", &["Out"]),
            MatchClause::incoming(4, Some(9), "fE", &["Inp"]),
            MatchClause::self_loop(1, Some(1), "iE"),
        ])))
        .cstr(ValidityRule::new("Out").accept(Pattern::new(vec![
            MatchClause::outgoing(4, Some(9), "fE", &["V"]),
            MatchClause::incoming(1, Some(1), "iE", &["V"]),
        ])))
        .cstr(
            ValidityRule::new("Inp").accept(Pattern::new(vec![MatchClause::outgoing(
                4,
                Some(9),
                "fE",
                &["V"],
            )])),
        )
        .extern_check("cnn_grid")
        .finish()
}

/// Build the `hw_cnn` extension (paper Figure 10b): `Vm` (bias mismatch),
/// `fEm` (template-weight mismatch), `OutNL` (non-ideal saturation).
///
/// # Panics
///
/// Panics only on an internal definition error (covered by tests).
pub fn hw_cnn_language(base: &Language) -> Language {
    try_hw_cnn_language(base, 0.1).expect("hw-cnn language definition is valid")
}

/// [`hw_cnn_language`] with the mismatch standard deviation `sigma` as a
/// parameter instead of the paper's 0.1 — the knob the Figure 11 yield
/// sweep turns: every fabrication-variation attribute (`Vm` bias `z`,
/// `fEm` template weight `g`) carries `N(0, sigma)` mismatch.
///
/// # Panics
///
/// Panics only on an internal definition error (covered by tests).
pub fn hw_cnn_language_sigma(base: &Language, sigma: f64) -> Language {
    try_hw_cnn_language(base, sigma).expect("hw-cnn language definition is valid")
}

fn try_hw_cnn_language(base: &Language, sigma: f64) -> Result<Language, LangError> {
    LanguageBuilder::derive("hw_cnn", base)
        .node_type(
            NodeType::new("Vm", 1, Reduction::Sum)
                .inherit("V")
                .attr_default(
                    "z",
                    SigType::real(-10.0, 10.0).with_mismatch(0.0, sigma),
                    0.0,
                ),
        )
        .node_type(NodeType::new("OutNL", 0, Reduction::Sum).inherit("Out"))
        .edge_type(
            EdgeType::new("fEm")
                .inherit("fE")
                .attr("g", SigType::real(-10.0, 10.0).with_mismatch(0.0, sigma)),
        )
        // Non-ideal MOS-differential-pair saturation for OutNL.
        .prod(ProdRule::new(
            ("e", "iE"),
            ("s", "V"),
            ("t", "OutNL"),
            "t",
            e("sat_ni(var(s))"),
        ))
        .finish()
}

/// The CNN language of Figure 10a expressed in Ark source text. Parsed by
/// the textual frontend; tests assert it behaves identically to the
/// programmatic [`cnn_language`].
pub const CNN_SRC: &str = r#"
lang cnn {
    ntyp(1, sum) V {
        attr z = real[-10, 10] default 0;
        init(0) = real[-10, 10] default 0;
    };
    ntyp(0, sum) Out {};
    ntyp(0, sum) Inp { attr u = real[-1, 1] default 0; };
    etyp iE {};
    etyp fE { attr g = real[-10, 10]; };
    prod(e:fE, s:Inp -> t:V) t <= e.g*s.u;
    prod(e:iE, s:V -> t:Out) t <= sat(var(s));
    prod(e:iE, s:V -> s:V) s <= s.z-var(s);
    prod(e:fE, s:Out -> t:V) t <= e.g*var(s);
    cstr V {
        acc [ match(1, 1, iE, V->[Out]),
              match(4, 9, fE, [Out]->V),
              match(4, 9, fE, [Inp]->V),
              match(1, 1, iE, V) ]
    };
    cstr Out {
        acc [ match(4, 9, fE, Out->[V]), match(1, 1, iE, [V]->Out) ]
    };
    cstr Inp { acc [ match(4, 9, fE, Inp->[V]) ] };
    extern-func cnn_grid;
}

lang hw_cnn inherits cnn {
    ntyp(1, sum) Vm inherit V {
        attr z = real[-10, 10] mm(0, 0.1) default 0;
    };
    ntyp(0, sum) OutNL inherit Out {};
    etyp fEm inherit fE { attr g = real[-10, 10] mm(0, 0.1); };
    prod(e:iE, s:V -> t:OutNL) t <= sat_ni(var(s));
}
"#;

/// Which hardware nonideality to instantiate (columns A–D of Figure 11c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonIdeality {
    /// Column A: ideal CNN.
    Ideal,
    /// Column B: 10% mismatch on the integrator bias `z` (`Vm`).
    ZMismatch,
    /// Column C: 10% mismatch on the template weights `g` (`fEm`).
    GMismatch,
    /// Column D: non-ideal saturation (`OutNL`).
    NonIdealSat,
}

impl NonIdeality {
    fn v_ty(self) -> &'static str {
        if self == NonIdeality::ZMismatch {
            "Vm"
        } else {
            "V"
        }
    }

    fn out_ty(self) -> &'static str {
        if self == NonIdeality::NonIdealSat {
            "OutNL"
        } else {
            "Out"
        }
    }

    fn fe_ty(self) -> &'static str {
        if self == NonIdeality::GMismatch {
            "fEm"
        } else {
            "fE"
        }
    }
}

/// Library of standard Chua–Yang CNN templates beyond edge detection —
/// the image-processing application space the paper cites for CNNs
/// (§7.1: "image processing, pattern recognition, PDE solving").
pub mod templates {
    use super::Template;

    /// Re-export of the edge-detection template.
    pub const EDGE: Template = super::EDGE_TEMPLATE;

    /// Horizontal line detector: keeps black pixels whose left/right
    /// neighbors are black too.
    pub const HORIZONTAL_LINE: Template = Template {
        a: [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
        b: [[0.0, 0.0, 0.0], [1.0, 2.0, 1.0], [0.0, 0.0, 0.0]],
        z: -3.0,
    };

    /// Erosion with a plus-shaped structuring element: a pixel survives
    /// only if itself and its 4-neighbors are black.
    pub const ERODE: Template = Template {
        a: [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
        b: [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]],
        z: -4.0,
    };

    /// Dilation with a plus-shaped structuring element: a pixel turns black
    /// if any of itself/4-neighbors is black.
    pub const DILATE: Template = Template {
        a: [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
        b: [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]],
        z: 4.0,
    };
}

/// Node-name helpers shared by the builder, the readout, and the grid check.
fn v_name(r: usize, c: usize) -> String {
    format!("V_{r}_{c}")
}
fn out_name(r: usize, c: usize) -> String {
    format!("Out_{r}_{c}")
}
fn inp_name(r: usize, c: usize) -> String {
    format!("Inp_{r}_{c}")
}

/// A CNN instance bound to an input image.
#[derive(Debug)]
pub struct CnnInstance {
    /// The dynamical graph.
    pub graph: Graph,
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
}

/// Build a CNN dynamical graph applying `template` to `input`
/// (paper Fig. 10/11). Every in-bounds 3×3 neighbor contributes an `A` and
/// a `B` edge (including zero-weight ones — the validity rules demand 4–9
/// neighbors), so an `m×n` grid yields `3mn` nodes and roughly `18mn`
/// edges.
///
/// # Errors
///
/// Propagates construction errors (e.g. non-ideal types missing from the
/// base language).
pub fn build_cnn(
    lang: &Language,
    input: &Image,
    template: &Template,
    nonideality: NonIdeality,
    seed: u64,
) -> Result<CnnInstance, FuncError> {
    let (w, h) = (input.width(), input.height());
    let mut b = GraphBuilder::new(lang, seed);
    build_cnn_into(&mut b, input, template, nonideality)?;
    Ok(CnnInstance {
        graph: b.finish()?,
        width: w,
        height: h,
    })
}

/// A CNN design with parameter slots instead of baked-in mismatch samples:
/// build once, [`CompiledSystem::compile_parametric`] once, then run every
/// fabricated instance with
/// [`CompiledSystem::sample_params`]`(seed)` — no per-seed rebuild or
/// recompile. Instances are bit-identical to [`build_cnn`] with the same
/// seed.
#[derive(Debug)]
pub struct ParametricCnn {
    /// The parametric dynamical graph.
    pub pgraph: ParametricGraph,
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
}

/// Parametric sibling of [`build_cnn`] (same statement order, so parameter
/// replay matches seeded builds exactly).
///
/// # Errors
///
/// Propagates construction errors.
pub fn build_cnn_parametric(
    lang: &Language,
    input: &Image,
    template: &Template,
    nonideality: NonIdeality,
) -> Result<ParametricCnn, FuncError> {
    let (w, h) = (input.width(), input.height());
    let mut b = GraphBuilder::new_parametric(lang);
    build_cnn_into(&mut b, input, template, nonideality)?;
    Ok(ParametricCnn {
        pgraph: b.finish_parametric()?,
        width: w,
        height: h,
    })
}

fn build_cnn_into(
    b: &mut GraphBuilder<'_>,
    input: &Image,
    template: &Template,
    nonideality: NonIdeality,
) -> Result<(), FuncError> {
    let (w, h) = (input.width(), input.height());
    let (vt, ot, ft) = (
        nonideality.v_ty(),
        nonideality.out_ty(),
        nonideality.fe_ty(),
    );
    for r in 0..h {
        for c in 0..w {
            b.node(&v_name(r, c), vt)?;
            b.set_attr(&v_name(r, c), "z", template.z)?;
            b.node(&out_name(r, c), ot)?;
            b.node(&inp_name(r, c), "Inp")?;
            b.set_attr(&inp_name(r, c), "u", input.get(r, c))?;
            b.edge(
                &format!("iSelf_{r}_{c}"),
                "iE",
                &v_name(r, c),
                &v_name(r, c),
            )?;
            b.edge(
                &format!("iOut_{r}_{c}"),
                "iE",
                &v_name(r, c),
                &out_name(r, c),
            )?;
        }
    }
    for r in 0..h {
        for c in 0..w {
            for dr in -1i64..=1 {
                for dc in -1i64..=1 {
                    let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                    if nr < 0 || nc < 0 || nr >= h as i64 || nc >= w as i64 {
                        continue;
                    }
                    let (nr, nc) = (nr as usize, nc as usize);
                    let (ai, aj) = ((dr + 1) as usize, (dc + 1) as usize);
                    // A: neighbor output (nr,nc) feeds cell (r,c).
                    let ea = format!("fA_{r}_{c}_{ai}_{aj}");
                    b.edge(&ea, ft, &out_name(nr, nc), &v_name(r, c))?;
                    b.set_attr(&ea, "g", template.a[ai][aj])?;
                    // B: neighbor input (nr,nc) feeds cell (r,c).
                    let eb = format!("fB_{r}_{c}_{ai}_{aj}");
                    b.edge(&eb, ft, &inp_name(nr, nc), &v_name(r, c))?;
                    b.set_attr(&eb, "g", template.b[ai][aj])?;
                }
            }
        }
    }
    Ok(())
}

/// The `cnn_grid` global validity check: verifies from node names that the
/// graph forms a complete `m×n` grid with exact 3×3 neighborhood wiring —
/// the kind of topology property local cardinality rules cannot express
/// (paper §4.1, "Global Validity Rules").
pub fn grid_extern_registry() -> ExternRegistry {
    ExternRegistry::new().with("cnn_grid", |g: &Graph| {
        // Collect declared cells.
        let mut max_r = 0usize;
        let mut max_c = 0usize;
        let mut cells = 0usize;
        for (_, node) in g.nodes() {
            if let Some(rest) = node.name.strip_prefix("V_") {
                let mut it = rest.split('_');
                let r: usize = it
                    .next()
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| format!("malformed cell name {}", node.name))?;
                let c: usize = it
                    .next()
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| format!("malformed cell name {}", node.name))?;
                max_r = max_r.max(r);
                max_c = max_c.max(c);
                cells += 1;
            }
        }
        if cells == 0 {
            return Err("no cells found".into());
        }
        let (h, w) = (max_r + 1, max_c + 1);
        if cells != h * w {
            return Err(format!("{cells} cells do not tile a {h}x{w} grid"));
        }
        // Every cell must receive exactly one A edge from each in-bounds
        // neighbor's Out node.
        for r in 0..h {
            for c in 0..w {
                let v = g.node_id(&v_name(r, c)).map_err(|e| e.to_string())?;
                let mut expected = 0;
                for dr in -1i64..=1 {
                    for dc in -1i64..=1 {
                        let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                        if nr >= 0 && nc >= 0 && nr < h as i64 && nc < w as i64 {
                            expected += 1;
                        }
                    }
                }
                let got = g
                    .in_edges(v)
                    .iter()
                    .filter(|&&eid| {
                        let edge = g.edge(eid);
                        g.node(edge.src).name.starts_with("Out_")
                    })
                    .count();
                if got != expected {
                    return Err(format!(
                        "cell ({r},{c}) has {got} feedback edges, expected {expected}"
                    ));
                }
            }
        }
        Ok(())
    })
}

/// Read the CNN output image at state `y` (time `t`) by evaluating the
/// order-0 `Out` nodes — so `OutNL` cells automatically apply `sat_ni`.
pub fn read_output(sys: &CompiledSystem, inst: &CnnInstance, t: f64, y: &[f64]) -> Image {
    read_output_with(sys, inst, t, y, &mut sys.scratch())
}

/// [`read_output`] through a caller-provided scratch, for hot readout loops
/// (the convergence scan probes hundreds of points per instance; reusing
/// one scratch avoids a buffer allocation per probe).
pub fn read_output_with(
    sys: &CompiledSystem,
    inst: &CnnInstance,
    t: f64,
    y: &[f64],
    scratch: &mut EvalScratch,
) -> Image {
    read_output_dims(sys, inst.width, inst.height, t, y, &[], scratch)
}

/// Dimension/parameter-explicit readout core shared by the instance-based
/// and parametric paths.
fn read_output_dims(
    sys: &CompiledSystem,
    width: usize,
    height: usize,
    t: f64,
    y: &[f64],
    params: &[f64],
    scratch: &mut EvalScratch,
) -> Image {
    let algs = sys.eval_algebraics_with_params(t, y, params, scratch);
    Image::from_fn(width, height, |r, c| {
        algs[sys
            .algebraic_index(&out_name(r, c))
            .expect("Out node is algebraic")]
    })
}

/// Simulation result of a CNN run: snapshots and the settled output.
#[derive(Debug)]
pub struct CnnRun {
    /// `(time, output image)` snapshots.
    pub snapshots: Vec<(f64, Image)>,
    /// Output image at the end of the run.
    pub final_output: Image,
    /// First time the *analog* output stays within `0.02` of its final
    /// value on every cell — the convergence measure behind the Figure 11
    /// comparison (z mismatch converges slower, `sat_ni` faster).
    pub convergence_time: Option<f64>,
}

/// Simulate a CNN to `t_end` (unit time constants), recording output
/// snapshots at `snap_times`.
///
/// # Errors
///
/// Propagates compile/integration failures.
pub fn run_cnn(
    lang: &Language,
    inst: &CnnInstance,
    t_end: f64,
    snap_times: &[f64],
) -> Result<CnnRun, crate::DynError> {
    let sys = CompiledSystem::compile(lang, &inst.graph)?;
    let mut scratch = sys.scratch();
    let mut ws = OdeWorkspace::new(sys.num_states());
    run_cnn_core(
        &sys,
        inst.width,
        inst.height,
        &[],
        t_end,
        snap_times,
        &mut scratch,
        &mut ws,
    )
}

/// The CNN transient solver configuration, shared by the scalar and laned
/// ensemble paths so they integrate on the identical grid.
const CNN_SOLVER_DT: f64 = 2e-3;
const CNN_SOLVER_STRIDE: usize = 5;

/// Integrate + read out one CNN instance of an already-compiled system —
/// the shared core behind [`run_cnn`] and the parametric
/// [`run_cnn_ensemble`]. `params` is empty for non-parametric systems.
#[allow(clippy::too_many_arguments)]
fn run_cnn_core(
    sys: &CompiledSystem,
    width: usize,
    height: usize,
    params: &[f64],
    t_end: f64,
    snap_times: &[f64],
    scratch: &mut EvalScratch,
    ws: &mut OdeWorkspace,
) -> Result<CnnRun, crate::DynError> {
    let y0 = sys.initial_state_for(params);
    let mut rec = Strided::every(CNN_SOLVER_STRIDE);
    ark_ode::Rk4 { dt: CNN_SOLVER_DT }.solve(
        &sys.bind_ref(params, scratch),
        0.0,
        &y0,
        t_end,
        &mut rec,
        ws,
    )?;
    let tr = rec.into_trajectory();
    read_cnn_run(sys, width, height, params, t_end, snap_times, &tr, scratch)
}

/// The observation half of a CNN run: output snapshots, the final image,
/// and the analog convergence probe over an already-integrated trajectory.
#[allow(clippy::too_many_arguments)]
fn read_cnn_run(
    sys: &CompiledSystem,
    width: usize,
    height: usize,
    params: &[f64],
    t_end: f64,
    snap_times: &[f64],
    tr: &ark_ode::Trajectory,
    scratch: &mut EvalScratch,
) -> Result<CnnRun, crate::DynError> {
    let snapshots: Vec<(f64, Image)> = snap_times
        .iter()
        .map(|&t| {
            (
                t,
                read_output_dims(sys, width, height, t, &tr.at(t), params, scratch),
            )
        })
        .collect();
    let final_output = read_output_dims(sys, width, height, t_end, &tr.at(t_end), params, scratch);
    // Analog convergence: first probe time from which every cell's output
    // stays within EPS of its final value.
    let mut convergence_time = None;
    for k in (0..=CONV_PROBES).rev() {
        let t = t_end * k as f64 / CONV_PROBES as f64;
        let img = read_output_dims(sys, width, height, t, &tr.at(t), params, scratch);
        let worst = img
            .iter()
            .map(|(r, c, v)| (v - final_output.get(r, c)).abs())
            .fold(0.0f64, f64::max);
        if worst > CONV_EPS {
            break;
        }
        convergence_time = Some(t);
    }
    Ok(CnnRun {
        snapshots,
        final_output,
        convergence_time,
    })
}

/// Convergence tolerance of the analog probe (shared by the scalar and
/// laned readout paths so they agree bit for bit).
const CONV_EPS: f64 = 0.02;
/// Probe-grid resolution of the convergence scan.
const CONV_PROBES: usize = 400;

/// The group-aware CNN readout: snapshots, final image, and the analog
/// convergence probe, with full lane groups evaluated through the **laned
/// observation interpreter** — one interpreted instruction of the fused
/// `Out`-node program serves all `L` lanes, which lifts the per-instance
/// readout tail that kept the laned CNN ensemble well under the laned
/// integration speedup.
///
/// Per-lane results are bit-identical to the scalar [`read_cnn_run`] path:
/// trajectory interpolation uses the same arithmetic on the same shared
/// time grid (lockstep fixed-step lanes), and the laned interpreter runs
/// the identical operation sequence per lane.
struct CnnReadout<'a> {
    sys: &'a CompiledSystem,
    width: usize,
    height: usize,
    t_end: f64,
    snap_times: &'a [f64],
    /// Algebraic slot of each `Out` cell, row-major — looked up once per
    /// ensemble instead of once per cell per probe.
    out_idx: Vec<usize>,
}

impl<'a> CnnReadout<'a> {
    fn new(
        sys: &'a CompiledSystem,
        width: usize,
        height: usize,
        t_end: f64,
        snap_times: &'a [f64],
    ) -> Self {
        let out_idx = (0..height * width)
            .map(|i| {
                sys.algebraic_index(&out_name(i / width, i % width))
                    .expect("Out node is algebraic")
            })
            .collect();
        CnnReadout {
            sys,
            width,
            height,
            t_end,
            snap_times,
            out_idx,
        }
    }
}

/// Reused struct-of-arrays buffers of one laned readout pass.
struct LaneReadBufs<const L: usize> {
    /// Interpolated state, `y[i][l]`.
    y: Vec<[f64; L]>,
    /// Laned observation outputs, `algs[slot][l]`.
    algs: Vec<[f64; L]>,
    /// One lane's interpolated state (AoS staging).
    row: Vec<f64>,
}

impl<'a> CnnReadout<'a> {
    /// Evaluate the output image of every lane at time `t`.
    fn images_at<const L: usize>(
        &self,
        t: f64,
        trs: &[Trajectory],
        params: &[&[f64]],
        lscratch: &mut LaneScratch<L>,
        bufs: &mut LaneReadBufs<L>,
    ) -> Vec<Image> {
        for (l, tr) in trs.iter().enumerate() {
            tr.at_into(t, &mut bufs.row);
            for (yi, &v) in bufs.y.iter_mut().zip(&bufs.row) {
                yi[l] = v;
            }
        }
        self.sys
            .eval_algebraics_lanes(t, &bufs.y, params, lscratch, &mut bufs.algs);
        (0..L)
            .map(|l| {
                Image::from_fn(self.width, self.height, |r, c| {
                    bufs.algs[self.out_idx[r * self.width + c]][l]
                })
            })
            .collect()
    }
}

impl LaneReadout<CnnRun, crate::DynError> for CnnReadout<'_> {
    fn finish(
        &self,
        _seed: u64,
        params: &[f64],
        tr: Trajectory,
        scratch: &mut EvalScratch,
    ) -> Result<CnnRun, crate::DynError> {
        read_cnn_run(
            self.sys,
            self.width,
            self.height,
            params,
            self.t_end,
            self.snap_times,
            &tr,
            scratch,
        )
    }

    fn finish_group<const L: usize>(
        &self,
        _seeds: &[u64],
        params: &[&[f64]],
        trs: Vec<Trajectory>,
        lscratch: &mut LaneScratch<L>,
        _scratch: &mut EvalScratch,
        out: &mut Vec<CnnRun>,
    ) -> Result<(), crate::DynError> {
        let n = self.sys.num_states();
        let mut bufs = LaneReadBufs {
            y: vec![[0.0; L]; n],
            algs: vec![[0.0; L]; self.sys.num_algebraics()],
            row: vec![0.0; n],
        };
        // Snapshots and final image, all lanes per probe.
        let mut snapshots: Vec<Vec<(f64, Image)>> = (0..L).map(|_| Vec::new()).collect();
        for &t in self.snap_times {
            let imgs = self.images_at(t, &trs, params, lscratch, &mut bufs);
            for (l, img) in imgs.into_iter().enumerate() {
                snapshots[l].push((t, img));
            }
        }
        let finals = self.images_at(self.t_end, &trs, params, lscratch, &mut bufs);
        // Convergence scan: walk the probe grid backwards once, all lanes
        // riding the same laned evaluation; a lane whose output leaves the
        // CONV_EPS envelope stops updating — exactly the scalar per-lane
        // break.
        let mut active = [true; L];
        let mut convergence: Vec<Option<f64>> = vec![None; L];
        for k in (0..=CONV_PROBES).rev() {
            if !active.iter().any(|&a| a) {
                break;
            }
            let t = self.t_end * k as f64 / CONV_PROBES as f64;
            let imgs = self.images_at(t, &trs, params, lscratch, &mut bufs);
            for (l, img) in imgs.into_iter().enumerate() {
                if !active[l] {
                    continue;
                }
                let worst = img
                    .iter()
                    .map(|(r, c, v)| (v - finals[l].get(r, c)).abs())
                    .fold(0.0f64, f64::max);
                if worst > CONV_EPS {
                    active[l] = false;
                } else {
                    convergence[l] = Some(t);
                }
            }
        }
        for (l, (final_output, convergence_time)) in finals.into_iter().zip(convergence).enumerate()
        {
            out.push(CnnRun {
                snapshots: std::mem::take(&mut snapshots[l]),
                final_output,
                convergence_time,
            });
        }
        Ok(())
    }
}

/// The Figure 11 / §7.1 Monte Carlo entry point on the `ark-sim` engine,
/// compile-once edition: the design is built and compiled **one time**
/// ([`build_cnn_parametric`] + [`CompiledSystem::compile_parametric`]); each
/// fabricated instance then runs with just a sampled parameter vector,
/// reusing one scratch and one ODE workspace per worker.
///
/// Results come back in `seeds` order and are bit-identical for any worker
/// count *and* to the historical rebuild-per-seed path
/// ([`build_cnn`] + [`run_cnn`]); the golden test in
/// `tests/parametric_golden.rs` pins this.
///
/// # Errors
///
/// The build/compile failure of the design, or the first (by seed order)
/// integration failure.
#[allow(clippy::too_many_arguments)]
pub fn run_cnn_ensemble(
    lang: &Language,
    input: &Image,
    template: &Template,
    nonideality: NonIdeality,
    t_end: f64,
    snap_times: &[f64],
    seeds: &[u64],
    ens: &ark_sim::Ensemble,
) -> Result<Vec<CnnRun>, crate::DynError> {
    let pcnn = build_cnn_parametric(lang, input, template, nonideality)?;
    let sys = CompiledSystem::compile_parametric(lang, &pcnn.pgraph)?;
    // Integration runs lane-batched (groups of `ens.lanes()` instances per
    // interpreted instruction), and so does the readout: full lane groups
    // evaluate the snapshot/convergence observation program through the
    // laned interpreter (see `CnnReadout`), bit-identical per lane to the
    // scalar path.
    let readout = CnnReadout::new(&sys, pcnn.width, pcnn.height, t_end, snap_times);
    ens.run(&sys, &ark_ode::Rk4 { dt: CNN_SOLVER_DT }, seeds, 0.0, t_end)
        .stride(CNN_SOLVER_STRIDE)
        .map_grouped(&readout)
}

/// Population statistics of CNN edge detection under fabrication mismatch,
/// produced by the streaming ensemble path of [`run_cnn_yield`]. The
/// quality measure per fabricated instance is its wrong-pixel count against
/// the digital reference edge map; an instance *passes* when that count is
/// zero.
#[derive(Debug, Clone)]
pub struct CnnYield {
    /// Online mean/variance of the wrong-pixel count.
    pub wrong_pixels: ark_sim::reduce::MomentStats,
    /// Exact integer-resolution distribution of the wrong-pixel count
    /// (one bin per possible count).
    pub wrong_histogram: ark_sim::reduce::Histogram,
    /// Pass/fail yield (pass = zero wrong pixels).
    pub counts: ark_sim::reduce::Yield,
    /// Per-instance fault-tolerance accounting: completed/recovered/failed
    /// counts and per-error-kind first-failure provenance. Failed
    /// instances contribute no wrong-pixel sample — count them against
    /// yield via `counts.pass / recovery.total()`.
    pub recovery: ark_sim::RecoveryReport,
}

/// The Figure 11 yield sweep kernel: Monte Carlo over fabricated CNN
/// instances on the **streaming** ensemble path. Each instance integrates
/// under the allocation-free final-state observer, its output image is
/// evaluated once at `t_end` and compared against the input's digital
/// reference edge map, and the wrong-pixel count folds straight into
/// online accumulators — no trajectory, image, or per-instance result is
/// ever materialized, so memory stays O(workers · histogram) at any
/// ensemble size (the 10⁵⁺-instance sweeps of `fig11_yield` run through
/// here). Results are bit-identical for any worker count and lane width.
///
/// # Errors
///
/// The build/compile failure of the design. Per-instance integration
/// failures no longer abort the sweep: they are retried under the default
/// [`ark_sim::RecoveryPolicy`] and accounted for in
/// [`CnnYield::recovery`].
pub fn run_cnn_yield(
    lang: &Language,
    input: &Image,
    template: &Template,
    nonideality: NonIdeality,
    t_end: f64,
    seeds: &[u64],
    ens: &ark_sim::Ensemble,
) -> Result<CnnYield, crate::DynError> {
    run_cnn_yield_with(
        lang,
        input,
        template,
        nonideality,
        t_end,
        seeds,
        ens,
        &ark_sim::RecoveryPolicy::default(),
        &[],
    )
}

/// [`run_cnn_yield`] with an explicit [`ark_sim::RecoveryPolicy`] and a
/// set of seeded [`ark_sim::FaultPlan`]s. The plans corrupt the sampled
/// parameter vectors of their selected seeds *before* the initial state is
/// derived, so injected faults flow through the same prep path as real
/// mismatch — which instances are hit is a pure function of the seed, and
/// the injected run keeps the engine's bit-identity across worker counts
/// and lane widths. Pass an empty slice for a fault-free sweep.
///
/// # Errors
///
/// The build/compile failure of the design.
#[allow(clippy::too_many_arguments)]
pub fn run_cnn_yield_with(
    lang: &Language,
    input: &Image,
    template: &Template,
    nonideality: NonIdeality,
    t_end: f64,
    seeds: &[u64],
    ens: &ark_sim::Ensemble,
    policy: &ark_sim::RecoveryPolicy,
    faults: &[ark_sim::FaultPlan],
) -> Result<CnnYield, crate::DynError> {
    use ark_sim::reduce::{premap, Moments, Quantiles, YieldCounter};
    let pcnn = build_cnn_parametric(lang, input, template, nonideality)?;
    let sys = CompiledSystem::compile_parametric(lang, &pcnn.pgraph)?;
    let (width, height) = (pcnn.width, pcnn.height);
    let expected = input.digital_edge_map();
    let pixels = width * height;
    // Bins centered on the integers 0..=pixels, so quantiles of the
    // integer-valued wrong-pixel count come back exact.
    let reducer = (
        Moments,
        Quantiles::new(-0.5, pixels as f64 + 0.5, pixels + 1),
        premap(|wrong: f64| wrong == 0.0, YieldCounter),
    );
    let ((wrong_pixels, wrong_histogram, counts), recovery) = ens
        .run(&sys, &ark_ode::Rk4 { dt: CNN_SOLVER_DT }, seeds, 0.0, t_end)
        .prep(|seed| {
            let mut params = sys.sample_params(seed);
            ark_sim::faultpoint::corrupt_all(faults, seed, &mut params, &mut []);
            let y0 = sys.initial_state_for(&params);
            (params, y0)
        })
        .with_recovery(policy)
        .reduce(
            |snap, scratch| {
                let out = read_output_dims(
                    &sys,
                    width,
                    height,
                    snap.t,
                    snap.state,
                    snap.params,
                    scratch,
                );
                Ok::<_, crate::DynError>(out.diff_count(&expected) as f64)
            },
            &reducer,
        )?;
    Ok(CnnYield {
        wrong_pixels,
        wrong_histogram,
        counts,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_core::validate::validate;

    fn small_input() -> Image {
        Image::from_ascii(&[
            "........", "..####..", "..####..", "..####..", "..####..", "........",
        ])
    }

    #[test]
    fn languages_build() {
        let base = cnn_language();
        assert_eq!(base.name(), "cnn");
        let hw = hw_cnn_language(&base);
        assert!(hw.node_is_a("Vm", "V"));
        assert!(hw.node_is_a("OutNL", "Out"));
        assert!(hw.edge_is_a("fEm", "fE"));
    }

    #[test]
    fn cnn_graph_is_valid_including_grid_check() {
        let lang = cnn_language();
        let inst = build_cnn(&lang, &small_input(), &EDGE_TEMPLATE, NonIdeality::Ideal, 0).unwrap();
        let report = validate(&lang, &inst.graph, &grid_extern_registry()).unwrap();
        assert!(report.is_valid(), "{report}");
        // 3 nodes per cell.
        assert_eq!(inst.graph.num_nodes(), 3 * 48);
    }

    #[test]
    fn grid_check_rejects_mutilated_grid() {
        let lang = cnn_language();
        let inst = build_cnn(&lang, &small_input(), &EDGE_TEMPLATE, NonIdeality::Ideal, 0).unwrap();
        let mut graph = inst.graph.clone();
        // Drop one feedback edge: local rules may still pass (4..9 window)
        // but the global grid check must catch it.
        let victim = graph.edge_id("fA_2_2_0_0").unwrap();
        // Reroute it to a far-away cell to break the neighborhood.
        graph.edge_mut(victim).dst = graph.node_id("V_5_7").unwrap();
        let report = validate(&lang, &graph, &grid_extern_registry()).unwrap();
        assert!(!report.is_valid());
    }

    #[test]
    fn ideal_edge_detection_matches_digital_baseline() {
        let lang = cnn_language();
        let input = small_input();
        let inst = build_cnn(&lang, &input, &EDGE_TEMPLATE, NonIdeality::Ideal, 0).unwrap();
        let run = run_cnn(&lang, &inst, 5.0, &[]).unwrap();
        let expected = input.digital_edge_map();
        assert_eq!(
            run.final_output.diff_count(&expected),
            0,
            "\ngot:\n{}\nexpected:\n{}",
            run.final_output.to_ascii(),
            expected.to_ascii()
        );
        assert!(run.convergence_time.is_some());
    }

    #[test]
    fn non_ideal_sat_still_correct() {
        let base = cnn_language();
        let hw = hw_cnn_language(&base);
        let input = small_input();
        let inst = build_cnn(&hw, &input, &EDGE_TEMPLATE, NonIdeality::NonIdealSat, 0).unwrap();
        let run = run_cnn(&hw, &inst, 5.0, &[]).unwrap();
        assert_eq!(run.final_output.diff_count(&input.digital_edge_map()), 0);
    }

    #[test]
    fn z_mismatch_correct_but_not_identical_trajectory() {
        let base = cnn_language();
        let hw = hw_cnn_language(&base);
        let input = small_input();
        let ideal = build_cnn(&hw, &input, &EDGE_TEMPLATE, NonIdeality::Ideal, 7).unwrap();
        let zmm = build_cnn(&hw, &input, &EDGE_TEMPLATE, NonIdeality::ZMismatch, 7).unwrap();
        // The sampled z differs from the nominal.
        let z_ideal = ideal
            .graph
            .attr_value("V_2_2", "z")
            .unwrap()
            .as_real()
            .unwrap();
        let z_mm = zmm
            .graph
            .attr_value("V_2_2", "z")
            .unwrap()
            .as_real()
            .unwrap();
        assert_eq!(z_ideal, EDGE_TEMPLATE.z);
        assert_ne!(z_mm, EDGE_TEMPLATE.z);
        // Output still correct for this small case.
        let run = run_cnn(&hw, &zmm, 5.0, &[]).unwrap();
        assert_eq!(run.final_output.diff_count(&input.digital_edge_map()), 0);
    }

    #[test]
    fn g_mismatch_perturbs_output_on_larger_image() {
        let base = cnn_language();
        let hw = hw_cnn_language(&base);
        let input = Image::test_blob(12, 12);
        let expected = input.digital_edge_map();
        // Across a few seeds, g mismatch flips at least one pixel somewhere
        // (the paper's column C shows a corrupted image).
        let mut total_wrong = 0;
        for seed in 0..3 {
            let inst =
                build_cnn(&hw, &input, &EDGE_TEMPLATE, NonIdeality::GMismatch, seed).unwrap();
            let run = run_cnn(&hw, &inst, 5.0, &[]).unwrap();
            total_wrong += run.final_output.diff_count(&expected);
        }
        assert!(total_wrong > 0, "g mismatch should corrupt some pixels");
    }

    #[test]
    fn snapshots_progress_towards_edges() {
        let lang = cnn_language();
        let input = small_input();
        let inst = build_cnn(&lang, &input, &EDGE_TEMPLATE, NonIdeality::Ideal, 0).unwrap();
        let run = run_cnn(&lang, &inst, 2.0, &[0.0, 0.5, 2.0]).unwrap();
        assert_eq!(run.snapshots.len(), 3);
        let expected = input.digital_edge_map();
        let d0 = run.snapshots[0].1.diff_count(&expected);
        let d2 = run.snapshots[2].1.diff_count(&expected);
        assert!(
            d2 < d0,
            "later snapshots closer to the edge map ({d0} -> {d2})"
        );
    }

    #[test]
    fn textual_language_equivalent_to_programmatic() {
        use ark_core::program::Program;
        let prog = Program::parse(CNN_SRC).unwrap();
        let text_hw = prog.language("hw_cnn").unwrap();
        let code_hw = hw_cnn_language(&cnn_language());
        // Same structure...
        assert_eq!(text_hw.node_types().count(), code_hw.node_types().count());
        assert_eq!(text_hw.prod_rules().len(), code_hw.prod_rules().len());
        // ...and identical dynamics on the edge-detection workload.
        let input = Image::from_ascii(&["....", ".##.", ".##.", "...."]);
        let a = build_cnn(text_hw, &input, &EDGE_TEMPLATE, NonIdeality::NonIdealSat, 2).unwrap();
        let b = build_cnn(
            &code_hw,
            &input,
            &EDGE_TEMPLATE,
            NonIdeality::NonIdealSat,
            2,
        )
        .unwrap();
        let ra = run_cnn(text_hw, &a, 2.0, &[]).unwrap();
        let rb = run_cnn(&code_hw, &b, 2.0, &[]).unwrap();
        for (r, c, v) in ra.final_output.iter() {
            assert_eq!(v, rb.final_output.get(r, c), "cell ({r},{c})");
        }
    }

    #[test]
    fn ensemble_matches_serial_per_seed() {
        let base = cnn_language();
        let hw = hw_cnn_language(&base);
        let input = Image::from_ascii(&["....", ".##.", ".##.", "...."]);
        let seeds = [3u64, 4, 5, 6];
        let ens = ark_sim::Ensemble::new(2);
        let runs = run_cnn_ensemble(
            &hw,
            &input,
            &EDGE_TEMPLATE,
            NonIdeality::GMismatch,
            2.0,
            &[1.0],
            &seeds,
            &ens,
        )
        .unwrap();
        for (seed, run) in seeds.iter().zip(&runs) {
            let inst =
                build_cnn(&hw, &input, &EDGE_TEMPLATE, NonIdeality::GMismatch, *seed).unwrap();
            let serial = run_cnn(&hw, &inst, 2.0, &[1.0]).unwrap();
            for (r, c, v) in serial.final_output.iter() {
                assert_eq!(v, run.final_output.get(r, c), "seed {seed} cell ({r},{c})");
            }
            assert_eq!(serial.convergence_time, run.convergence_time);
            assert_eq!(serial.snapshots.len(), run.snapshots.len());
        }
    }

    /// The streaming yield kernel agrees with the materialized ensemble on
    /// every statistic it reports, across lane widths — and a wider
    /// mismatch sigma degrades (or at least never improves) the yield.
    #[test]
    fn streaming_yield_matches_materialized_ensemble() {
        let base = cnn_language();
        let hw = hw_cnn_language_sigma(&base, 0.1);
        let input = Image::from_ascii(&["....", ".##.", ".##.", "...."]);
        let expected = input.digital_edge_map();
        let seeds: Vec<u64> = (0..9).collect();
        let runs = run_cnn_ensemble(
            &hw,
            &input,
            &EDGE_TEMPLATE,
            NonIdeality::ZMismatch,
            2.0,
            &[],
            &seeds,
            &ark_sim::Ensemble::serial(),
        )
        .unwrap();
        let wrong: Vec<f64> = runs
            .iter()
            .map(|r| r.final_output.diff_count(&expected) as f64)
            .collect();
        let pass = wrong.iter().filter(|&&w| w == 0.0).count() as u64;
        for lanes in [1usize, 4, 8] {
            let ens = ark_sim::Ensemble::new(2).with_lanes(lanes);
            let y = run_cnn_yield(
                &hw,
                &input,
                &EDGE_TEMPLATE,
                NonIdeality::ZMismatch,
                2.0,
                &seeds,
                &ens,
            )
            .unwrap();
            assert_eq!(y.counts.total, seeds.len() as u64, "lanes={lanes}");
            assert_eq!(y.counts.pass, pass, "lanes={lanes}");
            assert_eq!(y.wrong_histogram.total(), seeds.len() as u64);
            let mean = wrong.iter().sum::<f64>() / wrong.len() as f64;
            assert!(
                (y.wrong_pixels.mean - mean).abs() < 1e-12,
                "lanes={lanes}: {} vs {mean}",
                y.wrong_pixels.mean
            );
        }
    }

    /// The sigma knob actually reaches the mismatch attributes: sampled
    /// parameter spread scales with it.
    #[test]
    fn sigma_knob_scales_the_sampled_spread() {
        let base = cnn_language();
        let input = Image::from_ascii(&["....", ".##.", ".##.", "...."]);
        let spread_for = |sigma: f64| {
            let hw = hw_cnn_language_sigma(&base, sigma);
            let pcnn =
                build_cnn_parametric(&hw, &input, &EDGE_TEMPLATE, NonIdeality::ZMismatch).unwrap();
            let sys = CompiledSystem::compile_parametric(&hw, &pcnn.pgraph).unwrap();
            let nominal = sys.nominal_params();
            let sampled = sys.sample_params(7);
            sampled
                .iter()
                .zip(&nominal)
                .map(|(s, n)| (s - n).abs())
                .fold(0.0f64, f64::max)
        };
        let narrow = spread_for(0.01);
        let wide = spread_for(0.2);
        assert!(narrow > 0.0, "sigma 0.01 must perturb parameters");
        assert!(wide > narrow * 5.0, "narrow {narrow} wide {wide}");
    }

    /// The laned group readout is bit-identical to the scalar per-instance
    /// readout, across lane widths and tail sizes (9 seeds give 8 lanes a
    /// full group): at `lanes = 1` every instance integrates scalar and
    /// reads out through `CnnReadout::finish`.
    #[test]
    fn laned_readout_matches_scalar_readout_bit_for_bit() {
        let base = cnn_language();
        let hw = hw_cnn_language(&base);
        let input = Image::from_ascii(&["....", ".##.", ".##.", "...."]);
        let run = |seeds: &[u64], lanes: usize| {
            let ens = ark_sim::Ensemble::new(2).with_lanes(lanes);
            run_cnn_ensemble(
                &hw,
                &input,
                &EDGE_TEMPLATE,
                NonIdeality::GMismatch,
                1.0,
                &[0.25, 0.75],
                seeds,
                &ens,
            )
            .unwrap()
        };
        for n in [3usize, 4, 7, 9] {
            let seeds: Vec<u64> = (0..n as u64).collect();
            let scalar = run(&seeds, 1);
            for lanes in [4usize, 8] {
                let laned = run(&seeds, lanes);
                assert_eq!(laned.len(), scalar.len());
                for (k, (a, b)) in laned.iter().zip(&scalar).enumerate() {
                    assert_eq!(
                        a.convergence_time, b.convergence_time,
                        "n={n} lanes={lanes} seed {k}"
                    );
                    for (r, c, v) in a.final_output.iter() {
                        assert_eq!(
                            v.to_bits(),
                            b.final_output.get(r, c).to_bits(),
                            "n={n} lanes={lanes} seed {k} cell ({r},{c})"
                        );
                    }
                    assert_eq!(a.snapshots.len(), b.snapshots.len());
                    for ((ta, ia), (tb, ib)) in a.snapshots.iter().zip(&b.snapshots) {
                        assert_eq!(ta, tb);
                        for (r, c, v) in ia.iter() {
                            assert_eq!(v.to_bits(), ib.get(r, c).to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dormand_prince_rejects_steps_on_stiff_cnn() {
        // An aggressive initial step on the CNN's switching dynamics forces
        // the PI controller through its rejection path (previously
        // uncovered) while still landing on the right image.
        let lang = cnn_language();
        let input = Image::from_ascii(&["....", ".##.", ".##.", "...."]);
        let inst = build_cnn(&lang, &input, &EDGE_TEMPLATE, NonIdeality::Ideal, 0).unwrap();
        let sys = CompiledSystem::compile(&lang, &inst.graph).unwrap();
        let solver = ark_ode::DormandPrince {
            h0: Some(2.0),
            ..ark_ode::DormandPrince::new(1e-8, 1e-10)
        };
        let tr = solver
            .integrate(&sys.bind(), 0.0, &sys.initial_state(), 5.0)
            .unwrap();
        let stats = tr.stats();
        assert!(stats.rejected >= 1, "stats {stats:?}");
        assert_eq!(stats.accepted, tr.len() - 1);
        let out = read_output(&sys, &inst, 5.0, &tr.at(5.0));
        assert_eq!(out.diff_count(&input.digital_edge_map()), 0);
    }

    #[test]
    fn erosion_template_matches_digital_morphology() {
        let lang = cnn_language();
        let input = Image::from_ascii(&[
            "........", ".#####..", ".#####..", ".#####..", "........", "........",
        ]);
        let inst = build_cnn(&lang, &input, &templates::ERODE, NonIdeality::Ideal, 0).unwrap();
        let run = run_cnn(&lang, &inst, 6.0, &[]).unwrap();
        // Digital erosion baseline (plus-shaped SE; out-of-bounds = white).
        let bin = input.binarized();
        let expected = Image::from_fn(input.width(), input.height(), |r, c| {
            let on = |rr: i64, cc: i64| {
                rr >= 0
                    && cc >= 0
                    && rr < input.height() as i64
                    && cc < input.width() as i64
                    && bin.get(rr as usize, cc as usize) > 0.0
            };
            let (r, c) = (r as i64, c as i64);
            if on(r, c) && on(r - 1, c) && on(r + 1, c) && on(r, c - 1) && on(r, c + 1) {
                1.0
            } else {
                -1.0
            }
        });
        assert_eq!(
            run.final_output.diff_count(&expected),
            0,
            "\ngot:\n{}\nexpected:\n{}",
            run.final_output.binarized().to_ascii(),
            expected.to_ascii()
        );
    }

    #[test]
    fn dilation_template_matches_digital_morphology() {
        let lang = cnn_language();
        let input = Image::from_ascii(&["......", "..##..", "..#...", "......"]);
        let inst = build_cnn(&lang, &input, &templates::DILATE, NonIdeality::Ideal, 0).unwrap();
        let run = run_cnn(&lang, &inst, 6.0, &[]).unwrap();
        // Baseline with the CNN's actual boundary condition: out-of-bounds
        // cells contribute nothing (zero padding), so a border pixel turns
        // black iff k_on - k_off + z > 0 over its in-bounds plus-SE cells.
        let bin = input.binarized();
        let expected = Image::from_fn(input.width(), input.height(), |r, c| {
            let mut score = 4.0; // z
            for (dr, dc) in [(0i64, 0i64), (-1, 0), (1, 0), (0, -1), (0, 1)] {
                let (rr, cc) = (r as i64 + dr, c as i64 + dc);
                if rr >= 0 && cc >= 0 && rr < input.height() as i64 && cc < input.width() as i64 {
                    score += bin.get(rr as usize, cc as usize);
                }
            }
            if score > 0.0 {
                1.0
            } else {
                -1.0
            }
        });
        assert_eq!(run.final_output.diff_count(&expected), 0);
        // Interior pixels still follow textbook dilation.
        assert_eq!(run.final_output.binarized().get(1, 1), 1.0); // neighbor of (2,2)...
        assert_eq!(run.final_output.binarized().get(2, 3), 1.0);
    }

    #[test]
    fn horizontal_line_template_selects_rows() {
        let lang = cnn_language();
        // One horizontal bar and one vertical bar.
        let input = Image::from_ascii(&[
            "........", ".####...", "......#.", "......#.", "......#.", "........",
        ]);
        let inst = build_cnn(
            &lang,
            &input,
            &templates::HORIZONTAL_LINE,
            NonIdeality::Ideal,
            0,
        )
        .unwrap();
        let run = run_cnn(&lang, &inst, 6.0, &[]).unwrap();
        let out = run.final_output.binarized();
        // Interior of the horizontal bar survives...
        assert_eq!(out.get(1, 2), 1.0);
        // ...the isolated vertical bar does not.
        assert_eq!(out.get(3, 6), -1.0);
    }
}

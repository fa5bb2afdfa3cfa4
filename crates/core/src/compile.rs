//! The Ark dynamical-system compiler (paper §5, Algorithm 1).
//!
//! Lowers a validated dynamical graph to a first-order ODE system:
//!
//! 1. allocate `p` state variables per order-`p` node (`InitState`);
//! 2. emit the chain equations `d nᵢ/dt = nᵢ₊₁` for `i < p-1` (`LowOrdEqs`);
//! 3. for every node, look up the most specific production rule for each
//!    incident edge (`LookUpProdRule`, with inheritance fallback), rewrite
//!    the rule template with the concrete entity names (`Rewrite`), fold
//!    attributes to constants and beta-reduce lambda-attribute calls;
//! 4. aggregate per node with the node type's reduction operator (`FormEq`);
//! 5. order-0 nodes become *algebraic* variables evaluated before the
//!    derivatives each right-hand-side call (scheduled topologically;
//!    algebraic cycles are rejected).
//!
//! The result, [`CompiledSystem`], has all expressions lowered into fused
//! [`ark_expr::SystemProgram`]s and retains the per-node expressions and
//! human-readable equations for inspection (the paper's generated
//! differential equations). It is immutable and `Send + Sync`: evaluation
//! state lives in a separate per-worker [`EvalScratch`], and
//! [`CompiledSystem::bind`] pairs the two into a [`BoundSystem`]
//! implementing [`ark_ode::OdeSystem`] for the integrators.

use crate::dg::Graph;
use crate::func::ParametricGraph;
use crate::lang::{LangError, Language, Reduction, RuleTarget};
use crate::mismatch::{sample_param_vector, ParamSite, ParamTarget};
use crate::types::Value;
use ark_expr::program::{
    LaneScratch, ProgScratch, ProgramBuilder, ProgramResolver, SystemProgram, VarRef,
};
use ark_expr::{Backend, Differentiator, Expr, NativeStatus, TapeError};
use ark_ode::OdeSystem;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// An error raised during compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Rule dispatch was ambiguous (several equally specific rules).
    Lang(LangError),
    /// A node's type is not declared in the language.
    UnknownNodeType {
        /// Node name.
        node: String,
        /// Undeclared type.
        ty: String,
    },
    /// An attribute referenced by a production rule was never assigned.
    MissingAttr {
        /// Entity name.
        entity: String,
        /// Attribute name.
        attr: String,
    },
    /// An initial value was never assigned.
    MissingInit {
        /// Node name.
        node: String,
        /// Derivative index.
        index: usize,
    },
    /// A numeric attribute was used where a lambda was expected, or vice
    /// versa, or a lambda call had the wrong arity.
    BadAttrUse {
        /// Entity name.
        entity: String,
        /// Attribute name.
        attr: String,
        /// Explanation.
        reason: String,
    },
    /// Order-0 (pure function) nodes form a dependency cycle.
    AlgebraicLoop(Vec<String>),
    /// Program lowering failed (internal invariant; should not escape).
    Tape(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Lang(e) => write!(f, "{e}"),
            CompileError::UnknownNodeType { node, ty } => {
                write!(f, "node `{node}` has undeclared type `{ty}`")
            }
            CompileError::MissingAttr { entity, attr } => {
                write!(
                    f,
                    "attribute {entity}.{attr} required by a production rule is unset"
                )
            }
            CompileError::MissingInit { node, index } => {
                write!(f, "initial value init({index}) of `{node}` is unset")
            }
            CompileError::BadAttrUse {
                entity,
                attr,
                reason,
            } => {
                write!(f, "bad use of attribute {entity}.{attr}: {reason}")
            }
            CompileError::AlgebraicLoop(ns) => {
                write!(
                    f,
                    "algebraic loop through order-0 nodes: {}",
                    ns.join(" -> ")
                )
            }
            CompileError::Tape(m) => write!(f, "tape lowering failed: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LangError> for CompileError {
    fn from(e: LangError) -> Self {
        CompileError::Lang(e)
    }
}

impl From<TapeError> for CompileError {
    fn from(e: TapeError) -> Self {
        CompileError::Tape(e.to_string())
    }
}

/// A state variable of the compiled system: the `deriv`-th derivative of a
/// node's quantity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateVar {
    /// Node name.
    pub node: String,
    /// Derivative index (0 = the node quantity itself).
    pub deriv: usize,
}

impl fmt::Display for StateVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.node, "'".repeat(self.deriv))
    }
}

/// Per-worker evaluation buffers for a [`CompiledSystem`].
///
/// The compiled system itself is immutable (`Send + Sync`), so one compiled
/// design can be shared by reference across a thread pool; each worker owns
/// an `EvalScratch` and passes it to the `*_with` evaluation methods.
/// All buffers are grow-only, so one scratch genuinely serves systems of
/// different sizes without reallocation churn. Obtain one with
/// [`CompiledSystem::scratch`].
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Observation output buffer (the algebraic segment).
    buf: Vec<f64>,
    /// Register files for fused [`SystemProgram`]s, keyed by program id
    /// (one per program so constant pools stay primed).
    progs: Vec<ProgScratch>,
    /// Nonzero-entry output buffer for the Jacobian program
    /// ([`CompiledSystem::eval_jacobian_with`]).
    jvals: Vec<f64>,
}

impl EvalScratch {
    /// The program scratch primed for `id` (or a fresh one that the next
    /// evaluation will prime).
    fn prog_state(&mut self, id: u64) -> &mut ProgScratch {
        let i = self.prog_state_index(id);
        &mut self.progs[i]
    }

    /// Index form of [`EvalScratch::prog_state`], for callers that need to
    /// borrow other scratch fields alongside the program state.
    fn prog_state_index(&mut self, id: u64) -> usize {
        if let Some(i) = self
            .progs
            .iter()
            .position(|p| p.program_id() == Some(id) || p.program_id().is_none())
        {
            return i;
        }
        self.progs.push(ProgScratch::default());
        self.progs.len() - 1
    }
}

/// A [`CompiledSystem`] bound to one [`EvalScratch`] (and, for parametric
/// systems, one parameter vector), implementing [`ark_ode::OdeSystem`].
/// Create one per thread with [`CompiledSystem::bind`] /
/// [`CompiledSystem::bind_with_params`]; the binding is deliberately `!Sync`
/// (interior mutability), while the compiled system it borrows stays
/// shareable.
pub struct BoundSystem<'a> {
    sys: &'a CompiledSystem,
    params: Vec<f64>,
    scratch: RefCell<EvalScratch>,
}

impl<'a> BoundSystem<'a> {
    /// The underlying compiled system.
    pub fn system(&self) -> &'a CompiledSystem {
        self.sys
    }

    /// The bound parameter vector (empty for non-parametric systems).
    pub fn params(&self) -> &[f64] {
        &self.params
    }
}

impl OdeSystem for BoundSystem<'_> {
    fn dim(&self) -> usize {
        self.sys.num_states()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        // Parameters were bound at construction; the scratch is private to
        // this binding, so they cannot have changed since.
        self.sys
            .rhs_bound(t, y, dydt, &mut self.scratch.borrow_mut());
    }

    fn stage_hint(&self, hint: ark_ode::StageHint) {
        self.sys
            .rhs_stage_hint(hint, &mut self.scratch.borrow_mut());
    }

    /// Analytic Jacobian through the derivative program — always available
    /// for compiled systems (see [`CompiledSystem::jacobian`]).
    fn jacobian(&self, t: f64, y: &[f64], jac: &mut [f64]) -> bool {
        self.sys
            .eval_jacobian_with(t, y, &self.params, jac, &mut self.scratch.borrow_mut());
        true
    }
}

/// A borrowing sibling of [`BoundSystem`] for hot ensemble loops: the
/// parameter vector and the [`EvalScratch`] are owned by the caller (and
/// reused across instances), the binding is a cheap view. Create with
/// [`CompiledSystem::bind_ref`].
pub struct BoundSystemRef<'a> {
    sys: &'a CompiledSystem,
    params: &'a [f64],
    scratch: RefCell<&'a mut EvalScratch>,
}

impl OdeSystem for BoundSystemRef<'_> {
    fn dim(&self) -> usize {
        self.sys.num_states()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        // Parameters were bound at construction; the exclusive &mut borrow
        // of the scratch guarantees no interleaved rebinding.
        self.sys
            .rhs_bound(t, y, dydt, &mut self.scratch.borrow_mut());
    }

    fn stage_hint(&self, hint: ark_ode::StageHint) {
        self.sys
            .rhs_stage_hint(hint, &mut self.scratch.borrow_mut());
    }

    /// Analytic Jacobian through the derivative program — always available
    /// for compiled systems (see [`CompiledSystem::jacobian`]).
    fn jacobian(&self, t: f64, y: &[f64], jac: &mut [f64]) -> bool {
        self.sys
            .eval_jacobian_with(t, y, self.params, jac, &mut self.scratch.borrow_mut());
        true
    }
}

/// A [`CompiledSystem`] bound to `L` parameter vectors at once for
/// lane-parallel ensemble integration: implements
/// [`ark_ode::LanedOdeSystem`], evaluating all `L` instances per fused
/// instruction through the struct-of-arrays laned interpreter
/// ([`ark_expr::LaneScratch`]).
///
/// Create with [`CompiledSystem::bind_lanes`]; the caller owns (and reuses
/// across groups) the lane scratch. Per-lane results are bit-identical to
/// `L` scalar [`BoundSystemRef`] evaluations — the laned interpreter runs
/// the same operations in the same order per lane.
pub struct LanedBoundSystem<'a, const L: usize> {
    sys: &'a CompiledSystem,
    scratch: RefCell<&'a mut LaneScratch<L>>,
}

impl<const L: usize> ark_ode::LanedOdeSystem<L> for LanedBoundSystem<'_, L> {
    fn dim(&self) -> usize {
        self.sys.num_states()
    }

    fn rhs(&self, t: f64, y: &[[f64; L]], dydt: &mut [[f64; L]]) {
        let n = self.sys.num_states();
        assert_eq!(y.len(), n, "state vector length mismatch");
        assert_eq!(dydt.len(), n, "derivative vector length mismatch");
        // Parameters were bound at bind time; the exclusive &mut borrow of
        // the scratch guarantees no interleaved rebinding.
        self.sys
            .rhs_prog
            .eval_lanes_bound(&mut self.scratch.borrow_mut(), y, t, dydt);
    }

    fn stage_hint(&self, hint: ark_ode::StageHint) {
        match hint {
            ark_ode::StageHint::SameTimeNext => self.scratch.borrow_mut().hint_same_time(),
        }
    }
}

/// A dynamical graph lowered to an executable first-order ODE system.
///
/// The hot path is a pair of fused [`SystemProgram`]s (one for the
/// right-hand side, one for observing algebraic nodes) produced by the
/// optimizer pipeline in [`ark_expr::program`]. The simplified per-node
/// expressions they were lowered from stay readable through
/// [`CompiledSystem::node_expr`], so tests can check the programs against
/// the reference evaluator [`ark_expr::eval()`].
///
/// The compiled form is immutable and `Send + Sync`: compile once, then
/// share it by reference across worker threads, giving each worker its own
/// [`EvalScratch`] (or a [`BoundSystem`] via [`CompiledSystem::bind`]).
/// Systems compiled with [`CompiledSystem::compile_parametric`] additionally
/// carry *parameter slots*: one compile serves a whole mismatch ensemble,
/// each instance supplying a parameter vector
/// ([`CompiledSystem::sample_params`]) instead of a recompilation.
pub struct CompiledSystem {
    state_vars: Vec<StateVar>,
    /// Node name → base state index (0th derivative).
    state_of_node: BTreeMap<String, usize>,
    /// Node name → algebraic slot (offset into the algebraic segment).
    alg_of_node: BTreeMap<String, usize>,
    /// Fused program computing all `dydt` outputs.
    rhs_prog: SystemProgram,
    /// Fused program computing all algebraic outputs (slot order).
    obs_prog: SystemProgram,
    /// Parameter sites, in slot order (empty for non-parametric compiles).
    param_sites: Vec<ParamSite>,
    /// State-index → parameter-slot overrides for the initial state.
    init_params: Vec<(usize, usize)>,
    /// Node name → its simplified aggregated expression (the FormEq
    /// result, attributes folded except parameter slots).
    node_exprs: BTreeMap<String, Expr>,
    init: Vec<f64>,
    /// Rendered from `node_exprs` on first use.
    equations: OnceLock<Vec<String>>,
    /// The value DAG the fused programs were lowered from, retained so the
    /// Jacobian program can be derived from the *same* hash-consed nodes
    /// (sharing subexpressions with the primal RHS).
    builder: ProgramBuilder,
    /// The RHS output values inside `builder`, in state order.
    rhs_outputs: Vec<ark_expr::program::ValueId>,
    /// Lazily derived Jacobian program (compile-once, like the system).
    jac: OnceLock<JacobianProgram>,
}

/// The derivative program of a [`CompiledSystem`]: a second fused
/// [`SystemProgram`] computing every structurally nonzero entry of the ODE
/// Jacobian `∂fᵢ/∂yⱼ`, built by forward-mode differentiation of the value
/// DAG ([`ark_expr::Differentiator`]).
///
/// Obtained from [`CompiledSystem::jacobian`]; evaluated through
/// [`CompiledSystem::eval_jacobian_with`] (or implicitly by the
/// [`ark_ode::OdeSystem::jacobian`] impls of [`BoundSystem`] /
/// [`BoundSystemRef`], which is how [`ark_ode::TrBdf2`] consumes it).
/// Parameter slots line up with the primal program: the same parameter
/// vector drives both.
#[derive(Debug)]
pub struct JacobianProgram {
    prog: SystemProgram,
    /// `(row, col)` of each program output: `∂f_row/∂y_col`.
    entries: Vec<(usize, usize)>,
    dim: usize,
}

impl JacobianProgram {
    /// The `(row, col)` coordinates of the computed (structurally nonzero
    /// after pruning) Jacobian entries, one per program output.
    pub fn entries(&self) -> &[(usize, usize)] {
        &self.entries
    }

    /// Number of computed Jacobian entries (`≤ dim²`; dense entries not
    /// listed are exact zeros).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// State dimension `n` of the `n × n` Jacobian.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Fused instruction count of the derivative program (the cost metric
    /// benchmarked alongside the primal RHS instruction count).
    pub fn instrs(&self) -> usize {
        self.prog.len()
    }

    /// The fused derivative program itself, for the static-analysis suite
    /// ([`SystemProgram::verify`](ark_expr::SystemProgram::verify) and
    /// friends run on it exactly as on the primal program).
    pub fn program(&self) -> &SystemProgram {
        &self.prog
    }
}

impl fmt::Debug for CompiledSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledSystem")
            .field("states", &self.state_vars.len())
            .field("algebraics", &self.alg_of_node.len())
            .field("params", &self.param_sites.len())
            .field("rhs_instrs", &self.rhs_prog.len())
            .finish()
    }
}

/// Global count of [`CompiledSystem`] compilations (both entry points), for
/// asserting compile-once behavior of ensemble drivers in tests/benches.
static COMPILE_COUNT: AtomicU64 = AtomicU64::new(0);

impl CompiledSystem {
    /// Names of the state variables, in state-vector order.
    pub fn state_vars(&self) -> &[StateVar] {
        &self.state_vars
    }

    /// State index of a node's 0th derivative (its `var(.)` value), if the
    /// node is stateful.
    pub fn state_index(&self, node: &str) -> Option<usize> {
        self.state_of_node.get(node).copied()
    }

    /// True when the node is an order-0 (algebraic) variable.
    pub fn is_algebraic(&self, node: &str) -> bool {
        self.alg_of_node.contains_key(node)
    }

    /// The initial state vector assembled from the graph's initial values.
    pub fn initial_state(&self) -> Vec<f64> {
        self.init.clone()
    }

    /// Human-readable equations, one per state/algebraic variable — the
    /// "system of differential equations" the paper's compiler emits.
    pub fn equations(&self) -> &[String] {
        self.equations.get_or_init(|| {
            let algs = topo_algebraics(&self.alg_of_node, &self.node_exprs)
                .expect("algebraic order checked at compile");
            let states = self.state_vars.iter().enumerate().map(|(i, sv)| {
                match chain_next(&self.state_vars, i) {
                    Some(j) => format!("d{sv}/dt = {}", self.state_vars[j]),
                    None => format!("d{sv}/dt = {}", self.node_exprs[&sv.node]),
                }
            });
            algs.iter()
                .map(|name| format!("{name} = {}", self.node_exprs[name]))
                .chain(states)
                .collect()
        })
    }

    /// Number of state variables.
    pub fn num_states(&self) -> usize {
        self.state_vars.len()
    }

    /// Number of algebraic (order-0) variables.
    pub fn num_algebraics(&self) -> usize {
        self.alg_of_node.len()
    }

    /// Slot index of an algebraic (order-0) node, usable with
    /// [`CompiledSystem::eval_algebraics`].
    pub fn algebraic_index(&self, node: &str) -> Option<usize> {
        self.alg_of_node.get(node).copied()
    }

    /// The simplified aggregated expression of `node` — the right-hand side
    /// of its highest derivative, or its value for an algebraic node — with
    /// attributes folded to constants except parameter slots, which stay
    /// [`Expr::Attr`] references ([`CompiledSystem::param_index`]).
    /// `var(.)` leaves name other nodes. `None` for an unknown node.
    pub fn node_expr(&self, node: &str) -> Option<&Expr> {
        self.node_exprs.get(node)
    }

    /// A fresh evaluation scratch for this system (one per worker).
    pub fn scratch(&self) -> EvalScratch {
        EvalScratch::default()
    }

    /// The ODE sparsity pattern: for each state `i`, the sorted state
    /// indices `j` such that `fᵢ` structurally depends on `yⱼ` (a cheap
    /// walk of the value DAG — no evaluation, no differentiation).
    ///
    /// The pattern is a superset of the numerically nonzero Jacobian
    /// entries at every `(t, y, params)`: an index absent here is an exact
    /// zero of `∂fᵢ/∂yⱼ`.
    pub fn sparsity(&self) -> Vec<Vec<usize>> {
        self.builder.sparsity(&self.rhs_outputs, self.num_states())
    }

    /// The derivative program computing the ODE Jacobian `∂f/∂y`, built on
    /// first use by forward-mode differentiation of the retained value DAG
    /// and cached for the lifetime of the system (compile-once, matching
    /// the primal program's parameter slots).
    pub fn jacobian(&self) -> &JacobianProgram {
        self.jac.get_or_init(|| {
            let n = self.num_states();
            let pattern = self.builder.sparsity(&self.rhs_outputs, n);
            let mut pb = self.builder.clone();
            let mut entries = Vec::new();
            let mut outs = Vec::new();
            {
                let mut d = Differentiator::new(&mut pb);
                for (i, cols) in pattern.iter().enumerate() {
                    for &j in cols {
                        // The walk is structural; differentiation can still
                        // prune an entry to an exact zero (e.g. `y - y`).
                        if let Some(v) = d.derive(self.rhs_outputs[i], j) {
                            entries.push((i, j));
                            outs.push(v);
                        }
                    }
                }
            }
            let mut prog = pb.finish(&outs, self.param_sites.len());
            // The derivative program runs whatever engine the primal runs:
            // one dispatch choice per system, never a mixed configuration.
            prog.set_backend(self.rhs_prog.backend());
            // Differentiation is a full compiler pass: in debug builds the
            // derived program re-passes the structural verifier here (the
            // builder already verified at `finish`; this pins the contract
            // at the derivation boundary explicitly).
            debug_assert!(
                prog.verify().is_ok(),
                "Differentiator emitted an invalid Jacobian program: {:?}",
                prog.verify()
            );
            JacobianProgram {
                prog,
                entries,
                dim: n,
            }
        })
    }

    /// The execution backend of this system's fused programs (RHS,
    /// observables, and the derived Jacobian program all share it).
    pub fn backend(&self) -> Backend {
        self.rhs_prog.backend()
    }

    /// Request an execution backend for every fused program of this system
    /// (RHS, observables, and the Jacobian program derived after this
    /// call). Results are bit-identical across backends —
    /// [`Backend::Native`] falls back to the interpreter silently when
    /// codegen is unavailable, so this is a performance knob, never a
    /// semantics knob. The process-wide default comes from `ARK_BACKEND`
    /// ([`Backend::from_env`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.rhs_prog.set_backend(backend);
        self.obs_prog.set_backend(backend);
        // A previously derived Jacobian program carries the old choice;
        // drop it so the next `jacobian()` call rebuilds with the new one.
        self.jac = OnceLock::new();
        self
    }

    /// Whether RHS evaluations actually run generated native code (the
    /// backend is [`Backend::Native`] *and* a kernel was prepared — see
    /// [`SystemProgram::native_active`](ark_expr::SystemProgram::native_active)).
    pub fn native_active(&self) -> bool {
        self.rhs_prog.native_active()
    }

    /// Observable state of the RHS program's native-kernel slot: not
    /// requested, active, or fallen back to the interpreter together with
    /// the cached [`FallbackReason`](ark_expr::FallbackReason). The
    /// fallback itself is silent by design (results are bit-identical);
    /// this makes it diagnosable without setting `ARK_REQUIRE_NATIVE`.
    pub fn native_status(&self) -> NativeStatus {
        self.rhs_prog.native_status()
    }

    /// The fused RHS program, for the static-analysis suite
    /// ([`SystemProgram::verify`](ark_expr::SystemProgram::verify),
    /// [`ark_expr::analyze`], [`ark_expr::domain_analysis`]).
    pub fn rhs_program(&self) -> &SystemProgram {
        &self.rhs_prog
    }

    /// The fused observables program, for the static-analysis suite.
    pub fn obs_program(&self) -> &SystemProgram {
        &self.obs_prog
    }

    /// Guaranteed-undefined operations found by interval/domain analysis
    /// over the RHS and observables programs, formatted one per line
    /// (`rhs: ...` / `obs: ...`). Conservative: a warning holds for
    /// *every* reachable input, and an empty result proves nothing.
    /// Ensemble recovery reports carry these lines as provenance
    /// (`RecoveryReport::domain_warnings` in `ark-sim`), so a design whose
    /// failures stem from a statically-doomed operation is recognizable
    /// from the report alone.
    pub fn domain_warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        for w in ark_expr::domain_analysis(&self.rhs_prog) {
            out.push(format!("rhs: {w}"));
        }
        for w in ark_expr::domain_analysis(&self.obs_prog) {
            out.push(format!("obs: {w}"));
        }
        out
    }

    /// Evaluate the Jacobian `∂f/∂y` at `(t, y)` into the row-major dense
    /// `jac` (`n × n`, `jac[i*n + j] = ∂fᵢ/∂yⱼ`) through the given scratch.
    /// Entries outside the sparsity pattern are written as `0.0`. Derives
    /// the Jacobian program on first call ([`CompiledSystem::jacobian`]).
    ///
    /// # Panics
    ///
    /// Panics if `y`, `jac`, or `params` has the wrong length.
    pub fn eval_jacobian_with(
        &self,
        t: f64,
        y: &[f64],
        params: &[f64],
        jac: &mut [f64],
        scratch: &mut EvalScratch,
    ) {
        let n = self.num_states();
        assert_eq!(y.len(), n, "state vector length mismatch");
        assert_eq!(jac.len(), n * n, "jacobian buffer length mismatch");
        assert_eq!(params.len(), self.num_params(), "parameter length");
        let jp = self.jacobian();
        jac.fill(0.0);
        if jp.entries.is_empty() {
            return;
        }
        let idx = scratch.prog_state_index(jp.prog.id());
        if scratch.jvals.len() < jp.entries.len() {
            scratch.jvals.resize(jp.entries.len(), 0.0);
        }
        // Disjoint field borrows: the program state and the output buffer.
        let EvalScratch { progs, jvals, .. } = scratch;
        jp.prog.eval_into(
            &mut progs[idx],
            y,
            t,
            params,
            &mut jvals[..jp.entries.len()],
        );
        for (k, &(i, j)) in jp.entries.iter().enumerate() {
            jac[i * n + j] = jvals[k];
        }
    }

    /// Number of parameter slots (zero for non-parametric compiles).
    pub fn num_params(&self) -> usize {
        self.param_sites.len()
    }

    /// The parameter sites, in slot order.
    pub fn param_sites(&self) -> &[ParamSite] {
        &self.param_sites
    }

    /// Slot of the *last* parameter site backing `entity.attr`, if any.
    pub fn param_index(&self, entity: &str, attr: &str) -> Option<usize> {
        self.param_sites.iter().rposition(|s| {
            s.entity == entity && matches!(&s.target, ParamTarget::Attr(a) if a == attr)
        })
    }

    /// Slot of the *last* parameter site backing `node`'s `deriv`-th initial
    /// value, if any.
    pub fn param_index_init(&self, node: &str, deriv: usize) -> Option<usize> {
        self.param_sites.iter().rposition(|s| {
            s.entity == node && matches!(&s.target, ParamTarget::Init(i) if *i == deriv)
        })
    }

    /// The nominal parameter vector (every slot at its design value).
    pub fn nominal_params(&self) -> Vec<f64> {
        self.param_sites.iter().map(|s| s.nominal).collect()
    }

    /// The parameter vector of fabricated instance `seed`: replays the
    /// mismatch draws a seeded [`crate::GraphBuilder`] would have made while
    /// building this design, so running with this vector is bit-identical
    /// to rebuilding + recompiling with that seed. Explicit sites keep
    /// their nominal value (override them via [`CompiledSystem::param_index`]
    /// / [`CompiledSystem::param_index_init`]).
    pub fn sample_params(&self, seed: u64) -> Vec<f64> {
        sample_param_vector(&self.param_sites, seed)
    }

    /// The initial state for one instance: nominal initial values with any
    /// parameter-backed entries overridden from `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong length.
    pub fn initial_state_for(&self, params: &[f64]) -> Vec<f64> {
        assert_eq!(params.len(), self.num_params(), "parameter length");
        let mut init = self.init.clone();
        for &(state, slot) in &self.init_params {
            init[state] = params[slot];
        }
        init
    }

    /// Bind this system to a fresh scratch, yielding an
    /// [`ark_ode::OdeSystem`] implementation for the integrators. Cheap;
    /// create one per thread (or per integration call).
    ///
    /// # Panics
    ///
    /// Panics on a parametric system — use
    /// [`CompiledSystem::bind_with_params`] or [`CompiledSystem::bind_ref`].
    pub fn bind(&self) -> BoundSystem<'_> {
        assert_eq!(
            self.num_params(),
            0,
            "parametric system: bind_with_params/bind_ref must supply a parameter vector"
        );
        BoundSystem {
            sys: self,
            params: Vec::new(),
            scratch: RefCell::new(self.scratch()),
        }
    }

    /// Bind one fabricated instance of a parametric system (owning its
    /// parameter vector and a fresh scratch). Parameters are bound into the
    /// scratch up front, so the integration hot loop never re-validates
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong length.
    pub fn bind_with_params(&self, params: Vec<f64>) -> BoundSystem<'_> {
        assert_eq!(params.len(), self.num_params(), "parameter length");
        let mut scratch = self.scratch();
        self.prebind(&params, &mut scratch);
        BoundSystem {
            sys: self,
            params,
            scratch: RefCell::new(scratch),
        }
    }

    /// Borrowing bind for hot ensemble loops: the caller owns (and reuses)
    /// the parameter vector and scratch across instances. Parameters are
    /// bound once here (a bitwise compare against the previous instance),
    /// and the exclusive borrow guarantees they stay bound for the
    /// binding's lifetime — each RHS call is re-validation-free.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong length.
    pub fn bind_ref<'a>(
        &'a self,
        params: &'a [f64],
        scratch: &'a mut EvalScratch,
    ) -> BoundSystemRef<'a> {
        assert_eq!(params.len(), self.num_params(), "parameter length");
        self.prebind(params, scratch);
        BoundSystemRef {
            sys: self,
            params,
            scratch: RefCell::new(scratch),
        }
    }

    /// Lane-parallel bind for hot ensemble loops: `L` fabricated instances
    /// (one parameter vector per lane) share one struct-of-arrays register
    /// file, so every interpreted instruction advances all `L` instances —
    /// the single-core ensemble speedup behind the `ark-sim` laned engine.
    /// Parameters are bound once here; the exclusive borrow keeps them
    /// bound for the binding's lifetime.
    ///
    /// Works for non-parametric systems too (pass `L` empty slices).
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != L` or any lane's vector has the wrong
    /// length.
    pub fn bind_lanes<'a, const L: usize>(
        &'a self,
        params: &[&[f64]],
        scratch: &'a mut LaneScratch<L>,
    ) -> LanedBoundSystem<'a, L> {
        self.rhs_prog.set_params_lanes(scratch, params);
        LanedBoundSystem {
            sys: self,
            scratch: RefCell::new(scratch),
        }
    }

    /// Bind `params` into the scratch's register file for the rhs program.
    fn prebind(&self, params: &[f64], scratch: &mut EvalScratch) {
        if self.num_params() > 0 {
            let ps = scratch.prog_state(self.rhs_prog.id());
            self.rhs_prog.set_params(ps, params);
        }
    }

    /// Evaluate the right-hand side `f(t, y)` into `dydt` using the given
    /// scratch — the re-entrant core behind [`BoundSystem`], running the
    /// fused [`SystemProgram`].
    ///
    /// # Panics
    ///
    /// Panics if `y` or `dydt` has the wrong length, or on a parametric
    /// system (which needs [`CompiledSystem::rhs_with_params`]).
    pub fn rhs_with(&self, t: f64, y: &[f64], dydt: &mut [f64], scratch: &mut EvalScratch) {
        assert_eq!(
            self.num_params(),
            0,
            "parametric system: use rhs_with_params"
        );
        self.rhs_impl(t, y, dydt, &[], scratch);
    }

    /// [`CompiledSystem::rhs_with`] for one fabricated instance of a
    /// parametric system.
    ///
    /// # Panics
    ///
    /// Panics if `y`, `dydt`, or `params` has the wrong length.
    pub fn rhs_with_params(
        &self,
        t: f64,
        y: &[f64],
        dydt: &mut [f64],
        params: &[f64],
        scratch: &mut EvalScratch,
    ) {
        self.rhs_impl(t, y, dydt, params, scratch);
    }

    fn rhs_impl(&self, t: f64, y: &[f64], dydt: &mut [f64], params: &[f64], s: &mut EvalScratch) {
        let n = self.num_states();
        assert_eq!(y.len(), n, "state vector length mismatch");
        assert_eq!(dydt.len(), n, "derivative vector length mismatch");
        let ps = s.prog_state(self.rhs_prog.id());
        self.rhs_prog.eval_into(ps, y, t, params, dydt);
    }

    /// RHS evaluation behind a [`BoundSystem`]/[`BoundSystemRef`]: the
    /// parameters were bound at bind time and cannot have changed (the
    /// binding holds the scratch exclusively), so no per-call re-validation.
    fn rhs_bound(&self, t: f64, y: &[f64], dydt: &mut [f64], s: &mut EvalScratch) {
        let n = self.num_states();
        assert_eq!(y.len(), n, "state vector length mismatch");
        assert_eq!(dydt.len(), n, "derivative vector length mismatch");
        let ps = s.prog_state(self.rhs_prog.id());
        self.rhs_prog.eval_bound(ps, y, t, dydt);
    }

    /// Forward a solver stage hint to the fused right-hand-side program's
    /// scratch: a promised same-`t` stage lets the next evaluation skip the
    /// time-prologue revalidation (see
    /// [`ark_expr::program::ProgScratch::hint_same_time`]).
    fn rhs_stage_hint(&self, hint: ark_ode::StageHint, s: &mut EvalScratch) {
        match hint {
            ark_ode::StageHint::SameTimeNext => s.prog_state(self.rhs_prog.id()).hint_same_time(),
        }
    }

    /// Evaluate *all* algebraic (order-0) nodes at time `t` for state `y`
    /// through the given scratch, returning the algebraic segment indexed by
    /// [`CompiledSystem::algebraic_index`]. Runs the fused observation
    /// program.
    ///
    /// # Panics
    ///
    /// Panics if `y` has the wrong length, or on a parametric system (use
    /// [`CompiledSystem::eval_algebraics_with_params`]).
    pub fn eval_algebraics_with<'s>(
        &self,
        t: f64,
        y: &[f64],
        scratch: &'s mut EvalScratch,
    ) -> &'s [f64] {
        assert_eq!(
            self.num_params(),
            0,
            "parametric system: use eval_algebraics_with_params"
        );
        self.eval_algebraics_impl(t, y, &[], scratch)
    }

    /// [`CompiledSystem::eval_algebraics_with`] for one fabricated instance
    /// of a parametric system.
    ///
    /// # Panics
    ///
    /// Panics if `y` or `params` has the wrong length.
    pub fn eval_algebraics_with_params<'s>(
        &self,
        t: f64,
        y: &[f64],
        params: &[f64],
        scratch: &'s mut EvalScratch,
    ) -> &'s [f64] {
        self.eval_algebraics_impl(t, y, params, scratch)
    }

    fn eval_algebraics_impl<'s>(
        &self,
        t: f64,
        y: &[f64],
        params: &[f64],
        scratch: &'s mut EvalScratch,
    ) -> &'s [f64] {
        let n = self.num_states();
        let n_algs = self.alg_of_node.len();
        assert_eq!(y.len(), n, "state vector length mismatch");
        if scratch.buf.len() < n_algs {
            scratch.buf.resize(n_algs, 0.0);
        }
        let i = scratch.prog_state_index(self.obs_prog.id());
        self.obs_prog.eval_into(
            &mut scratch.progs[i],
            y,
            t,
            params,
            &mut scratch.buf[..n_algs],
        );
        &scratch.buf[..n_algs]
    }

    /// Lane-parallel observation: evaluate *all* algebraic (order-0) nodes
    /// for `L` instances at once — one parameter vector per lane, state
    /// struct-of-arrays (`y[i][l]`), outputs struct-of-arrays
    /// (`out[slot][l]`, indexed by [`CompiledSystem::algebraic_index`]).
    ///
    /// This is the readout sibling of [`CompiledSystem::bind_lanes`]: one
    /// interpreted instruction of the fused observation program serves all
    /// `L` lanes, and lane `l`'s outputs are bit-identical to a scalar
    /// [`CompiledSystem::eval_algebraics_with_params`] of that lane alone.
    /// Use a scratch *dedicated to observation* (separate from the RHS
    /// one), so both programs keep their constant pools primed across
    /// calls; parameter rebinding is a bitwise no-op check when unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `y`, `params`, or `out` has the wrong shape.
    pub fn eval_algebraics_lanes<const L: usize>(
        &self,
        t: f64,
        y: &[[f64; L]],
        params: &[&[f64]],
        scratch: &mut LaneScratch<L>,
        out: &mut [[f64; L]],
    ) {
        let n = self.num_states();
        let n_algs = self.alg_of_node.len();
        assert_eq!(y.len(), n, "state vector length mismatch");
        assert!(out.len() >= n_algs, "output buffer too short");
        self.obs_prog.set_params_lanes(scratch, params);
        self.obs_prog.eval_lanes_bound(scratch, y, t, out);
    }

    /// Interpreted instructions executed by one (cold) right-hand-side call
    /// on the fused path. Constants cost nothing; warm calls at a repeated
    /// `time` also skip the prologue ([`CompiledSystem::rhs_prologue_len`]).
    pub fn rhs_instruction_count(&self) -> usize {
        self.rhs_prog.len()
    }

    /// Prologue instructions of the fused right-hand side (run only when
    /// `time` or the parameters change).
    pub fn rhs_prologue_len(&self) -> usize {
        self.rhs_prog.prologue_len()
    }

    /// Register-file size of the fused right-hand side (constant pool +
    /// parameters + prologue + reused body registers).
    pub fn rhs_register_count(&self) -> usize {
        self.rhs_prog.register_count()
    }

    /// Pooled constants of the fused right-hand side.
    pub fn rhs_const_count(&self) -> usize {
        self.rhs_prog.const_count()
    }

    /// Total [`CompiledSystem`] compilations performed by this process so
    /// far. Ensemble drivers are expected to move this by exactly one per
    /// design, not one per instance; tests assert it.
    pub fn compile_count() -> u64 {
        COMPILE_COUNT.load(Ordering::Relaxed)
    }

    /// Evaluate *all* algebraic (order-0) nodes at time `t` for state `y`,
    /// returned indexed by [`CompiledSystem::algebraic_index`]. Allocating
    /// convenience wrapper over [`CompiledSystem::eval_algebraics_with`] —
    /// much cheaper than repeated [`CompiledSystem::eval_algebraic`] calls
    /// when observing many nodes (e.g. every CNN output cell).
    ///
    /// # Panics
    ///
    /// Panics if `y` has the wrong length.
    pub fn eval_algebraics(&self, t: f64, y: &[f64]) -> Vec<f64> {
        self.eval_algebraics_with(t, y, &mut self.scratch())
            .to_vec()
    }

    /// Evaluate the algebraic (order-0) node `node` at time `t` for state
    /// `y`. Useful for observing e.g. CNN output nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not algebraic or `y` has the wrong length.
    pub fn eval_algebraic(&self, node: &str, t: f64, y: &[f64]) -> f64 {
        let slot = self.alg_of_node[node];
        self.eval_algebraics_with(t, y, &mut self.scratch())[slot]
    }

    /// Compile a graph against its language (Algorithm 1).
    ///
    /// # Errors
    ///
    /// See [`CompileError`]; notably ambiguous production rules, missing
    /// attributes/initial values, and algebraic loops among order-0 nodes.
    pub fn compile(lang: &Language, graph: &Graph) -> Result<CompiledSystem, CompileError> {
        Self::compile_impl(lang, graph, &[])
    }

    /// Compile a [`ParametricGraph`] **once** for a whole mismatch ensemble:
    /// every parameter site stays a symbolic slot in the fused programs and
    /// the initial state, so each fabricated instance is just a parameter
    /// vector ([`CompiledSystem::sample_params`]) — no per-instance
    /// recompilation, and results bit-identical to rebuilding + recompiling
    /// with the matching seed.
    ///
    /// # Errors
    ///
    /// As [`CompiledSystem::compile`].
    pub fn compile_parametric(
        lang: &Language,
        pgraph: &ParametricGraph,
    ) -> Result<CompiledSystem, CompileError> {
        Self::compile_impl(lang, &pgraph.graph, &pgraph.sites)
    }

    fn compile_impl(
        lang: &Language,
        graph: &Graph,
        sites: &[ParamSite],
    ) -> Result<CompiledSystem, CompileError> {
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        // Attribute/init references that stay symbolic (parameter slots);
        // the *last* site for a target wins, matching assignment order.
        let mut attr_param: HashMap<(String, String), usize> = HashMap::new();
        let mut init_sites: Vec<(String, usize, usize)> = Vec::new();
        for (slot, site) in sites.iter().enumerate() {
            match &site.target {
                ParamTarget::Attr(a) => {
                    attr_param.insert((site.entity.clone(), a.clone()), slot);
                }
                ParamTarget::Init(k) => init_sites.push((site.entity.clone(), *k, slot)),
            }
        }
        // --- State allocation (InitState). ---
        let mut state_vars = Vec::new();
        let mut state_of_node = BTreeMap::new();
        let mut alg_of_node = BTreeMap::new();
        let mut init = Vec::new();
        for (_, node) in graph.nodes() {
            let nt = lang
                .node_type(&node.ty)
                .ok_or_else(|| CompileError::UnknownNodeType {
                    node: node.name.clone(),
                    ty: node.ty.clone(),
                })?;
            if nt.order == 0 {
                let slot = alg_of_node.len();
                alg_of_node.insert(node.name.clone(), slot);
            } else {
                state_of_node.insert(node.name.clone(), state_vars.len());
                for d in 0..nt.order {
                    state_vars.push(StateVar {
                        node: node.name.clone(),
                        deriv: d,
                    });
                    init.push(node.inits[d].ok_or_else(|| CompileError::MissingInit {
                        node: node.name.clone(),
                        index: d,
                    })?);
                }
            }
        }
        let n_states = state_vars.len();
        let n_algs = alg_of_node.len();

        // --- Per-node aggregated expressions. ---
        let mut node_exprs: BTreeMap<String, Expr> = BTreeMap::new();
        for (id, node) in graph.nodes() {
            let nt = lang.node_type(&node.ty).expect("checked above");
            let mut terms: Vec<Expr> = Vec::new();
            for eid in graph.incident_edges(id) {
                let edge = graph.edge(eid);
                let src = graph.node(edge.src);
                let dst = graph.node(edge.dst);
                let off = !edge.on;
                let (target, is_self) = if edge.is_self() {
                    (RuleTarget::Source, true)
                } else if edge.src == id {
                    (RuleTarget::Source, false)
                } else {
                    (RuleTarget::Dest, false)
                };
                let rule = lang.lookup_rule(&edge.ty, &src.ty, &dst.ty, target, is_self, off)?;
                let Some(rule) = rule else { continue };
                // Rewrite: template variables → concrete entity names.
                let edge_var = rule.edge_var.clone();
                let src_var = rule.src_var.clone();
                let dst_var = rule.dst_var.clone();
                let renamed = rule.expr.rename_entities(&|n: &str| {
                    if n == edge_var {
                        Some(edge.name.clone())
                    } else if n == src_var {
                        Some(src.name.clone())
                    } else if n == dst_var {
                        Some(dst.name.clone())
                    } else {
                        None
                    }
                });
                let folded = fold_attrs(graph, &renamed, &attr_param)?;
                terms.push(folded);
            }
            let agg = aggregate(nt.reduction, terms);
            node_exprs.insert(node.name.clone(), agg.simplify());
        }

        // --- Topologically order algebraic nodes (Kahn's algorithm). ---
        let alg_order = topo_algebraics(&alg_of_node, &node_exprs)?;

        // --- Fused lowering: one hash-consed value DAG for the whole
        // system. Algebraic `var(.)` references inline as DAG values, so
        // neighbor terms shared across nodes are computed once (CSE), and
        // per-node dispatch overhead disappears. ---
        struct SysResolver<'a> {
            state_of_node: &'a BTreeMap<String, usize>,
            alg_value: &'a BTreeMap<String, ark_expr::program::ValueId>,
            attr_param: &'a HashMap<(String, String), usize>,
        }
        impl ProgramResolver for SysResolver<'_> {
            fn var(&self, name: &str) -> Option<VarRef> {
                if let Some(&base) = self.state_of_node.get(name) {
                    Some(VarRef::Slot(base))
                } else {
                    self.alg_value.get(name).copied().map(VarRef::Value)
                }
            }
            fn attr(&self, entity: &str, attr: &str) -> Option<usize> {
                self.attr_param
                    .get(&(entity.to_string(), attr.to_string()))
                    .copied()
            }
        }
        let mut pb = ProgramBuilder::new();
        let mut alg_value: BTreeMap<String, ark_expr::program::ValueId> = BTreeMap::new();
        for name in &alg_order {
            let v = {
                let resolver = SysResolver {
                    state_of_node: &state_of_node,
                    alg_value: &alg_value,
                    attr_param: &attr_param,
                };
                pb.add_expr(&node_exprs[name], &resolver)?
            };
            alg_value.insert(name.clone(), v);
        }
        let mut rhs_outputs = Vec::with_capacity(n_states);
        let mut node_value: BTreeMap<&str, ark_expr::program::ValueId> = BTreeMap::new();
        for (i, sv) in state_vars.iter().enumerate() {
            match chain_next(&state_vars, i) {
                Some(j) => rhs_outputs.push(pb.load(j)),
                None => {
                    let v = match node_value.get(sv.node.as_str()) {
                        Some(&v) => v,
                        None => {
                            let resolver = SysResolver {
                                state_of_node: &state_of_node,
                                alg_value: &alg_value,
                                attr_param: &attr_param,
                            };
                            let v = pb.add_expr(&node_exprs[&sv.node], &resolver)?;
                            node_value.insert(sv.node.as_str(), v);
                            v
                        }
                    };
                    rhs_outputs.push(v);
                }
            }
        }
        let mut obs_outputs = vec![
            rhs_outputs
                .first()
                .copied()
                .unwrap_or_else(|| pb.constant(0.0));
            n_algs
        ];
        for (name, &slot) in &alg_of_node {
            obs_outputs[slot] = alg_value[name];
        }
        let rhs_prog = pb.finish(&rhs_outputs, sites.len());
        let obs_prog = pb.finish(&obs_outputs, sites.len());

        // --- Initial-state parameter overrides. ---
        let mut init_params = Vec::new();
        for (node, deriv, slot) in init_sites {
            if let Some(&base) = state_of_node.get(&node) {
                init_params.push((base + deriv, slot));
            }
        }

        Ok(CompiledSystem {
            state_vars,
            state_of_node,
            alg_of_node,
            rhs_prog,
            obs_prog,
            param_sites: sites.to_vec(),
            init_params,
            node_exprs,
            init,
            equations: OnceLock::new(),
            builder: pb,
            rhs_outputs,
            jac: OnceLock::new(),
        })
    }
}

/// The LowOrdEqs chain: `d yᵢ/dt = yⱼ` with `j = i + 1` when the next
/// state is the next derivative of the same node (a node's states are
/// contiguous, lowest derivative first); `None` at a node's highest
/// derivative, whose right-hand side is the node's expression.
fn chain_next(state_vars: &[StateVar], i: usize) -> Option<usize> {
    state_vars
        .get(i + 1)
        .filter(|next| next.node == state_vars[i].node)
        .map(|_| i + 1)
}

/// Replace attribute references with graph-assigned constants and
/// beta-reduce lambda-attribute calls. References listed in `params` are
/// *parameter slots*: they stay symbolic for the program lowering to resolve
/// into per-instance parameter loads.
fn fold_attrs(
    graph: &Graph,
    expr: &Expr,
    params: &HashMap<(String, String), usize>,
) -> Result<Expr, CompileError> {
    // transform() cannot fail, so collect the first error on the side.
    let err: RefCell<Option<CompileError>> = RefCell::new(None);
    let out = expr.transform(&|e| match e {
        // The empty-map guard keeps the common non-parametric path free of
        // the (String, String) key allocation.
        Expr::Attr(entity, attr)
            if !params.is_empty() && params.contains_key(&(entity.clone(), attr.clone())) =>
        {
            // Parameter slot: leave symbolic.
            None
        }
        Expr::Attr(entity, attr) => match graph.attr_value(entity, attr) {
            Some(v) => match v.as_real() {
                Some(x) => Some(Expr::Const(x)),
                None => {
                    store_err(
                        &err,
                        CompileError::BadAttrUse {
                            entity: entity.clone(),
                            attr: attr.clone(),
                            reason: "lambda attribute used as a number".into(),
                        },
                    );
                    None
                }
            },
            None => {
                store_err(
                    &err,
                    CompileError::MissingAttr {
                        entity: entity.clone(),
                        attr: attr.clone(),
                    },
                );
                None
            }
        },
        Expr::CallAttr(entity, attr, args) => match graph.attr_value(entity, attr) {
            Some(Value::Lambda(lam)) => match lam.apply(args) {
                Some(body) => Some(body),
                None => {
                    store_err(
                        &err,
                        CompileError::BadAttrUse {
                            entity: entity.clone(),
                            attr: attr.clone(),
                            reason: format!(
                                "lambda expects {} arguments, called with {}",
                                lam.params.len(),
                                args.len()
                            ),
                        },
                    );
                    None
                }
            },
            Some(_) => {
                store_err(
                    &err,
                    CompileError::BadAttrUse {
                        entity: entity.clone(),
                        attr: attr.clone(),
                        reason: "numeric attribute called as a lambda".into(),
                    },
                );
                None
            }
            None => {
                store_err(
                    &err,
                    CompileError::MissingAttr {
                        entity: entity.clone(),
                        attr: attr.clone(),
                    },
                );
                None
            }
        },
        _ => None,
    });
    match err.into_inner() {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Record the first error encountered during attribute folding.
fn store_err(slot: &RefCell<Option<CompileError>>, e: CompileError) {
    let mut slot = slot.borrow_mut();
    if slot.is_none() {
        *slot = Some(e);
    }
}

/// Combine per-edge terms with the node's reduction operator (FormEq),
/// pairing terms into a balanced tree so expression depth — and with it
/// program lowering, evaluation and `Display` recursion — is O(log terms)
/// for high-degree nodes instead of O(terms) from a left-nested fold.
fn aggregate(reduction: Reduction, terms: Vec<Expr>) -> Expr {
    if terms.is_empty() {
        return Expr::Const(reduction.identity());
    }
    let mut layer = terms;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut it = layer.into_iter();
        while let Some(a) = it.next() {
            next.push(match it.next() {
                Some(b) => match reduction {
                    Reduction::Sum => a.add(b),
                    Reduction::Mul => a.mul(b),
                },
                None => a,
            });
        }
        layer = next;
    }
    layer.pop().expect("nonempty by construction")
}

/// Order algebraic nodes so dependencies evaluate first — Kahn's algorithm
/// over a precomputed dependency index, O(nodes + deps) where the old
/// retain-loop was O(nodes²) (CNN-sized graphs have hundreds of algebraic
/// nodes). Deterministic: ready nodes are processed in name order per wave.
fn topo_algebraics(
    alg_of_node: &BTreeMap<String, usize>,
    node_exprs: &BTreeMap<String, Expr>,
) -> Result<Vec<String>, CompileError> {
    let names: Vec<&String> = alg_of_node.keys().collect();
    let idx_of: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    let mut indegree = vec![0usize; names.len()];
    for (i, name) in names.iter().enumerate() {
        for dep in node_exprs[name.as_str()].free_vars() {
            let Some(&j) = idx_of.get(dep.as_str()) else {
                continue; // state variable, always available
            };
            indegree[i] += 1;
            if j != i {
                dependents[j].push(i);
            }
            // A self-dependency has no resolver: the node stays at nonzero
            // indegree and is reported as an algebraic loop below.
        }
    }
    let mut queue: VecDeque<usize> = (0..names.len()).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(names.len());
    while let Some(i) = queue.pop_front() {
        order.push(names[i].clone());
        for &k in &dependents[i] {
            indegree[k] -= 1;
            if indegree[k] == 0 {
                queue.push_back(k);
            }
        }
    }
    if order.len() < names.len() {
        return Err(CompileError::AlgebraicLoop(
            (0..names.len())
                .filter(|&i| indegree[i] > 0)
                .map(|i| names[i].clone())
                .collect(),
        ));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::GraphBuilder;
    use crate::lang::{EdgeType, LanguageBuilder, NodeType, ProdRule};
    use crate::types::SigType;
    use ark_expr::{parse_expr, Lambda};
    use ark_ode::Rk4;

    /// RC-decay language: dV/dt = -V/(r*c) via a self edge.
    fn rc_lang() -> Language {
        LanguageBuilder::new("rc")
            .node_type(
                NodeType::new("V", 1, Reduction::Sum)
                    .attr("c", SigType::real(0.0, 10.0))
                    .attr("r", SigType::real(0.0, 10.0))
                    .init_default(SigType::real(-10.0, 10.0), 0.0),
            )
            .edge_type(EdgeType::new("E"))
            .prod(ProdRule::new(
                ("e", "E"),
                ("s", "V"),
                ("s", "V"),
                "s",
                parse_expr("-var(s)/(s.r*s.c)").unwrap(),
            ))
            .finish()
            .unwrap()
    }

    /// Coupling language for Jacobian tests: an edge feeds `e.w * var(s)`
    /// into its target alongside a `-var(t)*var(t)` self term.
    fn coupled_lang() -> Language {
        LanguageBuilder::new("coupled")
            .node_type(
                NodeType::new("N", 1, Reduction::Sum).init_default(SigType::real(-10.0, 10.0), 0.0),
            )
            .edge_type(EdgeType::new("E").attr("w", SigType::real(-10.0, 10.0)))
            .prod(ProdRule::new(
                ("e", "E"),
                ("s", "N"),
                ("t", "N"),
                "t",
                parse_expr("e.w*var(s) - var(t)*var(t)").unwrap(),
            ))
            .finish()
            .unwrap()
    }

    #[test]
    fn jacobian_entries_match_hand_derivatives() {
        let lang = coupled_lang();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("a", "N").unwrap();
        b.node("bb", "N").unwrap();
        b.edge("c", "E", "a", "bb").unwrap();
        b.set_attr("c", "w", 3.0).unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let (ia, ib) = (
            sys.state_index("a").unwrap(),
            sys.state_index("bb").unwrap(),
        );
        let n = sys.num_states();

        // d a/dt = 0 (no incoming edges), d bb/dt = 3 a − bb².
        let pattern = sys.sparsity();
        assert!(pattern[ia].is_empty(), "a has no dependencies");
        let mut want = vec![ia, ib];
        want.sort_unstable();
        assert_eq!(pattern[ib], want);

        let y = [0.7, -1.3];
        let mut jac = vec![f64::NAN; n * n];
        let mut scratch = sys.scratch();
        sys.eval_jacobian_with(0.5, &y, &[], &mut jac, &mut scratch);
        assert_eq!(jac[ia * n + ia], 0.0);
        assert_eq!(jac[ia * n + ib], 0.0);
        assert!((jac[ib * n + ia] - 3.0).abs() < 1e-14);
        assert!((jac[ib * n + ib] - (-2.0 * y[ib])).abs() < 1e-14);

        // The derivative program prunes the structurally absent entries.
        let jp = sys.jacobian();
        assert_eq!(jp.dim(), n);
        assert_eq!(jp.nnz(), 2);
        assert!(jp.instrs() > 0);
    }

    #[test]
    fn bound_systems_expose_the_analytic_jacobian() {
        let lang = rc_lang();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("v0", "V").unwrap();
        b.set_attr("v0", "c", 1.0).unwrap();
        b.set_attr("v0", "r", 0.5).unwrap();
        b.set_init("v0", 0, 1.0).unwrap();
        b.edge("self", "E", "v0", "v0").unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        // dV/dt = -V/(r c) → J = [[-2.0]].
        let bound = sys.bind();
        let mut jac = [f64::NAN];
        assert!(bound.jacobian(0.0, &[1.0], &mut jac));
        assert!((jac[0] + 2.0).abs() < 1e-14);
        // The borrowing bind agrees.
        let mut scratch = sys.scratch();
        let by_ref = sys.bind_ref(&[], &mut scratch);
        let mut jac2 = [f64::NAN];
        assert!(by_ref.jacobian(0.0, &[1.0], &mut jac2));
        assert_eq!(jac2[0], jac[0]);
    }

    #[test]
    fn parametric_jacobian_tracks_the_parameter_vector() {
        let lang = rc_lang();
        let mut b = GraphBuilder::new_parametric(&lang);
        b.node("v0", "V").unwrap();
        b.set_attr_param("v0", "c", 1.0).unwrap();
        b.set_attr("v0", "r", 0.5).unwrap();
        b.set_init("v0", 0, 1.0).unwrap();
        b.edge("self", "E", "v0", "v0").unwrap();
        let pg = b.finish_parametric().unwrap();
        let sys = CompiledSystem::compile_parametric(&lang, &pg).unwrap();
        let slot = sys.param_index("v0", "c").unwrap();
        let mut scratch = sys.scratch();
        for c in [0.5, 2.0] {
            let mut params = sys.nominal_params();
            params[slot] = c;
            let mut jac = [f64::NAN];
            sys.eval_jacobian_with(0.0, &[1.0], &params, &mut jac, &mut scratch);
            assert!(
                (jac[0] - (-1.0 / (0.5 * c))).abs() < 1e-14,
                "c={c}: {}",
                jac[0]
            );
        }
    }

    /// The Jacobian program derives once and is cached — no recompilation
    /// per evaluation (the compile-once contract of the ensemble engine).
    #[test]
    fn jacobian_program_is_derived_once() {
        let lang = rc_lang();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("v0", "V").unwrap();
        b.set_attr("v0", "c", 1.0).unwrap();
        b.set_attr("v0", "r", 0.5).unwrap();
        b.set_init("v0", 0, 1.0).unwrap();
        b.edge("self", "E", "v0", "v0").unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let first = sys.jacobian() as *const JacobianProgram;
        let second = sys.jacobian() as *const JacobianProgram;
        assert_eq!(first, second, "OnceLock-cached derivative program");
    }

    /// Compile-time guarantee behind the `ark-sim` ensemble engine: a
    /// compiled system can be shared by reference across worker threads.
    #[test]
    fn compiled_system_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledSystem>();
        assert_send_sync::<EvalScratch>();
    }

    #[test]
    fn rhs_with_shared_across_threads_matches_serial() {
        let lang = rc_lang();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("v0", "V").unwrap();
        b.set_attr("v0", "c", 1.0).unwrap();
        b.set_attr("v0", "r", 0.5).unwrap();
        b.set_init("v0", 0, 1.0).unwrap();
        b.edge("self", "E", "v0", "v0").unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let mut serial = vec![0.0];
        sys.rhs_with(0.0, &[1.0], &mut serial, &mut sys.scratch());
        let results: Vec<f64> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = sys.scratch();
                        let mut dydt = vec![0.0];
                        sys.rhs_with(0.0, &[1.0], &mut dydt, &mut scratch);
                        dydt[0]
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in results {
            assert_eq!(r, serial[0]);
        }
    }

    /// The laned bind steps `L` fabricated instances per instruction and
    /// reproduces the scalar per-instance path bit for bit.
    #[test]
    fn laned_bind_matches_scalar_per_lane() {
        use ark_expr::LaneScratch;
        use ark_ode::{LaneWorkspace, Solver, Strided};
        const L: usize = 4;
        let lang = rc_lang();
        let mut b = GraphBuilder::new_parametric(&lang);
        b.node("v0", "V").unwrap();
        b.set_attr_param("v0", "c", 1.0).unwrap();
        b.set_attr("v0", "r", 0.5).unwrap();
        b.set_init_param("v0", 0, 1.0).unwrap();
        b.edge("self", "E", "v0", "v0").unwrap();
        let pg = b.finish_parametric().unwrap();
        let sys = CompiledSystem::compile_parametric(&lang, &pg).unwrap();
        // One parameter vector per lane: vary both the attribute and the
        // initial state.
        let lane_params: Vec<Vec<f64>> = (0..L)
            .map(|l| {
                let mut p = sys.nominal_params();
                p[sys.param_index("v0", "c").unwrap()] = 0.5 + 0.25 * l as f64;
                p[sys.param_index_init("v0", 0).unwrap()] = 1.0 + l as f64;
                p
            })
            .collect();
        // Scalar reference per lane.
        let solver = Rk4 { dt: 1e-3 };
        let reference: Vec<_> = lane_params
            .iter()
            .map(|p| {
                let y0 = sys.initial_state_for(p);
                let mut scratch = sys.scratch();
                let bound = sys.bind_ref(p, &mut scratch);
                solver.integrate(&bound, 0.0, &y0, 1.0, 10).unwrap()
            })
            .collect();
        // Laned path.
        let n = sys.num_states();
        let mut y0 = vec![[0.0f64; L]; n];
        for (l, p) in lane_params.iter().enumerate() {
            for (i, v) in sys.initial_state_for(p).into_iter().enumerate() {
                y0[i][l] = v;
            }
        }
        let prefs: Vec<&[f64]> = lane_params.iter().map(|p| p.as_slice()).collect();
        let mut lscratch = LaneScratch::<L>::default();
        let bound = sys.bind_lanes(&prefs, &mut lscratch);
        let mut rec = Strided::every(10);
        solver
            .solve(&bound, 0.0, &y0, 1.0, &mut rec, &mut LaneWorkspace::new(n))
            .unwrap();
        let laned = rec.into_trajectories();
        for l in 0..L {
            assert_eq!(reference[l], laned[l], "lane {l}");
        }
    }

    #[test]
    fn compile_rc_decay_and_simulate() {
        let lang = rc_lang();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("v0", "V").unwrap();
        b.set_attr("v0", "c", 1.0).unwrap();
        b.set_attr("v0", "r", 1.0).unwrap();
        b.set_init("v0", 0, 1.0).unwrap();
        b.edge("self", "E", "v0", "v0").unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        assert_eq!(sys.num_states(), 1);
        assert_eq!(sys.state_index("v0"), Some(0));
        assert_eq!(sys.initial_state(), vec![1.0]);
        let tr = Rk4 { dt: 1e-3 }
            .integrate(&sys.bind(), 0.0, &sys.initial_state(), 1.0, 10)
            .unwrap();
        let v_end = tr.last().unwrap().1[0];
        assert!((v_end - (-1.0f64).exp()).abs() < 1e-8, "v_end {v_end}");
        // The pretty-printed equation mentions the folded attribute values.
        assert!(sys.equations()[0].starts_with("dv0/dt"));
    }

    /// Two-node coupled system exercising source/dest rule targets:
    /// dA/dt = -B, dB/dt = A  (harmonic oscillator).
    fn oscillator_lang() -> Language {
        LanguageBuilder::new("osc")
            .node_type(
                NodeType::new("X", 1, Reduction::Sum).init_default(SigType::real(-10.0, 10.0), 0.0),
            )
            .edge_type(EdgeType::new("C"))
            .prod(ProdRule::new(
                ("e", "C"),
                ("s", "X"),
                ("t", "X"),
                "s",
                parse_expr("-var(t)").unwrap(),
            ))
            .prod(ProdRule::new(
                ("e", "C"),
                ("s", "X"),
                ("t", "X"),
                "t",
                parse_expr("var(s)").unwrap(),
            ))
            .finish()
            .unwrap()
    }

    #[test]
    fn source_and_dest_rules_both_fire() {
        let lang = oscillator_lang();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("a", "X").unwrap();
        b.node("b", "X").unwrap();
        b.set_init("a", 0, 1.0).unwrap();
        b.edge("c", "C", "a", "b").unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        // One period of the harmonic oscillator returns to the start.
        let tr = Rk4 { dt: 1e-3 }
            .integrate(
                &sys.bind(),
                0.0,
                &sys.initial_state(),
                std::f64::consts::TAU,
                100,
            )
            .unwrap();
        let yf = tr.last().unwrap().1;
        assert!((yf[sys.state_index("a").unwrap()] - 1.0).abs() < 1e-6);
        assert!(yf[sys.state_index("b").unwrap()].abs() < 1e-6);
    }

    #[test]
    fn order_zero_nodes_are_algebraic() {
        // Out = 2 * V, and a sink S with dS/dt = var(Out).
        let lang = LanguageBuilder::new("alg")
            .node_type(
                NodeType::new("V", 1, Reduction::Sum).init_default(SigType::real(-10.0, 10.0), 1.0),
            )
            .node_type(NodeType::new("Out", 0, Reduction::Sum))
            .node_type(
                NodeType::new("S", 1, Reduction::Sum)
                    .init_default(SigType::real(-100.0, 100.0), 0.0),
            )
            .edge_type(EdgeType::new("E"))
            .prod(ProdRule::new(
                ("e", "E"),
                ("s", "V"),
                ("t", "Out"),
                "t",
                parse_expr("2*var(s)").unwrap(),
            ))
            .prod(ProdRule::new(
                ("e", "E"),
                ("s", "Out"),
                ("t", "S"),
                "t",
                parse_expr("var(s)").unwrap(),
            ))
            .finish()
            .unwrap();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("v", "V").unwrap();
        b.node("o", "Out").unwrap();
        b.node("s", "S").unwrap();
        b.edge("e0", "E", "v", "o").unwrap();
        b.edge("e1", "E", "o", "s").unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        assert!(sys.is_algebraic("o"));
        assert_eq!(sys.num_states(), 2);
        // V stays at 1 (no dynamics contributions), so dS/dt = 2 → S(1) = 2.
        let tr = Rk4 { dt: 1e-3 }
            .integrate(&sys.bind(), 0.0, &sys.initial_state(), 1.0, 10)
            .unwrap();
        let s_end = tr.last().unwrap().1[sys.state_index("s").unwrap()];
        assert!((s_end - 2.0).abs() < 1e-9);
        // Observing the algebraic node directly.
        assert_eq!(sys.eval_algebraic("o", 0.0, &sys.initial_state()), 2.0);
    }

    #[test]
    fn algebraic_chain_evaluates_in_order() {
        // A = var(v), B = 3*var(A): B depends on A.
        let lang = LanguageBuilder::new("chain")
            .node_type(
                NodeType::new("V", 1, Reduction::Sum).init_default(SigType::real(-10.0, 10.0), 2.0),
            )
            .node_type(NodeType::new("F", 0, Reduction::Sum))
            .edge_type(EdgeType::new("E"))
            .prod(ProdRule::new(
                ("e", "E"),
                ("s", "V"),
                ("t", "F"),
                "t",
                parse_expr("var(s)").unwrap(),
            ))
            .prod(ProdRule::new(
                ("e", "E"),
                ("s", "F"),
                ("t", "F"),
                "t",
                parse_expr("3*var(s)").unwrap(),
            ))
            .finish()
            .unwrap();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("v", "V").unwrap();
        b.node("fa", "F").unwrap();
        b.node("fb", "F").unwrap();
        b.edge("e0", "E", "v", "fa").unwrap();
        b.edge("e1", "E", "fa", "fb").unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        assert_eq!(sys.eval_algebraic("fb", 0.0, &sys.initial_state()), 6.0);
    }

    #[test]
    fn algebraic_loop_rejected() {
        let lang = LanguageBuilder::new("loopy")
            .node_type(NodeType::new("F", 0, Reduction::Sum))
            .edge_type(EdgeType::new("E"))
            .prod(ProdRule::new(
                ("e", "E"),
                ("s", "F"),
                ("t", "F"),
                "t",
                parse_expr("var(s)").unwrap(),
            ))
            .finish()
            .unwrap();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("a", "F").unwrap();
        b.node("b", "F").unwrap();
        b.edge("e0", "E", "a", "b").unwrap();
        b.edge("e1", "E", "b", "a").unwrap();
        let g = b.finish().unwrap();
        assert!(matches!(
            CompiledSystem::compile(&lang, &g),
            Err(CompileError::AlgebraicLoop(_))
        ));
    }

    #[test]
    fn switched_off_edge_contributes_nothing_without_off_rule() {
        let lang = oscillator_lang();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("a", "X").unwrap();
        b.node("b", "X").unwrap();
        b.set_init("a", 0, 1.0).unwrap();
        b.edge("c", "C", "a", "b").unwrap();
        b.set_switch("c", false).unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let tr = Rk4 { dt: 1e-2 }
            .integrate(&sys.bind(), 0.0, &sys.initial_state(), 1.0, 10)
            .unwrap();
        let yf = tr.last().unwrap().1;
        // Nothing moves.
        assert_eq!(yf[0], 1.0);
        assert_eq!(yf[1], 0.0);
    }

    #[test]
    fn off_rule_models_leakage() {
        // When the edge is off, a leakage term -0.1*var(s) applies to the
        // source (an §4.3 off-state nonideality).
        let lang = LanguageBuilder::new("leaky")
            .node_type(
                NodeType::new("X", 1, Reduction::Sum).init_default(SigType::real(-10.0, 10.0), 1.0),
            )
            .edge_type(EdgeType::new("C"))
            .prod(ProdRule::new(
                ("e", "C"),
                ("s", "X"),
                ("t", "X"),
                "t",
                parse_expr("var(s)").unwrap(),
            ))
            .prod(
                ProdRule::new(
                    ("e", "C"),
                    ("s", "X"),
                    ("t", "X"),
                    "s",
                    parse_expr("-0.1*var(s)").unwrap(),
                )
                .off(),
            )
            .finish()
            .unwrap();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("a", "X").unwrap();
        b.node("b", "X").unwrap();
        b.edge("c", "C", "a", "b").unwrap();
        b.set_switch("c", false).unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let tr = Rk4 { dt: 1e-3 }
            .integrate(&sys.bind(), 0.0, &sys.initial_state(), 1.0, 10)
            .unwrap();
        let a_end = tr.last().unwrap().1[sys.state_index("a").unwrap()];
        // a decays at rate 0.1; b receives nothing (its on-rule is inactive)
        // and stays at its default initial value of 1.
        assert!((a_end - (-0.1f64).exp()).abs() < 1e-9);
        assert_eq!(tr.last().unwrap().1[sys.state_index("b").unwrap()], 1.0);
    }

    #[test]
    fn second_order_node_chains_derivatives() {
        // d²x/dt² = -x via a self edge on an order-2 node type.
        let lang = LanguageBuilder::new("so")
            .node_type(
                NodeType::new("X", 2, Reduction::Sum)
                    .init_default(SigType::real(-10.0, 10.0), 1.0)
                    .init_default(SigType::real(-10.0, 10.0), 0.0),
            )
            .edge_type(EdgeType::new("E"))
            .prod(ProdRule::new(
                ("e", "E"),
                ("s", "X"),
                ("s", "X"),
                "s",
                parse_expr("-var(s)").unwrap(),
            ))
            .finish()
            .unwrap();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("x", "X").unwrap();
        b.edge("self", "E", "x", "x").unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        assert_eq!(sys.num_states(), 2);
        assert_eq!(sys.state_vars()[1].to_string(), "x'");
        let tr = Rk4 { dt: 1e-3 }
            .integrate(
                &sys.bind(),
                0.0,
                &sys.initial_state(),
                std::f64::consts::TAU,
                100,
            )
            .unwrap();
        let yf = tr.last().unwrap().1;
        // cos(t) returns to 1 after one period.
        assert!((yf[0] - 1.0).abs() < 1e-6);
        assert!(yf[1].abs() < 1e-6);
    }

    #[test]
    fn lambda_attribute_call_folds_into_waveform() {
        // An input node with a pulse waveform driving dV/dt = fn(time).
        let lang = LanguageBuilder::new("inp")
            .node_type(
                NodeType::new("V", 1, Reduction::Sum).init_default(SigType::real(-10.0, 10.0), 0.0),
            )
            .node_type(NodeType::new("Inp", 0, Reduction::Sum).attr("fn", SigType::lambda(1)))
            .edge_type(EdgeType::new("E"))
            .prod(ProdRule::new(
                ("e", "E"),
                ("s", "Inp"),
                ("t", "V"),
                "t",
                parse_expr("s.fn(time)").unwrap(),
            ))
            .finish()
            .unwrap();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("in", "Inp").unwrap();
        b.node("v", "V").unwrap();
        b.set_attr(
            "in",
            "fn",
            Lambda::new(vec!["t"], parse_expr("square_pulse(t, 0, 0.5)").unwrap()),
        )
        .unwrap();
        b.edge("e", "E", "in", "v").unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let tr = Rk4 { dt: 1e-3 }
            .integrate(&sys.bind(), 0.0, &sys.initial_state(), 1.0, 10)
            .unwrap();
        // v integrates a unit pulse of width 0.5 → 0.5 (up to O(dt) error
        // from the waveform discontinuity landing mid-step).
        let v_end = tr.last().unwrap().1[0];
        assert!((v_end - 0.5).abs() < 5e-3, "v_end {v_end}");
    }

    #[test]
    fn missing_attr_reported() {
        let lang = rc_lang();
        let mut g = Graph::new("rc");
        let v = g.add_node("v0", "V", 1).unwrap();
        g.node_mut(v).inits[0] = Some(1.0);
        g.add_edge("self", "E", v, v).unwrap();
        // attrs c/r never set and Graph built without the checked builder.
        assert!(matches!(
            CompiledSystem::compile(&lang, &g),
            Err(CompileError::MissingAttr { .. })
        ));
    }

    #[test]
    fn missing_init_reported() {
        let lang = rc_lang();
        let mut g = Graph::new("rc");
        let v = g.add_node("v0", "V", 1).unwrap();
        g.node_mut(v).attrs.insert("c".into(), Value::Real(1.0));
        g.node_mut(v).attrs.insert("r".into(), Value::Real(1.0));
        assert!(matches!(
            CompiledSystem::compile(&lang, &g),
            Err(CompileError::MissingInit { .. })
        ));
    }

    #[test]
    fn mul_reduction_multiplies_terms() {
        // dV/dt = var(a) * var(b) with a=2, b=3 constant → slope 6.
        let lang = LanguageBuilder::new("mul")
            .node_type(
                NodeType::new("K", 1, Reduction::Sum).init_default(SigType::real(-10.0, 10.0), 0.0),
            )
            .node_type(
                NodeType::new("P", 1, Reduction::Mul)
                    .init_default(SigType::real(-100.0, 100.0), 0.0),
            )
            .edge_type(EdgeType::new("E"))
            .prod(ProdRule::new(
                ("e", "E"),
                ("s", "K"),
                ("t", "P"),
                "t",
                parse_expr("var(s)").unwrap(),
            ))
            .finish()
            .unwrap();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("a", "K").unwrap();
        b.node("b", "K").unwrap();
        b.node("p", "P").unwrap();
        b.set_init("a", 0, 2.0).unwrap();
        b.set_init("b", 0, 3.0).unwrap();
        b.edge("e0", "E", "a", "p").unwrap();
        b.edge("e1", "E", "b", "p").unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let tr = Rk4 { dt: 1e-3 }
            .integrate(&sys.bind(), 0.0, &sys.initial_state(), 1.0, 10)
            .unwrap();
        let p_end = tr.last().unwrap().1[sys.state_index("p").unwrap()];
        assert!((p_end - 6.0).abs() < 1e-9);
    }

    #[test]
    fn no_rule_means_no_contribution() {
        // An isolated stateful node has identity dynamics (sum → 0).
        let lang = rc_lang();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("v0", "V").unwrap();
        b.set_attr("v0", "c", 1.0).unwrap();
        b.set_attr("v0", "r", 1.0).unwrap();
        b.set_init("v0", 0, 4.0).unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let tr = Rk4 { dt: 1e-2 }
            .integrate(&sys.bind(), 0.0, &sys.initial_state(), 1.0, 10)
            .unwrap();
        assert_eq!(tr.last().unwrap().1[0], 4.0);
    }
}

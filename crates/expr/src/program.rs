//! Fused whole-system programs: many expressions, one instruction stream.
//!
//! An Ark dynamical system has hundreds of expressions (one per node).
//! Evaluating each on its own wastes work three ways: shared
//! subexpressions are recomputed per node, every constant costs an
//! interpreted instruction on every call, and each expression pays its own
//! dispatch setup. [`ProgramBuilder`] instead lowers *all* of a system's
//! expressions into one hash-consed value DAG and
//! [`SystemProgram`] executes the whole right-hand side as a single fused
//! instruction stream, optimized by a five-stage pipeline:
//!
//! 1. **CSE / hash-consing** — structurally identical subexpressions across
//!    *all* nodes become one value (CNN neighbor terms, shared waveforms);
//! 2. **constant pool** — constants live in a register segment initialized
//!    once per scratch, so they cost *zero* interpreted instructions per
//!    evaluation (folding of constant operators happens at intern time with
//!    the same `f64` ops the interpreter would use, so results are
//!    bit-identical);
//! 3. **parameter slots** — designated leaves compile to loads from a
//!    per-instance parameter segment (resolved via
//!    [`ProgramResolver::attr`]), so one compiled program serves a whole
//!    mismatch ensemble: bind a new parameter vector instead of recompiling;
//! 4. **prologue hoisting** — state-independent values (functions of `time`,
//!    constants, and parameters only) are scheduled in a prologue that is
//!    skipped whenever `time` and the parameters are unchanged since the
//!    last call (RK4 evaluates two of its four stages at the same `t`);
//! 5. **fusion + liveness register allocation** — single-use multiplies
//!    feeding adds/subtracts fuse into `MulAdd`-family opcodes (computed as
//!    separate multiply-then-add so results stay bit-identical to the
//!    unfused form), negated loads fuse into `NegLoad`, and body registers
//!    are reused as soon as their value dies, so the register file stays
//!    cache-sized instead of growing one register per instruction.
//!
//! Evaluation semantics are *bit-identical* to the reference tree-walking
//! evaluator [`crate::eval()`](crate::eval()): every transformation either
//! shares or fuses identical arithmetic, never reassociates or changes it.
//! Property tests here and in `ark-core` pin this down against `eval`.

use crate::ast::{BinaryOp, BoolExpr, CmpOp, Expr, UnaryOp};
use crate::builtins;
use crate::codegen::{
    Backend, CodegenCache, CodegenError, NativeKernel, NativeStatus, NATIVE_LANE_WIDTHS,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Multi-argument builtins with a dedicated program opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin3 {
    /// `pulse(t, t0, width)` trapezoidal pulse.
    Pulse,
    /// `square_pulse(t, t0, width)` rectangular pulse.
    SquarePulse,
    /// `smoothstep(t, t0, tau)` logistic step.
    Smoothstep,
}

impl Builtin3 {
    /// Apply the builtin to its three arguments.
    pub fn apply(self, a: f64, b: f64, c: f64) -> f64 {
        match self {
            Builtin3::Pulse => builtins::pulse(a, b, c),
            Builtin3::SquarePulse => builtins::square_pulse(a, b, c),
            Builtin3::Smoothstep => builtins::smoothstep(a, b, c),
        }
    }
}

/// An error produced while lowering an expression into a program
/// ([`ProgramBuilder::add_expr`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeError {
    /// `var(.)` reference that the resolver could not map to a slot.
    UnresolvedVar(String),
    /// Attribute reference that survived constant folding.
    UnresolvedAttr(String, String),
    /// Argument reference that survived substitution.
    UnresolvedArg(String),
    /// A call that is not a program-representable builtin.
    UnsupportedCall(String),
}

impl fmt::Display for TapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeError::UnresolvedVar(n) => write!(f, "unresolved variable var({n})"),
            TapeError::UnresolvedAttr(n, a) => {
                write!(f, "attribute {n}.{a} not folded before tape compilation")
            }
            TapeError::UnresolvedArg(n) => {
                write!(f, "argument {n} not substituted before tape compilation")
            }
            TapeError::UnsupportedCall(n) => write!(f, "call to `{n}` not supported on tape"),
        }
    }
}

impl std::error::Error for TapeError {}

/// A value in the program builder's hash-consed DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

impl ValueId {
    /// Raw index into the builder's node table.
    pub(crate) fn index(self) -> u32 {
        self.0
    }

    /// Wrap a raw node-table index.
    pub(crate) fn from_index(i: u32) -> Self {
        ValueId(i)
    }
}

/// What a `var(.)` reference resolves to inside a fused program.
#[derive(Debug, Clone, Copy)]
pub enum VarRef {
    /// A dynamic input slot (read from the state vector on every call).
    Slot(usize),
    /// A value already built in this program (e.g. an algebraic node's
    /// expression) — the reference is inlined into the DAG, no load needed.
    Value(ValueId),
}

/// Resolves the dynamic leaves of an expression while lowering it into a
/// [`ProgramBuilder`].
pub trait ProgramResolver {
    /// Resolve a `var(name)` reference.
    fn var(&self, name: &str) -> Option<VarRef>;

    /// Resolve an attribute reference `entity.attr` to a parameter slot.
    /// The default (no parameters) rejects all attribute references, which
    /// makes unfolded attributes a compile error.
    fn attr(&self, _entity: &str, _attr: &str) -> Option<usize> {
        None
    }
}

/// Hash-consed DAG node. Constants are stored as raw bits so `-0.0`, NaN
/// payloads, etc. dedupe exactly (value semantics must be bit-faithful).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum VNode {
    Const(u64),
    Time,
    Load(u32),
    Param(u32),
    Un(UnaryOp, u32),
    Bin(BinaryOp, u32, u32),
    Cmp(CmpOp, u32, u32),
    And(u32, u32),
    Or(u32, u32),
    Not(u32),
    Select(u32, u32, u32),
    Call3(Builtin3, u32, u32, u32),
}

impl VNode {
    /// Operand value ids (up to 3).
    pub(crate) fn operands(&self) -> ([u32; 3], usize) {
        match *self {
            VNode::Const(_) | VNode::Time | VNode::Load(_) | VNode::Param(_) => ([0; 3], 0),
            VNode::Un(_, a) | VNode::Not(a) => ([a, 0, 0], 1),
            VNode::Bin(_, a, b) | VNode::Cmp(_, a, b) | VNode::And(a, b) | VNode::Or(a, b) => {
                ([a, b, 0], 2)
            }
            VNode::Select(a, b, c) | VNode::Call3(_, a, b, c) => ([a, b, c], 3),
        }
    }
}

/// Builds one value DAG for a whole system of expressions, then lowers it
/// into optimized [`SystemProgram`]s (one per output set).
///
/// # Examples
///
/// ```
/// use ark_expr::{parse_expr, ProgramBuilder, SlotResolver};
/// let mut pb = ProgramBuilder::new();
/// let resolve = SlotResolver(|n: &str| (n == "x").then_some(0));
/// let a = pb.add_expr(&parse_expr("2*var(x) + 1")?, &resolve)?;
/// let b = pb.add_expr(&parse_expr("1 + 2*var(x)")?, &resolve)?;
/// let prog = pb.finish(&[a, b], 0);
/// let mut scratch = ark_expr::ProgScratch::default();
/// let mut out = [0.0; 2];
/// prog.eval_into(&mut scratch, &[3.0], 0.0, &[], &mut out);
/// assert_eq!(out, [7.0, 7.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct ProgramBuilder {
    pub(crate) nodes: Vec<VNode>,
    dedup: HashMap<VNode, u32>,
    /// Per-value: state-independent (no `Load` in its dependency cone)?
    is_static: Vec<bool>,
    /// Per-value: does `Time` appear in its dependency cone?
    uses_time: Vec<bool>,
}

impl ProgramBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Intern a constant value.
    pub fn constant(&mut self, x: f64) -> ValueId {
        self.intern(VNode::Const(x.to_bits()))
    }

    /// Intern a load from input slot `slot`.
    pub fn load(&mut self, slot: usize) -> ValueId {
        self.intern(VNode::Load(slot as u32))
    }

    /// Intern a load from parameter slot `slot`.
    pub fn param(&mut self, slot: usize) -> ValueId {
        self.intern(VNode::Param(slot as u32))
    }

    pub(crate) fn intern(&mut self, node: VNode) -> ValueId {
        // Constant folding at intern time uses the *same* f64 operations the
        // interpreter would run, so folded results are bit-identical.
        let node = match node {
            VNode::Un(op, a) => match self.nodes[a as usize] {
                VNode::Const(x) => VNode::Const(op.apply(f64::from_bits(x)).to_bits()),
                _ => node,
            },
            VNode::Bin(op, a, b) => match (self.nodes[a as usize], self.nodes[b as usize]) {
                (VNode::Const(x), VNode::Const(y)) => {
                    VNode::Const(op.apply(f64::from_bits(x), f64::from_bits(y)).to_bits())
                }
                _ => node,
            },
            n => n,
        };
        if let Some(&id) = self.dedup.get(&node) {
            return ValueId(id);
        }
        let id = self.nodes.len() as u32;
        let (is_static, uses_time) = match node {
            VNode::Load(_) => (false, false),
            VNode::Time => (true, true),
            VNode::Const(_) | VNode::Param(_) => (true, false),
            _ => {
                let (ops, n) = node.operands();
                (
                    ops[..n].iter().all(|&o| self.is_static[o as usize]),
                    ops[..n].iter().any(|&o| self.uses_time[o as usize]),
                )
            }
        };
        self.nodes.push(node);
        self.is_static.push(is_static);
        self.uses_time.push(uses_time);
        self.dedup.insert(node, id);
        ValueId(id)
    }

    /// Lower an expression into the DAG, returning its value. Structurally
    /// identical subexpressions (across *all* `add_expr` calls) are shared.
    ///
    /// # Errors
    ///
    /// A [`TapeError`] for a leaf that cannot be lowered: unresolved
    /// variables, attributes without a parameter slot, arguments, and
    /// unsupported calls.
    pub fn add_expr(
        &mut self,
        expr: &Expr,
        resolve: &impl ProgramResolver,
    ) -> Result<ValueId, TapeError> {
        Ok(match expr {
            Expr::Const(x) => self.constant(*x),
            Expr::Time => self.intern(VNode::Time),
            Expr::Var(n) => match resolve.var(n) {
                Some(VarRef::Slot(s)) => self.load(s),
                Some(VarRef::Value(v)) => v,
                None => return Err(TapeError::UnresolvedVar(n.clone())),
            },
            Expr::Attr(n, a) => match resolve.attr(n, a) {
                Some(slot) => self.param(slot),
                None => return Err(TapeError::UnresolvedAttr(n.clone(), a.clone())),
            },
            Expr::Arg(n) => return Err(TapeError::UnresolvedArg(n.clone())),
            Expr::CallAttr(n, a, _) => return Err(TapeError::UnresolvedAttr(n.clone(), a.clone())),
            Expr::Unary(op, a) => {
                let ra = self.add_expr(a, resolve)?.0;
                self.intern(VNode::Un(*op, ra))
            }
            Expr::Binary(op, a, b) => {
                let ra = self.add_expr(a, resolve)?.0;
                let rb = self.add_expr(b, resolve)?.0;
                self.intern(VNode::Bin(*op, ra, rb))
            }
            Expr::Call(name, args) => {
                let builtin = match name.as_str() {
                    "pulse" => Some(Builtin3::Pulse),
                    "square_pulse" => Some(Builtin3::SquarePulse),
                    "smoothstep" => Some(Builtin3::Smoothstep),
                    _ => None,
                };
                if let Some(b3) = builtin {
                    if args.len() != 3 {
                        return Err(TapeError::UnsupportedCall(name.clone()));
                    }
                    let ra = self.add_expr(&args[0], resolve)?.0;
                    let rb = self.add_expr(&args[1], resolve)?.0;
                    let rc = self.add_expr(&args[2], resolve)?.0;
                    self.intern(VNode::Call3(b3, ra, rb, rc))
                } else {
                    let op = match name.as_str() {
                        "min" => Some(BinaryOp::Min),
                        "max" => Some(BinaryOp::Max),
                        "pow" => Some(BinaryOp::Pow),
                        _ => None,
                    };
                    match op {
                        Some(op) if args.len() == 2 => {
                            let ra = self.add_expr(&args[0], resolve)?.0;
                            let rb = self.add_expr(&args[1], resolve)?.0;
                            self.intern(VNode::Bin(op, ra, rb))
                        }
                        _ => return Err(TapeError::UnsupportedCall(name.clone())),
                    }
                }
            }
            Expr::If(c, t, e) => {
                let rc = self.add_bool(c, resolve)?.0;
                let rt = self.add_expr(t, resolve)?.0;
                let re = self.add_expr(e, resolve)?.0;
                self.intern(VNode::Select(rc, rt, re))
            }
        })
    }

    fn add_bool(
        &mut self,
        expr: &BoolExpr,
        resolve: &impl ProgramResolver,
    ) -> Result<ValueId, TapeError> {
        Ok(match expr {
            BoolExpr::Lit(b) => self.constant(if *b { 1.0 } else { 0.0 }),
            BoolExpr::Cmp(op, a, b) => {
                let ra = self.add_expr(a, resolve)?.0;
                let rb = self.add_expr(b, resolve)?.0;
                self.intern(VNode::Cmp(*op, ra, rb))
            }
            BoolExpr::And(a, b) => {
                let ra = self.add_bool(a, resolve)?.0;
                let rb = self.add_bool(b, resolve)?.0;
                self.intern(VNode::And(ra, rb))
            }
            BoolExpr::Or(a, b) => {
                let ra = self.add_bool(a, resolve)?.0;
                let rb = self.add_bool(b, resolve)?.0;
                self.intern(VNode::Or(ra, rb))
            }
            BoolExpr::Not(a) => {
                let ra = self.add_bool(a, resolve)?.0;
                self.intern(VNode::Not(ra))
            }
            BoolExpr::Pred(e) => {
                let re = self.add_expr(e, resolve)?.0;
                let zero = self.constant(0.0);
                self.intern(VNode::Cmp(CmpOp::Ne, re, zero.0))
            }
        })
    }

    /// Lower the DAG into an optimized [`SystemProgram`] computing the given
    /// outputs. Only values reachable from `outputs` are emitted (dead code
    /// eliminated); the builder is untouched, so several programs with
    /// different output sets can be finished from one DAG.
    ///
    /// `n_params` sizes the parameter segment; every slot returned by the
    /// resolver during `add_expr` must be `< n_params`.
    pub fn finish(&self, outputs: &[ValueId], n_params: usize) -> SystemProgram {
        let n = self.nodes.len();
        // --- Reachability from the outputs (dead-code elimination). ---
        let mut reachable = vec![false; n];
        let mut stack: Vec<u32> = outputs.iter().map(|v| v.0).collect();
        while let Some(v) = stack.pop() {
            if reachable[v as usize] {
                continue;
            }
            reachable[v as usize] = true;
            let (ops, k) = self.nodes[v as usize].operands();
            stack.extend_from_slice(&ops[..k]);
        }
        // --- Use counts among reachable values (outputs count as uses). ---
        let mut uses = vec![0u32; n];
        for (i, node) in self.nodes.iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            let (ops, k) = node.operands();
            for &o in &ops[..k] {
                uses[o as usize] += 1;
            }
        }
        let mut is_output = vec![false; n];
        for v in outputs {
            uses[v.0 as usize] += 1;
            is_output[v.0 as usize] = true;
        }
        // --- Segment classification. ---
        // 0 = pool (consts + params: registers filled outside evaluation),
        // 1 = parameter prologue (static, time-free: recomputed only when
        //     the parameter vector changes — once per fabricated instance),
        // 2 = time prologue (static but time-dependent: recomputed when
        //     `time` or the parameters change),
        // 3 = body (state-dependent: every call).
        let seg = |i: usize| -> u8 {
            match self.nodes[i] {
                VNode::Const(_) | VNode::Param(_) => 0,
                _ if self.is_static[i] && !self.uses_time[i] => 1,
                _ if self.is_static[i] => 2,
                _ => 3,
            }
        };
        // --- Fusion selection. ---
        // A single-use multiply feeding an add/sub fuses into the consumer;
        // a single-use load feeding a negation fuses into `NegLoad`. The
        // fused arithmetic is performed in the same order as the unfused
        // form, so results are bit-identical. Fusing across segments would
        // move work out of its cache tier, so both sides must match.
        let fusible = |i: usize, consumer_seg: u8| -> bool {
            reachable[i] && uses[i] == 1 && !is_output[i] && seg(i) == consumer_seg
        };
        #[derive(Clone, Copy)]
        enum FOp {
            Plain(VNode),
            MulAdd(u32, u32, u32), // a*b + c
            AddMul(u32, u32, u32), // a + b*c
            MulSub(u32, u32, u32), // a*b - c
            SubMul(u32, u32, u32), // a - b*c
            NegLoad(u32),          // -slots[s]
        }
        let mut fused = vec![false; n];
        // Schedule of (dest value, op). Ascending id is a topological order
        // (operands intern before their consumers); prologue tiers first,
        // then body, preserves dependencies because static values only
        // depend on static values and time-free values only on time-free
        // values.
        let mut schedule: Vec<(u32, FOp)> = Vec::new();
        for pass_seg in [1u8, 2u8, 3u8] {
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                if !reachable[i] || seg(i) != pass_seg {
                    continue;
                }
                let op = match self.nodes[i] {
                    VNode::Bin(BinaryOp::Add, a, b) => {
                        if let VNode::Bin(BinaryOp::Mul, x, y) = self.nodes[a as usize] {
                            if fusible(a as usize, pass_seg) {
                                fused[a as usize] = true;
                                schedule.push((i as u32, FOp::MulAdd(x, y, b)));
                                continue;
                            }
                        }
                        if let VNode::Bin(BinaryOp::Mul, x, y) = self.nodes[b as usize] {
                            if fusible(b as usize, pass_seg) {
                                fused[b as usize] = true;
                                schedule.push((i as u32, FOp::AddMul(a, x, y)));
                                continue;
                            }
                        }
                        FOp::Plain(self.nodes[i])
                    }
                    VNode::Bin(BinaryOp::Sub, a, b) => {
                        if let VNode::Bin(BinaryOp::Mul, x, y) = self.nodes[a as usize] {
                            if fusible(a as usize, pass_seg) {
                                fused[a as usize] = true;
                                schedule.push((i as u32, FOp::MulSub(x, y, b)));
                                continue;
                            }
                        }
                        if let VNode::Bin(BinaryOp::Mul, x, y) = self.nodes[b as usize] {
                            if fusible(b as usize, pass_seg) {
                                fused[b as usize] = true;
                                schedule.push((i as u32, FOp::SubMul(a, x, y)));
                                continue;
                            }
                        }
                        FOp::Plain(self.nodes[i])
                    }
                    VNode::Un(UnaryOp::Neg, a) => {
                        if let VNode::Load(s) = self.nodes[a as usize] {
                            if fusible(a as usize, pass_seg) {
                                fused[a as usize] = true;
                                schedule.push((i as u32, FOp::NegLoad(s)));
                                continue;
                            }
                        }
                        FOp::Plain(self.nodes[i])
                    }
                    node => FOp::Plain(node),
                };
                schedule.push((i as u32, op));
            }
        }
        // Fused values were scheduled before their consumer marked them;
        // drop their standalone entries.
        schedule.retain(|&(v, _)| !fused[v as usize]);
        let n_pprologue = schedule
            .iter()
            .filter(|&&(v, _)| seg(v as usize) == 1)
            .count();
        let n_tprologue = schedule
            .iter()
            .filter(|&&(v, _)| seg(v as usize) == 2)
            .count();
        let n_prologue = n_pprologue + n_tprologue;
        // --- Constant pool and register layout. ---
        let mut reg_of: Vec<u32> = vec![u32::MAX; n];
        let mut consts: Vec<f64> = Vec::new();
        for i in 0..n {
            if reachable[i] && !fused[i] {
                if let VNode::Const(bits) = self.nodes[i] {
                    reg_of[i] = consts.len() as u32;
                    consts.push(f64::from_bits(bits));
                }
            }
        }
        let n_consts = consts.len() as u32;
        for i in 0..n {
            if reachable[i] && !fused[i] {
                if let VNode::Param(p) = self.nodes[i] {
                    debug_assert!((p as usize) < n_params, "parameter slot out of range");
                    reg_of[i] = n_consts + p;
                }
            }
        }
        let mut next_reg = n_consts + n_params as u32;
        // Prologue registers are permanent (they must survive body runs that
        // skip the prologue), so they are allocated without reuse.
        for &(v, _) in schedule.iter().take(n_prologue) {
            reg_of[v as usize] = next_reg;
            next_reg += 1;
        }
        // --- Liveness for body registers. ---
        let fop_operands = |op: &FOp| -> ([u32; 3], usize) {
            match *op {
                FOp::Plain(node) => node.operands(),
                FOp::MulAdd(a, b, c)
                | FOp::AddMul(a, b, c)
                | FOp::MulSub(a, b, c)
                | FOp::SubMul(a, b, c) => ([a, b, c], 3),
                FOp::NegLoad(_) => ([0; 3], 0),
            }
        };
        let mut last_use = vec![0usize; n];
        for (pos, (_, op)) in schedule.iter().enumerate() {
            let (ops, k) = fop_operands(op);
            for &o in &ops[..k] {
                last_use[o as usize] = pos;
            }
        }
        for v in outputs {
            last_use[v.0 as usize] = usize::MAX;
        }
        let mut free: Vec<u32> = Vec::new();
        let body_base = next_reg;
        for (pos, &(v, op)) in schedule.iter().enumerate().skip(n_prologue) {
            // Release operand registers whose value dies here (body-allocated
            // registers only; pool/prologue registers are permanent). The
            // interpreter reads all operands before writing the destination,
            // so the destination may reuse an operand's register.
            let (ops, k) = fop_operands(&op);
            for &o in &ops[..k] {
                let r = reg_of[o as usize];
                if r >= body_base && last_use[o as usize] == pos && !free.contains(&r) {
                    free.push(r);
                }
            }
            reg_of[v as usize] = free.pop().unwrap_or_else(|| {
                let r = next_reg;
                next_reg += 1;
                r
            });
        }
        // --- Emit the final instruction stream with resolved registers. ---
        let emit = |&(v, ref op): &(u32, FOp)| -> PInstr {
            let r = |o: u32| reg_of[o as usize];
            let pop = match *op {
                FOp::MulAdd(a, b, c) => POp::MulAdd(r(a), r(b), r(c)),
                FOp::AddMul(a, b, c) => POp::AddMul(r(a), r(b), r(c)),
                FOp::MulSub(a, b, c) => POp::MulSub(r(a), r(b), r(c)),
                FOp::SubMul(a, b, c) => POp::SubMul(r(a), r(b), r(c)),
                FOp::NegLoad(s) => POp::NegLoad(s),
                FOp::Plain(node) => match node {
                    VNode::Const(_) | VNode::Param(_) => unreachable!("pool values not scheduled"),
                    VNode::Time => POp::Time,
                    VNode::Load(s) => POp::Load(s),
                    VNode::Un(op, a) => POp::Un(op, r(a)),
                    VNode::Bin(op, a, b) => POp::Bin(op, r(a), r(b)),
                    VNode::Cmp(op, a, b) => POp::Cmp(op, r(a), r(b)),
                    VNode::And(a, b) => POp::And(r(a), r(b)),
                    VNode::Or(a, b) => POp::Or(r(a), r(b)),
                    VNode::Not(a) => POp::Not(r(a)),
                    VNode::Select(a, b, c) => POp::Select(r(a), r(b), r(c)),
                    VNode::Call3(b3, a, b, c) => POp::Call3(b3, r(a), r(b), r(c)),
                },
            };
            PInstr {
                dest: reg_of[v as usize],
                op: pop,
            }
        };
        let pprologue: Vec<PInstr> = schedule[..n_pprologue].iter().map(emit).collect();
        let tprologue: Vec<PInstr> = schedule[n_pprologue..n_prologue].iter().map(emit).collect();
        let body: Vec<PInstr> = schedule[n_prologue..].iter().map(emit).collect();
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let prog = SystemProgram {
            consts,
            n_params: n_params as u32,
            pprologue,
            tprologue,
            body,
            outputs: outputs.iter().map(|v| reg_of[v.0 as usize]).collect(),
            n_regs: next_reg,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            backend: Backend::from_env(),
            native: OnceLock::new(),
        };
        // Every builder-emitted program must satisfy the structural
        // invariants the downstream passes (interpreter caching, codegen,
        // differentiation) rely on. Debug builds pay for the check on
        // every compile; release builds keep `verify()` available but
        // opt-in.
        #[cfg(debug_assertions)]
        if let Err(e) = prog.verify() {
            panic!("ProgramBuilder::finish emitted an invalid program: {e}");
        }
        prog
    }
}

/// Adapter implementing [`ProgramResolver`] from a slot-lookup closure
/// (parameterless programs).
pub struct SlotResolver<F>(pub F);

impl<F: Fn(&str) -> Option<usize>> ProgramResolver for SlotResolver<F> {
    fn var(&self, name: &str) -> Option<VarRef> {
        (self.0)(name).map(VarRef::Slot)
    }
}

/// A fused-program instruction: compute `op`, store into register `dest`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PInstr {
    pub(crate) dest: u32,
    pub(crate) op: POp,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum POp {
    Time,
    Load(u32),
    NegLoad(u32),
    Un(UnaryOp, u32),
    Bin(BinaryOp, u32, u32),
    MulAdd(u32, u32, u32),
    AddMul(u32, u32, u32),
    MulSub(u32, u32, u32),
    SubMul(u32, u32, u32),
    Cmp(CmpOp, u32, u32),
    And(u32, u32),
    Or(u32, u32),
    Not(u32),
    Select(u32, u32, u32),
    Call3(Builtin3, u32, u32, u32),
}

/// Per-worker register file for [`SystemProgram`] evaluation.
///
/// One scratch serves programs of any size (buffers grow on demand) and is
/// automatically re-primed when handed to a different program; keeping one
/// scratch per program avoids re-priming the constant pool.
#[derive(Debug, Clone, Default)]
pub struct ProgScratch {
    regs: Vec<f64>,
    /// The program this scratch is currently primed for.
    ready_for: Option<u64>,
    params_set: bool,
    /// Parameter-prologue results are valid for the bound parameters.
    pprologue_run: bool,
    has_time: bool,
    last_time: u64,
    /// Caller promise: the next evaluation repeats the previous `time` bit
    /// for bit, so the time-prologue cache needs no revalidation.
    hint_same_time: bool,
}

impl ProgScratch {
    /// The program id this scratch is currently primed for, if any.
    pub fn program_id(&self) -> Option<u64> {
        self.ready_for
    }

    /// Promise that the next evaluation through this scratch uses the same
    /// `time` (same bit pattern) as the previous one — the solver-side
    /// stage hint (RK4 stages 2/3, Dormand–Prince stages 6/7). The next
    /// evaluation then skips even the revalidation of the time-prologue
    /// cache. Consumed by exactly one evaluation. A *broken* promise makes
    /// that evaluation read stale time-prologue values (well-defined but
    /// wrong numbers — debug builds assert the time matched), so only issue
    /// it when the repeated `t` is computed bit-identically.
    pub fn hint_same_time(&mut self) {
        self.hint_same_time = true;
    }
}

/// A whole-system register program: optimized instruction stream plus
/// constant pool, parameter segment, and output map. Immutable and
/// `Send + Sync`; per-thread mutable state lives in [`ProgScratch`].
///
/// Built by [`ProgramBuilder::finish`]; see the [module docs](self) for the
/// optimization pipeline and the bit-identity guarantee.
#[derive(Debug, Clone)]
pub struct SystemProgram {
    consts: Vec<f64>,
    n_params: u32,
    /// Static, time-free instructions: run once per parameter binding.
    pub(crate) pprologue: Vec<PInstr>,
    /// Static, time-dependent instructions: run when `time` changes.
    pub(crate) tprologue: Vec<PInstr>,
    pub(crate) body: Vec<PInstr>,
    /// Register of each output, in output order.
    outputs: Vec<u32>,
    n_regs: u32,
    /// Unique id used to key scratch priming.
    id: u64,
    /// Which engine runs the instruction stream ([`Backend::Native`] falls
    /// back to the interpreter when codegen is unavailable).
    backend: Backend,
    /// Lazily prepared native kernel: unset until first requested, then
    /// `Ok(kernel)` or `Err(reason)` (codegen failed — interpret forever,
    /// with the cached reason observable via
    /// [`SystemProgram::native_status`]). Clones share the prepared slot.
    native: OnceLock<Result<Arc<NativeKernel>, CodegenError>>,
}

impl SystemProgram {
    /// Unique identity of this program (scratch priming key). Clones share
    /// the id — they have identical constant pools and layouts.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of pooled constants (zero interpreted instructions each).
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Size of the parameter segment.
    pub fn param_count(&self) -> usize {
        self.n_params as usize
    }

    /// Instructions run only when `time` or the parameters change
    /// (both prologue tiers).
    pub fn prologue_len(&self) -> usize {
        self.pprologue.len() + self.tprologue.len()
    }

    /// Instructions run only when the *parameter binding* changes — once
    /// per fabricated instance in an ensemble.
    pub fn param_prologue_len(&self) -> usize {
        self.pprologue.len()
    }

    /// Instructions run on every evaluation.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Total interpreted instructions for a cold evaluation
    /// (prologue tiers + body).
    pub fn len(&self) -> usize {
        self.pprologue.len() + self.tprologue.len() + self.body.len()
    }

    /// True when the program computes its outputs without any instructions
    /// (all outputs are pooled constants or parameters).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Size of the register file (constant pool + parameters + prologue +
    /// reused body registers).
    pub fn register_count(&self) -> usize {
        self.n_regs as usize
    }

    /// The constant pool, for the analysis passes (registers `[0, n)` are
    /// primed with these values).
    pub(crate) fn const_pool(&self) -> &[f64] {
        &self.consts
    }

    /// The output register map, for the analysis passes.
    pub(crate) fn output_regs(&self) -> &[u32] {
        &self.outputs
    }

    /// The requested execution backend for this program (defaulted from
    /// `ARK_BACKEND` at build time; see [`Backend::from_env`]).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Request an execution backend. Evaluation semantics are unchanged —
    /// [`Backend::Native`] is bit-identical to the interpreter and falls
    /// back to it silently when codegen is unavailable.
    pub fn set_backend(&mut self, backend: Backend) {
        if self.backend != backend {
            self.backend = backend;
            self.native = OnceLock::new();
        }
    }

    /// Whether evaluations actually run native code: the backend is
    /// [`Backend::Native`] *and* a kernel could be prepared. Triggers
    /// (and waits for) the one-time kernel preparation if needed.
    pub fn native_active(&self) -> bool {
        self.native_kernel().is_some()
    }

    /// Observable state of the native-kernel slot: not requested, active,
    /// or fallen back to the interpreter with the cached
    /// [`FallbackReason`](crate::FallbackReason). Triggers (and waits for)
    /// the one-time kernel preparation if needed, like
    /// [`SystemProgram::native_active`].
    pub fn native_status(&self) -> NativeStatus {
        if self.backend != Backend::Native {
            return NativeStatus::NotRequested;
        }
        match self.prepared() {
            Ok(_) => NativeStatus::Active,
            Err(e) => NativeStatus::Fallback(e.clone()),
        }
    }

    /// The kernel slot, prepared at most once per program (failure is
    /// cached as "interpret forever" together with its reason, so a
    /// missing toolchain costs one probe).
    fn prepared(&self) -> &Result<Arc<NativeKernel>, CodegenError> {
        self.native
            .get_or_init(|| CodegenCache::shared().prepare(self).map(|(k, _)| k))
    }

    /// The native kernel to use, if the backend requests one and codegen
    /// succeeded.
    fn native_kernel(&self) -> Option<&NativeKernel> {
        if self.backend != Backend::Native {
            return None;
        }
        self.prepared().as_ref().ok().map(|k| &**k)
    }

    /// [`SystemProgram::native_kernel`] guarded for the scalar path:
    /// the kernel must not read input slots past `slots.len()`.
    fn native_for(&self, n_slots: usize) -> Option<&NativeKernel> {
        self.native_kernel().filter(|k| n_slots >= k.min_slots())
    }

    /// [`SystemProgram::native_kernel`] guarded for the laned path: only
    /// widths with generated kernels ([`NATIVE_LANE_WIDTHS`]) qualify;
    /// other widths interpret (still bit-identical — that is the spec).
    fn native_for_lanes<const L: usize>(&self, n_slots: usize) -> Option<&NativeKernel> {
        if !NATIVE_LANE_WIDTHS.contains(&L) {
            return None;
        }
        self.native_for(n_slots)
    }

    /// Prime `scratch` for this program if it is not already.
    fn ensure(&self, scratch: &mut ProgScratch) {
        if scratch.ready_for == Some(self.id) {
            return;
        }
        if scratch.regs.len() < self.n_regs as usize {
            scratch.regs.resize(self.n_regs as usize, 0.0);
        }
        scratch.regs[..self.consts.len()].copy_from_slice(&self.consts);
        scratch.ready_for = Some(self.id);
        scratch.params_set = false;
        scratch.pprologue_run = false;
        scratch.has_time = false;
        scratch.hint_same_time = false;
    }

    /// Bind a parameter vector for subsequent evaluations through `scratch`.
    /// A no-op when the exact same parameter bits are already bound, so the
    /// prologue cache survives repeated binds within one instance.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from [`SystemProgram::param_count`].
    pub fn set_params(&self, scratch: &mut ProgScratch, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.n_params as usize,
            "parameter vector length mismatch"
        );
        self.ensure(scratch);
        let base = self.consts.len();
        let seg = &mut scratch.regs[base..base + params.len()];
        let unchanged = scratch.params_set
            && seg
                .iter()
                .zip(params)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !unchanged {
            seg.copy_from_slice(params);
            scratch.params_set = true;
            scratch.pprologue_run = false;
            scratch.has_time = false;
            scratch.hint_same_time = false;
        }
    }

    /// Evaluate the program: `slots` is the dynamic input vector (the state),
    /// `time` the simulation time, and `out` receives one value per output.
    /// Parametric programs (re)bind `params` first (a bitwise no-op check
    /// when unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the output count, a `Load` slot is out
    /// of bounds of `slots`, or `params` has the wrong length.
    pub fn eval_into(
        &self,
        scratch: &mut ProgScratch,
        slots: &[f64],
        time: f64,
        params: &[f64],
        out: &mut [f64],
    ) {
        if self.n_params > 0 {
            self.set_params(scratch, params);
        }
        self.eval_bound(scratch, slots, time, out);
    }

    /// Evaluate without touching the parameter binding — the hot-loop form
    /// behind an exclusive binding (the caller guarantees, typically via
    /// Rust's borrow rules, that [`SystemProgram::set_params`] was called on
    /// this scratch and the parameters have not changed since). Skips the
    /// per-call O(params) re-validation of [`SystemProgram::eval_into`].
    ///
    /// # Panics
    ///
    /// As [`SystemProgram::eval_into`], plus if parameters are required but
    /// unbound.
    pub fn eval_bound(&self, scratch: &mut ProgScratch, slots: &[f64], time: f64, out: &mut [f64]) {
        if self.n_params > 0 {
            assert!(
                scratch.ready_for == Some(self.id) && scratch.params_set,
                "parameters must be bound with set_params before eval_bound"
            );
        } else {
            self.ensure(scratch);
        }
        // Bit-identical either way: the generated code mirrors `exec`
        // operation for operation, so which engine runs is unobservable in
        // the results (only in the ns).
        let native = self.native_for(slots.len());
        let regs = &mut scratch.regs[..];
        if !scratch.pprologue_run {
            // Parameter-dependent, time-free values: once per instance.
            match native {
                Some(k) => k.run_pp(regs, slots, time),
                None => run(&self.pprologue, regs, slots, time),
            }
            scratch.pprologue_run = true;
            scratch.has_time = false;
            scratch.hint_same_time = false;
        }
        let regs = &mut scratch.regs[..];
        // A solver stage hint certifies the repeated time, skipping even
        // the bit-pattern revalidation of the time-prologue cache.
        let hinted = scratch.hint_same_time && scratch.has_time;
        scratch.hint_same_time = false;
        if hinted {
            debug_assert_eq!(
                scratch.last_time,
                time.to_bits(),
                "stage hint promised an identical time"
            );
        } else if !(scratch.has_time && scratch.last_time == time.to_bits()) {
            match native {
                Some(k) => k.run_tp(regs, slots, time),
                None => run(&self.tprologue, regs, slots, time),
            }
            scratch.last_time = time.to_bits();
            scratch.has_time = true;
        }
        assert!(out.len() >= self.outputs.len(), "output buffer too short");
        let regs = &mut scratch.regs[..];
        match native {
            Some(k) => k.run_body(regs, slots, time),
            None => run(&self.body, regs, slots, time),
        }
        for (o, &r) in out.iter_mut().zip(&self.outputs) {
            *o = regs[r as usize];
        }
    }
}

/// Struct-of-arrays register file for lane-parallel [`SystemProgram`]
/// evaluation: register `r` holds `L` values, one per ensemble instance.
///
/// The laned interpreter ([`SystemProgram::eval_lanes_bound`]) executes the
/// *same* instruction stream as the scalar path but applies every operation
/// elementwise across `L` lanes — plain `[f64; L]` arithmetic the compiler
/// auto-vectorizes — so one instruction dispatch serves `L` fabricated
/// instances. Per-lane results are bit-identical to `L` scalar evaluations
/// because each lane performs exactly the scalar operation sequence.
///
/// Like [`ProgScratch`], one `LaneScratch` serves programs of any size and
/// is re-primed when handed to a different program.
#[derive(Debug, Clone)]
pub struct LaneScratch<const L: usize> {
    regs: Vec<[f64; L]>,
    /// The program this scratch is currently primed for.
    ready_for: Option<u64>,
    params_set: bool,
    /// Parameter-prologue results are valid for the bound parameters.
    pprologue_run: bool,
    has_time: bool,
    last_time: u64,
    /// See [`ProgScratch::hint_same_time`].
    hint_same_time: bool,
}

impl<const L: usize> Default for LaneScratch<L> {
    fn default() -> Self {
        LaneScratch {
            regs: Vec::new(),
            ready_for: None,
            params_set: false,
            pprologue_run: false,
            has_time: false,
            last_time: 0,
            hint_same_time: false,
        }
    }
}

impl<const L: usize> LaneScratch<L> {
    /// The program id this scratch is currently primed for, if any.
    pub fn program_id(&self) -> Option<u64> {
        self.ready_for
    }

    /// Laned twin of [`ProgScratch::hint_same_time`]: the next laned
    /// evaluation repeats the previous `time` bit for bit.
    pub fn hint_same_time(&mut self) {
        self.hint_same_time = true;
    }
}

impl SystemProgram {
    /// Prime `scratch` for laned evaluation of this program if it is not
    /// already (constant pool splatted across all lanes).
    fn ensure_lanes<const L: usize>(&self, scratch: &mut LaneScratch<L>) {
        if scratch.ready_for == Some(self.id) {
            return;
        }
        if scratch.regs.len() < self.n_regs as usize {
            scratch.regs.resize(self.n_regs as usize, [0.0; L]);
        }
        for (r, &c) in scratch.regs.iter_mut().zip(&self.consts) {
            *r = [c; L];
        }
        scratch.ready_for = Some(self.id);
        scratch.params_set = false;
        scratch.pprologue_run = false;
        scratch.has_time = false;
        scratch.hint_same_time = false;
    }

    /// Bind one parameter vector per lane for subsequent laned evaluations.
    /// A no-op when the exact same parameter bits are already bound in every
    /// lane, so the prologue cache survives repeated binds of one group.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != L` or any lane's vector length differs
    /// from [`SystemProgram::param_count`].
    pub fn set_params_lanes<const L: usize>(
        &self,
        scratch: &mut LaneScratch<L>,
        params: &[&[f64]],
    ) {
        assert_eq!(params.len(), L, "one parameter vector per lane");
        for p in params {
            assert_eq!(
                p.len(),
                self.n_params as usize,
                "parameter vector length mismatch"
            );
        }
        self.ensure_lanes(scratch);
        let base = self.consts.len();
        let seg = &mut scratch.regs[base..base + self.n_params as usize];
        let unchanged = scratch.params_set
            && seg.iter().enumerate().all(|(i, r)| {
                params
                    .iter()
                    .zip(r.iter())
                    .all(|(p, v)| v.to_bits() == p[i].to_bits())
            });
        if !unchanged {
            for (i, r) in seg.iter_mut().enumerate() {
                for (v, p) in r.iter_mut().zip(params) {
                    *v = p[i];
                }
            }
            scratch.params_set = true;
            scratch.pprologue_run = false;
            scratch.has_time = false;
            scratch.hint_same_time = false;
        }
    }

    /// Laned evaluation: `slots` is the struct-of-arrays state
    /// (`slots[slot][lane]`), `out` receives one `[f64; L]` per output.
    /// Parameters must have been bound with
    /// [`SystemProgram::set_params_lanes`] (the caller guarantees, typically
    /// via Rust's borrow rules, that they have not changed since) — the
    /// laned sibling of [`SystemProgram::eval_bound`].
    ///
    /// Lane `l`'s outputs are bit-identical to a scalar
    /// [`SystemProgram::eval_into`] with lane `l`'s parameters and state:
    /// both prologue tiers and the body run the same operations in the same
    /// order per lane, only batched `L` instances wide.
    ///
    /// # Panics
    ///
    /// As [`SystemProgram::eval_bound`]: unbound parameters, an out-of-range
    /// `Load` slot, or an undersized output buffer.
    pub fn eval_lanes_bound<const L: usize>(
        &self,
        scratch: &mut LaneScratch<L>,
        slots: &[[f64; L]],
        time: f64,
        out: &mut [[f64; L]],
    ) {
        if self.n_params > 0 {
            assert!(
                scratch.ready_for == Some(self.id) && scratch.params_set,
                "parameters must be bound with set_params_lanes before eval_lanes_bound"
            );
        } else {
            self.ensure_lanes(scratch);
        }
        // Bit-identical either way: the laned kernels perform the scalar
        // operation sequence per lane, exactly like `exec_lanes`.
        let native = self.native_for_lanes::<L>(slots.len());
        let regs = &mut scratch.regs[..];
        if !scratch.pprologue_run {
            // Parameter-dependent, time-free values: once per lane group.
            match native {
                Some(k) => k.run_pp_lanes::<L>(regs, slots, time),
                None => run_lanes(&self.pprologue, regs, slots, time),
            }
            scratch.pprologue_run = true;
            scratch.has_time = false;
            scratch.hint_same_time = false;
        }
        let regs = &mut scratch.regs[..];
        // A solver stage hint certifies the repeated time, skipping even
        // the bit-pattern revalidation of the time-prologue cache.
        let hinted = scratch.hint_same_time && scratch.has_time;
        scratch.hint_same_time = false;
        if hinted {
            debug_assert_eq!(
                scratch.last_time,
                time.to_bits(),
                "stage hint promised an identical time"
            );
        } else if !(scratch.has_time && scratch.last_time == time.to_bits()) {
            // Static, time-dependent values: one pass serves all lanes.
            match native {
                Some(k) => k.run_tp_lanes::<L>(regs, slots, time),
                None => run_lanes(&self.tprologue, regs, slots, time),
            }
            scratch.last_time = time.to_bits();
            scratch.has_time = true;
        }
        assert!(out.len() >= self.outputs.len(), "output buffer too short");
        let regs = &mut scratch.regs[..];
        match native {
            Some(k) => k.run_body_lanes::<L>(regs, slots, time),
            None => run_lanes(&self.body, regs, slots, time),
        }
        for (o, &r) in out.iter_mut().zip(&self.outputs) {
            *o = regs[r as usize];
        }
    }
}

/// Interpret one segment (a prologue tier or the body) in order. `exec` is
/// inlined, so the segment compiles to a single dispatch loop instead of a
/// call per instruction.
fn run(instrs: &[PInstr], regs: &mut [f64], slots: &[f64], time: f64) {
    for instr in instrs {
        regs[instr.dest as usize] = exec(&instr.op, regs, slots, time);
    }
}

/// Laned twin of [`run`]: one dispatch loop per segment, with the lane
/// arithmetic of [`exec_lanes`] inlined into it.
fn run_lanes<const L: usize>(
    instrs: &[PInstr],
    regs: &mut [[f64; L]],
    slots: &[[f64; L]],
    time: f64,
) {
    for instr in instrs {
        regs[instr.dest as usize] = exec_lanes(&instr.op, regs, slots, time);
    }
}

/// Laned twin of [`exec`]: the same operation applied elementwise across
/// `L` lanes. Per lane, the arithmetic (and its order) is exactly the
/// scalar interpreter's, so results are bit-identical; the `[f64; L]` loops
/// are what the optimizer turns into SIMD.
#[inline(always)]
fn exec_lanes<const L: usize>(
    op: &POp,
    regs: &[[f64; L]],
    slots: &[[f64; L]],
    time: f64,
) -> [f64; L] {
    use std::array::from_fn;
    match *op {
        POp::Time => [time; L],
        POp::Load(s) => slots[s as usize],
        POp::NegLoad(s) => {
            let a = slots[s as usize];
            from_fn(|l| -a[l])
        }
        POp::Un(op, a) => {
            let a = regs[a as usize];
            from_fn(|l| op.apply(a[l]))
        }
        POp::Bin(op, a, b) => {
            let (a, b) = (regs[a as usize], regs[b as usize]);
            from_fn(|l| op.apply(a[l], b[l]))
        }
        POp::MulAdd(a, b, c) => {
            let (a, b, c) = (regs[a as usize], regs[b as usize], regs[c as usize]);
            from_fn(|l| a[l] * b[l] + c[l])
        }
        POp::AddMul(a, b, c) => {
            let (a, b, c) = (regs[a as usize], regs[b as usize], regs[c as usize]);
            from_fn(|l| a[l] + b[l] * c[l])
        }
        POp::MulSub(a, b, c) => {
            let (a, b, c) = (regs[a as usize], regs[b as usize], regs[c as usize]);
            from_fn(|l| a[l] * b[l] - c[l])
        }
        POp::SubMul(a, b, c) => {
            let (a, b, c) = (regs[a as usize], regs[b as usize], regs[c as usize]);
            from_fn(|l| a[l] - b[l] * c[l])
        }
        POp::Cmp(op, a, b) => {
            let (a, b) = (regs[a as usize], regs[b as usize]);
            from_fn(|l| if op.apply(a[l], b[l]) { 1.0 } else { 0.0 })
        }
        POp::And(a, b) => {
            let (a, b) = (regs[a as usize], regs[b as usize]);
            from_fn(|l| if a[l] > 0.5 && b[l] > 0.5 { 1.0 } else { 0.0 })
        }
        POp::Or(a, b) => {
            let (a, b) = (regs[a as usize], regs[b as usize]);
            from_fn(|l| if a[l] > 0.5 || b[l] > 0.5 { 1.0 } else { 0.0 })
        }
        POp::Not(a) => {
            let a = regs[a as usize];
            from_fn(|l| if a[l] > 0.5 { 0.0 } else { 1.0 })
        }
        POp::Select(c, t, e) => {
            let (c, t, e) = (regs[c as usize], regs[t as usize], regs[e as usize]);
            from_fn(|l| if c[l] > 0.5 { t[l] } else { e[l] })
        }
        POp::Call3(b3, a, b, c) => {
            let (a, b, c) = (regs[a as usize], regs[b as usize], regs[c as usize]);
            from_fn(|l| b3.apply(a[l], b[l], c[l]))
        }
    }
}

#[inline(always)]
fn exec(op: &POp, regs: &[f64], slots: &[f64], time: f64) -> f64 {
    match *op {
        POp::Time => time,
        POp::Load(s) => slots[s as usize],
        POp::NegLoad(s) => -slots[s as usize],
        POp::Un(op, a) => op.apply(regs[a as usize]),
        POp::Bin(op, a, b) => op.apply(regs[a as usize], regs[b as usize]),
        POp::MulAdd(a, b, c) => regs[a as usize] * regs[b as usize] + regs[c as usize],
        POp::AddMul(a, b, c) => regs[a as usize] + regs[b as usize] * regs[c as usize],
        POp::MulSub(a, b, c) => regs[a as usize] * regs[b as usize] - regs[c as usize],
        POp::SubMul(a, b, c) => regs[a as usize] - regs[b as usize] * regs[c as usize],
        POp::Cmp(op, a, b) => {
            if op.apply(regs[a as usize], regs[b as usize]) {
                1.0
            } else {
                0.0
            }
        }
        POp::And(a, b) => {
            if regs[a as usize] > 0.5 && regs[b as usize] > 0.5 {
                1.0
            } else {
                0.0
            }
        }
        POp::Or(a, b) => {
            if regs[a as usize] > 0.5 || regs[b as usize] > 0.5 {
                1.0
            } else {
                0.0
            }
        }
        POp::Not(a) => {
            if regs[a as usize] > 0.5 {
                0.0
            } else {
                1.0
            }
        }
        POp::Select(c, t, e) => {
            if regs[c as usize] > 0.5 {
                regs[t as usize]
            } else {
                regs[e as usize]
            }
        }
        POp::Call3(b3, a, b, c) => b3.apply(regs[a as usize], regs[b as usize], regs[c as usize]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, MapContext};
    use crate::parse::parse_expr;

    fn eval_program(srcs: &[&str], vars: &[(&str, f64)], time: f64) -> Vec<f64> {
        let mut pb = ProgramBuilder::new();
        let names: Vec<&str> = vars.iter().map(|(n, _)| *n).collect();
        let resolve = SlotResolver(|n: &str| names.iter().position(|m| *m == n));
        let outs: Vec<ValueId> = srcs
            .iter()
            .map(|s| pb.add_expr(&parse_expr(s).unwrap(), &resolve).unwrap())
            .collect();
        let prog = pb.finish(&outs, 0);
        let slots: Vec<f64> = vars.iter().map(|(_, v)| *v).collect();
        let mut scratch = ProgScratch::default();
        let mut out = vec![0.0; outs.len()];
        prog.eval_into(&mut scratch, &slots, time, &[], &mut out);
        out
    }

    #[test]
    fn program_matches_eval() {
        let srcs = [
            "1 + 2*var(x) - var(y)/4",
            "sin(var(x)) + cos(var(x)) * tanh(var(y))",
            "if var(x) > 0 and not (var(x) > 10) then 7 else 0",
            "pulse(time, 0, 2e-8)",
            "min(var(x), 2) + max(var(y), 5) + pow(2, 3)",
        ];
        let vars = [("x", 3.0), ("y", 8.0)];
        let t = 1e-8;
        let got = eval_program(&srcs, &vars, t);
        for (src, g) in srcs.iter().zip(&got) {
            let e = parse_expr(src).unwrap();
            let mut ctx = MapContext::new().at_time(t);
            for (n, v) in vars {
                ctx.vars.insert(n.into(), v);
            }
            let reference = eval(&e, &ctx).unwrap();
            assert_eq!(reference.to_bits(), g.to_bits(), "{src}");
        }
    }

    #[test]
    fn cse_shares_identical_subexpressions() {
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let a = pb
            .add_expr(&parse_expr("sin(var(x)) * 2").unwrap(), &resolve)
            .unwrap();
        let b = pb
            .add_expr(&parse_expr("sin(var(x)) + 1").unwrap(), &resolve)
            .unwrap();
        let prog = pb.finish(&[a, b], 0);
        // Load, Sin, Mul(or fused), Add: sin/load computed once, not twice.
        assert!(prog.len() <= 4, "got {} instructions", prog.len());
    }

    #[test]
    fn constants_cost_no_instructions() {
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let v = pb
            .add_expr(&parse_expr("var(x) + 3.5").unwrap(), &resolve)
            .unwrap();
        let prog = pb.finish(&[v], 0);
        assert_eq!(prog.const_count(), 1);
        // Load + Add only; the constant lives in the pool.
        assert_eq!(prog.len(), 2);
        let mut s = ProgScratch::default();
        let mut out = [0.0];
        prog.eval_into(&mut s, &[1.0], 0.0, &[], &mut out);
        assert_eq!(out[0], 4.5);
    }

    #[test]
    fn constant_output_needs_no_instructions() {
        let mut pb = ProgramBuilder::new();
        let v = pb.constant(2.5);
        let prog = pb.finish(&[v], 0);
        assert!(prog.is_empty());
        let mut s = ProgScratch::default();
        let mut out = [0.0];
        prog.eval_into(&mut s, &[], 0.0, &[], &mut out);
        assert_eq!(out[0], 2.5);
    }

    #[test]
    fn time_only_values_hoist_to_prologue() {
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let v = pb
            .add_expr(&parse_expr("sin(time) + var(x)").unwrap(), &resolve)
            .unwrap();
        let prog = pb.finish(&[v], 0);
        // Time + Sin in the prologue; Load + Add in the body.
        assert_eq!(prog.prologue_len(), 2);
        assert_eq!(prog.body_len(), 2);
        let mut s = ProgScratch::default();
        let mut out = [0.0];
        prog.eval_into(&mut s, &[1.0], 0.5, &[], &mut out);
        assert_eq!(out[0], 0.5f64.sin() + 1.0);
        // Same time, different state: prologue result is reused.
        prog.eval_into(&mut s, &[2.0], 0.5, &[], &mut out);
        assert_eq!(out[0], 0.5f64.sin() + 2.0);
        // New time invalidates the cache.
        prog.eval_into(&mut s, &[2.0], 0.75, &[], &mut out);
        assert_eq!(out[0], 0.75f64.sin() + 2.0);
    }

    #[test]
    fn params_feed_evaluation_and_invalidate_prologue() {
        struct R;
        impl ProgramResolver for R {
            fn var(&self, _: &str) -> Option<VarRef> {
                Some(VarRef::Slot(0))
            }
            fn attr(&self, _: &str, attr: &str) -> Option<usize> {
                match attr {
                    "a" => Some(0),
                    "b" => Some(1),
                    _ => None,
                }
            }
        }
        let mut pb = ProgramBuilder::new();
        let v = pb
            .add_expr(&parse_expr("n.a * var(x) + n.b").unwrap(), &R)
            .unwrap();
        let prog = pb.finish(&[v], 2);
        assert_eq!(prog.param_count(), 2);
        let mut s = ProgScratch::default();
        let mut out = [0.0];
        prog.eval_into(&mut s, &[3.0], 0.0, &[2.0, 1.0], &mut out);
        assert_eq!(out[0], 7.0);
        prog.eval_into(&mut s, &[3.0], 0.0, &[-1.0, 0.5], &mut out);
        assert_eq!(out[0], -2.5);
    }

    #[test]
    fn register_reuse_keeps_file_small() {
        // A long chain of independent adds: without liveness reuse the file
        // would grow by one register per instruction.
        let src = "((var(x)+1) + (var(x)+2)) + ((var(x)+3) + (var(x)+4))";
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let v = pb.add_expr(&parse_expr(src).unwrap(), &resolve).unwrap();
        let prog = pb.finish(&[v], 0);
        assert!(
            prog.register_count() < prog.const_count() + prog.len(),
            "registers {} not reused over {} instructions",
            prog.register_count(),
            prog.len()
        );
        let mut s = ProgScratch::default();
        let mut out = [0.0];
        prog.eval_into(&mut s, &[1.0], 0.0, &[], &mut out);
        assert_eq!(out[0], 14.0);
    }

    #[test]
    fn scratch_reprimed_when_switching_programs() {
        let mut pb = ProgramBuilder::new();
        let a = pb.constant(1.25);
        let pa = pb.finish(&[a], 0);
        let mut pb2 = ProgramBuilder::new();
        let b = pb2.constant(4.5);
        let pb2 = pb2.finish(&[b], 0);
        let mut s = ProgScratch::default();
        let mut out = [0.0];
        pa.eval_into(&mut s, &[], 0.0, &[], &mut out);
        assert_eq!(out[0], 1.25);
        pb2.eval_into(&mut s, &[], 0.0, &[], &mut out);
        assert_eq!(out[0], 4.5);
        pa.eval_into(&mut s, &[], 0.0, &[], &mut out);
        assert_eq!(out[0], 1.25);
    }

    #[test]
    fn unresolved_leaves_error() {
        let mut pb = ProgramBuilder::new();
        let none = SlotResolver(|_: &str| None);
        assert_eq!(
            pb.add_expr(&parse_expr("var(ghost)").unwrap(), &none),
            Err(TapeError::UnresolvedVar("ghost".into()))
        );
        assert!(matches!(
            pb.add_expr(&parse_expr("s.c").unwrap(), &none),
            Err(TapeError::UnresolvedAttr(_, _))
        ));
        assert!(matches!(
            pb.add_expr(&parse_expr("mystery(1)").unwrap(), &none),
            Err(TapeError::UnsupportedCall(_))
        ));
    }

    #[test]
    fn laned_eval_is_bit_identical_to_scalar_per_lane() {
        // A program exercising every segment: pooled consts, a param-only
        // prologue value, a time-only prologue value, and a state body.
        struct R;
        impl ProgramResolver for R {
            fn var(&self, _: &str) -> Option<VarRef> {
                Some(VarRef::Slot(0))
            }
            fn attr(&self, _: &str, attr: &str) -> Option<usize> {
                (attr == "a").then_some(0)
            }
        }
        let mut pb = ProgramBuilder::new();
        let v = pb
            .add_expr(
                &parse_expr("sin(n.a) + cos(time)*var(x) + n.a*var(x) - 0.25").unwrap(),
                &R,
            )
            .unwrap();
        let prog = pb.finish(&[v], 1);
        const L: usize = 4;
        let lane_params = [[0.5], [-1.25], [3.0], [0.0625]];
        let states = [1.0f64, -2.5, 0.3333333333333333, 1e-8];
        for time in [0.0, 0.5, 0.5, 0.75] {
            // Scalar reference, one fresh bind per lane (prologue caching
            // exercised identically via repeated times).
            let mut want = [0.0f64; L];
            for l in 0..L {
                let mut s = ProgScratch::default();
                let mut out = [0.0];
                prog.eval_into(&mut s, &[states[l]], time, &lane_params[l], &mut out);
                want[l] = out[0];
            }
            let mut ls = LaneScratch::<L>::default();
            let prefs: Vec<&[f64]> = lane_params.iter().map(|p| &p[..]).collect();
            prog.set_params_lanes(&mut ls, &prefs);
            let slots = [states];
            let mut out = [[0.0; L]];
            prog.eval_lanes_bound(&mut ls, &slots, time, &mut out);
            for l in 0..L {
                assert_eq!(want[l].to_bits(), out[0][l].to_bits(), "lane {l} t={time}");
            }
        }
    }

    #[test]
    fn laned_scratch_reprimed_when_switching_programs() {
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let a = pb
            .add_expr(&parse_expr("var(x) + 1.5").unwrap(), &resolve)
            .unwrap();
        let pa = pb.finish(&[a], 0);
        let mut pb2 = ProgramBuilder::new();
        let b = pb2
            .add_expr(&parse_expr("var(x) * 3.0").unwrap(), &resolve)
            .unwrap();
        let pb2 = pb2.finish(&[b], 0);
        let mut ls = LaneScratch::<2>::default();
        let slots = [[1.0, 2.0]];
        let mut out = [[0.0; 2]];
        pa.eval_lanes_bound(&mut ls, &slots, 0.0, &mut out);
        assert_eq!(out[0], [2.5, 3.5]);
        pb2.eval_lanes_bound(&mut ls, &slots, 0.0, &mut out);
        assert_eq!(out[0], [3.0, 6.0]);
        pa.eval_lanes_bound(&mut ls, &slots, 0.0, &mut out);
        assert_eq!(out[0], [2.5, 3.5]);
    }

    #[test]
    fn lane_param_rebind_invalidates_prologue() {
        struct R;
        impl ProgramResolver for R {
            fn var(&self, _: &str) -> Option<VarRef> {
                Some(VarRef::Slot(0))
            }
            fn attr(&self, _: &str, attr: &str) -> Option<usize> {
                (attr == "a").then_some(0)
            }
        }
        let mut pb = ProgramBuilder::new();
        // exp(n.a) is a param-only prologue value.
        let v = pb
            .add_expr(&parse_expr("exp(n.a) + var(x)").unwrap(), &R)
            .unwrap();
        let prog = pb.finish(&[v], 1);
        let mut ls = LaneScratch::<2>::default();
        let slots = [[1.0, 2.0]];
        let mut out = [[0.0; 2]];
        prog.set_params_lanes(&mut ls, &[&[0.0], &[1.0]]);
        prog.eval_lanes_bound(&mut ls, &slots, 0.0, &mut out);
        assert_eq!(out[0], [2.0, 1.0f64.exp() + 2.0]);
        // Rebinding different lane params must rerun the param prologue.
        prog.set_params_lanes(&mut ls, &[&[1.0], &[0.0]]);
        prog.eval_lanes_bound(&mut ls, &slots, 0.0, &mut out);
        assert_eq!(out[0], [1.0 + 1.0f64.exp(), 3.0]);
    }

    #[test]
    fn fused_opcodes_are_bit_identical_to_unfused() {
        // a*b + c, c + a*b, a*b - c, c - a*b with awkward magnitudes.
        let vars = [("x", 1.0000000000000002), ("y", 3.000000000000001)];
        for src in [
            "var(x)*var(y) + 0.1",
            "0.1 + var(x)*var(y)",
            "var(x)*var(y) - 0.1",
            "0.1 - var(x)*var(y)",
            "-var(x)",
        ] {
            let got = eval_program(&[src], &vars, 0.0)[0];
            let ctx = MapContext::new()
                .with_var("x", vars[0].1)
                .with_var("y", vars[1].1);
            let want = eval(&parse_expr(src).unwrap(), &ctx).unwrap();
            assert_eq!(want.to_bits(), got.to_bits(), "{src}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::eval::{eval, MapContext};
    use proptest::prelude::*;

    /// Strategy for random expressions over vars x (slot 0), y (slot 1)
    /// and z (slot 2). `z` only ever appears negated, so its load is
    /// single-use and fuses into `NegLoad`; the branches cover every
    /// opcode family the builder emits: unary and binary arithmetic
    /// (which fuse into the multiply-add family), `Select` over the
    /// comparison and boolean opcodes, and `Call3`.
    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (-10.0..10.0f64).prop_map(Expr::Const),
            Just(Expr::Time),
            Just(Expr::var("x")),
            Just(Expr::var("y")),
            Just(Expr::var("z").neg()),
        ];
        leaf.prop_recursive(4, 64, 3, |inner| {
            let unary = prop_oneof![
                Just(UnaryOp::Neg),
                Just(UnaryOp::Sin),
                Just(UnaryOp::Tanh),
                Just(UnaryOp::Sat),
                Just(UnaryOp::Abs),
                Just(UnaryOp::Exp),
                Just(UnaryOp::Sgn),
                Just(UnaryOp::SatNi),
            ];
            let binary = prop_oneof![
                Just(BinaryOp::Add),
                Just(BinaryOp::Sub),
                Just(BinaryOp::Mul),
                Just(BinaryOp::Div),
                Just(BinaryOp::Min),
                Just(BinaryOp::Max),
                Just(BinaryOp::Pow),
            ];
            let cmp = (
                prop_oneof![
                    Just(CmpOp::Lt),
                    Just(CmpOp::Le),
                    Just(CmpOp::Gt),
                    Just(CmpOp::Ge),
                    Just(CmpOp::Eq),
                    Just(CmpOp::Ne),
                ],
                inner.clone(),
                inner.clone(),
            )
                .prop_map(|(op, a, b)| BoolExpr::Cmp(op, Box::new(a), Box::new(b)))
                .boxed();
            let cond = prop_oneof![
                cmp.clone(),
                (cmp.clone(), cmp.clone())
                    .prop_map(|(a, b)| BoolExpr::And(Box::new(a), Box::new(b))),
                (cmp.clone(), cmp.clone())
                    .prop_map(|(a, b)| BoolExpr::Or(Box::new(a), Box::new(b))),
                cmp.prop_map(|a| BoolExpr::Not(Box::new(a))),
            ];
            prop_oneof![
                (unary, inner.clone()).prop_map(|(op, a)| a.unary(op)),
                (binary, inner.clone(), inner.clone()).prop_map(|(op, a, b)| a.binary(op, b)),
                (cond, inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::If(
                    Box::new(c),
                    Box::new(t),
                    Box::new(e)
                )),
                (inner.clone(), inner.clone(), inner)
                    .prop_map(|(a, b, c)| Expr::Call("pulse".into(), vec![a, b, c])),
            ]
        })
    }

    /// The reference evaluation context for inputs `[x, y, z]` at time `t`.
    fn context(v: [f64; 3], t: f64) -> MapContext {
        MapContext::new()
            .at_time(t)
            .with_var("x", v[0])
            .with_var("y", v[1])
            .with_var("z", v[2])
    }

    /// Lower `exprs` into one program with an output per expression.
    fn program(exprs: &[Expr]) -> SystemProgram {
        let resolve = SlotResolver(|n: &str| ["x", "y", "z"].iter().position(|&m| m == n));
        let mut pb = ProgramBuilder::new();
        let outs: Vec<ValueId> = exprs
            .iter()
            .map(|e| pb.add_expr(e, &resolve).unwrap())
            .collect();
        pb.finish(&outs, 0)
    }

    /// Five outputs over `a`, `b`, `c`: two share the product `a*b`, so
    /// hash-consing merges it across outputs, while the single-use `b*c`
    /// fuses into a multiply-add.
    fn outputs(a: Expr, b: Expr, c: Expr) -> [Expr; 5] {
        [
            a.clone().mul(b.clone()).add(c.clone()),
            c.clone().sub(a.clone().mul(b.clone())),
            b.clone().mul(c).add(a.clone()),
            a,
            b,
        ]
    }

    /// Bit equality with NaN matching NaN (payloads may differ).
    fn same(want: f64, got: f64) -> bool {
        want.to_bits() == got.to_bits() || (want.is_nan() && got.is_nan())
    }

    /// Agreement up to a relative 1e-12 for finite values; infinities must
    /// match exactly and NaN matches only NaN.
    fn close(want: f64, got: f64) -> bool {
        if want.is_finite() {
            (want - got).abs() <= 1e-12 * want.abs().max(1.0)
        } else {
            same(want, got)
        }
    }

    /// Run `prog` on the `L`-lane interpreter, lane `l` reading input
    /// vector `inputs[l]`, at each of `times` in turn through one scratch
    /// (so the time-prologue cache both hits and invalidates), and check
    /// every lane against a scalar evaluation of that lane alone.
    fn check_lanes<const L: usize>(prog: &SystemProgram, inputs: &[[f64; 3]], times: [f64; 3]) {
        let slots: Vec<[f64; L]> = (0..3)
            .map(|s| std::array::from_fn(|l| inputs[l][s]))
            .collect();
        let mut ls = LaneScratch::<L>::default();
        let mut scalar = ProgScratch::default();
        let n_out = prog.output_count();
        let mut got = vec![[0.0; L]; n_out];
        let mut want = vec![0.0; n_out];
        for t in times {
            prog.eval_lanes_bound(&mut ls, &slots, t, &mut got);
            for (l, input) in inputs.iter().enumerate().take(L) {
                prog.eval_into(&mut scalar, input, t, &[], &mut want);
                for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert!(
                        same(*w, g[l]),
                        "L={L} lane {l} output {k} t={t}: {} vs scalar {w}",
                        g[l]
                    );
                }
            }
        }
    }

    proptest! {
        /// The fused program and the tree-walking evaluator agree bit for
        /// bit (NaN matching NaN).
        #[test]
        fn program_bit_identical_to_eval(
            a in arb_expr(),
            b in arb_expr(),
            c in arb_expr(),
            x in -5.0..5.0f64,
            y in -5.0..5.0f64,
            z in -5.0..5.0f64,
            t in 0.0..10.0f64,
        ) {
            let exprs = outputs(a, b, c);
            let prog = program(&exprs);
            let mut got = [0.0; 5];
            prog.eval_into(&mut ProgScratch::default(), &[x, y, z], t, &[], &mut got);
            let ctx = context([x, y, z], t);
            for (e, g) in exprs.iter().zip(got) {
                let want = eval(e, &ctx).unwrap();
                prop_assert!(same(want, g), "expr {} gave {} vs {}", e, g, want);
            }
        }

        /// The laned interpreter at 4 and 8 lanes, with different inputs in
        /// every lane, matches the scalar interpreter lane by lane, bit for
        /// bit (NaN matching NaN).
        #[test]
        fn laned_program_bit_identical_to_scalar(
            a in arb_expr(),
            b in arb_expr(),
            c in arb_expr(),
            inputs in proptest::collection::vec(
                (-5.0..5.0f64, -5.0..5.0f64, -5.0..5.0f64).prop_map(|(x, y, z)| [x, y, z]),
                8,
            ),
            t0 in 0.0..10.0f64,
            t1 in 0.0..10.0f64,
        ) {
            let prog = program(&outputs(a, b, c));
            check_lanes::<4>(&prog, &inputs, [t0, t0, t1]);
            check_lanes::<8>(&prog, &inputs, [t0, t0, t1]);
        }

        /// Simplification preserves semantics.
        #[test]
        fn simplify_preserves_semantics(
            e in arb_expr(),
            x in -5.0..5.0f64,
            y in -5.0..5.0f64,
            z in -5.0..5.0f64,
            t in 0.0..10.0f64,
        ) {
            let ctx = context([x, y, z], t);
            let reference = eval(&e, &ctx).unwrap();
            let s = e.simplify();
            let simplified = eval(&s, &ctx).unwrap();
            prop_assert!(close(reference, simplified),
                "{} = {} but simplified {} = {}", e, reference, s, simplified);
        }

        /// Display → parse round-trips semantics for generated expressions.
        #[test]
        fn display_parse_roundtrip(
            e in arb_expr(),
            x in -5.0..5.0f64,
            y in -5.0..5.0f64,
            z in -5.0..5.0f64,
        ) {
            let printed = e.to_string();
            let reparsed = crate::parse::parse_expr(&printed)
                .unwrap_or_else(|err| panic!("printed: {printed}: {err}"));
            let ctx = context([x, y, z], 0.0);
            let a = eval(&e, &ctx).unwrap();
            let b = eval(&reparsed, &ctx).unwrap();
            prop_assert!(close(a, b), "printed: {} gave {} vs {}", printed, b, a);
        }
    }
}

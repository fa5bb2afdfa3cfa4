//! Static analysis over fused [`SystemProgram`]s: a structural verifier,
//! an interval/domain analysis, and a determinism lint.
//!
//! The fused IR is transformed by several passes (CSE, mul-add fusion,
//! liveness-driven register reuse, two-tier prologue hoisting, forward-mode
//! differentiation, native codegen). Each pass relies on structural
//! invariants — registers defined before use, the parameter prologue free of
//! time and state, body writes never clobbering the constant pool or the
//! permanent prologue registers — that until now were only pinned indirectly
//! by end-to-end equivalence tests. This module checks them directly, at the
//! pass boundary:
//!
//! - [`SystemProgram::verify`] runs the **structural verifier** and returns
//!   the first violation; [`SystemProgram::verify_all`] returns every
//!   violation. [`ProgramBuilder::finish`] and the Jacobian derivation run
//!   the verifier automatically in debug builds and panic on a violation —
//!   a miscompile surfaces at the pass that introduced it, not as a wrong
//!   figure three layers later.
//! - [`domain_analysis`] propagates constant ranges through the instruction
//!   stream with per-opcode transfer functions and flags operations that are
//!   **guaranteed** undefined for every reachable input (division by a
//!   provably-zero range, `ln`/`sqrt` of a provably-negative range,
//!   guaranteed overflow to ∞), reporting which state and parameter slots
//!   feed each flagged site. Inputs (state, time, parameters) are assumed
//!   unbounded, so a warning means "wrong for *all* inputs", never "wrong
//!   for some" — warnings are conservative and their absence proves nothing.
//! - [`determinism_lint`] checks the invariants the bit-identity contract
//!   between the interpreter and native codegen relies on: no FMA-contracted
//!   patterns in the emitted source, per-segment statement parity between
//!   the scalar and laned kernels, and reduction-tree shape reporting for
//!   long additive chains.
//! - [`analyze`] bundles all of the above plus per-segment statistics into a
//!   [`ProgramReport`] (the payload of the `ark-lint` CLI in `crates/bench`).
//!
//! [`ProgramBuilder::finish`]: crate::ProgramBuilder::finish

use std::collections::BTreeSet;
use std::fmt;

use crate::ast::{BinaryOp, CmpOp, UnaryOp};
use crate::codegen;
use crate::program::{PInstr, POp, SystemProgram};

// ---------------------------------------------------------------------------
// Structural verifier
// ---------------------------------------------------------------------------

/// Which instruction segment of a [`SystemProgram`] a diagnostic refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Static, time-free instructions (run once per parameter binding).
    ParamPrologue,
    /// Static, time-dependent instructions (run when `time` changes).
    TimePrologue,
    /// Instructions run on every evaluation.
    Body,
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Segment::ParamPrologue => "pprologue",
            Segment::TimePrologue => "tprologue",
            Segment::Body => "body",
        })
    }
}

/// A structural invariant violation found by [`SystemProgram::verify`].
///
/// Every variant names the segment and instruction index (or output index)
/// it anchors to, so a failing pass can be located from the diagnostic
/// alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An instruction reads or writes a register `>= n_regs`.
    RegisterOutOfRange {
        /// Segment containing the offending instruction.
        segment: Segment,
        /// Instruction index within the segment.
        index: usize,
        /// The out-of-range register.
        reg: u32,
        /// The program's register-file size.
        n_regs: u32,
    },
    /// An instruction reads a register no earlier instruction (or the
    /// constant/parameter pool) has defined.
    UseBeforeDef {
        /// Segment containing the offending instruction.
        segment: Segment,
        /// Instruction index within the segment.
        index: usize,
        /// The undefined register that was read.
        reg: u32,
    },
    /// A `Time` instruction appears in the parameter prologue, which must
    /// be valid for every `t` without re-running.
    TimeInParamPrologue {
        /// Instruction index within the parameter prologue.
        index: usize,
    },
    /// A state load appears in a prologue segment, which must be valid for
    /// every state vector without re-running.
    StateInPrologue {
        /// The prologue tier containing the load.
        segment: Segment,
        /// Instruction index within the segment.
        index: usize,
        /// The state slot that was loaded.
        slot: u32,
    },
    /// An instruction writes into the constant/parameter pool
    /// (registers `< const_count + param_count`), which is initialized
    /// once per scratch priming and must stay immutable.
    PoolClobbered {
        /// Segment containing the offending instruction.
        segment: Segment,
        /// Instruction index within the segment.
        index: usize,
        /// The pool register that was written.
        reg: u32,
    },
    /// An instruction redefines a permanent prologue register. Prologue
    /// results are cached across evaluations, so each prologue register
    /// must be written exactly once, by its own prologue instruction.
    PrologueClobbered {
        /// Segment containing the offending instruction.
        segment: Segment,
        /// Instruction index within the segment.
        index: usize,
        /// The permanent register that was redefined.
        reg: u32,
    },
    /// An output register is `>= n_regs`.
    OutputOutOfRange {
        /// Output index.
        output: usize,
        /// The out-of-range register.
        reg: u32,
        /// The program's register-file size.
        n_regs: u32,
    },
    /// An output register is never defined by the pool or any instruction.
    UndefinedOutput {
        /// Output index.
        output: usize,
        /// The undefined register.
        reg: u32,
    },
    /// An instruction whose result no later instruction or output reads.
    /// The liveness-compaction pass must leave no dead instructions.
    DeadInstruction {
        /// Segment containing the dead instruction.
        segment: Segment,
        /// Instruction index within the segment.
        index: usize,
        /// The register the dead instruction writes.
        reg: u32,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::RegisterOutOfRange {
                segment,
                index,
                reg,
                n_regs,
            } => write!(
                f,
                "{segment}[{index}]: register r{reg} out of range (register file has {n_regs})"
            ),
            VerifyError::UseBeforeDef {
                segment,
                index,
                reg,
            } => write!(
                f,
                "{segment}[{index}]: register r{reg} read before definition"
            ),
            VerifyError::TimeInParamPrologue { index } => write!(
                f,
                "pprologue[{index}]: time instruction in the time-free parameter prologue"
            ),
            VerifyError::StateInPrologue {
                segment,
                index,
                slot,
            } => write!(
                f,
                "{segment}[{index}]: state load (slot {slot}) in the state-free prologue"
            ),
            VerifyError::PoolClobbered {
                segment,
                index,
                reg,
            } => write!(
                f,
                "{segment}[{index}]: write into constant/parameter pool register r{reg}"
            ),
            VerifyError::PrologueClobbered {
                segment,
                index,
                reg,
            } => write!(
                f,
                "{segment}[{index}]: redefinition of permanent prologue register r{reg}"
            ),
            VerifyError::OutputOutOfRange {
                output,
                reg,
                n_regs,
            } => write!(
                f,
                "output[{output}]: register r{reg} out of range (register file has {n_regs})"
            ),
            VerifyError::UndefinedOutput { output, reg } => {
                write!(f, "output[{output}]: register r{reg} is never defined")
            }
            VerifyError::DeadInstruction {
                segment,
                index,
                reg,
            } => write!(
                f,
                "{segment}[{index}]: dead instruction (result r{reg} is never read)"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Register operands of an instruction (`Load`/`NegLoad` slot indices are
/// state-vector indices, not registers, and are excluded).
fn operands(op: &POp) -> ([u32; 3], usize) {
    match *op {
        POp::Time | POp::Load(_) | POp::NegLoad(_) => ([0; 3], 0),
        POp::Un(_, a) | POp::Not(a) => ([a, 0, 0], 1),
        POp::Bin(_, a, b) | POp::Cmp(_, a, b) | POp::And(a, b) | POp::Or(a, b) => ([a, b, 0], 2),
        POp::MulAdd(a, b, c)
        | POp::AddMul(a, b, c)
        | POp::MulSub(a, b, c)
        | POp::SubMul(a, b, c)
        | POp::Select(a, b, c)
        | POp::Call3(_, a, b, c) => ([a, b, c], 3),
    }
}

/// The state slot an instruction loads, if any.
fn state_slot(op: &POp) -> Option<u32> {
    match *op {
        POp::Load(s) | POp::NegLoad(s) => Some(s),
        _ => None,
    }
}

/// Run the structural verifier, collecting every violation in segment
/// order (parameter prologue, time prologue, body, outputs, then dead
/// instructions).
pub(crate) fn verify_program(prog: &SystemProgram) -> Vec<VerifyError> {
    let n_regs = prog.register_count() as u32;
    let pool = (prog.const_count() + prog.param_count()) as u32;
    let mut errors = Vec::new();
    // defined[r]: the register holds a valid value at the current point of
    // the pprologue -> tprologue -> body execution order. The pool is
    // primed before any instruction runs.
    let mut defined = vec![false; n_regs as usize];
    for d in defined.iter_mut().take(pool as usize) {
        *d = true;
    }
    // permanent[r]: r was written by a prologue instruction; its cached
    // value must survive every later segment.
    let mut permanent = vec![false; n_regs as usize];

    let segments: [(Segment, &[PInstr]); 3] = [
        (Segment::ParamPrologue, &prog.pprologue),
        (Segment::TimePrologue, &prog.tprologue),
        (Segment::Body, &prog.body),
    ];
    for (segment, instrs) in segments {
        for (index, instr) in instrs.iter().enumerate() {
            // Segment contracts: the parameter prologue is time- and
            // state-free, the time prologue is state-free. (Data-flow
            // contamination — a prologue instruction reading a register
            // only a later segment defines — is caught by def-before-use,
            // since segments execute in order.)
            if segment == Segment::ParamPrologue && instr.op == POp::Time {
                errors.push(VerifyError::TimeInParamPrologue { index });
            }
            if segment != Segment::Body {
                if let Some(slot) = state_slot(&instr.op) {
                    errors.push(VerifyError::StateInPrologue {
                        segment,
                        index,
                        slot,
                    });
                }
            }
            let (ops, n) = operands(&instr.op);
            for &reg in &ops[..n] {
                if reg >= n_regs {
                    errors.push(VerifyError::RegisterOutOfRange {
                        segment,
                        index,
                        reg,
                        n_regs,
                    });
                } else if !defined[reg as usize] {
                    errors.push(VerifyError::UseBeforeDef {
                        segment,
                        index,
                        reg,
                    });
                }
            }
            let dest = instr.dest;
            if dest >= n_regs {
                errors.push(VerifyError::RegisterOutOfRange {
                    segment,
                    index,
                    reg: dest,
                    n_regs,
                });
                continue;
            }
            if dest < pool {
                errors.push(VerifyError::PoolClobbered {
                    segment,
                    index,
                    reg: dest,
                });
                continue;
            }
            if permanent[dest as usize] {
                // Redefining a cached prologue register — illegal from any
                // segment (prologue registers are written exactly once).
                errors.push(VerifyError::PrologueClobbered {
                    segment,
                    index,
                    reg: dest,
                });
                continue;
            }
            defined[dest as usize] = true;
            if segment != Segment::Body {
                permanent[dest as usize] = true;
            }
        }
    }

    for (output, &reg) in prog.output_regs().iter().enumerate() {
        if reg >= n_regs {
            errors.push(VerifyError::OutputOutOfRange {
                output,
                reg,
                n_regs,
            });
        } else if !defined[reg as usize] {
            errors.push(VerifyError::UndefinedOutput { output, reg });
        }
    }

    dead_instructions(prog, &mut errors);
    errors
}

/// Append a [`VerifyError::DeadInstruction`] for every instruction whose
/// result is never read: a backward liveness scan over the body (whose
/// registers are reused, so "read before the next redefinition" is the
/// criterion) and a global used-set for the prologues (whose registers are
/// permanent, so any later use keeps them alive).
fn dead_instructions(prog: &SystemProgram, errors: &mut Vec<VerifyError>) {
    let outputs: BTreeSet<u32> = prog.output_regs().iter().copied().collect();
    // Body: backward scan. A body instruction is live iff its destination
    // is in the live set (seeded with the outputs); a live definition
    // consumes the liveness of its destination and makes its operands live.
    let mut live = outputs.clone();
    let mut body_dead: Vec<(usize, u32)> = Vec::new();
    for (index, instr) in prog.body.iter().enumerate().rev() {
        if !live.remove(&instr.dest) {
            body_dead.push((index, instr.dest));
            continue;
        }
        let (ops, n) = operands(&instr.op);
        live.extend(&ops[..n]);
    }
    // Prologues: permanent registers, each defined once — one global
    // used-set over every later segment (and the outputs) decides.
    let mut used = outputs;
    for instr in prog
        .pprologue
        .iter()
        .chain(&prog.tprologue)
        .chain(&prog.body)
    {
        let (ops, n) = operands(&instr.op);
        used.extend(&ops[..n]);
    }
    for (segment, instrs) in [
        (Segment::ParamPrologue, &prog.pprologue),
        (Segment::TimePrologue, &prog.tprologue),
    ] {
        for (index, instr) in instrs.iter().enumerate() {
            if !used.contains(&instr.dest) {
                errors.push(VerifyError::DeadInstruction {
                    segment,
                    index,
                    reg: instr.dest,
                });
            }
        }
    }
    for (index, reg) in body_dead.into_iter().rev() {
        errors.push(VerifyError::DeadInstruction {
            segment: Segment::Body,
            index,
            reg,
        });
    }
}

impl SystemProgram {
    /// Check every structural invariant of the fused IR and return the
    /// first violation: def-before-use per segment, register indices in
    /// range, segment contracts (the parameter prologue is time- and
    /// state-free, the time prologue is state-free), pool and prologue
    /// registers never clobbered, outputs defined, and no dead
    /// instructions after liveness compaction.
    ///
    /// Always available (not just in debug builds). Programs produced by
    /// [`ProgramBuilder::finish`] are verified automatically in debug
    /// builds; call this to validate a program in release mode or after a
    /// custom transformation.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] in segment order.
    ///
    /// [`ProgramBuilder::finish`]: crate::ProgramBuilder::finish
    pub fn verify(&self) -> Result<(), VerifyError> {
        match verify_program(self).into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Like [`SystemProgram::verify`], but collects *every* violation
    /// instead of stopping at the first.
    pub fn verify_all(&self) -> Vec<VerifyError> {
        verify_program(self)
    }

    /// The Rust source the native-codegen backend emits for this program
    /// (scalar plus laned segment functions). Emission is pure string
    /// generation — no toolchain, cache, or dlopen involved — so this is
    /// always available; [`determinism_lint`] and the `ark-lint` CLI use
    /// it to cross-check the emitted kernels against the interpreter
    /// contract.
    pub fn codegen_source(&self) -> String {
        codegen::emit(self).source
    }
}

// ---------------------------------------------------------------------------
// Interval / domain analysis
// ---------------------------------------------------------------------------

/// A conservative range abstraction for one register: every reachable
/// value lies in `[lo, hi]` or is NaN when `may_nan` is set.
///
/// Unknown inputs (state, time, parameters) start at the full real line
/// with `may_nan = false`; transfer functions only narrow where the
/// operation guarantees it (saturations, comparisons, builtin waveforms),
/// so any domain conclusion drawn from an interval holds for *all* inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive; may be `-inf`).
    pub lo: f64,
    /// Upper bound (inclusive; may be `+inf`).
    pub hi: f64,
    /// Whether the value may be NaN.
    pub may_nan: bool,
}

impl Interval {
    /// The full real line (no NaN).
    pub const TOP: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
        may_nan: false,
    };

    /// A single known value.
    pub fn point(v: f64) -> Interval {
        Interval {
            lo: v,
            hi: v,
            may_nan: v.is_nan(),
        }
    }

    /// A closed range (no NaN).
    pub fn range(lo: f64, hi: f64) -> Interval {
        Interval {
            lo,
            hi,
            may_nan: false,
        }
    }

    /// The full real line, possibly NaN.
    fn top_nan() -> Interval {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            may_nan: true,
        }
    }

    /// True when the interval is the single value `v`.
    fn is_point(&self, v: f64) -> bool {
        !self.may_nan && self.lo == v && self.hi == v
    }

    /// Smallest interval containing both inputs.
    fn hull(a: Interval, b: Interval) -> Interval {
        Interval {
            lo: a.lo.min(b.lo),
            hi: a.hi.max(b.hi),
            may_nan: a.may_nan || b.may_nan,
        }
    }

    /// Endpoint evaluation of a coordinate-wise monotone binary operation
    /// (`+`, `-`, `*`, `min`, `max`): the extrema lie at corner pairs. A
    /// NaN corner (`inf - inf`, `0 * inf`) widens to the full line with
    /// `may_nan` — conservative, never wrong.
    fn corners(a: Interval, b: Interval, f: impl Fn(f64, f64) -> f64) -> Interval {
        let vs = [f(a.lo, b.lo), f(a.lo, b.hi), f(a.hi, b.lo), f(a.hi, b.hi)];
        if vs.iter().any(|v| v.is_nan()) {
            return Interval::top_nan();
        }
        Interval {
            lo: vs.iter().copied().fold(f64::INFINITY, f64::min),
            hi: vs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            may_nan: a.may_nan || b.may_nan,
        }
    }

    fn add(a: Interval, b: Interval) -> Interval {
        Interval::corners(a, b, |x, y| x + y)
    }

    fn sub(a: Interval, b: Interval) -> Interval {
        Interval::corners(a, b, |x, y| x - y)
    }

    fn mul(a: Interval, b: Interval) -> Interval {
        Interval::corners(a, b, |x, y| x * y)
    }

    fn div(a: Interval, b: Interval) -> Interval {
        // A denominator range containing zero splits the quotient range;
        // give up to the full line rather than track the split.
        if b.lo <= 0.0 && b.hi >= 0.0 {
            return Interval::top_nan();
        }
        Interval::corners(a, b, |x, y| x / y)
    }

    /// Endpoint evaluation of a monotone nondecreasing unary function.
    fn mono(self, f: impl Fn(f64) -> f64) -> Interval {
        Interval {
            lo: f(self.lo),
            hi: f(self.hi),
            may_nan: self.may_nan,
        }
    }
}

/// What a [`DomainWarning`] flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainWarningKind {
    /// Division by a provably-zero denominator (result is ±∞ or NaN for
    /// every input).
    DivByZero,
    /// `ln` of a provably-negative argument (NaN for every input).
    LogNegative,
    /// `sqrt` of a provably-negative argument (NaN for every input).
    SqrtNegative,
    /// An operation whose result is provably non-finite (e.g. `exp` of an
    /// argument above the f64 overflow threshold).
    Overflow,
}

impl fmt::Display for DomainWarningKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DomainWarningKind::DivByZero => "division by provably-zero range",
            DomainWarningKind::LogNegative => "ln of provably-negative range",
            DomainWarningKind::SqrtNegative => "sqrt of provably-negative range",
            DomainWarningKind::Overflow => "provably non-finite result",
        })
    }
}

/// A statically-guaranteed-undefined operation found by
/// [`domain_analysis`], with the state and parameter slots whose loads
/// reach the flagged instruction (empty provenance means the condition is
/// baked into the constant pool alone).
#[derive(Debug, Clone, PartialEq)]
pub struct DomainWarning {
    /// Segment containing the flagged instruction.
    pub segment: Segment,
    /// Instruction index within the segment.
    pub index: usize,
    /// What is wrong.
    pub kind: DomainWarningKind,
    /// Human-readable operand ranges at the flagged site.
    pub detail: String,
    /// State slots whose loads flow into the flagged operands.
    pub state_slots: Vec<u32>,
    /// Parameter slots that flow into the flagged operands.
    pub param_slots: Vec<u32>,
}

impl fmt::Display for DomainWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.segment, self.index, self.kind, self.detail
        )?;
        if !self.state_slots.is_empty() {
            write!(f, " reached by state slots {:?}", self.state_slots)?;
        }
        if !self.param_slots.is_empty() {
            write!(f, " reached by param slots {:?}", self.param_slots)?;
        }
        Ok(())
    }
}

/// `exp(x)` overflows to `+inf` for every `x` above this threshold.
const EXP_OVERFLOW: f64 = 709.782712893384;

/// Per-register analysis state: the value interval plus the provenance of
/// state and parameter slots that flowed into it.
#[derive(Clone, Default)]
struct AbsVal {
    iv: Option<Interval>,
    states: BTreeSet<u32>,
    params: BTreeSet<u32>,
}

/// Propagate constant ranges through the instruction stream and flag
/// guaranteed-undefined operations. See the [module docs](self) for the
/// conservativeness contract: a warning holds for **every** input, and the
/// absence of warnings proves nothing (intervals over-approximate).
pub fn domain_analysis(prog: &SystemProgram) -> Vec<DomainWarning> {
    let n_regs = prog.register_count();
    let pool_consts = prog.const_pool();
    let n_consts = prog.const_count();
    let mut regs: Vec<AbsVal> = vec![AbsVal::default(); n_regs];
    for (r, &c) in regs.iter_mut().zip(pool_consts) {
        r.iv = Some(Interval::point(c));
    }
    for (slot, r) in regs[n_consts..n_consts + prog.param_count()]
        .iter_mut()
        .enumerate()
    {
        r.iv = Some(Interval::TOP);
        r.params.insert(slot as u32);
    }

    let mut warnings = Vec::new();
    let segments: [(Segment, &[PInstr]); 3] = [
        (Segment::ParamPrologue, &prog.pprologue),
        (Segment::TimePrologue, &prog.tprologue),
        (Segment::Body, &prog.body),
    ];
    for (segment, instrs) in segments {
        for (index, instr) in instrs.iter().enumerate() {
            let dest = instr.dest as usize;
            if dest >= n_regs {
                continue; // structurally invalid; the verifier reports it
            }
            let get = |r: u32| -> Interval {
                regs.get(r as usize)
                    .and_then(|v| v.iv)
                    .unwrap_or(Interval::TOP)
            };
            let mut warn = |kind: DomainWarningKind, detail: String, srcs: &[u32]| {
                let mut states = BTreeSet::new();
                let mut params = BTreeSet::new();
                for &s in srcs {
                    if let Some(v) = regs.get(s as usize) {
                        states.extend(&v.states);
                        params.extend(&v.params);
                    }
                }
                warnings.push(DomainWarning {
                    segment,
                    index,
                    kind,
                    detail,
                    state_slots: states.into_iter().collect(),
                    param_slots: params.into_iter().collect(),
                });
            };
            let iv = match instr.op {
                POp::Time => Interval::TOP,
                POp::Load(_) | POp::NegLoad(_) => Interval::TOP,
                POp::Un(op, a) => transfer_un(op, get(a), |kind, detail| warn(kind, detail, &[a])),
                POp::Bin(op, a, b) => transfer_bin(op, get(a), get(b), |kind, detail| {
                    warn(kind, detail, &[a, b])
                }),
                POp::MulAdd(a, b, c) => Interval::add(Interval::mul(get(a), get(b)), get(c)),
                POp::AddMul(a, b, c) => Interval::add(get(a), Interval::mul(get(b), get(c))),
                POp::MulSub(a, b, c) => Interval::sub(Interval::mul(get(a), get(b)), get(c)),
                POp::SubMul(a, b, c) => Interval::sub(get(a), Interval::mul(get(b), get(c))),
                POp::Cmp(op, a, b) => transfer_cmp(op, get(a), get(b)),
                POp::And(_, _) | POp::Or(_, _) | POp::Not(_) => Interval::range(0.0, 1.0),
                POp::Select(_, t, e) => Interval::hull(get(t), get(e)),
                // Builtin waveforms are unit-amplitude by construction.
                POp::Call3(_, _, _, _) => Interval::range(0.0, 1.0),
            };
            // Provenance: union of operand provenance, plus the loaded
            // state slot for Load/NegLoad.
            let (ops, n) = operands(&instr.op);
            let mut states = BTreeSet::new();
            let mut params = BTreeSet::new();
            for &r in &ops[..n] {
                if let Some(v) = regs.get(r as usize) {
                    states.extend(&v.states);
                    params.extend(&v.params);
                }
            }
            if let Some(slot) = state_slot(&instr.op) {
                states.insert(slot);
            }
            regs[dest] = AbsVal {
                iv: Some(iv),
                states,
                params,
            };
        }
    }
    warnings
}

/// Transfer function for unary operations, reporting guaranteed-undefined
/// argument ranges through `warn`.
fn transfer_un(
    op: UnaryOp,
    a: Interval,
    mut warn: impl FnMut(DomainWarningKind, String),
) -> Interval {
    match op {
        UnaryOp::Neg => Interval {
            lo: -a.hi,
            hi: -a.lo,
            may_nan: a.may_nan,
        },
        UnaryOp::Sin | UnaryOp::Cos => {
            if a.may_nan || a.lo.is_infinite() || a.hi.is_infinite() {
                Interval {
                    lo: -1.0,
                    hi: 1.0,
                    may_nan: true, // sin/cos of ±inf is NaN
                }
            } else {
                Interval::range(-1.0, 1.0)
            }
        }
        UnaryOp::Tan => Interval::top_nan(),
        UnaryOp::Tanh => a.mono(f64::tanh),
        UnaryOp::Exp => {
            if !a.may_nan && a.lo > EXP_OVERFLOW {
                warn(
                    DomainWarningKind::Overflow,
                    format!("exp of [{:e}, {:e}] overflows f64", a.lo, a.hi),
                );
            }
            a.mono(f64::exp)
        }
        UnaryOp::Ln => {
            if !a.may_nan && a.hi < 0.0 {
                warn(
                    DomainWarningKind::LogNegative,
                    format!("ln of [{:e}, {:e}]", a.lo, a.hi),
                );
            }
            if a.lo >= 0.0 {
                a.mono(f64::ln)
            } else {
                Interval::top_nan()
            }
        }
        UnaryOp::Sqrt => {
            if !a.may_nan && a.hi < 0.0 {
                warn(
                    DomainWarningKind::SqrtNegative,
                    format!("sqrt of [{:e}, {:e}]", a.lo, a.hi),
                );
            }
            if a.lo >= 0.0 {
                a.mono(f64::sqrt)
            } else {
                Interval {
                    lo: 0.0,
                    hi: a.hi.max(0.0).sqrt(),
                    may_nan: true,
                }
            }
        }
        UnaryOp::Abs => {
            let m = a.lo.abs().max(a.hi.abs());
            Interval {
                lo: if a.lo <= 0.0 && a.hi >= 0.0 {
                    0.0
                } else {
                    a.lo.abs().min(a.hi.abs())
                },
                hi: m,
                may_nan: a.may_nan,
            }
        }
        UnaryOp::Sgn => Interval {
            lo: -1.0,
            hi: 1.0,
            may_nan: a.may_nan,
        },
        // sat(x) = 0.5 (|x+1| - |x-1|) equals clamp(x, -1, 1) exactly, and
        // clamp keeps infinite endpoints finite where the absolute-value
        // form degenerates to inf - inf; sat_ni(x) = tanh(2x) is likewise
        // monotone into [-1, 1].
        UnaryOp::Sat => a.mono(|x| x.clamp(-1.0, 1.0)),
        UnaryOp::SatNi => a.mono(|x| (2.0 * x).tanh()),
    }
}

/// Transfer function for binary operations, reporting guaranteed-undefined
/// operand ranges through `warn`.
fn transfer_bin(
    op: BinaryOp,
    a: Interval,
    b: Interval,
    mut warn: impl FnMut(DomainWarningKind, String),
) -> Interval {
    match op {
        BinaryOp::Add => Interval::add(a, b),
        BinaryOp::Sub => Interval::sub(a, b),
        BinaryOp::Mul => Interval::mul(a, b),
        BinaryOp::Div => {
            if b.is_point(0.0) {
                warn(
                    DomainWarningKind::DivByZero,
                    format!(
                        "denominator is provably zero (numerator [{:e}, {:e}])",
                        a.lo, a.hi
                    ),
                );
            }
            Interval::div(a, b)
        }
        BinaryOp::Pow => {
            if a.lo >= 0.0 && !a.may_nan && !b.may_nan {
                // Nonnegative base: result is nonnegative (0^0 = 1,
                // 0^negative = inf — still in [0, inf]).
                Interval::range(0.0, f64::INFINITY)
            } else {
                // Negative base with fractional exponent is NaN.
                Interval::top_nan()
            }
        }
        BinaryOp::Min => Interval::corners(a, b, f64::min),
        BinaryOp::Max => Interval::corners(a, b, f64::max),
    }
}

/// Transfer function for comparisons: 0/1 in general, a known point when
/// the operand ranges decide the predicate.
fn transfer_cmp(op: CmpOp, a: Interval, b: Interval) -> Interval {
    if !a.may_nan && !b.may_nan {
        let decided = match op {
            CmpOp::Lt if a.hi < b.lo => Some(1.0),
            CmpOp::Lt if a.lo >= b.hi => Some(0.0),
            CmpOp::Le if a.hi <= b.lo => Some(1.0),
            CmpOp::Le if a.lo > b.hi => Some(0.0),
            CmpOp::Gt if a.lo > b.hi => Some(1.0),
            CmpOp::Gt if a.hi <= b.lo => Some(0.0),
            CmpOp::Ge if a.lo >= b.hi => Some(1.0),
            CmpOp::Ge if a.hi < b.lo => Some(0.0),
            CmpOp::Eq if a.is_point(b.lo) && b.is_point(a.lo) => Some(1.0),
            CmpOp::Eq if a.hi < b.lo || a.lo > b.hi => Some(0.0),
            CmpOp::Ne if a.hi < b.lo || a.lo > b.hi => Some(1.0),
            CmpOp::Ne if a.is_point(b.lo) && b.is_point(a.lo) => Some(0.0),
            _ => None,
        };
        if let Some(v) = decided {
            return Interval::point(v);
        }
    }
    Interval::range(0.0, 1.0)
}

// ---------------------------------------------------------------------------
// Determinism lint
// ---------------------------------------------------------------------------

/// Check the invariants the interpreter/native bit-identity contract
/// relies on, returning one human-readable line per issue:
///
/// - the emitted kernel source must contain no FMA-contracted pattern
///   (`mul_add` / `fma`) — fused multiply-adds round once where the
///   interpreter rounds twice, so a single contraction breaks bit
///   identity;
/// - every laned segment function must perform exactly the scalar
///   segment's statement sequence (per-segment statement parity between
///   the scalar and laned kernels, at every generated lane width);
/// - long fully-skewed additive chains are reported (informational): a
///   left-leaning sum of `n` terms has depth `n - 1`, which both engines
///   evaluate in the same order (so determinism holds), but rebalancing
///   would change results — the lint documents where the shape matters.
pub fn determinism_lint(prog: &SystemProgram) -> Vec<String> {
    let mut issues = Vec::new();
    let source = prog.codegen_source();
    for pat in ["mul_add", "fma("] {
        if source.contains(pat) {
            issues.push(format!(
                "emitted source contains FMA-contractible pattern `{pat}` \
                 (breaks interpreter bit identity)"
            ));
        }
    }
    // Per-segment statement parity: each segment function writes exactly
    // one `*r.add(` store per instruction, scalar and laned alike.
    let seg_lens = [
        ("ark_pp", prog.pprologue.len()),
        ("ark_tp", prog.tprologue.len()),
        ("ark_body", prog.body.len()),
    ];
    let mut names: Vec<(String, usize)> = Vec::new();
    for (name, len) in seg_lens {
        names.push((name.to_string(), len));
        for lanes in codegen::NATIVE_LANE_WIDTHS {
            names.push((format!("{name}{lanes}"), len));
        }
    }
    for (name, expect) in names {
        match segment_store_count(&source, &name) {
            Some(got) if got == expect => {}
            Some(got) => issues.push(format!(
                "segment fn `{name}`: {got} stores emitted, {expect} instructions in the IR \
                 (scalar/laned parity broken)"
            )),
            None => issues.push(format!("segment fn `{name}` missing from emitted source")),
        }
    }
    // Additive-chain shape: count terms and depth per register through the
    // additive slots of Add/MulAdd/AddMul. A fully-skewed chain of >= 8
    // terms (depth == terms - 1) is worth knowing about when reasoning
    // about rounding — both engines evaluate it identically, so this is
    // informational, not an error.
    let n_regs = prog.register_count();
    let mut terms = vec![1u32; n_regs];
    let mut depth = vec![0u32; n_regs];
    let mut flagged = 0usize;
    for instr in prog
        .pprologue
        .iter()
        .chain(&prog.tprologue)
        .chain(&prog.body)
    {
        let dest = instr.dest as usize;
        if dest >= n_regs {
            continue;
        }
        let (t, d) = match instr.op {
            POp::Bin(BinaryOp::Add, a, b) | POp::Bin(BinaryOp::Sub, a, b) => {
                let (a, b) = (a as usize, b as usize);
                (
                    terms[a].saturating_add(terms[b]),
                    depth[a].max(depth[b]) + 1,
                )
            }
            // MulAdd(a, b, c) = a * b + c and MulSub subtract: the chain
            // continues through c; AddMul(a, b, c) = a + b * c and SubMul:
            // through a.
            POp::MulAdd(_, _, c) | POp::MulSub(_, _, c) => {
                (terms[c as usize].saturating_add(1), depth[c as usize] + 1)
            }
            POp::AddMul(a, _, _) | POp::SubMul(a, _, _) => {
                (terms[a as usize].saturating_add(1), depth[a as usize] + 1)
            }
            _ => (1, 0),
        };
        if t >= 8 && d == t - 1 && terms[dest] < t {
            flagged += 1;
        }
        terms[dest] = t;
        depth[dest] = d;
    }
    if flagged > 0 {
        issues.push(format!(
            "note: {flagged} fully-skewed additive chain(s) of >= 8 terms \
             (evaluated identically by both engines; rebalancing would change rounding)"
        ));
    }
    issues
}

/// Count register-store statements inside the body of the named segment
/// function in emitted kernel source, or `None` if the function is absent.
/// Operand *reads* also spell `*r.add(`, so only lines that *start* with
/// the store (the destination is always the first token of a statement)
/// are counted.
pub(crate) fn segment_store_count(source: &str, name: &str) -> Option<usize> {
    let sig = format!("fn {name}(");
    let start = source.find(&sig)?;
    let body = &source[start..];
    let end = body.find("\n}\n").unwrap_or(body.len());
    Some(
        body[..end]
            .lines()
            .filter(|l| l.trim_start().starts_with("*r.add("))
            .count(),
    )
}

// ---------------------------------------------------------------------------
// Aggregate report
// ---------------------------------------------------------------------------

/// Instruction counts per segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Parameter-prologue instructions.
    pub pprologue: usize,
    /// Time-prologue instructions.
    pub tprologue: usize,
    /// Body instructions.
    pub body: usize,
}

/// Everything the analysis suite knows about one program: verifier
/// diagnostics, domain warnings, determinism-lint issues, and the shape
/// statistics the `ark-lint` CLI prints.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Every structural violation ([`SystemProgram::verify_all`]).
    pub errors: Vec<VerifyError>,
    /// Guaranteed-undefined operations ([`domain_analysis`]).
    pub domain: Vec<DomainWarning>,
    /// Bit-identity contract issues ([`determinism_lint`]). Lines starting
    /// with `note:` are informational.
    pub determinism: Vec<String>,
    /// Instruction counts per segment.
    pub segments: SegmentStats,
    /// Pooled constants.
    pub consts: usize,
    /// Parameter slots.
    pub params: usize,
    /// Register-file size.
    pub regs: usize,
    /// Output count.
    pub outputs: usize,
}

impl ProgramReport {
    /// Dead instructions found by the verifier.
    pub fn dead_instrs(&self) -> usize {
        self.errors
            .iter()
            .filter(|e| matches!(e, VerifyError::DeadInstruction { .. }))
            .count()
    }

    /// Structural violations other than dead instructions.
    pub fn hard_errors(&self) -> usize {
        self.errors.len() - self.dead_instrs()
    }

    /// Determinism issues excluding informational `note:` lines.
    pub fn determinism_errors(&self) -> usize {
        self.determinism
            .iter()
            .filter(|l| !l.starts_with("note:"))
            .count()
    }
}

/// Run every analysis over one program and bundle the results.
pub fn analyze(prog: &SystemProgram) -> ProgramReport {
    ProgramReport {
        errors: verify_program(prog),
        domain: domain_analysis(prog),
        determinism: determinism_lint(prog),
        segments: SegmentStats {
            pprologue: prog.param_prologue_len(),
            tprologue: prog.prologue_len() - prog.param_prologue_len(),
            body: prog.body_len(),
        },
        consts: prog.const_count(),
        params: prog.param_count(),
        regs: prog.register_count(),
        outputs: prog.output_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_expr;
    use crate::program::{ProgramBuilder, SlotResolver};

    fn build(src: &str) -> SystemProgram {
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let v = pb.add_expr(&parse_expr(src).unwrap(), &resolve).unwrap();
        pb.finish(&[v], 0)
    }

    #[test]
    fn well_formed_program_verifies() {
        let prog = build("sin(var(x)) * cos(var(x)) + time");
        assert_eq!(prog.verify(), Ok(()));
        assert!(prog.verify_all().is_empty());
        let report = analyze(&prog);
        assert_eq!(report.dead_instrs(), 0);
        assert_eq!(report.hard_errors(), 0);
    }

    #[test]
    fn out_of_range_register_rejected() {
        let mut prog = build("sin(var(x)) + 1");
        prog.body[0].dest = 9999;
        match prog.verify() {
            Err(VerifyError::RegisterOutOfRange { reg: 9999, .. }) => {}
            other => panic!("expected RegisterOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn time_op_in_param_prologue_rejected() {
        let mut prog = build("sin(var(x)) + 1");
        let dest = prog.register_count() as u32 - 1;
        prog.pprologue.insert(
            0,
            PInstr {
                dest,
                op: POp::Time,
            },
        );
        match prog.verify() {
            Err(VerifyError::TimeInParamPrologue { index: 0 }) => {}
            other => panic!("expected TimeInParamPrologue, got {other:?}"),
        }
    }

    #[test]
    fn state_load_in_time_prologue_rejected() {
        let mut prog = build("sin(time) + var(x)");
        assert!(!prog.tprologue.is_empty(), "sin(time) should hoist");
        let dest = prog.tprologue[0].dest;
        prog.tprologue[0] = PInstr {
            dest,
            op: POp::Load(0),
        };
        assert!(prog
            .verify_all()
            .iter()
            .any(|e| matches!(e, VerifyError::StateInPrologue { slot: 0, .. })));
    }

    #[test]
    fn dead_instruction_rejected() {
        let mut prog = build("sin(var(x)) + cos(var(x))");
        let outputs: BTreeSet<u32> = prog.output_regs().iter().copied().collect();
        let dest = prog
            .body
            .iter()
            .map(|i| i.dest)
            .find(|d| !outputs.contains(d))
            .expect("a non-output body register");
        prog.body.push(PInstr {
            dest,
            op: POp::Time,
        });
        let index = prog.body.len() - 1;
        match prog.verify() {
            Err(VerifyError::DeadInstruction {
                segment: Segment::Body,
                index: i,
                ..
            }) if i == index => {}
            other => panic!("expected DeadInstruction at body[{index}], got {other:?}"),
        }
    }

    #[test]
    fn pool_clobber_and_use_before_def_rejected() {
        let mut prog = build("var(x) + 1");
        // The constant pool is register 0 here; writing it is illegal.
        prog.body[0].dest = 0;
        assert!(prog
            .verify_all()
            .iter()
            .any(|e| matches!(e, VerifyError::PoolClobbered { reg: 0, .. })));
    }

    #[test]
    fn div_by_provable_zero_flagged() {
        let prog = build("var(x) / 0.0");
        let warnings = domain_analysis(&prog);
        assert!(
            warnings
                .iter()
                .any(|w| w.kind == DomainWarningKind::DivByZero),
            "got {warnings:?}"
        );
    }

    #[test]
    fn sqrt_of_provably_negative_range_flagged_with_provenance() {
        // exp(x) is in [0, inf], so 0 - exp(x) - 4 is in [-inf, -4]:
        // guaranteed-negative sqrt argument for every state value.
        let prog = build("sqrt(0.0 - exp(var(x)) - 4.0)");
        let warnings = domain_analysis(&prog);
        let w = warnings
            .iter()
            .find(|w| w.kind == DomainWarningKind::SqrtNegative)
            .unwrap_or_else(|| panic!("expected SqrtNegative, got {warnings:?}"));
        assert_eq!(w.state_slots, vec![0], "provenance should name slot 0");
    }

    #[test]
    fn ln_of_provably_negative_range_flagged() {
        // sat(x) is in [-1, 1], so sat(x) - 3 is in [-4, -2].
        let prog = build("ln(sat(var(x)) - 3.0)");
        assert!(domain_analysis(&prog)
            .iter()
            .any(|w| w.kind == DomainWarningKind::LogNegative));
    }

    #[test]
    fn saturated_denominator_produces_no_warning() {
        // sat(x) is in [-1, 1], so the denominator is in [1, 3]: never zero.
        let prog = build("1.0 / (2.0 + sat(var(x)))");
        let warnings = domain_analysis(&prog);
        assert!(warnings.is_empty(), "got {warnings:?}");
    }

    #[test]
    fn interval_arithmetic_basics() {
        let a = Interval::range(-2.0, 3.0);
        let b = Interval::range(1.0, 4.0);
        let m = Interval::mul(a, b);
        assert_eq!((m.lo, m.hi), (-8.0, 12.0));
        let d = Interval::div(a, Interval::range(-1.0, 1.0));
        assert!(d.may_nan, "division across zero must widen");
        let c = transfer_cmp(
            CmpOp::Lt,
            Interval::range(0.0, 1.0),
            Interval::range(2.0, 3.0),
        );
        assert!(c.is_point(1.0), "decided comparison should be a point");
    }

    #[test]
    fn determinism_lint_clean_on_builder_output() {
        let prog = build("sat(var(x)) * var(x) + time");
        let report = analyze(&prog);
        assert_eq!(
            report.determinism_errors(),
            0,
            "got {:?}",
            report.determinism
        );
        let source = prog.codegen_source();
        assert!(source.contains("fn ark_body("));
        assert!(!source.contains("mul_add"));
    }

    #[test]
    fn skewed_additive_chain_reported_as_note() {
        let terms: Vec<String> = (1..=9).map(|k| format!("var(x) * {k}.0")).collect();
        let prog = build(&terms.join(" + "));
        let issues = determinism_lint(&prog);
        assert!(
            issues.iter().any(|l| l.starts_with("note:")),
            "expected a chain-shape note, got {issues:?}"
        );
        // Notes are informational: not counted as determinism errors.
        assert_eq!(analyze(&prog).determinism_errors(), 0);
    }

    #[test]
    fn laned_parity_breakage_detected() {
        let prog = build("sin(var(x)) + 1");
        let mut source = prog.codegen_source();
        // Simulate a laned segment dropping a store.
        let start = source.find("fn ark_body4(").expect("laned segment");
        let cut = source[start..].find("*r.add(").expect("a store") + start;
        let line_end = source[cut..].find('\n').unwrap() + cut;
        source.replace_range(cut..=line_end, "\n");
        let got = segment_store_count(&source, "ark_body4").unwrap();
        assert_eq!(got + 1, prog.body_len());
    }
}

//! # ark-expr: the expression engine of the Ark language
//!
//! Ark ("Design of Novel Analog Compute Paradigms with Ark", ASPLOS 2024)
//! describes analog compute paradigms as DSLs whose production rules attach
//! algebraic terms to dynamical-graph connections. This crate implements the
//! math/boolean expression language those rules, attributes, and switch
//! conditions are written in:
//!
//! * [`Expr`]/[`BoolExpr`] — the AST, with `var(.)` node references,
//!   `v.a` attribute references, `time`, lambdas, and `if-then-else`;
//! * [`parse_expr`]/[`parse_bool_expr`]/[`parse_lambda`] — the textual
//!   frontend used by the full Ark parser in `ark-core`;
//! * [`eval()`](eval())/[`eval_bool`] — the reference tree-walking evaluator over an
//!   [`EvalContext`];
//! * [`ProgramBuilder`]/[`SystemProgram`] — many expressions fused into one
//!   optimized register program for fast repeated evaluation inside ODE
//!   right-hand sides (the form the dynamical-system compiler emits), with
//!   [`codegen`] lowering it to native code.
//!
//! # Examples
//!
//! Parse and evaluate the TLN production-rule expression `-var(t)/s.c`
//! (paper §4.4):
//!
//! ```
//! use ark_expr::{parse_expr, eval, MapContext};
//!
//! let e = parse_expr("-var(t)/s.c")?;
//! let ctx = MapContext::new().with_var("t", 0.2).with_attr("s", "c", 1e-9);
//! assert_eq!(eval(&e, &ctx)?, -2e8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// This crate hosts the project's only unsafe code (the codegen dlopen
// path); every unsafe block must carry a `// SAFETY:` justification.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod analysis;
pub mod ast;
pub mod builtins;
pub mod codegen;
pub mod deriv;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parse;
pub mod program;

pub use analysis::{
    analyze, determinism_lint, domain_analysis, DomainWarning, DomainWarningKind, Interval,
    ProgramReport, Segment, SegmentStats, VerifyError,
};
pub use ast::{BinaryOp, BoolExpr, CmpOp, Expr, Lambda, UnaryOp};
pub use codegen::{Backend, CodegenCache, CodegenError, FallbackReason, NativeStatus, Provenance};
pub use deriv::Differentiator;
pub use error::{EvalError, ParseError};
pub use eval::{eval, eval_bool, EvalContext, MapContext};
pub use parse::{parse_bool_expr, parse_expr, parse_lambda};
pub use program::{
    LaneScratch, ProgScratch, ProgramBuilder, ProgramResolver, SlotResolver, SystemProgram,
    TapeError, ValueId, VarRef,
};

//! Native code generation for [`SystemProgram`]: compile the fused
//! instruction stream to a shared library once per design, then call it
//! instead of the interpreter dispatch loop.
//!
//! Ark's compile-once discipline makes ahead-of-time codegen cheap to
//! amortize: one design is replayed across ~10⁵ fabricated instances and
//! millions of RHS evaluations, so a one-time `rustc` invocation trades for
//! the interpreter dispatch on every one of them. On a 2-core x86-64 host
//! (AVX-512) the 5,526-line kernel of the parametric Figure 11 CNN takes
//! about 8.5 s of `rustc` (median of 3 standalone builds on an idle host;
//! load from other tenants adds several seconds) and yields a 78 KB
//! `cdylib`. The interpreter it replaces costs about 3.8 ns per
//! instruction on one instance, and about 1 ns per instruction per
//! instance on four lanes (the CNN RHS in `BENCH_rhs.json`). The lowering
//! is deliberately boring: each program segment (parameter prologue, time
//! prologue, body) becomes one straight-line
//! `unsafe extern "C" fn(regs, slots, time)` whose statements mirror the
//! interpreter's opcode execution *exactly* — same operations, same order,
//! no FMA contraction, separate multiply-then-add, `min`/`max` with the
//! signed-zero tie pinned ([`builtins::min`](crate::builtins::min)) — so
//! native results are **bit-identical** to interpreted ones. Laned
//! variants (`[f64; 4]` / `[f64; 8]` register files in the same
//! struct-of-arrays layout as [`LaneScratch`](crate::LaneScratch)) are
//! emitted alongside, one counted `while l < L` loop per instruction.
//!
//! Kernels are built with `rustc --crate-type cdylib -C opt-level=3
//! -C target-cpu=native -C panic=abort -C strip=symbols -C link-arg=-lm`.
//! Lower opt-levels are no cheaper: on the CNN kernel `opt-level=1` and
//! `2` compile in 10.9 and 9.2 s against 8.4 s, and run the 4-lane body
//! at 300–500 ns per lane against 75–95 ns.
//!
//! # Cache layout and concurrency
//!
//! Kernels are keyed by a hash of the generated source, the `rustc -vV`
//! banner, the exact flag list and the host's target features (what
//! `target-cpu=native` expands to), so a toolchain upgrade, a flag change
//! or a different CPU sharing one cache directory rebuilds. The on-disk
//! cache — `$ARK_CODEGEN_DIR`, defaulting to `<tmp>/ark-codegen` — holds
//! `<hash>.rs` (the generated source, kept for inspection) and `<hash>.so`.
//! Artifacts are published with a write-to-temp-then-rename so readers never
//! observe partial files, and concurrent builders (two processes compiling
//! the same design) serialize on a `<hash>.lock` sentinel: one compiles,
//! the others wait for the `.so` to appear. A stale lock left by a crashed
//! builder is stolen after a timeout. A corrupt or foreign cache entry
//! (truncated file, or a library whose embedded `ARK_SIG` does not match
//! the expected hash) is deleted and rebuilt, never trusted.
//!
//! # Fallback rules
//!
//! Codegen is an optimization, never a requirement: any failure — no
//! `rustc` on `PATH`, an unwritable cache directory, a failed compile or
//! load — makes [`SystemProgram`] fall back to the interpreter silently
//! (the error is available via [`CodegenCache::prepare`] for callers that
//! want to require native execution). The selected [`Backend`] is a
//! *request*, not a guarantee;
//! [`SystemProgram::native_active`](crate::SystemProgram::native_active)
//! reports what actually runs.

use crate::ast::{BinaryOp, CmpOp, UnaryOp};
use crate::program::{Builtin3, PInstr, POp, SystemProgram};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Which engine executes a [`SystemProgram`]'s instruction stream.
///
/// The backend is a *request*: `Native` transparently falls back to the
/// interpreter when code generation is unavailable (no toolchain, unusable
/// cache directory, unsupported platform), preserving results bit for bit
/// either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The in-process register interpreter (always available).
    Interp,
    /// Per-design machine code compiled through [`CodegenCache`], with
    /// transparent interpreter fallback.
    Native,
}

impl Backend {
    /// The process-wide default backend, read once from `ARK_BACKEND`
    /// (`native` selects [`Backend::Native`]; anything else, including
    /// unset, selects [`Backend::Interp`]).
    pub fn from_env() -> Backend {
        static DEFAULT: OnceLock<Backend> = OnceLock::new();
        *DEFAULT.get_or_init(|| match std::env::var("ARK_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("native") => Backend::Native,
            _ => Backend::Interp,
        })
    }
}

/// Where [`CodegenCache::prepare`] found the kernel it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Compiled by this call (cache miss, or a corrupt entry was rebuilt).
    Compiled,
    /// Loaded from an existing on-disk cache entry.
    DiskCache,
    /// Reused from this cache handle's in-memory registry (no file I/O).
    MemoryCache,
}

/// Why native code generation was unavailable or failed.
///
/// Every variant is survivable: [`SystemProgram`] evaluation falls back to
/// the interpreter (bit-identical results) whenever `prepare` errors.
#[derive(Debug, Clone)]
pub enum CodegenError {
    /// `rustc` (or the platform's dynamic loader) is not usable here.
    Toolchain(String),
    /// The cache directory could not be created or written.
    Cache(String),
    /// The generated source failed to compile.
    Compile(String),
    /// The compiled library could not be loaded or verified.
    Load(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Toolchain(m) => write!(f, "codegen toolchain unavailable: {m}"),
            CodegenError::Cache(m) => write!(f, "codegen cache unusable: {m}"),
            CodegenError::Compile(m) => write!(f, "generated kernel failed to compile: {m}"),
            CodegenError::Load(m) => write!(f, "compiled kernel failed to load: {m}"),
        }
    }
}

impl std::error::Error for CodegenError {}

/// Why a program that requested [`Backend::Native`] runs on the
/// interpreter instead. The first preparation failure is cached in the
/// program's kernel slot, so the reason survives for later diagnosis.
pub type FallbackReason = CodegenError;

/// Observable state of a program's native-kernel slot, from
/// [`SystemProgram::native_status`](crate::SystemProgram::native_status).
///
/// The fallback to the interpreter is *silent* by design (results are
/// bit-identical either way); this makes it diagnosable without setting
/// `ARK_REQUIRE_NATIVE`.
#[derive(Debug, Clone)]
pub enum NativeStatus {
    /// The backend is [`Backend::Interp`]: no native kernel was requested.
    NotRequested,
    /// A native kernel is prepared and runs the evaluations.
    Active,
    /// [`Backend::Native`] was requested but preparation failed; every
    /// evaluation interprets. The cached reason explains why.
    Fallback(FallbackReason),
}

impl NativeStatus {
    /// True when evaluations actually run native code.
    pub fn is_active(&self) -> bool {
        matches!(self, NativeStatus::Active)
    }

    /// The cached failure, when the program fell back to the interpreter.
    pub fn fallback_reason(&self) -> Option<&FallbackReason> {
        match self {
            NativeStatus::Fallback(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for NativeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeStatus::NotRequested => f.write_str("interpreter (native not requested)"),
            NativeStatus::Active => f.write_str("native kernel active"),
            NativeStatus::Fallback(e) => write!(f, "interpreter fallback: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Source emission
// ---------------------------------------------------------------------------

/// Lane widths with dedicated generated kernels. Other widths fall back to
/// the laned interpreter (still bit-identical — that is the whole spec).
pub const NATIVE_LANE_WIDTHS: [usize; 2] = [4, 8];

/// Generated source plus the bounds the kernel may touch, used for the
/// safety checks before handing it raw pointers.
pub(crate) struct Emitted {
    pub(crate) source: String,
    /// Exclusive upper bound on register indices read or written.
    min_regs: usize,
    /// Exclusive upper bound on input-slot indices read.
    min_slots: usize,
}

/// One operand-reference style: how register/slot reads and the destination
/// store are spelled (scalar vs laned-at-lane-`l`).
struct Style {
    lanes: usize,
}

impl Style {
    fn reg(&self, r: u32) -> String {
        if self.lanes == 1 {
            format!("(*r.add({r}))")
        } else {
            format!("(*r.add({r} * {L} + l))", L = self.lanes)
        }
    }

    fn slot(&self, s: u32) -> String {
        if self.lanes == 1 {
            format!("(*s.add({s}))")
        } else {
            format!("(*s.add({s} * {L} + l))", L = self.lanes)
        }
    }
}

/// The right-hand-side expression computing one instruction, mirroring
/// [`exec`](crate::program) operation for operation. Uses the same `f64`
/// operations in the same order as the interpreter, so the compiled result
/// is bit-identical (no FMA contraction: `rustc` does not enable
/// floating-point contraction, and the multiply and add are separate
/// expressions here just as they are separate ops in `exec`).
fn pop_expr(op: &POp, st: &Style) -> String {
    let r = |x: u32| st.reg(x);
    match *op {
        POp::Time => "t".to_string(),
        POp::Load(s) => st.slot(s),
        POp::NegLoad(s) => format!("-{}", st.slot(s)),
        POp::Un(op, a) => {
            let a = r(a);
            match op {
                UnaryOp::Neg => format!("-{a}"),
                UnaryOp::Sin => format!("sin({a})"),
                UnaryOp::Cos => format!("cos({a})"),
                UnaryOp::Tan => format!("tan({a})"),
                UnaryOp::Tanh => format!("tanh({a})"),
                UnaryOp::Exp => format!("exp({a})"),
                UnaryOp::Ln => format!("log({a})"),
                UnaryOp::Sqrt => format!("sqrt({a})"),
                UnaryOp::Abs => format!("{a}.abs()"),
                UnaryOp::Sgn => format!(
                    "{{ let x = {a}; if x > 0.0 {{ 1.0 }} else if x < 0.0 {{ -1.0 }} else {{ 0.0 }} }}"
                ),
                UnaryOp::Sat => {
                    format!("{{ let x = {a}; 0.5 * ((x + 1.0).abs() - (x - 1.0).abs()) }}")
                }
                UnaryOp::SatNi => format!("tanh(2.0 * {a})"),
            }
        }
        POp::Bin(op, a, b) => {
            let (a, b) = (r(a), r(b));
            match op {
                BinaryOp::Add => format!("{a} + {b}"),
                BinaryOp::Sub => format!("{a} - {b}"),
                BinaryOp::Mul => format!("{a} * {b}"),
                BinaryOp::Div => format!("{a} / {b}"),
                BinaryOp::Pow => format!("pow({a}, {b})"),
                BinaryOp::Min => format!("ark_min({a}, {b})"),
                BinaryOp::Max => format!("ark_max({a}, {b})"),
            }
        }
        POp::MulAdd(a, b, c) => format!("{} * {} + {}", r(a), r(b), r(c)),
        POp::AddMul(a, b, c) => format!("{} + {} * {}", r(a), r(b), r(c)),
        POp::MulSub(a, b, c) => format!("{} * {} - {}", r(a), r(b), r(c)),
        POp::SubMul(a, b, c) => format!("{} - {} * {}", r(a), r(b), r(c)),
        POp::Cmp(op, a, b) => {
            let sym = match op {
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
            };
            format!("if {} {sym} {} {{ 1.0 }} else {{ 0.0 }}", r(a), r(b))
        }
        POp::And(a, b) => format!(
            "if {} > 0.5 && {} > 0.5 {{ 1.0 }} else {{ 0.0 }}",
            r(a),
            r(b)
        ),
        POp::Or(a, b) => format!(
            "if {} > 0.5 || {} > 0.5 {{ 1.0 }} else {{ 0.0 }}",
            r(a),
            r(b)
        ),
        POp::Not(a) => format!("if {} > 0.5 {{ 0.0 }} else {{ 1.0 }}", r(a)),
        POp::Select(c, t, e) => format!("if {} > 0.5 {{ {} }} else {{ {} }}", r(c), r(t), r(e)),
        POp::Call3(b3, a, b, c) => {
            let name = match b3 {
                Builtin3::Pulse => "ark_pulse",
                Builtin3::SquarePulse => "ark_square_pulse",
                Builtin3::Smoothstep => "ark_smoothstep",
            };
            format!("{name}({}, {}, {})", r(a), r(b), r(c))
        }
    }
}

/// Emit one exported segment function over the given instruction list.
fn emit_segment(out: &mut String, name: &str, instrs: &[PInstr], lanes: usize) {
    let st = Style { lanes };
    let _ = writeln!(out, "#[no_mangle]");
    let _ = writeln!(
        out,
        "pub unsafe extern \"C\" fn {name}(r: *mut f64, s: *const f64, t: f64) {{"
    );
    if instrs.is_empty() {
        let _ = writeln!(out, "    let _ = (r, s, t);");
    } else if lanes == 1 {
        for i in instrs {
            let _ = writeln!(out, "    *r.add({}) = {};", i.dest, pop_expr(&i.op, &st));
        }
    } else {
        // Elementwise per-lane loop: lane `l` performs exactly the scalar
        // operation sequence on its own values, so per-lane results match
        // the scalar kernel (and the laned interpreter) bit for bit. A
        // counted `while` rather than `for l in 0..L`: the iterator form
        // costs a `&mut Range` borrow and extra MIR blocks per loop, which
        // made borrow-checking the bulk of a large kernel's compile time.
        for i in instrs {
            let _ = writeln!(out, "    let mut l = 0usize; while l < {lanes} {{");
            let _ = writeln!(
                out,
                "        *r.add({} * {lanes} + l) = {};",
                i.dest,
                pop_expr(&i.op, &st)
            );
            let _ = writeln!(out, "    l += 1; }}");
        }
    }
    let _ = writeln!(out, "}}");
}

/// Fixed prelude of every generated kernel: freestanding (`no_std`, so the
/// artifact stays a few KB), with the math functions bound to the process's
/// own `libm` symbols — the very functions `std`'s `f64` methods lower to,
/// which is what keeps transcendentals bit-identical to the interpreter.
const PRELUDE: &str = r#"// Generated by ark-expr native codegen; keyed by content hash. Do not edit.
#![no_std]
#![allow(unused)]
#[panic_handler]
fn panic(_: &core::panic::PanicInfo) -> ! {
    loop {}
}
mod lm {
    extern "C" {
        pub fn sin(x: f64) -> f64;
        pub fn cos(x: f64) -> f64;
        pub fn tan(x: f64) -> f64;
        pub fn tanh(x: f64) -> f64;
        pub fn exp(x: f64) -> f64;
        pub fn log(x: f64) -> f64;
        pub fn sqrt(x: f64) -> f64;
        pub fn pow(x: f64, y: f64) -> f64;
    }
}
#[inline(always)] fn sin(x: f64) -> f64 { unsafe { lm::sin(x) } }
#[inline(always)] fn cos(x: f64) -> f64 { unsafe { lm::cos(x) } }
#[inline(always)] fn tan(x: f64) -> f64 { unsafe { lm::tan(x) } }
#[inline(always)] fn tanh(x: f64) -> f64 { unsafe { lm::tanh(x) } }
#[inline(always)] fn exp(x: f64) -> f64 { unsafe { lm::exp(x) } }
#[inline(always)] fn log(x: f64) -> f64 { unsafe { lm::log(x) } }
#[inline(always)] fn sqrt(x: f64) -> f64 { unsafe { lm::sqrt(x) } }
#[inline(always)] fn pow(x: f64, y: f64) -> f64 { unsafe { lm::pow(x, y) } }
// Body-for-body copies of ark_expr::builtins (same operations, same order,
// bit-identical results). min/max pin the signed-zero tie that f64::min/max
// leave unspecified, so the host-tuned build cannot drift from the
// interpreter.
fn ark_pulse(t: f64, t0: f64, width: f64) -> f64 {
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
fn ark_square_pulse(t: f64, t0: f64, width: f64) -> f64 {
    if t >= t0 && t < t0 + width { 1.0 } else { 0.0 }
}
fn ark_smoothstep(t: f64, t0: f64, tau: f64) -> f64 {
    1.0 / (1.0 + exp(-(t - t0) / tau))
}
#[inline(always)] fn ark_min(a: f64, b: f64) -> f64 { if a.is_nan() || b < a { b } else { a } }
#[inline(always)] fn ark_max(a: f64, b: f64) -> f64 { if a.is_nan() || b > a { b } else { a } }
"#;

/// Lower a program's three instruction segments (plus laned variants) to
/// Rust source. Only the instruction stream matters: the constant pool,
/// parameter segment, and output map stay on the interpreter side, so two
/// programs with identical streams share one kernel.
pub(crate) fn emit(prog: &SystemProgram) -> Emitted {
    let mut source = String::from(PRELUDE);
    let segs: [(&str, &[PInstr]); 3] = [
        ("ark_pp", &prog.pprologue),
        ("ark_tp", &prog.tprologue),
        ("ark_body", &prog.body),
    ];
    for (name, instrs) in segs {
        emit_segment(&mut source, name, instrs, 1);
    }
    for lanes in NATIVE_LANE_WIDTHS {
        for (name, instrs) in segs {
            emit_segment(&mut source, &format!("{name}{lanes}"), instrs, lanes);
        }
    }
    let mut min_regs = 0usize;
    let mut min_slots = 0usize;
    let mut touch_reg = |r: u32| min_regs = min_regs.max(r as usize + 1);
    for i in segs.iter().flat_map(|(_, s)| s.iter()) {
        touch_reg(i.dest);
        match i.op {
            POp::Time => {}
            POp::Load(s) | POp::NegLoad(s) => min_slots = min_slots.max(s as usize + 1),
            POp::Un(_, a) | POp::Not(a) => touch_reg(a),
            POp::Bin(_, a, b) | POp::Cmp(_, a, b) | POp::And(a, b) | POp::Or(a, b) => {
                touch_reg(a);
                touch_reg(b);
            }
            POp::MulAdd(a, b, c)
            | POp::AddMul(a, b, c)
            | POp::MulSub(a, b, c)
            | POp::SubMul(a, b, c)
            | POp::Select(a, b, c)
            | POp::Call3(_, a, b, c) => {
                touch_reg(a);
                touch_reg(b);
                touch_reg(c);
            }
        }
    }
    Emitted {
        source,
        min_regs,
        min_slots,
    }
}

// ---------------------------------------------------------------------------
// Hashing and toolchain discovery
// ---------------------------------------------------------------------------

/// FNV-1a: small, dependency-free, and stable across processes (the cache
/// key must mean the same thing to every builder racing on one directory).
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `rustc` arguments every kernel is built with (output and input
/// paths follow). `target-cpu=native` keeps bit identity: Rust never
/// contracts a multiply and an add into an FMA, the math functions are the
/// process's own `libm` symbols either way, and `min`/`max` are emitted as
/// `ark_min`/`ark_max` ([`builtins::min`](crate::builtins::min)), because
/// `f64::max` leaves the signed-zero tie unspecified and the host-tuned
/// build did return the other zero than the interpreter.
const RUSTC_FLAGS: [&str; 14] = [
    "--edition",
    "2021",
    "--crate-type",
    "cdylib",
    "-C",
    "opt-level=3",
    "-C",
    "target-cpu=native",
    "-C",
    "panic=abort",
    "-C",
    "strip=symbols",
    "-C",
    "link-arg=-lm",
];

/// The cache key of one kernel: a hash of everything that decides the
/// bytes of the built library — the `rustc -vV` banner, the exact flag
/// list, the host's target features (what `target-cpu=native` expands
/// to) and the generated source. A shared cache directory therefore never
/// hands a kernel to a toolchain, flag set or CPU it was not built for.
fn cache_key(banner: &str, flags: &[&str], features: &str, source: &str) -> u64 {
    // NUL-terminate each part so that no two distinct inputs concatenate
    // to the same byte stream.
    std::iter::once(banner)
        .chain(flags.iter().copied())
        .chain([features, source])
        .fold(0, |h, part| fnv1a(fnv1a(h, part.as_bytes()), &[0]))
}

fn rustc_path() -> String {
    std::env::var("ARK_RUSTC").unwrap_or_else(|_| "rustc".to_string())
}

/// What the cache key needs to know about the compiler and the host.
struct Toolchain {
    /// `rustc -vV` output: release, commit hash, host triple, LLVM version.
    banner: String,
    /// The `target_feature` lines of `rustc --print cfg -C
    /// target-cpu=native`, one per line.
    features: String,
}

/// The toolchain, probed once per process (two `rustc` runs, about
/// 30 ms). `None` when no usable compiler is on `PATH` — the
/// fallback-to-interpreter case.
fn toolchain() -> Option<&'static Toolchain> {
    static TOOLCHAIN: OnceLock<Option<Toolchain>> = OnceLock::new();
    TOOLCHAIN
        .get_or_init(|| {
            let stdout = |args: &[&str]| {
                let out = std::process::Command::new(rustc_path())
                    .args(args)
                    .output()
                    .ok()?;
                out.status
                    .success()
                    .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
            };
            let banner = stdout(&["-vV"])?.trim().to_string();
            let cfg = stdout(&["--print", "cfg", "-C", "target-cpu=native"])?;
            let features = cfg
                .lines()
                .filter(|l| l.starts_with("target_feature="))
                .collect::<Vec<_>>()
                .join("\n");
            Some(Toolchain { banner, features })
        })
        .as_ref()
}

// ---------------------------------------------------------------------------
// Dynamic loading (dlopen shim — no build script, no external crate)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod dl {
    use std::ffi::{c_char, c_int, c_void, CStr, CString};
    use std::path::Path;

    // On every glibc ≥ 2.34 (and musl) these live in libc itself, which
    // every Rust binary already links — no `-ldl`, no build script.
    extern "C" {
        fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
        fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        fn dlerror() -> *mut c_char;
    }

    const RTLD_NOW: c_int = 2;

    fn last_error(context: &str) -> String {
        // SAFETY: `dlerror` takes no arguments and returns either null or a
        // pointer to a NUL-terminated string owned by the loader; it is read
        // immediately (before any other dl* call from this thread could
        // invalidate it) and copied into an owned String.
        let msg = unsafe {
            let e = dlerror();
            if e.is_null() {
                "unknown dlerror".to_string()
            } else {
                CStr::from_ptr(e).to_string_lossy().into_owned()
            }
        };
        format!("{context}: {msg}")
    }

    /// `dlopen` the library. The handle is never closed: kernels are cached
    /// for the process lifetime, and unloading code that live function
    /// pointers reference would be unsound.
    pub fn open(path: &Path) -> Result<*mut c_void, String> {
        let c = CString::new(path.as_os_str().as_encoded_bytes())
            .map_err(|_| "path contains NUL".to_string())?;
        // SAFETY: `c` is a valid NUL-terminated path that outlives the call;
        // RTLD_NOW is a valid flag. Library constructors are trusted because
        // only kernels this process generated (and signature-verified) are
        // opened.
        let h = unsafe { dlopen(c.as_ptr(), RTLD_NOW) };
        if h.is_null() {
            Err(last_error("dlopen"))
        } else {
            Ok(h)
        }
    }

    pub fn sym(handle: *mut c_void, name: &str) -> Result<*mut c_void, String> {
        let c = CString::new(name).expect("static symbol names");
        // SAFETY: `handle` came from a successful `dlopen` (never closed, so
        // it stays valid for the process lifetime) and `c` is a valid
        // NUL-terminated symbol name that outlives the call.
        let p = unsafe { dlsym(handle, c.as_ptr()) };
        if p.is_null() {
            Err(last_error(name))
        } else {
            Ok(p)
        }
    }
}

// ---------------------------------------------------------------------------
// The loaded kernel
// ---------------------------------------------------------------------------

type SegFn = unsafe extern "C" fn(*mut f64, *const f64, f64);

/// A loaded native kernel: one function pointer per program segment
/// (scalar plus each width in [`NATIVE_LANE_WIDTHS`]), with the register
/// and slot bounds the generated code may touch.
///
/// Obtained from [`CodegenCache::prepare`]; consumed internally by
/// [`SystemProgram`] evaluation. The backing library stays mapped for the
/// process lifetime (function pointers into it are cached), so kernels are
/// deliberately leaked, never unloaded.
pub struct NativeKernel {
    pp: SegFn,
    tp: SegFn,
    body: SegFn,
    pp4: SegFn,
    tp4: SegFn,
    body4: SegFn,
    pp8: SegFn,
    tp8: SegFn,
    body8: SegFn,
    min_regs: usize,
    min_slots: usize,
}

// SAFETY: the function pointers reference immutable executable mappings that
// live for the whole process (handles are never dlclosed); calling them from
// any thread is as safe as calling them from the loading thread.
unsafe impl Send for NativeKernel {}
// SAFETY: same argument as `Send` — the kernel holds only immortal,
// immutable function pointers, so shared references are thread-safe.
unsafe impl Sync for NativeKernel {}

impl fmt::Debug for NativeKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeKernel")
            .field("min_regs", &self.min_regs)
            .field("min_slots", &self.min_slots)
            .finish_non_exhaustive()
    }
}

impl NativeKernel {
    /// Exclusive upper bound on input-slot indices the kernel reads.
    pub(crate) fn min_slots(&self) -> usize {
        self.min_slots
    }

    fn check(&self, n_regs: usize, n_slots: usize) {
        assert!(
            n_regs >= self.min_regs && n_slots >= self.min_slots,
            "native kernel bounds exceed caller buffers"
        );
    }

    pub(crate) fn run_pp(&self, regs: &mut [f64], slots: &[f64], t: f64) {
        self.check(regs.len(), slots.len());
        // SAFETY: bounds checked above; the generated code only touches
        // indices below min_regs/min_slots.
        unsafe { (self.pp)(regs.as_mut_ptr(), slots.as_ptr(), t) }
    }

    pub(crate) fn run_tp(&self, regs: &mut [f64], slots: &[f64], t: f64) {
        self.check(regs.len(), slots.len());
        // SAFETY: as in `run_pp`.
        unsafe { (self.tp)(regs.as_mut_ptr(), slots.as_ptr(), t) }
    }

    pub(crate) fn run_body(&self, regs: &mut [f64], slots: &[f64], t: f64) {
        self.check(regs.len(), slots.len());
        // SAFETY: as in `run_pp`.
        unsafe { (self.body)(regs.as_mut_ptr(), slots.as_ptr(), t) }
    }

    fn lane_fns<const L: usize>(&self) -> [SegFn; 3] {
        match L {
            4 => [self.pp4, self.tp4, self.body4],
            8 => [self.pp8, self.tp8, self.body8],
            _ => unreachable!("unsupported native lane width {L}"),
        }
    }

    pub(crate) fn run_pp_lanes<const L: usize>(
        &self,
        regs: &mut [[f64; L]],
        slots: &[[f64; L]],
        t: f64,
    ) {
        self.check(regs.len(), slots.len());
        // SAFETY: `[[f64; L]]` is a contiguous lane-major f64 buffer of
        // len()*L elements; bounds checked in lane units above.
        unsafe { (self.lane_fns::<L>()[0])(regs.as_mut_ptr().cast(), slots.as_ptr().cast(), t) }
    }

    pub(crate) fn run_tp_lanes<const L: usize>(
        &self,
        regs: &mut [[f64; L]],
        slots: &[[f64; L]],
        t: f64,
    ) {
        self.check(regs.len(), slots.len());
        // SAFETY: as in `run_pp_lanes`.
        unsafe { (self.lane_fns::<L>()[1])(regs.as_mut_ptr().cast(), slots.as_ptr().cast(), t) }
    }

    pub(crate) fn run_body_lanes<const L: usize>(
        &self,
        regs: &mut [[f64; L]],
        slots: &[[f64; L]],
        t: f64,
    ) {
        self.check(regs.len(), slots.len());
        // SAFETY: as in `run_pp_lanes`.
        unsafe { (self.lane_fns::<L>()[2])(regs.as_mut_ptr().cast(), slots.as_ptr().cast(), t) }
    }
}

// ---------------------------------------------------------------------------
// The on-disk cache
// ---------------------------------------------------------------------------

/// A content-hash-keyed kernel cache over one directory.
///
/// The shared process-wide instance ([`CodegenCache::shared`], configured
/// by `ARK_CODEGEN_DIR`) is what [`SystemProgram`] uses implicitly under
/// [`Backend::Native`]; explicit instances over other directories are for
/// tests and embedders. See the [module docs](self) for the cache layout,
/// locking protocol, and corruption recovery.
#[derive(Debug)]
pub struct CodegenCache {
    dir: PathBuf,
    /// How long to wait on another builder's `.lock` before stealing it.
    lock_wait: Duration,
    /// Kernels already loaded through *this* handle, by content hash.
    registry: Mutex<HashMap<u64, Arc<NativeKernel>>>,
}

impl CodegenCache {
    /// A cache over an explicit directory (created on first use).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CodegenCache {
            dir: dir.into(),
            lock_wait: Duration::from_secs(60),
            registry: Mutex::new(HashMap::new()),
        }
    }

    /// Adjust how long [`CodegenCache::prepare`] waits on a concurrent
    /// builder's lock before treating it as stale and stealing it.
    pub fn with_lock_wait(mut self, wait: Duration) -> Self {
        self.lock_wait = wait;
        self
    }

    /// The directory this cache stores artifacts in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The process-wide cache used by [`Backend::Native`] evaluation:
    /// `$ARK_CODEGEN_DIR` if set (read once), else `<tmp>/ark-codegen`.
    pub fn shared() -> &'static CodegenCache {
        static SHARED: OnceLock<CodegenCache> = OnceLock::new();
        SHARED.get_or_init(|| {
            let dir = std::env::var_os("ARK_CODEGEN_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| std::env::temp_dir().join("ark-codegen"));
            CodegenCache::new(dir)
        })
    }

    /// Compile (or fetch) the native kernel for `prog`'s instruction
    /// stream. Returns the kernel plus where it came from.
    ///
    /// Concurrent calls — across threads or processes — for the same
    /// content hash produce a single compilation; the rest load the
    /// published artifact. Corrupt or foreign entries are rebuilt.
    ///
    /// # Errors
    ///
    /// [`CodegenError`] when the toolchain, cache directory, compilation,
    /// or loading is unavailable — callers treat this as "use the
    /// interpreter", which is always bit-identical.
    pub fn prepare(
        &self,
        prog: &SystemProgram,
    ) -> Result<(Arc<NativeKernel>, Provenance), CodegenError> {
        if !cfg!(unix) {
            return Err(CodegenError::Toolchain(
                "native codegen requires a unix dynamic loader".into(),
            ));
        }
        let tc = toolchain()
            .ok_or_else(|| CodegenError::Toolchain(format!("`{} -vV` failed", rustc_path())))?;
        let emitted = emit(prog);
        let sig = cache_key(&tc.banner, &RUSTC_FLAGS, &tc.features, &emitted.source);
        if let Some(k) = self.registry.lock().unwrap().get(&sig) {
            return Ok((k.clone(), Provenance::MemoryCache));
        }
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| CodegenError::Cache(format!("create {}: {e}", self.dir.display())))?;
        let so = self.dir.join(format!("{sig:016x}.so"));
        let (kernel, provenance) = self.obtain(&so, &emitted, sig)?;
        self.registry.lock().unwrap().insert(sig, kernel.clone());
        Ok((kernel, provenance))
    }

    fn obtain(
        &self,
        so: &Path,
        emitted: &Emitted,
        sig: u64,
    ) -> Result<(Arc<NativeKernel>, Provenance), CodegenError> {
        if so.exists() {
            match load_kernel(so, sig, emitted) {
                Ok(k) => return Ok((k, Provenance::DiskCache)),
                // Corrupt, truncated, or foreign entry: drop and rebuild.
                Err(_) => {
                    let _ = std::fs::remove_file(so);
                }
            }
        }
        let provenance = self.build(so, emitted, sig)?;
        let kernel = load_kernel(so, sig, emitted)?;
        Ok((kernel, provenance))
    }

    /// Ensure `so` exists: compile it here, or wait for a concurrent
    /// builder holding the lock to publish it.
    fn build(&self, so: &Path, emitted: &Emitted, sig: u64) -> Result<Provenance, CodegenError> {
        let lock = self.dir.join(format!("{sig:016x}.lock"));
        let deadline = Instant::now() + self.lock_wait;
        loop {
            if so.exists() {
                return Ok(Provenance::DiskCache);
            }
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock)
            {
                Ok(_) => {
                    let res = self.compile(so, emitted, sig);
                    let _ = std::fs::remove_file(&lock);
                    return res.map(|()| Provenance::Compiled);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if Instant::now() >= deadline {
                        // A crashed builder left the lock behind; steal it
                        // and race for it again on the next iteration.
                        let _ = std::fs::remove_file(&lock);
                    } else {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                Err(e) => return Err(CodegenError::Cache(format!("lock {}: {e}", lock.display()))),
            }
        }
    }

    /// Compile the generated source and atomically publish `<sig>.rs` and
    /// `<sig>.so` (write-to-temp + rename, so readers never observe a
    /// partial artifact).
    fn compile(&self, so: &Path, emitted: &Emitted, sig: u64) -> Result<(), CodegenError> {
        let pid = std::process::id();
        let rs = self.dir.join(format!("{sig:016x}.rs"));
        let rs_tmp = self.dir.join(format!("{sig:016x}.{pid}.rs.tmp"));
        let so_tmp = self.dir.join(format!("{sig:016x}.{pid}.so.tmp"));
        // The kernel exports its own content hash; the loader verifies it,
        // so a cache entry can never be silently substituted.
        let src = format!(
            "{}#[no_mangle]\npub static ARK_SIG: u64 = {sig}u64;\n",
            emitted.source
        );
        let io_err = |what: &str, e: std::io::Error| CodegenError::Cache(format!("{what}: {e}"));
        std::fs::write(&rs_tmp, src).map_err(|e| io_err("write source", e))?;
        std::fs::rename(&rs_tmp, &rs).map_err(|e| io_err("publish source", e))?;
        let out = std::process::Command::new(rustc_path())
            .args(RUSTC_FLAGS)
            .arg("-o")
            .arg(&so_tmp)
            .arg(&rs)
            .output()
            .map_err(|e| CodegenError::Toolchain(format!("spawn {}: {e}", rustc_path())))?;
        if !out.status.success() {
            let _ = std::fs::remove_file(&so_tmp);
            return Err(CodegenError::Compile(
                String::from_utf8_lossy(&out.stderr).into_owned(),
            ));
        }
        std::fs::rename(&so_tmp, so).map_err(|e| io_err("publish kernel", e))
    }
}

/// Load and verify one compiled kernel.
#[cfg(unix)]
fn load_kernel(so: &Path, sig: u64, emitted: &Emitted) -> Result<Arc<NativeKernel>, CodegenError> {
    // The dynamic loader caches loaded objects *by pathname*: re-loading
    // `<hash>.so` after an in-process rebuild (corrupt entry replaced)
    // would silently return the stale mapping. Loading through a
    // unique-pathname hard link defeats the name cache while the loader's
    // inode check still dedupes genuinely identical files; the link is
    // removed right after `dlopen` (the mapping keeps the inode alive).
    static LOAD_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = LOAD_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let link = so.with_extension(format!("{}.{seq}.load.so", std::process::id()));
    let linked = std::fs::hard_link(so, &link).is_ok();
    let h = dl::open(if linked { &link } else { so }).map_err(CodegenError::Load);
    if linked {
        let _ = std::fs::remove_file(&link);
    }
    let h = h?;
    let sig_ptr = dl::sym(h, "ARK_SIG").map_err(CodegenError::Load)? as *const u64;
    // SAFETY: ARK_SIG is an exported u64 static in the generated library.
    let got = unsafe { *sig_ptr };
    if got != sig {
        return Err(CodegenError::Load(format!(
            "signature mismatch in {}: expected {sig:#x}, found {got:#x} (stale or foreign entry)",
            so.display()
        )));
    }
    let f = |name: &str| -> Result<SegFn, CodegenError> {
        let p = dl::sym(h, name).map_err(CodegenError::Load)?;
        // SAFETY: the generated library exports this symbol with exactly
        // the SegFn ABI (unsafe extern "C" fn(*mut f64, *const f64, f64)).
        Ok(unsafe { std::mem::transmute::<*mut std::ffi::c_void, SegFn>(p) })
    };
    Ok(Arc::new(NativeKernel {
        pp: f("ark_pp")?,
        tp: f("ark_tp")?,
        body: f("ark_body")?,
        pp4: f("ark_pp4")?,
        tp4: f("ark_tp4")?,
        body4: f("ark_body4")?,
        pp8: f("ark_pp8")?,
        tp8: f("ark_tp8")?,
        body8: f("ark_body8")?,
        min_regs: emitted.min_regs,
        min_slots: emitted.min_slots,
    }))
}

#[cfg(not(unix))]
fn load_kernel(_: &Path, _: u64, _: &Emitted) -> Result<Arc<NativeKernel>, CodegenError> {
    Err(CodegenError::Toolchain(
        "native codegen requires a unix dynamic loader".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_expr;
    use crate::program::{ProgramBuilder, SlotResolver};

    fn sample_program() -> SystemProgram {
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|n: &str| (n == "x").then_some(0));
        let v = pb
            .add_expr(
                &parse_expr("sin(var(x)) * 2 + cos(time)").unwrap(),
                &resolve,
            )
            .unwrap();
        pb.finish(&[v], 0)
    }

    #[test]
    fn emission_is_deterministic_and_covers_all_segments() {
        let prog = sample_program();
        let a = emit(&prog);
        let b = emit(&prog);
        assert_eq!(a.source, b.source);
        for name in [
            "ark_pp",
            "ark_tp",
            "ark_body",
            "ark_pp4",
            "ark_body4",
            "ark_pp8",
            "ark_body8",
        ] {
            assert!(
                a.source.contains(&format!("fn {name}(")),
                "missing segment {name}"
            );
        }
        assert!(a.min_slots >= 1, "program loads slot 0");
        assert!(a.min_regs >= prog.body_len());
    }

    #[test]
    fn identical_streams_share_a_hash_and_different_streams_do_not() {
        let a = emit(&sample_program());
        let b = emit(&sample_program());
        assert_eq!(fnv1a(0, a.source.as_bytes()), fnv1a(0, b.source.as_bytes()));
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let v = pb
            .add_expr(&parse_expr("tanh(var(x))").unwrap(), &resolve)
            .unwrap();
        let other = emit(&pb.finish(&[v], 0));
        assert_ne!(
            fnv1a(0, a.source.as_bytes()),
            fnv1a(0, other.source.as_bytes())
        );
    }

    /// The emission shape rustc compiles fast: no iterator `for` loop
    /// anywhere (each costs a `&mut Range` borrow in MIR borrow-checking),
    /// and one store line per instruction in every segment, scalar and
    /// laned.
    #[test]
    fn emission_has_no_iterator_loops_and_one_store_per_instruction() {
        let prog = sample_program();
        let source = emit(&prog).source;
        assert!(
            !source.lines().any(|l| l.trim_start().starts_with("for ")),
            "iterator for loop in emitted source"
        );
        for (name, len) in [
            ("ark_pp", prog.pprologue.len()),
            ("ark_tp", prog.tprologue.len()),
            ("ark_body", prog.body_len()),
        ] {
            for lanes in [1].into_iter().chain(NATIVE_LANE_WIDTHS) {
                let seg = if lanes == 1 {
                    name.to_string()
                } else {
                    format!("{name}{lanes}")
                };
                assert_eq!(
                    crate::analysis::segment_store_count(&source, &seg),
                    Some(len),
                    "stores in {seg}"
                );
            }
        }
    }

    #[test]
    fn cache_key_covers_banner_flags_features_and_source() {
        let (banner, features, source) = ("rustc 1.0.0", "target_feature=\"sse2\"", "fn f() {}");
        let key = cache_key(banner, &RUSTC_FLAGS, features, source);
        assert_eq!(key, cache_key(banner, &RUSTC_FLAGS, features, source));
        let other_flags = RUSTC_FLAGS.map(|f| if f == "opt-level=3" { "opt-level=2" } else { f });
        for changed in [
            cache_key("rustc 1.0.1", &RUSTC_FLAGS, features, source),
            cache_key(banner, &other_flags, features, source),
            cache_key(banner, &RUSTC_FLAGS[1..], features, source),
            cache_key(banner, &RUSTC_FLAGS, "target_feature=\"avx2\"", source),
            cache_key(banner, &RUSTC_FLAGS, features, "fn g() {}"),
        ] {
            assert_ne!(key, changed);
        }
    }

    #[test]
    fn backend_env_parsing_defaults_to_interp() {
        // from_env is cached process-wide; just pin the parse rule through
        // the match arm it uses.
        let pick = |v: Option<&str>| match v {
            Some(v) if v.eq_ignore_ascii_case("native") => Backend::Native,
            _ => Backend::Interp,
        };
        assert_eq!(pick(Some("native")), Backend::Native);
        assert_eq!(pick(Some("NATIVE")), Backend::Native);
        assert_eq!(pick(Some("interp")), Backend::Interp);
        assert_eq!(pick(Some("")), Backend::Interp);
        assert_eq!(pick(None), Backend::Interp);
    }
}

//! One workload process of the Ark benchmark. `run.py` starts it (several
//! times per run, each a fresh process, because `Backend::from_env`,
//! `CodegenCache::shared` and `ARK_LANES` are read once per process) and
//! turns its reports into the benchmark's metrics.
//!
//! Usage: `ark-perfbench --workload <name> --seed <n> --seconds <s>
//! --workers <n> --mode <full|trace> [--first-row <k>]`
//!
//! * `full`  — set up, then complete rows for `--seconds` (at least one),
//!   starting at row `k` of the workload's cycle;
//! * `trace` — set up with spans, run one pass over every row untraced and
//!   one traced, re-drive a sample of instances through timing wrappers,
//!   and report the per-layer metrics.
//!
//! The last stdout line is one JSON object (see [`report`]).

mod design;
mod maxcut;
mod report;
mod trace;
mod yields;

use report::{Checks, Obj, J};
use std::time::Instant;

pub type DynError = Box<dyn std::error::Error + Send + Sync>;

/// How much of the workload a process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Full,
    Trace,
}

/// Command-line arguments shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub workers: usize,
    pub mode: Mode,
    /// The cycle row a `full` process starts at.
    pub first_row: usize,
    /// Process start: every `setup_s` / `first_row_s` is measured from it.
    pub start: Instant,
}

/// Every per-layer metric a traced run reports, with its unit, in
/// `BENCHMARK.json` order. A layer a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("core.parse.ms", "ms"),
    ("core.func.build_ms", "ms"),
    ("core.func.nodes", "count"),
    ("core.func.edges", "count"),
    ("core.validate.ms", "ms"),
    ("core.compile.ms", "ms"),
    ("core.compile.count", "count"),
    ("expr.program.instrs_per_rhs", "count"),
    ("expr.program.registers", "count"),
    ("expr.program.rhs_calls", "count"),
    ("expr.program.ns_per_rhs", "ns"),
    ("expr.program.rhs_share", "frac"),
    ("expr.deriv.ms", "ms"),
    ("expr.deriv.instrs", "count"),
    ("expr.deriv.nnz", "count"),
    ("expr.codegen.prepare_ms", "ms"),
    ("expr.codegen.source_lines", "count"),
    ("expr.codegen.compiled", "count"),
    ("expr.codegen.disk_hits", "count"),
    ("expr.codegen.memory_hits", "count"),
    ("expr.codegen.fallbacks", "count"),
    ("ode.solver.steps_accepted", "count"),
    ("ode.solver.steps_rejected", "count"),
    ("ode.solver.stepper_ns_per_step", "ns"),
    ("ode.implicit.newton_iters", "count"),
    ("ode.implicit.ns_per_step", "ns"),
    ("sim.run.prep_us", "us"),
    ("sim.run.readout_us", "us"),
    ("sim.run.worker_busy_frac", "frac"),
    ("sim.run.blocks", "count"),
    ("sim.resilience.completed", "count"),
    ("sim.resilience.recovered", "count"),
    ("sim.resilience.failed", "count"),
    ("sim.resilience.retry_attempts", "count"),
    ("spice.synth_ms", "ms"),
    ("spice.transient_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Build the `layers` object from the values a workload measured; every
/// name of [`PER_LAYER`] appears with its unit, unmeasured ones as 0.
pub fn layer_report(values: &[(&str, f64)]) -> J {
    for (k, _) in values {
        assert!(
            PER_LAYER.iter().any(|(name, _)| name == k),
            "unlisted per-layer metric {k}"
        );
    }
    let mut o = Obj::new();
    for (name, unit) in PER_LAYER {
        let value = values
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |&(_, v)| v);
        o.set(name, Obj::new().with("value", value).with("unit", unit));
    }
    o.into()
}

/// One completed output row of a workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Which row of the workload's cycle this is (goldens are keyed by it).
    pub key: String,
    pub items: u64,
    pub failed: u64,
    pub secs: f64,
    pub out: Obj,
}

impl Row {
    pub fn to_json(&self) -> J {
        Obj::new()
            .with("key", self.key.as_str())
            .with("items", self.items)
            .with("failed", self.failed)
            .with("secs", self.secs)
            .with("out", self.out.clone())
            .into()
    }
}

/// Throughput over a run's rows: the rate of its fastest row. Other
/// tenants of a shared host only ever slow a row down, and they come and
/// go over seconds, so the best row follows the code rather than the
/// neighbours.
pub fn items_per_s(rows: &[Row]) -> f64 {
    rows.iter()
        .map(|r| r.items as f64 / r.secs)
        .fold(0.0, f64::max)
}

/// Run output rows of a workload whose cycle has `cycle` distinct rows:
/// exactly one pass in `trace` mode, and in `full` mode rows in cycle
/// order from `--first-row` until `--seconds` have passed (at least one).
/// Returns the rows and the time the first one completed, measured from
/// process start.
pub fn run_rows(
    args: &Args,
    cycle: usize,
    mut row: impl FnMut(usize) -> Result<Row, DynError>,
) -> Result<(Vec<Row>, f64), DynError> {
    let start = Instant::now();
    let first = if args.mode == Mode::Trace {
        0
    } else {
        args.first_row
    };
    let mut rows = Vec::new();
    let mut first_row_s = 0.0;
    for k in 0.. {
        let done = match args.mode {
            Mode::Trace => k == cycle,
            Mode::Full => k > 0 && start.elapsed().as_secs_f64() >= args.seconds,
        };
        if done {
            break;
        }
        rows.push(row((first + k) % cycle)?);
        if k == 0 {
            first_row_s = args.start.elapsed().as_secs_f64();
        }
    }
    Ok((rows, first_row_s))
}

/// The common report skeleton: identity, rows, throughput and failures.
pub fn base_report(
    args: &Args,
    setup_s: f64,
    first_row_s: f64,
    rows: &[Row],
    items_per_s: f64,
) -> Obj {
    let attempted: u64 = rows.iter().map(|r| r.items).sum();
    let failed: u64 = rows.iter().map(|r| r.failed).sum();
    Obj::new()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("workers", args.workers)
        .with("setup_s", setup_s)
        .with("first_row_s", first_row_s)
        .with("items_per_s", items_per_s)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("rows", J::Arr(rows.iter().map(Row::to_json).collect()))
}

fn parse_args() -> Result<Args, String> {
    let start = Instant::now();
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut workers, mut mode) =
        (None, None, None, None, None);
    let mut first_row = 0;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--workers" => workers = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            "--first-row" => first_row = value.parse::<usize>().map_err(|e| bad(&e))?,
            "--mode" => {
                mode = Some(match value.as_str() {
                    "full" => Mode::Full,
                    "trace" => Mode::Trace,
                    _ => return Err(bad(&"expected full or trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workers = workers.ok_or("--workers is required")?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        workers,
        mode: mode.ok_or("--mode is required")?,
        first_row,
        start,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ark-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let result = match args.workload.as_str() {
        "yield_interp" => yields::run(&args, ark_core::Backend::Interp, &mut checks),
        "yield_native" => yields::run(&args, ark_core::Backend::Native, &mut checks),
        "maxcut_table1" => maxcut::run(&args, &mut checks),
        "design_sweep" => design::run(&args, &mut checks),
        other => Err(format!("unknown workload {other}").into()),
    };
    match result {
        Ok(mut report) => {
            report.set("checks", checks.to_json());
            report.set("peak_rss_mb", report::peak_rss_mb());
            println!("{}", J::from(report));
        }
        Err(e) => {
            eprintln!("ark-perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

//! Bench-regression gate: compare a fresh `BENCH_rhs.json` against the
//! committed baseline and fail if any gated deterministic metric grew more
//! than the allowed percentage.
//!
//! Gated metrics are *deterministic* outputs (unlike ns timings, which
//! depend on the host), so this check is flake-free and can run on every
//! push:
//!
//! * `workloads/*/fused_instructions_per_rhs` — interpreted
//!   instruction counts; catches optimizer regressions (lost CSE, broken
//!   fusion, prologue hoisting failures) the moment they land;
//! * `streaming_ensemble/*/accumulator_bytes` — the streaming reduction
//!   path's fixed per-worker state; catches the O(accumulators) memory
//!   contract quietly growing (e.g. an accumulator gaining a per-instance
//!   buffer);
//! * `stiff_vdp/*/{jacobian_instructions,trbdf2_*}` — the forward-mode
//!   Jacobian program's size and the implicit solver's step/Newton/RHS
//!   counts on the stiff Van der Pol benchmark; catches AD lowering bloat
//!   and step-controller regressions;
//! * `fault_recovery/*/{completed,recovered,failed,retry_attempts}` —
//!   per-instance outcome counts on the seeded-fault ensembles; catches
//!   the recovery chain losing instances it used to rescue, or the
//!   primary solver starting to fail on instances it used to complete;
//! * `workloads/*/native_instructions_per_rhs` — the native-codegen
//!   backend must lower exactly the fused instruction stream (growth gate
//!   *and* a per-entry equality check against
//!   `fused_instructions_per_rhs`);
//! * `workloads/cnn_fig11/native_speedup_x1000` — a **floor** gate (≥
//!   1000, i.e. native no slower than the interpreter); a drop below the
//!   floor means codegen silently fell back or regressed to parity.
//!
//! ```text
//! bench_check <baseline.json> <candidate.json> [max-growth-pct]
//! ```
//!
//! Default allowance is 5%. Exit code 1 on regression or malformed input.
//! Every ok/FAIL/skipped line is also written to `bench_check_report.txt`
//! next to the candidate report, so CI can upload the verdict as an
//! artifact; baseline sections or keys that could not be gated are listed
//! explicitly instead of being skipped silently.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Gated `(section, field)` pairs (all deterministic machine-independent
/// counts).
const CHECKED_KEYS: [(&str, &str); 13] = [
    ("workloads", "fused_instructions_per_rhs"),
    // Native codegen lowers the same fused stream: the count may never
    // drift from the interpreter's (also pinned by PARITY_KEYS below).
    ("workloads", "native_instructions_per_rhs"),
    ("streaming_ensemble", "accumulator_bytes"),
    // Stiff solver path: the derived Jacobian program's size and the
    // TR-BDF2 work counts on the Van der Pol μ=1000 benchmark. All four
    // are bit-deterministic (scalar float arithmetic, fixed controller),
    // so any AD lowering or step-controller regression trips the gate.
    ("stiff_vdp", "jacobian_instructions"),
    ("stiff_vdp", "trbdf2_accepted_steps"),
    ("stiff_vdp", "trbdf2_newton_iters"),
    ("stiff_vdp", "trbdf2_rhs_evals"),
    // Fault-tolerance path: outcome counts on the seeded-fault ensembles
    // (fixed seeds, fixed plans, fixed scale — deterministic for any
    // worker count and lane width). `failed` growing means faults the
    // recovery chain used to absorb now abort; `recovered` or
    // `retry_attempts` growing means the primary solver started failing
    // on instances it used to handle first-try.
    ("fault_recovery", "completed"),
    ("fault_recovery", "recovered"),
    ("fault_recovery", "failed"),
    ("fault_recovery", "retry_attempts"),
    // Static-analysis invariants: every emitted program (RHS, observables,
    // Jacobian) must verify with zero structural errors and zero dead
    // instructions. Both baselines are 0, so the growth gate means "must
    // stay 0" — any liveness or verifier regression trips it.
    ("analysis", "dead_instrs"),
    ("analysis", "verifier_errors"),
];

/// Per-entry equality constraints on the **candidate**: `(section, key,
/// must_equal_key)`. A mismatch is reported as a named-key diff.
const PARITY_KEYS: [(&str, &str, &str); 1] = [(
    "workloads",
    "native_instructions_per_rhs",
    "fused_instructions_per_rhs",
)];

/// Floor gates on the **candidate**: `(section, entry, key, floor)` — the
/// value must be present and at least `floor`. Missing is a FAIL (a silent
/// interpreter fallback would otherwise sail through).
const FLOOR_KEYS: [(&str, &str, &str, u64); 1] =
    [("workloads", "cnn_fig11", "native_speedup_x1000", 1000)];

/// One parsed report: section → entry name → (field → integer value).
type Sections = BTreeMap<String, BTreeMap<String, BTreeMap<String, u64>>>;

/// Quoted key opening an object on this line (`"name": {`), if any.
fn object_open(trimmed: &str) -> Option<&str> {
    trimmed
        .strip_suffix('{')
        .and_then(|s| s.trim().strip_suffix(':'))
        .and_then(|s| s.trim().strip_prefix('"'))
        .and_then(|s| s.strip_suffix('"'))
}

/// Parse every two-level section of a `BENCH_rhs.json` (`"section": {
/// "entry": { fields } }`). A tiny line scanner over our own generated
/// format, not a general JSON parser; integer fields only, everything else
/// is ignored.
fn parse_sections(text: &str) -> Sections {
    let mut out = Sections::new();
    let mut section: Option<String> = None;
    let mut entry: Option<String> = None;
    for line in text.lines() {
        let trimmed = line.trim();
        if let Some(name) = object_open(trimmed) {
            match (&section, &entry) {
                (None, _) => {
                    out.entry(name.to_string()).or_default();
                    section = Some(name.to_string());
                }
                (Some(s), None) => {
                    out.get_mut(s)
                        .expect("section inserted on open")
                        .entry(name.to_string())
                        .or_default();
                    entry = Some(name.to_string());
                }
                (Some(_), Some(_)) => {}
            }
            continue;
        }
        if trimmed.starts_with('}') {
            if entry.take().is_none() {
                section = None;
            }
            continue;
        }
        if let (Some(s), Some(e), Some((key, value))) = (&section, &entry, trimmed.split_once(':'))
        {
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim().trim_end_matches(',');
            if let Ok(v) = value.parse::<u64>() {
                out.get_mut(s)
                    .expect("section inserted on open")
                    .get_mut(e)
                    .expect("entry inserted on open")
                    .insert(key, v);
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(baseline_path), Some(candidate_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: bench_check <baseline.json> <candidate.json> [max-growth-pct]");
        return ExitCode::FAILURE;
    };
    let max_growth_pct: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5.0);
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) => {
            eprintln!("bench_check: cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(candidate)) = (read(baseline_path), read(candidate_path)) else {
        return ExitCode::FAILURE;
    };
    let base = parse_sections(&baseline);
    let cand = parse_sections(&candidate);
    if !base.get("workloads").is_some_and(|w| !w.is_empty()) {
        eprintln!("bench_check: no workloads found in baseline {baseline_path}");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    let mut checked = 0usize;
    // Everything the gate prints also lands in this transcript, written
    // next to the candidate so CI can upload it as an artifact.
    let mut report: Vec<String> = Vec::new();
    // Baseline material the growth gate could NOT compare — reported
    // explicitly instead of silently skipped.
    let mut skipped: Vec<String> = Vec::new();
    let fail = |report: &mut Vec<String>, failures: &mut usize, line: String| {
        eprintln!("{line}");
        report.push(line);
        *failures += 1;
    };
    let ok = |report: &mut Vec<String>, line: String| {
        println!("{line}");
        report.push(line);
    };
    for (section, key) in CHECKED_KEYS {
        let Some(base_entries) = base.get(section) else {
            skipped.push(format!("{section}/*/{key}: section absent from baseline"));
            continue;
        };
        let empty = BTreeMap::new();
        let cand_entries = cand.get(section).unwrap_or(&empty);
        for (name, base_fields) in base_entries {
            let Some(&b) = base_fields.get(key) else {
                skipped.push(format!("{section}/{name}/{key}: key absent from baseline"));
                continue;
            };
            let Some(&c) = cand_entries.get(name).and_then(|f| f.get(key)) else {
                fail(
                    &mut report,
                    &mut failures,
                    format!("FAIL {section}/{name}/{key}: missing from candidate report"),
                );
                continue;
            };
            checked += 1;
            let allowed = (b as f64 * (1.0 + max_growth_pct / 100.0)).floor() as u64;
            let growth = 100.0 * (c as f64 - b as f64) / (b as f64).max(1.0);
            if c > allowed {
                fail(
                    &mut report,
                    &mut failures,
                    format!(
                        "FAIL {section}/{name}/{key}: {b} -> {c} \
                         ({growth:+.1}%, allowed +{max_growth_pct}%)"
                    ),
                );
            } else {
                ok(
                    &mut report,
                    format!("ok   {section}/{name}/{key}: {b} -> {c} ({growth:+.1}%)"),
                );
            }
        }
    }
    // Equality constraints within the candidate (named-key diff on
    // mismatch): every entry that carries the left key must carry the
    // right key with the identical value.
    for (section, key, must_equal) in PARITY_KEYS {
        for (name, fields) in cand.get(section).into_iter().flatten() {
            let Some(&a) = fields.get(key) else { continue };
            match fields.get(must_equal) {
                Some(&b) if a == b => {
                    checked += 1;
                    ok(
                        &mut report,
                        format!("ok   {section}/{name}: {key} == {must_equal} ({a})"),
                    );
                }
                Some(&b) => fail(
                    &mut report,
                    &mut failures,
                    format!("FAIL {section}/{name}: {key} = {a} != {must_equal} = {b}"),
                ),
                None => fail(
                    &mut report,
                    &mut failures,
                    format!("FAIL {section}/{name}: {key} present but {must_equal} missing"),
                ),
            }
        }
    }
    // Floor gates on the candidate. Missing is a FAIL: the one way a
    // silent interpreter fallback could otherwise pass the perf gate.
    for (section, entry, key, floor) in FLOOR_KEYS {
        match cand
            .get(section)
            .and_then(|s| s.get(entry))
            .and_then(|f| f.get(key))
        {
            Some(&v) if v >= floor => {
                checked += 1;
                ok(
                    &mut report,
                    format!("ok   {section}/{entry}/{key}: {v} >= floor {floor}"),
                );
            }
            Some(&v) => fail(
                &mut report,
                &mut failures,
                format!("FAIL {section}/{entry}/{key}: {v} below floor {floor}"),
            ),
            None => fail(
                &mut report,
                &mut failures,
                format!("FAIL {section}/{entry}/{key}: missing from candidate report"),
            ),
        }
    }
    for line in &skipped {
        eprintln!("skip {line}");
        report.push(format!("skip {line}"));
    }
    let verdict = if checked == 0 {
        "bench_check: no comparable gated metrics found".to_string()
    } else if failures > 0 {
        format!("bench_check: {failures} regression(s) beyond +{max_growth_pct}%")
    } else {
        format!("bench_check: {checked} gated metrics within +{max_growth_pct}% of baseline")
    };
    report.push(verdict.clone());
    let report_path = std::path::Path::new(candidate_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(
            || "bench_check_report.txt".into(),
            |p| p.join("bench_check_report.txt"),
        );
    if let Err(e) = std::fs::write(&report_path, report.join("\n") + "\n") {
        eprintln!("bench_check: cannot write {}: {e}", report_path.display());
    } else {
        println!("bench_check: report written to {}", report_path.display());
    }
    if checked == 0 || failures > 0 {
        eprintln!("{verdict}");
        return ExitCode::FAILURE;
    }
    println!("{verdict}");
    ExitCode::SUCCESS
}

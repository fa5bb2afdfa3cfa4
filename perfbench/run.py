#!/usr/bin/env python3
"""End-to-end benchmark of the Ark workspace.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen):

  yield_interp   Fig. 11 sigma-sweep on the interpreter (laned, streamed)
  yield_native   the same sweep and seeds under Backend::Native, cold cache
  maxcut_table1  Table 1: maxcut::solve per trial, ideal and offset OBC
  design_sweep   parse -> build -> validate -> compile -> simulate per design

The harness builds `ark-perfbench` (this directory's Cargo package) and
runs each workload in fresh processes with every ARK_* variable set
explicitly, because the backend, the codegen cache directory and the lane
width are read once per process. With `--trace 0` it runs the workload in
several processes one after another, each set up from cold and measuring
its share of `--seconds`, each starting at a different row of the
workload's cycle, and reports the end-to-end metrics:

  setup_s      time from process start until the first instance integrates
               (build, validate, compile; on yield_native also the forced
               native kernel build), best of the run's processes
  first_row_s  time from process start until the first output row (a sigma
               row, a Table 1 table, a design) is complete, best of the
               run's processes
  items_per_s  instances, max-cut solves or designs per second after setup,
               at the run's fastest row (design_sweep: fastest whole pass)
  peak_rss_mb  VmHWM, largest over the run's processes

Timings take the best sample of a run because other tenants of a shared
host only ever slow a sample down, in episodes lasting seconds: the best
sample follows the code, the median follows the neighbours. Spreading the
samples over the run's processes keeps one slow episode from covering all
of them.

Failed items are reported in the result's `attempted` / `failed` fields.
With `--trace 1` one process runs a pass untraced, a pass with spans around
every public call, and re-drives a sample of instances through timing
wrappers; it reports the per-layer metrics of BENCHMARK.json.

Every run checks its outputs: at the default seed against the goldens in
golden.json (per-sigma yield, Table 1 counts, per-design final-state
checksums, and the deterministic counters), at any seed against the
cross-checks the workload process makes (native equals the interpreter bit
for bit, Table 1 shape REPRODUCED, Robertson against Hairer & Wanner,
SPICE RMSE under 1%), and across processes (a row repeated anywhere in the
run must reproduce exactly). A failed check prints `"correct": false` and
exits 1.

`--bless` rewrites golden.json from traced runs at the default seed.
"""

import argparse
import json
import os
import shutil
import statistics
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
LANES = "4"
# Seconds a run may take after the build, with margin under the 180 s limit.
RUN_BUDGET = 170.0

# backend, processes per run, rows in the workload's cycle, golden group
WORKLOADS = {
    # A row per process: a run times the whole sweep once.
    "yield_interp": ("interp", 6, 6, "yield"),
    # Each yield_native process pays ~11 s of rustc for its cold kernels.
    "yield_native": ("native", 2, 6, "yield"),
    "maxcut_table1": ("interp", 5, 4, "maxcut_table1"),
    "design_sweep": ("interp", 5, 1, "design_sweep"),
}
END_TO_END = {
    "setup_s": "s",
    "first_row_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_command(cmd, timeout, what, **popen_args):
    """Run `cmd` in a session of its own and return its stdout. On a
    timeout, an error or a signal the whole session is killed, so no
    grandchild (cargo's rustc, a native process's kernel rustc) outlives
    the run."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, **popen_args)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} exceeded the run's time budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}")
    return stdout


def build():
    """Build the benchmark binary and return its path."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    stdout = run_command(cmd, 880, "build")
    exe = None
    for line in stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg["target"]["name"] == "ark-perfbench":
            exe = msg.get("executable") or exe
    if not exe:
        raise BenchError("cargo reported no ark-perfbench executable")
    return exe


def host_info():
    rustc = subprocess.run(["rustc", "-vV"], stdout=subprocess.PIPE, text=True).stdout
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc.strip().splitlines(),
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
    }


def codegen_files(path):
    return sorted(p.name for p in path.iterdir()) if path.exists() else []


def run_process(exe, args, mode, seconds, first_row, workers, work, index, deadline):
    """Run one workload process in a hermetic environment and return its
    report. Each process gets its own empty codegen directory."""
    backend = WORKLOADS[args.workload][0]
    codegen = work / f"codegen-{index}"
    tmp = work / f"tmp-{index}"
    tmp.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARK_")}
    env.update(
        ARK_BACKEND=backend,
        ARK_LANES=LANES,
        ARK_CODEGEN_DIR=str(codegen),
        ARK_RUSTC="rustc",
        ARK_REQUIRE_NATIVE="1" if backend == "native" else "0",
        TMPDIR=str(tmp),
    )
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--workers", str(workers), "--mode", mode,
        "--first-row", str(first_row),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    lines = run_command(cmd, remaining, f"{mode} process", env=env).strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no report")
    report = json.loads(lines[-1])
    files = codegen_files(codegen)
    if backend == "interp" and files:
        report["checks"].append({"name": "interpreter run left its codegen directory empty",
                                 "ok": False, "detail": ", ".join(files)})
    shutil.rmtree(codegen, ignore_errors=True)
    shutil.rmtree(tmp, ignore_errors=True)
    return report


def compare_goldens(reports, golden, group, workload):
    """Failures of rows and counters against the committed goldens."""
    bad = []
    rows = golden.get(group, {}).get("rows", {})
    counters = golden.get(group, {}).get("counters", {}).get(workload, {})
    for rep in reports:
        for row in rep["rows"]:
            want = rows.get(row["key"])
            if want is None:
                bad.append(f"no golden for row {row['key']}")
            elif want != row["out"]:
                bad.append(f"row {row['key']} differs from its golden: {row['out']} != {want}")
        for k, v in rep.get("counters", {}).items():
            if k in counters and counters[k] != v:
                bad.append(f"counter {k} = {v}, golden {counters[k]}")
    return bad


def compare_repeats(reports):
    """Failures where a row or counter repeated in the run did not
    reproduce exactly."""
    bad = []
    seen = {}
    counters = {}
    for rep in reports:
        for row in rep["rows"]:
            first = seen.setdefault(row["key"], row["out"])
            if first != row["out"]:
                bad.append(f"row {row['key']} did not repeat exactly")
        for k, v in rep.get("counters", {}).items():
            if counters.setdefault(k, v) != v:
                bad.append(f"counter {k} differs between processes: {counters[k]} != {v}")
    return bad


def yield_shape(reports):
    """Failures of the sigma sweep's shape, which holds at any seed: yield
    does not rise with sigma, and the smallest sigma passes 90% of chips."""
    passes = {}
    for rep in reports:
        for row in rep["rows"]:
            passes[row["out"]["sigma"]] = (row["out"]["pass"], row["out"]["instances"])
    by_sigma = [passes[s] for s in sorted(passes)]
    falls = all(a[0] >= b[0] for a, b in zip(by_sigma, by_sigma[1:]))
    smallest = min(passes, default=None)
    high = smallest != 0.02 or passes[smallest][0] * 10 >= passes[smallest][1] * 9
    if falls and high:
        return []
    return [f"yield does not fall with sigma from >= 90%: {sorted(passes.items())}"]


def run_benchmark(args, exe, work):
    workers = len(os.sched_getaffinity(0))
    deadline = time.monotonic() + RUN_BUDGET
    _, processes, cycle, group = WORKLOADS[args.workload]
    if args.trace:
        reports = [run_process(exe, args, "trace", args.seconds, 0, workers, work, 0, deadline)]
    else:
        reports = [run_process(exe, args, "full", args.seconds / processes,
                               i * cycle // processes, workers, work, i, deadline)
                   for i in range(processes)]

    failures = [f"{c['name']}: {c['detail']}" for r in reports for c in r["checks"]
                if not c["ok"]]
    failures += compare_repeats(reports)
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        failures += compare_goldens(reports, golden, group, args.workload)
    elif group == "yield":
        failures += yield_shape(reports)

    if args.trace:
        metrics = reports[0]["layers"]
    else:
        values = {
            "setup_s": min(r["setup_s"] for r in reports),
            "first_row_s": min(r["first_row_s"] for r in reports),
            "items_per_s": max(r["items_per_s"] for r in reports),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    detail = {
        "setup_s": [r["setup_s"] for r in reports],
        "first_row_s": [r["first_row_s"] for r in reports],
        "items_per_s": [r["items_per_s"] for r in reports],
        "rows": [[row["key"] for row in r["rows"]] for r in reports],
    }
    return reports, failures, metrics, detail


def bless(exe, work):
    """Record goldens from traced runs at the default seed."""
    golden = {}
    for workload, (_, _, _, group) in WORKLOADS.items():
        args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED)
        rep = run_process(exe, args, "trace", 1.0, 0, len(os.sched_getaffinity(0)), work,
                          workload, time.monotonic() + 600)
        bad = [c for c in rep["checks"] if not c["ok"]]
        if bad:
            raise BenchError(f"{workload}: checks failed, not blessing: {bad}")
        entry = golden.setdefault(group, {"rows": {}, "counters": {}})
        for row in rep["rows"]:
            if entry["rows"].setdefault(row["key"], row["out"]) != row["out"]:
                raise BenchError(f"{workload}: row {row['key']} differs between workloads")
        entry["counters"][workload] = rep["counters"]
        log(f"blessed {workload}: {len(rep['rows'])} rows")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def stop(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bless", action="store_true")
    args = ap.parse_args()
    if not args.bless and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    work = ROOT / ".bench_work" / f"{args.workload or 'bless'}-{os.getpid()}"
    try:
        exe = build()
        work.mkdir(parents=True)
        if args.bless:
            bless(exe, work)
            return 0
        print("# host " + json.dumps(host_info()), flush=True)
        reports, failures, metrics, detail = run_benchmark(args, exe, work)
    except (BenchError, json.JSONDecodeError, OSError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print("# detail " + json.dumps(detail))
    print("# loadavg after " + " ".join(Path("/proc/loadavg").read_text().split()[:3]))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    # Failures are usually zero, which the metric contract does not allow
    # for an end-to-end metric: they travel in `failed` / `attempted`.
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(f"# failed_frac = {failed / attempted:.6g} frac ({failed} of {attempted} items)")
    for f in failures:
        log(f"CHECK FAILED: {f}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""fragstop benchmark: closed-loop job lists, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload solve-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  One
client issues the workload's jobs in-process, one at a time, and repeats
the job list (a "pass", with fresh job seeds each time) until --seconds
have elapsed.  Every output is checked.

--trace 0 prints the end-to-end metrics, measured untraced: setup_s,
wall_s, work_per_s and peak_rss_mb.  --trace 1 alternates untraced and
traced passes over the same job lists and prints the per-layer metrics.
The last stdout line is the result object; the line before it holds the
machine, the inputs and the details behind the metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 5
SETUP_TIMEOUT_S = 60.0
JOB_KINDS = ("solve", "sweep", "simulate", "verify")


def import_program() -> None:
    """Import fragstop from this checkout's sources, never from elsewhere."""
    package = SRC / "fragstop"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no fragstop sources at {package}")
    sys.path.insert(0, str(SRC))
    import fragstop

    if Path(fragstop.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported fragstop from {fragstop.__file__}, not {package}")


# --- running jobs ---------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float = 0.0
    draws: int = 0            # lifetime-integral draws requested
    blocks: int = 0           # frozen blocks (CSV rows) produced by simulate jobs
    simulate_s: float = 0.0   # time spent in simulate jobs
    csv_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    digests: list = field(default_factory=list)   # hash of every job's output text
    problems: list = field(default_factory=list)


def _exit_class_errors():
    """Exceptions the CLI maps to exit codes 2, 3 and 5."""
    from fragstop.fragsim import BlockCapError
    from fragstop.harness import ConfigError
    from fragstop.levy import AssumptionError, DomainError, InvalidModelError

    return (ConfigError, InvalidModelError, AssumptionError, DomainError, BlockCapError)


def execute(job):
    """Run one job as the CLI would; returns (cfg, output, text, draws)."""
    from fragstop import harness

    cfg = harness.parse_config_text(job.config)
    if job.kind == "solve":
        output = harness.cmd_solve(cfg)
        return cfg, output, harness.dumps_json(output), cfg.samples
    if job.kind == "verify":
        output = harness.cmd_verify(cfg)
        return cfg, output, harness.dumps_json(output[0]), cfg.samples
    if job.kind == "sweep":
        csv_text, summary = harness.cmd_sweep(cfg, job.axis, list(job.grid))
        draws = cfg.samples * (1 if job.axis == "c" else len(job.grid))
    else:
        csv_text, summary = harness.cmd_simulate(cfg, job.line)
        draws = 0
    return cfg, (csv_text, summary), csv_text + harness.dumps_json(summary), draws


def run_pass(jobs, samples: list, errors, tracer=None) -> PassResult:
    """Issue `jobs` one after another, checking each output; time the whole."""
    res = PassResult()
    t_pass = time.perf_counter()
    for j, job in enumerate(jobs):
        samples.clear()
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                cfg, output, text, draws = execute(job)
            else:
                # Installed per job, so the output checks run untraced.
                with tracer.installed(), tracer.job_span(f"bench.{job.kind}", j):
                    cfg, output, text, draws = execute(job)
        except errors as exc:
            res.failed += 1
            res.problems.append(f"job {j} ({job.kind}): {type(exc).__name__}: {exc}")
            res.digests.append(None)
            continue
        elapsed = time.perf_counter() - t0
        res.digests.append(hashlib.blake2b(text.encode()).digest())
        res.draws += draws
        if job.kind in ("sweep", "simulate"):
            res.csv_bytes += len(output[0])
        if job.kind == "simulate":
            res.blocks += output[0].count("\n") - 2
            res.simulate_s += elapsed
        bad = checks.check_job(job, cfg, output, samples)
        if bad:
            res.failed += 1
            res.problems += [f"job {j} ({job.kind}): {msg}" for msg in bad]
    samples.clear()
    res.wall_s = time.perf_counter() - t_pass
    return res


def determinism_probe(seed: int, samples: list, errors) -> PassResult:
    """Small solve and simulate jobs rerun at workers 1, 1, 2: outputs must match."""
    jobs = workloads.probe_jobs(seed)
    res = run_pass(jobs, samples, errors)
    first = {}
    for j, (job, digest) in enumerate(zip(jobs, res.digests)):
        if digest is None:
            continue
        if digest != first.setdefault(job.kind, digest):
            res.failed += 1
            res.problems.append(f"probe job {j} ({job.kind}): output differs from the first run")
    return res


def measure_setup(configs: list) -> list:
    """Fresh-interpreter set-up times (import, parse, kappa root), SETUP_REPS of them."""
    payload = json.dumps(configs)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_child.py")],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
            try:
                proc.stdin.write(payload)
                proc.stdin.close()
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up child failed (exit {code})")
        times.append(elapsed)
    return times


# --- per-layer metrics ------------------------------------------------------------------

# (span name, fields) reported from the traced passes; see README.md for the
# end-to-end metric and workload each one should move.
SPAN_METRICS = (
    ("pathsim.simulate_I_infty", ("calls", "self_s")),
    ("levy.kappa_root", ("calls",)),
    ("levy.make_params", ("s",)),
    ("expfun.draw_shared_sample", ("s",)),
    ("expfun.f_of_b", ("calls", "s")),
    ("stopsolve.solve_b_star", ("s",)),
    ("stopsolve.value_tilde", ("calls", "s")),
    ("stopsolve.generator_residual", ("s",)),
    ("stopsolve.martingale_check", ("s",)),
    ("stopsolve.supermartingale_check", ("s",)),
    ("stopsolve.first_passage_laplace_check", ("s",)),
    ("stopsolve.threshold_payoff_sweep", ("s",)),
    ("pathsim.simulate_Z_first_passage", ("calls", "self_s")),
    ("pathsim.simulate_Z_at_times", ("calls", "self_s")),
    ("pathsim.first_passage_payoff_sums", ("calls", "self_s")),
    ("pathsim.simulate_tagged_mass_passage", ("calls", "self_s")),
    ("fragsim.run_stopping_line", ("calls", "self_s")),
    ("fragsim.ensemble_payoffs", ("s",)),
    ("fragsim.evolve_to_time", ("s",)),
    ("harness.format_csv", ("s",)),
    ("harness.dumps_json", ("s",)),
    ("streams.substream", ("calls",)),
    ("streams.run_key", ("calls",)),
)
LEAF_METRICS = ("levy.sample_jump", "levy.phi")
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, n_passes: int, csv_bytes: float, overhead_s: float) -> dict:
    """Per-layer metrics, counts and times per pass of the job list."""
    spans, leaves = summary["spans"], summary["leaves"]
    out = {}
    for name, fields in SPAN_METRICS:
        for f in fields:
            out[f"{name}.{f}"] = (spans[name][f] / n_passes, UNITS[f])
    for name in LEAF_METRICS:
        out[f"{name}.calls"] = (leaves[name]["calls"] / n_passes, "count")
    draws = spans["pathsim.simulate_I_infty"]["calls"]
    jumps = leaves["levy.sample_jump"]["by_caller"].get("pathsim.simulate_I_infty", 0)
    out["pathsim.jumps_per_draw"] = (_ratio(jumps, draws), "ratio")
    out["stopsolve.f_evals_per_solve"] = (
        _ratio(spans["expfun.f_of_b"]["calls"], spans["stopsolve.solve_b_star"]["calls"]), "ratio")
    out["fragsim.blocks_per_run"] = (
        _ratio(leaves["fragsim._block_stream"]["calls"],
               spans["fragsim.run_stopping_line"]["calls"]), "ratio")
    out["harness.csv_bytes"] = (csv_bytes, "bytes")
    for layer, self_s in summary["layer_self_s"].items():
        if layer != "bench":
            out[f"{layer}.self_s"] = (self_s / n_passes, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


# --- main ---------------------------------------------------------------------------------


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    errors = _exit_class_errors()
    samples: list = []
    traced = args.trace == 1

    with checks.capture_samples(samples):
        context = wl.prepare(args.seed)
        first_jobs = wl.jobs(args.seed, 0, context)
        setup_times = [] if traced else measure_setup([job.config for job in first_jobs])
        probe = determinism_probe(args.seed, samples, errors)

        tracer = Tracer([f"bench.{kind}" for kind in JOB_KINDS]) if traced else None
        untraced, traced_passes = [], []
        deadline = time.perf_counter() + args.seconds
        k = 0
        while True:
            jobs = first_jobs if k == 0 else wl.jobs(args.seed, k, context)
            untraced.append(run_pass(jobs, samples, errors))
            if traced:
                traced_passes.append(run_pass(jobs, samples, errors, tracer))
                for j, (a, b) in enumerate(zip(untraced[-1].digests, traced_passes[-1].digests)):
                    if a != b:
                        traced_passes[-1].failed += 1
                        traced_passes[-1].problems.append(
                            f"job {j}: traced output differs from untraced output")
            k += 1
            last = untraced[-1].wall_s + (traced_passes[-1].wall_s if traced else 0.0)
            if time.perf_counter() + 0.5 * last >= deadline:
                break

    every = [probe, *untraced, *traced_passes]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    problems = [p for r in every for p in r.problems]
    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)

    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(),
        "client": "closed loop, 1 client, jobs in-process one at a time",
        "job_seeds": "blake2b of (workload seed, workload, pass, job index); see workloads.py",
        "jobs_pass_0": [job.describe() for job in first_jobs],
        "passes": len(untraced),
        "pass_wall_s": [r.wall_s for r in untraced],
        "work_per_s_counts": ("frozen blocks per second of simulate jobs" if wl.counts_blocks
                              else "lifetime-integral draws per second"),
        "fail_rate": failed / attempted,
        "failures": problems[:20],
    }
    if traced:
        summary = tracer.summary()
        n = len(traced_passes)
        overhead = (statistics.median(r.wall_s for r in traced_passes)
                    - statistics.median(r.wall_s for r in untraced))
        csv_bytes = sum(r.csv_bytes for r in traced_passes) / n
        metrics = layer_metrics(summary, n, csv_bytes, overhead)
        info["traced_pass_wall_s"] = [r.wall_s for r in traced_passes]
        info["spans_recorded"] = len(tracer.start)
        info["self_s_by_function"] = [
            [name, row["self_s"] / n]
            for name, row in sorted(summary["spans"].items(), key=lambda kv: -kv[1]["self_s"])
            if row["calls"]
        ]
    else:
        if wl.counts_blocks:
            work = statistics.median(r.blocks / r.simulate_s for r in untraced)
        else:
            work = statistics.median(r.draws / r.wall_s for r in untraced)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(r.wall_s for r in untraced), "s"),
            "work_per_s": (work, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        info["setup_times_s"] = setup_times

    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    print(f"{'fail_rate':<42} {failed / attempted:>14.6g} ratio ({failed} of {attempted} jobs)")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every command on seeded configs drawn over each key's range and its edges.

    python3 tools/fuzz_inputs.py [--configs 500] [--seed 0] [--timeout 60]
                                 [--jobs 2] [--base SRC]

Config i is the i-th draw of one seeded generator, so a shorter run checks
a prefix of a longer one.  Each config sets the required keys and some of
the optional ones: a key takes one of its edge values (its range's ends,
values just inside them, and now and then one just outside) or a value
drawn inside its range.  `solve`, `verify`, `sweep` and `simulate` then
each run on it as `python -m fragstop.cli` in a subprocess, under
--timeout seconds.  A run is reported when

  - its stderr holds a traceback;
  - it exits outside {0, 2, 3, 4, 5};
  - an estimate is nan or inf: any number in its JSON output, or a
    `b_star` or `value_at_c` cell of a sweep's CSV;
  - its stderr holds anything but the one JSON error line of an exit
    2, 3 or 5 (warnings included);
  - it runs past the time limit;
  - with --base SRC, the same command run again with the package imported
    from SRC (say, the src directory of another checkout) differs in its
    exit code, stdout, stderr or --out bytes.

Each report line gives the config number, the command and what was seen;
the config text follows.  The last line counts runs per command and exit
code.  Exits 1 if anything was reported, else 0.  Run from the root of a
checkout; the program is imported from ./src.  Not part of the test
suite: 500 configs take about twenty minutes on 2 cores, twice that with
--base.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
OK_EXITS = {0, 2, 3, 4, 5}
OUT_OF_RANGE = 0.02  # chance that a key takes a value just outside its range


def log_uniform(lo: float, hi: float):
    return lambda rng: math.exp(rng.uniform(math.log(lo), math.log(hi)))


# key -> (edge values inside the range, values just outside it, a draw inside it)
KEYS = {
    "rate": ([1e-9, 0.1, 1.0, 1e3], [-1.0, "inf", "nan"], log_uniform(1e-2, 10.0)),
    "s0": ([0.5, 0.5 + 1e-12, 0.9, 1.0 - 1e-12], [1.0, 0.4999], lambda rng: rng.uniform(0.5, 1.0)),
    "shape": ([1e-3, 1.0, 1e3, 1e6], [0.0, 1.0000001e6], log_uniform(1e-2, 1e2)),
    "gamma": ([1e-6, 1e-3, 1e3, 1e6], [0.0, "inf"], log_uniform(5e-2, 20.0)),
    # A drawn theta is scaled by the rate: (A2) needs theta > phi'(0+), which
    # is at most rate * log 2.
    "theta": ([1e-3, 0.5, 1e2, 1e4], [0.0, "nan"], log_uniform(0.8, 20.0)),
    "q": ([0.0, 1e-12, 1e3, 1e5], [-1e-9, "inf"], log_uniform(1e-2, 10.0)),
    "c": ([1e-30, 1e-6, 1e6, 1e30], [0.0, "inf"], log_uniform(1e-2, 10.0)),
    "samples": ([1, 2, 19, 20, 4096, 4097], [0], lambda rng: rng.randint(20, 20_000)),
    "runs": ([1, 2, 3, 1024, 1025], [0], lambda rng: rng.randint(2, 2000)),
    "block_cap": ([1, 2, 100, 1_000_000], [0], lambda rng: rng.randint(1, 100_000)),
    "rel_tol": ([1e-12, 1e-3, 0.5, 1.0, 1e3], [0.0, "inf"], log_uniform(1e-9, 1e-2)),
    "bisect_rel_tol": ([1e-16, 1e-3, 1.0, 1e3], [0.0, "nan"], log_uniform(1e-12, 1e-2)),
    "seed": ([0, 1, 2**63, 2**64 - 1, 2**80], [-1], lambda rng: rng.randint(0, 2**32)),
    "dust_floor": ([0.0, 1e-300, 0.01, 1.0, 2.0], [-1e-3], log_uniform(1e-15, 1e-3)),
    "horizon": ([1e-9, 1.0, 1e6, "inf"], [0.0, -1.0], log_uniform(1.0, 1e4)),
    "fp_horizon": ([1e-9, 1.0, 1e6, "inf"], [0.0, -1.0], log_uniform(1.0, 1e5)),
    "allow_q_zero": (["true", "false"], ["maybe"], lambda rng: rng.choice(["true", "false"])),
}
REQUIRED = ("gamma", "theta", "q", "c")
FAMILY_KEYS = {"uniform": ("rate",), "point": ("rate", "s0"), "beta": ("rate", "shape"),
               "none": ()}
OPTIONAL = ("samples", "runs", "block_cap", "rel_tol", "bisect_rel_tol", "seed", "dust_floor",
            "horizon", "fp_horizon", "allow_q_zero")
SWEEP_AXES = ("q", "c", "gamma", "theta", "rate")


def draw_value(rng: random.Random, key: str, scale: float = 1.0) -> str:
    """An edge of `key` with chance 0.3, one just outside its range with
    chance OUT_OF_RANGE, else a draw inside it (times `scale`)."""
    inside, outside, draw = KEYS[key]
    if rng.random() < OUT_OF_RANGE:
        return str(rng.choice(outside))
    if rng.random() < 0.3:
        return str(rng.choice(inside))
    value = draw(rng)
    return repr(value * scale) if isinstance(value, float) else str(value)


def draw_config(rng: random.Random) -> str:
    family = rng.choice(tuple(FAMILY_KEYS))
    keys = [*FAMILY_KEYS[family], *REQUIRED, *(k for k in OPTIONAL if rng.random() < 0.5)]
    values = {}
    for key in keys:
        rate = float(values.get("rate", "1"))
        scale = rate if key == "theta" and 0.0 < rate < math.inf else 1.0
        values[key] = draw_value(rng, key, scale)
    lines = [f"family = {family}", *(f"{k} = {v}" for k, v in values.items())]
    # Left at their defaults of 100,000 and 10,000, samples and runs set every
    # run's time: a deep cascade at 10,000 runs writes millions of CSV rows.
    for key, sizes in (("samples", [20, 1000, 5000]), ("runs", [2, 100, 1000])):
        if key not in keys:
            lines.append(f"{key} = {rng.choice(sizes)}")
    return "\n".join(lines) + "\n"


def draw_commands(rng: random.Random) -> list[list[str]]:
    """Arguments after --config of one run of each command."""
    verify = ["verify"]
    if rng.random() < 0.2:
        verify += ["--corrupt-bstar", str(rng.choice([1e-3, 1.5, 1e20]))]
    axis = rng.choice(SWEEP_AXES)
    grid = ",".join(draw_value(rng, axis) for _ in range(rng.randint(1, 4)))
    line = rng.choice([f"fixed:{rng.choice([0.0, 0.5, 2.0, 10.0])}",
                       f"mass:{rng.choice([1e-3, 0.05, 0.5, 1.0, 2.0])}",
                       "optimal", f"optimal:{rng.choice([-3.0, 0.1, 1.0, 100.0])}"])
    simulate = ["simulate", "--line", line]
    if line.startswith("optimal") and rng.random() < 0.3:
        simulate.append("--literal-theorem-statistic")
    return [["solve"], verify, ["sweep", "--axis", axis, "--grid", grid], simulate]


def _nonfinite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(map(_nonfinite, value.values()))
    if isinstance(value, list):
        return any(map(_nonfinite, value))
    return False


def _csv_nonfinite(text: str) -> bool:
    """True if a b_star or value_at_c cell of a sweep CSV is not finite."""
    rows = [line.split(",") for line in text.splitlines()[2:] if line]
    return any(not math.isfinite(float(cell)) for row in rows for cell in row[1:])


def _run(cmd: list[str], src: Path, out: Path, timeout: float):
    """(CompletedProcess, --out bytes or None) of one command, or None past the time limit."""
    out.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, "PYTHONPATH": str(src)})
    except subprocess.TimeoutExpired:
        return None
    return proc, (out.read_bytes() if out.is_file() else None)


def check_run(argv: list[str], config: str, timeout: float,
              base: Path | None = None) -> tuple[int | str, list[str]]:
    """(exit code or "timeout", problems) of one command on one config."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out"
        cfg.write_text(config)
        cmd = [sys.executable, "-m", "fragstop.cli", *argv, "--config", str(cfg)]
        if argv[0] in ("sweep", "simulate"):
            cmd += ["--out", str(out)]
        ran = _run(cmd, SRC, out, timeout)
        if ran is None:
            return "timeout", [f"ran past the {timeout:g} s limit"]
        proc, out_bytes = ran
        problems = []
        if base is not None:
            ran_base = _run(cmd, base, out, timeout)
            if ran_base is None:
                problems.append(f"the --base run ran past the {timeout:g} s limit")
            else:
                theirs, their_bytes = ran_base
                problems += [f"differs from --base in its {name}" for name, mine, other in (
                    ("exit code", proc.returncode, theirs.returncode),
                    ("stdout", proc.stdout, theirs.stdout), ("stderr", proc.stderr, theirs.stderr),
                    ("--out bytes", out_bytes, their_bytes)) if mine != other]
        if "Traceback" in proc.stderr:
            problems.append("traceback: " + proc.stderr.strip().splitlines()[-1])
        if proc.returncode not in OK_EXITS:
            problems.append(f"exit {proc.returncode}")
        err = proc.stderr.splitlines()
        if proc.returncode in (2, 3, 5):
            expected = len(err) == 1 and '"error"' in err[0]
        else:
            expected = not err
        if not expected and "Traceback" not in proc.stderr:
            problems.append("stderr: " + " | ".join(err)[:300])
        if proc.returncode in (0, 4):
            try:
                if _nonfinite(json.loads(proc.stdout)):
                    problems.append("nan or inf in the JSON output")
                if argv[0] == "sweep" and out_bytes is None:
                    problems.append("unreadable output: the sweep wrote no CSV")
                elif argv[0] == "sweep" and _csv_nonfinite(out_bytes.decode()):
                    problems.append("nan or inf in the sweep CSV")
            except ValueError as exc:
                problems.append(f"unreadable output: {exc}")
        return proc.returncode, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--base", type=Path, default=None,
                        help="also run each command with the package imported from this "
                             "directory, and report any difference in its results")
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= 8:
        parser.error("--jobs must be between 1 and 8")

    rng = random.Random(args.seed)
    runs = []
    for i in range(args.configs):
        config = draw_config(rng)
        runs += [(i, config, cmd) for cmd in draw_commands(rng)]

    def one(run):
        _, config, cmd = run
        return run, *check_run(cmd, config, args.timeout, args.base)

    t0 = time.perf_counter()
    tally, reported = Counter(), 0
    with ThreadPoolExecutor(args.jobs) as pool:
        for (i, config, cmd), code, problems in pool.map(one, runs):
            tally[cmd[0], code] += 1
            for problem in problems:
                reported += 1
                print(f"config {i} {' '.join(cmd)}: {problem}")
                print("    " + config.strip().replace("\n", "\n    "))
    counts = ", ".join(f"{cmd} exit {code}: {n}" for (cmd, code), n in sorted(tally.items(),
                                                                              key=str))
    print(f"{args.configs} configs (seed {args.seed}), {len(runs)} runs in "
          f"{time.perf_counter() - t0:.0f} s, {reported} reported; {counts}")
    return 1 if reported else 0


if __name__ == "__main__":
    sys.exit(main())

"""How often `verify` fails a correct program, and how often it catches a wrong one.

    python3 tools/calibrate_verify.py [--seeds 200] [--first-seed 0]
                                      [--samples 3000] [--runs 500]

Runs `harness.cmd_verify` on the README reference model and on its
point-split twin (s0 = 0.7) for each of --seeds consecutive seeds, once
as is and once with the threshold scaled by 1.5 (`--corrupt-bstar 1.5`).
For each config it prints the share of seeds on which verify fails, the
share on which each check fails, and the share on which the corrupted
threshold is caught.  Every check accepts at three standard errors, so a
well-calibrated verify fails a correct program on a few percent of seeds.

Run from the root of a checkout; the program is imported from ./src.  Not
part of the test suite: the default run takes several minutes.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fragstop import harness  # noqa: E402

REFERENCE = "rate = 1.0\ngamma = 1.0\ntheta = 1.0\nq = 1.0\nc = 0.25\n"
CONFIGS = {
    "uniform": "family = uniform\n" + REFERENCE,
    "point": "family = point\ns0 = 0.7\n" + REFERENCE,
}
CORRUPT = 1.5


def failed_checks(cfg, corrupt_bstar: float = 1.0) -> list[str]:
    """Names of the failed checks."""
    payload, _ = harness.cmd_verify(cfg, corrupt_bstar=corrupt_bstar)
    return [c["name"] for c in payload["checks"] if not c["pass"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=3000)
    parser.add_argument("--runs", type=int, default=500)
    args = parser.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    for name, text in CONFIGS.items():
        t0 = time.perf_counter()
        per_check, n_failed, n_caught = Counter(), 0, 0
        for seed in seeds:
            cfg = harness.with_overrides(harness.parse_config_text(text), seed=seed,
                                         samples=args.samples, runs=args.runs)
            failed = failed_checks(cfg)
            per_check.update(failed)
            n_failed += bool(failed)
            n_caught += bool(failed_checks(cfg, CORRUPT))
        n = len(seeds)
        print(f"{name}: seeds {seeds.start}..{seeds.stop - 1}, samples {args.samples}, "
              f"runs {args.runs} ({time.perf_counter() - t0:.0f} s)")
        print(f"  verify fails on      {n_failed / n:7.1%} of seeds ({n_failed} of {n})")
        print(f"  corrupt x{CORRUPT} caught on {n_caught / n:7.1%} of seeds ({n_caught} of {n})")
        for check, count in per_check.most_common():
            print(f"    {check:<44} {count / n:7.1%} ({count})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

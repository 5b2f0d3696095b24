import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fragstop import expfun, fragsim, harness, levy, pathsim, stopsolve
from fragstop.cli import main
from fragstop.harness import ConfigError, parse_config_text

from conftest import reference_c_sweep

DEGEN_CFG = """
family = none
gamma = 1.0
theta = 1.0
q = 1.0
c = 0.25
samples = 500
runs = 400
seed = 3
"""

REF_CFG = """
family = uniform
rate = 1.0
gamma = 1.0
theta = 1.0
q = 1.0
c = 0.25
samples = 20000
runs = 2500
seed = 3
"""


@pytest.fixture()
def degen_cfg_path(tmp_path):
    p = tmp_path / "degen.cfg"
    p.write_text(DEGEN_CFG)
    return str(p)


@pytest.fixture()
def ref_cfg_path(tmp_path):
    p = tmp_path / "ref.cfg"
    p.write_text(REF_CFG)
    return str(p)


class TestConfigParsing:
    def test_defaults_and_comments(self):
        cfg = parse_config_text(DEGEN_CFG + "\n# trailing comment\n")
        assert cfg.family == "none"
        assert cfg.rel_tol == 1e-6
        assert cfg.rate == 0.0

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(DEGEN_CFG + "fooo = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(DEGEN_CFG + "q = 2\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config_text("family = uniform\nrate = 1.0\n")

    def test_family_key_consistency(self):
        with pytest.raises(ConfigError, match="requires s0"):
            parse_config_text(REF_CFG.replace("uniform", "point"))
        with pytest.raises(ConfigError, match="only valid"):
            parse_config_text(REF_CFG + "s0 = 0.6\n")
        with pytest.raises(ConfigError, match="requires a rate"):
            parse_config_text(REF_CFG.replace("rate = 1.0\n", ""))

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text(DEGEN_CFG.replace("q = 1.0", "q = one"))


# Out-of-range values; each must be a config error (exit 2), never a NaN,
# a traceback or a solve that does not return.  DEGEN_CFG is family = none,
# so any positive rate is a family mismatch.
BAD_VALUES = [
    ("samples", 0), ("samples", -3), ("runs", 0), ("block_cap", 0),
    ("rel_tol", 0.0), ("rel_tol", -1.0), ("rel_tol", float("nan")), ("rel_tol", float("inf")),
    ("bisect_rel_tol", 0.0), ("bisect_rel_tol", -1.0), ("bisect_rel_tol", float("nan")),
    ("bisect_rel_tol", float("inf")), ("rate", 0.5),
    ("seed", -1), ("dust_floor", -1e-3), ("dust_floor", float("nan")),
    ("horizon", 0.0), ("horizon", -1.0), ("horizon", float("nan")),
    ("fp_horizon", 0.0), ("fp_horizon", -1.0), ("fp_horizon", float("nan")),
]


def with_key(text: str, key: str, value) -> str:
    lines = [ln for ln in text.splitlines() if ln.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


class TestConfigRanges:
    @pytest.mark.parametrize("key,value", BAD_VALUES)
    def test_rejected_in_config_file(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_key(DEGEN_CFG, key, value))
        assert main(["solve", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and key in err["message"]

    @pytest.mark.parametrize("key,value", BAD_VALUES)
    def test_rejected_as_override(self, key, value):
        cfg = parse_config_text(DEGEN_CFG)
        with pytest.raises(ConfigError, match=key):
            harness.with_overrides(cfg, **{key: value})

    @pytest.mark.parametrize(
        "flag,value", [("--samples", "-1"), ("--samples", "0"), ("--runs", "0"), ("--seed", "-1")]
    )
    def test_rejected_as_cli_override(self, flag, value, degen_cfg_path, capsys):
        assert main(["solve", "--config", degen_cfg_path, flag, value]) == 2

    def test_verify_needs_two_runs(self, degen_cfg_path, capsys):
        # A standard error takes two paths: verify at runs = 1 is a config
        # error, not a report with NaN standard errors.  Other commands accept it.
        assert main(["verify", "--config", degen_cfg_path, "--runs", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "runs" in err["message"]
        assert main(["solve", "--config", degen_cfg_path, "--runs", "1"]) == 0

    def test_verify_needs_one_draw_per_residual_batch(self, degen_cfg_path, capsys):
        # Fewer draws than generator-residual batches would leave batches
        # empty and write NaN into the report.
        assert main(["verify", "--config", degen_cfg_path, "--samples", "10"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "samples" in err["message"]

    def test_verify_at_residual_batch_count_is_valid_json(self, ref_cfg_path, capsys):
        def no_constant(name):
            raise ValueError(f"non-JSON constant {name}")

        code = main(["verify", "--config", ref_cfg_path, "--samples",
                     str(stopsolve.RESIDUAL_BATCHES), "--runs", "50"])
        assert code in (0, 4)
        payload = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert len(payload["checks"]) > 0

    def test_edge_values_accepted(self):
        text = DEGEN_CFG
        for key, value in (("seed", 0), ("dust_floor", 0.0), ("horizon", "inf"),
                           ("fp_horizon", "inf")):
            text = with_key(text, key, value)
        cfg = parse_config_text(text)
        assert (cfg.seed, cfg.dust_floor) == (0, 0.0)
        assert cfg.horizon == cfg.fp_horizon == float("inf")

    def test_rate_sweep_on_family_none(self, degen_cfg_path, capsys):
        assert main(["sweep", "--config", degen_cfg_path, "--axis", "rate",
                     "--grid", "0.5,1,2"]) == 2


class TestSolveCommand:
    def test_degenerate_threshold_in_json(self, degen_cfg_path, capsys):
        assert main(["solve", "--config", degen_cfg_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == harness.SCHEMA
        assert payload["b_star"] == pytest.approx(1.0, rel=1e-5)
        assert payload["sample_meta"]["seed"] == 3

    def test_byte_identical_reruns(self, degen_cfg_path, ref_cfg_path, capsys):
        outs = []
        for path in (degen_cfg_path, degen_cfg_path, ref_cfg_path, ref_cfg_path):
            assert main(["solve", "--config", path]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[2] == outs[3]
        assert outs[0] != outs[2]

    def test_assumption_violation_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "a2.cfg"
        cfg.write_text(REF_CFG.replace("rate = 1.0", "rate = 4.0"))
        assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "A2" in err

    def test_small_gamma_and_q_exit_3_before_drawing(self, tmp_path, capsys):
        # Its one chunk of 4096 draws would take about 1.3e9 jumps, minutes of sampling.
        cfg = tmp_path / "slow.cfg"
        cfg.write_text(REF_CFG.replace("gamma = 1.0", "gamma = 1e-5")
                       .replace("q = 1.0", "q = 1e-12"))
        start = time.perf_counter()
        assert main(["solve", "--config", str(cfg), "--samples", "20"]) == 3
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "assumption"

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(DEGEN_CFG + "zzz = 1\n")
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_workers_key_is_ignored_with_a_warning(self, degen_cfg_path, tmp_path, capsys):
        # Ensembles run in one process.  A config that still sets `workers`
        # runs, warns in one line and gives the bytes of the same file without it.
        cfg = tmp_path / "workers.cfg"
        cfg.write_text(DEGEN_CFG + "workers = 2\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert err.count("\n") == 1 and "'workers' is ignored" in json.loads(err)["message"]
        assert main(["solve", "--config", degen_cfg_path]) == 0
        assert capsys.readouterr() == (out, "")

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfe" + DEGEN_CFG.encode("utf-16-le"))
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "config"

    def test_unwritable_out_is_config_error(self, degen_cfg_path, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["solve", "--config", degen_cfg_path, "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == "config" and str(out) in json.loads(err)["message"]

    @pytest.mark.parametrize("c", ["1e-30", "1e20"])
    def test_far_start_solves(self, c, tmp_path, capsys):
        # The bracket search doubles or halves from c for as long as it takes:
        # the shared sample does not depend on c, so neither does b* (~0.77).
        ref = tmp_path / "ref.cfg"
        ref.write_text(REF_CFG)
        assert main(["solve", "--config", str(ref), "--samples", "2000"]) == 0
        b_ref = json.loads(capsys.readouterr().out)["b_star"]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(with_key(REF_CFG, "c", c))
        assert main(["solve", "--config", str(cfg), "--samples", "2000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["b_star"] == pytest.approx(b_ref, rel=2e-6)

    @pytest.mark.parametrize("c", ["5e-324", "1e300", "1e308"])
    def test_unbracketed_threshold_exit_code(self, c, tmp_path, capsys):
        # c is valid, but f(c) overflows: a clean assumption error, never a
        # NaN or inf.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(with_key(REF_CFG, "c", c))
        assert main(["solve", "--config", str(cfg), "--samples", "2000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert (err["error"], err["type"]) == ("assumption", "DivergenceError")

    @pytest.mark.parametrize("args,error_type", [
        (["solve"], "DivergenceError"),
        (["sweep", "--axis", "q", "--grid", "1e300"], "DivergenceError"),
        (["sweep", "--axis", "gamma", "--grid", "1e300"], "AssumptionError"),
    ], ids=["solve", "sweep-q", "sweep-gamma"])
    def test_far_tilt_ends_quickly(self, args, error_type, tmp_path):
        # At q = 1e4 and beyond, kappa is past the float spacing of the root's
        # tolerance, where its bisection once never ended; and (c + I)^p
        # overflows for every shared sample, so the solve stops before drawing
        # one.  A child process keeps a regression from hanging the suite.
        cfg = tmp_path / "far.cfg"
        cfg.write_text(with_key(with_key(REF_CFG, "q", 10000), "samples", 100_000))
        proc = subprocess.run(
            [sys.executable, "-m", "fragstop.cli", *args, "--config", str(cfg)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])},
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["type"] == error_type

    def test_unbracketed_sweep_is_an_assumption_error(self):
        # The CLI and the benchmark's job loop catch the bracket's failure as
        # an AssumptionError; its JSON type stays DivergenceError.
        cfg = harness.with_overrides(parse_config_text(REF_CFG), q=10000.0, samples=100_000)
        with pytest.raises(levy.AssumptionError) as info:
            harness.cmd_sweep(cfg, "q", [1e300])
        assert type(info.value) is stopsolve.DivergenceError

    def test_extreme_tilt_solves_quietly(self, tmp_path):
        # At gamma = 1000, q = 4000 the tilt leaves 4e-4 of the jump rate: the
        # rejection sampler it once used warned of its acceptance rate on a
        # run that exits 0, and took half a minute at 100,000 draws.  A child
        # process keeps a regression from hanging the suite.
        cfg = tmp_path / "tilt.cfg"
        text = with_key(with_key(with_key(REF_CFG, "gamma", 1000), "q", 4000), "samples", 4096)
        cfg.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fragstop.cli", "solve", "--config", str(cfg)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert math.isfinite(json.loads(proc.stdout)["b_star"])

    @pytest.mark.parametrize("shape", ["1e7", "1e14", "1e16", "1e20"])
    def test_huge_beta_shape_is_config_error(self, shape, tmp_path):
        # Past shape 1e6 phi's lgamma difference loses precision: at 1e14 the
        # solve once returned a wrong kappa, at 1e16 its rejection sampler
        # spun, and at 1e20 it overflowed.  A child process keeps a
        # regression from hanging the suite.
        cfg = tmp_path / "beta.cfg"
        cfg.write_text(REF_CFG.replace("family = uniform", f"family = beta\nshape = {shape}"))
        proc = subprocess.run(
            [sys.executable, "-m", "fragstop.cli", "solve", "--config", str(cfg)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])},
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        err = json.loads(proc.stderr)
        assert err["type"] == "InvalidModelError"
        assert "family = point, s0 = 0.5" in err["message"]

    def test_resource_cap_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(REF_CFG + "block_cap = 16\n")
        assert main(["simulate", "--config", str(cfg), "--runs", "5", "--line", "mass:0.0001"]) == 5


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["solve", "--config", "x", "--seed", "x"], ["frob"], ["solve"],
        ["solve", "--config", "x", "--workers", "2"],
    ], ids=["bad-int", "unknown-command", "no-config", "removed-flag"])
    def test_bad_command_line_is_one_json_line(self, argv, capsys):
        # A command line argparse rejects is a config error like any other:
        # exit 2 and one JSON line on stderr, no usage text.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "config" and "usage:" not in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


class TestVerifyCommand:
    def test_degenerate_all_pass(self, degen_cfg_path, capsys):
        assert main(["verify", "--config", degen_cfg_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"]
        names = {c["name"] for c in payload["checks"]}
        assert any(n.startswith("laplace") for n in names)
        assert any(n.startswith("martingale") for n in names)
        assert any(n.startswith("supermartingale") for n in names)
        assert any(n.startswith("pasting") for n in names)
        assert any(n.startswith("generator") for n in names)
        # fragmentation checks are skipped for the no-splitting family
        assert not any(n.startswith("many_to_one") for n in names)

    def test_corrupted_threshold_fails(self, degen_cfg_path, capsys):
        assert main(["verify", "--config", degen_cfg_path, "--corrupt-bstar", "1.5"]) == 4
        payload = json.loads(capsys.readouterr().out)
        failed = {c["name"] for c in payload["checks"] if not c["pass"]}
        assert "pasting_slope_gap" in failed
        assert "threshold_dominance_low" in failed

    @pytest.mark.parametrize("factor", ["nan", "inf", "0", "-1"])
    def test_bad_corrupt_factor(self, factor, degen_cfg_path, capsys):
        assert main(["verify", "--config", degen_cfg_path, "--corrupt-bstar", factor]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "config" and "corrupt-bstar" in err["message"]

    @pytest.mark.parametrize("factor", ["1e50", "1e300"])
    def test_far_corrupt_factor_rejected(self, factor, ref_cfg_path, capsys):
        # The value's standard errors divide by E[(b + I)^p]^4, which overflows
        # at these thresholds; 1e50 once died with an OverflowError and 1e300
        # with a non-finite value curve.
        assert main(["verify", "--config", ref_cfg_path, "--samples", "2000", "--runs", "50",
                     "--corrupt-bstar", factor]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "config" and "corrupt-bstar" in err["message"]

    def test_large_corrupt_factor_fails_checks(self, ref_cfg_path, capsys):
        assert main(["verify", "--config", ref_cfg_path, "--samples", "2000", "--runs", "50",
                     "--corrupt-bstar", "1e20"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert not payload["all_pass"]

    def test_dominance_pays_c_at_thresholds_below_it(self, tmp_path, capsys):
        # For b <= c the threshold stops at once, tau_b = 0, and pays Z_0 = c.  At
        # c = 3 > 1.25 b* every swept threshold does, so both margins are exactly
        # 0; the checks once paid b there and failed a correct program.
        cfg = tmp_path / "c3.cfg"
        cfg.write_text(with_key(REF_CFG, "c", 3))
        main(["verify", "--config", str(cfg), "--samples", "2000", "--runs", "50"])
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        for tag in ("low", "high"):
            check = checks[f"threshold_dominance_{tag}"]
            assert check["pass"] and check["margin"] == 0.0 and check["std_error"] == 0.0

    @pytest.mark.parametrize("c", ["1e30", "1e80"])
    def test_far_start_rejected(self, c, tmp_path, capsys):
        # The Laplace checks' standard errors divide by E[(2c + I)^p]^4, which
        # overflows at these starts; they once died with an OverflowError.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(with_key(REF_CFG, "c", c))
        assert main(["verify", "--config", str(cfg), "--samples", "2000", "--runs", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "config" and f"b = {2.0 * float(c)}, the larger of 2c" in err["message"]

    @pytest.mark.parametrize("key,value", [("theta", 400), ("q", 400)])
    def test_path_checks_out_of_float_range_rejected(self, key, value, tmp_path):
        # By t = 2, Z overflows at gamma*theta = 400 and e^{-lam t} underflows
        # at lam = 401: the path checks once read nan, with RuntimeWarnings on
        # stderr.  Only the error line may reach stderr.
        cfg = tmp_path / "far.cfg"
        cfg.write_text(with_key(REF_CFG, key, value))
        proc = subprocess.run(
            [sys.executable, "-m", "fragstop.cli", "verify", "--config", str(cfg),
             "--samples", "3000", "--runs", "500"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        (line,) = proc.stderr.splitlines()
        err = json.loads(line)
        assert err["type"] == "ConfigError" and "float range up to t = 2.0" in err["message"]

    def test_block_cap_bounds_the_cascade_checks(self, tmp_path):
        # The many-to-one checks once ran the engine at its default cap of
        # 1,000,000 blocks, whatever the config's block_cap said.
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(REF_CFG + "block_cap = 5\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fragstop.cli", "verify", "--config", str(cfg),
             "--samples", "2000", "--runs", "50"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])},
        )
        assert (proc.returncode, proc.stdout) == (5, "")
        err = json.loads(proc.stderr)
        assert err["type"] == "BlockCapError" and "block budget 5 exceeded" in err["message"]

    def test_lineages_past_the_horizon_end_quickly(self, tmp_path):
        # Nearly every split of this beta family keeps almost all the mass, so
        # lineages outlive the horizon; the line check's tagged lineage stops
        # there as the cascade's blocks do.  The check once grew runs to the
        # block cap (exit 5 after 54 s at the default sizes), or walked the
        # lineage toward MAX_STEPS jumps once the cascade stopped at the
        # horizon.  A child process keeps a regression from hanging the suite.
        cfg = tmp_path / "beta.cfg"
        cfg.write_text("family = beta\nrate = 1e-9\nshape = 1e-6\ngamma = 0.1\ntheta = 1.0\n"
                       "q = 0.1\nc = 3\nseed = 12345\nblock_cap = 200000\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fragstop.cli", "verify", "--config", str(cfg),
             "--samples", "2000", "--runs", "500"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])},
        )
        assert proc.returncode in (0, 4), proc.stderr
        checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
        assert checks["many_to_one_line_mass=0.1"]["pass"]

    def test_one_value_curve_per_verify(self, ref_cfg_path, monkeypatch, capsys):
        builds = []

        class CountedCurve(stopsolve.TildeCurve):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(stopsolve, "TildeCurve", CountedCurve)
        main(["verify", "--config", ref_cfg_path, "--samples", "2000", "--runs", "200"])
        assert json.loads(capsys.readouterr().out)["command"] == "verify"
        assert len(builds) == 1

    def test_reference_config_all_pass(self, ref_cfg_path, capsys):
        # The splitting family exercises every check, including the
        # block-average identities the no-splitting family skips.
        assert main(["verify", "--config", ref_cfg_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"]
        names = {c["name"] for c in payload["checks"]}
        assert any(n.startswith("many_to_one_fixed") for n in names)
        assert any(n.startswith("many_to_one_line") for n in names)
        laplace = [c for c in payload["checks"] if c["name"].startswith("laplace")]
        assert [c["horizon_misses"] for c in laplace] == [0, 0]

    def test_horizon_misses_reported(self, tmp_path, capsys):
        # Lineages still below the level when the first-passage horizon
        # passes are counted in the Laplace entries.
        cfg = tmp_path / "short.cfg"
        cfg.write_text(with_key(REF_CFG, "fp_horizon", 0.05))
        main(["verify", "--config", str(cfg), "--samples", "2000", "--runs", "300"])
        payload = json.loads(capsys.readouterr().out)
        laplace = [c for c in payload["checks"] if c["name"].startswith("laplace")]
        assert len(laplace) == 2
        assert all(0 < c["horizon_misses"] <= 300 for c in laplace)


class TestOneValueFunction:
    """Each command computes the normalization E[(b*+I)^p] once: one ValueFunction."""

    @pytest.fixture()
    def built(self, monkeypatch):
        calls = []
        init = stopsolve.ValueFunction.__init__

        def counting(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(stopsolve.ValueFunction, "__init__", counting)
        return calls

    def test_solve_with_diagnostics(self, built):
        cfg = parse_config_text(REF_CFG)
        assert harness.cmd_solve(harness.with_overrides(cfg, samples=2000))["diagnostics"]
        assert len(built) == 1

    @pytest.mark.parametrize("c", [0.25, 1.0], ids=["b*-above-2c", "2c-above-b*"])
    def test_verify(self, c, built):
        # The overflow guard reads the larger of b* and 2c (b* is about 0.77).
        cfg = harness.with_overrides(parse_config_text(REF_CFG), samples=2000, runs=50, c=c)
        harness.cmd_verify(cfg)
        assert len(built) == 1


class TestOneSimulationPerKind:
    """verify simulates each kind of random object once: one walk of Z at times, one
    first-passage walk for both Laplace levels (and one for the dominance sweep), and
    one fixed-time cascade for both many-to-one functionals."""

    def test_verify(self, monkeypatch):
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((pathsim, "simulate_Z_at_times"),
                             (pathsim, "simulate_Z_first_passage"),
                             (fragsim, "evolve_to_time")):
            counted(module, name)
        # 3000 runs: two full chunks of CHUNK_RUNS and a partial one.
        cfg = harness.with_overrides(parse_config_text(REF_CFG), samples=2000, runs=3000)
        harness.cmd_verify(cfg)
        assert calls == {"simulate_Z_at_times": 1, "simulate_Z_first_passage": 2,
                         "evolve_to_time": math.ceil(cfg.runs / fragsim.CHUNK_RUNS)}


class TestOneGeneratorResidual:
    """`stopsolve.generator_residual` is the one path to a generator residual: four
    per solve with diagnostics, two per verify, and no call of `generator_rule`
    outside it.  The traced metric `stopsolve.generator_residual.s` times it."""

    @pytest.fixture()
    def residuals(self, monkeypatch):
        calls = {"generator_residual": 0, "generator_rule": 0, "rule_outside": 0}
        inside = []
        residual, rule = stopsolve.generator_residual, stopsolve.generator_rule

        def counted_residual(*args, **kwargs):
            calls["generator_residual"] += 1
            inside.append(True)
            try:
                return residual(*args, **kwargs)
            finally:
                inside.pop()

        def counted_rule(*args, **kwargs):
            calls["generator_rule"] += 1
            calls["rule_outside"] += not inside
            return rule(*args, **kwargs)

        monkeypatch.setattr(stopsolve, "generator_residual", counted_residual)
        monkeypatch.setattr(stopsolve, "generator_rule", counted_rule)
        return calls

    def test_solve(self, residuals):
        cfg = harness.with_overrides(parse_config_text(REF_CFG), samples=2000)
        assert harness.cmd_solve(cfg)["diagnostics"]["generator_residual"]
        assert residuals == {"generator_residual": 4, "generator_rule": 4, "rule_outside": 0}

    def test_verify(self, residuals):
        cfg = harness.with_overrides(parse_config_text(REF_CFG), samples=2000, runs=50)
        harness.cmd_verify(cfg)
        assert residuals == {"generator_residual": 2, "generator_rule": 2, "rule_outside": 0}


class TestSweepCommand:
    def test_degenerate_q_sweep(self, degen_cfg_path, capsys):
        assert main(["sweep", "--config", degen_cfg_path, "--axis", "q",
                     "--grid", "0.5,1,2"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0].startswith("# schema:")
        assert lines[1] == "grid_point,b_star,value_at_c"
        bs = [float(row.split(",")[1]) for row in lines[2:]]
        assert bs == pytest.approx([2.0, 1.0, 0.5], rel=1e-5)
        summary = json.loads(captured.err)
        assert summary["b_star_nonincreasing"]

    def test_threshold_constant_in_start(self, ref_cfg_path, capsys):
        assert main(["sweep", "--config", ref_cfg_path, "--axis", "c",
                     "--grid", "0.2,0.4,0.6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        bs = [float(row.split(",")[1]) for row in lines[2:]]
        assert max(bs) - min(bs) <= 2e-6 * max(bs)

    def test_empty_grid(self, degen_cfg_path, capsys):
        for grid in ("", ","):
            assert main(["sweep", "--config", degen_cfg_path, "--axis", "q", "--grid", grid]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err)
            assert err["error"] == "config" and "bad --grid" in err["message"]

    def test_unknown_axis(self, degen_cfg_path, capsys):
        assert main(["sweep", "--config", degen_cfg_path, "--axis", "zeta", "--grid", "1"]) == 2


class TestSimulateCommand:
    def test_immediate_line_pays_start(self, ref_cfg_path, tmp_path, capsys):
        out = tmp_path / "blocks.csv"
        assert main(["simulate", "--config", ref_cfg_path, "--runs", "50",
                     "--line", "fixed:0", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["mean_payoff"] == pytest.approx(0.25, abs=1e-14)
        assert summary["std_error"] == pytest.approx(0.0, abs=1e-14)
        text = out.read_text().splitlines()
        assert text[1] == "run,mass,accrued,freeze_time,payoff_contribution"
        assert len(text) == 2 + 50

    def test_single_run_reproducible(self, ref_cfg_path, capsys):
        args = ["simulate", "--config", ref_cfg_path, "--runs", "1", "--line", "mass:0.4"]
        assert main(args) == 0
        first = capsys.readouterr()
        assert main(args) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert first.err == second.err

    def test_optimal_line_solves_first(self, ref_cfg_path, capsys):
        assert main(["simulate", "--config", ref_cfg_path, "--runs", "300",
                     "--line", "optimal"]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.err)
        assert "b_star" in summary
        assert summary["line"]["kind"] == "OptimalStatistic"
        assert summary["line"]["b"] == pytest.approx(summary["b_star"])

    def test_literal_flag_recorded(self, ref_cfg_path, capsys):
        assert main(["simulate", "--config", ref_cfg_path, "--runs", "20",
                     "--line", "optimal:0.78", "--literal-theorem-statistic"]) == 0
        summary = json.loads(capsys.readouterr().err)
        assert summary["line"]["literal"] is True

    @pytest.mark.parametrize("spec", ["fixed:1.0", "mass:0.1"])
    def test_literal_flag_needs_optimal_line(self, spec, ref_cfg_path, capsys):
        assert main(["simulate", "--config", ref_cfg_path, "--runs", "20",
                     "--line", spec, "--literal-theorem-statistic"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and spec in err["message"]

    @pytest.mark.parametrize("spec", [
        "sometimes:1", "mass:0", "mass:-1", "mass:nan", "mass:inf", "fixed:-1", "fixed:nan",
        "fixed:inf", "optimal:nan", "optimal:inf",
    ])
    def test_bad_line_spec(self, spec, ref_cfg_path, capsys):
        # Out-of-range lines would freeze blocks before time 0 or never fire
        # (each run growing to the block cap).
        assert main(["simulate", "--config", ref_cfg_path, "--line", spec]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and spec in err["message"]

    def test_negative_threshold_pays_start(self, ref_cfg_path, capsys):
        # optimal:-1 is valid: every block freezes at birth and pays c.
        assert main(["simulate", "--config", ref_cfg_path, "--runs", "20",
                     "--line", "optimal:-1"]) == 0
        summary = json.loads(capsys.readouterr().err)
        assert summary["mean_payoff"] == 0.25 and summary["std_error"] == 0.0

    def test_zero_mass_fragments_are_dust(self, tmp_path, capsys):
        # Beta(0.01, 0.01) shares round to 1 on most splits, leaving fragments
        # of mass 0.  With no dust floor they must still freeze as dust and
        # pay nothing, not turn the payoff into NaN.
        cfg = tmp_path / "beta.cfg"
        cfg.write_text(REF_CFG.replace("family = uniform", "family = beta\nshape = 0.01")
                       + "dust_floor = 0\n")
        assert main(["simulate", "--config", str(cfg), "--runs", "5", "--line", "mass:0.1",
                     "--out", str(tmp_path / "blocks.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dust_frozen"] > 0
        assert math.isfinite(summary["mean_payoff"]) and math.isfinite(summary["std_error"])

    def test_huge_start_gives_finite_error_quietly(self, tmp_path):
        # At c = 1e200 every payoff is finite, but their squared deviations
        # overflowed: numpy warned on stderr and std_error read Infinity.
        cfg = tmp_path / "far_c.cfg"
        cfg.write_text(with_key(REF_CFG, "c", "1e200"))
        proc = subprocess.run(
            [sys.executable, "-m", "fragstop.cli", "simulate", "--config", str(cfg),
             "--line", "mass:0.5", "--runs", "5", "--out", str(tmp_path / "b.csv")],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        summary = json.loads(proc.stdout)
        assert math.isfinite(summary["mean_payoff"]) and math.isfinite(summary["std_error"])
        assert summary["std_error"] > 0.0

    def test_seed_beyond_128_bits(self, ref_cfg_path, capsys):
        assert main(["simulate", "--config", ref_cfg_path, "--runs", "5",
                     "--line", "mass:0.1", "--seed", str(2**128)]) == 0
        summary = json.loads(capsys.readouterr().err)
        assert summary["n_runs"] == 5 and summary["mean_payoff"] > 0.0


def per_row_csv(kind, header, rows) -> str:
    """The per-row formatter `format_csv` replaced: one tuple per row, each cell type-tested."""
    lines = [f"# schema: {harness.SCHEMA}.{kind}", ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


class TestFormatCsv:
    HEADER = ["run", "mass", "accrued", "freeze_time", "payoff_contribution"]

    def test_columns_match_per_row_formatter(self):
        # The engine's column types: int64 runs, float64 values, among them a
        # never-fired block (accrued nan, freeze time inf, contribution 0).
        columns = [
            np.array([0, 0, 1, 7, 2**40], dtype=np.int64),
            np.array([0.5, 0.5, 1.0, 1e-300, 5e-324]),
            np.array([0.1, np.nan, 0.0, -0.0, 1.0 / 3.0]),
            np.array([1.0, np.inf, 0.0, 2.5e10, 1e-7]),
            np.array([0.3125, 0.0, 0.25, 1e-310, 2.0 / 3.0]),
        ]
        rows = list(zip(*(c.tolist() for c in columns)))
        text = harness.format_csv("blocks", self.HEADER, columns)
        assert text == per_row_csv("blocks", self.HEADER, rows)
        assert text.splitlines()[3] == "0,0.5,nan,inf,0.0"

    def test_sweep_lists_match_per_row_formatter(self):
        # The sweep's columns are lists of Python and numpy floats.
        grid, bs, values = [0.1, 0.25], [np.float64(0.78), 0.5], [np.float64(0.3), 1e20]
        text = harness.format_csv("sweep", ["grid_point", "b_star", "value_at_c"],
                                  [grid, bs, values])
        assert text == per_row_csv("sweep", ["grid_point", "b_star", "value_at_c"],
                                   list(zip(grid, bs, values)))

    def test_simulate_matches_per_row_formatter(self):
        cfg = parse_config_text(REF_CFG)
        res = fragsim.ensemble_payoffs(cfg.model(), cfg.params(),
                                       fragsim.OptimalStatistic(0.78, literal=True), 50, 4)
        b = res.blocks
        columns = [b.run, b.mass, b.accrued(cfg.params()), b.frozen_at, res.contributions]
        assert np.isinf(b.frozen_at).any()
        assert harness.format_csv("blocks", self.HEADER, columns) == per_row_csv(
            "blocks", self.HEADER, list(zip(*(c.tolist() for c in columns))))


README_KEYS = "rate = 1.0\ngamma = 1.0\ntheta = 1.0\nq = 1.0\nc = 0.25\nseed = 12345\n"


def run_child(source: str) -> subprocess.CompletedProcess:
    """Run Python `source` in a fresh interpreter that imports this checkout's fragstop."""
    return subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])},
    )


def scipy_modules_after(family_keys: str, commands: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running `commands` on a README config.

    `commands` is Python source run with `harness` imported and `cfg` set to
    the README model of `family_keys` at 2000 samples and 200 runs.
    """
    proc = run_child(
        "import sys\n"
        "from fragstop import harness\n"
        f"text = {family_keys + README_KEYS!r}\n"
        "cfg = harness.with_overrides(harness.parse_config_text(text), samples=2000, runs=200)\n"
        f"{commands}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


BETA_KEYS = "family = beta\nshape = 0.5\n"


class TestScipyStaysOut:
    # Only the beta family's cascade needs scipy, for its inverse incomplete beta.
    @pytest.mark.parametrize("family_keys", ["family = uniform\n", "family = point\ns0 = 0.7\n"],
                             ids=["uniform", "point"])
    def test_uniform_and_point_runs_import_numpy_only(self, family_keys):
        commands = ("harness.cmd_solve(cfg)\nharness.cmd_verify(cfg)\n"
                    "harness.cmd_simulate(cfg, 'optimal')")
        assert scipy_modules_after(family_keys, commands) == []

    def test_beta_solve_and_sweep_import_numpy_only(self):
        commands = "harness.cmd_solve(cfg)\nharness.cmd_sweep(cfg, 'q', [0.5, 1.0])"
        assert scipy_modules_after(BETA_KEYS, commands) == []

    def test_beta_simulate_imports_special_only(self):
        special_alone = scipy_modules_after(BETA_KEYS, "from scipy import special")
        loaded = scipy_modules_after(BETA_KEYS, "harness.cmd_simulate(cfg, 'optimal')")
        assert "scipy.special" in loaded
        assert set(loaded) <= set(special_alone)

    def test_beta_simulate_without_scipy_exits_with_config_error(self, tmp_path):
        cfg = tmp_path / "beta.cfg"
        cfg.write_text(BETA_KEYS + README_KEYS)
        argv = ["simulate", "--config", str(cfg), "--line", "optimal", "--samples", "2000",
                "--runs", "50", "--out", str(tmp_path / "blocks.csv")]
        proc = run_child("import sys\nsys.modules['scipy'] = None\n"
                         f"from fragstop.cli import main\nsys.exit(main({argv!r}))\n")
        assert proc.returncode == harness.EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["type"] == "InvalidModelError"
        assert "the beta family's cascade needs scipy" in err["message"]


# The c grid of the benchmark's solve-grid workload: 120 geometric points
# from 0.05 to 2, on both sides of the README threshold (about 0.78).
BENCH_C_GRID = [float(c) for c in np.round(np.geomspace(0.05, 2.0, 120), 6)]


def readme_cfg(family_keys: str = "family = uniform\n") -> harness.RunConfig:
    return harness.with_overrides(parse_config_text(family_keys + README_KEYS), samples=5000)


def sweep_values(csv_text: str) -> list[float]:
    return [float(row.split(",")[2]) for row in csv_text.splitlines()[2:]]


def never_drawn(*args, **kwargs):
    raise AssertionError("a shared sample was drawn")


class TestStartSweep:
    # Along c the threshold equation does not change: b* is solved once.
    @pytest.mark.parametrize("family_keys", ["family = uniform\n", "family = point\ns0 = 0.7\n",
                                             BETA_KEYS], ids=["uniform", "point", "beta"])
    def test_matches_bisection_at_every_point(self, family_keys):
        cfg = readme_cfg(family_keys)
        csv_text, summary = harness.cmd_sweep(cfg, "c", BENCH_C_GRID)
        ref_bs, ref_values = reference_c_sweep(cfg, BENCH_C_GRID)
        np.testing.assert_allclose(ref_bs, summary["b_star"][0], rtol=cfg.bisect_rel_tol, atol=0)
        # The value is stationary in b at b* (smooth fit), so thresholds that
        # differ within the bisection tolerance move it only at second order.
        np.testing.assert_allclose(sweep_values(csv_text), ref_values, rtol=1e-9, atol=0)

    def test_exact_against_solve_and_value_star(self):
        cfg = readme_cfg()
        csv_text, summary = harness.cmd_sweep(cfg, "c", BENCH_C_GRID)
        first = harness.with_overrides(cfg, c=BENCH_C_GRID[0])
        b_star = harness.cmd_solve(first)["b_star"]
        assert summary["b_star"] == [b_star] * len(BENCH_C_GRID)
        assert {float(row.split(",")[1]) for row in csv_text.splitlines()[2:]} == {b_star}
        assert summary["b_star_nonincreasing"] and summary["b_star_nondecreasing"]
        sample = harness._shared_sample(first, first.model(), first.params())
        expected = [stopsolve.ValueFunction(harness.with_overrides(cfg, c=c).params(), sample,
                                            b_star).star(c) for c in BENCH_C_GRID]
        assert sweep_values(csv_text) == expected

    def test_one_sample_one_tilt_one_bisection(self, monkeypatch):
        calls = dict.fromkeys(("draw_shared_sample", "kappa_root", "f_of_b"), 0)

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((expfun, "draw_shared_sample"), (levy, "kappa_root"),
                             (expfun, "f_of_b")):
            counted(module, name)
        cfg = readme_cfg()
        grid = [float(c) for c in np.geomspace(0.05, 2.0, 50)]
        harness.cmd_sweep(cfg, "c", grid)
        in_sweep = dict(calls)
        first = harness.with_overrides(cfg, c=grid[0])
        params = first.params()
        sample = harness._shared_sample(first, first.model(), params)
        calls["f_of_b"] = 0
        stopsolve.bisect_b_star(params, sample, rel_tol_b=cfg.bisect_rel_tol)
        assert in_sweep == {"draw_shared_sample": 1, "kappa_root": 1, "f_of_b": calls["f_of_b"]}

    @pytest.mark.parametrize("grid,code,error_type,message", [
        ("0.5,nan", 2, "InvalidModelError", "c must be > 0, got nan"),
        ("0.5,-1", 2, "InvalidModelError", "c must be > 0, got -1.0"),
        ("0.5,inf", 2, "InvalidModelError", "c must be > 0, got inf"),
        ("0.5,1e300", 3, "DivergenceError",
         "f(c) is not finite at c = 1e+300; no bracket can start there"),
        # every point is checked in grid order
        ("0.5,nan,1e300", 2, "InvalidModelError", "c must be > 0, got nan"),
        ("0.5,1e300,nan", 3, "DivergenceError",
         "f(c) is not finite at c = 1e+300; no bracket can start there"),
    ])
    def test_bad_point_exits_before_sampling(self, grid, code, error_type, message,
                                             ref_cfg_path, monkeypatch, capsys):
        monkeypatch.setattr(expfun, "draw_shared_sample", never_drawn)
        assert main(["sweep", "--config", ref_cfg_path, "--axis", "c", "--grid", grid]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert (err["type"], err["message"]) == (error_type, message)

    @pytest.mark.parametrize("c", [math.nan, -1.0, math.inf])
    def test_bad_start_message_is_make_params_message(self, c):
        with pytest.raises(levy.InvalidModelError) as made:
            levy.make_params(levy.BinaryUniform(1.0), gamma=1.0, theta=1.0, q=1.0, c=c)
        with pytest.raises(levy.InvalidModelError) as swept:
            harness.cmd_sweep(readme_cfg(), "c", [0.5, c])
        assert str(swept.value) == str(made.value)

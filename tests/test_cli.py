import argparse
import builtins
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poisson_chaos import cli, hazard, ou, quadrature
from poisson_chaos.cli import CRASH, USAGE_ERROR, build_parser, main
from poisson_chaos.configio import (CONTROLS, ConfigError, config_hash, control_from_section,
                                    read_config)
from poisson_chaos.kernels import OUDoubleHKernel
from poisson_chaos.point_process import BetaControl, DiscreteControl
from poisson_chaos.quadrature import QuadratureError


class TestConfigIO:
    def test_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[control]\ntype = discrete\nvalues = 1.0,-1.0\nweights = 0.5,0.5\n",
                       encoding="utf-8")
        sections, _ = read_config(cfg)
        ctrl = control_from_section(sections["control"])
        assert isinstance(ctrl, DiscreteControl)
        assert ctrl.values == (1.0, -1.0)

    def test_beta_section(self):
        ctrl = control_from_section({"type": "beta", "c0": "1.5"})
        assert isinstance(ctrl, BetaControl) and ctrl.c0 == 1.5

    def test_malformed_section(self):
        with pytest.raises(ConfigError):
            control_from_section({"type": "discrete", "values": "1.0"})
        with pytest.raises(ConfigError):
            control_from_section({"type": "unknown-thing"})

    def test_hash_stable(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("[x]\nk = 1\n")
        assert read_config(cfg)[1] == read_config(cfg)[1]
        # the first 16 hex digits of the SHA-256 of the file's bytes
        assert read_config(cfg)[1] == hashlib.sha256(b"[x]\nk = 1\n").hexdigest()[:16]
        assert config_hash() == hashlib.sha256(b"").hexdigest()[:16]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_section_round_trip(self, data):
        # every key a field, each may be left out if its field has a
        # default; both spellings of a type name
        name = data.draw(st.sampled_from(sorted(CONTROLS)))
        cls = CONTROLS[name]
        positive = st.floats(min_value=1e-3, max_value=1e3)
        n = data.draw(st.integers(1, 4))
        values = {"values": st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n).map(tuple),
                  "weights": st.lists(positive, min_size=n, max_size=n).map(tuple),
                  "sigma": st.floats(min_value=0.01, max_value=0.99),
                  "eps": st.floats(min_value=0.0, max_value=1.0),
                  "beta1": st.floats(min_value=0.0, max_value=1e3)}
        chosen = {}
        for f in dataclasses.fields(cls):
            if f.default is dataclasses.MISSING or data.draw(st.booleans()):
                chosen[f.name] = data.draw(values.get(f.name, positive))
        section = {k: ",".join(map(repr, v)) if isinstance(v, tuple) else repr(v)
                   for k, v in chosen.items()}
        section["type"] = data.draw(st.sampled_from([name, name.replace("_", "-")]))
        control = control_from_section(section)
        assert type(control) is cls and control == cls(**chosen)
        for f in dataclasses.fields(cls):
            if f.name not in chosen:
                assert getattr(control, f.name) == f.default

    def test_file_rewritten_after_parsing_stamps_the_parsed_bytes(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        parsed = b"[control]\ntype = discrete\nvalues = 1.0\nweights = 2.0\n"
        cfg.write_bytes(parsed)
        collect = cli.collect

        def rewrite_then_collect(*args):
            cfg.write_bytes(parsed.replace(b"2.0", b"3.0"))
            return collect(*args)

        monkeypatch.setattr(cli, "collect", rewrite_then_collect)
        rc = main(["hazard", "--theorem", "7", "--case", "1", "--T", "20", "--reps", "20",
                   "--seed", "3", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc in (0, 1)
        payload = json.loads((tmp_path / "out" / "hazard_thm7_case1_T20.json").read_text())
        assert payload["config_hash"] == hashlib.sha256(parsed).hexdigest()[:16]

    @pytest.mark.parametrize("argv", [
        ["hazard", "--theorem", "7", "--case", "1", "--T", "20", "--reps", "20"],
        ["sample"],
        ["criterion", "--family", "block", "--indices", "10,30"],
    ], ids=lambda argv: argv[0])
    def test_config_file_is_opened_once(self, tmp_path, monkeypatch, argv):
        cfg = tmp_path / "run.cfg"
        section = "" if argv[0] == "criterion" else "[control]\nvalues = 1.0\nweights = 1.0\n"
        cfg.write_text(f"{section}[experiment]\nseed = 3\n", encoding="utf-8")
        opened, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(cfg):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        rc = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc in (0, 1)
        assert len(opened) == 1

    def test_non_utf8_file_is_a_configuration_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"[experiment]\nseed = 3\n# caf\xe9\n")   # Latin-1, not UTF-8
        rc = main(["sample", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            f"configuration error: cannot parse config {cfg}: 'utf-8' codec can't decode "
            "byte 0xe9 in position 27: invalid continuation byte"]
        assert not (tmp_path / "out").exists()


class TestCLI:
    def test_criterion_block_passes(self, tmp_path):
        rc = main(["criterion", "--family", "block", "--indices", "10,30,100,300,1000",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "criterion_block.json").read_text())
        assert payload["passed"] is True
        assert payload["tool_version"] and payload["master_seed"] is not None

    def test_criterion_fixed_fails_with_exit_1(self, tmp_path):
        rc = main(["criterion", "--family", "fixed", "--indices", "10,100,1000",
                   "--out", str(tmp_path)])
        assert rc == 1
        payload = json.loads((tmp_path / "criterion_fixed.json").read_text())
        assert payload["passed"] is False
        failing = {c["name"] for c in payload["checks"] if not c["passed"]}
        assert "fourth_power" in failing

    def test_criterion_unit_scaled_pair_family_passes(self, tmp_path):
        rc = main(["criterion", "--family", "ou-pair-unit", "--lam", "1.0",
                   "--indices", "50,100,200,400,800,1600", "--out", str(tmp_path)])
        assert rc == 0

    def test_unknown_family_usage_error(self, tmp_path):
        rc = main(["criterion", "--family", "nope", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("text, reason", [
        ("not a config [[[", "File contains no section headers. file: '{cfg}', line: 1 "
                             "'not a config [[['"),
        ("[control]\nvalues = 1\n[experiment]\nseed = 1\nstray\n",
         "Source contains parsing errors: '{cfg}' [line 5]: 'stray\\n'"),
        ("[control]\nvalues = 5%\n", "'%' must be followed by '%' or '(', found: '%'"),
    ], ids=["no-header", "stray-line", "interpolation"])
    def test_malformed_config_usage_error(self, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text, encoding="utf-8")
        rc = main(["hazard", "--theorem", "7", "--case", "1", "--T", "20",
                   "--reps", "200", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: cannot parse config {bad}: {reason.format(cfg=bad)}"]
        assert not (tmp_path / "out").exists()

    def test_byte_order_mark_is_read_past(self, tmp_path):
        text = "[control]\nvalues = 0.5,1.5\nweights = 0.5,0.5\n[experiment]\nseed = 4\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        sections, digest = read_config(marked)
        assert sections == read_config(plain)[0]
        assert digest == config_hash(marked.read_bytes()) != read_config(plain)[1]
        reports = []
        for cfg in (plain, marked):
            rc = main(["hazard", "--theorem", "7", "--case", "1", "--T", "20", "--reps", "50",
                       "--config", str(cfg), "--out", str(tmp_path / cfg.stem)])
            assert rc in (0, 1)
            reports.append(json.loads((tmp_path / cfg.stem / "hazard_thm7_case1_T20.json")
                                      .read_text()))
        assert reports[1].pop("config_hash") == digest
        reports[0].pop("config_hash")
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("argv", [
        ["criterion", "--family", "block"], ["block"], ["ou", "--theorem", "4"],
        ["hazard", "--theorem", "8"], ["sample"],
    ], ids=lambda argv: argv[0])
    def test_tol_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        # every verdict tolerance is fixed per case; no flag widens one
        rc = main([*argv, "--tol", "0.5", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unrecognized arguments: --tol 0.5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_block_subcommand(self, tmp_path):
        rc = main(["block", "--n", "50", "--reps", "4000", "--seed", "7",
                   "--out", str(tmp_path), "--format", "csv"])
        payload = json.loads((tmp_path / "block_n50.json").read_text())
        assert payload["fourth_moment_target"] == pytest.approx(3.74)
        assert (tmp_path / "block_n50.csv").exists()
        assert rc in (0, 1)   # tolerance band is tight at this replication count

    def test_ou_theorem4(self, tmp_path):
        rc = main(["ou", "--theorem", "4", "--lam", "1.0", "--T", "50",
                   "--reps", "1500", "--seed", "11", "--out", str(tmp_path),
                   "--format", "csv"])
        assert rc == 0
        payload = json.loads((tmp_path / "ou_thm4_T50.json").read_text())
        names = {v["name"] for v in payload["verdicts"]}
        assert "variance" in names
        csv_text = (tmp_path / "ou_thm4_T50.csv").read_text().splitlines()
        assert csv_text[0] == "T,mean,var,var_se,m3,m4,ks,target,verdict"

    def test_ou_theorem5_reports_both_targets(self, tmp_path):
        rc = main(["ou", "--theorem", "5", "--lam", "1.0", "--T", "50",
                   "--reps", "600", "--seed", "3", "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "ou_thm5_T50.json").read_text())
        assert payload["targets_stated"]["k2"] == pytest.approx(1.0)
        assert payload["targets_derived"]["k2"] == pytest.approx(2.0)
        assert rc in (0, 1)

    def test_hazard_theorem7_case1(self, tmp_path):
        rc = main(["hazard", "--theorem", "7", "--case", "1", "--T", "100",
                   "--reps", "1500", "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "hazard_thm7_case1_T100.json").read_text())
        assert "empirical_centering_mean_H" in payload
        assert payload["campbell_mean_H"] == pytest.approx(2 * 100.0 - 0.5, rel=1e-9)

    def test_hazard_theorem8_centered(self, tmp_path):
        rc = main(["hazard", "--theorem", "8", "--variant", "centered", "--T", "150",
                   "--reps", "800", "--seed", "5", "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "hazard_thm8_centered_T150.json").read_text())
        assert payload["variance_stated"] == pytest.approx(44 / 3)
        assert payload["variance_derived"] == pytest.approx(44 / 3)
        assert rc in (0, 1)

    def test_config_experiment_section_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[control]\ntype = discrete\nvalues = 1.0\nweights = 1.0\n"
                       "[experiment]\nseed = 5\nreps = 200\n", encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["hazard", "--theorem", "7", "--case", "1", "--T", "40",
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "hazard_thm7_case1_T40.json").read_text())
        assert payload["master_seed"] == 5 and payload["replications"] == 200
        out2 = tmp_path / "o2"
        rc = main(["hazard", "--theorem", "7", "--case", "1", "--T", "40",
                   "--config", str(cfg), "--seed", "9", "--out", str(out2)])
        payload = json.loads((out2 / "hazard_thm7_case1_T40.json").read_text())
        assert payload["master_seed"] == 9   # flag overrides config

    def test_dump_streams_per_replication_values(self, tmp_path):
        rc = main(["hazard", "--theorem", "7", "--case", "1", "--T", "50",
                   "--reps", "300", "--seed", "2", "--out", str(tmp_path), "--dump"])
        assert rc == 0
        lines = (tmp_path / "hazard_thm7_case1_T50_values.csv").read_text().splitlines()
        assert lines[0] == "replication_index,value"
        assert len(lines) == 301

    def test_sample_subcommand(self, tmp_path):
        rc = main(["sample", "--x-lo", "0", "--x-hi", "25", "--seed", "9",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "pattern.csv").read_text().splitlines()
        assert lines[1] == "u,x"

    def test_rerun_reproduces_outputs_byte_identically(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["ou", "--theorem", "4", "--lam", "1.0", "--T", "30",
                  "--reps", "400", "--seed", "21", "--out", str(out)])
        assert (a / "ou_thm4_T30.json").read_bytes() == (b / "ou_thm4_T30.json").read_bytes()

    def test_workers_do_not_change_outputs(self, tmp_path):
        outs = []
        for w, name in ((1, "w1"), (4, "w4")):
            out = tmp_path / name
            main(["ou", "--theorem", "4", "--lam", "1.0", "--T", "30",
                  "--reps", "400", "--seed", "21", "--workers", str(w), "--out", str(out)])
            outs.append((out / "ou_thm4_T30.json").read_bytes())
        assert outs[0] == outs[1]

    def test_workers_do_not_change_extended_gamma_outputs(self, tmp_path):
        outs = []
        for w in (1, 2):
            out = tmp_path / f"w{w}"
            main(["hazard", "--theorem", "7", "--case", "2", "--T", "2000",
                  "--reps", "40", "--seed", "13", "--workers", str(w), "--out", str(out)])
            outs.append((out / "hazard_thm7_case2_T2000.json").read_bytes())
        assert outs[0] == outs[1]

    def test_replication_crash_has_its_own_exit_code(self, tmp_path, monkeypatch, capsys):
        calls = []

        def crashing_rep(cfg, rng):
            calls.append(1)
            if len(calls) == 3:
                raise ZeroDivisionError("boom")
            return 0.0, 0.0

        monkeypatch.setattr(hazard, "rep_linear_case", crashing_rep)
        rc = main(["hazard", "--theorem", "7", "--case", "1", "--T", "20",
                   "--reps", "200", "--seed", "5", "--out", str(tmp_path)])
        assert rc == CRASH and CRASH not in (0, 1, USAGE_ERROR)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "replication 2 (master seed 5)" in err[0] and "ZeroDivisionError: boom" in err[0]

    @pytest.mark.parametrize("argv, code, head", [
        # x ** 4 of this horizon overflows in the pair kernel's contraction
        # norms, so the range check refuses it
        (["criterion", "--family", "ou-pair", "--indices", "1e308"], USAGE_ERROR,
         "invalid request: T = 1e+308 is outside the closed forms' range [1e-60, 1e+60]"),
        # T ** 2 of this horizon underflows to a division by zero in the
        # support check of the OU statistics, so the range check refuses it
        (["ou", "--theorem", "5", "--T", "1e-300", "--reps", "20"], USAGE_ERROR,
         "invalid request: T = 1e-300 is outside the closed forms' range [1e-60, 1e+60]"),
    ], ids=["criterion-overflow", "ou-zero-division"])
    def test_failure_before_the_replications_names_no_replication(self, tmp_path, monkeypatch,
                                                                  capsys, argv, code, head):
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert rc == code
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.strip().splitlines()
        assert line.startswith(head) and "replication" not in line
        assert not (tmp_path / "out").exists()

    def test_small_rate_window_holds_the_kernel_mass(self, tmp_path, capsys):
        # a window cut at x = -12/lam would leave 2.2e-6 of the linear
        # kernel's L2 mass out here, over chaos.SUPPORT_TOL; ou.ou_window
        # cuts deeper, so the support checks pass and the run is judged
        rc = main(["ou", "--theorem", "5", "--lam", "1e-5", "--T", "1e5", "--reps", "2",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc in (0, 1)
        assert capsys.readouterr().err == ""
        assert (tmp_path / "ou_thm5_T100000.json").exists()


class TestOneModelCheckPerRun:
    """A Monte Carlo run checks its model once, before harness.collect:
    hazard theorem 7, theorem 8 and ou build their statistics object once,
    and no replication, in this process or in a worker forked from it,
    checks the model again (a worker that did would fail its replication
    and the run would crash)."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv, owner, name", [
        (["hazard", "--theorem", "7", "--reps", "20"], hazard.LinearStatistics, "__init__"),
        (["hazard", "--theorem", "8", "--reps", "20"], hazard.QuadraticStatistics, "__init__"),
        (["ou", "--theorem", "4", "--reps", "100"], ou.OUStatistics, "__init__"),
        (["ou", "--theorem", "5", "--reps", "20"], ou.OUStatistics, "__init__"),
    ], ids=["hazard-7", "hazard-8", "ou-4", "ou-5"])
    def test_model_checked_once_before_collect(self, tmp_path, monkeypatch, argv, owner, name,
                                               workers):
        checks, entered = [], []
        check, collect = getattr(owner, name), cli.collect

        def counted(*args):
            assert not entered, "a replication checked the model"
            checks.append(1)
            return check(*args)

        def entering(*args):
            entered.append(len(checks))
            return collect(*args)

        monkeypatch.setattr(owner, name, counted)
        monkeypatch.setattr(cli, "collect", entering)
        rc = main([*argv, "--T", "20", "--seed", "3", "--workers", workers,
                   "--out", str(tmp_path)])
        assert rc in (0, 1)
        assert entered == [1] and checks == [1]


class TestOUPairCriterion:
    # each flag and the first value the range check refuses
    REFUSED = {("--lam", "0"): "lam = 0", ("--lam", "-1"): "lam = -1",
               ("--lam", "nan"): "lam = nan", ("--indices", "0,10,20"): "T = 0",
               ("--indices=-5,10",): "T = -5"}

    @pytest.mark.parametrize("args", [list(a) for a in REFUSED])
    def test_invalid_rate_or_horizon_is_a_usage_error(self, tmp_path, capsys, args):
        rc = main(["criterion", "--family", "ou-pair", "--out", str(tmp_path), *args])
        assert rc == USAGE_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"invalid request: {self.REFUSED[tuple(args)]} is outside the closed "
                       f"forms' range [1e-60, 1e+60]"]

    @pytest.mark.parametrize("argv, name, value", [
        (["ou", "--theorem", "4", "--T", "1e-300", "--reps", "100"], "T", "1e-300"),
        (["criterion", "--family", "ou-pair", "--indices", "1e77,1e78"], "T", "1e+77"),
        (["criterion", "--family", "ou-pair", "--lam", "1e80", "--indices", "1,2"],
         "lam", "1e+80"),
        (["ou", "--theorem", "5", "--lam", "1e200", "--T", "1", "--reps", "4"], "lam", "1e+200"),
        (["criterion", "--family", "ou-pair-unit", "--lam", "1e30", "--indices", "1e31"],
         "lam T", "1e+61"),
    ], ids=["ou4-T", "criterion-T", "criterion-lam", "ou5-lam", "criterion-lamT"])
    def test_rate_or_horizon_outside_the_closed_forms_is_a_usage_error(
            self, tmp_path, monkeypatch, capsys, argv, name, value):
        # the closed forms overflow or divide by zero at each of these
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            f"invalid request: {name} = {value} is outside the closed forms' range "
            f"[1e-60, 1e+60]"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lam, indices", [("1e-60", "1e60"), ("1e60", "1e-60"),
                                              ("1e60", "1"), ("1", "1e-60,1e60")])
    def test_range_corners_give_finite_norms(self, tmp_path, lam, indices):
        rc = main(["criterion", "--family", "ou-pair", "--lam", lam, "--indices", indices,
                   "--out", str(tmp_path)])
        assert rc in (0, 1)
        text = (tmp_path / "criterion_ou-pair.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        for report in json.loads(text)["reports"]:
            assert all(math.isfinite(report[k])
                       for k in ("norm2_doubled", "l4", "n11", "n21", "n10"))

    def test_quadrature_failure_is_a_crash(self, tmp_path, monkeypatch, capsys):
        def failing(self, control, window):
            raise QuadratureError("quadrature check failed: levels differ")

        monkeypatch.setattr(OUDoubleHKernel, "contraction_norms", failing)
        rc = main(["criterion", "--family", "ou-pair-unit", "--indices", "50,100",
                   "--out", str(tmp_path)])
        assert rc == CRASH
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["crash: quadrature check failed: levels differ"]

    def test_criterion_runs_no_panel_quadrature(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("panel quadrature ran")

        for name in ("integrate_checked", "panel_points"):
            monkeypatch.setattr(quadrature, name, failing)
        rc = main(["criterion", "--family", "ou-pair-unit", "--lam", "1",
                   "--indices", "50,100,200,400,800,1600", "--out", str(tmp_path)])
        assert rc == 0
        got = json.loads((tmp_path / "criterion_ou-pair-unit.json").read_text())
        _assert_close(got, json.loads((GOLDEN / "criterion_ou-pair-unit_lam1.json").read_text()))
        assert all(r["integrable"] for r in got["reports"])

    @pytest.mark.parametrize("family, lam, golden", [
        ("ou-pair-unit", "1", "criterion_ou-pair-unit_lam1.json"),
        ("ou-pair", "0.5", "criterion_ou-pair_lam0.5.json"),
        ("ou-pair", "2", "criterion_ou-pair_lam2.json"),
    ])
    def test_reports_match_golden(self, tmp_path, family, lam, golden):
        # reports of the panel-quadrature implementation: every number within
        # 1e-12 relative, every verdict and label unchanged
        rc = main(["criterion", "--family", family, "--lam", lam,
                   "--indices", "50,100,200,400,800,1600", "--out", str(tmp_path)])
        want = json.loads((GOLDEN / golden).read_text())
        got = json.loads((tmp_path / f"criterion_{family}.json").read_text())
        assert rc == (0 if want["passed"] else 1)
        assert (rc == 0) == all(_passed_flags(got))
        _assert_close(got, want)

    @pytest.mark.parametrize("family, lam, indices, golden, code", [
        ("ou-pair-unit", "1", "50,100,200,400,800,1600",
         "criterion_ou-pair-unit_lam1_closed.json", 0),
        # lam T from 0.005 to 16: both evaluation branches of every norm part
        ("ou-pair", "0.01", "0.5,1,2,50,1600", "criterion_ou-pair_lam0.01.json", 1),
        # unset, --lam is 1
        ("ou-pair-unit", None, "50,100,200,400,800,1600",
         "criterion_ou-pair-unit_lam1_closed.json", 0),
    ])
    def test_closed_form_report_is_byte_identical(self, tmp_path, family, lam, indices,
                                                  golden, code):
        # reports of the closed-form contraction norms, recorded byte for byte
        rate = [] if lam is None else ["--lam", lam]
        rc = main(["criterion", "--family", family, *rate, "--indices", indices,
                   "--out", str(tmp_path)])
        assert rc == code
        got = (tmp_path / f"criterion_{family}.json").read_bytes()
        assert got == (GOLDEN / golden).read_bytes()


class TestGoldenReports:
    """Reports recorded before the criterion quantities became kernel
    methods and the Campbell integrals shared one helper."""

    HAZARD7 = ["hazard", "--theorem", "7", "--T", "200", "--reps", "200", "--seed", "5"]

    @pytest.mark.parametrize("argv, name, code", [
        (["criterion", "--family", "block", "--indices", "10,30,100,300,1000"],
         "criterion_block.json", 0),
        (["criterion", "--family", "fixed", "--indices", "10,100,1000"],
         "criterion_fixed.json", 1),
        (HAZARD7 + ["--case", "1"], "hazard_thm7_case1_T200.json", 1),
        (HAZARD7 + ["--case", "2"], "hazard_thm7_case2_T200.json", 1),
        (HAZARD7 + ["--case", "3"], "hazard_thm7_case3_T200.json", 1),
    ])
    def test_report_is_byte_identical(self, tmp_path, argv, name, code):
        rc = main([*argv, "--out", str(tmp_path)])
        assert rc == code
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
        assert (rc == 0) == all(_passed_flags(json.loads((tmp_path / name).read_text())))


class TestGoldenRuns:
    """Every file a Monte Carlo run writes under --format csv --dump (the
    JSON report, the summary CSV, the per-replication values), recorded
    before the subcommands shared one report tail, and its exit code."""

    RUNS = {
        "ou_thm4": (["ou", "--theorem", "4", "--T", "30", "--reps", "400", "--seed", "21"], 0),
        "ou_thm5": (["ou", "--theorem", "5", "--T", "30", "--reps", "200", "--seed", "3"], 1),
        "ou_thm6": (["ou", "--theorem", "6", "--T", "30", "--reps", "200", "--seed", "3"], 1),
        "hazard_thm7_case1": (["hazard", "--theorem", "7", "--case", "1", "--T", "50",
                               "--reps", "200", "--seed", "5"], 0),
        "hazard_thm8_raw": (["hazard", "--theorem", "8", "--variant", "raw", "--T", "50",
                             "--reps", "200", "--seed", "5"], 0),
        "hazard_thm8_centered": (["hazard", "--theorem", "8", "--variant", "centered",
                                  "--T", "50", "--reps", "200", "--seed", "5"], 0),
        # recorded before ou and hazard shared one Monte Carlo path
        "hazard_thm7_case2": (["hazard", "--theorem", "7", "--case", "2", "--T", "50",
                               "--reps", "200", "--seed", "5"], 1),
        "hazard_thm7_case3": (["hazard", "--theorem", "7", "--case", "3", "--T", "50",
                               "--reps", "200", "--seed", "5"], 1),
        "ou_thm5_lam2": (["ou", "--theorem", "5", "--lambda", "2", "--T", "30",
                          "--reps", "200", "--seed", "3"], 1),
        # lam T = 800: the first run with atoms whose e^{lam (x - T)} is subnormal
        "ou_thm5_T800": (["ou", "--theorem", "5", "--lambda", "1", "--T", "800",
                          "--reps", "100", "--seed", "7"], 1),
        # block_n10.csv carries E G^2 in its m4 column
        "block_n10": (["block", "--n", "10", "--reps", "2000", "--seed", "5"], 1),
        # the extended-Gamma case at the hazard-egamma-T1e4 benchmark's
        # horizon, about 45k atoms per pattern; recorded before its sampler
        # computed b(v) only below the full-span point
        "hazard_thm7_case2_T10000": (["hazard", "--theorem", "7", "--case", "2",
                                      "--T", "10000", "--reps", "8", "--seed", "5"], 1),
        # the one golden whose config hash is not the empty file's
        "hazard_thm7_case2_config": (["hazard", "--theorem", "7", "--case", "2", "--T", "50",
                                      "--reps", "200", "--seed", "5", "--config",
                                      str(Path(__file__).parents[1] / "configs"
                                          / "extended_gamma.cfg")], 1),
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_outputs_are_byte_identical(self, tmp_path, run, workers):
        argv, code = self.RUNS[run]
        rc = main([*argv, "--format", "csv", "--dump", "--workers", workers,
                   "--out", str(tmp_path)])
        assert rc == code
        want = sorted(p.name for p in (GOLDEN / run).iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == want
        for name in want:
            assert (tmp_path / name).read_bytes() == (GOLDEN / run / name).read_bytes(), name
        report = json.loads(next(tmp_path.glob("*.json")).read_text())
        if run == "block_n10":
            # the one exit code that is not the report's verdict: block's
            # judges the fourth moment, its JSON `passed` the KS distance
            gap = abs(report["fourth_moment_mc"] - report["fourth_moment_target"])
            assert (rc == 0) == (gap <= 0.15)
        else:
            assert (rc == 0) == all(_passed_flags(report))


class TestHelpText:
    """--help of the top level and of every subcommand at 100 columns.  The
    top level, block and ou print as argparse printed them before the
    subcommands shared a parent parser, less the --tol flag, since removed;
    criterion, hazard and sample were re-recorded when criterion and sample
    lost the replication flags (--reps, --format, --workers, --dump) and
    hazard lost --eps."""

    @pytest.mark.parametrize("command", ["", "criterion", "block", "ou", "hazard", "sample"])
    def test_help_is_byte_identical(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "100")
        assert main([*command.split(), "--help"]) == 0
        want = (GOLDEN / "help" / f"{command or 'top'}.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == want


class TestSubcommandParser:
    """A run whose first argument names a subcommand builds that
    subcommand's parser alone; it prints and parses as the full parser's
    subparser for it."""

    REQUIRED = {"criterion": ["--family", "block"], "block": [], "ou": ["--theorem", "5"],
                "hazard": ["--theorem", "7"], "sample": []}

    def test_a_criterion_run_constructs_one_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        rc = main(["criterion", "--family", "block", "--indices", "10,30", "--out", str(tmp_path)])
        assert rc in (0, 1) and (tmp_path / "criterion_block.json").exists()
        assert built == ["poisson-chaos criterion"]

    @pytest.mark.parametrize("name", sorted(REQUIRED))
    def test_help_and_parse_match_the_full_parser(self, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "100")
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        direct = cli.subcommand_parser(name)
        assert direct.format_help() == sub.choices[name].format_help()
        argv = [*self.REQUIRED[name], "--seed", "4", "--out", "o"]
        assert vars(direct.parse_args(argv)) == vars(build_parser().parse_args([name, *argv]))


class TestGoldenSamples:
    """pattern.csv of `sample --config` for every control family, recorded
    before the jump-range window was removed, when the window came from a
    [window] section; it now comes from --x-lo/--x-hi alone.  The
    extended-Gamma cases cover both branches of its x-interval (beta1 > 0
    and beta1 = 0)."""

    CONFIGS = {
        "discrete": ("[control]\ntype = discrete\nvalues = 1.0,-1.0\nweights = 0.5,0.5\n",
                     "-2.0", "30.0", "11"),
        "generalized_gamma": ("[control]\ntype = generalized-gamma\nsigma = 0.5\ngamma = 1.0\n"
                              "eps = 0.01\n", "0.0", "20.0", "12"),
        "extended_gamma": ("[control]\ntype = extended-gamma\nbeta0 = 1.0\nbeta1 = 1.0\n"
                           "eps = 1e-3\n", "2.0", "40.0", "13"),
        "extended_gamma_flat": ("[control]\ntype = extended-gamma\nbeta0 = 2.0\nbeta1 = 0.0\n"
                                "eps = 1e-3\n", "1.0", "30.0", "14"),
        "beta": ("[control]\ntype = beta\nc0 = 1.0\nc1 = 1.0\n", "0.5", "40.0", "15"),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_pattern_is_byte_identical(self, tmp_path, name):
        text, x_lo, x_hi, seed = self.CONFIGS[name]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        rc = main(["sample", "--config", str(cfg), f"--x-lo={x_lo}", "--x-hi", x_hi,
                   "--seed", seed, "--out", str(tmp_path)])
        assert rc == 0
        got = (tmp_path / "pattern.csv").read_bytes()
        assert got == (GOLDEN / "sample" / f"{name}.csv").read_bytes()

    def test_extended_gamma_sample_reports_its_truncation(self, tmp_path, capsys):
        # the jumps below eps drop int_0^eps u e^{-beta0 u} du = 4.9967e-7
        # of second-moment mass per unit time
        text, x_lo, x_hi, seed = self.CONFIGS["extended_gamma"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        rc = main(["sample", "--config", str(cfg), f"--x-lo={x_lo}", "--x-hi", x_hi,
                   "--seed", seed, "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.rstrip().endswith("neglected second-moment mass 4.997e-07)")
        got = (tmp_path / "pattern.csv").read_bytes()
        assert got == (GOLDEN / "sample" / "extended_gamma.csv").read_bytes()

    def test_beta_window_below_zero_fails_before_sampling(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIGS["beta"][0], encoding="utf-8")
        monkeypatch.setattr(cli, "sample_pattern", lambda *a: pytest.fail("a pattern was sampled"))
        rc = main(["sample", "--config", str(cfg), "--x-lo=-1", "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == ["invalid request: Beta control is supported on x > 0"]
        assert not (tmp_path / "out").exists()

    def test_default_control_pattern_is_byte_identical(self, tmp_path):
        # no config: the unit-jump control, the one-point law sample uses
        # by default
        rc = main(["sample", "--x-hi", "25", "--seed", "9", "--out", str(tmp_path)])
        assert rc == 0
        got = (tmp_path / "pattern.csv").read_bytes()
        assert got == (GOLDEN / "sample" / "unit.csv").read_bytes()


class TestNonFiniteWindow:
    """A window bound that is not finite is refused by Window itself, with
    a message naming the bound."""

    @pytest.mark.parametrize("flag, value", [
        ("--x-hi", "inf"), ("--x-lo", "-inf"), ("--x-hi", "nan"), ("--x-lo", "nan"),
    ])
    def test_flag_is_a_usage_error(self, tmp_path, capsys, flag, value):
        rc = main(["sample", f"{flag}={value}", "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        name = flag[2:].replace("-", "_")
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"invalid request: window bound {name} must be finite, got {value}"]
        assert not (tmp_path / "out").exists()


class TestNonFiniteControl:
    """A control parameter that is not finite is refused by the control
    itself, with a message naming the parameter, and a [control] key that
    its type has no field for by configio: a configuration error before any
    replication or sampling, and before any file is written."""

    HAZARD7 = ["hazard", "--theorem", "7", "--T", "20", "--reps", "20", "--case"]

    @pytest.mark.parametrize("argv, section, message", [
        (["sample"], "type = discrete\nvalues = 1.0,nan\nweights = 0.5,0.5",
         "discrete jump values must be finite, got nan"),
        (HAZARD7 + ["1"], "type = discrete\nvalues = 1.0,nan\nweights = 0.5,0.5",
         "discrete jump values must be finite, got nan"),
        (["sample"], "type = discrete\nvalues = 1.0,inf\nweights = 0.5,0.5",
         "discrete jump values must be finite, got inf"),
        (HAZARD7 + ["1"], "type = discrete\nvalues = 1.0,2.0\nweights = 0.5,nan",
         "discrete jump weights must be finite, got nan"),
        (["sample"], "type = discrete\nvalues = 1.0,2.0\nweights = inf,0.5",
         "discrete jump weights must be finite, got inf"),
        (["sample"], "type = extended-gamma\nbeta0 = nan",
         "beta0 must be positive and finite, got nan"),
        (HAZARD7 + ["2"], "type = extended-gamma\nbeta1 = inf",
         "beta1 must be nonnegative and finite, got inf"),
        (HAZARD7 + ["3"], "type = beta\nc1 = nan", "c1 must be positive and finite, got nan"),
        (["sample"], "type = beta\nc0 = inf", "c0 must be positive and finite, got inf"),
        (["sample"], "type = generalized-gamma\nsigma = 0.5\ngamma = nan\neps = 0.01",
         "gamma must be positive and finite, got nan"),
        (HAZARD7 + ["1"], "type = generalized-gamma\nsigma = 0.5\ngamma = inf\neps = 0.01",
         "gamma must be positive and finite, got inf"),
        # a misspelled key: the control would silently take its default
        (HAZARD7 + ["3"], "type = beta\nc_1 = 3", "unknown keys c_1"),
        (HAZARD7 + ["2"], "type = extended-gamma\nbeta_0 = 1", "unknown keys beta_0"),
        (["sample"], "type = extended-gamma\nepsilon = 1e-3", "unknown keys epsilon"),
        (HAZARD7 + ["1"], "type = generalized-gamma\nsigma = 0.5\ngamma = 1\nepsilon = 0.01",
         "unknown keys epsilon"),
        (["sample"], "type = discrete\nvalue = 1.0\nweights = 1.0", "unknown keys value"),
    ], ids=["sample-values-nan", "hazard-values-nan", "sample-values-inf",
            "hazard-weights-nan", "sample-weights-inf", "sample-beta0-nan",
            "hazard-beta1-inf", "hazard-c1-nan", "sample-c0-inf", "sample-gamma-nan",
            "hazard-gamma-inf", "hazard-c_1", "hazard-beta_0", "sample-epsilon",
            "hazard-epsilon", "sample-value"])
    def test_parameter_is_a_configuration_error(self, tmp_path, monkeypatch, capsys,
                                                argv, section, message):
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        monkeypatch.setattr(cli, "sample_pattern", lambda *a: pytest.fail("a pattern was sampled"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[control]\n{section}\n", encoding="utf-8")
        rc = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            f"configuration error: bad [control] section: {message}"]
        assert not (tmp_path / "out").exists()


def _choice_argvs():
    """One small run per argparse choice of --family, --theorem and --case."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    small = {"criterion": ["--indices", "50,100,200"],
             "ou": ["--T", "10", "--reps", "100"],
             "hazard": ["--T", "20", "--reps", "20"]}
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest not in ("family", "theorem", "case"):
                continue
            for choice in action.choices:
                extra = ["--theorem", "7"] if action.dest == "case" else []
                yield [command, action.option_strings[0], str(choice), *extra,
                       *small[command], "--seed", "3"]


class TestChoiceMatrix:
    @pytest.mark.parametrize("argv", list(_choice_argvs()), ids=" ".join)
    def test_every_choice_writes_its_report(self, tmp_path, argv):
        rc = main([*argv, "--out", str(tmp_path)])
        assert rc in (0, 1)
        reports = list(tmp_path.glob("*.json"))
        assert len(reports) == 1 and json.loads(reports[0].read_text())["master_seed"] == 3

    def test_matrix_covers_every_choice(self):
        flags = {(argv[0], argv[1], argv[2]) for argv in _choice_argvs()}
        assert ("hazard", "--case", "3") in flags and ("ou", "--theorem", "6") in flags
        assert ("criterion", "--family", "ou-pair-unit") in flags and len(flags) == 12

    @pytest.mark.parametrize("argv", [
        ["hazard", "--theorem", "7", "--case", "4"],
        ["hazard", "--theorem", "9"],
        ["ou", "--theorem", "9"],
        ["criterion", "--family", "nope"],
        ["hazard", "--theorem", "8", "--variant", "bogus"],
    ], ids=" ".join)
    def test_out_of_range_choice_is_a_usage_error(self, tmp_path, capsys, argv):
        rc = main([*argv, "--reps", "20", "--out", str(tmp_path)])
        assert rc == USAGE_ERROR
        err = capsys.readouterr().err
        assert "invalid choice" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("control, argv, message", [
        ("beta", ["--theorem", "7", "--case", "2"], "case 2 needs the extended-Gamma control"),
        ("extended-gamma", ["--theorem", "8"], "need a homogeneous control"),
        ("beta", ["--theorem", "8", "--variant", "centered"], "need a homogeneous control"),
        ("beta", ["--theorem", "7", "--case", "1"], "case 1 needs a homogeneous control"),
        # cases 2 and 3 are stated for beta(x) = 1 + sqrt(x) and c(x) ~ sqrt(x)
        pytest.param("extended-gamma\nbeta1 = 0", ["--theorem", "7", "--case", "2"],
                     "case 2 is stated for beta(x) = 1 + sqrt(x): beta0 = beta1 = 1, got 1, 0",
                     id="case2-beta1-0"),
        pytest.param("extended-gamma\nbeta0 = 2", ["--theorem", "7", "--case", "2"],
                     "beta0 = beta1 = 1, got 2, 1", id="case2-beta0-2"),
        pytest.param("extended-gamma\nbeta1 = 1.5", ["--theorem", "7", "--case", "2"],
                     "beta0 = beta1 = 1, got 1, 1.5", id="case2-beta1-1.5"),
        pytest.param("beta\nc1 = 2", ["--theorem", "7", "--case", "3"],
                     "case 3 is stated for c(x) ~ sqrt(x): c1 = 1, got 2", id="case3-c1-2"),
    ])
    def test_mismatched_control_fails_before_any_replication(self, tmp_path, monkeypatch,
                                                             capsys, control, argv, message):
        for rep in ("rep_linear_case", "rep_quadratic"):
            monkeypatch.setattr(hazard, rep, lambda *a: pytest.fail("a replication ran"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[control]\ntype = {control}\n", encoding="utf-8")
        rc = main(["hazard", *argv, "--T", "20", "--reps", "20", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("invalid request: ") and message in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case, control", [
        (2, "extended-gamma\nbeta0 = 1\nbeta1 = 1\neps = 1e-3"),
        (3, "beta\nc0 = 0.5\nc1 = 1"),   # c0 only floors c near x = 0
    ], ids=["case2", "case3"])
    def test_cases_2_and_3_run_with_their_stated_control(self, tmp_path, case, control):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[control]\ntype = {control}\n", encoding="utf-8")
        rc = main(["hazard", "--theorem", "7", "--case", str(case), "--T", "20", "--reps", "20",
                   "--seed", "3", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc in (0, 1)
        payload = json.loads((tmp_path / "out" / f"hazard_thm7_case{case}_T20.json").read_text())
        assert payload["replications"] == 20

    def test_case1_runs_with_a_homogeneous_generalized_gamma_control(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[control]\ntype = generalized-gamma\nsigma = 0.5\ngamma = 1.0\n"
                       "eps = 0.01\n", encoding="utf-8")
        rc = main(["hazard", "--theorem", "7", "--case", "1", "--T", "20", "--reps", "20",
                   "--seed", "3", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc in (0, 1)
        payload = json.loads((tmp_path / "out" / "hazard_thm7_case1_T20.json").read_text())
        assert payload["replications"] == 20

    @pytest.mark.parametrize("argv", [
        ["ou", "--theorem", "5", "--lam", "nan"],
        ["ou", "--theorem", "5", "--lam", "inf"],
        ["ou", "--theorem", "4", "--T", "nan"],
        ["ou", "--theorem", "6", "--T", "inf"],
        ["hazard", "--theorem", "7", "--T", "inf"],
        ["hazard", "--theorem", "8", "--tau", "inf"],
        ["block", "--n", "0"],
        ["block", "--n", "-3"],
    ], ids=" ".join)
    def test_out_of_range_value_fails_before_any_replication(self, tmp_path, monkeypatch,
                                                             capsys, argv):
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        rc = main([*argv, "--reps", "100", "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("invalid request: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("T", ["1", "0.5"])
    def test_case2_needs_a_horizon_above_one(self, tmp_path, monkeypatch, capsys, T):
        # the case-2 scale sqrt(log T) is 0 at T = 1 and undefined below it
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        rc = main(["hazard", "--theorem", "7", "--case", "2", "--T", T, "--reps", "20",
                   "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert err == [f"invalid request: case 2 needs T > 1 (its scale is sqrt(log T)), got {T}"]
        assert captured.out == ""   # not even the truncation diagnostic
        assert not (tmp_path / "out").exists()

    def test_accepted_case2_run_prints_the_truncation_diagnostic(self, tmp_path, capsys):
        rc = main(["hazard", "--theorem", "7", "--case", "2", "--T", "5", "--reps", "20",
                   "--seed", "5", "--out", str(tmp_path)])
        assert rc in (0, 1)
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("neglected mean mass from eps-truncation: ~")
        assert out[1].startswith("hazard theorem 7: ") and len(out) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_out_of_range_eps_fails_before_any_replication(self, tmp_path, monkeypatch,
                                                           capsys, eps):
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        (tmp_path / "run.cfg").write_text(f"[control]\ntype = extended-gamma\neps = {eps}\n",
                                          encoding="utf-8")
        rc = main(["hazard", "--theorem", "7", "--case", "2", "--config", str(tmp_path / "run.cfg"),
                   "--reps", "100", "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["configuration error: bad [control] section: "
                       "eps must be nonnegative and finite"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, config", [
        (["--case", "2"], "[control]\ntype = extended-gamma\neps = 0\n"),
        (["--case", "1"], "[control]\ntype = generalized-gamma\nsigma = 0.5\ngamma = 1.0\n"
                          "eps = 0\n"),
    ], ids=["case2-extended-gamma-config", "case1-generalized-gamma-config"])
    def test_untruncated_control_fails_before_any_replication(self, tmp_path, monkeypatch,
                                                              capsys, argv, config):
        # eps = 0 leaves the Gamma controls with infinite mass: a usage error
        # naming eps, not a crash in replication 0
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        rc = main(["hazard", "--theorem", "7", *argv, "--config", str(tmp_path / "run.cfg"),
                   "--T", "20", "--reps", "20", "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("invalid request: ")
        assert "(eps = 0)" in err[0]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_ou_theorem4_needs_100_replications(self, tmp_path, capsys):
        rc = main(["ou", "--theorem", "4", "--T", "10", "--reps", "50", "--out", str(tmp_path)])
        assert rc == USAGE_ERROR
        assert capsys.readouterr().err.strip() == "invalid request: need at least 100 replications"

    @pytest.mark.parametrize("argv, window, mean", [
        (["hazard", "--theorem", "7", "--case", "1", "--T", "1e15"], "[0, 1e+15]", "1e+15"),
        (["hazard", "--theorem", "7", "--case", "2", "--T", "1e15"], "[0, 1e+15]", "1e+08"),
        (["hazard", "--theorem", "7", "--case", "3", "--T", "1e15"], "[0, 1e+15]", "1e+15"),
        (["hazard", "--theorem", "8", "--T", "1e15"], "[0, 1e+15]", "1e+15"),
        (["ou", "--theorem", "5", "--lambda", "1e-9"], "[-1.2e+10, 200]", "1.2e+10"),
        (["ou", "--theorem", "4", "--T", "1e15"], "[-12, 1e+15]", "1e+15"),
        (["block", "--n", str(10**15)], "[0, 1e+15]", "1e+15"),
        (["sample", "--x-hi", "1e15"], "[0, 1e+15]", "1e+15"),
    ], ids=" ".join)
    def test_pattern_over_the_atom_budget_fails_before_any_replication(
            self, tmp_path, monkeypatch, capsys, argv, window, mean):
        # petabytes of atoms per replication: refused from the sampler's
        # Poisson mean, before any pattern is sampled
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        monkeypatch.setattr(cli, "sample_pattern", lambda *a: pytest.fail("a pattern was sampled"))
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            f"invalid request: a pattern on x in {window} has {mean} atoms on average, "
            f"over the budget of 1e+07 per replication"]
        assert not (tmp_path / "out").exists()


class TestConfigSections:
    """Every subcommand reads [experiment], hazard and sample also
    [control]; any other section, an [experiment] key the subcommand has
    no flag for (seed everywhere, reps for block, ou and hazard) and an
    [experiment] value that is not an integer are usage errors before any
    replication."""

    CONTROL = "[control]\ntype = discrete\nvalues = 1.5,-0.5\nweights = 0.375,0.625\n"

    @pytest.mark.parametrize("argv, text, message", [
        (["ou", "--theorem", "5", "--T", "30"], CONTROL,
         "ou does not read a [control] section"),
        (["block", "--n", "10"], CONTROL, "block does not read a [control] section"),
        (["criterion", "--family", "block", "--indices", "10,30"], CONTROL,
         "criterion does not read a [control] section"),
        (["hazard", "--theorem", "7", "--case", "1", "--T", "20"],
         "[window]\nx_lo = 0.0\nx_hi = 10.0\n", "hazard does not read a [window] section"),
        (["hazard", "--theorem", "7", "--case", "1", "--T", "20"],
         "[experiment]\nseed = 5\nrep = 200\n", "bad [experiment] section: unknown keys rep"),
        (["sample", "--x-hi", "25"], "[window]\nx_lo = 0.0\nx_hi = 10.0\n",
         "sample does not read a [window] section"),
        (["criterion", "--family", "block", "--indices", "10,30"],
         "[experiment]\nseed = 5\nreps = 200\n", "bad [experiment] section: unknown keys reps"),
        (["sample", "--x-hi", "25"], "[experiment]\nseed = 5\nreps = 200\n",
         "bad [experiment] section: unknown keys reps"),
        (["hazard", "--theorem", "7", "--case", "1", "--T", "20"],
         "[experiment]\nseed = 1.5\n", "bad [experiment] section: seed must be an integer, "
         "got '1.5'"),
        (["ou", "--theorem", "5", "--T", "30", "--seed", "3"], "[experiment]\nreps = 2e3\n",
         "bad [experiment] section: reps must be an integer, got '2e3'"),
    ], ids=["ou-control", "block-control", "criterion-control", "hazard-window",
            "experiment-typo", "sample-window", "criterion-reps", "sample-reps",
            "seed-not-integer", "reps-not-integer"])
    def test_unread_section_fails_before_any_replication(self, tmp_path, monkeypatch, capsys,
                                                         argv, text, message):
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        monkeypatch.setattr(cli.chaos, "clt_criterion", lambda *a, **k: pytest.fail("ran"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        rc = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"configuration error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_example_config_is_a_sample_config(self, tmp_path, capsys):
        example = Path(__file__).parents[1] / "configs" / "example.cfg"
        rc = main(["ou", "--theorem", "4", "--config", str(example), "--out", str(tmp_path)])
        assert rc == USAGE_ERROR and not list(tmp_path.iterdir())
        rc = main(["sample", "--config", str(example), "--out", str(tmp_path)])
        assert rc == 0 and (tmp_path / "pattern.csv").exists()

    def test_hazard_runs_with_an_experiment_only_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[experiment]\nseed = 5\nreps = 200\n", encoding="utf-8")
        argv = ["hazard", "--theorem", "7", "--case", "1", "--T", "40"]
        rc = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "a")])
        assert rc in (0, 1)
        got = json.loads((tmp_path / "a" / "hazard_thm7_case1_T40.json").read_text())
        assert got["master_seed"] == 5 and got["replications"] == 200
        # the same run as the flags give it, with the default control
        assert main([*argv, "--seed", "5", "--reps", "200", "--out", str(tmp_path / "b")]) == rc
        want = json.loads((tmp_path / "b" / "hazard_thm7_case1_T40.json").read_text())
        assert got["config_hash"] != want["config_hash"]
        del got["config_hash"], want["config_hash"]
        assert got == want

    def test_sample_runs_with_an_experiment_only_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[experiment]\nseed = 9\n", encoding="utf-8")
        for out, extra in (("a", ["--config", str(cfg)]), ("b", ["--seed", "9"])):
            assert main(["sample", "--x-hi", "25", *extra, "--out", str(tmp_path / out)]) == 0
        assert ((tmp_path / "a" / "pattern.csv").read_bytes()
                == (tmp_path / "b" / "pattern.csv").read_bytes())


class TestOneSourcePerValue:
    """Each value a subcommand takes has one source: the replication flags
    exist only where replications run, the hazard control comes only from
    [control] and the sample window only from flags.  Every refusal is a
    usage error that writes nothing."""

    CRITERION = ["criterion", "--family", "block", "--indices", "10,30"]

    @pytest.mark.parametrize("argv, flags", [
        *[(argv, flags) for argv in (CRITERION, ["sample", "--x-hi", "25"])
          for flags in (["--reps", "7"], ["--workers", "2"], ["--format", "csv"], ["--dump"])],
        (["hazard", "--theorem", "7", "--case", "2"], ["--eps", "1e-3"]),
    ], ids=lambda v: " ".join(v) if v[0].startswith("--") else v[0])
    def test_flag_is_unrecognized(self, tmp_path, capsys, argv, flags):
        rc = main([*argv, *flags, "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [CRITERION, ["sample", "--x-hi", "25"]], ids=lambda v: v[0])
    def test_unrecognized_flag_shows_the_subcommand_usage(self, tmp_path, capsys, argv):
        rc = main([*argv, "--reps", "7", "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"usage: poisson-chaos {argv[0]} ")
        assert err.endswith(f"poisson-chaos {argv[0]}: error: unrecognized arguments: --reps 7\n")

    def test_flag_before_the_subcommand_shows_the_top_level_usage(self, tmp_path, capsys):
        # block takes --dump, but only after its name
        rc = main(["--dump", "block", "--n", "5", "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: poisson-chaos [-h] ")
        assert err.endswith("poisson-chaos: error: unrecognized arguments: --dump\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, experiment, got", [
        (["ou", "--theorem", "5", "--T", "20", "--reps", "1"], None, "reps = 1, workers = 1"),
        (["block", "--n", "10", "--reps", "0"], None, "reps = 0, workers = 1"),
        (["hazard", "--theorem", "8", "--T", "20"], "reps = 1", "reps = 1, workers = 1"),
        (["ou", "--theorem", "5", "--T", "20", "--workers", "0"], None,
         "reps = 5000, workers = 0"),
        (["hazard", "--theorem", "7", "--T", "20", "--workers", "-3"], "reps = 200",
         "reps = 200, workers = -3"),
    ], ids=["ou-reps-1", "block-reps-0", "hazard-experiment-reps-1", "ou-workers-0",
            "hazard-workers-negative"])
    def test_too_few_replications_or_workers_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                              argv, experiment, got):
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        if experiment is not None:
            (tmp_path / "run.cfg").write_text(f"[experiment]\n{experiment}\n", encoding="utf-8")
            argv = [*argv, "--config", str(tmp_path / "run.cfg")]
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"invalid request: need at least two replications and one worker, got {got}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["criterion", "--family", "block", "--indices", "10,30"],
        ["block", "--n", "10", "--reps", "20"],
        ["ou", "--theorem", "5", "--T", "20", "--reps", "20"],
        ["hazard", "--theorem", "7", "--T", "20", "--reps", "20"],
        ["sample", "--x-hi", "25"],
    ], ids=lambda v: v[0])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, source):
        # no Monte Carlo run can reproduce a report stamped with such a seed
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        monkeypatch.setattr(cli.chaos, "clt_criterion", lambda *a, **k: pytest.fail("ran"))
        if source == "flag":
            argv = [*argv, "--seed", "-3"]
        else:
            (tmp_path / "run.cfg").write_text("[experiment]\nseed = -3\n", encoding="utf-8")
            argv = [*argv, "--config", str(tmp_path / "run.cfg")]
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            "invalid request: the master seed must be a nonnegative integer, got seed = -3"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, unread", [
        (["--theorem", "7", "--variant", "centered"], "variant"),
        (["--theorem", "7", "--case", "1", "--variant", "raw"], "variant"),
        (["--theorem", "8", "--case", "2"], "case"),
        (["--theorem", "8", "--case", "1", "--variant", "centered"], "case"),
    ], ids=" ".join)
    def test_hazard_flag_the_theorem_does_not_read_is_a_usage_error(
            self, tmp_path, monkeypatch, capsys, flags, unread):
        monkeypatch.setattr(cli, "collect", lambda *a: pytest.fail("a replication ran"))
        rc = main(["hazard", *flags, "--T", "20", "--reps", "20", "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            f"invalid request: hazard theorem {flags[1]} takes no --{unread}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family", ["block", "fixed"])
    def test_criterion_lam_without_a_rate_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                            family):
        # the block and fixed families have no rate: --lam would change nothing
        monkeypatch.setattr(cli.chaos, "clt_criterion", lambda *a, **k: pytest.fail("ran"))
        rc = main(["criterion", "--family", family, "--indices", "10,30", "--lam", "2",
                   "--out", str(tmp_path / "out")])
        assert rc == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            f"invalid request: criterion --family {family} takes no --lam"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("theorem, default", [("7", ["--case", "1"]),
                                                  ("8", ["--variant", "raw"])])
    def test_hazard_theorem_reads_its_default_flag(self, tmp_path, theorem, default):
        argv = ["hazard", "--theorem", theorem, "--T", "20", "--reps", "20", "--seed", "3"]
        codes = [main([*argv, *extra, "--out", str(tmp_path / name)])
                 for name, extra in (("a", []), ("b", default))]
        assert codes[0] == codes[1] and codes[0] in (0, 1)
        (report,) = (tmp_path / "a").iterdir()
        assert report.read_bytes() == (tmp_path / "b" / report.name).read_bytes()


GOLDEN = Path(__file__).parent / "golden"


def _passed_flags(node) -> list:
    """Every `passed` value anywhere in a JSON report."""
    if isinstance(node, list):
        return [flag for item in node for flag in _passed_flags(item)]
    if not isinstance(node, dict):
        return []
    return ([node["passed"]] if "passed" in node else []) + _passed_flags(list(node.values()))


def _assert_close(got, want, path="$"):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert got == want, path

"""Tests for the command-line front end.

Mostly in-process through ``main(argv)`` (fast, assertable); two
subprocess smoke tests confirm the module and console-script entry
points are wired up.
"""

import contextlib
import io
import math
import re
import shutil
import string
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import demo_scenario, make_scenario
from qcc import channel, cli, scenario, signalling
from qcc.cli import (
    CSV_HEADER,
    Row,
    SweepSpec,
    apply_sweep_parameter,
    compute_row,
    main,
)
from qcc.config import CONFIG_KEYS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DEMO_CFG = str(CONFIGS / "demo_2p1.cfg")
SPACELIKE_CFG = str(CONFIGS / "spacelike_2p1.cfg")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def stdout_floats(out):
    """Parse the 'label = value' lines of point/capacity output."""
    values = {}
    for line in out.splitlines():
        if "= " not in line:
            continue
        label, _, raw = line.partition("= ")
        try:
            values[label.strip()] = float(raw)
        except ValueError:
            pass
    return values


def shipped_with(name, values):
    """The text of a shipped config with the given keys' lines replaced."""
    lines = (CONFIGS / f"{name}.cfg").read_text().splitlines()
    for key, value in values.items():
        (i,) = [i for i, line in enumerate(lines)
                if line.startswith(f"{key} = ")]
        lines[i] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def usage_error(capsys, *argv):
    """Exit code and stderr of a command line argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def csv_rows(out):
    lines = out.splitlines()
    start = lines.index(CSV_HEADER)
    rows = []
    for line in lines[start + 1:]:
        if "," not in line:
            break
        rows.append(line)
    return rows


class TestPointVerb:
    def test_reference_run(self, capsys):
        rc, out, _ = run_cli(capsys, "point", DEMO_CFG)
        assert rc == 0
        assert CSV_HEADER in out
        assert "causal class   : TIMELIKE" in out
        (row,) = csv_rows(out)
        # first 16 digits of s2 are backend-independent
        assert row.startswith("5,0.0102247348907951")
        assert row.endswith(",ok")

    def test_spacelike_run_is_all_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "point", SPACELIKE_CFG)
        assert rc == 0
        (row,) = csv_rows(out)
        fields = row.split(",")
        assert all(float(f) == 0.0 for f in fields[1:7])
        assert fields[7] == "ok"
        values = stdout_floats(out)
        assert values["success"] == 0.5
        assert values["capacity_closed"] == 0.0

    def test_env_tolerance_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("QCC_QUAD_TOL", "1e-4")
        rc, out, _ = run_cli(capsys, "point", DEMO_CFG)
        assert rc == 0
        assert "quad tolerance : 0.0001" in out

    def test_missing_config_exits_1(self, capsys):
        rc, _, err = run_cli(capsys, "point", "/no/such/file.cfg")
        assert rc == 1
        assert "error" in err

    def test_invalid_scenario_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(shipped_with("demo_2p1", {"bob.t_on": "2"}))
        rc, _, err = run_cli(capsys, "point", str(path))
        assert rc == 1
        assert "before bob switches on" in err

    def test_garbage_tolerance_env_exits_1(self, capsys, monkeypatch):
        for value in ("quick", "nan", "inf"):
            monkeypatch.setenv("QCC_QUAD_TOL", value)
            rc, out, err = run_cli(capsys, "point", DEMO_CFG)
            assert rc == 1
            assert out == ""
            assert "QCC_QUAD_TOL" in err

    def test_readme_block_is_what_point_prints(self, capsys, monkeypatch):
        # the block README shows for `qcc point configs/demo_2p1.cfg` is
        # the head of what the verb prints
        monkeypatch.delenv("QCC_QUAD_TOL", raising=False)
        readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
        _, _, after = readme.partition(
            "`qcc point configs/demo_2p1.cfg` prints")
        block = after.split("```\n", 2)[1]
        assert "status     = ok" in block and CSV_HEADER in block
        assert cli.run_point(DEMO_CFG) == 0
        assert capsys.readouterr().out.startswith(block)

    @pytest.mark.parametrize("name", ["demo_1p1", "demo_2p1", "demo_3p1",
                                      "spacelike_2p1"])
    def test_channel_reuses_the_rows_s2(self, capsys, monkeypatch, name):
        calls = []
        s2_observable = channel.s2_observable

        def counted(*args, **kwargs):
            calls.append(args)
            return s2_observable(*args, **kwargs)

        monkeypatch.setattr(channel, "s2_observable", counted)
        assert cli.run_point(str(CONFIGS / f"{name}.cfg")) == 0
        assert calls == []

    def test_rejected_s2_still_fails_the_channel(self, capsys, tmp_path):
        # Bob switching on at T_off,A + L puts the 3+1D on-cone delta on
        # the lags' lower end, a switching edge, so s2 is rejected; the
        # channel layer asks for it again, and that raises
        path = tmp_path / "edge_3p1.cfg"
        path.write_text(shipped_with("demo_3p1", {"bob.t_on": "4"}))
        rc, out, err = run_cli(capsys, "point", str(path))
        assert rc == 1
        assert "rejected:s2" in out
        assert "switching edge" in err

    def test_3p1_crossing_row_takes_the_on_cone_delta(self, capsys,
                                                       tmp_path):
        # Bob on [3.5, 6.5]: the lags cross L = 1 strictly inside, so s2
        # and hI_on come from the delta, hI_on = -4 bias_B(3.5) c
        # bias_A(2.5); only hf_sig, whose on-cone part is unspecified, is
        # rejected, and the channel takes the row's s2
        path = tmp_path / "crossing_3p1.cfg"
        path.write_text(shipped_with("demo_3p1", {"bob.t_on": "3.5",
                                                  "bob.t_off": "6.5"}))
        rc, out, err = run_cli(capsys, "point", str(path))
        assert (rc, err) == (0, "")
        assert "s2         = -0.030223658809789455\n" in out
        assert "hI_on      = -0.035495819843645332\n" in out
        assert "status     = rejected:hf_sig\n" in out
        rc, out, err = run_cli(capsys, "capacity", str(path))
        assert (rc, err) == (0, "")
        assert stdout_floats(out)["capacity_closed"] > 0.0

    def test_unreachable_tolerance_exits_2(self, capsys, monkeypatch):
        # 1e-16 sits below the roundoff floor of the double integrals:
        # the quadrature must refuse rather than return a pretend answer
        monkeypatch.setenv("QCC_QUAD_TOL", "1e-16")
        rc, out, err = run_cli(capsys, "point", DEMO_CFG)
        assert rc == 2
        (row,) = csv_rows(out)
        assert "numerical:s2" in row
        # a row without an error bound must not claim an exact zero
        assert row.split(",")[6] == "nan"
        assert "failed to converge" in err
        # one reason line per failed observable, after the summary line
        lines = err.splitlines()
        summary = next(i for i, line in enumerate(lines)
                       if "failed to converge" in line)
        failed = [tag.split(":", 1)[1] for tag in row.split(",")[-1].split(";")]
        assert [line.split(":")[0] for line in lines[summary + 1:]] == failed
        assert lines[summary + 1].startswith("s2: roundoff: ")
        # the reason names the tolerance the user set, not a piece's share
        assert "tol 1.000e-16 " in lines[summary + 1]


class TestSweepVerb:
    def sweep(self, capsys, tmp_path, name, *extra):
        out_path = tmp_path / name
        rc, out, err = run_cli(
            capsys, "sweep", DEMO_CFG, "--param", "bob_t_on",
            "--range", "4.5:5.3:0.2", "--out", str(out_path), *extra)
        assert rc == 0, err
        return out_path.read_bytes()

    def test_csv_contract(self, capsys, tmp_path):
        data = self.sweep(capsys, tmp_path, "a.csv")
        assert b"\r" not in data
        assert data.endswith(b"\n")
        lines = data.decode("ascii").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        params = [float(line.split(",")[0]) for line in lines[1:]]
        assert params == sorted(params)
        assert params[0] == 4.5 and params[-1] == pytest.approx(5.3)
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            assert fields[7] == "ok"

    def test_rerun_and_parallel_byte_identical(self, capsys, tmp_path):
        serial_1 = self.sweep(capsys, tmp_path, "s1.csv")
        serial_2 = self.sweep(capsys, tmp_path, "s2.csv")
        parallel = self.sweep(capsys, tmp_path, "p.csv", "--jobs", "2")
        assert serial_1 == serial_2
        assert serial_1 == parallel

    def test_sweep_row_equals_point_row(self, capsys, tmp_path):
        out_path = tmp_path / "match.csv"
        rc, _, _ = run_cli(
            capsys, "sweep", DEMO_CFG, "--param", "bob_t_on",
            "--range", "5:5.4:0.2", "--out", str(out_path))
        assert rc == 0
        sweep_row = out_path.read_text().splitlines()[1]
        rc, out, _ = run_cli(capsys, "point", DEMO_CFG)
        assert rc == 0
        (point_row,) = csv_rows(out)
        assert sweep_row == point_row

    def test_rows_annotated_not_dropped(self, capsys, tmp_path):
        out_path = tmp_path / "ann.csv"
        rc, _, _ = run_cli(
            capsys, "sweep", DEMO_CFG, "--param", "bob_t_on",
            "--range", "2:4:1", "--out", str(out_path))
        assert rc == 0
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 3
        # bob switching on before alice is done: not a scenario at all
        assert rows[0].endswith("invalid-scenario")
        assert ",nan," in rows[0]
        # windows touching the lightcone: field energy refuses, the
        # other columns still fill in
        for row in rows[1:]:
            assert row.endswith("rejected:hf_sig")
            assert float(row.split(",")[1]) != 0.0

    def test_eval_time_pins_common_time(self, capsys, tmp_path):
        default = self.sweep(capsys, tmp_path, "d.csv")
        at_t2 = self.sweep(capsys, tmp_path, "t2.csv", "--eval-time", "at_T2")
        pinned = self.sweep(capsys, tmp_path, "pin.csv", "--eval-time", "7.0")
        assert at_t2 == default
        assert pinned != default

    def test_nan_eval_time_exits_1(self, capsys, tmp_path):
        # inf used to mean at_T2, and -inf swept rows all rejected
        for value in ("nan", "inf", "-inf"):
            rc, err = usage_error(
                capsys, "sweep", DEMO_CFG, "--param", "bob_t_on",
                "--range", "4.5:5.3:0.2", "--out", str(tmp_path / "bad.csv"),
                "--eval-time", value)
            assert rc == 1
            assert "--eval-time" in err
            assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_exits_1(self, capsys, tmp_path, jobs):
        rc, err = usage_error(
            capsys, "sweep", DEMO_CFG, "--param", "bob_t_on",
            "--range", "4.5:5.3:0.2", "--out", str(tmp_path / "j.csv"),
            "--jobs", jobs)
        assert rc == 1
        assert "--jobs" in err

    def test_jobs_capped_by_rows_and_cpus(self, capsys, tmp_path,
                                          monkeypatch):
        # a stand-in pool: records the worker count, maps in process
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        self.sweep(capsys, tmp_path, "rows.csv", "--jobs", "1000")
        rc, _, _ = run_cli(
            capsys, "sweep", DEMO_CFG, "--param", "bob_t_on",
            "--range", "4.5:4.7:0.2", "--out", str(tmp_path / "two.csv"),
            "--jobs", "1000")
        assert rc == 0
        # 5 rows on 3 cpus, then 2 rows
        assert started == [3, 2]

    def test_separation_sweep_changes_signal(self, capsys, tmp_path):
        out_path = tmp_path / "sep.csv"
        rc, _, _ = run_cli(
            capsys, "sweep", DEMO_CFG, "--param", "separation_L",
            "--range", "0.5:1.5:0.5", "--out", str(out_path))
        assert rc == 0
        rows = out_path.read_text().splitlines()[1:]
        s2_values = [float(r.split(",")[1]) for r in rows]
        assert len(set(s2_values)) == 3

    def test_rows_short_of_the_cone_are_zero(self, capsys, tmp_path):
        # up to T = 6 the lags run from T_on,B - T_off,A = 2 to
        # T - T_on,A = 6: rows with L in (6, 8] cross the cone over the
        # whole windows but not up to T, and read exact zeros
        out_path = tmp_path / "sep.csv"
        rc, _, err = run_cli(
            capsys, "sweep", str(CONFIGS / "demo_3p1.cfg"), "--param",
            "separation_L", "--range", "0.1:9:0.05", "--eval-time", "6",
            "--out", str(out_path))
        assert rc == 0, err
        rows = [r.split(",") for r in out_path.read_text().splitlines()[1:]]
        crossing = [r for r in rows if 2.0 <= float(r[0]) <= 6.0]
        assert len(crossing) == 81
        # every crossing row rejects hf_sig.  s2 and hI take the on-cone
        # delta, rejected only where L is an end of their own lags: s2's
        # [2, 6], hI_on's [2, 5] and hI_off's [3, 6] (the row printed as
        # L = 3.0000000000000004 lies just past 3)
        edges = {2.0: "rejected:s2;rejected:hI_on;", 5.0: "rejected:hI_on;",
                 6.0: "rejected:s2;rejected:hI_off;"}
        assert [r[-1] for r in crossing] == [
            edges.get(float(r[0]), "") + "rejected:hf_sig" for r in crossing]
        assert sum(r[1] != "nan" for r in crossing) == 79
        beyond = [r for r in rows if 6.0 < float(r[0]) <= 8.0]
        assert len(beyond) == 40
        assert all(r[1:] == ["0"] * 6 + ["ok"] for r in beyond)

    def test_negative_separation_exits_1(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        rc, _, err = run_cli(
            capsys, "sweep", DEMO_CFG, "--param", "separation_L",
            "--range=-1:1:0.5", "--out", str(out_path))
        assert rc == 1
        assert err.startswith("qcc: error: ") and "start >= 0" in err
        assert not out_path.exists()

    def test_reversed_range_exits_1(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "sweep", DEMO_CFG, "--param", "gap_B",
            "--range", "5:4:0.1", "--out", str(tmp_path / "x.csv"))
        assert rc == 1
        assert "start < stop" in err

    @pytest.mark.parametrize("spec,message", [
        ("1:2", "range must be start:stop:step"),
        ("a:b:c", "range fields must be numbers"),
    ])
    def test_malformed_range_exits_1(self, capsys, tmp_path, spec, message):
        rc, err = usage_error(capsys, "sweep", DEMO_CFG, "--param", "gap_B",
                              "--range", spec, "--out",
                              str(tmp_path / "x.csv"))
        assert rc == 1
        assert message in err

    def test_missing_out_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", DEMO_CFG, "--param", "gap_B", "--range", "1:2:1"])
        assert exc.value.code == 1

    def test_unwritable_output_exits_1(self, capsys):
        rc, _, err = run_cli(
            capsys, "sweep", DEMO_CFG, "--param", "gap_B",
            "--range", "2:3:1", "--out", "/no/such/dir/out.csv")
        assert rc == 1
        assert "error" in err


class TestSweepSpec:
    def test_grid_includes_stop_on_lattice(self):
        grid = SweepSpec("gap_B", 4.5, 12.0, 0.05).grid()
        assert len(grid) == 151
        assert grid[-1] == pytest.approx(12.0, abs=1e-12)

    def test_grid_excludes_off_lattice_stop(self):
        assert SweepSpec("gap_B", 1.0, 2.0, 0.3).grid() \
            == pytest.approx([1.0, 1.3, 1.6, 1.9])

    @pytest.mark.parametrize("start,stop,step,n", [
        (0.0, 0.9999999999, 0.1, 11),  # start + 10 step rounds to 1.0
        (0.0, 0.3, 0.1, 4),            # and here to 0.30000000000000004
        (4.05, 12.0, 0.05, 160),
        (1e4, 1e6, 1.98e5, 6),
    ])
    def test_grid_ends_on_stop_on_lattice(self, start, stop, step, n):
        grid = SweepSpec("gap_B", start, stop, step).grid()
        assert len(grid) == n
        assert grid[0] == start and grid[-1] == stop

    @given(start=st.floats(0.0, 1e6), span=st.floats(1e-6, 1e6),
           step=st.floats(1e-3, 1e6))
    @example(start=0.0, span=0.9999999999, step=0.1)
    @settings(max_examples=300, deadline=None)
    def test_grid_never_passes_stop(self, start, span, step):
        stop = start + span
        if not (start < stop and span / step <= cli.MAX_GRID_POINTS):
            return
        grid = SweepSpec("gap_B", start, stop, step).grid()
        assert grid[0] == start and grid[-1] <= stop
        assert all(x < y for x, y in zip(grid, grid[1:]))

    def test_grid_points_miss_3p1_switching_edges_by_an_ulp(self):
        # the rows of `sweep demo_3p1.cfg --param separation_L --range
        # 0.1:9:0.05 --eval-time 6` around hI_off's edge L = 3 (where
        # t - L meets Alice's switch-off) and at the edges the grid lands
        # on exactly, L = 2, 5 and 6: a point an ulp past 3 reads the
        # value on that side of the jump, while L = 3 itself is rejected
        base = cli.load_config(str(CONFIGS / "demo_3p1.cfg")).scenario
        grid = SweepSpec("separation_L", 0.1, 9.0, 0.05, 6.0).grid()

        def row(L):
            s = apply_sweep_parameter(base, "separation_L", L)
            return compute_row(s, L, 6.0, 1e-8).to_csv().split(",")

        assert grid[58] == 3.0000000000000004
        assert row(grid[58])[4] == "0.0072184385328256453"
        assert row(grid[57])[4] == "0"  # L = 2.95: t - L past the window
        assert row(3.0)[-1] == "rejected:hI_off;rejected:hf_sig"
        assert {L: row(L)[-1] for L in grid if L in (2.0, 5.0, 6.0)} == {
            2.0: "rejected:s2;rejected:hI_on;rejected:hf_sig",
            5.0: "rejected:hI_on;rejected:hf_sig",
            6.0: "rejected:s2;rejected:hI_off;rejected:hf_sig"}

    @pytest.mark.parametrize("kwargs", [
        dict(parameter="bob_gap", start=0, stop=1, step=0.1),
        dict(parameter="gap_B", start=0, stop=1, step=0.0),
        dict(parameter="gap_B", start=0, stop=1, step=-0.1),
        dict(parameter="gap_B", start=2, stop=1, step=0.1),
        dict(parameter="gap_B", start=0, stop=1e7, step=1.0),
        dict(parameter="separation_L", start=-1, stop=1, step=0.5),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SweepSpec(**kwargs)

    def test_separation_may_start_at_zero(self):
        assert SweepSpec("separation_L", 0, 1, 0.5).grid() == [0, 0.5, 1]

    def test_apply_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            apply_sweep_parameter(demo_scenario("2+1"), "bob_gap", 1.0)

    def test_apply_preserves_window_duration(self):
        s = demo_scenario("2+1")
        moved = apply_sweep_parameter(s, "bob_t_on", 6.25)
        assert moved.bob.window.t_on == 6.25
        assert moved.bob.window.duration == s.bob.window.duration
        assert s.bob.window.t_on == 5.0  # base untouched

    def test_apply_separation_moves_along_existing_axis(self):
        s = demo_scenario("2+1")
        moved = apply_sweep_parameter(s, "separation_L", 2.5)
        assert moved.bob.position == (2.5, 0.0)

    def test_apply_separation_to_coincident_detectors_moves_along_x(self):
        s = demo_scenario("2+1", L=0.0)
        moved = apply_sweep_parameter(s, "separation_L", 2.0)
        assert moved.bob.position == (2.0, 0.0)


class TestCapacityVerb:
    def test_reference_values(self, capsys):
        rc, out, _ = run_cli(capsys, "capacity", DEMO_CFG)
        assert rc == 0
        v = stdout_floats(out)
        assert v["q"] == pytest.approx(0.5, abs=1e-15)
        assert v["p"] - v["q"] == pytest.approx(1.0224734890795e-3,
                                                rel=1e-9, abs=0.0)
        assert v["success"] == pytest.approx(0.5 + 0.5 * (v["p"] - v["q"]),
                                             abs=1e-15)
        assert v["capacity_closed"] == pytest.approx(
            v["capacity_bruteforce"], abs=1e-9)
        assert v["capacity_closed"] == pytest.approx(
            v["capacity_expansion"], rel=2e-2, abs=0.0)

    def test_flag_overrides(self, capsys):
        rc, base_out, _ = run_cli(capsys, "capacity", DEMO_CFG)
        base = stdout_floats(base_out)
        rc, out, _ = run_cli(capsys, "capacity", DEMO_CFG,
                             "--lambda-product", "0.2", "--noise-R", "0.2")
        assert rc == 0
        v = stdout_floats(out)
        assert v["lambda_product"] == 0.2
        assert v["q"] == pytest.approx(0.7, abs=1e-15)
        assert v["p"] - v["q"] == pytest.approx(
            2.0 * (base["p"] - base["q"]), rel=1e-12, abs=0.0)
        # capacity is quadratic in the signal at this size
        assert v["capacity_closed"] / base["capacity_closed"] \
            == pytest.approx(4.0 * (0.25 / 0.21) / 1.0, rel=5e-2, abs=0.0)

    def test_crossing_row_at_bob_gap_1e5_exits_0(self, capsys, tmp_path):
        # Bob 6 away puts the cone inside his window; at gap 1e5 the lag
        # piece that starts on the cone keeps two periods on the cone
        # route and takes the steepest-descent route past them, so the
        # row finishes, with only hf_sig rejected, and the channel reads
        # its s2
        text = Path(DEMO_CFG).read_text()
        crossing = text.replace("bob.position = 1, 0", "bob.position = 6, 0")
        crossing = crossing.replace("bob.gap = 3\n", "bob.gap = 1e5\n")
        assert "6, 0" in crossing and "1e5" in crossing
        path = tmp_path / "crossing_gap_2p1.cfg"
        path.write_text(crossing)
        rc, out, err = run_cli(capsys, "point", str(path))
        assert (rc, err) == (0, "")
        assert "status     = rejected:hf_sig\n" in out
        rc, out, err = run_cli(capsys, "capacity", str(path))
        assert (rc, err) == (0, "")
        assert stdout_floats(out)["capacity_closed"] > 0.0

    def test_huge_coupling_without_signal_exits_0(self, capsys, tmp_path):
        # spacelike windows give S2 = 0, so p = q at any coupling
        text = Path(SPACELIKE_CFG).read_text()
        huge = text.replace("lambda_product = 0.1\n",
                            "lambda_product = 1e200\n")
        assert "1e200" in huge
        path = tmp_path / "huge_lambda.cfg"
        path.write_text(huge)
        for verb in ("point", "capacity"):
            rc, out, _ = run_cli(capsys, verb, str(path))
            assert rc == 0
            assert stdout_floats(out)["capacity_expansion"] == 0.0

    def test_uncountable_panelling_exits_2(self, capsys, tmp_path):
        # at Alice's gap 1e300 the crossing piece needs inf panels
        text = Path(DEMO_CFG).read_text()
        for old, new in (("alice.gap = 3\n", "alice.gap = 1e300\n"),
                         ("bob.t_off = 8\n", "bob.t_off = 1e16\n"),
                         ("bob.position = 1, 0", "bob.position = 6, 0")):
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "huge_gap.cfg"
        path.write_text(text)
        rc, _, err = run_cli(capsys, "point", str(path))
        assert rc == 2
        assert "s2: budget: " in err and "needs inf evaluations" in err
        rc, out, err = run_cli(capsys, "capacity", str(path))
        assert (rc, out) == (2, "")
        assert err.startswith("qcc: numerical failure: budget: ")

    @pytest.mark.parametrize("flag,value", [
        ("--lambda-product", "nan"),
        ("--lambda-product", "inf"),
        ("--noise-R", "nan"),
    ])
    def test_non_finite_override_exits_1(self, capsys, flag, value):
        rc, err = usage_error(capsys, "capacity", DEMO_CFG, flag, value)
        assert rc == 1
        assert flag in err and "finite" in err


def _edited_config(tmp_path, name, edits):
    """configs/<name>.cfg with each (old, new) line edit applied."""
    text = (CONFIGS / f"{name}.cfg").read_text()
    for old, new in edits:
        assert f"{old}\n" in text
        text = text.replace(f"{old}\n", f"{new}\n")
    path = tmp_path / f"edited_{name}.cfg"
    path.write_text(text)
    return str(path)


def _point_status(capsys, path):
    """point's exit code, the row's status and its per-observable
    failure lines."""
    rc, out, err = run_cli(capsys, "point", path)
    (row,) = csv_rows(out)
    labels = ("s2", "hI_on", "hI_off", "hf_sig")
    return rc, row.rsplit(",", 1)[1], [
        line for line in err.splitlines() if line.split(":")[0] in labels]


# Lags 2 to 8 at times near 1e16, so every phase Alice's gap 1e300 turns
# overflows while each lag piece stays short
LATE_GAP = (("alice.gap = 3", "alice.gap = 1e300"),
            ("alice.t_on = 0", "alice.t_on = 1e16"),
            ("alice.t_off = 3", "alice.t_off = 10000000000000004"),
            ("bob.t_on = 5", "bob.t_on = 10000000000000006"),
            ("bob.t_off = 8", "bob.t_off = 10000000000000008"))


# Alice's gap 1e300 and Bob listening up to 1e16, but 2e16 away: no lag
# reaches the cone, so no phase is ever formed
SPACELIKE_OVERFLOW = {
    "demo_1p1": ("bob.position = 1", "bob.position = 2e16"),
    "demo_2p1": ("bob.position = 1, 0", "bob.position = 2e16, 0"),
    "demo_3p1": ("bob.position = 1, 0, 0", "bob.position = 2e16, 0, 0"),
}


@pytest.mark.parametrize("verb", [
    ["point"], ["capacity"],
    ["sweep", "--param", "gap_B", "--range", "1:2:1", "--out"],
], ids=["point", "capacity", "sweep"])
def test_overflowing_amplitude_is_a_config_error(capsys, tmp_path, verb):
    # |alpha|^2 overflows: the norm check reports it instead of raising
    path = _edited_config(tmp_path, "demo_2p1",
                          [("alice.alpha_im = 0", "alice.alpha_im = 1e300")])
    out_csv = [str(tmp_path / "out.csv")] if verb[0] == "sweep" else []
    rc, out, err = run_cli(capsys, verb[0], path, *verb[1:], *out_csv)
    assert rc == 1
    assert err.splitlines() == [
        "qcc: error: alice: state norm defect inf exceeds 1e-12"]


_SHIPPED = ("demo_1p1", "demo_2p1", "demo_3p1", "spacelike_2p1")
_VALUES = st.one_of(
    st.sampled_from(["", "0", "-0", "-1", "1e300", "-1e300", "1e-300",
                     "5e-324", "1e16", "nan", "inf", "-inf", "1+1", "2+1",
                     "3+1", "0, 0", "1, 2, 3", "x"]),
    st.floats().map(repr),
)


@st.composite
def _edited_shipped_config(draw):
    """A shipped config's text with 1 to 3 lines replaced: mostly by its
    own key with another value, else by another key's line or by text."""
    lines = (CONFIGS / f"{draw(st.sampled_from(_SHIPPED))}.cfg") \
        .read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        own = lines[i].partition(" = ")[0]
        key = draw(st.one_of(st.just(own), st.sampled_from(CONFIG_KEYS)))
        lines[i] = draw(st.one_of(
            _VALUES.map(lambda v, key=key: f"{key} = {v}"),
            st.text(string.printable, max_size=12)))
    return "\n".join(lines) + "\n"


@given(text=_edited_shipped_config(), verb=st.sampled_from(["point",
                                                            "capacity"]))
@example(text=shipped_with("demo_2p1", {"alice.alpha_im": "1e300"}),
         verb="point")
@example(text=shipped_with("demo_2p1", {"bob.t_on": "3",
                                         "bob.position": "0, 0"}),
         verb="point")
# lags past 3e102 on the steepest-descent route (the continued F), and on
# GK panels (the real-axis D and F) with gaps too small for that route
@example(text=shipped_with("demo_2p1", {"bob.t_off": "1e103"}),
         verb="point")
@example(text=shipped_with("demo_2p1",
                           {"bob.t_off": "3.0585240314376923e+102"}),
         verb="point")
@example(text=shipped_with("demo_2p1", {"alice.t_on": "-1e103"}),
         verb="capacity")
@example(text=shipped_with("demo_2p1", {"alice.gap": "1e-160",
                                         "bob.gap": "1e-160",
                                         "bob.t_off": "1e160"}),
         verb="point")
@settings(max_examples=60, deadline=None)
def test_edited_configs_end_in_an_exit_status(text, verb):
    # what a process would print as a traceback escapes main here
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.cfg"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main([verb, str(path)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


class TestExtremeConfigs:
    """Valid configs whose phases overflow, or whose closed forms round
    off past tol, end as numerical failures, not as config errors or
    rejections, where an integral's lags pass the cone.  Where none
    does, the observable is an exact zero, which forms no phase."""

    @pytest.fixture(autouse=True)
    def _default_tol(self, monkeypatch):
        monkeypatch.delenv("QCC_QUAD_TOL", raising=False)

    def test_late_gap_fails_on_the_budget(self, capsys, tmp_path):
        path = _edited_config(tmp_path, "demo_2p1", LATE_GAP)
        rc, status, failures = _point_status(capsys, path)
        assert rc == 2
        assert status == ("numerical:s2;numerical:hI_on;numerical:hI_off;"
                          "numerical:hf_sig")
        assert len(failures) == 4
        assert all(": budget: " in line for line in failures)
        out = tmp_path / "sweep.csv"
        rc, _, _ = run_cli(capsys, "sweep", path, "--param", "gap_B",
                           "--range", "1:3:1", "--out", str(out))
        rows = out.read_text().splitlines()[1:]
        assert rc == 0 and len(rows) == 3
        assert all(row.rsplit(",", 1)[1].startswith("numerical:")
                   for row in rows)

    @pytest.mark.parametrize("edits", [LATE_GAP[1:], LATE_GAP],
                             ids=["gap 3", "gap 1e300"])
    def test_late_3p1_timelike_row_is_zero(self, capsys, tmp_path, edits):
        # at t = T_on,B, t - L = 1e16 + 5 rounds onto Alice's switch-off,
        # but the lags from t - T_off,A = 2 up are exact and pass L = 1
        path = _edited_config(tmp_path, "demo_3p1", edits)
        rc, out, err = run_cli(capsys, "point", path)
        assert rc == 0, err
        assert "causal class   : TIMELIKE" in out
        assert csv_rows(out)[0].endswith(",0,0,0,0,0,0,ok")

    def test_late_gap_1p1_closed_forms_fail_on_roundoff(self, capsys,
                                                        tmp_path):
        path = _edited_config(tmp_path, "demo_1p1", LATE_GAP)
        rc, status, failures = _point_status(capsys, path)
        assert rc == 2
        assert status == "numerical:s2;numerical:hI_on;numerical:hI_off"
        assert all(": roundoff: " in line for line in failures)

    def test_huge_gap_hI_off_is_numerical_not_rejected(self, capsys,
                                                       tmp_path):
        path = _edited_config(tmp_path, "demo_2p1", (
            ("alice.gap = 3", "alice.gap = 1e300"),
            ("bob.t_off = 8", "bob.t_off = 1e16"),
            ("bob.position = 1, 0", "bob.position = 6, 0")))
        rc, status, failures = _point_status(capsys, path)
        assert rc == 2
        assert status == "numerical:s2;numerical:hI_off;rejected:hf_sig"
        assert failures[1].startswith("hI_off: budget: ")

    def test_1p1_rounding_bound_past_tol_is_roundoff(self, capsys, tmp_path):
        path = _edited_config(tmp_path, "demo_1p1", (
            ("alice.gap = 3", "alice.gap = 1e300"),
            ("bob.t_off = 8", "bob.t_off = 1e16")))
        rc, status, failures = _point_status(capsys, path)
        assert rc == 2
        assert status == "numerical:s2;numerical:hI_off"
        assert [line.split(":")[:2] for line in failures] == [
            ["s2", " roundoff"], ["hI_off", " roundoff"]]

    @pytest.mark.parametrize("name", sorted(SPACELIKE_OVERFLOW))
    def test_spacelike_overflow_row_is_zero(self, capsys, tmp_path, name):
        path = _edited_config(tmp_path, name, (
            ("alice.gap = 3", "alice.gap = 1e300"),
            ("bob.t_off = 8", "bob.t_off = 1e16"),
            SPACELIKE_OVERFLOW[name]))
        rc, out, err = run_cli(capsys, "point", path)
        assert (rc, err) == (0, "")
        assert "causal class   : SPACELIKE" in out
        assert csv_rows(out)[0].endswith(",0,0,0,0,0,0,ok")

    @staticmethod
    def assert_rounded_onto_the_cone_fails(capsys, tmp_path, name, position):
        # at t = 1e16 + 2 the lags of s2 and hI_off run up to
        # t - T_on,A = 1e16 + 0.5, which rounds onto L = 1e16: Alice's
        # [1.5, 2] is in t's past cone, but every route would cut it off
        # at the rounded end, so both fail before any evaluation
        path = _edited_config(tmp_path, name, (
            ("alice.t_on = 0", "alice.t_on = 1.5"),
            ("bob.t_off = 8", "bob.t_off = 10000000000000002"), position))
        rc, status, failures = _point_status(capsys, path)
        assert rc == 2
        assert status == "numerical:s2;numerical:hI_off;rejected:hf_sig"
        assert [line.split(":")[:2] for line in failures] == [
            ["s2", " roundoff"], ["hI_off", " roundoff"]]

    def test_lags_rounded_onto_the_cone_are_not_a_zero(self, capsys,
                                                       tmp_path):
        self.assert_rounded_onto_the_cone_fails(
            capsys, tmp_path, "demo_1p1",
            ("bob.position = 1", "bob.position = 1e16"))

    def test_2p1_lags_rounded_onto_the_cone_are_not_a_zero(self, capsys,
                                                           tmp_path):
        self.assert_rounded_onto_the_cone_fails(
            capsys, tmp_path, "demo_2p1",
            ("bob.position = 1, 0", "bob.position = 1e16, 0"))

    def test_1p1_closed_forms_miss_a_tol_below_their_bound(
            self, capsys, monkeypatch):
        monkeypatch.setenv("QCC_QUAD_TOL", "1e-16")
        rc, status, failures = _point_status(
            capsys, str(CONFIGS / "demo_1p1.cfg"))
        assert rc == 2
        assert status == "numerical:s2;numerical:hI_on;numerical:hI_off"
        assert len(failures) == 3
        assert all(": roundoff: the closed form's rounding bound " in line
                   and line.endswith("exceeds tol 1.000e-16")
                   for line in failures)

    @pytest.mark.parametrize("edits", [
        (("bob.t_off = 8", "bob.t_off = 1e103"),),
        (("alice.gap = 3", "alice.gap = 1e-100"),
         ("bob.gap = 3", "bob.gap = 1e-100"),
         ("bob.t_off = 8", "bob.t_off = 1e103")),
    ], ids=["steepest-descent", "gk-panels"])
    def test_lags_past_1e102_keep_the_field_energy_finite(
            self, capsys, tmp_path, edits):
        # the field-energy kernel's cube of its root overflowed there, in
        # the continued and the real-axis form alike: numpy warned, and
        # the continued F read nan
        path = _edited_config(tmp_path, "demo_2p1", edits)
        rc, out, err = run_cli(capsys, "point", path)
        assert (rc, err) == (0, "") and "status     = ok" in out
        # F falls off like 1/tau^2, so the field energy has settled long
        # before: Bob's window ending at 1e50 gives the same float
        short = _edited_config(tmp_path, "demo_2p1", [
            (old, new.replace("1e103", "1e50")) for old, new in edits])
        _, short_out, _ = run_cli(capsys, "point", short)
        assert stdout_floats(out)["hf_sig"] \
            == stdout_floats(short_out)["hf_sig"]

    def test_dimension_member_name_is_a_config_error(self, capsys, tmp_path):
        path = _edited_config(tmp_path, "demo_2p1", (
            ("dimension = 2+1", "dimension = D2p1"),))
        rc, out, err = run_cli(capsys, "point", path)
        assert (rc, out) == (1, "")
        assert err.startswith("qcc: error:") and "D2p1" in err


class TestValidateVerb:
    def test_all_invariants_hold(self, capsys):
        rc, out, _ = run_cli(capsys, "validate")
        assert rc == 0
        assert "invariants hold" in out
        assert "FAIL" not in out

    def test_every_check_line_carries_its_wall_time(self, capsys):
        _, out, _ = run_cli(capsys, "validate")
        lines = out.splitlines()
        checks = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
        assert checks and len(checks) == len(lines) - 1
        for line in checks:
            assert re.fullmatch(r"(PASS|FAIL)  \S+: .* \[\d+\.\d ms\]", line)

    def test_checks_ignore_the_tolerance_variable(self, monkeypatch):
        # every check passes its own tol, so the user's default changes
        # no verdict and no digit; at 1e-16 guess-success-margin used to
        # raise a roundoff failure
        from qcc.quadrature import TOL_ENV_VAR
        from qcc.validation import run_all_checks

        def verdicts():
            return [(r.name, r.passed, r.detail) for r in run_all_checks()]

        monkeypatch.delenv(TOL_ENV_VAR, raising=False)
        default = verdicts()
        assert all(passed for _, passed, _ in default)
        for value in ("1e-16", "1e-3"):
            monkeypatch.setenv(TOL_ENV_VAR, value)
            assert verdicts() == default

    def test_field_kernel_oracle_is_held_to_its_estimate(self, monkeypatch):
        # the closed form is within 5% of the oracle's estimate at each
        # point, so an oracle claiming a hundredth of it fails the check
        # while its relative deviation still passes
        from qcc import greens, validation

        check = validation._check_field_kernel_oracle
        assert check().passed
        honest = greens.regularized_momentum_integral

        def overconfident(*args):
            res = honest(*args)
            return replace(res,
                           abs_error_estimate=res.abs_error_estimate / 100)

        monkeypatch.setattr(greens, "regularized_momentum_integral",
                            overconfident)
        result = check()
        assert not result.passed
        assert "(tol 1e-4)" in result.detail and "/ estimate" in result.detail

    def test_route_handing_a_piece_back_fails_its_check(self, monkeypatch):
        # the check offers its pieces to the steepest-descent route
        # directly; a route whose estimates never meet tol hands every
        # pick back, and leaves no route value to compare with GK
        from qcc import validation

        check = validation._check_oscillatory_route
        assert check().passed
        rule = signalling._steepest_descent

        def unsure(*args):
            values, errors, count = rule(*args)
            return values, [math.inf] * len(errors), count

        monkeypatch.setattr(signalling, "_steepest_descent", unsure)
        assert check() == validation.CheckResult(
            "oscillatory-route-vs-gk", False,
            "the route handed the piece back to GK")

    def test_route_check_takes_gk_from_the_hand_built_integrals(self):
        # the check's detail line is what the route and GK give one
        # integral at a time on [5, 8], 21.5 periods at gap 45:
        # helpers.route_by_hand, and integrate_1d of each kernel times
        # its weight on panels a quarter period of gap 45
        from helpers import route_by_hand
        from qcc import greens, validation
        from qcc.quadrature import integrate_1d

        s = validation._demo()
        s = replace(s, bob=replace(s.bob, gap=45.0))
        picks = (signalling._S2, signalling._HF)
        corr, terms = signalling._window_correlation(s, 8.0, picks)[:2]
        bias, bias_terms = signalling._interaction_weight(
            replace(s, alice=replace(s.alice, gap=45.0)), 8.0)[:2]
        routed = route_by_hand(s, picks, terms(5.0, 8.0), 5.0, 8.0, 1e-10)
        routed += route_by_hand(s, picks[:1], bias_terms(5.0, 8.0), 5.0,
                                8.0, 1e-10)
        d, f = greens.commutator_timelike, greens.field_energy_timelike
        weights = (lambda t: corr(t)[0], lambda t: corr(t)[1],
                   lambda t: bias(t)[0])
        worst = 0.0
        for kernel, weight, res in zip((d, f, d), weights, routed):
            ref = integrate_1d(
                lambda t: kernel(s.dimension, t, t - 1.0, 1.0) * weight(t),
                5.0, 8.0, 1e-10, max_panel_width=(2.0 * math.pi / 45.0) / 4)
            assert res.evaluations < ref.evaluations
            worst = max(worst, abs(res.value - ref.value) / (
                res.abs_error_estimate + ref.abs_error_estimate + 1e-15))
        assert validation._check_oscillatory_route().detail == (
            f"max |route - GK| / (sum of estimates + 1e-15) = {worst:.3e} "
            f"(need <= 1) for s2, hf_sig and hI on [5, 8] at 21.5 periods, "
            f"{routed[0].evaluations} evaluations each for s2 and hf_sig, "
            f"{routed[2].evaluations} for hI")

    def test_a_check_that_raises_keeps_its_name(self, monkeypatch):
        from qcc import validation

        def names(lines):
            return [line.split(":", 1)[0].split("  ", 1) for line in lines]

        passing = validation.format_report(
            validation.run_all_checks()).splitlines()[:-1]
        for check in validation._CHECKS:
            monkeypatch.setattr(check.__wrapped__, "__code__",
                                _forced_failure.__code__)
        failing = validation.format_report(
            validation.run_all_checks()).splitlines()[:-1]
        assert [name for _, name in names(failing)] \
            == [name for _, name in names(passing)]
        assert {verdict for verdict, _ in names(failing)} == {"FAIL"}
        assert all(": raised RuntimeError: forced" in line
                   for line in failing)


def _forced_failure():
    raise RuntimeError("forced")


class TestComputeRow:
    @pytest.mark.parametrize("changes", [dict(gap_b=math.inf),
                                         dict(L=math.nan)])
    def test_non_finite_scenario_is_an_invalid_row(self, changes):
        row = compute_row(make_scenario("2+1", **changes), 1.0)
        assert row.status == "invalid-scenario"
        assert row.to_csv() == "1,nan,nan,nan,nan,nan,nan,invalid-scenario"

    @pytest.mark.parametrize("dim", ["1+1", "2+1", "3+1"])
    @pytest.mark.parametrize("who,changes", [
        ("bob", dict(b_win=(5.0, math.inf))),
        ("alice", dict(a_win=(-math.inf, 3.0))),
    ], ids=["bob-inf", "alice-minus-inf"])
    def test_non_finite_window_is_an_invalid_row(self, dim, who, changes):
        s = make_scenario(dim, **changes)
        assert f"{who}: switching window times must be finite" \
            in scenario.validate(s).violations
        row = compute_row(s, 1.0)
        assert row.to_csv() == "1,nan,nan,nan,nan,nan,nan,invalid-scenario"

    def test_nan_columns_render_as_nan(self):
        row = Row(1.0, float("nan"), float("nan"), float("nan"),
                  float("nan"), float("nan"), float("nan"),
                  "invalid-scenario")
        assert row.to_csv() == "1,nan,nan,nan,nan,nan,nan,invalid-scenario"

    def test_compute_row_matches_direct_observables(self):
        from qcc import signalling
        s = demo_scenario("2+1")
        row = compute_row(s, 5.0, None, 1e-8)
        w = s.bob.window
        s2 = signalling.s2_observable(s, w.t_off, 1e-8)
        hi_on = signalling.interaction_energy_observable(s, w.t_on, 1e-8)
        hi_off = signalling.interaction_energy_observable(s, w.t_off, 1e-8)
        hf = signalling.field_energy_observable(s, w.t_off, 1e-8)
        assert row.s2 == s2.value
        assert row.hB_sig == s.bob.gap * s2.value
        assert row.hI_on == hi_on.value
        assert row.hI_off == hi_off.value
        assert row.hf_sig == hf.value
        assert row.quad_error == (s2.quad_error + hi_on.quad_error
                                  + hi_off.quad_error + hf.quad_error)

    def test_scenario_validated_once_per_row(self, monkeypatch):
        calls = []
        classify = scenario._classify
        monkeypatch.setattr(scenario, "_classify",
                            lambda *a: calls.append(a) or classify(*a))
        compute_row(demo_scenario("2+1"), 5.0)
        assert len(calls) == 1

    def _counted_row(self, monkeypatch, s):
        # the evaluations the row's shared s2/hf_sig pass spends on each
        counts = {}
        row_observables = signalling.row_observables

        def counted(*args):
            outcomes = row_observables(*args)
            s2, _, _, hf = outcomes
            counts.update(s2=s2.evaluations, hf_sig=hf.evaluations)
            return outcomes
        monkeypatch.setattr(signalling, "row_observables", counted)
        return compute_row(s, 0.0), counts

    def test_long_bob_window_finishes(self, monkeypatch):
        s = demo_scenario("2+1")
        s = replace(s, bob=replace(s.bob, window=replace(s.bob.window,
                                                         t_off=1e4)))
        row, counts = self._counted_row(monkeypatch, s)
        assert row.status == "ok"
        # the 9992-long middle lag piece takes the steepest-descent route
        assert counts == {"s2": 260, "hf_sig": 260}

    def test_high_gap_finishes(self, monkeypatch):
        # on GK panels this row needs 2.86M evaluations per observable,
        # past the 1M budget; both its lag pieces take the steepest-descent
        # route instead
        s = demo_scenario("2+1")
        row, counts = self._counted_row(
            monkeypatch, replace(s, bob=replace(s.bob, gap=1e5)))
        assert (row.status, row.failures) == ("ok", ())
        assert counts == {"s2": 340, "hf_sig": 340}


class TestEntryPoints:
    def test_python_m_module(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qcc.cli", "point", DEMO_CFG],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert CSV_HEADER in proc.stdout

    def test_imports_load_only_what_a_verb_runs(self):
        # `import qcc` loads no submodule; the CLI loads the validation
        # suite and the process pool only for `validate` and `--jobs`
        code = (
            "import sys, qcc\n"
            "print(sorted(m for m in sys.modules if m.startswith('qcc.')))\n"
            "import qcc.cli\n"
            "print([m for m in ('qcc.validation', "
            "'concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]"]

    def test_python_m_validate_loads_cli_once(self):
        # the running __main__ stands in for qcc.cli, so the validation
        # suite's `from . import cli` imports no second copy
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "qcc.cli", "validate"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "qcc.validation" in imported
        assert "qcc.cli" not in imported
        # the seeded checks draw from random.Random: numpy.random would
        # cost megabytes and milliseconds that nothing else in qcc needs
        assert "numpy.random" not in imported

    @pytest.mark.skipif(shutil.which("qcc") is None,
                        reason="console script not on PATH")
    def test_console_script_help(self):
        proc = subprocess.run(["qcc", "--help"], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0
        assert "sweep" in proc.stdout

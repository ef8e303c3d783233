"""Exit-code contract and report tests for the command-line surface.

Each subcommand is exercised with a passing input, a violating input
where the concept exists, and a malformed input.
"""

import dataclasses
import json
import math
import os
import stat
import subprocess
import sys

import pytest

from ballcover import InternalError, cli
from ballcover.cli import run_command


@pytest.fixture
def scenes(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    paths = {}
    paths["valid_1d"] = write(
        "valid_1d.json",
        {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 1},
            "balls": [
                {"center": [-0.9], "radius": 1.0},
                {"center": [0.9], "radius": 1.0},
            ],
        },
    )
    paths["invalid_1d"] = write(
        "invalid_1d.json",
        {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 1},
            "balls": [
                {"center": [0.0], "radius": 1.0},
                {"center": [0.5], "radius": 1.0},
            ],
        },
    )
    paths["malformed"] = write(
        "malformed.json",
        {"space": {"kind": "euclidean", "dim": 1}, "balls": []},
    )
    paths["plane"] = write(
        "plane.json",
        {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 2},
            "balls": [{"center": [0.0, 0.0], "radius": 1.0}],
        },
    )
    # five intervals over three radius bands
    paths["bands"] = write(
        "bands.json",
        {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 1},
            "balls": [
                {"center": [0.0], "radius": 1.0},
                {"center": [0.4], "radius": 0.5},
                {"center": [2.2], "radius": 1.0},
                {"center": [3.0], "radius": 0.2},
                {"center": [-1.6], "radius": 0.4},
            ],
        },
    )
    # three balls sharing a point, no two 0.8-shrunk balls intersect
    paths["cip_hard"] = write(
        "cip_hard.json",
        {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 2},
            "balls": [
                {
                    "center": [
                        0.99 * math.cos(2 * math.pi * k / 3),
                        0.99 * math.sin(2 * math.pi * k / 3),
                    ],
                    "radius": 1.0,
                }
                for k in range(3)
            ],
        },
    )
    paths["satellite"] = write(
        "satellite.json",
        {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 2},
            "balls": [],
            "sets": [
                {"anchor": [0.0, 0.0], "inner_radius": 1.0, "lambda": 1.0, "diameter": 2.0},
                {"anchor": [1.8, 0.0], "inner_radius": 0.9, "lambda": 1.0, "diameter": 1.8},
                {"anchor": [0.9, 0.8], "inner_radius": 0.85, "lambda": 1.0, "diameter": 1.7},
            ],
        },
    )
    paths["tmp"] = tmp_path
    return paths


def read(path):
    return json.loads(open(path).read())


class TestValidate:
    def test_passing(self, scenes, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(["validate", scenes["valid_1d"], "--what", "besicovitch", "--out", out]) == 0
        rep = read(out)
        assert rep["payload"]["status"] == "valid"
        assert rep["input_digest"] is not None

    def test_violating(self, scenes, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(["validate", scenes["invalid_1d"], "--what", "besicovitch", "--out", out]) == 1
        assert read(out)["payload"]["status"] == "invalid"

    def test_malformed(self, scenes):
        assert run_command(["validate", scenes["malformed"], "--what", "besicovitch"]) == 2

    def test_k_config(self, scenes):
        assert run_command(["validate", scenes["valid_1d"], "--what", "k-config"]) == 0

    def test_alpha_config(self, scenes, tmp_path):
        doc = {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 1},
            "balls": [
                {"center": [0.0], "radius": 0.7},   # target
                {"center": [0.5], "radius": 1.0},
                {"center": [-0.5], "radius": 1.0},
            ],
        }
        p = tmp_path / "alpha.json"
        p.write_text(json.dumps(doc))
        assert run_command(["validate", str(p), "--what", "alpha-config", "--alpha", "0.75"]) == 0
        assert run_command(["validate", str(p), "--what", "alpha-config", "--alpha", "0.6"]) == 1

    def test_satellite(self, scenes):
        assert run_command(["validate", scenes["satellite"], "--what", "satellite", "--tau", "1.5"]) == 0

    def test_satellite_without_sets(self, scenes):
        assert run_command(["validate", scenes["valid_1d"], "--what", "satellite"]) == 2


class TestSelect:
    def test_passing(self, scenes, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(["select", scenes["bands"], "--out", out]) == 0
        rep = read(out)
        assert rep["payload"]["count"] >= 1
        assert rep["payload"]["max_overlap"] <= 19
        assert rep["payload"]["covered_centers"] == 5

    def test_malformed(self, scenes):
        assert run_command(["select", scenes["malformed"]]) == 2

    def test_bad_beta(self, scenes):
        assert run_command(["select", scenes["bands"], "--beta", "1.5"]) == 2


class TestPartition:
    def test_passing(self, scenes, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(["partition", scenes["bands"], "--out", out]) == 0
        rep = read(out)
        assert rep["payload"]["family_count"] >= 1
        assert len(rep["payload"]["assignment"]) == 5

    def test_malformed(self, scenes):
        assert run_command(["partition", scenes["malformed"]]) == 2

    def test_bad_alpha(self, scenes):
        assert run_command(["partition", scenes["bands"], "--alpha", "0.4"]) == 2


class TestOned:
    def test_passing(self, scenes, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(["oned", scenes["bands"], "--out", out]) == 0
        rep = read(out)
        assert rep["payload"]["family_count"] <= 2

    def test_two_dim_scene_is_unsupported(self, scenes):
        assert run_command(["oned", scenes["plane"]]) == 2

    def test_malformed(self, scenes):
        assert run_command(["oned", scenes["malformed"]]) == 2


class TestNet:
    def test_passing_and_strict_tie(self, scenes, tmp_path):
        doc = {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 1},
            "balls": [
                {"center": [0.0], "radius": 0.1},
                {"center": [1.0], "radius": 0.1},
                {"center": [2.0], "radius": 0.1},
            ],
        }
        p = scenes["tmp"] / "net.json"
        p.write_text(json.dumps(doc))
        out = str(scenes["tmp"] / "r.json")
        assert run_command(["net", str(p), "--eps", "1.0", "--out", out]) == 0
        assert read(out)["payload"]["count"] == 3
        assert run_command(["net", str(p), "--eps", "1.0", "--strict", "--out", out]) == 0
        assert read(out)["payload"]["indices"] == [0, 2]

    def test_malformed(self, scenes):
        assert run_command(["net", scenes["malformed"], "--eps", "1.0"]) == 2

    def test_bad_eps(self, scenes):
        assert run_command(["net", scenes["valid_1d"], "--eps", "0.0"]) == 2


class TestSearch:
    def test_wbcp_passing(self, scenes, tmp_path):
        out = str(tmp_path / "r.json")
        code = run_command(
            ["search", "--what", "wbcp", "--dim", "2", "--budget", "800",
             "--restarts", "1", "--seed", "3", "--out", out]
        )
        assert code == 0
        rep = read(out)
        assert rep["payload"]["score"] == 5
        assert rep["payload"]["feasible"] is True
        assert rep["seed"] == 3

    def test_hadwiger(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(["search", "--what", "hadwiger", "--dim", "2", "--out", out]) == 0
        assert read(out)["payload"]["score"] == 5

    def test_pack5(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(
            ["search", "--what", "pack5", "--dim", "1", "--budget", "100", "--out", out]
        ) == 0
        assert read(out)["payload"]["score"] == 5

    def test_malformed_usage(self):
        assert run_command(["search", "--what", "nonsense", "--dim", "2"]) == 2
        assert run_command(["search", "--what", "hadwiger", "--dim", "9"]) == 2

    def test_satellite_search(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(
            ["search", "--what", "satellite", "--dim", "1", "--tau", "2.0",
             "--budget", "400", "--restarts", "1", "--out", out]
        ) == 0
        assert read(out)["payload"]["score"] >= 1


class TestCip:
    def test_scene_found(self, scenes, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(["cip", scenes["cip_hard"], "--m", "1", "--shrink", "0.95", "--out", out]) == 0
        rep = read(out)
        assert rep["payload"]["found"] is True
        assert len(rep["payload"]["indices"]) == 2

    def test_scene_not_found_is_violation(self, scenes, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(["cip", scenes["cip_hard"], "--m", "1", "--shrink", "0.8", "--out", out]) == 1
        assert read(out)["payload"]["found"] is False

    def test_trials_mode(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(
            ["cip", "--m", "2", "--trials", "40", "--seed", "1", "--out", out]
        ) == 0
        rep = read(out)
        assert rep["payload"]["rate"] == 1.0
        assert rep["seed"] == 1

    def test_malformed(self, scenes):
        assert run_command(["cip", scenes["malformed"], "--m", "1"]) == 2

    def test_needs_scene_or_trials(self):
        assert run_command(["cip", "--m", "1"]) == 2


class TestConstants:
    def test_dim_one_table(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(
            ["constants", "--dims", "1", "--seed", "0", "--budget", "600", "--out", out]
        ) == 0
        rows = {(r["name"], r["dim"]): r["achieved_lower_bound"]
                for r in read(out)["payload"]["rows"]}
        assert rows[("w", 1)] == 2
        assert rows[("beta", 1)] == 5

    def test_malformed_dims(self):
        assert run_command(["constants", "--dims", "1,nope"]) == 2
        assert run_command(["constants", "--dims", "7"]) == 2


class TestVolume:
    def test_passing(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(
            ["volume", "--space", "sphere", "--dim", "2", "--r", "1.0", "--out", out]
        ) == 0
        vol = read(out)["payload"]["volume"]
        assert abs(vol - 2.0 * math.pi * (1.0 - math.cos(1.0))) < 1e-12

    def test_malformed(self):
        assert run_command(["volume", "--space", "sphere", "--dim", "2"]) == 2
        assert run_command(["volume", "--space", "sphere", "--dim", "0", "--r", "1.0"]) == 2


class TestReportContract:
    def test_unknown_subcommand(self):
        assert run_command(["frobnicate"]) == 2

    def test_byte_identical_reruns(self, scenes, tmp_path):
        out = str(tmp_path / "a.json")
        argv = ["search", "--what", "wbcp", "--dim", "1", "--budget", "300",
                "--restarts", "2", "--seed", "9", "--out", out]
        assert run_command(argv) == 0
        first = open(out, "rb").read()
        assert run_command(argv) == 0
        assert open(out, "rb").read() == first

    def test_trials_rerun_identical(self, tmp_path):
        out = str(tmp_path / "a.json")
        argv = ["cip", "--m", "1", "--trials", "25", "--seed", "4", "--out", out]
        assert run_command(argv) == 0
        first = open(out, "rb").read()
        assert run_command(argv) == 0
        assert open(out, "rb").read() == first

    def test_command_echo_and_digest(self, scenes, tmp_path):
        out = str(tmp_path / "r.json")
        argv = ["oned", scenes["bands"], "--out", out]
        assert run_command(argv) == 0
        rep = read(out)
        assert rep["command"] == argv
        import hashlib

        text = open(scenes["bands"]).read()
        assert rep["input_digest"] == hashlib.sha256(text.encode()).hexdigest()
        assert rep["wall_time_s"] is None

    def test_timing_flag_records_time(self, scenes, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_command(["oned", scenes["bands"], "--timing", "--out", out]) == 0
        assert isinstance(read(out)["wall_time_s"], float)

    def test_stdout_when_no_out(self, scenes, capsys):
        assert run_command(["oned", scenes["bands"]]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["payload"]["family_count"] <= 2


class TestInternalError:
    def test_exit_code_three_with_one_line_message(self, monkeypatch, capsys):
        def broken(args):
            raise InternalError("an invariant broke")

        monkeypatch.setitem(cli._HANDLERS, "volume", broken)
        assert run_command(["volume", "--space", "sphere", "--dim", "2", "--r", "1.0"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: an invariant broke\n"
        assert captured.out == ""


class TestSelectCoverage:
    def test_covered_centers_counts_only_covered(self, scenes, tmp_path, monkeypatch):
        real = cli.select_bounded_overlap_subcover

        def one_uncovered(family, centers, beta):
            res = real(family, centers, beta)
            flags = (True,) * (len(centers) - 1) + (False,)
            return dataclasses.replace(res, covered_centers=flags)

        monkeypatch.setattr(cli, "select_bounded_overlap_subcover", one_uncovered)
        out = str(tmp_path / "r.json")
        assert run_command(["select", scenes["bands"], "--out", out]) == 0
        assert read(out)["payload"]["covered_centers"] == 4


class TestAtomicOut:
    def test_foreign_tmp_file_is_left_alone(self, scenes, tmp_path):
        stale = tmp_path / "r.json.tmp"
        stale.write_text("another run's file")
        out = tmp_path / "r.json"
        assert run_command(["oned", scenes["bands"], "--out", str(out)]) == 0
        assert stale.read_text() == "another run's file"
        assert read(str(out))["payload"]["family_count"] <= 2
        left = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("r.json"))
        assert left == ["r.json", "r.json.tmp"]

    def test_report_gets_the_default_file_mode(self, scenes, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        out = tmp_path / "r.json"
        assert run_command(["oned", scenes["bands"], "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_failed_write_removes_the_temp_file(self, scenes, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("no space left")

        monkeypatch.setattr(cli.os, "replace", refuse)
        assert run_command(["oned", scenes["bands"], "--out", str(tmp_path / "r.json")]) == 2
        assert not [p for p in tmp_path.iterdir() if p.name.startswith("r.json")]

    def test_missing_directory_is_an_input_error(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.json")
        argv = ["volume", "--space", "sphere", "--dim", "2", "--r", "1.0", "--out", out]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot write the report to {out!r}: No such file or directory\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "missing").exists()


class TestVolumeOverflow:
    @pytest.mark.parametrize("dim,r", [(3, "800"), (40, "30")])
    def test_hyperbolic_overflow_exits_two(self, dim, r, capsys):
        argv = ["volume", "--space", "hyperbolic", "--dim", str(dim), "--r", r]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the volume of a radius-")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_overflow_exits_two_in_a_fresh_process(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["volume", "--space", "hyperbolic", "--dim", "3", "--r", "800"]
        out = subprocess.run([sys.executable, "-m", "ballcover.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr

"""Exit-code contract and report tests for the command-line surface.

Each subcommand is exercised with a passing input, a violating input
where the concept exists, and a malformed input.
"""

import argparse
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading

import pytest

from ballcover import InternalError, cli
from ballcover.cli import run_command
from ballcover.sceneio import render_report


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
    # a target ball (index 0) below 0.75 times the radius of each other ball
    paths["alpha"] = write(
        "alpha.json",
        {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 1},
            "balls": [
                {"center": [0.0], "radius": 0.7},
                {"center": [0.5], "radius": 1.0},
                {"center": [-0.5], "radius": 1.0},
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

    @pytest.mark.parametrize("scene", ["{cip_hard}", "{tmp}/missing.json"], ids=["found", "missing"])
    def test_a_scene_with_trials_exits_two(self, scene, scenes, capsys):
        # before, the scene was ignored without being read, and the trials ran
        path = scene.format(**scenes)
        assert run_command(["cip", path, "--m", "2", "--trials", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cip takes a scene path or --trials, not both: {path!r}\n"


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
        import ballcover.selection

        real = ballcover.selection.select_bounded_overlap_subcover

        def one_uncovered(family, centers, beta):
            res = real(family, centers, beta)
            flags = (True,) * (len(centers) - 1) + (False,)
            return res._replace(covered_centers=flags)

        monkeypatch.setattr(ballcover.selection, "select_bounded_overlap_subcover", one_uncovered)
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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_special_file_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "report.pipe"
        os.mkfifo(fifo)
        got = []

        def drain():
            with open(fifo, "rb") as fh:
                got.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        argv = ["volume", "--space", "euclidean", "--dim", "2", "--r", "1.0"]
        try:
            code = run_command([*argv, "--out", str(fifo)])
        finally:
            reader.join(timeout=30)
        assert code == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.pipe"]
        assert run_command(argv) == 0
        expected = json.loads(capsys.readouterr().out)
        assert len(got) == 1 and got[0].endswith(b"\n")
        doc = json.loads(got[0].decode("utf-8"))
        assert doc["command"] == [*argv, "--out", str(fifo)]
        assert {**doc, "command": argv} == expected

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


class TestUnexpectedErrors:
    """Any exception that is not a documented error exits 3, never 1."""

    HUGE_L3 = {
        "version": 1,
        "space": {"kind": "euclidean", "dim": 2, "pnorm": 3.0},
        "balls": [
            {"center": [1e200, 0.0], "radius": 1e200},
            {"center": [-1e200, 0.0], "radius": 1e200},
        ],
    }

    def test_l3_overflow_exits_three(self, tmp_path, capsys):
        # the validators rescale a family that overflows; the overlap probes of select do not
        scene = tmp_path / "huge.json"
        scene.write_text(json.dumps(self.HUGE_L3))
        assert run_command(["select", str(scene)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("internal error: unexpected OverflowError: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == ""

    def test_any_exception_type_is_named(self, monkeypatch, capsys):
        def broken(args):
            raise ValueError("boom")

        monkeypatch.setitem(cli._HANDLERS, "volume", broken)
        assert run_command(["volume", "--space", "sphere", "--dim", "2", "--r", "1.0"]) == 3
        assert capsys.readouterr().err == "internal error: unexpected ValueError: boom\n"

    def test_overflow_exits_three_in_a_fresh_process(self, tmp_path):
        scene = tmp_path / "huge.json"
        scene.write_text(json.dumps(self.HUGE_L3))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["select", str(scene)]
        out = subprocess.run([sys.executable, "-m", "ballcover.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 3
        assert "Traceback" not in out.stderr


class TestSceneEncoding:
    """A scene is read as UTF-8 text: bytes that do not decode are an input
    error, and the digest is the hash of the decoded text."""

    LINE = {"version": 1, "space": {"kind": "euclidean", "dim": 1},
            "balls": [{"center": [0.0], "radius": 1.0}, {"center": [1.5], "radius": 1.0}]}

    @pytest.mark.parametrize("argv", [["validate", "{scene}", "--what", "k-config"],
                                      ["oned", "{scene}"]], ids=" ".join)
    def test_invalid_utf8_exits_two(self, argv, tmp_path, capsys):
        scene = tmp_path / "bad.json"
        scene.write_bytes(json.dumps(self.LINE).encode("ascii")[:-1] + b' "\xff"}')
        assert run_command([a.format(scene=scene) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: scene is not valid UTF-8: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_a_crlf_scene_digests_its_decoded_text(self, tmp_path, capsys):
        import hashlib

        scene = tmp_path / "crlf.json"
        raw = json.dumps(self.LINE, indent=1).replace("\n", "\r\n").encode("utf-8")
        scene.write_bytes(raw)
        assert run_command(["oned", str(scene)]) == 0
        digest = json.loads(capsys.readouterr().out)["input_digest"]
        assert digest == hashlib.sha256(raw.replace(b"\r\n", b"\n")).hexdigest()


@pytest.mark.parametrize("argv", [
    ["validate", "{valid_1d}", "--what", "besicovitch"],
    ["validate", "{invalid_1d}", "--what", "k-config", "--timing"],
    ["validate", "{bands}", "--what", "alpha-config", "--target-index", "1"],
    ["validate", "{satellite}", "--what", "satellite"],
    ["select", "{bands}"],
    ["partition", "{bands}"],
    ["oned", "{bands}"],
    ["net", "{plane}", "--eps", "1.0", "--strict"],
    ["search", "--what", "wbcp", "--dim", "2", "--seed", "1", "--budget", "200", "--restarts", "1"],
    ["search", "--what", "hadwiger", "--dim", "2"],
    ["search", "--what", "pack5", "--dim", "2", "--seed", "2", "--budget", "200",
     "--restarts", "1"],
    ["search", "--what", "satellite", "--dim", "2", "--seed", "3", "--budget", "200",
     "--restarts", "1"],
    ["cip", "{cip_hard}", "--m", "1", "--shrink", "0.8"],
    ["cip", "--m", "2", "--trials", "20", "--seed", "5"],
    ["constants", "--dims", "1,2", "--budget", "100"],
    ["volume", "--space", "hyperbolic", "--dim", "3", "--r", "2.0"],
], ids=lambda argv: " ".join(a for a in argv if "{" not in a))
def test_report_writer_matches_json_dumps(argv, scenes, monkeypatch, capsys):
    """Every subcommand's report, as the writer receives it, renders to the
    text of ``json.dumps(report, sort_keys=True, indent=2)`` plus a newline."""
    seen = []

    def checked(report):
        text = render_report(report)
        assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
        seen.append(report)
        return text

    monkeypatch.setattr(cli, "render_report", checked)
    assert run_command([a.format(**scenes) for a in argv]) in (0, 1)
    assert len(seen) == 1 and capsys.readouterr().out == render_report(seen[0])


class TestIntegersBeyondFloats:
    """A scene integer too large for a float is an input error (exit 2)."""

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize("space,ball,message", [
        ('{"kind": "euclidean", "dim": 1}', '{"center": [BIG], "radius": 1.0}',
         "ball 1: ball 1 center[0] must be finite, got inf"),
        ('{"kind": "euclidean", "dim": 1}', '{"center": [2.0], "radius": BIG}',
         "ball 1: ball 1 radius must be finite, got inf"),
        ('{"kind": "euclidean", "dim": 1, "pnorm": -BIG}', '{"center": [2.0], "radius": 1.0}',
         "space pnorm must be finite, got -inf"),
        ('{"kind": "sphere", "dim": 1, "radius": BIG}', '{"center": [0.0, 1.0], "radius": 1.0}',
         "space radius must be finite, got inf"),
    ], ids=["center", "radius", "pnorm", "sphere radius"])
    def test_exits_two_naming_the_entry(self, space, ball, message, tmp_path, capsys):
        first = '{"center": [0.0, 1.0], "radius": 1.0}' if "sphere" in space else \
            '{"center": [0.0], "radius": 1.0}'
        scene = tmp_path / "big.json"
        scene.write_text(f'{{"version": 1, "space": {space}, "balls": [{first}, {ball}]}}'
                         .replace("BIG", self.BIG))
        assert run_command(["validate", str(scene), "--what", "besicovitch"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_integer_literal_beyond_the_digit_limit_exits_two(self, tmp_path, capsys):
        scene = tmp_path / "long.json"
        scene.write_text('{"version": 1, "space": {"kind": "euclidean", "dim": 1}, '
                         f'"balls": [{{"center": [{"7" * 5000}], "radius": 1.0}}]}}')
        assert run_command(["validate", str(scene), "--what", "besicovitch"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: scene has a number that cannot be read: ")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestSphereRadiusRange:
    """A sphere radius outside [2**-500, 2**500] is an input error (exit
    2): below it the norm of a point underflows (1e-200 ended in an
    internal ZeroDivisionError), above it ``R * R`` overflows (1e200 gave
    a false "not on the sphere").  A ring of three caps around the pole
    is valid at both ends of the range."""

    @staticmethod
    def ring(tmp_path, radius):
        s, c = radius * math.sin(0.5), radius * math.cos(0.5)
        centers = [[s * math.cos(a), s * math.sin(a), c] for a in (0.0, 2.0944, 4.1888)]
        scene = tmp_path / "ring.json"
        scene.write_text(json.dumps({
            "version": 1, "space": {"kind": "sphere", "dim": 2, "radius": radius},
            "balls": [{"center": p, "radius": 0.51 * radius} for p in centers]}))
        return str(scene)

    @pytest.mark.parametrize("radius", [1e-200, 1e200])
    def test_exits_two(self, radius, tmp_path, capsys):
        assert run_command(["validate", self.ring(tmp_path, radius), "--what", "besicovitch"]) == 2
        captured = capsys.readouterr()
        message = f"sphere radius must lie in [2**-500, 2**500], got {radius!r}"
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("radius", [2.0 ** -500, 2.0 ** 500])
    def test_ends_of_the_range_are_valid(self, radius, tmp_path, capsys):
        assert run_command(["validate", self.ring(tmp_path, radius), "--what", "besicovitch"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["status"] == "valid"


class TestExtremeFamilies:
    """Extreme but legal families get a verdict: flat families whose
    distances overflow are validated rescaled, and the sphere sweep steps
    off the antipode of a center."""

    @staticmethod
    def validate(tmp_path, capsys, space, balls, what="besicovitch"):
        scene = tmp_path / "extreme.json"
        scene.write_text(json.dumps({"version": 1, "space": space, "balls": [
            {"center": c, "radius": r} for c, r in balls]}))
        code = run_command(["validate", str(scene), "--what", what])
        return code, json.loads(capsys.readouterr().out)["payload"]

    @pytest.mark.parametrize("pnorm,big", [(2.0, 1e300), (3.0, 1e200), (1.0, 1e300)])
    @pytest.mark.parametrize("what", ["besicovitch", "k-config"])
    def test_a_huge_tangent_pair_is_valid(self, pnorm, big, what, tmp_path, capsys):
        space = {"kind": "euclidean", "dim": 2, "pnorm": pnorm}
        code, payload = self.validate(tmp_path, capsys, space,
                                      [([big, 0.0], big), ([-big, 0.0], big)], what)
        assert (code, payload["status"]) == (0, "valid")
        if what == "besicovitch":
            # the witness is scaled back to the family's coordinates
            x, y = payload["witness"]
            assert abs(x) <= 1e-9 * big and y == 0.0

    def test_a_huge_disjoint_pair_is_invalid(self, tmp_path, capsys):
        space = {"kind": "euclidean", "dim": 2}
        code, payload = self.validate(tmp_path, capsys, space,
                                      [([1e300, 0.0], 0.9e300), ([-1e300, 0.0], 0.9e300)])
        assert (code, payload["status"], payload["witness"]) == (1, "invalid", [0, 1])

    @pytest.mark.parametrize("pole", [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
    def test_an_antipodal_pair_of_hemispheres_is_valid(self, pole, tmp_path, capsys):
        space = {"kind": "sphere", "dim": 2}
        code, payload = self.validate(tmp_path, capsys, space, [
            (pole, math.pi / 2), ([-v for v in pole], math.pi / 2)])
        assert (code, payload["status"]) == (0, "valid")
        # the two hemispheres meet on the great circle between them
        assert abs(sum(p * w for p, w in zip(pole, payload["witness"]))) < 1e-9


def test_oned_has_no_mode(tmp_path, capsys):
    scene = tmp_path / "line.json"
    scene.write_text(json.dumps({"version": 1, "space": {"kind": "euclidean", "dim": 1},
                                 "balls": [{"center": [0.0], "radius": 1.0}]}))
    assert run_command(["oned", str(scene)]) == 0
    capsys.readouterr()
    assert run_command(["oned", str(scene), "--mode", "bounded"]) == 2
    assert "unrecognized arguments: --mode bounded" in capsys.readouterr().err


class TestHugeDim:
    """A space dim far beyond the scene's coordinates is an input error
    (exit 2), found before anything of that size is allocated."""

    @pytest.mark.parametrize("balls,message", [
        ([{"center": [0.0, 1.0], "radius": 1.0}],
         "ball 0: expected 100000000000000000000 coordinates, got 2"),
        ([], "space dim 100000000000000000000 exceeds 1000000 without coordinates"),
    ], ids=["ball", "bare"])
    @pytest.mark.parametrize("argv", [["validate", "--what", "besicovitch"], ["partition"]],
                             ids=lambda argv: argv[0])
    def test_exits_two(self, balls, message, argv, tmp_path, capsys):
        scene = tmp_path / "huge.json"
        scene.write_text(json.dumps({"version": 1, "balls": balls,
                                     "space": {"kind": "euclidean", "dim": 10 ** 20}}))
        assert run_command([argv[0], str(scene), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_volume_exits_two(self, capsys):
        # a Space costs O(1) in its dim, so the volume formula decides
        argv = ["volume", "--space", "euclidean", "--dim", str(10 ** 20), "--r", "1.0"]
        assert run_command(argv) == 2
        assert "beyond the float range" in capsys.readouterr().err


class TestTolIsValidateOnly:
    def test_validate_reads_tol(self, tmp_path):
        # two unit balls whose gap of 0.02 only a loose tolerance forgives
        scene = tmp_path / "apart.json"
        scene.write_text(json.dumps({
            "version": 1,
            "space": {"kind": "euclidean", "dim": 1},
            "balls": [{"center": [-1.01], "radius": 1.0}, {"center": [1.01], "radius": 1.0}],
        }))
        argv = ["validate", str(scene), "--what", "k-config"]
        assert run_command(argv) == 1
        assert run_command(argv + ["--tol", "0.01"]) == 0

    @pytest.mark.parametrize("what", ["besicovitch", "k-config"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_validate_rejects_a_tol_out_of_range(self, what, tol, tmp_path, capsys):
        # a disjoint pair: NaN and inf once certified it, -1 exited 1
        scene = tmp_path / "disjoint.json"
        scene.write_text(json.dumps({
            "version": 1,
            "space": {"kind": "euclidean", "dim": 2},
            "balls": [{"center": [-3.0, 0.0], "radius": 1.0},
                      {"center": [3.0, 0.0], "radius": 1.0}],
        }))
        argv = ["validate", str(scene), "--what", what]
        assert run_command(argv) == 1
        capsys.readouterr()
        assert run_command(argv + ["--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tolerance must be finite and >= 0, got {float(tol)!r}\n"

    @pytest.mark.parametrize("argv", [
        ["select", "{valid_1d}"],
        ["partition", "{valid_1d}"],
        ["oned", "{valid_1d}"],
        ["net", "{valid_1d}", "--eps", "1.0"],
        ["search", "--what", "hadwiger", "--dim", "2"],
        ["cip", "--m", "1", "--trials", "1"],
        ["constants", "--dims", "1", "--budget", "50"],
        ["volume", "--space", "sphere", "--dim", "2", "--r", "1.0"],
    ], ids=lambda argv: argv[0])
    def test_other_subcommands_reject_tol(self, argv, scenes, tmp_path, capsys):
        argv = [a.format(**scenes) for a in argv]
        assert run_command(argv + ["--out", str(tmp_path / "r.json")]) in (0, 1)
        capsys.readouterr()
        assert run_command(argv + ["--tol", "0.1"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --tol" in captured.err
        assert captured.out == ""


class TestFlagsApplyOnlyWhereRead:
    """A ``search``, ``validate`` or ``volume`` flag given with a ``--what``
    or ``--space`` that does not read it exits 2 and names the flag;
    before, it was accepted and ignored (``search --what pack5 --rmin -5``
    and ``validate --what besicovitch --alpha 7`` exited 0)."""

    @pytest.mark.parametrize("argv, flag", [
        (["search", "--what", "pack5", "--dim", "2", "--rmin", "-5"], "--rmin"),
        (["search", "--what", "pack5", "--dim", "2", "--rmax", "2"], "--rmax"),
        (["search", "--what", "pack5", "--dim", "2", "--tau", "9"], "--tau"),
        (["search", "--what", "pack5", "--dim", "2", "--lam", "0.1"], "--lam"),
        (["search", "--what", "satellite", "--dim", "2", "--rmin", "-5"], "--rmin"),
        (["search", "--what", "satellite", "--dim", "2", "--rmax", "2"], "--rmax"),
        (["search", "--what", "wbcp", "--dim", "2", "--tau", "1.5"], "--tau"),
        (["search", "--what", "wbcp", "--dim", "2", "--lam", "1.0"], "--lam"),
        (["search", "--what", "hadwiger", "--dim", "2", "--rmax", "nan"], "--rmax"),
        (["search", "--what", "hadwiger", "--dim", "2", "--rmin", "0.5"], "--rmin"),
        (["search", "--what", "hadwiger", "--dim", "2", "--tau", "1.5"], "--tau"),
        (["search", "--what", "hadwiger", "--dim", "2", "--lam", "1.0"], "--lam"),
        (["search", "--what", "hadwiger", "--dim", "2", "--budget", "100"], "--budget"),
        (["search", "--what", "hadwiger", "--dim", "2", "--restarts", "2"], "--restarts"),
        (["volume", "--space", "hyperbolic", "--dim", "2", "--r", "1", "--pnorm", "0.3"],
         "--pnorm"),
        (["volume", "--space", "hyperbolic", "--dim", "2", "--r", "1",
          "--sphere-radius", "-4"], "--sphere-radius"),
        (["volume", "--space", "sphere", "--dim", "2", "--r", "1", "--pnorm", "3"], "--pnorm"),
        (["volume", "--space", "euclidean", "--dim", "2", "--r", "1",
          "--sphere-radius", "2"], "--sphere-radius"),
        (["validate", "{valid_1d}", "--what", "besicovitch", "--alpha", "7", "--tau", "-3",
          "--target-index", "99"], "--alpha"),
        (["validate", "{valid_1d}", "--what", "besicovitch", "--target-index", "99"],
         "--target-index"),
        (["validate", "{valid_1d}", "--what", "besicovitch", "--tau", "-3"], "--tau"),
        (["validate", "{valid_1d}", "--what", "k-config", "--alpha", "0.75"], "--alpha"),
        (["validate", "{valid_1d}", "--what", "k-config", "--target-index", "0"],
         "--target-index"),
        (["validate", "{valid_1d}", "--what", "k-config", "--tau", "1.5"], "--tau"),
        (["validate", "{alpha}", "--what", "alpha-config", "--tau", "1.5"], "--tau"),
        (["validate", "{satellite}", "--what", "satellite", "--alpha", "0.75"], "--alpha"),
        (["validate", "{satellite}", "--what", "satellite", "--target-index", "0"],
         "--target-index"),
    ], ids=lambda v: "-".join(v).replace("{", "").replace("}", "") if isinstance(v, list) else v)
    def test_a_flag_that_is_not_read_exits_two(self, argv, flag, scenes, capsys):
        argv = [a.format(**scenes) for a in argv]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        choice = argv[argv.index("--space" if argv[0] == "volume" else "--what") + 1]
        assert f"error: {flag} does not apply to " in captured.err
        assert captured.err.rstrip().endswith(choice)

    @pytest.mark.parametrize("argv, defaults", [
        (["search", "--what", "wbcp", "--dim", "2", "--seed", "1"],
         ["--budget", "10000", "--restarts", "4", "--rmin", "0.5", "--rmax", "1.5"]),
        (["search", "--what", "pack5", "--dim", "2", "--seed", "1"],
         ["--budget", "10000", "--restarts", "4"]),
        (["search", "--what", "satellite", "--dim", "2", "--seed", "1"],
         ["--budget", "10000", "--restarts", "4", "--tau", "1.5", "--lam", "1.0"]),
        (["search", "--what", "hadwiger", "--dim", "3"], ["--seed", "0"]),
        (["volume", "--space", "euclidean", "--dim", "2", "--r", "1"], ["--pnorm", "2"]),
        (["volume", "--space", "sphere", "--dim", "2", "--r", "1"], ["--sphere-radius", "1"]),
        (["validate", "{alpha}", "--what", "alpha-config"],
         ["--alpha", "0.75", "--target-index", "0"]),
        (["validate", "{satellite}", "--what", "satellite"], ["--tau", "1.5"]),
    ], ids=["wbcp", "pack5", "satellite", "hadwiger", "euclidean", "sphere",
            "validate-alpha-config", "validate-satellite"])
    def test_a_flag_that_is_read_keeps_its_default(self, argv, defaults, scenes, capsys):
        # the report echoes argv, so only the payloads are compared
        argv = [a.format(**scenes) for a in argv]
        assert run_command(argv) == 0
        implicit = json.loads(capsys.readouterr().out)
        assert run_command(argv + defaults) == 0
        explicit = json.loads(capsys.readouterr().out)
        assert implicit["payload"] == explicit["payload"]
        assert implicit["seed"] == explicit["seed"]


SRC = os.path.dirname(os.path.dirname(cli.__file__))
VOLUME = ["volume", "--space", "euclidean", "--dim", "2", "--r", "1"]

# per subcommand: a complete argv, then one missing a required argument, one
# with a bad choice and one with a bad type (None where it has no such flag)
PARSER_CASES = {
    "validate": (["validate", "s.json", "--what", "besicovitch"], ["validate", "s.json"],
                 ["validate", "s.json", "--what", "nope"],
                 ["validate", "s.json", "--what", "besicovitch", "--tol", "x"]),
    "select": (["select", "s.json"], ["select"], None, ["select", "s.json", "--beta", "x"]),
    "partition": (["partition", "s.json"], ["partition", "--timing"], None,
                  ["partition", "s.json", "--alpha", "x"]),
    "oned": (["oned", "s.json", "--timing"], ["oned", "--timing"], None, None),
    "net": (["net", "s.json", "--eps", "0.5", "--strict"], ["net", "s.json"], None,
            ["net", "s.json", "--eps", "x"]),
    "search": (["search", "--what", "wbcp", "--dim", "2", "--rmin", "0.2"],
               ["search", "--what", "wbcp"], ["search", "--what", "nope", "--dim", "2"],
               ["search", "--what", "wbcp", "--dim", "x"]),
    "cip": (["cip", "--m", "2", "--trials", "3"], ["cip", "s.json"], None,
            ["cip", "--m", "2", "--trials", "x"]),
    "constants": (["constants", "--dims", "1", "--out", "r.json"], None, None,
                  ["constants", "--budget", "x"]),
    "volume": (VOLUME + ["--pnorm", "3"], ["volume", "--space", "sphere", "--dim", "2"],
               ["volume", "--space", "nope", "--dim", "2", "--r", "1"],
               ["volume", "--space", "sphere", "--dim", "2", "--r", "x"]),
}


def _error_cases():
    for name, (complete, missing, choice, bad_type) in PARSER_CASES.items():
        yield [name, "-h"]
        yield complete + ["--bogus", "1"]
        yield from (argv for argv in (missing, choice, bad_type) if argv is not None)
    yield from ([], ["-h"], ["--help"], ["nope"], ["--"], ["--", "volume"],
                ["validate", "s.json", "--what", "besicovitch", "--bogus"])


ERROR_CASES = list(_error_cases())


def parse_outcome(parser, argv, capsys):
    """(exit code or None, parsed arguments, stdout, stderr) of one parse."""
    try:
        parsed, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        parsed, code = None, exc.code
    captured = capsys.readouterr()
    return code, parsed, captured.out, captured.err


class TestTrimmedParser:
    """An argv that ``_parse_fast`` declines goes to argparse, and
    ``run_command`` prints what the full parser prints."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_every_subcommand_has_cases(self):
        assert list(PARSER_CASES) == list(cli._HANDLERS)

    @pytest.mark.parametrize("argv", ERROR_CASES, ids=" ".join)
    def test_run_command_prints_what_the_full_parser_prints(self, argv, capsys):
        code, parsed, out, err = parse_outcome(cli._build_parser(), argv, capsys)
        assert parsed is None and (out or err)
        assert run_command(argv) == (0 if code == 0 else 2)
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    @pytest.mark.parametrize("name", sorted(PARSER_CASES))
    def test_a_complete_argv_parses_to_the_same_arguments(self, name, capsys):
        # _parse_fast reads it, and gives what the full parser gives
        argv = PARSER_CASES[name][0]
        code, parsed, out, err = parse_outcome(cli._build_parser(), argv, capsys)
        assert (code, out, err) == (None, "", "")
        fast = cli._parse_fast(argv)
        assert fast is not None
        assert {k: (type(v), v) for k, v in vars(fast).items()} == {
            k: (type(v), v) for k, v in parsed.items()}

    def test_the_full_parser_holds_each_subcommand_with_its_arguments(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli._COMMANDS) == list(cli._HANDLERS)
        for name, (_handler, _help, arguments) in cli._COMMANDS.items():
            actions = sub.choices[name]._actions[1:]  # after -h
            assert [a.option_strings[0] if a.option_strings else a.dest
                    for a in actions] == [flag for flag, *_ in arguments]

    def test_help_survives_the_hard_exit(self):
        # main ends with os._exit, which would drop the buffered help text
        for argv in (["-h"], ["validate", "-h"]):
            out = fresh_cli(argv, stdout=subprocess.PIPE)
            assert out.returncode == 0 and out.stderr == ""
            assert out.stdout.startswith("usage: ballcover") and out.stdout.endswith("\n")
            assert "show this help message and exit" in out.stdout


class TestDeferredNames:
    """The search and selection names the CLI calls are imported by the
    handler that calls them: ``cli`` binds none of them, and a patch on
    their module is the function called."""

    def test_cli_binds_no_deferred_name(self, scenes, tmp_path):
        import ballcover

        out = str(tmp_path / "r.json")
        for argv in (["select", scenes["bands"]], ["partition", scenes["bands"]],
                     ["oned", scenes["bands"]], ["cip", "--m", "1", "--trials", "2"],
                     ["search", "--what", "hadwiger", "--dim", "2"],
                     ["search", "--what", "pack5", "--dim", "2", "--budget", "20"],
                     ["constants", "--dims", "1", "--budget", "20"]):
            assert run_command(argv + ["--out", out]) in (0, 1), argv
        deferred = {name for name, module in ballcover._SUBMODULE.items()
                    if module in ("search", "selection")}
        assert len(deferred) == 18
        assert not deferred & set(vars(cli))
        with pytest.raises(AttributeError, match="cip_check"):
            cli.cip_check  # noqa: B018

    def test_a_patch_on_the_module_is_called(self, scenes, monkeypatch):
        import ballcover.selection

        calls = []
        real = ballcover.selection.partition_into_disjoint_families

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ballcover.selection, "partition_into_disjoint_families", counted)
        out = os.devnull
        assert run_command(["partition", scenes["bands"], "--out", out]) == 0
        assert len(calls) == 1
        assert "partition_into_disjoint_families" not in vars(cli)


def fresh_cli(argv, closed_stdout=False, **kwargs):
    """``python -m ballcover.cli argv`` in a fresh process whose standard
    output is block-buffered, as it is under the benchmark; with
    ``closed_stdout``, a shell starts it with descriptor 1 closed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    cmd = [sys.executable, "-m", "ballcover.cli", *argv]
    if closed_stdout:
        cmd = ["sh", "-c", 'exec "$@" >&-', "sh", *cmd]
    return subprocess.run(cmd, env=env, stderr=subprocess.PIPE, text=True, timeout=60,
                          **kwargs)


def cannot_write(errno_code):
    return f"error: cannot write the report to standard output: {os.strerror(errno_code)}\n"


class TestUnwritableStdout:
    """A report that cannot be written to standard output exits 2, with one
    line on stderr, however the stream fails."""

    def test_closed_stdout(self):
        out = fresh_cli(VOLUME, closed_stdout=True)  # sys.stdout is None
        assert (out.returncode, out.stderr) == (2, cannot_write(errno.EBADF))

    def test_closed_pipe(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = fresh_cli(VOLUME, stdout=write_end)
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (2, cannot_write(errno.EPIPE))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            out = fresh_cli(VOLUME, stdout=full)
        assert (out.returncode, out.stderr) == (2, cannot_write(errno.ENOSPC))

    def test_a_report_to_a_file_needs_no_stdout(self, tmp_path):
        report = tmp_path / "r.json"
        out = fresh_cli([*VOLUME, "--out", str(report)], closed_stdout=True)
        assert (out.returncode, out.stderr) == (0, "")
        assert read(str(report))["payload"]["volume"] == pytest.approx(math.pi)

    def test_a_failed_flush_in_process(self, monkeypatch, capsys):
        class Full(io.StringIO):
            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", Full())
        assert run_command(VOLUME) == 2
        assert capsys.readouterr().err == cannot_write(errno.ENOSPC)
        monkeypatch.setattr(sys, "stdout", None)
        assert run_command(VOLUME) == 2
        assert capsys.readouterr().err == cannot_write(errno.EBADF)


class TestCollector:
    """``main`` runs a call with the cyclic garbage collector off;
    ``run_command`` leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_command_leaves_the_collector_alone(self, enabled):
        import gc

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run_command([*VOLUME, "--out", os.devnull]) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_main_runs_the_handler_with_the_collector_off(self):
        child = (
            "import gc, sys\n"
            "from ballcover import cli\n"
            "before = gc.isenabled()\n"
            "cli._HANDLERS['volume'] = lambda args: ({'before': before, 'during': gc.isenabled()},"
            " None, None, 0)\n"
            "sys.argv = ['ballcover', *sys.argv[1:]]\n"
            "cli.main()\n"
        )
        out = subprocess.run([sys.executable, "-c", child, *VOLUME],
                             env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                             timeout=60)
        assert (out.returncode, out.stderr) == (0, "")
        assert json.loads(out.stdout)["payload"] == {"before": True, "during": False}

"""Command-line front end: subcommands, exit codes, manifests, rendering."""

import errno
import json
import os
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from blockembed.cli import EXIT_CAP, EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION, main
from blockembed.fields import BitField, dump_field, load_field, sample_field
from blockembed.oracle import Instance, count_embeddings


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAuditParams:
    def test_ten_rows(self, capsys):
        code, out, _ = run(capsys, "audit-params", "--profile", "published")
        assert code == EXIT_OK
        rows = [l for l in out.splitlines() if l and not l.startswith(("constraint", "overall"))]
        assert len(rows) == 10

    def test_override_flags(self, capsys):
        code, out, _ = run(capsys, "audit-params", "--profile", "published",
                           "--alpha", "7", "--gamma", "280")
        assert code == EXIT_OK
        assert any("gamma > 40*alpha" in l and "False" in l for l in out.splitlines())

    def test_unknown_profile_is_config_error(self, capsys):
        code, _, _ = run(capsys, "audit-params", "--profile", "missing")
        assert code == EXIT_CONFIG

    def test_values_are_read_exactly(self, capsys):
        # The nearest double of 6.0000000000000001 is 6, which fails
        # alpha > 6; the value typed passes it.
        code, out, _ = run(capsys, "audit-params", "--profile", "published",
                           "--alpha", "6.0000000000000001")
        assert code == EXIT_OK
        assert "alpha > 6,6,6,True,1e-16" in out.splitlines()
        code, out, _ = run(capsys, "audit-params", "--profile", "published", "--gamma", "1/3")
        assert code == EXIT_OK
        assert "gamma > 40*alpha,0.333333,320,False,-319.667" in out.splitlines()

    def test_values_beyond_the_float_range_print(self, capsys):
        # 300*alpha*beta is 1.35e309 at alpha = 1e300, past the largest
        # double: rounded to 6 digits exactly, with no float in between.
        code, out, _ = run(capsys, "audit-params", "--profile", "published",
                           "--alpha", "1e300")
        assert code == EXIT_OK
        assert "gamma*k0 > 300*alpha*beta,4.55e+09,1.35e+309,False,-1.35e+309" in out.splitlines()
        assert "alpha > 6,1e+300,6,True,1e+300" in out.splitlines()

    @pytest.mark.parametrize("option, text", [
        ("--m", "inf"), ("--alpha", "nan"), ("--beta", "-inf"), ("--gamma", "abc"),
        ("--m", "1/0"), ("--alpha", ""),
    ])
    def test_non_finite_values_are_config_errors(self, capsys, option, text):
        code, out, err = run(capsys, "audit-params", "--profile", "published", option, text)
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith(f"config error: {option} must be a finite number")


class TestBuild:
    def test_deterministic_dump(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            code, _, _ = run(capsys, "build", "--profile", "toy1", "--seed", "5",
                             "--window", "0", "0", "2", "2", "--out-dir", str(d))
            assert code == EXIT_OK
        fa = (a / "hierarchy-Y-5.txt").read_text()
        fb = (b / "hierarchy-Y-5.txt").read_text()
        assert fa == fb

    # Each subcommand that writes artifacts, its options but --out-dir, and
    # flags that keep it quick.
    @pytest.mark.parametrize("command, options, extra", [
        ("sample", ["family", "height", "origin", "profile", "seed", "width"],
         ("--width", "3", "--height", "2")),
        ("build", ["family", "profile", "seed", "window"], ()),
        ("reports", ["profile", "seed", "window", "windows"], ("--windows", "1")),
        ("render", ["family", "level", "profile", "seed", "window"], ()),
    ], ids=["sample", "build", "reports", "render"])
    def test_manifest_written(self, tmp_path, capsys, command, options, extra):
        code, _, _ = run(capsys, command, "--seed", "5", *extra,
                         "--out-dir", str(tmp_path / "m"))
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["subcommand"] == command
        assert sorted(manifest["config"]) == options
        assert manifest["config"]["seed"] == "5"
        assert "config_hash" in manifest and manifest["artifacts"]
        # A tuple option given through --config is recorded resolved.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("origin = 2 -5\nwindow = 0 0 3 3\n")
        code, _, _ = run(capsys, "--config", str(cfg), command, *extra,
                         "--out-dir", str(tmp_path / "c"))
        assert code == EXIT_OK
        config = json.loads((tmp_path / "c" / "manifest.json").read_text())["config"]
        key, value = ("origin", "(2, -5)") if command == "sample" else ("window", "(0, 0, 3, 3)")
        assert config[key] == value

    def test_no_overwrite(self, tmp_path, capsys):
        d = tmp_path / "x"
        code, _, _ = run(capsys, "build", "--seed", "5", "--out-dir", str(d))
        assert code == EXIT_OK
        code, _, _ = run(capsys, "build", "--seed", "5", "--out-dir", str(d))
        assert code == EXIT_PRECONDITION


def _snapshot(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("command, extra", [
    ("sample", ("--width", "4", "--height", "4")),
    ("build", ()),
    ("render", ()),
    ("reports", ("--profile", "toy1", "--windows", "1")),
])
def test_second_run_into_an_out_dir_writes_nothing(tmp_path, capsys, command, extra):
    # Another seed names another artifact, but the manifest is taken.
    d = tmp_path / "out"
    code, _, _ = run(capsys, command, "--seed", "1", *extra, "--out-dir", str(d))
    assert code == EXIT_OK
    before = _snapshot(d)
    code, out, err = run(capsys, command, "--seed", "2", *extra, "--out-dir", str(d))
    assert code == EXIT_PRECONDITION
    assert out == "" and "refusing to overwrite" in err
    assert _snapshot(d) == before


REPORTS = ("reports", "--profile", "toy-m0-2", "--windows", "1", "--seed", "4")
BUILD = ("build", "--seed", "5")
REPORT_FILES = sorted(f"{n}.{e}" for n in ("tail", "size", "good") for e in ("csv", "records"))


class TestPublish:
    """``_publish``: one mkdir, existing names refused before any write,
    every file created exclusively, and each OS refusal one message line."""

    @pytest.mark.parametrize("taken", ["manifest.json", "good.records", "tail.csv"])
    def test_one_existing_name_writes_nothing(self, tmp_path, capsys, taken):
        d = tmp_path / "out"
        d.mkdir()
        (d / taken).write_bytes(b"earlier")
        code, out, err = run(capsys, *REPORTS, "--out-dir", str(d))
        assert code == EXIT_PRECONDITION
        assert out == "" and f"refusing to overwrite existing {d / taken}" in err
        assert _snapshot(d) == {taken: b"earlier"}

    def test_missing_parents_are_made(self, tmp_path, capsys):
        d = tmp_path / "a" / "b" / "c"
        code, out, _ = run(capsys, *REPORTS, "--out-dir", str(d))
        assert code == EXIT_OK and out == f"{d}\n"
        assert sorted(_snapshot(d)) == sorted(REPORT_FILES + ["manifest.json"])

    @pytest.mark.parametrize("racing", ["manifest.json", "size.csv"])
    def test_file_made_after_the_directory_is_refused(self, tmp_path, capsys, monkeypatch,
                                                     racing):
        # Another writer creates one of the names between the directory
        # step and that file's own write: it is refused, its bytes stay,
        # and the files written before it are left in the directory.
        d = tmp_path / "out"
        made = os.mkdir

        def mkdir_then_race(path, *args, **kwargs):
            made(path, *args, **kwargs)
            if os.fspath(path) == str(d):
                (d / racing).write_bytes(b"theirs")

        monkeypatch.setattr(os, "mkdir", mkdir_then_race)
        code, out, err = run(capsys, *REPORTS, "--out-dir", str(d))
        assert code == EXIT_PRECONDITION
        assert out == "" and f"refusing to overwrite existing {d / racing}" in err
        assert (d / racing).read_bytes() == b"theirs"
        # Artifacts are written in the order reports makes them, the
        # manifest last.
        order = [f"{n}.{e}" for n in ("tail", "size", "good") for e in ("csv", "records")]
        order.append("manifest.json")
        assert set(_snapshot(d)) - {racing} == set(order[:order.index(racing)])

    @pytest.mark.parametrize("below", [("sub",), ("a", "b")])
    def test_a_regular_file_as_parent_is_a_config_error(self, tmp_path, capsys, below):
        f = tmp_path / "FILE"
        f.write_bytes(b"")
        d = f.joinpath(*below)
        code, out, err = run(capsys, *BUILD, "--out-dir", str(d))
        assert code == EXIT_CONFIG and out == ""
        assert err.splitlines() == [f"config error: cannot make --out-dir {d}: Not a directory"]

    @pytest.mark.parametrize("where", ["out", "a/b"])
    def test_a_refused_mkdir_is_a_config_error(self, tmp_path, capsys, monkeypatch, where):
        # Under root a read-only parent refuses nothing, so os.mkdir itself
        # refuses, for os.makedirs too.
        def refused(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))

        monkeypatch.setattr(os, "mkdir", refused)
        d = tmp_path / where
        code, out, err = run(capsys, *BUILD, "--out-dir", str(d))
        assert code == EXIT_CONFIG and out == ""
        assert err.splitlines() == [f"config error: cannot make --out-dir {d}: Permission denied"]
        assert not d.exists()

    def test_a_refused_create_is_a_precondition_error(self, tmp_path, capsys, monkeypatch):
        # The first artifact cannot be created: nothing is written, the
        # directory stays, and the run exits 2.
        def refused(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(os, "open", refused)
        d = tmp_path / "out"
        code, out, err = run(capsys, *BUILD, "--out-dir", str(d))
        assert code == EXIT_PRECONDITION and out == ""
        assert err.splitlines() == [
            f"precondition violated: cannot create {d / 'hierarchy-Y-5.txt'}: Permission denied"]
        assert _snapshot(d) == {}


class TestSampleAndOracle:
    def test_round_trip_through_files(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sample", "--seed", "1", "--family", "X",
                         "--width", "2", "--height", "2",
                         "--out-dir", str(tmp_path / "sx"))
        assert code == EXIT_OK
        code, _, _ = run(capsys, "sample", "--seed", "2", "--family", "Y",
                         "--width", "5", "--height", "5",
                         "--out-dir", str(tmp_path / "sy"))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "oracle",
                           "--x-file", str(tmp_path / "sx" / "field-X-1.bin"),
                           "--y-file", str(tmp_path / "sy" / "field-Y-2.bin"),
                           "-m", "2", "--mode", "count")
        assert code == EXIT_OK
        assert "count" in json.loads(out.strip())

    def test_node_cap_exit_code(self, tmp_path, capsys):
        run(capsys, "sample", "--seed", "1", "--family", "X", "--width", "2",
            "--height", "2", "--out-dir", str(tmp_path / "sx"))
        run(capsys, "sample", "--seed", "2", "--family", "Y", "--width", "5",
            "--height", "5", "--out-dir", str(tmp_path / "sy"))
        code, _, _ = run(capsys, "oracle",
                         "--x-file", str(tmp_path / "sx" / "field-X-1.bin"),
                         "--y-file", str(tmp_path / "sy" / "field-Y-2.bin"),
                         "-m", "2", "--mode", "count", "--node-cap", "1")
        assert code == EXIT_CAP

    # A 2x1 source into a 2x2 target: 8 maps send the pair to neighbours and
    # 4 more to diagonals, allowed once M^2 >= 2.  The first bound lies just
    # below sqrt(2), and its nearest double just above.
    @pytest.mark.parametrize("bound, count", [("1.414213562373095048", 8), ("3/2", 12)])
    def test_bound_is_read_exactly(self, tmp_path, capsys, bound, count):
        x = BitField("X", (0, 0), 2, 1, 0, np.zeros((1, 2), dtype=np.uint8))
        y = BitField("Y", (0, 0), 2, 2, 0, np.zeros((2, 2), dtype=np.uint8))
        (tmp_path / "x.bin").write_bytes(dump_field(x))
        (tmp_path / "y.bin").write_bytes(dump_field(y))
        code, out, _ = run(capsys, "oracle", "--x-file", str(tmp_path / "x.bin"),
                           "--y-file", str(tmp_path / "y.bin"), "-m", bound, "--mode", "count")
        assert code == EXIT_OK
        assert count_embeddings(Instance.from_fields(x, y, Fraction(bound))) == count
        assert json.loads(out) == {"mode": "count", "count": count}
        assert count_embeddings(Instance.from_fields(x, y, float("1.414213562373095048"))) == 12

    @pytest.mark.parametrize("extra", [("--mode", "enumerate", "--limit", "0"),
                                       ("--mode", "enumerate", "--limit", "-3"),
                                       ("-m", "-2", "--mode", "count"),
                                       ("-m", "nan", "--mode", "count"),
                                       ("-m", "inf", "--mode", "decide"),
                                       ("-m", "two", "--mode", "count"),
                                       ("-m", "1/0", "--mode", "count"),
                                       ("--mode", "decide", "--limit", "2"),
                                       ("--mode", "count", "--limit", "2"),
                                       ("--limit", "1")])
    def test_bad_limit_or_bound_is_config_error(self, tmp_path, capsys, extra):
        run(capsys, "sample", "--seed", "1", "--family", "X", "--width", "2",
            "--height", "2", "--out-dir", str(tmp_path / "sx"))
        run(capsys, "sample", "--seed", "2", "--family", "Y", "--width", "5",
            "--height", "5", "--out-dir", str(tmp_path / "sy"))
        args = ["oracle", "--x-file", str(tmp_path / "sx" / "field-X-1.bin"),
                "--y-file", str(tmp_path / "sy" / "field-Y-2.bin")]
        if "-m" not in extra:
            args += ["-m", "2"]
        code, out, err = run(capsys, *args, *extra)
        assert code == EXIT_CONFIG
        assert out == "" and "config error" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_node_cap_below_one_is_config_error(self, tmp_path, capsys, cap):
        run(capsys, "sample", "--seed", "1", "--family", "X", "--width", "2",
            "--height", "2", "--out-dir", str(tmp_path / "sx"))
        run(capsys, "sample", "--seed", "2", "--family", "Y", "--width", "5",
            "--height", "5", "--out-dir", str(tmp_path / "sy"))
        code, out, err = run(capsys, "oracle", "--x-file", str(tmp_path / "sx" / "field-X-1.bin"),
                             "--y-file", str(tmp_path / "sy" / "field-Y-2.bin"),
                             "-m", "2", "--mode", "count", "--node-cap", cap)
        assert code == EXIT_CONFIG
        assert out == "" and f"--node-cap must be at least 1, got {cap}" in err

    def test_truncated_field_file_is_config_error(self, tmp_path, capsys):
        run(capsys, "sample", "--seed", "1", "--family", "X", "--width", "2",
            "--height", "2", "--out-dir", str(tmp_path / "sx"))
        run(capsys, "sample", "--seed", "2", "--family", "Y", "--width", "5",
            "--height", "5", "--out-dir", str(tmp_path / "sy"))
        x_file = tmp_path / "sx" / "field-X-1.bin"
        x_file.write_bytes(x_file.read_bytes()[:-1])
        code, _, err = run(capsys, "oracle", "--x-file", str(x_file),
                           "--y-file", str(tmp_path / "sy" / "field-Y-2.bin"),
                           "-m", "2", "--mode", "count")
        assert code == EXIT_CONFIG
        assert "payload" in err


class TestEstimateAndReports:
    def test_estimate_s_runs(self, capsys):
        code, out, _ = run(capsys, "estimate-s", "--profile", "toy-m0-3",
                           "--seed", "3", "--trials", "200",
                           "--window", "0", "0", "1", "1")
        assert code == EXIT_OK
        assert out.startswith("level,size,point")

    def test_estimate_s_says_why_no_rows(self, capsys):
        # Every block of the default 2x2 window is censored.
        code, out, err = run(capsys, "estimate-s", "--profile", "toy1", "--family", "X",
                             "--level", "1", "--trials", "5")
        assert code == EXIT_OK
        assert out == "level,size,point,ci_low,ci_high,trials\n"
        assert len(err.splitlines()) == 1
        assert "no uncensored level-1 target" in err
        code, out, err = run(capsys, "estimate-s", "--profile", "toy1", "--family", "X",
                             "--level", "1", "--trials", "5", "--seed", "5",
                             "--window", "0", "0", "3", "3")
        assert code == EXIT_OK
        assert len(out.splitlines()) > 1 and err == ""

    @pytest.mark.parametrize("flag", [("--trials", "0"), ("--trials", "-2"),
                                      ("--workers", "0"), ("--workers", "-3")])
    @pytest.mark.parametrize("window", [("0", "0", "2", "2"), ("0", "0", "3", "3")])
    def test_estimate_s_bad_counts_are_config_errors(self, capsys, flag, window):
        # The 2x2 window has no uncensored target at seed 5, the 3x3 one has.
        code, out, err = run(capsys, "estimate-s", "--profile", "toy1", "--family", "X",
                             "--level", "1", "--seed", "5", "--window", *window, *flag)
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"{flag[0]} must be at least 1, got {flag[1]}" in err

    def test_estimate_s_level_validation(self, capsys):
        # Rejected before anything is built or printed.
        for args in [("--level", "2"), ("--family", "X", "--level", "0"),
                     ("--family", "Y", "--level", "1")]:
            code, out, _ = run(capsys, "estimate-s", *args)
            assert code == EXIT_CONFIG
            assert out == ""

    def test_reports_deterministic(self, tmp_path, capsys):
        args = ("reports", "--profile", "toy-m0-3", "--seed", "3",
                "--windows", "2", "--window", "0", "0", "3", "3")
        code, _, _ = run(capsys, *args, "--out-dir", str(tmp_path / "r1"))
        assert code == EXIT_OK
        code, _, _ = run(capsys, *args, "--out-dir", str(tmp_path / "r2"))
        assert code == EXIT_OK
        for name in ("tail.csv", "size.csv", "good.csv", "tail.records"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


    @pytest.mark.parametrize("profile, censored", [("toy-m0-3", True), ("toy1", False)])
    def test_reports_notes_a_stand_in_sample(self, tmp_path, capsys, profile, censored):
        # A toy-m0-3 window's bad cells merge into one censored component,
        # so the tail and size tables fall back to one stand-in sample.
        code, _, err = run(capsys, "reports", "--profile", profile, "--seed", "3",
                           "--windows", "1", "--window", "0", "0", "3", "3",
                           "--out-dir", str(tmp_path / "r"))
        assert code == EXIT_OK
        assert ("stand-in sample (S=1, V=1)" in err) == censored
        size = (tmp_path / "r" / "size.csv").read_text().splitlines()
        assert (size[2:] == ["0,1,1,1,1,1"]) == censored


class TestSeedRange:
    # A seed is one 64-bit word; outside [0, 2**64) it would alias one inside.
    SEEDED = ["sample", "build", "components", "estimate-s", "reports", "render"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", SEEDED)
    def test_out_of_range_is_config_error(self, tmp_path, capsys, command, seed):
        out_dir = tmp_path / "out"
        args = [command, "--seed", seed]
        if command not in ("components", "estimate-s"):
            args += ["--out-dir", str(out_dir)]
        code, out, err = run(capsys, *args)
        assert code == EXIT_CONFIG
        assert f"'--seed': {seed} is not in the range 0<=x<=18446744073709551615" in err
        assert out == "" and not out_dir.exists()

    def test_config_file_seed_is_checked(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"seed = {2**64 + 1}\n")
        code, out, err = run(capsys, "--config", str(cfg), "components")
        assert code == EXIT_CONFIG
        assert out == "" and "is not in the range" in err

    def test_top_of_the_range_is_a_seed(self, tmp_path, capsys):
        top = 2**64 - 1
        code, out, _ = run(capsys, "sample", "--seed", str(top), "--width", "8",
                           "--height", "8", "--out-dir", str(tmp_path / "s"))
        assert code == EXIT_OK
        field = load_field((tmp_path / "s" / f"field-Y-{top}.bin").read_bytes())
        assert field.seed == top
        assert field == sample_field(top, "Y", (0, 0), 8, 8)
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == str(top)


class TestEmptyWindow:
    # Empty and inverted level-1 windows hold no level-1 cell.
    @pytest.mark.parametrize("window", [(0, 0, 0, 0), (1, 1, 1, 3), (2, 2, 0, 0)])
    @pytest.mark.parametrize("command", ["build", "components", "estimate-s", "reports",
                                         "render"])
    def test_rejected_as_config_error(self, tmp_path, capsys, command, window):
        out_dir = tmp_path / "out"
        args = [command, "--window", *map(str, window)]
        if command in ("build", "reports", "render"):
            args += ["--out-dir", str(out_dir)]
        code, out, err = run(capsys, *args)
        assert code == EXIT_CONFIG
        assert f"level-1 window {window} holds no cell" in err
        assert out == "" and not out_dir.exists()


class TestWideWindow:
    # A window more than 65 536 level-1 cells across would give two blocks
    # one curve key: refused before any site is sampled, with the exit
    # code of the refusal that comes first.
    @pytest.mark.parametrize("family, code, message", [
        ("X", EXIT_CONFIG, "spans more than 65536 cells"), ("Y", EXIT_CAP, "exceeds cap")])
    def test_refused_unsampled(self, tmp_path, capsys, monkeypatch, family, code, message):
        def fail(*args):
            raise AssertionError("sampled a refused window")

        monkeypatch.setattr("blockembed.fields.sample_field", fail)
        out_dir = tmp_path / "out"
        got, out, err = run(capsys, "build", "--family", family, "--window", "0", "0", "65537",
                            "1", "--out-dir", str(out_dir))
        assert got == code and message in err
        assert out == "" and not out_dir.exists()


class TestRender:
    def test_svg_well_formed_and_cross_counted(self, tmp_path, capsys):
        code, _, _ = run(capsys, "build", "--profile", "toy1", "--seed", "7",
                         "--window", "0", "0", "2", "2",
                         "--out-dir", str(tmp_path / "b"))
        assert code == EXIT_OK
        code, _, _ = run(capsys, "render", "--profile", "toy1", "--seed", "7",
                         "--window", "0", "0", "2", "2",
                         "--out-dir", str(tmp_path / "r"))
        assert code == EXIT_OK
        svg = (tmp_path / "r" / "level1-Y-7.svg").read_text()
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        blocks_in_svg = len([e for e in root.iter(f"{ns}g") if e.get("class") == "block"])
        dump = (tmp_path / "b" / "hierarchy-Y-7.txt").read_text()
        blocks_in_dump = sum(1 for l in dump.splitlines() if l.startswith("block level=1"))
        assert blocks_in_svg == blocks_in_dump > 0
        cells_in_svg = len([e for e in root.iter(f"{ns}rect") if e.get("class") == "cell"])
        assert cells_in_svg == 4


class TestConfigFile:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("profile = toy-m0-3\nseed = 11\n")
        code, out, _ = run(capsys, "--config", str(cfg), "components")
        assert code == EXIT_OK
        assert out.startswith("level,status")

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 11\n")
        d = tmp_path / "out"
        code, _, _ = run(capsys, "--config", str(cfg), "build", "--seed", "3",
                         "--out-dir", str(d))
        assert code == EXIT_OK
        assert (d / "hierarchy-Y-3.txt").exists()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("what even is this\n")
        code, _, _ = run(capsys, "--config", str(cfg), "components")
        assert code == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path, capsys):
        # A misspelt key is refused by name, not ignored; a key that only
        # another subcommand takes, or a long flag name, stays accepted.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("windw = 0 0 3 3\n")
        code, out, err = run(capsys, "--config", str(cfg), "components", "--family", "X")
        assert code == EXIT_CONFIG and out == ""
        assert "config error:" in err and "'windw'" in err
        cfg.write_text("window = 0 0 1 1\nout-dir = unused\nm = 3\n")
        code, out, _ = run(capsys, "--config", str(cfg), "components", "--family", "X")
        assert code == EXIT_OK and out.startswith("level,status")
        code, via_config, _ = run(capsys, "--config", str(cfg), "audit-params")
        assert code == EXIT_OK
        assert via_config == run(capsys, "audit-params", "--m", "3")[1]
        assert via_config != run(capsys, "audit-params")[1]

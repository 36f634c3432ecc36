"""What the package loads at start-up, and ``python -m blockembed``.

scipy is imported inside the functions that call it, so commands that
never label a grid or compute an interval start without it: a source-family
build labels nothing, and a level-1 estimate loads ``scipy.special`` for
its intervals but not ``scipy.ndimage``.  Each check runs in a fresh
interpreter, where ``sys.modules`` shows every import.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from blockembed.cli import EXIT_CONFIG, EXIT_OK, main

SRC = Path(__file__).resolve().parent.parent / "src"

BOUNDARY = textwrap.dedent("""
    import sys

    from blockembed import cli, embed, hierarchy, oracle, stats

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    out = sys.argv[1]
    assert not scipy_modules(), ("import", scipy_modules())
    for args in (
        ["--help"],
        ["sample", "--seed", "1", "--family", "X", "--width", "3", "--height", "2",
         "--out-dir", out + "/sx"],
        ["sample", "--seed", "2", "--family", "Y", "--width", "5", "--height", "5",
         "--out-dir", out + "/sy"],
        ["oracle", "--x-file", out + "/sx/field-X-1.bin",
         "--y-file", out + "/sy/field-Y-2.bin", "-m", "2", "--mode", "count"],
        ["audit-params", "--profile", "toy1"],
        ["build", "--profile", "toy1", "--family", "X", "--out-dir", out + "/bx"],
    ):
        assert cli.main(args) == 0, args
        assert not scipy_modules(), (args, scipy_modules())
    assert cli.main(["estimate-s", "--profile", "toy1", "--family", "X", "--level", "1",
                     "--window", "0", "0", "3", "3", "--trials", "3", "--seed", "1"]) == 0
    assert "scipy.special" in sys.modules, "estimate-s should load scipy.special"
    assert "scipy.ndimage" not in sys.modules, ("estimate-s", scipy_modules())
    assert cli.main(["build", "--profile", "toy1", "--out-dir", out + "/b"]) == 0
    assert "scipy.ndimage" in sys.modules, "build should label with scipy.ndimage"
    print("ok")
""")


def _python(*args, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_commands_without_labelling_never_load_scipy(tmp_path):
    proc = _python("-c", BOUNDARY, str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


class TestModuleEntryPoint:
    def test_audit_params_exits_zero(self, tmp_path):
        proc = _python("-m", "blockembed", "audit-params", "--profile", "toy1", cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("constraint")

    def test_negative_bound_exits_with_the_config_code(self, tmp_path, capsys):
        for seed, family, side in ((1, "X", "2"), (2, "Y", "5")):
            assert main(["sample", "--seed", str(seed), "--family", family, "--width", side,
                         "--height", side, "--out-dir", str(tmp_path / family)]) == EXIT_OK
        capsys.readouterr()
        proc = _python("-m", "blockembed", "oracle",
                       "--x-file", str(tmp_path / "X" / "field-X-1.bin"),
                       "--y-file", str(tmp_path / "Y" / "field-Y-2.bin"),
                       "-m", "-1", cwd=tmp_path)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == "" and "config error" in proc.stderr

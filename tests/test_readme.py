"""The README's library sketch and every command it lists run as written."""

import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from noisystorage import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_library_sketch_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})


def _command_lines():
    """The argvs of the "Command line" section, continuations joined."""
    section = README.read_text().split("## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section,
                      flags=re.DOTALL | re.MULTILINE).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("noisystorage ")]


# what "simulate robust" prints when its code spends more syndrome bits
# than the length bound budgets
BUDGET_WARNING = ("warning: the correction code spends more syndrome bits "
                  "than the 1.2 h(ph_err) n budget assumed by the length "
                  "bound\n")


def _runnable(argv, tmp_path):
    """The argv with --out under tmp_path, and two trials where a trial
    count applies."""
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    if argv[0] in ("simulate", "verify") and argv[:2] != ["verify", "codes"]:
        argv += ["--trials", "2"]
    return argv


def test_readme_commands_run(capsys, tmp_path):
    argvs = _command_lines()
    assert len(argvs) == 14
    bounds = [argv for argv in argvs if argv[0] == "bounds"]
    assert [argv[1] for argv in bounds] == ["ot", "robust", "qid",
                                            "impersonation"]
    for argv in argvs:
        assert cli.dispatch(_runnable(argv, tmp_path)) == 0, argv
        err = capsys.readouterr().err
        if argv[:2] == ["simulate", "robust"]:
            assert err in ("", BUDGET_WARNING)
        else:
            assert err == "", argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv",
                                                          "region.csv"]


@pytest.mark.parametrize("edit, code, prefix", [
    ((), 0, ""),
    (("--delta", "0.3"), 1, "error: "),
    (("--r", "1.0"), 2, "infeasible: "),
], ids=["ok", "invalid", "infeasible"])
def test_console_entry_point(capsys, edit, code, prefix):
    # main() is what the installed noisystorage script runs
    argv = _command_lines()[0]
    assert argv[:2] == ["bounds", "ot"]
    if edit:
        option, value = edit
        argv[argv.index(option) + 1] = value
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "noisystorage.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix)
    # the same bytes as an in-process dispatch
    assert cli.dispatch(argv) == code
    assert (proc.stdout, proc.stderr) == capsys.readouterr()

"""The README's library sketch and every command it lists run as written."""

import pathlib
import re
import shlex

from noisystorage import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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

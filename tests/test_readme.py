"""The README's library sketch runs as written, and its commands parse."""

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


def test_readme_commands_parse_and_bounds_run(capsys):
    argvs = _command_lines()
    assert len(argvs) == 14
    for argv in argvs:
        cli._parser().parse_args(argv)
    bounds = [argv for argv in argvs if argv[0] == "bounds"]
    assert [argv[1] for argv in bounds] == ["ot", "robust", "qid",
                                            "impersonation"]
    for argv in bounds:
        assert cli.dispatch(argv) == 0
        assert capsys.readouterr().err == ""

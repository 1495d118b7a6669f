"""The README's library quick start runs and prints what its comments
say, and every command of its command-line block exits 0."""

import contextlib
import io
import pathlib
import re
import shlex

from loccdist.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_commented_values():
    code = quick_start_block()
    # The first word of each print line's comment is the printed value; a
    # trailing "..." means the value starts with those digits.
    expected = re.findall(r"^print\(.*\)\s+#\s*(\S+)", code, re.M)
    assert expected == ["0.415359...", "0.428571...", "0.5"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == len(expected)
    for value, want in zip(printed, expected):
        if want.endswith("..."):
            assert value.startswith(want[:-3])
        else:
            assert value == want


def command_lines() -> list[list[str]]:
    text = README.read_text()
    section = text[text.index("## Command line") :]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("loccdist ")]


def test_readme_command_lines_exit_0(tmp_path, capsys):
    commands = command_lines()
    assert [argv[0] for argv in commands] == [
        "bounds", "bounds", "sweep", "sweep", "optimize", "verify"
    ]
    for argv in commands:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, argv
        assert "FAIL" not in capsys.readouterr().out

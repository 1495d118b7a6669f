"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

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

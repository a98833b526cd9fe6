"""The README's "Library quick start" block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first python block under the "Library quick start" heading."""
    section = README.read_text().split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README has no python block under Library quick start"
    return match.group(1)


def test_quick_start_runs(capsys):
    exec(compile(quick_start(), str(README), "exec"), {})
    assert capsys.readouterr().out.strip()

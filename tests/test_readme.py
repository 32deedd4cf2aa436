"""The README's library quick start runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library quick start")
    block = re.compile(r"```python\n(.*?)```", flags=re.S).search(text, start)
    assert block is not None, "no python block under the quick start heading"
    # Pad with newlines so tracebacks point at README line numbers.
    source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(source, str(README), "exec"), {})

"""The README's library quick start runs as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from rcoreset.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library quick start")
    block = re.compile(r"```python\n(.*?)```", flags=re.S).search(text, start)
    assert block is not None, "no python block under the quick start heading"
    # Pad with newlines so tracebacks point at README line numbers.
    source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(source, str(README), "exec"), {})


def test_command_line_examples_parse():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Command line")
    block = re.compile(r"```sh\n(.*?)```", flags=re.S).search(text, start)
    assert block is not None, "no sh block under the command line heading"
    lines = block.group(1).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("rcoreset ")]
    assert len(commands) == 6
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(argv)}")

"""The package's public names and the README's library example."""
from __future__ import annotations

import contextlib
import io
import re
import types
from pathlib import Path

import instants
from instants import dsl

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = {
    # combinators
    "await_", "close", "halt", "init", "loop", "merge", "nothing", "repeat",
    "rexp", "rif", "terminate", "when",
    "Environment",
    # basic programs
    "Atom", "Seq", "Stop", "Suspend", "Activate", "Raise", "Handle", "seq",
    # host actions
    "HostAction", "Abort", "build_action", "Print",
    # what react_t takes and returns
    "InstantEvents", "InstantTrace",
    # statuses and limits
    "Status", "SUSP", "STOP", "END", "star", "Limits",
    # errors
    "ReactiveError", "InstantaneousLoop", "IntegerTooLarge",
    "MicroStepLimitExceeded", "UncaughtAbort",
    # DSL entry points
    "parse_program", "parse_trace", "render", "compile_expr",
}


def test_top_level_exports_exactly_the_documented_api():
    exported = {
        name for name, value in vars(instants).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 42
    assert exported == PUBLIC_NAMES


def test_readme_library_example_prints_both_first_outputs():
    text = README.read_text(encoding="utf-8")
    example = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(example, {})
    assert printed.getvalue() == "['1', 'A']\n"


# The labels of README's "DSL reference" and the _FORMS kinds they list.
README_KINDS = {"Expressions": "expression", "Programs": "program", "Conditions": "condition",
                "Integers": "integer", "Actions": "action"}


def test_readme_dsl_reference_lists_exactly_the_grammar_heads():
    text = README.read_text(encoding="utf-8")
    section = text.split("## DSL reference", 1)[1].split("\nSignals ", 1)[0]
    parts = re.split(r"\b(%s):" % "|".join(README_KINDS), section)[1:]
    listed = {README_KINDS[label]: set(re.findall(r"`\(([^\s)`]+)", body))
              for label, body in zip(parts[::2], parts[1::2])}
    assert listed == {kind: set(rows) for kind, (_, rows) in dsl._FORMS.items()}

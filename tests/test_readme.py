"""README checks: its quickstart runs and every flag it names exists."""

import argparse
import re
from pathlib import Path

from specrisk.cli import _build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text under a ``## title`` heading, up to the next ``## `` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def _parser_options(parser: argparse.ArgumentParser) -> set[str]:
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _parser_options(sub)
    return options


def test_library_quickstart_runs(capsys):
    block = re.search(r"```python\n(.*?)```", _section("Library quickstart"), re.S).group(1)
    exec(compile(block, "README quickstart", "exec"), {})
    point, ci_low, ci_high = (float(v) for v in capsys.readouterr().out.split())
    assert ci_low <= point <= ci_high


def test_every_flag_named_is_an_option():
    # the Install block's flags are pip's
    text = README.replace(_section("Install"), "")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert named, "no flag found in README"
    assert sorted(named - _parser_options(_build_parser())) == []

"""README checks: its quickstart runs, and every flag and code name it cites exists."""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import specrisk
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


def _named_flags() -> set[str]:
    # the Install block's flags are pip's
    text = README.replace(_section("Install"), "")
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))


def test_every_flag_named_is_an_option():
    named = _named_flags()
    assert named, "no flag found in README"
    assert sorted(named - _parser_options(_build_parser())) == []


def test_every_option_is_named():
    options = _parser_options(_build_parser()) - {"-h", "--help", "--version"}
    assert sorted(options - _named_flags()) == []


_MODULES = {
    m.name: importlib.import_module(f"specrisk.{m.name}")
    for m in pkgutil.iter_modules(specrisk.__path__)
    if m.name != "__main__"
}


def _has(owner, name: str) -> bool:
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return hasattr(owner, name) or name in {f.name for f in fields}


def _resolves(dotted: str) -> bool:
    """Whether ``module.name...``, ``Class.name...`` or a bare ``_name`` exists in specrisk."""
    head, *rest = dotted.split(".")
    if not rest:
        # a bare private name: a module's, or a specrisk class's
        owners = [*_MODULES.values()] + [
            cls
            for module in _MODULES.values()
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__.startswith("specrisk")
        ]
        return any(_has(owner, head) for owner in owners)
    obj = _MODULES.get(head) or getattr(specrisk, head)
    for name in rest:
        if not _has(obj, name):
            return False
        obj = getattr(obj, name, None)
    return True


def test_every_code_name_cited_resolves():
    # `harness._worker_pool`, `ExponentialSpectrum.phi`, `_masses(edges, tails)`:
    # a dotted name whose head is a specrisk module or export, or a private name
    heads = set(_MODULES) | {name for name in dir(specrisk) if name[:1].isupper()}
    cited = set()
    for text in re.findall(r"`([^`\n]+)`", README):
        name = re.match(r"[A-Za-z_][\w.]*", text)
        if name is None:
            continue
        name = name.group(0).rstrip(".")
        dotted = "." in name
        if (dotted and name.split(".")[0] in heads) or (not dotted and name.startswith("_")):
            cited.add(name)
    assert {n for n in cited if n.split(".")[0] in _MODULES}, "no module-qualified name found"
    assert {n for n in cited if n.startswith("_")}, "no private name found"
    assert sorted(n for n in cited if not _resolves(n)) == []

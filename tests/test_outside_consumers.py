"""The package surface that code outside the package uses.

The benchmark under perfbench/ and the README's library quick start call
braidmono by name.  These tests read those files, without running the
benchmark, and fail when a name they use is gone from the package or
when the model braids the benchmark reads are not the stated words.
They also replay the README's examples: each `$ braidmono ...` line
must print what the README shows under it, and the quick start must
print the braid its comment states.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

import braidmono
from braidmono import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _workload_uses() -> list[tuple[str, list[str]]]:
    """Each bm.<name> in workloads.py, with the keywords of calls to it."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    keywords = {
        id(node.func): [k.arg for k in node.keywords if k.arg]
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    return [
        (node.attr, keywords.get(id(node), []))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "bm"
    ]


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _quick_start_code() -> str:
    section = _readme().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _cli_examples() -> list[tuple[str, str]]:
    """Each `$ braidmono ...` line of the README's plain code blocks, with
    the lines shown under it up to the next prompt or the block's end."""
    return [
        example
        for lang, block in re.findall(r"^```(\w*)\n(.*?)^```$", _readme(), re.S | re.M)
        if not lang
        for example in re.findall(r"^\$ (braidmono .*)\n((?:(?!\$ ).*\n)*)", block, re.M)
    ]


def _quick_start_imports() -> list[str]:
    return [
        alias.name
        for node in ast.walk(ast.parse(_quick_start_code()))
        if isinstance(node, ast.ImportFrom) and node.module == "braidmono"
        for alias in node.names
    ]


def test_outside_consumers_find_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()  # resolves every TRACED entry, or raises
    finally:
        tracer.uninstall()

    uses = _workload_uses()
    assert uses
    for name, keywords in uses:
        assert hasattr(braidmono, name), "perfbench/workloads.py uses bm.%s" % name
        if keywords:
            params = inspect.signature(getattr(braidmono, name)).parameters
            assert set(keywords) <= set(params), (name, keywords)

    imports = _quick_start_imports()
    assert imports
    for name in imports:
        assert hasattr(braidmono, name), "the README's quick start imports %s" % name


def test_the_benchmark_reads_each_stated_model_word(monkeypatch):
    # model_program is derived from model_letters, not a second statement.
    assert "model_program" not in {f.name for f in dataclasses.fields(braidmono.Fixture)}
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    catalogue = {f.fixture_id: f for f in workloads.catalogue()}
    braids = workloads._present_setup()["braids"]
    assert len(catalogue) == 15
    assert braids == {
        fid: braidmono.BraidWord(f.expected_relations.rank, f.model_letters)
        for fid, f in catalogue.items()
    }


CLI_EXAMPLES = _cli_examples()


def test_the_readme_shows_six_cli_examples():
    assert [command.split()[1] for command, _ in CLI_EXAMPLES] == [
        "compute", "vankampen", "verify", "verify", "verify", "verify"]


@pytest.mark.parametrize("command, shown", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_each_readme_cli_example_prints_what_it_shows(capsys, command, shown):
    argv, _, head = command.partition(" | head -")
    assert cli.main(shlex.split(argv)[1:]) == 0
    out = capsys.readouterr().out
    if head:
        out = "".join(out.splitlines(keepends=True)[:int(head)])
    assert out == shown


def test_the_readme_quick_start_prints_its_annotated_braid(capsys):
    code = _quick_start_code()
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert shown == ["(2, 1, 3, 2, 3, 1)"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[:len(shown)] == shown

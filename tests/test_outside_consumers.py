"""The package surface that code outside the package uses.

The benchmark under perfbench/ and the README's library quick start call
braidmono by name.  These tests read those files, without running the
benchmark, and fail when a name they use is gone from the package or
when the model braids the benchmark reads are not the stated words.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import braidmono

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


def _quick_start_imports() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [
        alias.name
        for node in ast.walk(ast.parse(code))
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

"""The package source stays within the line budget of the round."""

from __future__ import annotations

from pathlib import Path

# Physical lines of src/braidmono/*.py: the round's target.
LINE_BUDGET = 3431


def test_package_source_is_within_the_line_budget():
    src = Path(__file__).resolve().parent.parent / "src" / "braidmono"
    counts = {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py")}
    assert "motion.py" in counts
    total = sum(counts.values())
    assert total <= LINE_BUDGET, "src/braidmono has %d lines, over the budget of %d: %s" % (
        total, LINE_BUDGET, counts)

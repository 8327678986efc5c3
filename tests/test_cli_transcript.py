"""Byte pins of the command-line interface.

tests/data/cli_transcript.json records the argv, exit code, stdout and
stderr of `braidmono.cli.main`, run in-process, for:

- `verify all` in text and structured format;
- `compute --format structured` on the full loop and on the half loop,
  and `vankampen --curve`, for the 17 catalogue equations (the twelve
  fixtures and n-tangency-2..6), each with its shear;
- `vankampen --braid` on the model braids of the same 17 fixtures;
- one case for each documented exit-2 and exit-3 message.

No output known to be wrong is pinned: such cases stay strict xfails
where they are tested.  Regenerate the data only on purpose, and list
each changed line in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from braidmono import BraidWord, cli, fixtures, n_tangency_fixture

DATA = Path(__file__).parent / "data" / "cli_transcript.json"

# Past the largest float, about 1.8e308.
HUGE = "1" + "0" * 309

# One case per documented exit-2 and exit-3 message.
REFUSALS = [
    ["compute"],
    ["compute", "--curve", "(y+x^2"],
    ["compute", "--curve", "(y+x^2)(y-x^2)", "--shear", "a"],
    ["compute", "--curve", "(y+x^2)(y-x^2)", "--radius", "1/0"],
    ["compute", "--curve", "(y+x^2)(y-x^2)", "--radius", "0"],
    ["compute", "--curve", "(y+x^2)(y-x^2)", "--radius", HUGE],
    ["compute", "--curve", "(y+x^2)(y-x^2)", "--center", "1+" + HUGE + "i"],
    # No command has --steps: argparse refuses it with at most 40 characters.
    ["compute", "--curve", "(y+x^2)(y-x^2)", "--steps", "0"],
    ["compute", "--curve", "(y+x^2)(y-x^2)", "--steps", HUGE],
    ["compute", "--curve", "(y^33-x)"],
    ["vankampen"],
    ["vankampen", "--braid", "s1", "--curve", "(y^2-x)"],
    ["vankampen", "--braid", "s1", "--radius", "1"],
    ["vankampen", "--curve", "(y^2-x)", "--strands", "2"],
    ["vankampen", "--braid", "s1 t2"],
    ["vankampen", "--braid", "s5^0", "--strands", "3"],
    ["vankampen", "--braid", "s40"],
    ["vankampen", "--braid", "s1^1001"],
    ["vankampen", "--braid", "s1^600 s2^-400"],
    ["verify", "nosuch"],
    ["verify", "n-tangency-7"],
    ["compute", "--curve", "(y-x)(y-x)"],
    ["compute", "--curve", "(y^2-2xy+x^2)"],
    ["compute", "--curve", "(y^2-x^2)(y-x)"],
    ["compute", "--curve", "(x)(y)"],
    ["compute", "--curve", "(y^2-x+1)"],
    ["compute", "--curve", "(y^2-x)", "--center", "1"],
    ["compute", "--curve", "(y-" + HUGE + "x)"],
    ["compute", "--curve", "y^2-x"],
]


def _catalogue():
    return fixtures() + [n_tangency_fixture(n) for n in range(2, 7)]


def _braid_text(letters) -> str:
    return " ".join("s%d" % a if a > 0 else "s%d^-1" % -a for a in letters)


def cases() -> list[list[str]]:
    out = [["verify", "all"], ["verify", "all", "--format", "structured"]]
    for f in _catalogue():
        tracking = ["--curve", f.equation, "--shear", str(f.shear)]
        for arc in ("full", "half"):
            out.append(["compute", *tracking, "--arc", arc, "--format", "structured"])
        out.append(["vankampen", *tracking])
        braid = BraidWord(f.expected_relations.rank, f.model_letters)
        out.append(["vankampen", "--braid", _braid_text(braid.letters),
                    "--strands", str(braid.strands)])
    return out + REFUSALS


def run(argv: list[str]) -> dict:
    """One in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


RECORDED = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else []


def test_transcript_covers_every_case():
    assert [rec["argv"] for rec in RECORDED] == cases()
    assert len(RECORDED) == 2 + 4 * 17 + len(REFUSALS)


@pytest.mark.parametrize("i", range(len(RECORDED)),
                         ids=["%03d-%s" % (i, r["argv"][0]) for i, r in enumerate(RECORDED)])
def test_cli_output_is_pinned(i):
    assert run(RECORDED[i]["argv"]) == RECORDED[i]


if __name__ == "__main__":
    records = [run(argv) for argv in cases()]
    DATA.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")

"""A seeded contract test for the command line (`cli.main`).

A `random.Random` grammar draws calls of `compute`, `vankampen` and
`verify`: curve text, braid text and flag values, with edge numbers
among the terms (10^20, a zero denominator, literals of 4,000 and 5,000
digits, a 4,685-character factor and 5,000 characters of garbage).
Each call must keep the contract:

- it exits 0, 2 or 3, or stops in argparse;
- no exception other than BraidMonoError leaves the program, so none
  leaves `cli.main` at all;
- stderr is empty or holds one line of at most 200 characters, and
  when argparse stops the call (usage text and an `error:` line), each
  of its lines has at most 200 characters;
- it finishes within 10 s.

The draw's bounds: DRAWS calls from seed SEED.  A curve has at most
three factors, and a polynomial at most three terms of degree at most 4
in each variable unless an edge number or the long factor is drawn.  A braid has at most
four tokens, of index at most 4 unless an edge number is drawn.
`verify` names a catalogue fixture, n-tangency-n for n = 7, n <= 5 or
an edge number, or a bad id: n-tangency-6 passes, but its 2 s would be
most of the draw's time, which is about a second.  The ledger of
outcomes is pinned, so a change of the grammar or of a refusal shows.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from collections import Counter

import pytest

from braidmono import cli, fixtures

SEED = 20261020
DRAWS = 300
MAX_SECONDS = 10.0
MAX_LINE = 200

_EDGE_NUMBERS = ("1" + "0" * 20, "9" * 4000, "9" * 5000)
_LONG_FACTOR = "+".join("x^%d" % k for k in range(799, 0, -1))
_GARBAGE_ALPHABET = "xy()^+-/*0123456789 s,i?"


def _garbage(rng: random.Random) -> str:
    return "".join(rng.choice(_GARBAGE_ALPHABET) for _ in range(5000))


def _number(rng: random.Random, small: int) -> str:
    """Mostly 0..small; one draw in five an edge number."""
    return rng.choice(_EDGE_NUMBERS) if rng.random() < 0.2 else str(rng.randint(0, small))


def _rational(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.1:
        return "1/0"
    if roll < 0.2:
        return rng.choice(_EDGE_NUMBERS)
    sign = rng.choice(("", "-"))
    return sign + rng.choice(("0", "1", "2", "1/2", "3/4", "5/4", "1/3"))


def _term(rng: random.Random, variables: str) -> str:
    text = rng.choice(("", "2", "3", "1/2", _rational(rng)))
    for var in rng.sample(variables, rng.randint(1, len(variables))):
        text += var + rng.choice(("", "", "^2", "^3", "^" + _number(rng, 4)))
    return text


def _polynomial(rng: random.Random) -> str:
    """Mostly a y power plus terms in x, which is a proper factor unless
    the numbers say otherwise, else terms in x and y."""
    if rng.random() < 0.6:
        terms = [rng.choice(("y", "y^2", "y^3", "2y"))]
        terms += [_term(rng, "x") for _ in range(rng.randint(1, 2))]
    else:
        terms = [_term(rng, "xy") for _ in range(rng.randint(1, 3))]
    return terms[0] + "".join(rng.choice("+-") + t for t in terms[1:])


def _curve(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.05:
        return _garbage(rng)
    if roll < 0.1:  # the long factor, once or twice
        return "(%s%s)" % (rng.choice(("", "y+", "xy+")), _LONG_FACTOR) * rng.randint(1, 2)
    factors = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            factors.append(rng.choice("xy") + rng.choice(("", "^2", "^" + _number(rng, 3))))
        else:
            factors.append("(%s)" % _polynomial(rng))
    return "".join(factors)


def _braid(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return _garbage(rng)
    tokens = []
    for _ in range(rng.randint(0, 4)):
        letter = rng.choice(("0", "1", "2", "3", "4", _number(rng, 4)))
        roll = rng.random()
        if roll < 0.2:
            tokens.append(rng.choice(("", "-")) + letter)
        elif roll < 0.6:
            tokens.append("s" + letter)
        else:
            tokens.append("s%s^%s%s" % (letter, rng.choice(("", "-")), _number(rng, 3)))
    return rng.choice((" ", ",")).join(tokens)


def _tracking_flags(rng: random.Random) -> list[str]:
    flags = []
    if rng.random() < 0.3:
        flags.append("--shear=" + _rational(rng))
    if rng.random() < 0.2:
        center = rng.choice(("0", "1/2", "i", "1+i", "-1/2i", _rational(rng) + "i"))
        flags.append("--center=" + center)
    if rng.random() < 0.4:
        flags.append("--radius=" + _rational(rng))
    if rng.random() < 0.2:
        flags.append("--arc=" + rng.choice(("full", "half", "half", "quarter")))
    if rng.random() < 0.2:  # a retired flag's draws, kept so that later draws stay put
        rng.choice(("1", "64", "0", "-3", "x", _number(rng, 300)))
    return flags


def _argv(rng: random.Random) -> list[str]:
    command = rng.choice(("compute", "compute", "vankampen", "vankampen", "verify"))
    if command == "verify":
        ids = [f.fixture_id for f in fixtures()] + ["n-tangency-2", "n-tangency-7"]
        argv = [command, rng.choice(ids) if rng.random() < 0.7 else rng.choice(
            ("nope", "n-tangency-" + _number(rng, 5), _garbage(rng)))]
    elif command == "vankampen" and rng.random() < 0.6:
        argv = [command, "--braid=" + _braid(rng)]
        if rng.random() < 0.3:
            argv.append("--strands=" + rng.choice(("1", "2", "4", "6", "40", "-1", _number(rng, 9))))
        if rng.random() < 0.1:
            argv += _tracking_flags(rng) or ["--curve=" + _curve(rng)]
    else:
        argv = [command] + (["--curve=" + _curve(rng)] if rng.random() < 0.95 else [])
        argv += _tracking_flags(rng)
    if rng.random() < 0.3:
        argv.append("--format=" + rng.choice(("text", "structured", "structured", "json")))
    return argv


def _call(argv: list[str]) -> tuple[str, str, float]:
    """The outcome of cli.main(argv) (its exit code, "argparse" or the
    name of the exception that escaped), its stderr and its duration."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            outcome = str(cli.main(argv))
        except SystemExit:
            outcome = "argparse"
        except Exception as e:  # the contract: nothing leaves cli.main
            outcome = type(e).__name__
    return outcome, err.getvalue(), time.perf_counter() - start


def _broken(outcome: str, stderr: str, seconds: float) -> list[str]:
    """The clauses of the contract that a call breaks."""
    broken = []
    if outcome not in ("0", "2", "3", "argparse"):
        broken.append("outcome %s" % outcome)
    if stderr:
        lines = stderr.splitlines()
        if outcome != "argparse" and (len(lines) != 1 or not stderr.endswith("\n")):
            broken.append("%d stderr lines" % len(lines))
        if max(map(len, lines)) > MAX_LINE:
            broken.append("a %d-character stderr line" % max(map(len, lines)))
    if seconds > MAX_SECONDS:
        broken.append("%.1f s" % seconds)
    return broken


def _draws() -> list[list[str]]:
    rng = random.Random(SEED)
    return [_argv(rng) for _ in range(DRAWS)]


@pytest.fixture(scope="module")
def ledger() -> list[tuple[list[str], tuple[str, str, float]]]:
    return [(argv, _call(argv)) for argv in _draws()]


def test_every_draw_keeps_the_contract(ledger):
    broken = {i: _broken(*result) for i, (_, result) in enumerate(ledger)}
    assert {i: b for i, b in broken.items() if b} == {}


def test_the_ledger_of_outcomes(ledger):
    assert Counter(result[0] for _, result in ledger) == {
        "0": 82, "2": 140, "3": 54, "argparse": 24}


@pytest.mark.parametrize("argv, line", [
    pytest.param(["vankampen", "--braid=s1", "--strands=" + "9" * 5000],
                 "braidmono vankampen: error: argument --strands: invalid int value: '%s'"
                 % ("9" * 40), id="long-int"),
    pytest.param(["vankampen", "--braid=s1", "--strands=" + "x" * 3000],
                 "braidmono vankampen: error: argument --strands: invalid int value: '%s'"
                 % ("x" * 40), id="long-strands"),
    pytest.param(["compute", "--curve=y", "--format=" + "a" * 3000],
                 "braidmono compute: error: argument --format: invalid choice: '%s' "
                 "(choose from 'text', 'structured')" % ("a" * 40), id="long-format"),
    pytest.param(["compute", "--curve=y", "--arc=" + "a" * 3000],
                 "braidmono compute: error: argument --arc: invalid choice: '%s' "
                 "(choose from 'full', 'half')" % ("a" * 40), id="long-arc"),
    pytest.param(["c" * 3000],
                 "braidmono: error: argument command: invalid choice: '%s' "
                 "(choose from 'compute', 'vankampen', 'verify')" % ("c" * 40), id="long-command"),
    pytest.param(["compute", "--curve=y"] + ["z"] * 3000,
                 "braidmono: error: unrecognized arguments: " + "z " * 20,
                 id="many-unrecognized"),
    pytest.param(["compute", "--c=" + "a" * 3000],
                 "braidmono compute: error: ambiguous option: --c=%s could match --curve, --center"
                 % ("a" * 40), id="long-ambiguous"),
    pytest.param(["compute", "--help=" + "a" * 3000],
                 "braidmono compute: error: argument -h/--help: ignored explicit argument '%s'"
                 % ("a" * 40), id="long-ignored-explicit"),
    pytest.param(["compute", "-h" + "a" * 3000],
                 "braidmono compute: error: argument -h/--help: ignored explicit argument '%s'"
                 % ("a" * 40), id="long-attached-to-h"),
    pytest.param(["compute", "-h=" + "a" * 3000],
                 "braidmono compute: error: argument -h/--help: ignored explicit argument '%s'"
                 % ("a" * 40), id="long-after-h-equals"),
    pytest.param(["-h" + "a" * 3000],
                 "braidmono: error: argument -h/--help: ignored explicit argument '%s'"
                 % ("a" * 40), id="long-attached-to-top-level-h"),
    # Short values are echoed whole, as argparse writes them.
    pytest.param(["vankampen", "--braid=s1", "--strands=x"],
                 "braidmono vankampen: error: argument --strands: invalid int value: 'x'",
                 id="short-int"),
    pytest.param(["compute", "--curve=y", "--arc=quarter"],
                 "braidmono compute: error: argument --arc: invalid choice: 'quarter' "
                 "(choose from 'full', 'half')", id="short-arc"),
    pytest.param(["compute", "--curve=y", "z", "w"],
                 "braidmono: error: unrecognized arguments: z w", id="short-unrecognized"),
    pytest.param(["compute", "--c=abc"],
                 "braidmono compute: error: ambiguous option: --c=abc could match --curve, --center",
                 id="short-ambiguous"),
    pytest.param(["compute", "--help=abc"],
                 "braidmono compute: error: argument -h/--help: ignored explicit argument 'abc'",
                 id="short-ignored-explicit"),
    # argparse reads -hhhb as -h -h -h -b and refuses the b.
    pytest.param(["compute", "-hhhb"],
                 "braidmono compute: error: argument -h/--help: ignored explicit argument 'b'",
                 id="short-after-repeated-h"),
    # A value that quotes the phrases of argparse's own messages is echoed as
    # any other value is.
    pytest.param(["compute", "--curve=y", "ignored explicit argument x"],
                 "braidmono: error: unrecognized arguments: ignored explicit argument x",
                 id="unrecognized-quotes-ignored-explicit"),
    pytest.param(["compute", "--curve=y", "ignored explicit argument 5"],
                 "braidmono: error: unrecognized arguments: ignored explicit argument 5",
                 id="unrecognized-quotes-ignored-explicit-number"),
    pytest.param(["ignored explicit argument 5"],
                 "braidmono: error: argument command: invalid choice: "
                 "'ignored explicit argument 5' (choose from 'compute', 'vankampen', 'verify')",
                 id="choice-quotes-ignored-explicit"),
    pytest.param(["vankampen", "--braid=s1", "--strands", "ignored explicit argument 1"],
                 "braidmono vankampen: error: argument --strands: invalid int value: "
                 "'ignored explicit argument 1'", id="int-quotes-ignored-explicit"),
    pytest.param(["compute", "--c=x could match --y=" + "a" * 3000],
                 "braidmono compute: error: ambiguous option: --c=%s could match --curve, --center"
                 % ("x could match --y=" + "a" * 22), id="ambiguous-quotes-could-match"),
])
def test_argparse_echoes_at_most_40_characters_of_a_value(argv, line):
    outcome, stderr, _ = _call(argv)
    assert outcome == "argparse"
    assert stderr.splitlines()[-1] == line


@pytest.mark.parametrize("argv, usage", [
    pytest.param(["-h"], "usage: braidmono [-h]", id="top-level"),
    pytest.param(["compute", "-h"], "usage: braidmono compute [-h]", id="compute"),
])
def test_a_bare_h_prints_help(argv, usage):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 0
    assert out.getvalue().startswith(usage)

"""Command-line interface: compute, vankampen, verify.

Exit codes: 0 on success, 1 when `verify` ran and a check failed, 2 for
unparseable input, unknown fixture ids or an input over a size limit, 3
for numerical tracking failures.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys

from .catalog import fixture_by_id, fixtures, n_tangency_fixture, verify_fixture
from .curves import MAX_STRANDS, CurveSpec, _parse_rational, parse_curve
from .errors import (
    BraidMonoError,
    CriticalFiberError,
    ImproperProjectionError,
    ParseError,
    TrackingFailureError,
    check_limit,
)
from .homcount import count_memo
from .motion import Motion, motion_to_braid
from .presentations import Presentation, simplify
from .tracker import LoopSpec, track_loop
from .vankampen import raw_relators
from .words import BraidWord, FreeWord, braid_permutation, exponent_sum, reduce_onto

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TRACKING = 3

_TRACKING_ERRORS = (TrackingFailureError, CriticalFiberError, ImproperProjectionError)

# The size limit of braid text, checked before any work that grows with it.
# parse_curve checks the curve limits.
MAX_LETTERS = 1000


def _parse_complex(text: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' with rational components."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty complex number")
    m = re.fullmatch(
        r"(?P<re>[+-]?\d+(?:/\d+)?)?(?P<im>[+-]?(?:\d+(?:/\d+)?)?i)?", s
    )
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ParseError("cannot parse complex number %r" % text[:40])
    re_part = _parse_rational(m.group("re") or "0")
    body = (m.group("im") or "0i")[:-1]  # a bare i, +i or -i has coefficient 1
    im_part = _parse_rational(body + "1" if body in ("", "+", "-") else body)
    try:
        return complex(float(re_part), float(im_part))
    except OverflowError:
        raise ParseError("complex number %r is out of floating-point range" % text[:40]) from None


def _parse_braid(text: str, strands: int | None) -> BraidWord:
    letters = []
    written = []  # one letter per token, a zero power included
    for tok in text.replace(",", " ").split():
        m = re.fullmatch(r"s(\d+)(?:\^(-?\d+))?", tok)
        try:  # int() also refuses more digits than sys.get_int_max_str_digits()
            base, power = (int(m.group(1)), int(m.group(2) or 1)) if m else (int(tok), 1)
        except ValueError:
            raise ParseError("cannot parse braid letter %r" % tok[:40]) from None
        if base < 0:
            base, power = -base, -1
        if base < 1:
            raise ParseError("braid letter index must be positive in %r" % tok[:40])
        check_limit("the braid's letter count", len(letters) + abs(power), MAX_LETTERS)
        letters.extend([base if power > 0 else -base] * abs(power))
        written.append(-base if power < 0 else base)
    if strands is None:
        strands = max(map(abs, written), default=0) + 1
    check_limit("the braid's strand count", strands, MAX_STRANDS)
    BraidWord(strands, tuple(written))  # range-checks every written letter
    return BraidWord(strands, tuple(letters))


def _emit(pairs: list[tuple[str, str]], fmt: str) -> None:
    sep = "=" if fmt == "structured" else ": "
    for k, v in pairs:
        print("%s%s%s" % (k, sep, v))


def _braid_text(b: BraidWord) -> str:
    if not b.letters:
        return "(empty)"
    return " ".join("s%d" % a if a > 0 else "s%d^-1" % -a for a in b.letters)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # argparse's own refusal would echo the whole text
        raise argparse.ArgumentTypeError("invalid int value: %r" % text[:40]) from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose error lines echo at most 40 characters of a
    refused choice, of the unrecognized arguments, or of the value given to
    an ambiguous option or to a flag that takes none."""

    def error(self, message):
        # Each rule matches the head argparse writes, never text that the user
        # typed. argparse reads a value attached to -h as more one-letter flags
        # (-hhhb is -h -h -h -b), so that value is cut only in the report.
        head = "argument -h/--help: ignored explicit argument "
        if message.startswith(head):  # the rest is the repr of a str
            message = head + repr(ast.literal_eval(message[len(head):])[:40])
        head = "ambiguous option: "
        if message.startswith(head):  # the matches are option strings
            word, sep, matches = message[len(head):].rpartition(" could match ")
            option, eq, value = word.partition("=")
            message = head + option + eq + value[:40] + sep + matches
        super().error(message)

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            value = value[:40]  # still no choice: every choice is shorter
        super()._check_value(action, value)

    def parse_args(self, args=None, namespace=None):
        parsed, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: %s" % " ".join(extra)[:40])
        return parsed


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "structured"], default="text",
                   help="human-readable text or line-delimited key=value records")


# The tracking flags are declared without argparse defaults, so that a flag
# left out reads None and `vankampen --braid` can reject any that is given.
_TRACKING_DEFAULTS = {"shear": "0", "center": "0", "radius": "1", "arc": "full"}


def _add_tracking_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--curve", help="curve equation, e.g. \"(y+x^2)(y-x^2)\"")
    p.add_argument("--shear", help="rational q for the substitution x -> x + q*y")
    p.add_argument("--center", help="loop center a+bi (rational parts)")
    p.add_argument("--radius", help="loop radius as a fraction p/q")
    p.add_argument("--arc", choices=["full", "half"], help="full loop or the lower half")


def _tracked_braid(args) -> tuple[CurveSpec, Motion, BraidWord]:
    """The curve named by the tracking flags, its fiber motion along the loop
    and the motion's braid, freely reduced."""
    opt = {k: d if getattr(args, k) is None else getattr(args, k)
           for k, d in _TRACKING_DEFAULTS.items()}
    curve = parse_curve(args.curve, _parse_rational(opt["shear"]))
    loop_arc = "negative-half" if opt["arc"] == "half" else "full"
    loop = LoopSpec(_parse_complex(opt["center"]), _parse_rational(opt["radius"]), loop_arc)
    motion = track_loop(curve, loop)
    letters = reduce_onto([], motion_to_braid(motion).letters)
    return curve, motion, BraidWord(motion.strands, tuple(letters))


def cmd_compute(args) -> int:
    if not args.curve:
        raise ParseError("compute needs --curve")
    curve, motion, braid = _tracked_braid(args)
    _emit([
        ("curve", str(curve)),
        ("strands", str(motion.strands)),
        ("samples", str(len(motion.times))),
        ("letters", _braid_text(braid)),
        ("permutation", " ".join(str(v) for v in braid_permutation(braid).images)),
        ("exponent-sum", str(exponent_sum(braid))),
    ], args.format)
    return EXIT_OK


def cmd_vankampen(args) -> int:
    if args.braid is not None and args.curve is not None:
        raise ParseError("--braid and --curve are mutually exclusive")
    if args.braid is not None:
        given = ["--" + k for k in _TRACKING_DEFAULTS if getattr(args, k) is not None]
        if given:
            raise ParseError("--braid takes no tracking flags (got %s)" % ", ".join(given))
        braid = _parse_braid(args.braid, args.strands)
    elif args.curve is not None and args.strands is not None:
        raise ParseError("--strands applies only to --braid input")
    elif args.curve:
        _, _, braid = _tracked_braid(args)
    else:
        raise ParseError("vankampen needs --braid or --curve")
    raws = raw_relators(braid)  # x_j^-1 times the image of x_j: one Artin action
    pres = Presentation(braid.strands, tuple(raws))
    pairs = [("strands", str(braid.strands)), ("braid", _braid_text(braid))]
    for j, raw in enumerate(raws, start=1):
        img = FreeWord.generator(braid.strands, j) * raw
        pairs.append(("image-x%d" % j, ",".join(str(a) for a in img.letters)))
    if not pres.relators:
        pairs.append(("presentation", "free group of rank %d" % braid.strands))
        _emit(pairs, args.format)
        return EXIT_OK
    pairs.append(("raw", str(pres)))
    result = simplify(pres)
    for k, mv in enumerate(result.moves, start=1):
        pairs.append(("simplify-%d" % k, mv))
    if result.truncated:
        pairs.append(("simplify-truncated", "true"))
    pairs.append(("final", str(result.presentation)))
    _emit(pairs, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.fixture == "all":
        todo = fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]
    else:
        todo = [fixture_by_id(args.fixture)]
    all_pass = True
    with count_memo():  # fixtures share expected relations and deletion targets
        for f in todo:
            rep = verify_fixture(f)
            all_pass &= rep.passed
            if args.format == "structured":
                for c in rep.checks:
                    print("fixture=%s check=%s passed=%s detail=%s"
                          % (rep.fixture_id, c.name, "true" if c.passed else "false",
                             c.detail))
            else:
                for line in rep.lines():
                    print(line)
    if args.format == "structured":
        print("all-passed=%s" % ("true" if all_pass else "false"))
    else:
        print("result: %s" % ("all checks passed" if all_pass else "FAILURES present"))
    return EXIT_OK if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="braidmono",
        description="Braid monodromy of plane curve singularities by root tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="track a curve and print its braid")
    _add_tracking_flags(p_compute)
    _add_common_flags(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_vk = sub.add_parser("vankampen", help="presentation induced by a braid or curve")
    _add_tracking_flags(p_vk)
    p_vk.add_argument("--braid", help="braid word, e.g. \"s1 s1 s2^-1\"")
    p_vk.add_argument("--strands", type=_int, help="strand count for --braid input")
    _add_common_flags(p_vk)
    p_vk.set_defaults(func=cmd_vankampen)

    p_verify = sub.add_parser("verify", help="run catalogue fixture checks")
    p_verify.add_argument("fixture", help="fixture id or 'all'")
    _add_common_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _TRACKING_ERRORS as e:
        print("tracking error: %s" % e, file=sys.stderr)
        return EXIT_TRACKING
    except BraidMonoError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: compute, vankampen, verify.

Exit codes: 0 on success, 1 when `verify` ran and a check failed, 2 for
unparseable input, unknown fixture ids, an unreadable targets file or an
input over a size limit, 3 for numerical tracking failures.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .catalog import fixture_by_id, fixtures, n_tangency_fixture, verify_fixture
from .curves import CurveSpec, _split_factors, parse_polynomial
from .errors import (
    BraidMonoError,
    CapacityError,
    CriticalFiberError,
    ImproperProjectionError,
    ParseError,
    TrackingFailureError,
)
from .homcount import TARGET_HEADER, load_targets
from .motion import Motion, motion_to_braid
from .presentations import simplify
from .tracker import LoopSpec, track_loop
from .vankampen import braid_images, induced_presentation
from .words import BraidWord, braid_permutation, exponent_sum

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TRACKING = 3

_TRACKING_ERRORS = (TrackingFailureError, CriticalFiberError, ImproperProjectionError)

# Input size limits, checked before any work that grows with the input.
# A curve of y-degree d gives a braid on d strands.
MAX_STRANDS = 32
MAX_LETTERS = 1000
MAX_TARGET_ORDER = 128


def _check_limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise CapacityError("%s is %d, over the limit of %d" % (what, value, limit))


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("cannot parse rational %r" % text) from None


def _parse_complex(text: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' with rational components."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty complex number")
    m = re.fullmatch(
        r"(?P<re>[+-]?\d+(?:/\d+)?)?(?P<im>[+-]?(?:\d+(?:/\d+)?)?i)?", s
    )
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ParseError("cannot parse complex number %r" % text)
    re_part = _parse_rational(m.group("re")) if m.group("re") else Fraction(0)
    im_txt = m.group("im")
    if im_txt:
        body = im_txt[:-1]
        if body in ("", "+"):
            im_part = Fraction(1)
        elif body == "-":
            im_part = Fraction(-1)
        else:
            im_part = _parse_rational(body)
    else:
        im_part = Fraction(0)
    try:
        return complex(float(re_part), float(im_part))
    except OverflowError:
        raise ParseError("complex number %r is out of floating-point range" % text) from None


def _parse_braid(text: str, strands: int | None) -> BraidWord:
    letters = []
    written = []  # one letter per token, a zero power included
    for tok in text.replace(",", " ").split():
        m = re.fullmatch(r"s(\d+)(?:\^(-?\d+))?", tok)
        if m:
            base = int(m.group(1))
            power = int(m.group(2)) if m.group(2) else 1
        else:
            try:
                base, power = int(tok), 1
            except ValueError:
                raise ParseError("cannot parse braid letter %r" % tok) from None
            if base < 0:
                base, power = -base, -1
        if base < 1:
            raise ParseError("braid letter index must be positive in %r" % tok)
        _check_limit("the braid's letter count", len(letters) + abs(power), MAX_LETTERS)
        letters.extend([base if power > 0 else -base] * abs(power))
        written.append(-base if power < 0 else base)
    if strands is None:
        strands = max(map(abs, written), default=0) + 1
    _check_limit("the braid's strand count", strands, MAX_STRANDS)
    BraidWord(strands, tuple(written))  # range-checks every written letter
    return BraidWord(strands, tuple(letters))


def _emit(pairs: list[tuple[str, str]], fmt: str) -> None:
    if fmt == "structured":
        for k, v in pairs:
            print("%s=%s" % (k, v))
    else:
        for k, v in pairs:
            print("%s: %s" % (k, v))


def _perm_text(images: tuple[int, ...]) -> str:
    return " ".join(str(v) for v in images)


def _braid_text(b: BraidWord) -> str:
    if not b.letters:
        return "(empty)"
    return " ".join("s%d" % a if a > 0 else "s%d^-1" % -a for a in b.letters)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "structured"], default="text",
                   help="human-readable text or line-delimited key=value records")


# The tracking flags are declared without argparse defaults, so that a flag
# left out reads None and `vankampen --braid` can reject any that is given.
_TRACKING_DEFAULTS = {"shear": "0", "center": "0", "radius": "1", "arc": "full", "steps": 256}


def _add_tracking_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--curve", help="curve equation, e.g. \"(y+x^2)(y-x^2)\"")
    p.add_argument("--shear", help="rational q for the substitution x -> x + q*y")
    p.add_argument("--center", help="loop center a+bi (rational parts)")
    p.add_argument("--radius", help="loop radius as a fraction p/q")
    p.add_argument("--arc", choices=["full", "half"], help="full loop or the lower half")
    p.add_argument("--steps", type=int, help="initial number of sample steps along the arc")


def _tracked_motion(args) -> tuple[CurveSpec, Motion]:
    """The curve named by the tracking flags and its fiber motion along the loop."""
    opt = {k: d if getattr(args, k) is None else getattr(args, k)
           for k, d in _TRACKING_DEFAULTS.items()}
    shear = _parse_rational(opt["shear"])
    factors = tuple(parse_polynomial(t).shear_x(shear) for t in _split_factors(args.curve))
    _check_limit("the curve's y-degree", sum(f.degree_y for f in factors), MAX_STRANDS)
    curve = CurveSpec(factors)
    loop_arc = "negative-half" if opt["arc"] == "half" else "full"
    loop = LoopSpec(_parse_complex(opt["center"]), _parse_rational(opt["radius"]), loop_arc)
    if not 0 < opt["steps"] <= sys.float_info.max:
        raise ParseError("--steps must be a positive integer within floating-point range")
    return curve, track_loop(curve, loop, initial_divisions=opt["steps"])


def cmd_compute(args) -> int:
    if not args.curve:
        raise ParseError("compute needs --curve")
    curve, motion = _tracked_motion(args)
    braid = motion_to_braid(motion)
    _emit([
        ("curve", str(curve)),
        ("strands", str(motion.strands)),
        ("samples", str(len(motion.times))),
        ("letters", _braid_text(braid)),
        ("permutation", _perm_text(braid_permutation(braid).images)),
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
        _, motion = _tracked_motion(args)
        braid = motion_to_braid(motion)
    else:
        raise ParseError("vankampen needs --braid or --curve")
    pres = induced_presentation(braid)
    pairs: list[tuple[str, str]] = [
        ("strands", str(braid.strands)),
        ("braid", _braid_text(braid)),
    ]
    images = braid_images(braid)
    for j, img in enumerate(images, start=1):
        pairs.append(("image-x%d" % j, ",".join(str(a) for a in img.letters) or "x%d" % j))
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
    targets = None
    if args.targets:
        try:
            with open(args.targets, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            print("error: cannot read targets file: %s" % e, file=sys.stderr)
            return EXIT_PARSE
        headers = (TARGET_HEADER.fullmatch(ln.strip()) for ln in text.splitlines())
        try:
            orders = [int(m[2]) for m in headers if m and m[1] == "order"]
        except ValueError:
            raise ParseError("a target group's order has too many digits") from None
        _check_limit("a target group's order", max(orders, default=0), MAX_TARGET_ORDER)
        targets = load_targets(text)
    if args.fixture == "all":
        todo = fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]
    else:
        todo = [fixture_by_id(args.fixture)]
    all_pass = True
    for f in todo:
        rep = verify_fixture(f, targets=targets)
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
    parser = argparse.ArgumentParser(
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
    p_vk.add_argument("--strands", type=int, help="strand count for --braid input")
    _add_common_flags(p_vk)
    p_vk.set_defaults(func=cmd_vankampen)

    p_verify = sub.add_parser("verify", help="run catalogue fixture checks")
    p_verify.add_argument("fixture", help="fixture id or 'all'")
    p_verify.add_argument("--targets", help="file with finite group tables")
    _add_common_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except _TRACKING_ERRORS as e:
        print("tracking error: %s" % e, file=sys.stderr)
        return EXIT_TRACKING
    except BraidMonoError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

from __future__ import annotations

import time
import warnings

import pytest

from braidmono import BraidWord, Polynomial2, braid_equal, cli, tracker, vankampen
from braidmono import curves, homcount
from braidmono.cli import MAX_LETTERS, _parse_braid, main
from braidmono.curves import MAX_DEGREE_X, MAX_STRANDS
from braidmono.presentations import SimplifyResult
from braidmono.words import MAX_IMAGE_LETTERS


# A number of more digits than int() converts (sys.get_int_max_str_digits()).
_DIGITS = "9" * 5000


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_tangency(capsys):
    code, out, _ = _run(capsys, "compute", "--curve", "(y+x^2)(y-x^2)")
    assert code == 0
    assert "letters: s1 s1 s1 s1" in out
    assert "exponent-sum: 4" in out


def test_compute_single_line_is_empty_braid(capsys):
    code, out, _ = _run(capsys, "compute", "--curve", "y")
    assert code == 0
    assert "letters: (empty)" in out


def test_compute_vertical_tangency_permutation(capsys):
    code, out, _ = _run(capsys, "compute", "--curve", "y(y^2+x)(y^2-x)")
    assert code == 0
    assert "permutation: 5 4 3 2 1" in out


def test_compute_half_arc(capsys):
    code, out, _ = _run(capsys, "compute", "--curve", "(y+x^2)(y-x^2)", "--arc", "half")
    assert code == 0
    assert "letters: s1 s1\n" in out


def test_compute_structured_format(capsys):
    code, out, _ = _run(
        capsys, "compute", "--curve", "(y^2-x)", "--format", "structured"
    )
    assert code == 0
    assert "letters=s1\n" in out
    assert ": " not in out


# (y^2-x^2-1) is critical over x = i and x = -i; a center whose imaginary
# part were dropped would enclose neither.
@pytest.mark.parametrize("flags, line", [
    pytest.param(("--curve", "(y^2-x)", "--center", "5", "--radius", "1/2"),
                 "letters: (empty)", id="center-5"),
    pytest.param(("--curve", "(y^2-x^2-1)", "--center", "i", "--radius", "1/2"),
                 "letters: s1", id="center-i"),
    pytest.param(("--curve", "(y^2-x^2-1)", "--center=-1/2-i"), "letters: s1",
                 id="center-minus-half-minus-i"),
    pytest.param(("--curve", "(y^2-x)", "--center=-1/2i", "--radius", "1"), "letters: s1",
                 id="center-minus-half-i"),
    pytest.param(("--curve", "(y^2-x)", "--shear=-1/100"), "curve: (y^2+1/100y-x)",
                 id="negative-shear"),
])
def test_compute_center_radius_and_shear(capsys, flags, line):
    code, out, _ = _run(capsys, "compute", *flags)
    assert code == 0
    assert line + "\n" in out


@pytest.mark.parametrize("text, value", [
    ("i", 1j), ("3i", 3j), ("+3i", 3j), ("-1/2i", -0.5j), ("2+3i", 2 + 3j), ("2-3i", 2 - 3j),
    ("-1/2-i", -0.5 - 1j), ("5", 5), ("-5/3", -5 / 3),
])
def test_a_center_reads_a_real_part_only_before_a_sign_or_the_end(text, value):
    assert cli._parse_complex(text) == value


def test_a_center_on_the_imaginary_axis_is_not_moved_off_it(capsys):
    # The loop |x + i/2| = 1/2 runs through x = 0, where the two lines meet.
    code, out, err = _run(capsys, "compute", "--curve", "(y-1)(y-x-1)", "--center=-1/2i",
                          "--radius", "1/2")
    assert (code, out) == (3, "")
    assert err.startswith("tracking error: ")


@pytest.mark.parametrize("flag", ["--shear", "--center"])
def test_a_negative_value_must_follow_equals(capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["compute", "--curve", "(y^2-x)", flag, "-1/2"])
    assert info.value.code == 2
    assert "argument %s: expected one argument" % flag in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    pytest.param(("--curve", "(y+x^2"), id="curve"),
    pytest.param(("--curve", "(y+x^2)(y-x^2)", "--center", "1/0"), id="center-real"),
    pytest.param(("--curve", "(y+x^2)(y-x^2)", "--center", "1/0i"), id="center-imag"),
])
def test_parse_error_exits_two(capsys, flags):
    code, _, err = _run(capsys, "compute", *flags)
    assert code == 2
    assert "error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    pytest.param(("compute",), id="compute"),
    pytest.param(("vankampen",), id="vankampen"),
    pytest.param(("vankampen", "--curve", ""), id="vankampen-empty-curve"),
])
def test_missing_input_is_an_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    pytest.param(("compute", "--curve", "((y-x))"),
                 "cannot parse polynomial '(y-x)' at offset 0", id="nested-parentheses"),
    pytest.param(("compute", "--curve", "(y^2-x)", "--center", ""),
                 "empty complex number", id="empty-center"),
    pytest.param(("compute", "--curve", "(y^2-x)", "--center", "abc"),
                 "cannot parse complex number 'abc'", id="center-abc"),
    pytest.param(("vankampen", "--braid", "s0"),
                 "braid letter index must be positive in 's0'", id="letter-s0"),
    pytest.param(("verify", "n-tangency-x"),
                 "unknown fixture id 'n-tangency-x'", id="n-tangency-x"),
    # int() reads each of these as 3, but only n-tangency-3 names the fixture.
    *[pytest.param(("verify", "n-tangency-" + n), "unknown fixture id 'n-tangency-%s'" % n,
                   id="n-tangency-" + n) for n in ("-3", " 3", "+3", "03")],
    pytest.param(("verify", "n-tangency-" + _DIGITS),
                 "unknown fixture id %r" % ("n-tangency-" + _DIGITS)[:40], id="n-tangency-digits"),
    pytest.param(("verify", "n-tangency-10"),
                 "n-tangency fixtures support 2 <= n <= 6", id="n-tangency-10"),
    pytest.param(("verify", "z" * 5000), "unknown fixture id %r" % ("z" * 40), id="long-id"),
])
def test_input_error_message_and_exit(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_tracking_error_exits_three(capsys):
    code, _, err = _run(capsys, "compute", "--curve", "(y-x)(y-x)")
    assert code == 3
    assert "tracking error" in err


@pytest.mark.parametrize("curve, letters", [
    pytest.param("(y^2-x^3)", "s1 s1 s1", id="cusp"),
    pytest.param("(y+x^2)(y-x^2)", "s1 s1 s1 s1", id="tangency"),
])
@pytest.mark.parametrize("radius", ["1", "1e100"])
@pytest.mark.parametrize("divisions", [1, 2, 3, 4, 256])
def test_any_first_step_tracks_to_the_true_braid(capsys, monkeypatch, curve, letters, radius,
                                                  divisions):
    # No step exceeds arc/64, whatever the first step would be.  At radius
    # 1e100 the tangency's product y^2 - x^4 would be out of float range,
    # but its factors are not: the roots are +-1e200.
    monkeypatch.setattr(tracker, "_START_DIVISIONS", divisions)
    code, out, _ = _run(capsys, "compute", "--curve", curve, "--radius", radius)
    assert code == 0
    assert "letters: %s\n" % letters in out


@pytest.mark.parametrize("flags", [
    pytest.param(("--radius", "1e200"), id="radius-1e200"),
    pytest.param(("--shear", "1e400"), id="shear-1e400"),
])
def test_fiber_polynomial_overflow_exits_three(capsys, flags):
    code, out, err = _run(capsys, "compute", "--curve", "(y+x^2)(y-x^2)", *flags)
    assert code == 3
    assert out == ""
    assert err.startswith("tracking error: fiber polynomial at x=")
    assert err.endswith(" is out of floating-point range\n")


def test_out_of_range_leading_coefficient_exits_three(capsys):
    code, out, err = _run(capsys, "compute", "--curve", "(%dy^2-x-1)" % 10**400)
    assert (code, out) == (3, "")
    assert err.startswith("tracking error: fiber polynomial at x=")
    assert err.endswith(" is out of floating-point range\n")


_MONIC_OVERFLOW = "(1/1000y^2+%dxy-%dy-x+1)" % (10**308, 10**308)


@pytest.mark.parametrize("flags, message", [
    pytest.param(("--curve", "(y^2-2xy+x^2)"),
                 "factor y^2-2xy+x^2 is not squarefree",
                 id="repeated-factor"),
    pytest.param(("--curve", "(2x+y)(y+x^2)(y-x^2)", "--radius", "2"),
                 "fiber over x=(2+0j) has nearly coincident roots (separation 0.000e+00)",
                 id="critical-value-on-loop"),
    pytest.param(("--curve", "(xy^2-y^2-x)"),
                 "leading y-coefficient vanishes near x=(1+0j) "
                 "(curve has a branch at infinity)",
                 id="branch-at-infinity"),
    pytest.param(("--curve", "(xy^2-y^2-x)", "--center", "2"),
                 "leading y-coefficient vanishes near x=(1-2.097981369335578e-15j) "
                 "(curve has a branch at infinity)",
                 id="branch-at-infinity-mid-loop"),
    pytest.param(("--curve", "(y^2-x)", "--center", "1"),
                 "step underflow at loop angle 3.141593 (fiber too unstable)",
                 id="loop-through-critical-value"),
    pytest.param(("--curve", _MONIC_OVERFLOW),
                 "fiber over x=(1+0j) has nearly coincident roots (separation 0.000e+00)",
                 id="monic-overflow-after-a-critical-basepoint"),
    pytest.param(("--curve", _MONIC_OVERFLOW, "--radius", "999/1000"),
                 "fiber polynomial at x=(0.998699119877508+0.024516687294389376j) "
                 "overflows once monic",
                 id="monic-overflow-mid-loop"),
    pytest.param(("--curve", "(xy+x)"), "factor xy+x contains a vertical-line component",
                 id="vertical-line-component"),
])
def test_tracker_error_message_and_exit(capsys, flags, message):
    code, out, err = _run(capsys, "compute", *flags)
    assert code == 3
    assert out == ""
    assert err == "tracking error: %s\n" % message


# A critical value 1e-10 from the basepoint x = 1, inside the unit loop
# (s1) and outside it (the identity).  exp(2*pi*i) differs from 1 by
# 2.4e-16i, which moves these roots by about 1.2e-6 of their size, so
# the loop must end on its basepoint, not on exp(2*pi*i).
@pytest.mark.parametrize("curve, braid", [
    pytest.param("(y^2-x+9999999999/10000000000)", "s1", id="end-fiber-off-the-start"),
    pytest.param("(y^2-x+10000000001/10000000000)", "", id="end-fiber-off-the-start-outside"),
])
def test_a_critical_value_next_to_the_basepoint_tracks_to_its_braid(capsys, curve, braid):
    code, out, err = _run(capsys, "compute", "--curve", curve)
    assert (code, err) == (0, "")
    letters = out.split("letters: ")[1].split("\n")[0].replace("(empty)", "")
    assert braid_equal(_parse_braid(letters, 2), _parse_braid(braid, 2))
    if braid:
        assert letters == braid


# A critical value 1e-8 outside the unit loop: the walk crosses s1 and
# back, and the printed braid is freely reduced.
@pytest.mark.parametrize("command, line", [
    pytest.param("compute", "letters: (empty)\n", id="compute"),
    pytest.param("vankampen", "braid: (empty)\n", id="vankampen"),
])
def test_the_tracked_braid_is_printed_freely_reduced(capsys, command, line):
    code, out, err = _run(capsys, command, "--curve", "(y^2-x+100000001/100000000)")
    assert (code, err) == (0, "")
    assert line in out


# Nearer still, the walk cannot leave the basepoint: the first steps are
# refused until the step underflows.
@pytest.mark.parametrize("curve", [
    "(y^2-x+999999999999/1000000000000)", "(y^2-x+1000000000001/1000000000000)",
    "(y^2-x+99999999999999/100000000000000)", "(y^2-x+100000000000001/100000000000000)",
])
def test_a_critical_value_nearer_the_basepoint_is_a_tracking_error(capsys, curve):
    code, out, err = _run(capsys, "compute", "--curve", curve)
    assert (code, out) == (3, "")
    assert err.startswith("tracking error: ")


@pytest.mark.parametrize("curve, letters", [
    pytest.param("(y^10-x)(y^2-1000000000000)", "s3 s5 s7 s9 s2 s4 s6 s8 s10",
                 id="root-moduli-1-and-1e6"),
    pytest.param("(y^4-x)(y-1000000)(y+1000000)", "s3 s2 s4", id="roots-at-1e6"),
])
def test_constant_leading_coefficient_is_proper_beside_large_coefficients(
        capsys, curve, letters):
    # The leading y-coefficient is 1 at every x; other coefficients reach 1e12.
    code, out, err = _run(capsys, "compute", "--curve", curve)
    assert (code, err) == (0, "")
    assert "letters: %s\n" % letters in out


def test_vankampen_from_braid(capsys):
    code, out, _ = _run(capsys, "vankampen", "--braid", "s1 s1 s1 s1")
    assert code == 0
    assert "raw:" in out
    assert "final:" in out


def test_vankampen_takes_the_braid_images_once(capsys, monkeypatch):
    """The image lines and the presentation share one list of images."""
    acted = []
    real = vankampen.braid_images
    monkeypatch.setattr(vankampen, "braid_images", lambda b: acted.append(b) or real(b))
    code, out, _ = _run(capsys, "vankampen", "--braid", "s1 s2 s1 s3")
    assert code == 0
    assert acted == [BraidWord(4, (1, 2, 1, 3))]
    assert "image-x1: 4\n" in out


def test_vankampen_signed_integer_letters(capsys):
    code, out, _ = _run(capsys, "vankampen", "--braid", "1 -1", "--strands", "3")
    assert code == 0
    assert "free group of rank 3" in out


def test_vankampen_empty_braid_is_free(capsys):
    code, out, _ = _run(capsys, "vankampen", "--braid", "", "--strands", "2")
    assert code == 0
    assert "free group of rank 2" in out


def test_vankampen_from_curve(capsys):
    code, out, _ = _run(capsys, "vankampen", "--curve", "(y+x^2)(y-x^2)")
    assert code == 0
    assert "final:" in out


def test_vankampen_bad_letter_exits_two(capsys):
    code, _, err = _run(capsys, "vankampen", "--braid", "sX")
    assert code == 2


@pytest.mark.parametrize("flags", [
    pytest.param(("--braid", "s1 s1", "--curve", "(y^2-x)"), id="braid-and-curve"),
    pytest.param(("--braid", "s1 s1", "--curve", ""), id="braid-and-empty-curve"),
    pytest.param(("--braid", "s1 s1", "--shear", "1"), id="braid-shear"),
    pytest.param(("--braid", "s1 s1", "--center", "5"), id="braid-center"),
    pytest.param(("--braid", "s1 s1", "--radius", "5"), id="braid-radius"),
    pytest.param(("--braid", "s1 s1", "--radius", "1"), id="braid-default-radius"),
    pytest.param(("--braid", "s1 s1", "--arc", "half"), id="braid-arc"),
    pytest.param(("--braid", "s1 s1", "--strands", "2", "--arc", "half",
                  "--radius", "5"), id="braid-strands-arc-radius"),
    pytest.param(("--curve", "(y^2-x)", "--strands", "3"), id="curve-strands"),
])
def test_vankampen_rejects_conflicting_flags(capsys, flags):
    code, out, err = _run(capsys, "vankampen", *flags)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_verify_single_fixture(capsys):
    code, out, _ = _run(capsys, "verify", "two-tangent-conics")
    assert code == 0
    assert "all checks passed" in out


def test_verify_unknown_id_exits_two(capsys):
    code, _, err = _run(capsys, "verify", "bogus-id")
    assert code == 2


def test_verify_structured_output(capsys):
    code, out, _ = _run(capsys, "verify", "n-tangency-2", "--format", "structured")
    assert code == 0
    assert "all-passed=true" in out
    assert "check=tracked-vs-model passed=true" in out


def test_verify_takes_no_targets_option(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["verify", "two-tangent-conics", "--targets", "x"])
    out, err = capsys.readouterr()
    assert stop.value.code == 2
    assert out == ""
    assert err.splitlines()[-1] == "braidmono: error: unrecognized arguments: --targets x"


def test_verify_is_deterministic(capsys):
    first = _run(capsys, "verify", "two-tangent-conics")
    second = _run(capsys, "verify", "two-tangent-conics")
    assert first == second


@pytest.mark.parametrize("command", ["compute", "vankampen"])
@pytest.mark.parametrize("radius", ["1e400", "1e-400"])
def test_radius_outside_float_range_exits_two(capsys, command, radius):
    code, out, err = _run(capsys, command, "--curve", "(y^2-x)", "--radius", radius)
    assert code == 2
    assert out == ""
    assert err == "error: loop radius is out of floating-point range\n"


@pytest.mark.parametrize("command", ["compute", "vankampen"])
@pytest.mark.parametrize("center", ["1" + "0" * 400, "1+1%si" % ("0" * 400)],
                         ids=["real-part", "imaginary-part"])
def test_center_outside_float_range_exits_two(capsys, command, center):
    code, out, err = _run(capsys, command, "--curve", "(y^2-x)", "--center", center)
    assert code == 2
    assert out == ""
    assert err == "error: complex number %r is out of floating-point range\n" % center[:40]


@pytest.mark.parametrize("argv, limit", [
    pytest.param(("vankampen", "--braid", "s99999999999999999999"), MAX_STRANDS,
                 id="braid-index"),
    pytest.param(("vankampen", "--braid", "s1", "--strands", "33"), MAX_STRANDS,
                 id="strands-flag"),
    pytest.param(("vankampen", "--braid", "s1^1001"), MAX_LETTERS, id="braid-letters"),
    pytest.param(("vankampen", "--braid", "s1^1000000000000"), MAX_LETTERS,
                 id="braid-power"),
    pytest.param(("compute", "--curve", "(y^99999)"), MAX_STRANDS,
                 id="compute-curve-degree"),
    pytest.param(("compute", "--curve", "y^99999999999999999999"), MAX_STRANDS,
                 id="compute-bare-power-past-an-index"),
    pytest.param(("vankampen", "--curve", "(y^33-x)"), MAX_STRANDS,
                 id="vankampen-curve-degree"),
    pytest.param(("compute", "--curve", "(y-x)(y-x^%d)" % (MAX_DEGREE_X + 1)), MAX_DEGREE_X,
                 id="curve-x-degree"),
    pytest.param(("compute", "--curve", "(y-x^99999999999999999999)", "--shear", "1/2"),
                 MAX_DEGREE_X, id="curve-x-degree-before-the-shear"),
    pytest.param(("compute", "--curve", "(2x^10000000y)"), MAX_DEGREE_X,
                 id="curve-x-degree-before-validation"),
    # The messages echo the first 40 characters of the offending text.
    *[pytest.param(("compute", "--curve", text), "cannot parse rational %r\n" % _DIGITS[:40],
                   id="curve-digits-" + name)
      for name, text in [("bare-power", "y^" + _DIGITS),
                         ("y-exponent", "(y^%s-x)" % _DIGITS),
                         ("coefficient", "(%sy-x)" % _DIGITS),
                         ("x-exponent", "(y-x)(y+x^%s)" % _DIGITS)]],
    *[pytest.param(("vankampen", "--braid", tok), "cannot parse braid letter %r\n" % tok[:40],
                   id="braid-digits-" + name)
      for name, tok in [("index", "s" + _DIGITS), ("power", "s1^" + _DIGITS),
                        ("integer", _DIGITS)]],
    pytest.param(("compute", "--curve", "(y^2-x)", "--radius", _DIGITS),
                 "cannot parse rational %r\n" % _DIGITS[:40], id="radius-digits"),
    pytest.param(("compute", "--curve", "(y^2-x)", "--center", "a" * 5000),
                 "cannot parse complex number %r\n" % ("a" * 40), id="center-letters"),
    pytest.param(("compute", "--curve", "(" + "y" * 4999),
                 "unbalanced parentheses in %r\n" % ("(" + "y" * 39), id="curve-unbalanced"),
    pytest.param(("compute", "--curve", "y" * 4999 + "?"),
                 "unexpected character '?' in curve %r: a curve is a product of parenthesised "
                 "factors and bare x or y powers\n" % ("y" * 40), id="curve-character"),
    pytest.param(("compute", "--curve", "(%s)" % ("x" * 4997 + "?")),
                 "cannot parse polynomial %r at offset 4997\n" % ("x" * 40),
                 id="curve-polynomial"),
])
def test_input_over_a_size_limit_exits_two(capsys, argv, limit):
    """limit is the limit the error names, or the error's own ending."""
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    tail = limit if isinstance(limit, str) else "over the limit of %d\n" % limit
    assert err.startswith("error: ") and err.endswith(tail)
    assert "Traceback" not in err


def test_a_bare_power_is_parsed_once_before_the_degree_limit(monkeypatch, capsys):
    parsed, parse = [], curves.parse_polynomial
    monkeypatch.setattr(curves, "parse_polynomial", lambda text: parsed.append(text) or parse(text))
    assert _run(capsys, "compute", "--curve", "y^1000") == (
        2, "", "error: the curve's y-degree is 1000, over the limit of %d\n" % MAX_STRANDS)
    assert _run(capsys, "compute", "--curve", "x^1000") == (
        3, "", "tracking error: factor x does not depend on y (vertical or constant)\n")
    assert parsed == ["y", "x"]


@pytest.mark.parametrize("curve, shear, degree", [
    pytest.param("(y-x^300)", "1/100", 300, id="top-form-kept"),
    # x -> x + y kills the top form x^40 - y^40, so the y-degree is 39: the
    # multiplicity of the root 1 of t^40 - 1 tells, with no shear.
    pytest.param("(x^40-y^40+y)", "1", 39, id="top-form-killed"),
])
def test_a_factor_is_sheared_only_once_its_degree_is_within_the_limit(
        monkeypatch, capsys, curve, shear, degree):
    sheared, shear_x = [], Polynomial2.shear_x
    monkeypatch.setattr(Polynomial2, "shear_x", lambda f, q: sheared.append(f) or shear_x(f, q))
    assert _run(capsys, "compute", "--curve", curve, "--shear", shear) == (
        2, "", "error: the curve's y-degree is %d, over the limit of %d\n" % (degree, MAX_STRANDS))
    assert sheared == []


def test_inputs_at_the_size_limits_run(capsys):
    code, out, _ = _run(capsys, "vankampen", "--braid", "s%d" % (MAX_STRANDS - 1))
    assert code == 0
    assert "strands: %d\n" % MAX_STRANDS in out
    # The letter limit holds across tokens.  A CLI run on this braid stops
    # at the image limit (test_braid_image_over_the_limit_exits_two).
    word = _parse_braid("s1^600 s2^-%d" % (MAX_LETTERS - 600), None)
    assert len(word.letters) == MAX_LETTERS
    assert word.letters[-1] == -2


@pytest.mark.parametrize("braid", [
    # 30 letters; the images would reach 7,049,153 letters.
    pytest.param(" ".join(["s1 s2^-1"] * 15), id="alternating"),
    # At the letter limit; the relators would reach 481,200 letters.
    pytest.param("s1^600 s2^-%d" % (MAX_LETTERS - 600), id="at-letter-limit"),
])
def test_braid_image_over_the_limit_exits_two(capsys, braid):
    start = time.perf_counter()
    code, out, err = _run(capsys, "vankampen", "--braid", braid)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: braid image has more than %d letters\n" % MAX_IMAGE_LETTERS


@pytest.mark.parametrize("argv, code, expected", [
    pytest.param(("--braid", "s5^0"), 0, "strands: 6\nbraid: (empty)\n", id="identity-on-6"),
    pytest.param(("--braid", "s2^0 s1"), 0, "strands: 3\nbraid: s1\n", id="zero-power-sets-strands"),
    pytest.param(("--strands", "3", "--braid", "s5^0"), 2,
                 "error: letter 5 out of range for 3 strands\n", id="zero-power-out-of-range"),
    pytest.param(("--strands", "3", "--braid", "s5"), 2,
                 "error: letter 5 out of range for 3 strands\n", id="letter-out-of-range"),
    pytest.param(("--braid", "s99^0"), 2,
                 "error: the braid's strand count is 100, over the limit of %d\n" % MAX_STRANDS,
                 id="zero-power-over-strand-limit"),
])
def test_every_written_letter_counts_toward_the_strands(capsys, argv, code, expected):
    got, out, err = _run(capsys, "vankampen", *argv)
    assert got == code
    if code:
        assert out == "" and err == expected
    else:
        assert out.startswith(expected)


def test_overflowing_fiber_arithmetic_warns_nothing(capsys):
    # Roots near 1e300 overflow the residual bound and the gap arithmetic;
    # the braid is right, and no warning may reach stderr.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "compute", "--curve", "(y-1%sx^2)(y+x)" % ("0" * 300))
    assert (code, err, caught) == (0, "", [])
    assert "samples: 76\nletters: s1 s1 s1 s1\n" in out


def test_vankampen_reports_a_truncated_simplification(capsys, monkeypatch):
    def truncated(p):
        return SimplifyResult(p, ("a move",), True)

    monkeypatch.setattr(cli, "simplify", truncated)
    code, out, _ = _run(capsys, "vankampen", "--braid", "s1 s1")
    assert code == 0
    assert "simplify-1: a move\nsimplify-truncated: true\nfinal: " in out


def test_verify_all_counts_each_presentation_once_per_group(monkeypatch, capsys):
    # One count memo for the whole command: the fixtures that share
    # expected relations or deletion targets are counted once (56 calls
    # with one memo per fixture), and a witness counts each presentation
    # into a battery half in one call.
    calls = []
    inner = homcount._counts

    def spy(rank, relators, groups):
        calls.append(relators)
        return inner(rank, relators, groups)

    monkeypatch.setattr(homcount, "_counts", spy)
    code, out, _ = _run(capsys, "verify", "all")
    assert code == 0 and out.endswith("result: all checks passed\n")
    assert len(calls) == 34

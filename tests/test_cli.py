from __future__ import annotations

import time
import warnings

import pytest

from braidmono import default_targets, dump_targets
from braidmono.cli import MAX_LETTERS, MAX_STRANDS, MAX_TARGET_ORDER, _parse_braid, main
from braidmono.words import MAX_IMAGE_LETTERS


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


def test_compute_center_and_radius(capsys):
    code, out, _ = _run(
        capsys, "compute", "--curve", "(y^2-x)",
        "--center", "5", "--radius", "1/2",
    )
    assert code == 0
    assert "letters: (empty)" in out


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


def test_tracking_error_exits_three(capsys):
    code, _, err = _run(capsys, "compute", "--curve", "(y-x)(y-x)")
    assert code == 3
    assert "tracking error" in err


@pytest.mark.parametrize("flags", [
    pytest.param(("--radius", "1e100"), id="radius-1e100"),
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


@pytest.mark.parametrize("flags, message", [
    pytest.param(("--curve", "(y^2-2xy+x^2)"),
                 "factor y^2-2xy+x^2 is not squarefree",
                 id="repeated-factor"),
    pytest.param(("--curve", "(2x+y)(y+x^2)(y-x^2)", "--radius", "2"),
                 "step underflow at loop angle 0.000000 (fiber too unstable)",
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
])
def test_tracker_error_message_and_exit(capsys, flags, message):
    code, out, err = _run(capsys, "compute", *flags)
    assert code == 3
    assert out == ""
    assert err == "tracking error: %s\n" % message


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
    pytest.param(("--braid", "s1 s1", "--steps", "8"), id="braid-steps"),
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


def test_verify_with_targets_file(tmp_path, capsys):
    path = tmp_path / "targets.txt"
    path.write_text(dump_targets(default_targets()[:3]), encoding="utf-8")
    code, out, _ = _run(
        capsys, "verify", "two-tangent-conics", "--targets", str(path)
    )
    assert code == 0


def test_verify_is_deterministic(capsys):
    first = _run(capsys, "verify", "two-tangent-conics")
    second = _run(capsys, "verify", "two-tangent-conics")
    assert first == second


@pytest.mark.parametrize("content", [
    pytest.param(None, id="missing"),
    pytest.param("group X\norder two\nidentity 0\n0\n", id="malformed"),
    pytest.param(b"\xff\xfe", id="not-utf8"),
])
def test_verify_bad_targets_file_exits_two(tmp_path, capsys, content):
    path = tmp_path / "targets.txt"
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    elif content is not None:
        path.write_bytes(content)
    code, out, err = _run(
        capsys, "verify", "two-tangent-conics", "--targets", str(path)
    )
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert out == ""


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
    assert err == "error: complex number %r is out of floating-point range\n" % center


def _cyclic_table_text(n, order=None):
    tokens = [str(k) for k in range(n)]
    rows = (" ".join(tokens[i:] + tokens[:i]) for i in range(n))
    return "group C%d\norder %s\nidentity 0\n%s\n" % (n, order or n, "\n".join(rows))


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
    pytest.param(("vankampen", "--curve", "(y^33-x)"), MAX_STRANDS,
                 id="vankampen-curve-degree"),
    pytest.param(("verify", "two-tangent-conics", "--targets"), MAX_TARGET_ORDER,
                 id="target-order"),
    # Order headers that int() reads but the targets format refuses; a
    # 200-element table behind either header must not get past the limit.
    pytest.param(("verify", "two-tangent-conics", "--targets", "+200"),
                 "got 'order +200'\n", id="target-order-signed"),
    pytest.param(("verify", "two-tangent-conics", "--targets", "2_00"),
                 "got 'order 2_00'\n", id="target-order-underscored"),
    pytest.param(("verify", "two-tangent-conics", "--targets", "9" * 5000),
                 "order has too many digits\n", id="target-order-digits"),
])
def test_input_over_a_size_limit_exits_two(tmp_path, capsys, argv, limit):
    """limit is the limit the error names, or the error's own ending."""
    if "--targets" in argv:
        header = argv[3:]
        path = tmp_path / "targets.txt"
        text = _cyclic_table_text(200, header[0]) if header else _cyclic_table_text(1500)
        path.write_text(text, encoding="utf-8")
        argv = argv[:3] + (str(path),)
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    tail = limit if isinstance(limit, str) else "over the limit of %d\n" % limit
    assert err.startswith("error: ") and err.endswith(tail)
    assert "Traceback" not in err


def test_inputs_at_the_size_limits_run(tmp_path, capsys):
    code, out, _ = _run(capsys, "vankampen", "--braid", "s%d" % (MAX_STRANDS - 1))
    assert code == 0
    assert "strands: %d\n" % MAX_STRANDS in out
    path = tmp_path / "targets.txt"
    path.write_text(_cyclic_table_text(MAX_TARGET_ORDER), encoding="utf-8")
    code, _, _ = _run(capsys, "verify", "two-tangent-conics", "--targets", str(path))
    assert code == 0
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


@pytest.mark.parametrize("command", ["compute", "vankampen"])
def test_steps_outside_float_range_exits_two(capsys, command):
    code, out, err = _run(capsys, command, "--curve", "(y^2-x)", "--steps", "1" + "0" * 400)
    assert code == 2
    assert out == ""
    assert err == "error: --steps must be a positive integer within floating-point range\n"


def test_overflowing_fiber_arithmetic_warns_nothing(capsys):
    # Roots near 1e300 overflow the residual bound and the gap arithmetic;
    # the braid is right, and no warning may reach stderr.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "compute", "--curve", "(y-1%sx^2)(y+x)" % ("0" * 300))
    assert (code, err, caught) == (0, "", [])
    assert "samples: 76\nletters: s1 s1 s1 s1\n" in out

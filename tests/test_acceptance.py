"""End-to-end checks for the whole pipeline, one test per criterion.

Each test prints a single PASS/FAIL line naming the criterion, so a
plain pytest -s run doubles as the verification report.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from braidmono import (
    BraidWord,
    FreeWord,
    LoopSpec,
    MotionProgram,
    Presentation,
    RotateBlock,
    Verdict,
    artin_action,
    braid_equal,
    braid_images,
    braid_permutation,
    count_homomorphisms,
    default_targets,
    equivalence_evidence,
    fixture_by_id,
    fixtures,
    induced_presentation,
    is_consequence,
    kill_generator,
    lefschetz_braid,
    motion_to_braid,
    n_tangency_fixture,
    simplify,
    track_loop,
    tracker,
    verify_fixture,
)
from garside_conjugacy import braid_conjugate


# The fixtures with complex points over the basepoint, whose model
# works in a rearranged frame and matches the tracked braid only up to
# conjugation.
COMPLEX_FIBER_FIXTURES = (
    "vertical-tangency",
    "triple-tangency-vertical-line",
    "vertical-tangency-line-pair",
)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print("FAIL criterion %d: %s" % (num, description))
        raise
    print("PASS criterion %d: %s" % (num, description))


def _raw_relators(braid):
    """Van Kampen relators x_j^-1 beta(x_j), trivial entries kept so the
    list index matches the catalogue's 1-based relation numbering."""
    out = []
    for j, img in enumerate(braid_images(braid), start=1):
        out.append(FreeWord.generator(braid.strands, j).inverse() * img)
    return out


def test_criterion_1_calibration():
    with criterion(1, "double full twist induces (x1 x2)^2 = (x2 x1)^2"):
        t0 = time.perf_counter()
        raw = induced_presentation(BraidWord(2, (1, 1, 1, 1)))
        final = simplify(raw).presentation
        target = Presentation(2, (FreeWord(2, (1, 2, 1, 2, -1, -2, -1, -2)),))
        consistent = equivalence_evidence(final, target)
        elapsed = time.perf_counter() - t0
        assert consistent
        assert len(default_targets()) == 10
        assert elapsed < 1.0, "calibration took %.2fs" % elapsed


def test_criterion_2_tracked_equals_model_on_real_fixtures(tracked_braid):
    with criterion(2, "tracked braid equals the model braid on every real fixture"):
        real = [f for f in fixtures() if f.fixture_id not in COMPLEX_FIBER_FIXTURES]
        assert len(real) == 9
        for f in real:
            t0 = time.perf_counter()
            tracked = tracked_braid(f.fixture_id)
            elapsed = time.perf_counter() - t0
            model = BraidWord(f.expected_relations.rank, f.model_letters)
            assert braid_equal(tracked, model), f.fixture_id
            assert elapsed < 10.0, "%s tracked in %.2fs" % (f.fixture_id, elapsed)


def test_criterion_3_complex_fixtures_agree_by_hom_counts(tracked_braid):
    with criterion(3, "complex-fiber fixtures: tracked and model are conjugate, equal hom counts"):
        for fid in COMPLEX_FIBER_FIXTURES:
            t0 = time.perf_counter()
            tracked = tracked_braid(fid)
            f = fixture_by_id(fid)
            model = BraidWord(f.expected_relations.rank, f.model_letters)
            assert braid_conjugate(tracked, model), fid
            consistent = equivalence_evidence(
                induced_presentation(tracked), induced_presentation(model)
            )
            elapsed = time.perf_counter() - t0
            assert consistent, fid
            assert elapsed < 30.0, "%s compared in %.2fs" % (fid, elapsed)


def test_criterion_4_model_matches_printed_relations():
    with criterion(4, "model braids reproduce the printed relation sets"):
        principal = [
            f for f in fixtures() if not f.fixture_id.startswith("conic-line-")
        ]
        assert len(principal) == 10
        for f in principal:
            model = BraidWord(f.expected_relations.rank, f.model_letters)
            assert equivalence_evidence(induced_presentation(model), f.expected_relations), f.fixture_id


def test_criterion_5_redundant_relations_are_derivable():
    with criterion(5, "all seven declared redundant relations are Derivable"):
        total = 0
        for f in fixtures():
            if not f.redundancy_claims:
                continue
            raws = _raw_relators(BraidWord(f.expected_relations.rank, f.model_letters))
            for idx in f.redundancy_claims:
                word = raws[idx - 1]
                rest = [r for i, r in enumerate(raws) if i != idx - 1 and r.letters]
                assert (
                    is_consequence(rest, word) is Verdict.DERIVABLE
                ), "%s relation %d" % (f.fixture_id, idx)
                total += 1
        assert total == 7


def test_criterion_6_generator_deletions_match_smaller_fixtures():
    with criterion(6, "killing a line meridian reproduces the smaller fixture"):
        total = 0
        for f in fixtures():
            for gen, small in f.deletion_checks:
                assert equivalence_evidence(
                    kill_generator(f.expected_relations, gen), small
                ), "%s kill x%d" % (f.fixture_id, gen)
                total += 1
        assert total == 8


def test_criterion_7_lefschetz_doubling(tracked_braid):
    with criterion(7, "half-loop braid squared equals the full monodromy"):
        for fid in ("two-tangent-conics", "triple-tangency"):
            f = fixture_by_id(fid)
            half = lefschetz_braid(track_loop(f.curve, LoopSpec()))
            full = tracked_braid(fid)
            assert braid_equal(half * half, full), fid


def test_criterion_8_parametric_tangency_scaling():
    with criterion(8, "n-fold tangency pipeline passes for n = 2, 3, 4"):
        for n in (2, 3, 4):
            f = n_tangency_fixture(n)
            report = verify_fixture(f)
            assert report.passed, (n, report.lines())

        # n = 3 must land on the printed three-relation set exactly.
        f3 = n_tangency_fixture(3)
        model3 = BraidWord(f3.expected_relations.rank, f3.model_letters)
        final = simplify(induced_presentation(model3)).presentation
        printed = fixture_by_id("triple-tangency").expected_relations
        assert (final.rank, final.canonical_relator_set()) == (
            printed.rank, printed.canonical_relator_set())

        # n = 4: the claimed cyclic relation set, confirmed by hom counts.
        f4 = n_tangency_fixture(4)
        model4 = BraidWord(f4.expected_relations.rank, f4.model_letters)
        assert equivalence_evidence(induced_presentation(model4), f4.expected_relations)


def _random_reduced_word(rng: random.Random, rank: int, length: int) -> FreeWord:
    letters = []
    while len(letters) < length:
        a = rng.choice([k for k in range(-rank, rank + 1) if k != 0])
        if letters and letters[-1] == -a:
            continue
        letters.append(a)
    return FreeWord(rank, tuple(letters))


def _suite_braid_relations(instances: int) -> None:
    rng = random.Random(90701)
    for _ in range(instances):
        n = rng.randint(3, 6)
        w = _random_reduced_word(rng, n, rng.randint(0, 8))
        if n >= 4 and rng.random() < 0.5:
            i = rng.randint(1, n - 3)
            j = rng.randint(i + 2, n - 1)
            lhs, rhs = BraidWord(n, (i, j)), BraidWord(n, (j, i))
        else:
            i = rng.randint(1, n - 2)
            lhs, rhs = BraidWord(n, (i, i + 1, i)), BraidWord(n, (i + 1, i, i + 1))
        assert artin_action(lhs, w) == artin_action(rhs, w)


def _suite_fixed_product(instances: int) -> None:
    rng = random.Random(90702)
    for _ in range(instances):
        n = rng.randint(2, 6)
        length = rng.randint(0, 30)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)
        )
        b = BraidWord(n, letters)
        product = FreeWord(n, tuple(range(n, 0, -1)))
        assert artin_action(b, product) == product


def _suite_motion_permutations(instances: int) -> None:
    rng = random.Random(90703)
    for _ in range(instances):
        n = rng.randint(2, 6)
        length = rng.randint(0, 30)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)
        )
        moves = tuple(
            RotateBlock(
                (abs(a), abs(a) + 1),
                complex(abs(a) + 0.5, 0.0),
                Fraction(1 if a > 0 else -1),
                steps=16,
            )
            for a in letters
        )
        motion = MotionProgram(tuple(range(1, n + 1)), moves).to_motion()
        emitted = motion_to_braid(motion)
        assert emitted.letters == letters
        assert braid_permutation(emitted) == motion.matching_permutation()


def _suite_tietze_preserves_hom_counts(instances: int) -> None:
    rng = random.Random(90704)
    targets = default_targets()
    for _ in range(instances):
        rank = rng.randint(1, 3)
        rels = [
            _random_reduced_word(rng, rank, rng.randint(1, 6))
            for _ in range(rng.randint(1, 3))
        ]
        if rels and rng.random() < 0.3:
            by = _random_reduced_word(rng, rank, 2)
            rels.append(rng.choice(rels).conjugate(by))
        p = Presentation(rank, tuple(rels))
        before = tuple(count_homomorphisms(p, g) for _, g in targets)
        q = simplify(p, max_len=24, budget=200).presentation
        after = tuple(count_homomorphisms(q, g) for _, g in targets)
        assert before == after, (p, q)


def _suite_step_doubling(tracked) -> None:
    todo = fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]
    for f in todo:
        coarse = tracked(f.fixture_id)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tracker, "_START_DIVISIONS", 512)
            fine = motion_to_braid(track_loop(f.curve, LoopSpec()))
        assert braid_equal(coarse, fine), f.fixture_id


def test_criterion_9_property_suites(tracked_braid):
    with criterion(9, "property suites hold on 1000 random instances each"):
        _suite_braid_relations(1000)
        _suite_fixed_product(1000)
        _suite_motion_permutations(1000)
        _suite_tietze_preserves_hom_counts(1000)
        _suite_step_doubling(tracked_braid)

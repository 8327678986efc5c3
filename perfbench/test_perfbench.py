"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q -p no:cacheprovider perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import braidmono as bm  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import TRACED, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def contexts():
    return {name: w.setup() for name, w in W.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_same_inputs(name, contexts):
    w, ctx = W.WORKLOADS[name], contexts[name]
    first = W.make_batch(w, 7, 1, ctx)
    assert first == W.make_batch(w, 7, 1, ctx)
    assert first != W.make_batch(w, 8, 1, ctx)


def test_batch_is_whole_rounds_over_the_cells():
    w = W.WORKLOADS["program-braids"]
    cells = len(W.PROGRAM_STRANDS) * len(W.PROGRAM_LENGTHS)
    assert W.rounds_for(w, 1) == 2
    assert W.rounds_for(w, 3 * w.round_seconds) == 3
    assert W.rounds_for(w, 1e6) == w.max_rounds
    batch = W.make_batch(w, 1, 3 * w.round_seconds, None)
    assert len(batch) == 3 * cells
    for r in range(3):
        assert sorted(c for c, _ in batch[r * cells:(r + 1) * cells]) == list(range(cells))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_rounds_of_a_cell_draw_different_inputs(name, contexts):
    w, ctx = W.WORKLOADS[name], contexts[name]
    batch = W.make_batch(w, 5, 1e6, ctx)
    by_cell = {}
    for c, item in batch:
        by_cell.setdefault(c, []).append(item)
    assert all(len(items) == w.max_rounds for items in by_cell.values())
    for items in by_cell.values():
        if name == "verify-catalogue":
            assert len({radius for _, radius in items}) == len(items)
            continue
        # Only a model braid of one repeated letter, or the empty word,
        # has a single input.
        single = len(set(items[0][-1])) <= 1
        assert single or len(set(map(repr, items))) > 1
def test_present_checker_rejects_a_removed_relator(contexts):
    w, ctx = W.WORKLOADS["present-catalogue"], contexts["present-catalogue"]
    for _, item in W.make_batch(w, 2, 1, ctx):
        if item[0] == "two-tangent-conics":
            break
    result = w.run(ctx, item)
    assert w.check(ctx, item, result)
    pres = result.presentation
    fewer = bm.Presentation(pres.rank, pres.relators[1:])
    assert not w.check(ctx, item, bm.SimplifyResult(fewer, (), False))


def test_stored_hom_counts_match_the_fixtures():
    counter = W.HomCounter()
    for f in W.catalogue():
        assert counter.counts(f.expected_relations) == W.EXPECTED_HOM_COUNTS[f.fixture_id]


def test_program_checker_rejects_a_changed_letter():
    w = W.WORKLOADS["program-braids"]
    item = next(i for _, i in W.make_batch(w, 4, 1, None) if len(i[2]) == 5)
    braid = w.run(None, item)
    assert w.check(None, item, braid)
    changed = (-braid.letters[0],) + braid.letters[1:]
    assert not w.check(None, item, bm.BraidWord(braid.strands, changed))


def test_verify_checker_rejects_a_failed_check(contexts):
    w = W.WORKLOADS["verify-catalogue"]
    item = ("two-tangent-conics", W.VERIFY_RADII[0])
    report = bm.VerificationReport(item[0], (
        bm.CheckResult("tracked-vs-model", True, ""),
        bm.CheckResult("model-vs-expected", False, ""),
    ))
    assert not w.check(contexts["verify-catalogue"], item, report)
    assert not w.check(contexts["verify-catalogue"], item, bm.VerificationReport(item[0], ()))


def test_calibrated_clock_scales_wall_time_and_keeps_errors():
    clock = run.CalibratedClock()
    result, err, wall, cal = clock.time(sum, [1, 2])
    assert result == 3 and err is None
    assert cal == wall * clock.speeds[-1] and clock.speeds[-1] > 0
    result, err, _, _ = clock.time(int, "x")
    assert result is None and err.startswith("ValueError")
    assert len(clock.speeds) == 2


def test_tail_has_ten_operations_above_it():
    lat = [float(k) for k in range(30)]
    assert run.tail(lat) == (19.0, 100.0 * 20 / 30, 10)
    assert run.tail([1.0, 2.0]) == (1.0, 50.0, 1)


def _bindings(tracer):
    out = {}
    for mod in tracer.modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    for key, value in vars(bm.MotionProgram).items():
        out[("MotionProgram", key)] = value
    return out


def test_tracer_restores_every_binding():
    tracer = Tracer()
    before = _bindings(tracer)
    with tracer:
        during = _bindings(tracer)
        assert bm.tracker.track_loop is not before[("braidmono.tracker", "track_loop")]
        assert bm.catalog.is_consequence is not before[("braidmono.catalog", "is_consequence")]
        assert vars(bm.MotionProgram)["braid"] is not before[("MotionProgram", "braid")]
    after = _bindings(tracer)
    assert during.keys() == before.keys()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_error():
    tracer = Tracer()
    before = _bindings(tracer)
    with pytest.raises(bm.ParseError):
        with tracer:
            tracer.op(bm.parse_curve, "(y-x")
    assert tracer.stats["curves.parse_curve"].calls == 1
    assert all(_bindings(tracer)[k] is before[k] for k in before)


def test_self_time_excludes_traced_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.05)

    traced_inner = tracer._wrap("inner", inner, None)

    def outer():
        time.sleep(0.01)
        traced_inner()

    tracer.op(tracer._wrap("outer", outer, None))
    st = tracer.stats
    assert 0.01 <= st["outer"].self_s < 0.05 <= st["inner"].self_s
    assert st["op"].self_s < 0.01
    assert st["outer"].calls == st["inner"].calls == st["op"].calls == 1


def test_traced_counts_repeat():
    w = W.WORKLOADS["program-braids"]
    batch = [item for _, item in W.make_batch(w, 9, 1, None)[:20]]
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            answers = [tracer.op(w.run, None, item) for item in batch]
        assert all(w.check(None, i, a) for i, a in zip(batch, answers))
        runs.append(tracer.stats)
    names = ["%s.%s" % (t[0], t[1]) for t in TRACED]
    for name in names:
        assert runs[0][name].calls == runs[1][name].calls
        assert dict(runs[0][name].counts) == dict(runs[1][name].counts)
        assert runs[0][name].self_s >= 0.0
    assert runs[0]["motion.MotionProgram.braid"].calls == len(batch)
    assert runs[0]["motion.motion_to_braid"].counts["letters"] == sum(len(i[2]) for i in batch)


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_result_line_follows_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec["paths"]) == {"perfbench"}
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", "program-braids", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)], ROOT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "program-braids", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each output check must reject a wrong answer: a wrong group, a loop with
reversed winding, a chain that is not a cycle, wrong class coordinates.
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

mhom = pytest.importorskip("mhom")


def _segments(items):
    out = {}
    for c, tup in items:
        out[tup] = out.get(tup, 0) + c
    return out


# ---- loop chains ----

@pytest.mark.parametrize("factor", [0, 1])
def test_torus_loop_passes_and_reversed_fails(factor):
    items, winding = inputs.torus_loop(factor, 1, Fraction(3, 7), start=2)
    seg = _segments(items)
    assert checks.check_loop_chain(seg, (0, 3), winding) is None
    reversed_ = {(q, p): c for (p, q), c in seg.items()}
    assert checks.windings(reversed_, (0, 3)) == tuple(-w for w in winding)
    assert checks.check_loop_chain(reversed_, (0, 3), winding) is not None


def test_circle_loop_reversed_and_doubled_fail():
    (items, winding), = inputs.circle_loops(5)[:1]
    seg = _segments(items)
    assert checks.check_loop_chain(seg, (0,), winding) is None
    flipped = {t: -c for t, c in seg.items()}
    assert "windings" in checks.check_loop_chain(flipped, (0,), winding)
    doubled = {t: 2 * c for t, c in seg.items()}
    assert "windings" in checks.check_loop_chain(doubled, (0,), winding)


def test_non_cycle_fails():
    items, winding = inputs.circle_loop([[Fraction(1, 3)], [], []])
    seg = _segments(items)
    seg.pop(next(iter(seg)))
    assert "not a cycle" in checks.check_loop_chain(seg, (0,), winding)


def test_chord_and_off_circle_points_fail():
    a, b, c = inputs.RING
    m = inputs.lerp(a, b, Fraction(1, 2))
    chord = {(a, m): 1, (m, c): 1, (c, a): 1}  # (m, c) cuts across
    assert checks.windings(chord, (0,)) is None
    inside = (Fraction(1, 3),) * 3
    off = {(a, inside): 1, (inside, a): -1}
    assert checks.windings(off, (0,)) is None


def test_matched_chain_from_mhom_passes_check():
    torus = mhom.load_space("torus")
    cover = mhom.load_cover(torus, "torus_balls")
    nerve = mhom.Nerve(cover, max_arity=3)
    items, winding = inputs.torus_loop(1, 0, Fraction(1, 7))
    T = mhom.PolyhedralCurrent.from_tuples(6, items, degree=1)
    res = mhom.zigzag_fill(T, cover, nerve=nerve)
    assert checks.check_loop_chain(res.chain.terms, (0, 3), winding) is None
    assert checks.check_loop_chain(res.chain.terms, (0, 3), (1, 0)) is not None


def test_cancel_check_rejects_a_wrong_filling():
    s1 = mhom.load_space("s1")
    cover = mhom.load_cover(s1, "s1_arcs3")
    nerve = mhom.Nerve(cover, max_arity=3)
    items, _ = inputs.circle_loop([[Fraction(1, 4), Fraction(4, 5)],
                                   [Fraction(1, 3)], [Fraction(5, 8)]])
    T = mhom.PolyhedralCurrent.from_tuples(3, items, degree=1)
    res = mhom.zigzag_fill(T, cover, nerve=nerve)
    z = res.chain - mhom.LipschitzChain.from_simplices(s1, items)
    w = mhom.zigzag_cancel(z, res.filling, cover, nerve=nerve)
    args = (items, res.chain.terms, res.chain.level)
    assert checks.check_cancel(*args, w.terms, w.level) is None
    flipped = {t: -c for t, c in w.terms.items()}
    assert checks.check_cancel(*args, flipped, w.level) is not None
    assert checks.check_cancel(*args, w.terms, w.level + 1) is not None
    solid = next(t for t in w.terms if len(set(t)) == 3)
    dropped = {t: c for t, c in w.terms.items() if t != solid}
    assert checks.check_cancel(*args, dropped, w.level) is not None
    assert checks.check_cancel(*args, {}, 0) is not None


def test_halving_keeps_the_current():
    a, b, _ = inputs.RING
    seg = {(a, b): 3}
    assert checks.as_current(checks.halve(seg, 2)) != checks.as_current(seg)
    assert checks.point_boundary(checks.halve(seg, 2)) == \
        checks.point_boundary(seg)
    assert checks.as_current({(b, a): -3}) == checks.as_current(seg)


# ---- homology ----

def _homology(cx):
    mc = mhom.MetricComplex(cx.ambient_dim, cx.vertices, cx.simplices)
    C, _ = mc.chain_complex()
    return [mhom.homology_data(C, k) for k in range(len(C.dims))]


@pytest.fixture(scope="module")
def klein():
    import random
    verts, tops, groups = inputs.klein_grid(random.Random(3), 5)
    cx = inputs.Complex("klein 5x5", verts, tops, groups)
    return cx, _homology(cx)


def test_klein_groups_and_coordinates(klein):
    cx, data = klein
    queries = inputs.class_queries(3, cx)
    for k, (d, expected) in enumerate(zip(data, cx.groups)):
        assert checks.check_group(k, d.group, expected) is None
        gens = d.generators()
        assert checks.check_generators(cx, k, gens, expected) is None
        for a, b in queries[k]:
            z = checks.query_cycle(cx, k, gens, a, b)
            assert checks.check_coordinates(k, d.class_vector(z), a,
                                            expected) is None


def test_wrong_group_fails(klein):
    cx, data = klein
    h1 = data[1].group
    assert checks.check_group(1, h1, (1, (2,))) is None
    assert checks.check_group(1, h1, (2, ())) is not None
    assert checks.check_group(1, h1, (1, (3,))) is not None
    assert checks.check_group(1, mhom.HomologyGroup(1), (1, (2,))) is not None


def test_wrong_class_coordinates_fail(klein):
    cx, data = klein
    expected = cx.groups[1]
    a = [2, 3]
    assert checks.expected_coordinates(a, expected) == [2, 1]
    assert checks.check_coordinates(1, [2, 1], a, expected) is None
    assert checks.check_coordinates(1, [2, 3], a, expected) is not None
    assert checks.check_coordinates(1, [3, 1], a, expected) is not None
    assert checks.check_coordinates(1, [2], a, expected) is not None


def test_non_cycle_generator_fails(klein):
    cx, data = klein
    gens = [list(g) for g in data[1].generators()]
    assert checks.check_generators(cx, 1, gens, cx.groups[1]) is None
    gens[0][0] += 1
    assert "not a cycle" in checks.check_generators(cx, 1, gens, cx.groups[1])
    assert checks.check_generators(cx, 1, gens[:1], cx.groups[1]) is not None


def test_product_groups_follow_kunneth():
    import random
    verts, tops, groups = inputs.graph_product(random.Random(0), (4,), (3, 3))
    assert groups == [(1, ()), (3, ()), (2, ())]
    cx = inputs.Complex("4-gon x wedge", verts, tops, groups)
    for k, d in enumerate(_homology(cx)):
        assert checks.check_group(k, d.group, groups[k]) is None


# ---- inputs ----

def test_inputs_repeat_for_a_seed():
    assert inputs.torus_loops(7) == inputs.torus_loops(7)
    assert inputs.circle_loops(7) == inputs.circle_loops(7)
    a, b = inputs.homology_complexes(7), inputs.homology_complexes(7)
    assert [(x.vertices, x.simplices) for x in a] == \
        [(x.vertices, x.simplices) for x in b]
    assert inputs.circle_loops(7) != inputs.circle_loops(8)


def test_circle_pass_mix():
    loops = inputs.circle_loops(11)
    assert len(loops) == sum(inputs.CIRCLE_MIX.values())
    kinds = [sum(1 for _, (p, q) in items if not _fits_any_ball(p, q))
             for items, _ in loops]
    for k, n in inputs.CIRCLE_MIX.items():
        assert kinds.count(k) == n


def test_circle_mix_rounds_the_exact_shares():
    total = sum(inputs.CIRCLE_MIX.values())
    shares = inputs.split_shares()
    assert sum(shares) == 1
    want = [int(total * s) for s in shares]
    by_remainder = sorted(range(4), key=lambda k: total * shares[k] - want[k],
                          reverse=True)
    for k in by_remainder[:total - sum(want)]:
        want[k] += 1
    assert want == [inputs.CIRCLE_MIX[k] for k in range(4)]


def _fits_any_ball(p, q):
    def inside(x, c):
        return sum((u - v) ** 2 for u, v in zip(x, c)) < 1
    return any(inside(p, c) and inside(q, c) for c in inputs.RING)


# ---- tracing ----

def test_tracer_counts_and_reports_absent_targets(monkeypatch):
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + (
        ("gone.layer", "mhom.cech", "no_such_function"),
        ("gone.layer", "mhom.no_such_module", "f")))
    t = tracer.Tracer()
    try:
        absent = t.install()
        assert absent == ["gone.layer: mhom.cech.no_such_function",
                          "gone.layer: mhom.no_such_module.f"]
        s1 = mhom.load_space("s1")
        C, _ = s1.chain_complex()
        mhom.homology_data(C, 1)
    finally:
        t.uninstall()
    assert t.totals["spaces.load_calls"] == 1
    assert t.totals["chaincomplex.homology_data_calls"] == 1
    assert t.totals["intlinalg.snf_calls"] >= 2
    assert t.totals["intlinalg.snf_s"] <= t.totals["intlinalg.snf_incl_s"]
    assert "gone.layer_calls" not in t.totals
    assert mhom.homology_data.__name__ == "homology_data"


def test_benchmark_json_matches_run():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert set(run.INCLUSIVE) | set(run.PER_RUN) <= {n for n, _ in run.PER_LAYER}

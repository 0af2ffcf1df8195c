import copy
import operator
import os
import pickle
import random
import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhom import rational, spaces
from mhom.cech import Nerve, zigzag_cancel, zigzag_fill
from mhom.chains import LipschitzChain
from mhom.complexes import MetricComplex
from mhom.currents import PolyhedralCurrent
from mhom.geometry import barycentric_subdivide, cut_simplex_by_values
from mhom.rational import Point, Q, RadicalSum, centroid, coord, lerp, point

from oracles import square_split

F = Fraction

# plain Fraction.__hash__ calls of the fill and cancel below when every
# point coordinate was a plain Fraction
FRACTION_KEYED_HASHES = 15712


# primes above the trial-division table: P*P*R has no small factor and is
# no square, so its key keeps P*P and only the square class merge ties
# sqrt(P*P*R) to sqrt(R)
P, R = 1_000_003, 1_000_033


def seeded_values(rng, count=200):
    vals = [F(0), F(1), F(-1), F(1, 2), F(-7, 3), F(10 ** 30, 7)]
    vals += [F(rng.randrange(-50, 51), rng.randrange(1, 30))
             for _ in range(count)]
    return vals


def is_point(p):
    return (type(p) is Point and all(type(x) is Q for x in p)
            and hash(p) == hash(tuple(p)))


def test_coordinates_agree_with_fraction():
    vals = seeded_values(random.Random(60))
    for a in vals:
        qa = coord(a)
        assert type(qa) is Q and coord(a) is qa and coord(qa) is qa
        assert hash(qa) == hash(a) and qa == a and a == qa
        assert str(qa) == str(a) and repr(qa) == repr(a)
        assert repr((qa, qa)) == repr((a, a))
        assert f"{qa}" == f"{a}" and float(qa) == float(a)
        for b in vals[:20]:
            qb = coord(b)
            assert (qa < qb) == (a < b) and (qa <= b) == (a <= b)
            assert (qa == qb) == (a == b) and (qa is qb) == (a == b)
            for out in (qa + qb, qa - qb, qa * qb, -qa, abs(qa), qa + 1):
                assert type(out) is Fraction
            assert qa + qb == a + b and qa * qb == a * b
    assert coord(2) is coord(F(4, 2)) is coord("2") is coord((6, 3))
    assert coord(2) == 2 and hash(coord(2)) == hash(2)
    assert Q(3, 4) is coord(F(3, 4))


small_fractions = st.fractions(-3, 3, max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(small_fractions, small_fractions)
@example(F(0), F(0))
@example(F(-1, 2), F(-1, 2))
@example(F(-1, 3), F(1, 3))
@example(F(-2), F(0))
def test_q_order_is_fraction_order(a, b):
    """Q against Q compares on integers; against a Fraction or an int it
    keeps Fraction's order, on either side."""
    qa, qb = coord(a), coord(b)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        assert op(qa, qb) == op(a, b)
        assert op(qa, b) == op(a, qb) == op(a, b)
        assert op(qa, qa) == op(a, a)
        for n in (-1, 0, 1):
            assert op(qa, n) == op(a, n) and op(n, qa) == op(n, a)


def test_points_find_each_other_in_dicts():
    rng = random.Random(61)
    vals = seeded_values(rng, 40)
    plain = [tuple(rng.choice(vals) for _ in range(3)) for _ in range(50)]
    interned = [point(p) for p in plain]
    assert all(is_point(p) for p in interned)
    by_plain = {p: i for i, p in enumerate(plain)}
    by_interned = {p: i for i, p in enumerate(interned)}
    for p, q in zip(plain, interned):
        assert by_plain[q] == by_plain[p] and by_interned[p] == by_interned[q]
        assert q == p and p == q and hash(q) == hash(p) and point(p) is q
        assert str(q) == str(p) and repr(q) == repr(p)
    assert sorted(interned) == sorted(plain)


def test_copies_and_pickles_are_the_interned_object():
    for a in seeded_values(random.Random(62), 30):
        q = coord(a)
        assert copy.copy(q) is q and copy.deepcopy(q) is q
        assert pickle.loads(pickle.dumps(q)) is q
    p = point((F(1, 3), F(-2)))
    assert pickle.loads(pickle.dumps(p)) is p
    assert copy.copy(p) is p and copy.deepcopy(p) is p
    assert all(a is b for a, b in zip(copy.deepcopy(p), p))


def test_built_points_hold_interned_coordinates(torus):
    a, b, c = (point(p) for p in [(1, F(1, 2)), (F(-3, 4), 2), (0, F(5, 3))])
    assert is_point(a) and point(a) is a and is_point(centroid((a, b, c)))
    for _, tup in barycentric_subdivide((a, b, c)):
        assert all(is_point(p) for p in tup)
    # cut points are scratch until a caller interns them
    assert all(type(x) is F for x in lerp(a, b, F(2, 7)))
    lo, hi = cut_simplex_by_values((a, b, c), [F(-1), F(2), F(1)], F(0))
    assert lo and hi and not all(is_point(p) for f in lo + hi for p in f)
    assert all(is_point(p) for p in torus.vertices)
    tri = MetricComplex(2, [(0, 0), ("1/2", 0), (F(1, 2), F(1, 2))],
                        [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
    assert all(is_point(p) for p in tri.vertices)
    assert all(is_point(p) for p in torus.sample_vertices(2))


def test_intern_table_starts_over_at_its_limit(monkeypatch):
    monkeypatch.setattr(rational, "_COORDS", {})
    monkeypatch.setattr(rational, "MEMO_LIMIT", 50)
    vals = seeded_values(random.Random(66), 400)
    first = [coord(a) for a in vals]
    assert 0 < len(rational._COORDS) <= 50
    again = [coord(a) for a in vals]
    assert again == first == vals and len(rational._COORDS) <= 50
    assert [hash(q) for q in again] == [hash(a) for a in vals]
    assert coord(vals[-1]) is again[-1]


def test_point_table_starts_over_at_its_limit(monkeypatch):
    monkeypatch.setattr(rational, "_POINTS", {})
    monkeypatch.setattr(rational, "MEMO_LIMIT", 8)
    rng = random.Random(67)
    vals = seeded_values(rng, 40)
    plain = [tuple(rng.choice(vals) for _ in range(3)) for _ in range(60)]
    first = [point(p) for p in plain]
    assert 0 < len(rational._POINTS) <= 8
    again = [point(p) for p in plain]
    assert again == first == plain and len(rational._POINTS) <= 8
    assert [hash(p) for p in again] == [hash(p) for p in plain]
    assert all(is_point(p) for p in again) and point(plain[-1]) is again[-1]
    # a point made before a restart keys the same entry as one made after
    assert {p: 1 for p in first} == {p: 1 for p in again}


def test_circle_zigzag_hashes_no_coordinate_in_weighted(s1, arcs3,
                                                        monkeypatch):
    # term keys hold Points, whose stored hash the tuple algebra reads: no
    # coordinate is hashed from weighted.py, only where points are interned
    nerve = Nerve(arcs3, max_arity=3)
    items = spaces.random_circle_cycle(s1, random.Random(3))
    real = Q.__hash__
    callers = []

    def counted(self):
        callers.append(os.path.basename(sys._getframe(1).f_code.co_filename))
        return real(self)

    monkeypatch.setattr(Q, "__hash__", counted)
    T = PolyhedralCurrent.from_tuples(s1.ambient_dim, items, 1)
    res = zigzag_fill(T, arcs3, nerve=nerve)
    z = res.chain - LipschitzChain.from_simplices(s1, items)
    zigzag_cancel(z, res.filling, arcs3, nerve=nerve)
    monkeypatch.undo()
    assert "rational.py" in callers
    assert "weighted.py" not in callers


def test_circle_zigzag_hashes_few_plain_fractions(s1, arcs3):
    nerve = Nerve(arcs3, max_arity=3)
    items = spaces.random_circle_cycle(s1, random.Random(3))
    real = Fraction.__hash__
    calls = []

    def counted(self):
        calls.append(1)
        return real(self)

    Fraction.__hash__ = counted
    try:
        T = PolyhedralCurrent.from_tuples(s1.ambient_dim, items, 1)
        res = zigzag_fill(T, arcs3, nerve=nerve)
        z = res.chain - LipschitzChain.from_simplices(s1, items)
        zigzag_cancel(z, res.filling, arcs3, nerve=nerve)
    finally:
        Fraction.__hash__ = real
    assert len(calls) * 10 <= FRACTION_KEYED_HASHES


def test_square_split_matches_trial_division():
    for n in range(1, 20000):
        assert rational._square_split(n) == square_split(n)
    assert rational._square_split(P * P * R) == (1, P * P * R)


def test_radicals_of_one_square_class_cancel():
    diff = RadicalSum.sqrt_of(P * P * R) - RadicalSum.sqrt_of(R).scale(P)
    assert diff.is_zero() and diff == 0


def test_radicals_of_one_square_class_add_to_one_term():
    total = RadicalSum.sqrt_of(P * P * R) + RadicalSum.sqrt_of(R).scale(P)
    assert len(total.terms) == 1
    assert total == RadicalSum.sqrt_of(4 * R).scale(P)


def test_sign_of_radicals_of_one_square_class_terminates():
    big, small = RadicalSum.sqrt_of(P * P * R), RadicalSum.sqrt_of(R)
    assert (big + small.scale(P) + 1).sign() == 1
    assert (big - small.scale(P)).sign() == 0
    assert (-big - small.scale(P) + 1).sign() == -1


def test_products_keep_one_key_per_square_class():
    big, small = RadicalSum.sqrt_of(P * P * R), RadicalSum.sqrt_of(R)
    assert big * small == P * R and (big * small).terms == {1: P * R}
    # sqrt(1009**2 * 1013) keeps its square; the product's key 1009**2 is
    # below the squarefree bound, so the product splits it again
    odd = RadicalSum.sqrt_of(1009 ** 2 * 1013) * RadicalSum.sqrt_of(1013)
    assert odd.terms == {1: 1009 * 1013}
    # sqrt(P*P*R)*sqrt(2) and sqrt(2)*sqrt(R) land in one class
    two = RadicalSum.sqrt_of(2)
    prod = (big + two) * (small + two)
    assert len(prod.terms) == 2
    assert prod == RadicalSum.sqrt_of(2 * R).scale(P + 1) + (P * R + 2)


def test_number_minus_radical_sum():
    x = RadicalSum.sqrt_of(2)
    assert 1 - x == -x + 1
    assert (1 - x).sign() == -1 and (2 - x).sign() == 1
    assert Fraction(3, 2) - x == -x + Fraction(3, 2)

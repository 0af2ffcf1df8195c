"""Exact rational vectors and quadratic-radical arithmetic.

All trusted-path geometry works over Q.  Every point the algebra builds is
a Point from point(): a tuple of interned coordinates that stores its
hash.  coord(x) returns the one Q, a Fraction that stores its hash, for
each value, and point(xs) the one Point for each tuple of values, each
from a table that remember() bounds.  A dict lookup of a point then makes
one call that returns a stored hash, equal coordinates are one object,
and tuple comparison stops at identity.  Q and Point are a Fraction and a
tuple in value, order, hash and text, so plain tuples of Fractions find
them in dicts and are found by them; Q arithmetic returns plain
Fractions, and Point slices and sums are plain tuples.  Scratch values
(cut points in chart coordinates) stay plain and out of the tables.

Square roots never enter comparisons directly: either both sides are
squared first, or values are kept as exact sums of c*sqrt(n), one key n
per square class and n squarefree when trial division proves it
(RadicalSum), where a genuine length is unavoidable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import ge, gt, le, lt

Vec = tuple  # tuple of Fraction; every point the algebra builds is a Point


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (list, tuple)):
        num, den = x  # a pair, as files hold it
        return Fraction(num, den)
    return Fraction(x)


def _q_order(cmp):
    """Q's comparison cmp: on integers against a Q, else Fraction's."""
    fallback = getattr(Fraction, f"__{cmp.__name__}__")

    def compare(a, b):
        if type(b) is Q:
            return cmp(a._numerator * b._denominator,
                       b._numerator * a._denominator)
        return fallback(a, b)
    return compare


class Q(Fraction):
    """A point coordinate: a Fraction that computed its hash once.

    Build them with coord(), which keeps one Q per value, so equal
    coordinates are the same object.  Equality, order and hash are those
    of Fraction, arithmetic returns plain Fractions, and str and repr print
    what Fraction prints.  Two Q order by cross-multiplying their integer
    parts (denominators are positive), which sorting points by their
    coordinates does all the time; any other operand goes to Fraction.
    """

    __slots__ = ("_h",)

    def __new__(cls, numerator=0, denominator=None):
        # Fraction's own copies and conversions call the class; they intern too
        return coord(Fraction(numerator, denominator))

    def __hash__(self):
        return self._h

    __lt__, __le__, __gt__, __ge__ = map(_q_order, (lt, le, gt, ge))

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __reduce__(self):
        return (coord, (str(self),))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


# Every memo of the package starts over when it holds this many entries,
# so it stays small whatever passes through: the coordinate and point
# tables here, the location memos of complexes and the flat charts of
# currents.  What a memo handed out before a restart stays valid, since
# the new entries equal the old ones by value.
MEMO_LIMIT = 1 << 14


def remember(memo, key, value):
    """memo[key] = value, emptying memo first when it holds MEMO_LIMIT
    entries; returns value.  Callers call it on a miss only."""
    if len(memo) >= MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


# (numerator, denominator) -> the Q of that value.  A zig-zag pass leaves a
# few hundred values here.
_COORDS = {}


def coord(x) -> Q:
    """The interned Q equal to x, for anything frac() accepts."""
    if type(x) is Q:
        return x
    f = frac(x)
    return _q(f.numerator, f.denominator)


def _q(num, den) -> Q:
    """The interned Q of num/den, in lowest terms with den > 0."""
    key = (num, den)
    q = _COORDS.get(key)
    if q is None:
        q = object.__new__(Q)
        q._numerator, q._denominator = key
        q._h = Fraction.__hash__(q)
        remember(_COORDS, key, q)
    return q


class Point(tuple):
    """A point: a tuple of interned coordinates that computed its hash once.

    Build them with point(), which keeps one Point per value.  The stored
    hash is that of the plain tuple of the same coordinates, and equality
    and order are a tuple's, so plain tuples of Fractions and Points key
    the same dict entries.  str and repr print what a tuple prints, and
    copies and pickles give back the interned point.
    """

    def __new__(cls, xs=()):
        return point(xs)

    def __hash__(self):
        return self._h

    def __reduce__(self):
        return (point, (tuple(self),))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


# Every interned Point, keyed by itself, so a plain tuple of equal value
# finds it.  A zig-zag pass meets a few hundred points.
_POINTS = {}


def _intern(qs) -> Point:
    """The interned Point of a plain tuple of Q."""
    p = _POINTS.get(qs)
    if p is None:
        p = tuple.__new__(Point, qs)
        p._h = hash(qs)
        remember(_POINTS, p, p)
    return p


def point(xs) -> Point:
    """The interned Point with coordinates xs, each anything frac() accepts."""
    if type(xs) is Point:
        return xs
    return _intern(tuple(map(coord, xs)))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def dist2(a: Vec, b: Vec) -> Fraction:
    """Squared Euclidean distance, exact."""
    return sum(((x - y) ** 2 for x, y in zip(a, b)), Fraction(0))


def lerp(a: Vec, b: Vec, t) -> Vec:
    """The point a + t (b - a), in plain Fractions: cut points are scratch
    (chart coordinates) until a caller interns them."""
    t = frac(t)
    return tuple(x + t * (y - x) for x, y in zip(a, b))


def integer_form(p):
    """(numerators, q): the point p as integers over one denominator q > 0."""
    q = math.lcm(*(x.denominator for x in p))
    return tuple(x.numerator * (q // x.denominator) for x in p), q


def centroid(points) -> Point:
    """The barycentre of the points, interned.  Per coordinate: one lcm
    of the denominators, a sum of scaled numerators and one gcd, on
    integers."""
    n = len(points)
    out = []
    for xs in zip(*map(point, points)):
        den = math.lcm(*[x._denominator for x in xs])
        num = sum([x._numerator * (den // x._denominator) for x in xs])
        den *= n
        g = math.gcd(num, den)
        out.append(_q(num // g, den // g))
    return _intern(tuple(out))


def sqrt_lower(q: Fraction, prec: int = 40) -> Fraction:
    """Rational r with r <= sqrt(q) < r + 2**-prec, for q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    scale = 1 << prec
    n = q.numerator * scale * scale
    d = q.denominator
    # floor(sqrt(n/d)) at the scaled level
    r = math.isqrt(n // d)
    while (r + 1) * (r + 1) * d <= n:
        r += 1
    while r * r * d > n:
        r -= 1
    return Fraction(r, scale)


def sqrt_upper(q: Fraction, prec: int = 40) -> Fraction:
    """Rational r with r - 2**-prec < sqrt(q) <= r."""
    lo = sqrt_lower(q, prec)
    if lo * lo == q:
        return lo
    return lo + Fraction(1, 1 << prec)


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(2, n) if sieve[p]]


SMALL_PRIMES = _primes_below(1000)
# a cofactor free of SMALL_PRIMES and below this has at most two prime
# factors (1009**3 > 10**9), so one isqrt test proves it squarefree
SQUAREFREE_BELOW = 10 ** 9


def _square_split(n: int) -> tuple[int, int]:
    """n = s*s*m; returns (s, m).  n >= 1.

    Trial division by SMALL_PRIMES, until p*p exceeds what is left, then
    one isqrt test of that cofactor.  m is squarefree whenever the
    cofactor, or m itself, is below SQUAREFREE_BELOW; a larger cofactor
    may keep the square of a prime above 1000.
    """
    s = m = 1
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            m *= p
    r = math.isqrt(n)
    return (s * r, m) if r * r == n else (s, m * n)


class RadicalSum:
    """Exact number of the form sum_i c_i * sqrt(n_i), c_i in Q.

    A key n_i is squarefree when trial division proves it, as it does below
    SQUAREFREE_BELOW, and otherwise no two keys share a square class.  Roots
    of distinct classes are linearly independent over Q (Besicovitch 1940),
    so equality testing is exact, and the sign of a nonzero value is
    decided by interval refinement, which terminates.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict key -> nonzero Fraction, one key per square class
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def from_rational(q) -> "RadicalSum":
        q = frac(q)
        return RadicalSum({1: q} if q else {})

    @staticmethod
    def sqrt_of(q) -> "RadicalSum":
        """sqrt of a nonnegative rational, exact."""
        q = frac(q)
        if q < 0:
            raise ValueError("negative radicand")
        if q == 0:
            return RadicalSum()
        # sqrt(a/b) = sqrt(a*b)/b
        n = q.numerator * q.denominator
        s, m = _square_split(n)
        return RadicalSum({m: Fraction(s, q.denominator)})

    def __add__(self, other):
        if not isinstance(other, RadicalSum):
            other = RadicalSum.from_rational(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            # k*m a square puts m in k's class: sqrt(m) = isqrt(km)/k sqrt(k);
            # keys below SQUAREFREE_BELOW are squarefree and need no test
            if m not in out:
                for k in (1, *out):
                    if max(k, m) >= SQUAREFREE_BELOW:
                        r = math.isqrt(k * m)
                        if r * r == k * m:
                            c, m = c * Fraction(r, k), k
                            break
            c = out.get(m, 0) + c
            if c:
                out[m] = c
            else:
                out.pop(m, None)
        return RadicalSum(out)

    __radd__ = __add__

    def __neg__(self):
        return RadicalSum({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, RadicalSum):
            other = RadicalSum.from_rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def scale(self, q) -> "RadicalSum":
        q = frac(q)
        if not q:
            return RadicalSum()
        return RadicalSum({m: c * q for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, RadicalSum):
            return self.scale(other)
        total = RadicalSum()
        for m, c in self.terms.items():
            for n, d in other.terms.items():
                # mn = g^2 * (m/g)(n/g), the cofactors coprime, so squarefree
                # when m and n are; split a product of larger keys again
                g = math.gcd(m, n)
                s, key = 1, (m // g) * (n // g)
                if max(m, n) >= SQUAREFREE_BELOW:
                    s, key = _square_split(key)
                total = total + RadicalSum({key: c * d * g * s})
        return total

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(m == 1 for m in self.terms)

    def bounds(self, prec: int) -> tuple[Fraction, Fraction]:
        lo = hi = Fraction(0)
        for m, c in self.terms.items():
            if m == 1:
                lo += c
                hi += c
            elif c > 0:
                lo += c * sqrt_lower(Fraction(m), prec)
                hi += c * sqrt_upper(Fraction(m), prec)
            else:
                lo += c * sqrt_upper(Fraction(m), prec)
                hi += c * sqrt_lower(Fraction(m), prec)
        return lo, hi

    def sign(self) -> int:
        """Exact sign: zero exactly when there are no terms."""
        if not self.terms:
            return 0
        if self.is_rational():
            q = self.terms[1]
            return (q > 0) - (q < 0)
        prec = 20
        while True:
            lo, hi = self.bounds(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2
            if prec > 100000:  # unreachable for genuine nonzero sums
                raise ArithmeticError("sign refinement did not converge")

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __eq__(self, other):
        if not isinstance(other, (RadicalSum, int, Fraction)):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if not self.terms:
            return "RadicalSum(0)"
        bits = [f"{c}*sqrt({m})" if m != 1 else f"{c}" for m, c in sorted(self.terms.items())]
        return "RadicalSum(" + " + ".join(bits) + ")"

"""Sparse integer matrices and Smith normal form over Z.

Plain Python ints carry arbitrary precision, so no overflow is possible.
Homology runs the normal form only on the small Morse complex that a
coreduction leaves (chaincomplex.homology_data); the subgroup questions
about induced maps run it on class matrices.  It returns both transforms
together with their inverses, so that one factorization answers every
kernel, image and coordinate question about its matrix.
It works on sparse rows ({col: value} dicts) plus, for the matrix being
reduced, an index of the rows holding a nonzero in each column, so an
operation costs in proportion to the entries it touches.  The pivot rule
and the order of the row and column operations are fixed, so the
transforms, and the homology generators built from them, do not depend on
how a matrix's entries are stored or ordered.
"""

from __future__ import annotations


class IntMatrix:
    """Sparse integer matrix keyed by (row, col)."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data=None):
        """Takes ownership of data, a fresh {(row, col): int} dict of
        nonzero entries that the caller built and does not keep; nothing
        is checked or copied.  from_rows converts values and drops zeros.
        """
        self.nrows = nrows
        self.ncols = ncols
        self.data = {} if data is None else data

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        return IntMatrix(len(rows), len(rows[0]) if rows else 0,
                         {(i, j): int(v) for i, r in enumerate(rows)
                          for j, v in enumerate(r) if v})

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "IntMatrix":
        return IntMatrix(nrows, ncols)

    def get(self, i: int, j: int) -> int:
        return self.data.get((i, j), 0)

    def set(self, i: int, j: int, v: int):
        if v:
            self.data[(i, j)] = int(v)
        else:
            self.data.pop((i, j), None)

    def to_rows(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        return rows

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.data) == (other.nrows, other.ncols, other.data)

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            # group other's entries by row for sparse product
            by_row = {}
            for (k, j), v in other.data.items():
                by_row.setdefault(k, []).append((j, v))
            acc = {}
            for (i, k), a in self.data.items():
                for j, b in by_row.get(k, ()):
                    acc[(i, j)] = acc.get((i, j), 0) + a * b
            return IntMatrix(self.nrows, other.ncols,
                             {k: v for k, v in acc.items() if v})
        return NotImplemented

    def apply(self, v):
        """Matrix times integer vector."""
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        out = [0] * self.nrows
        for (i, j), a in self.data.items():
            if v[j]:
                out[i] += a * v[j]
        return out

    def column(self, j: int):
        return [self.get(i, j) for i in range(self.nrows)]

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols}, {len(self.data)} entries)"


def _pivot(A, t):
    """(|v|, i, j) of the first entry of least absolute value, in row-major
    order, of the block of A from (t, t); None if the block is zero.

    Rows t.. of A hold no entry left of column t, so a row's entries all
    lie in the block.  The scan stops at the first row holding a unit.
    """
    best = None
    for i in range(t, len(A)):
        row = A[i]
        if row:
            a, j = min((abs(v), j) for j, v in row.items())
            if best is None or a < best[0]:
                best = (a, i, j)
                if a == 1:
                    break
    return best


def _add_row(rows, i, k, c):
    """rows[i] += c * rows[k] on sparse row dicts {col: value}, c != 0."""
    ri = rows[i]
    for j, v in rows[k].items():
        x = ri.get(j, 0) + c * v
        if x:
            ri[j] = x
        else:
            del ri[j]


def _from_row_dicts(rows, transpose=False) -> IntMatrix:
    """Square IntMatrix whose row i, or column i if transpose, is the
    dict rows[i]."""
    return IntMatrix(len(rows), len(rows), {
        (j, i) if transpose else (i, j): v
        for i, row in enumerate(rows) for j, v in row.items()})


def smith_normal_form(M: IntMatrix):
    """Returns (U, D, V, U_inv, V_inv) with U*M*V = D, U and V unimodular.

    D is diagonal with nonnegative entries d_1 | d_2 | ... | d_r.
    Row operations accumulate in U, column operations in V, and each
    inverse takes the inverse operation from the other side: a row
    operation on U acts on U_inv as the inverse column operation, a column
    operation on V acts on V_inv as the inverse row operation.

    Every matrix is held as sparse rows, one {col: value} dict per row, and
    the working copy of M also keeps, per column, the set of rows holding a
    nonzero there, so a column operation touches only those rows.  The
    operations and their order are fixed: the pivot is the first entry of
    least absolute value in row-major order of the remaining block (the
    scan stops at a unit), the pivot's column is cleared top to bottom and
    its row left to right, a nonzero remainder is swapped into the pivot
    position, and a final pass enforces the divisibility chain.  So the
    five matrices do not depend on the storage or on the order of M's
    entries.
    """
    nr, nc = M.nrows, M.ncols
    A = [{} for _ in range(nr)]
    cols = [set() for _ in range(nc)]
    for (i, j), v in M.data.items():
        A[i][j] = v
        cols[j].add(i)
    # U and V_inv are held as rows, U_inv and V as rows of their
    # transposes, so every mirrored operation is a row operation
    U, U_inv_t, V_t, V_inv = ([{i: 1} for i in range(n)]
                              for n in (nr, nr, nc, nc))

    def row_swap(i, k):
        Ai = A[i]
        for j in Ai.keys() ^ A[k].keys():
            rows = cols[j]
            if j in Ai:
                rows.remove(i)
                rows.add(k)
            else:
                rows.remove(k)
                rows.add(i)
        for R in (A, U, U_inv_t):
            R[i], R[k] = R[k], R[i]

    def row_add(i, k, c):
        # row i += c * row k; column k of U_inv -= c * column i
        if not c:
            return
        Ai = A[i]
        for j, v in A[k].items():
            x = Ai.get(j, 0) + c * v
            if x:
                Ai[j] = x
                cols[j].add(i)
            else:
                del Ai[j]
                cols[j].remove(i)
        _add_row(U, i, k, c)
        _add_row(U_inv_t, k, i, -c)

    def row_negate(i):
        for R in (A, U, U_inv_t):
            R[i] = {j: -v for j, v in R[i].items()}

    def col_swap(j, k):
        for r in cols[j] | cols[k]:
            Ar = A[r]
            a, b = Ar.pop(j, 0), Ar.pop(k, 0)
            if b:
                Ar[j] = b
            if a:
                Ar[k] = a
        cols[j], cols[k] = cols[k], cols[j]
        for R in (V_t, V_inv):
            R[j], R[k] = R[k], R[j]

    def col_add(j, k, c):
        # col j += c * col k; row k of V_inv -= c * row j
        if not c:
            return
        rows = cols[j]
        for r in cols[k]:
            Ar = A[r]
            x = Ar.get(j, 0) + c * Ar[k]
            if x:
                Ar[j] = x
                rows.add(r)
            else:
                del Ar[j]
                rows.remove(r)
        _add_row(V_t, j, k, c)
        _add_row(V_inv, k, j, -c)

    t = 0
    while True:
        piv = _pivot(A, t)
        if piv is None:
            break
        _, i, j = piv
        row_swap(t, i)
        col_swap(t, j)
        while True:
            # clear column t below the pivot, then row t right of it.  An
            # operation on row i or column j changes no later entry of the
            # pivot's column or row, and a pass without a swap leaves both
            # clear.
            done = True
            for i in sorted(i for i in cols[t] if i > t):
                q = A[i][t] // A[t][t]
                row_add(i, t, -q)
                if t in A[i]:  # remainder smaller than pivot: swap up
                    row_swap(t, i)
                    done = False
            for j in sorted(j for j in A[t] if j > t):
                q = A[t][j] // A[t][t]
                col_add(j, t, -q)
                if j in A[t]:
                    col_swap(t, j)
                    done = False
            if done:
                break
        if A[t][t] < 0:
            row_negate(t)
        t += 1

    rank = t
    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a != 0:
                changed = True
                # bring b into position via col add, then re-clear the 2x2 block
                col_add(i, i + 1, 1)
                while True:
                    q = A[i + 1].get(i, 0) // A[i][i]
                    row_add(i + 1, i, -q)
                    if i not in A[i + 1]:
                        break
                    row_swap(i, i + 1)
                while True:
                    q = A[i].get(i + 1, 0) // A[i][i]
                    col_add(i + 1, i, -q)
                    if i + 1 not in A[i]:
                        break
                    col_swap(i, i + 1)
                if A[i][i] < 0:
                    row_negate(i)
                if A[i + 1][i + 1] < 0:
                    row_negate(i + 1)

    D = IntMatrix(nr, nc, {(i, i): A[i][i] for i in range(rank)})
    return (_from_row_dicts(U), D, _from_row_dicts(V_t, transpose=True),
            _from_row_dicts(U_inv_t, transpose=True), _from_row_dicts(V_inv))


def kernel_basis(M: IntMatrix):
    """Basis of the integer kernel lattice {x : Mx = 0}, as column vectors."""
    _, D, V, _, _ = smith_normal_form(M)
    r = len([i for i in range(min(M.nrows, M.ncols)) if D.get(i, i)])
    basis = []
    for j in range(r, M.ncols):
        basis.append(V.column(j))
    return basis


def solve_integer(M: IntMatrix, b):
    """One integer solution x of Mx = b, or None if none exists."""
    U, D, V, _, _ = smith_normal_form(M)
    ub = U.apply(list(b))
    y = [0] * M.ncols
    n = min(M.nrows, M.ncols)
    for i in range(M.nrows):
        d = D.get(i, i) if i < n else 0
        if d:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
        elif ub[i] != 0:
            return None
    return V.apply(y)

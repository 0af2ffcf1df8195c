"""Sparse integer matrices and Smith normal form over Z.

Plain Python ints carry arbitrary precision, so no overflow is possible.
The normal form drives every homology computation downstream; it returns
both transforms together with their inverses, so that one factorization
answers every kernel, image and coordinate question about its matrix.
"""

from __future__ import annotations


class IntMatrix:
    """Sparse integer matrix keyed by (row, col)."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data=None):
        self.nrows = nrows
        self.ncols = ncols
        self.data = {}
        if data:
            for (i, j), v in data.items():
                if v:
                    self.data[(i, j)] = int(v)

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        m = IntMatrix(len(rows), len(rows[0]) if rows else 0)
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                if v:
                    m.data[(i, j)] = int(v)
        return m

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        m = IntMatrix(n, n)
        for i in range(n):
            m.data[(i, i)] = 1
        return m

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

    def transpose(self) -> "IntMatrix":
        m = IntMatrix(self.ncols, self.nrows)
        m.data = {(j, i): v for (i, j), v in self.data.items()}
        return m

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.data) == (other.nrows, other.ncols, other.data)

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(sorted(self.data.items()))))

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            out = IntMatrix(self.nrows, other.ncols)
            # group other's entries by row for sparse product
            by_row = {}
            for (k, j), v in other.data.items():
                by_row.setdefault(k, []).append((j, v))
            acc = {}
            for (i, k), a in self.data.items():
                for j, b in by_row.get(k, ()):
                    acc[(i, j)] = acc.get((i, j), 0) + a * b
            out.data = {k: v for k, v in acc.items() if v}
            return out
        if isinstance(other, (list, tuple)):
            return self.apply(other)
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


def _nonzero_in_block(rows, t, nr, nc):
    best = None
    for i in range(t, nr):
        ri = rows[i]
        for j in range(t, nc):
            v = ri[j]
            if v:
                if best is None or abs(v) < abs(best[2]):
                    best = (i, j, v)
                    if abs(v) == 1:
                        return best
    return best


def _add_row(rows, i, k, c):
    """rows[i] += c * rows[k] on dense row lists."""
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]


def smith_normal_form(M: IntMatrix):
    """Returns (U, D, V, U_inv, V_inv) with U*M*V = D, U and V unimodular.

    D is diagonal with nonnegative entries d_1 | d_2 | ... | d_r.
    Row operations accumulate in U, column operations in V, and each
    inverse takes the inverse operation from the other side: a row
    operation on U acts on U_inv as the inverse column operation, a column
    operation on V acts on V_inv as the inverse row operation.
    """
    nr, nc = M.nrows, M.ncols
    A = M.to_rows()
    # U and V_inv are held as rows, U_inv and V as rows of their
    # transposes, so every mirrored operation is a row operation
    U, U_inv_t, V_t, V_inv = (IntMatrix.identity(n).to_rows()
                              for n in (nr, nr, nc, nc))

    def row_swap(i, k):
        for R in (A, U, U_inv_t):
            R[i], R[k] = R[k], R[i]

    def row_add(i, k, c):
        # row i += c * row k; column k of U_inv -= c * column i
        _add_row(A, i, k, c)
        _add_row(U, i, k, c)
        _add_row(U_inv_t, k, i, -c)

    def row_negate(i):
        for R in (A, U, U_inv_t):
            R[i] = [-x for x in R[i]]

    def col_swap(j, k):
        for r in A:
            r[j], r[k] = r[k], r[j]
        for R in (V_t, V_inv):
            R[j], R[k] = R[k], R[j]

    def col_add(j, k, c):
        # col j += c * col k; row k of V_inv -= c * row j
        for r in A:
            if r[k]:
                r[j] += c * r[k]
        _add_row(V_t, j, k, c)
        _add_row(V_inv, k, j, -c)

    t = 0
    while True:
        piv = _nonzero_in_block(A, t, nr, nc)
        if piv is None:
            break
        i, j, _ = piv
        row_swap(t, i)
        col_swap(t, j)
        while True:
            # clear column t below the pivot
            done = True
            for i in range(t + 1, nr):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t]:  # remainder smaller than pivot: swap up
                        row_swap(t, i)
                        done = False
            for j in range(t + 1, nc):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j]:
                        col_swap(t, j)
                        done = False
            if done and all(A[i][t] == 0 for i in range(t + 1, nr)) \
                    and all(A[t][j] == 0 for j in range(t + 1, nc)):
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
                    q = A[i + 1][i] // A[i][i]
                    row_add(i + 1, i, -q)
                    if A[i + 1][i] == 0:
                        break
                    row_swap(i, i + 1)
                while True:
                    q = A[i][i + 1] // A[i][i]
                    col_add(i + 1, i, -q)
                    if A[i][i + 1] == 0:
                        break
                    col_swap(i, i + 1)
                if A[i][i] < 0:
                    row_negate(i)
                if A[i + 1][i + 1] < 0:
                    row_negate(i + 1)

    D = IntMatrix(nr, nc, {(i, i): A[i][i] for i in range(rank)})
    return (IntMatrix.from_rows(U), D, IntMatrix.from_rows(V_t).transpose(),
            IntMatrix.from_rows(U_inv_t).transpose(),
            IntMatrix.from_rows(V_inv))


def snf_diagonal(M: IntMatrix):
    D = smith_normal_form(M)[1]
    return [D.get(i, i) for i in range(min(M.nrows, M.ncols)) if D.get(i, i)]


def integer_rank(M: IntMatrix) -> int:
    return len(snf_diagonal(M))


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

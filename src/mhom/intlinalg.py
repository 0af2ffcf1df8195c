"""Sparse integer matrices and Smith normal form over Z.

Plain Python ints carry arbitrary precision, so no overflow is possible.
IntMatrix keeps only its nonzero entries, which boundaries, products and
apply() need.  Homology runs the normal form only on the small Morse
complex that a coreduction leaves (chaincomplex.homology_data); the
subgroup questions about induced maps run it on class matrices.  It
returns both transforms together with their inverses, so that one
factorization answers every kernel, image and coordinate question about
its matrix.  The pivot rule and the order of the row and column
operations are fixed, so the transforms, and the homology generators
built from them, do not depend on how a matrix's entries are stored or
ordered.
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


def smith_normal_form(M: IntMatrix):
    """Returns (U, D, V, U_inv, V_inv) with U*M*V = D, U and V unimodular.

    D is diagonal with nonnegative entries d_1 | d_2 | ... | d_r.
    Row operations accumulate in U, column operations in V, and each
    inverse takes the inverse operation from the other side: a row
    operation on U acts on U_inv as the inverse column operation, a column
    operation on V acts on V_inv as the inverse row operation.

    The operations and their order are fixed: the pivot is the first entry
    of least absolute value in row-major order of the remaining block (the
    scan stops at a unit), the pivot's column is cleared top to bottom and
    its row left to right, a nonzero remainder is swapped into the pivot
    position, and a final pass enforces the divisibility chain.  So the
    five matrices do not depend on how M's entries are stored or ordered.

    All five are worked on as dense rows, since the inputs are small:
    homology passes only the critical cells a coreduction leaves, at most
    3 on the bundled spaces and 6 on the benchmark's polygon, wedge and
    Klein grid products, and class matrices are as large as the class
    lists.  At these sizes an index of the nonzero entries costs more than
    the zeros it would skip.
    """
    nr, nc = M.nrows, M.ncols
    A = M.to_rows()
    U, U_inv, V, V_inv = (IntMatrix.identity(n).to_rows()
                          for n in (nr, nr, nc, nc))

    def add_rows(R, i, k, c):
        R[i] = [a + c * b for a, b in zip(R[i], R[k])]

    def add_cols(R, j, k, c):
        for r in R:
            r[j] += c * r[k]

    def swap_cols(R, j, k):
        for r in R:
            r[j], r[k] = r[k], r[j]

    def row_swap(i, k):
        for R in (A, U):
            R[i], R[k] = R[k], R[i]
        swap_cols(U_inv, i, k)

    def row_add(i, k, c):
        # row i += c * row k; column k of U_inv -= c * column i
        if c:
            add_rows(A, i, k, c)
            add_rows(U, i, k, c)
            add_cols(U_inv, k, i, -c)

    def row_negate(i):
        for R in (A, U):
            R[i] = [-x for x in R[i]]
        for r in U_inv:
            r[i] = -r[i]

    def col_swap(j, k):
        swap_cols(A, j, k)
        swap_cols(V, j, k)
        V_inv[j], V_inv[k] = V_inv[k], V_inv[j]

    def col_add(j, k, c):
        # col j += c * col k; row k of V_inv -= c * row j
        if c:
            add_cols(A, j, k, c)
            add_cols(V, j, k, c)
            add_rows(V_inv, k, j, -c)

    t = 0
    while True:
        piv = None
        for e in ((abs(v), i, j) for i in range(t, nr)
                  for j, v in enumerate(A[i][t:], t) if v):
            if piv is None or e[0] < piv[0]:
                piv = e
                if piv[0] == 1:
                    break
        if piv is None:
            break
        row_swap(t, piv[1])
        col_swap(t, piv[2])
        while True:
            # clear column t below the pivot, then row t right of it.  An
            # operation on row i or column j changes no later entry of the
            # pivot's column or row, and a pass without a swap leaves both
            # clear.
            done = True
            for i in range(t + 1, nr):
                if A[i][t]:
                    row_add(i, t, -(A[i][t] // A[t][t]))
                    if A[i][t]:  # remainder smaller than pivot: swap up
                        row_swap(t, i)
                        done = False
            for j in range(t + 1, nc):
                if A[t][j]:
                    col_add(j, t, -(A[t][j] // A[t][t]))
                    if A[t][j]:
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
                    row_add(i + 1, i, -(A[i + 1][i] // A[i][i]))
                    if not A[i + 1][i]:
                        break
                    row_swap(i, i + 1)
                while True:
                    col_add(i + 1, i, -(A[i][i + 1] // A[i][i]))
                    if not A[i][i + 1]:
                        break
                    col_swap(i, i + 1)
                if A[i][i] < 0:
                    row_negate(i)
                if A[i + 1][i + 1] < 0:
                    row_negate(i + 1)

    D = IntMatrix(nr, nc, {(i, i): A[i][i] for i in range(rank)})
    return (IntMatrix.from_rows(U), D, IntMatrix.from_rows(V),
            IntMatrix.from_rows(U_inv), IntMatrix.from_rows(V_inv))


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

"""Chain complexes of finitely generated free Z-modules and their homology.

Homology groups are presented as betti number plus elementary divisors,
with explicit cycle vectors generating the free and torsion parts.  H_k
is computed from the window C_{k+1} -> C_k -> C_{k-1} alone: a
coreduction pairs off most of its cells, the Smith normal form runs only
on the Morse complex of the critical cells left over, and the gradient
flow and its inverse carry cycles between the window and that complex.
Relative (quotient) complexes and the snake-lemma connecting map are
computed index-wise from a distinguished subcomplex basis.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush

from .intlinalg import (IntMatrix, kernel_basis, smith_normal_form,
                        solve_integer)


class HomologyGroup:
    """Isomorphism type Z^betti + sum of Z/d for d in torsion (each d >= 2)."""

    __slots__ = ("betti", "torsion")

    def __init__(self, betti: int, torsion=()):
        self.betti = betti
        self.torsion = tuple(int(d) for d in torsion)

    def __eq__(self, other):
        if not isinstance(other, HomologyGroup):
            return NotImplemented
        return (self.betti, self.torsion) == (other.betti, other.torsion)

    def __hash__(self):
        return hash((self.betti, self.torsion))

    def is_trivial(self):
        return self.betti == 0 and not self.torsion

    def __str__(self):
        if self.is_trivial():
            return "0"
        bits = []
        if self.betti == 1:
            bits.append("Z")
        elif self.betti > 1:
            bits.append(f"Z^{self.betti}")
        bits.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(bits)

    __repr__ = __str__


class ChainComplexZ:
    """Nonnegatively graded complex; boundary(k) maps degree k to k-1."""

    def __init__(self, dims, boundaries):
        self.dims = list(dims)
        self._boundaries = dict(boundaries)
        self.validate()

    def dim(self, k: int) -> int:
        if 0 <= k < len(self.dims):
            return self.dims[k]
        return 0

    def boundary(self, k: int) -> IntMatrix:
        if k in self._boundaries:
            return self._boundaries[k]
        return IntMatrix.zeros(self.dim(k - 1), self.dim(k))

    def validate(self):
        for k, M in self._boundaries.items():
            if M.nrows != self.dim(k - 1) or M.ncols != self.dim(k):
                raise ValueError(f"boundary {k} has shape {M.nrows}x{M.ncols}, "
                                 f"expected {self.dim(k - 1)}x{self.dim(k)}")
        for k in range(1, len(self.dims)):
            comp = self.boundary(k) * self.boundary(k + 1)
            if not comp.is_zero():
                raise ValueError(f"boundary squared is nonzero in degree {k + 1}")


class HomologyData:
    """Homology in one degree with explicit generating cycles.

    free_generators and torsion_generators are integer chain vectors in the
    degree-k basis; class_vector expresses any cycle in those generators,
    returning combined coordinates (free first, then torsion mod its order).
    """

    def __init__(self, group, free_generators, torsion_generators, torsion_orders,
                 expressor):
        self.group = group
        self.free_generators = free_generators
        self.torsion_generators = torsion_generators
        self.torsion_orders = torsion_orders
        self._express = expressor

    def class_vector(self, cycle):
        """Combined class coordinates of an integer cycle vector."""
        return self._express(cycle)

    @property
    def moduli(self):
        return [0] * self.group.betti + list(self.torsion_orders)

    def generators(self):
        return list(self.free_generators) + list(self.torsion_generators)


def homology_data(C: ChainComplexZ, k: int) -> HomologyData:
    """H_k with generators, from the critical cells of a coreduction.

    H_k depends only on the window C_{k+1} -> C_k -> C_{k-1}, so that is
    all _Coreduction reads.  It pairs off most of the window's cells and
    leaves a Morse complex on the critical ones, whose k-cells are often
    as few as the group's generators; _smith_homology solves that small
    complex.  class_vector checks d_k x = 0 and carries x down to the
    critical k-cells by the gradient flow; each generator is carried back
    up by the inverse flow.  Nothing is kept between calls.
    """
    nk = C.dim(k)
    dk = C.boundary(k)
    red = _Coreduction(dk, C.boundary(k + 1))
    small = _smith_homology(*red.morse_boundaries())

    def express(cycle):
        if len(cycle) != nk:
            raise ValueError("cycle vector has wrong length")
        if any(dk.apply(list(cycle))):
            raise ValueError("vector is not a cycle")
        return small.class_vector(red.project(cycle))

    return HomologyData(small.group,
                        [red.lift(g) for g in small.free_generators],
                        [red.lift(g) for g in small.torsion_generators],
                        small.torsion_orders, express)


class _Coreduction:
    """Acyclic matching of the window C_{k+1} -> C_k -> C_{k-1} by
    coreduction (Mrozek-Batko, "Coreduction homology algorithm", 2009).

    Cells are numbered from the bottom: the degree-(k-1) cells, which have
    no boundary here, then the degree-k cells from `mid`, then the
    degree-(k+1) cells from `top`.  A live cell b whose only live face is
    a, with coefficient eps = +-1, is paired with a and both are removed;
    when no such cell is left, the lowest live cell becomes critical and
    is removed.  Every face of b other than a was removed before the pair,
    so eliminating paired cells latest first, y -= (y_a / eps) * d(b), is
    a gradient flow that ends on critical cells.

    Degree-k chains flow through the pairs (k-cell, (k+1)-cell).  Those
    are applied once each, in removal order, to tabulate the flow of every
    k-cell onto the critical k-cells (`proj`).  Degree-(k-1) chains flow
    through the pairs ((k-1)-cell, k-cell) by `_sweep`, latest pair first.

    `face_lists` buckets each boundary's entries by column in one pass,
    sorts each column's few entries by face, then appends each cell to
    its faces' cofaces in ascending cell order; no global sort.
    """

    def __init__(self, dk: IntMatrix, dk1: IntMatrix):
        mid = dk.nrows
        top = mid + dk.ncols
        faces, cofaces = self.face_lists(dk, dk1)
        n = len(faces)
        self.mid, self.top, self.faces = mid, top, faces
        # pairs (a, b, eps) with a of degree k-1, in removal order, and the
        # position of each such a in that list
        self.pairs = []
        self.order = {}
        # critical cells of each degree, in the order they were chosen
        self.critical = ([], [], [])
        # each k-cell's image under the flow, {critical index: coefficient};
        # cells flowing to zero are absent
        self.proj = {}

        live = list(map(len, faces))
        alive = [True] * n
        queue = deque(c for c, m in enumerate(live) if m == 1)
        pop, push = queue.popleft, queue.append
        lowest = 0
        while True:
            if queue:
                b = pop()
                if not alive[b] or live[b] != 1:
                    continue
                for a, eps in faces[b]:
                    if alive[a]:
                        break
                if eps != 1 and eps != -1:
                    continue
                self._pair(a, b, eps)
                removed = (b, a)
            else:
                while lowest < n and not alive[lowest]:
                    lowest += 1
                if lowest == n:
                    break
                self._make_critical(lowest)
                removed = (lowest,)
            for c in removed:
                alive[c] = False
                for b in cofaces[c]:
                    if alive[b]:
                        live[b] -= 1
                        if live[b] == 1:
                            push(b)

    @staticmethod
    def face_lists(dk, dk1):
        """Each window cell's faces [(face, coefficient)] and cofaces, both
        ascending, whatever order the boundaries' dicts were filled in."""
        mid, top = dk.nrows, dk.nrows + dk.ncols
        faces = [[] for _ in range(top + dk1.ncols)]
        for (i, j), v in dk.data.items():
            faces[mid + j].append((i, v))
        for (i, j), v in dk1.data.items():
            faces[top + j].append((mid + i, v))
        cofaces = [[] for _ in faces]
        for c in range(mid, len(faces)):
            faces[c].sort()
            for f, _ in faces[c]:
                cofaces[f].append(c)
        return faces, cofaces

    def _pair(self, a, b, eps):
        if a < self.mid:
            self.order[a] = len(self.pairs)
            self.pairs.append((a, b, eps))
            return
        # a is a k-cell: its flow is that of a - eps * d(b), whose other
        # cells were all removed, and so tabulated, before a
        flow = self._flow_sum((f, -eps * v) for f, v in self.faces[b]
                              if f != a)
        if flow:
            self.proj[a] = flow

    def _flow_sum(self, terms):
        """The flow of the k-chain sum c * f over (f, c) in terms, read off
        the table: {critical index: coefficient}, zeros left out."""
        proj = self.proj
        acc = {}
        for f, c in terms:
            if f in proj:
                for i, x in proj[f].items():
                    acc[i] = acc.get(i, 0) + c * x
        return {i: x for i, x in acc.items() if x}

    def _make_critical(self, c):
        degree = (c >= self.mid) + (c >= self.top)
        cells = self.critical[degree]
        if degree == 1:
            self.proj[c] = {len(cells): 1}
        cells.append(c)

    def _sweep(self, w):
        """Flow the degree-(k-1) chain w ({cell: coefficient}) in place onto
        critical cells, latest pair first; returns the steps (b, q) taken,
        each w -= q * d(b)."""
        pairs, order, faces = self.pairs, self.order, self.faces
        heap = [-order[a] for a in w if a in order]
        heapify(heap)
        steps = []
        while heap:
            a, b, eps = pairs[-heappop(heap)]
            q = w.get(a, 0) * eps
            if not q:
                continue
            steps.append((b, q))
            for f, v in faces[b]:
                x = w.get(f, 0) - q * v
                if not x:
                    del w[f]
                    continue
                if f not in w and f in order:
                    heappush(heap, -order[f])
                w[f] = x
        return steps

    def _boundary(self, y):
        """d_k of a k-chain {cell: coefficient}, as {cell: coefficient}."""
        w = {}
        for c, x in y.items():
            for f, v in self.faces[c]:
                w[f] = w.get(f, 0) + x * v
        return {f: x for f, x in w.items() if x}

    def morse_boundaries(self):
        """(d_k, d_{k+1}) of the Morse complex, in critical k-cell order.

        Critical (k-1)-cells that no critical k-cell's boundary flows onto
        are left out as zero rows of d_k, and critical (k+1)-cells whose
        boundary flows to zero as zero columns of d_{k+1}: neither changes
        the cycles or the boundaries in degree k.
        """
        low, mid_cells, high = self.critical
        row = {c: i for i, c in enumerate(low)}
        columns = []
        for c in mid_cells:
            w = self._boundary({c: 1})
            self._sweep(w)
            columns.append({row[f]: v for f, v in w.items()})
        used = sorted({i for col in columns for i in col})
        pos = {i: p for p, i in enumerate(used)}
        dk = IntMatrix(len(used), len(mid_cells),
                       {(pos[i], j): v for j, col in enumerate(columns)
                        for i, v in col.items()})
        images = [flow for flow in map(self._flow_sum,
                                       (self.faces[c] for c in high)) if flow]
        dk1 = IntMatrix(len(mid_cells), len(images),
                        {(i, j): x for j, col in enumerate(images)
                         for i, x in col.items()})
        return dk, dk1

    def project(self, x):
        """Coordinates on the critical k-cells of the flow of the k-chain x."""
        flow = self._flow_sum((self.mid + j, v) for j, v in enumerate(x) if v)
        return [flow.get(i, 0) for i in range(len(self.critical[1]))]

    def lift(self, z):
        """The k-chain, over the window's k-cells, that the inverse flow
        makes of a Morse cycle z on the critical k-cells: y -= (<d(y), a> /
        eps) * b, latest pair first.  Raises if its boundary is not zero."""
        mid = self.mid
        y = {c: x for c, x in zip(self.critical[1], z) if x}
        w = self._boundary(y)
        for b, q in self._sweep(w):
            y[b] = y.get(b, 0) - q
        if w:
            raise ValueError("lifted generator is not a cycle")
        out = [0] * (self.top - mid)
        for c, x in y.items():
            out[c - mid] = x
        return out


def _smith_homology(dk: IntMatrix, dk1: IntMatrix) -> HomologyData:
    """H_k of C_{k+1} -dk1-> C_k -dk-> C_{k-1} from one SNF of each matrix.

    With U*d_k*V = D of rank r, the cycles are the chains whose
    coordinates V_inv*x vanish in rows 0..r-1, and columns r.. of V are a
    basis B of them.  The boundary image in that basis is Y, rows r.. of
    V_inv*d_{k+1}; with U'*Y*V' = D', the generators are columns of
    B*U'_inv and a cycle's class coordinates are U'*(rows r.. of V_inv*x).
    """
    nk = dk.ncols
    _, D, V, _, V_inv = smith_normal_form(dk)
    r = len(D.data)
    z = nk - r
    B = IntMatrix(nk, z, {(i, j - r): v for (i, j), v in V.data.items()
                          if j >= r})

    # image of the next boundary, in cycle-basis coordinates
    P = V_inv * dk1
    if any(i < r for i, _ in P.data):
        raise ValueError("boundary image does not lie in the cycle lattice")
    Y = IntMatrix(z, P.ncols, {(i - r, j): v for (i, j), v in P.data.items()})

    U, D, _, U_inv, _ = smith_normal_form(Y)
    n = min(Y.nrows, Y.ncols)
    diag = [D.get(i, i) for i in range(n)]
    rank = len([d for d in diag if d])
    torsion_orders = [d for d in diag if d >= 2]
    betti = z - rank

    free_gens, tor_gens = [], []
    tor_positions = [i for i, d in enumerate(diag) if d >= 2]
    for j in range(rank, z):
        free_gens.append(B.apply(U_inv.column(j)))
    for i in tor_positions:
        tor_gens.append(B.apply(U_inv.column(i)))

    def express(cycle):
        if len(cycle) != nk:
            raise ValueError("cycle vector has wrong length")
        y = V_inv.apply(list(cycle))
        if any(y[:r]):
            raise ValueError("vector is not a cycle")
        w = U.apply(y[r:])
        free = [w[j] for j in range(rank, z)]
        tor = [w[i] % diag[i] for i in tor_positions]
        return free + tor

    group = HomologyGroup(betti, torsion_orders)
    return HomologyData(group, free_gens, tor_gens, torsion_orders, express)


class RelativePair:
    """Complex C with a boundary-closed subcomplex spanned by basis indices.

    sub[k] lists the degree-k basis indices belonging to the subcomplex.
    Provides the subcomplex A, the quotient C/A, and coordinate transport.
    """

    def __init__(self, C: ChainComplexZ, sub):
        self.total = C
        self.sub = {k: sorted(set(sub.get(k, ()))) for k in range(len(C.dims))}
        self.comp = {}
        for k in range(len(C.dims)):
            s = set(self.sub[k])
            if any(i < 0 or i >= C.dim(k) for i in s):
                raise ValueError(f"subcomplex index out of range in degree {k}")
            self.comp[k] = [i for i in range(C.dim(k)) if i not in s]
        self._check_closed()
        self.sub_complex = self._restrict(self.sub)
        self.quotient_complex = self._restrict(self.comp)

    def _check_closed(self):
        for k in range(1, len(self.total.dims)):
            d = self.total.boundary(k)
            subk = set(self.sub[k])
            subk1 = set(self.sub[k - 1])
            for (i, j), v in d.data.items():
                if j in subk and v and i not in subk1:
                    raise ValueError(
                        f"subcomplex is not boundary-closed: degree {k} cell {j} "
                        f"hits outside cell {i}")

    def _restrict(self, idx):
        dims = [len(idx[k]) for k in range(len(self.total.dims))]
        bnds = {}
        for k in range(1, len(dims)):
            pos_k = {g: p for p, g in enumerate(idx[k])}
            pos_k1 = {g: p for p, g in enumerate(idx[k - 1])}
            bnds[k] = IntMatrix(dims[k - 1], dims[k], {
                (pos_k1[i], pos_k[j]): v
                for (i, j), v in self.total.boundary(k).data.items()
                if j in pos_k and i in pos_k1})
        return ChainComplexZ(dims, bnds)

    def include_vector(self, k, a):
        """A-coordinates -> C-coordinates."""
        out = [0] * self.total.dim(k)
        for p, g in enumerate(self.sub[k]):
            out[g] = a[p]
        return out

    def project_vector(self, k, x):
        """C-coordinates -> quotient coordinates."""
        return [x[g] for g in self.comp[k]]

    def lift_vector(self, k, q):
        """Quotient coordinates -> C-coordinates, zero on the subcomplex."""
        out = [0] * self.total.dim(k)
        for p, g in enumerate(self.comp[k]):
            out[g] = q[p]
        return out


def connecting_homomorphism(pair: RelativePair, k: int, HA=None):
    """Snake-lemma map H_k(C/A) -> H_{k-1}(A) on combined generators.

    Returns (matrix_columns, source_data, target_data): column i is the
    target class vector of the i-th combined generator of the source.
    HA, when given, is homology_data(pair.sub_complex, k - 1), solved.
    """
    HQ = homology_data(pair.quotient_complex, k)
    if HA is None:
        HA = homology_data(pair.sub_complex, k - 1)
    d = pair.total.boundary(k)
    cols = []
    for g in HQ.generators():
        x = pair.lift_vector(k, g)
        bx = d.apply(x)
        # the lift's boundary is supported on the subcomplex
        a = [bx[i] for i in pair.sub[k - 1]]
        for p, i in enumerate(pair.comp[k - 1]):
            if bx[i]:
                raise ValueError("relative cycle lift has boundary outside A")
        cols.append(HA.class_vector(a))
    return cols, HQ, HA


def hom_matrix_columns(source: HomologyData, target: HomologyData, fn):
    """Columns of an induced map: fn takes a generator chain vector and
    returns a cycle vector in the target complex."""
    return [target.class_vector(fn(g)) for g in source.generators()]


def _augmented(columns, moduli):
    """Matrix [F | diag(moduli restricted to nonzero)] for subgroup work."""
    m = len(moduli)
    ncols = len(columns)
    extra = [i for i, d in enumerate(moduli) if d]
    M = IntMatrix(m, ncols + len(extra))
    for j, col in enumerate(columns):
        for i, v in enumerate(col):
            if v:
                M.set(i, j, v)
    for p, i in enumerate(extra):
        M.set(i, ncols + p, moduli[i])
    return M


def in_subgroup(y, columns, moduli) -> bool:
    """Is class y in the subgroup generated by the given classes?"""
    M = _augmented(columns, moduli)
    return solve_integer(M, list(y)) is not None


def kernel_class_generators(columns, source_moduli, target_moduli):
    """Generating classes of the kernel of the map with the given columns."""
    M = _augmented(columns, target_moduli)
    n = len(columns)
    gens = [vec[:n] for vec in kernel_basis(M)]
    # classes killed by the source relations are also in the kernel
    for i, dmod in enumerate(source_moduli):
        if dmod:
            e = [0] * n
            e[i] = dmod
            gens.append(e)
    return gens


def exact_at(columns_in, moduli_src, moduli_mid, columns_out, moduli_dst) -> bool:
    """Exactness im(f) = ker(g) at the middle group of G -f-> M -g-> K."""
    # image generators must map to zero
    for col in columns_in:
        img = [sum(columns_out[j][i] * col[j] for j in range(len(col)))
               for i in range(len(moduli_dst))]
        for i, v in enumerate(img):
            d = moduli_dst[i]
            if (d and v % d != 0) or (not d and v != 0):
                return False
    # kernel generators must be hit
    for kgen in kernel_class_generators(columns_out, moduli_mid, moduli_dst):
        if not in_subgroup(kgen, columns_in, moduli_mid):
            return False
    return True

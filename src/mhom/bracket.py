"""The comparison map from piecewise-affine chains to polyhedral currents.

A chain term is an ordered tuple of rational points; the same tuple names a
polyhedral piece.  The induced map sends a chain to the current with the
same terms.  It kills degenerate simplices (their currents vanish), turns
the chain boundary into the current boundary, commutes with pushforward
along piecewise-affine maps and with barycentric refinement, and on degree
zero it is a bijection onto point currents.
"""

from .chains import LipschitzChain, chain_from_vector
from .currents import PolyhedralCurrent
from .errors import InputError


def bracket(chain: LipschitzChain) -> PolyhedralCurrent:
    """Current with the same weighted tuples as the chain: a copy of its
    valid terms, adopted without a second check."""
    empty = PolyhedralCurrent(chain.complex.ambient_dim, chain.degree)
    return empty.like(chain.degree, dict(chain.terms))


def bracket_inverse_points(current: PolyhedralCurrent, complex_) -> LipschitzChain:
    """Chain of points recovering a degree-zero current exactly."""
    if current.degree != 0:
        raise InputError("only degree-zero currents invert termwise")
    if current.ambient_dim != complex_.ambient_dim:
        raise InputError("ambient dimension mismatch")
    return LipschitzChain(complex_, 0, dict(current.pieces))


def pairing_matrix(currents, forms):
    """Rational matrix of evaluations T_i(f_j, pis_j).

    forms is a list of (f, [pi_1 .. pi_k]) scalar piecewise-affine data.
    """
    rows = []
    for T in currents:
        rows.append([T.evaluate(f, pis) for f, pis in forms])
    return rows


def brackets_of_generators(complex_, degree, homology):
    """Currents of the simplicial generator cycles in one degree.

    homology is the HomologyData for that degree; returns the currents of
    all its generators, the free ones first and then the torsion ones.
    """
    out = []
    for vec in homology.generators():
        chain = chain_from_vector(complex_, degree, vec)
        out.append(bracket(chain))
    return out

"""Homology of finite metric simplicial complexes in three theories.

The package computes simplicial homology over the integers, realizes
classes by piecewise-affine chains and by polyhedral integral currents,
and cross-verifies the theories with exact certificates: the bracket map
sends chains to currents, and the cover zig-zag matches cycle currents by
cycle chains up to explicit fillings.  Chains and currents share one
weighted-simplex algebra (WeightedSimplices), so the cover split and the
Čech solver take either.
"""

from .errors import GeometryError, InputError, LocalityError, MhomError
from .rational import RadicalSum, dist2, sqrt_lower, sqrt_upper
from .chaincomplex import (ChainComplexZ, HomologyGroup, RelativePair,
                           connecting_homomorphism, homology_data)
from .complexes import BallCover, MetricComplex, PLMap, mcshane_extension
from .weighted import WeightedSimplices
from .chains import LipschitzChain, chain_from_vector, chain_to_vector
from .currents import PolyhedralCurrent
from .bracket import (bracket, bracket_inverse_points,
                      brackets_of_generators, pairing_matrix)
from .cech import (FillResult, Nerve, augment, augment_nerve, cech_boundary,
                   conforming, cone_fill_chain, cone_fill_current,
                   fill_zero_chain, solve_phi, split, zigzag_cancel,
                   zigzag_descend, zigzag_fill)
from .spaces import (builtin_covers, builtin_spaces, load_cover, load_space,
                     pairing_forms, save_cover, save_space)

__version__ = "0.1.0"

__all__ = [
    "BallCover", "ChainComplexZ", "FillResult", "GeometryError",
    "HomologyGroup", "InputError", "LipschitzChain", "LocalityError",
    "MetricComplex", "MhomError", "Nerve", "PLMap", "PolyhedralCurrent",
    "RadicalSum", "RelativePair", "WeightedSimplices", "augment",
    "augment_nerve", "bracket", "bracket_inverse_points",
    "brackets_of_generators", "builtin_covers",
    "builtin_spaces", "cech_boundary", "chain_from_vector", "chain_to_vector",
    "cone_fill_chain", "cone_fill_current", "conforming",
    "connecting_homomorphism", "dist2", "fill_zero_chain", "homology_data",
    "load_cover", "load_space", "mcshane_extension", "pairing_forms",
    "pairing_matrix", "save_cover", "save_space", "solve_phi", "split",
    "sqrt_lower", "sqrt_upper", "zigzag_cancel", "zigzag_descend",
    "zigzag_fill",
]

"""Per-layer tracing by wrapping mhom's public functions from outside.

Each target is wrapped once and the wrapper is bound in place of the
original under every name that refers to it: in the defining module, in
each mhom module that imported it, and on its class for methods.  A
wrapper records calls, inclusive time, and self time (its duration minus
the time spent in other wrapped calls beneath it).  Some targets only
count calls made while another target is running.  A target that a later change removes
or renames is listed as absent and reads zero; it never stops the run.
"""

import sys
import time

# (layer, module, attribute): several attributes may share one layer.
SPANS = (
    ("intlinalg.snf", "mhom.intlinalg", "smith_normal_form"),
    ("intlinalg.invert_unimodular", "mhom.intlinalg", "invert_unimodular"),
    ("chaincomplex.homology_data", "mhom.chaincomplex", "homology_data"),
    ("chaincomplex.class_vector", "mhom.chaincomplex",
     "HomologyData.class_vector"),
    ("geometry.point_in_simplex", "mhom.geometry", "point_in_simplex"),
    ("geometry.barycentric_subdivide", "mhom.geometry",
     "barycentric_subdivide"),
    ("complexes.sample_vertices", "mhom.complexes",
     "MetricComplex.sample_vertices"),
    ("complexes.find_containing_simplex", "mhom.complexes",
     "MetricComplex.find_containing_simplex"),
    ("complexes.ball_contains", "mhom.complexes", "BallCover.contains"),
    ("chains.chain_init", "mhom.chains", "LipschitzChain.__init__"),
    ("currents.reduce", "mhom.currents", "PolyhedralCurrent.reduce"),
    ("bracket.bracket", "mhom.bracket", "bracket"),
    ("bracket.inverse_points", "mhom.bracket", "bracket_inverse_points"),
    ("cech.nerve", "mhom.cech", "Nerve.__init__"),
    ("cech.split", "mhom.chains", "LipschitzChain.split_by_cover"),
    ("cech.split", "mhom.cech", "split_current_by_cover"),
    ("cech.solve_phi", "mhom.cech", "solve_phi_single"),
    ("cech.solve_phi", "mhom.cech", "solve_phi_pairs"),
    ("cech.fill_zero_chain", "mhom.cech", "fill_zero_chain"),
    ("cech.cone_fill", "mhom.cech", "cone_fill_chain"),
    ("cech.cone_fill", "mhom.cech", "cone_fill_current"),
    ("cech.zigzag_fill", "mhom.cech", "zigzag_fill"),
    ("cech.zigzag_cancel", "mhom.cech", "zigzag_cancel"),
    ("spaces.load", "mhom.spaces", "load_space"),
    ("spaces.load", "mhom.spaces", "load_cover"),
)

# (counter, module, attribute, layer that must be running): call counts
# only, no span, so they do not change any self time.
COUNTS = (
    ("cech.solve_phi_subdivisions", "mhom.chains", "LipschitzChain.subdivide",
     "cech.solve_phi"),
    ("cech.solve_phi_subdivisions", "mhom.currents",
     "PolyhedralCurrent.subdivide", "cech.solve_phi"),
    ("cech.fill_attempts", "mhom.complexes", "MetricComplex.sample_vertices",
     "cech.fill_zero_chain"),
)


def _matrix_cells(args, kwargs, result):
    m = args[0] if args else kwargs.get("M")
    return m.nrows * m.ncols


def _pieces_in(args, kwargs, result):
    return len(args[0].pieces)


def _pieces_out(args, kwargs, result):
    return len(result.pieces)


# layer -> [(counter, fn(args, kwargs, result) -> amount)]
TALLIES = {
    "intlinalg.snf": [("intlinalg.snf_cells", _matrix_cells)],
    "currents.reduce": [("currents.reduce_pieces_in", _pieces_in),
                        ("currents.reduce_pieces_out", _pieces_out)],
}


def _resolve(module, attribute):
    """(owner, name, original) for module.attribute, or None if absent."""
    mod = sys.modules.get(module)
    if mod is None:
        return None
    owner = mod
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


class Tracer:
    """Calls, self time and counters per layer, kept in memory."""

    def __init__(self):
        self.totals = {}  # layer or counter -> number
        self.active = {}  # layer -> frames currently running
        self._child = []  # wrapped time beneath each running frame
        self.absent = []
        self._restore = []

    def add(self, key, amount):
        self.totals[key] = self.totals.get(key, 0) + amount

    def snapshot(self):
        return dict(self.totals)

    def _span(self, layer, fn):
        clock = time.perf_counter
        child = self._child
        active = self.active
        tallies = TALLIES.get(layer, ())
        calls, self_s, incl_s = (layer + "_calls", layer + "_s",
                                 layer + "_incl_s")

        def wrapper(*args, **kwargs):
            active[layer] = active.get(layer, 0) + 1
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                beneath = child.pop()
                active[layer] -= 1
                if child:
                    child[-1] += dt
                self.add(calls, 1)
                self.add(self_s, dt - beneath)
                self.add(incl_s, dt)
            for key, amount in tallies:
                self.add(key, amount(args, kwargs, result))
            return result
        return wrapper

    def _count(self, counter, inside, fn):
        active = self.active

        def wrapper(*args, **kwargs):
            if active.get(inside):
                self.add(counter, 1)
            return fn(*args, **kwargs)
        return wrapper

    def _install(self, label, module, attribute, make):
        found = _resolve(module, attribute)
        if found is None:
            self.absent.append(f"{label}: {module}.{attribute}")
            return
        owner, name, original = found
        wrapped = make(original)
        if isinstance(owner, type):
            self._bind(owner, name, original, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mhom" or mod_name.startswith("mhom."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapped)

    def _bind(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._restore.append((owner, name, original))

    def install(self):
        """Wrap every target; returns the list of absent ones."""
        for counter, module, attribute, inside in COUNTS:
            self._install(counter, module, attribute,
                          lambda fn, c=counter, i=inside: self._count(c, i, fn))
        for layer, module, attribute in SPANS:
            self._install(layer, module, attribute,
                          lambda fn, l=layer: self._span(l, fn))
        return self.absent

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

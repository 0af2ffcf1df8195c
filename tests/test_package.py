"""Package-level properties: bundled data, import cost and public names."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import mhom
from mhom import spaces

from test_golden import REPORTS

DATA = Path(__file__).parent / "data"


def _dump(payload):
    return json.dumps(payload, sort_keys=True)


def test_space_loads_by_path_and_round_trips(tmp_path):
    from_file = spaces.load_space(str(DATA / "s1.json"))
    built = spaces.load_space("s1")
    assert _dump(spaces.space_to_json(from_file)) \
        == _dump(spaces.space_to_json(built))
    out = tmp_path / "s1.json"
    spaces.save_space(built, out)
    assert out.read_text() == (DATA / "s1.json").read_text()


def test_cover_loads_by_path_and_round_trips(tmp_path):
    s1 = spaces.load_space("s1")
    built = spaces.load_cover(s1, "s1_arcs2")
    out = tmp_path / "arcs2.json"
    spaces.save_cover(built, out)
    again = spaces.load_cover(s1, str(out))
    assert _dump(spaces.cover_to_json(again)) \
        == _dump(spaces.cover_to_json(built))


def test_import_skips_heavy_modules():
    code = ("import sys, mhom; "
            "print(sorted(m for m in ('sympy', 'numpy', 'scipy') "
            "if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    # exact masses need no sympy: a current homology report runs with it
    # blocked and prints its pinned digest
    command = "homology --space torus --theory current"
    code = ("import sys; sys.modules['sympy'] = None; from mhom import cli; "
            f"sys.exit(cli.main({command.split()!r}))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env=dict(os.environ))
    assert res.returncode == 0, res.stderr.decode()
    assert hashlib.sha256(res.stdout).hexdigest() == REPORTS[command]


def test_public_names_resolve_once_in_order():
    names = mhom.__all__
    assert [n for n in names if not hasattr(mhom, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def _mhom_paths(tree):
    """Dotted attribute paths read off mhom, or off a name bound to
    something.mhom, in a parsed module: m.PolyhedralCurrent.from_tuples
    gives ("PolyhedralCurrent", "from_tuples")."""
    aliases = {"mhom"} | {
        t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute) and node.value.attr == "mhom"
        for t in node.targets if isinstance(t, ast.Name)}
    paths = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            continue
        chain = [node.id] + chain[::-1]
        roots = [i for i, name in enumerate(chain) if name in aliases]
        if roots and roots[-1] + 1 < len(chain):
            paths.add(tuple(chain[roots[-1] + 1:]))
    return paths


def test_benchmark_entry_points_resolve():
    # the benchmark worker drives mhom through these names; one that a
    # change removes would stop every benchmark run before it starts
    worker = Path(__file__).parents[1] / "perfbench" / "worker.py"
    paths = _mhom_paths(ast.parse(worker.read_text()))
    firsts = {path[0] for path in paths}
    assert {"load_space", "load_cover", "pairing_forms", "pairing_matrix",
            "zigzag_fill", "zigzag_cancel", "homology_data"} <= firsts

    def resolves(path):
        obj = mhom
        for name in path:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True

    assert sorted(p for p in paths if not resolves(p)) == []


def _references(tree):
    """Names a parsed module reads, as names or attributes, each counted
    only outside its own def or class; string literals, such as the
    entries of __all__, are not references."""
    seen = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in inside:
            seen.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return seen


# public names that no code of the package runs, each kept for a reason
UNUSED_PUBLIC = {
    "zigzag_descend",  # ROADMAP item 9 wires it into a nerve-class check
    "save_space",  # pinned by test_space_loads_by_path_and_round_trips
    "save_cover",  # pinned by test_cover_loads_by_path_and_round_trips
}


def test_public_names_are_used():
    # a public name that only tests run belongs in tests/, not in mhom
    root = Path(__file__).parents[1]
    files = sorted((root / "src" / "mhom").glob("*.py"))
    files.append(root / "perfbench" / "worker.py")
    used = set()
    for path in files:
        used |= _references(ast.parse(path.read_text()))
    unused = set(mhom.__all__) - used
    assert sorted(unused - UNUSED_PUBLIC) == []
    assert UNUSED_PUBLIC <= unused


def test_no_module_reads_the_environment():
    # every input comes in through the command line: a report depends on
    # its arguments alone
    root = Path(__file__).parents[1] / "src" / "mhom"
    readers = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in (
                    "environ", "getenv"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []

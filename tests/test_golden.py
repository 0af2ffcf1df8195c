"""Byte-for-byte pins of CLI reports and of the bundled spaces and covers.

Each digest is the sha256 of a fixed command's stdout, or of the sorted
JSON serialization of a bundled space or cover.  A refactor that keeps the
certificates and the reports the same keeps every digest; the digests do
not depend on PYTHONHASHSEED.  Commands run in the tests directory, so a
space file named by a relative path, and the report that prints it, are
the same wherever pytest starts.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mhom
from mhom import cli, spaces

TESTS = Path(__file__).parent

REPORTS = {
    "compare --space s1 --budget 3":
        "d9ced3089ee08b0a2c2f9f5b35a56aa5a5cadb775f6fc0175a33e72a74ba0ef2",
    "compare --space s1 --budget 40":
        "6ae2cb8b4704b3759441f086fe6165fedfdc9b82b2445c098e240ef105d82632",
    "compare --space torus --budget 1":
        "556eeaa7e99168008fded5fa469c96ba537af193ce85e07b5c81b9dbc51a1bf1",
    "compare --space annulus_pair --pair outer --degree 0 --budget 2":
        "188e57abf7f44024d0e3e429369351b305d69bb6a7bcba5087585f6512e5d00f",
    "verify cosheaf --space s1 --cover arcs2 --budget 4":
        "5d9956aeb90ac2a8320101e346d7034679a0889accd9ea8894e8a1688ccfeebe",
    "verify cosheaf --space s1 --budget 4":
        "afda493f9df84fb8f0f0e5e56d23e3c1161c40b1fe442a737ba08f6d970c2602",
    "verify zigzag --space s1 --budget 3":
        "906b59d325f42faecc3806c7e6b0635ebdd8a22978c3fa1ac9675ec7b508cb86",
    "verify stokes --budget 6":
        "54c5bc6b96d8070faa08b5acfd3d5f3ce1ccec71a70f73fac4e31268662ed5d3",
    "verify prism --budget 6":
        "0de47ac5356324db7d447ed0f123c3e26626256f306821c0baaa0b311fb0d371",
    "verify mass --budget 4":
        "c5cb555c4549751d1c58c1e45290d2c1bf5834cd9f004f94ae8e6eaad7c4d209",
    "verify green":
        "dca3b925192a966d3ce742bd6411b7a36b50e9d44714e2930cb9b3b1f80a8b04",
    "verify degree0 --budget 8":
        "9923158070b6b3d8163159fdc0ac9791731168c0769372e874dcb1d28685a38b",
    "verify space --space s1":
        "134f6cac95bc2d09f2f97dedaf5bdd922494daed996694b0604c38afb6e72d8a",
    "verify space --space annulus_pair":
        "dea3a8fe5911e242e293e62837f9ba1403e3074856e3baed89d345ec8944aec0",
    "verify space --space torus":
        "3c9889c010e4e179be73c5d122d54d39c5acf610645e9f5c33039136e0140779",
    "homology --space data/s1.json --theory current":
        "9a6914cea43a8f47a8e782ee2206ffb7e3925780a813f1ab3ffcb05f1bb990f0",
    "homology --space klein --theory current":
        "6bfd9730a515f46c42b5490973f93e97b33fbaf8d2b5711746952215f88e177f",
    "homology --space torus --theory current":
        "55b27787fb4a83ae195f160ef596728fade348712ce564fc62e511716e744457",
    "verify mcshane --budget 4":
        "9b0ee1cdd79c24c1467693170df6f27c7dd73f18536a9282aa12df15f81473d2",
    "verify mcshane --space s1 --budget 4":
        "00beb099c9f40cc273b41a6ab33e951c071d06282ee6189eca5e14f6ba798826",
    "verify snf --budget 6":
        "f984d61eaa19601c417657d3c9fa45da9f435d43ddf2181def5f03e582afbefd",
    "verify zigzag --space torus --budget 1":
        "5d3b9456857d64bb667a22dab89a6ca43e2be81ba8ead78e343d65498612db0d",
}

SPACES = {
    "annulus_pair":
        "bd1d25c8284854fd17913cbf51b1fe352bce398a8255173a9c61ad3b08808c47",
    "disc_pair":
        "25f4ce1d83b196e1c23fdeed64c8c310703418130b4327ec9512dd8a1c750ee9",
    "klein":
        "7b14f8ab0de931d334392eeb1450f887ba7ebfe7d92ce8cedb17310a7adea9c7",
    "rp2":
        "71870c38b67ddb31303f320aca38507288c9aeb15cf0b29459a8e4a82698a46b",
    "s1":
        "f4daf67ea13e2f863f36c4a5a3fd9cc04f786596087342eb45a78b6403caeb66",
    "s2":
        "500e1bbc400959025266f3fc2fe93155116fe9c709be210887c2a81d38b5f36f",
    "torus":
        "0e70cd0b36bfe3a3c6bd2068916f40c05993b5863d136f2d431b1b0685e59ffc",
    "wedge":
        "ddc498261ba2ebc27ba80ce2734e4c1ebe06f0625795c131dcbcb6b6d6cceb4c",
}

COVERS = {
    ("s1", "s1_arcs2"):
        "f3491e635742868af806e73df1e217a3d833548ac71c69cb15c1b1042bd98358",
    ("s1", "s1_arcs3"):
        "3fbfdfc3ab2819fba1c9fd4585c01fbab2090641b7d50f8d22c303607b8bad2c",
    ("torus", "torus_balls"):
        "ad0eb573c89b4ab9310f57ce1a2e48fc2da408f1c73661a45c8115b4f3cfe030",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(payload) -> str:
    return _sha(json.dumps(payload, sort_keys=True).encode())


@pytest.mark.parametrize("command", sorted(REPORTS))
def test_report_digest(command):
    src = str(Path(mhom.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-m", "mhom.cli"] + command.split(),
                         capture_output=True, cwd=TESTS,
                         env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr.decode()
    assert _sha(res.stdout) == REPORTS[command]


def test_every_suite_is_pinned():
    pinned = {c.split()[1] for c in REPORTS if c.startswith("verify ")}
    assert set(cli.SUITES) <= pinned


def test_bundled_names_are_pinned():
    assert spaces.builtin_spaces() == sorted(SPACES)
    assert spaces.builtin_covers() == sorted(name for _, name in COVERS)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_space_digest(name):
    assert _json_sha(spaces.space_to_json(spaces.load_space(name))) \
        == SPACES[name]


@pytest.mark.parametrize("space,name", sorted(COVERS))
def test_cover_digest(space, name):
    cover = spaces.load_cover(spaces.load_space(space), name)
    assert _json_sha(spaces.cover_to_json(cover)) == COVERS[(space, name)]

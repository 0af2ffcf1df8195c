import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mhom import cech, chaincomplex, cli, spaces
from mhom.chaincomplex import HomologyGroup
from mhom.complexes import BallCover
from mhom.errors import GeometryError
from mhom.rational import point

CMD = [sys.executable, "-m", "mhom.cli"]
S1_FILE = Path(__file__).parent / "data" / "s1.json"
WIDE_COVER = Path(__file__).parent / "data" / "s1_wide_balls.json"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=env)


def test_homology_outputs_groups():
    res = run_cli("homology", "--space", "rp2")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["groups"] == {"H0": "Z", "H1": "Z/2", "H2": "0"}


def test_theories_agree_on_klein():
    outs = []
    for theory in ("singular", "lipschitz"):
        res = run_cli("homology", "--space", "klein", "--theory", theory)
        assert res.returncode == 0
        outs.append(json.loads(res.stdout)["groups"])
    assert outs[0] == outs[1] == {"H0": "Z", "H1": "Z + Z/2", "H2": "0"}


def test_relative_homology():
    res = run_cli("homology", "--space", "disc_pair", "--pair", "boundary")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["groups"]["H2"] == "Z"


def test_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run_cli("verify", "snf", "--budget", "5", "--out", str(a))
    r2 = run_cli("verify", "snf", "--budget", "5", "--out", str(b))
    assert r1.returncode == r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert r1.stdout == r2.stdout


def test_budget_zero_is_vacuous():
    res = run_cli("verify", "stokes", "--budget", "0")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["checks"] == []
    assert payload["status"] == "ok"


def test_negative_counts_exit_two(capsys):
    for argv in (["verify", "zigzag", "--space", "s1", "--budget", "-3"],
                 ["verify", "space", "--space", "torus", "--depth", "-2"],
                 ["compare", "--space", "s1", "--budget", "-1"],
                 ["compare", "--space", "s1", "--budget", "1", "--depth",
                  "-1"]):
        assert cli.main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert "must be nonnegative" in out.err


def test_unknown_names_exit_two():
    assert run_cli("homology", "--space", "nosuch").returncode == 2
    assert run_cli("verify", "nosuch").returncode == 2
    assert run_cli("verify", "zigzag", "--space", "s1",
                   "--cover", "nosuch").returncode == 2
    assert run_cli("homology", "--space", "s1",
                   "--degree", "7").returncode == 2


def input_error(capsys, argv, path):
    """Exit code of cli.main, having checked that stderr reports an input
    error that names the file at path."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(path) in err, err
    return code


def test_space_file_without_key_exits_two(tmp_path, capsys):
    data = json.loads(S1_FILE.read_text())
    del data["ambient_dim"]
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    argv = ["homology", "--space", str(path)]
    assert input_error(capsys, argv, path) == 2


def test_space_file_not_json_exits_two(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(S1_FILE.read_text()[:-3])
    argv = ["homology", "--space", str(path)]
    assert input_error(capsys, argv, path) == 2


@pytest.mark.parametrize("simplices", [[[0], []], []])
def test_space_file_with_an_empty_simplex_or_none_exits_two(tmp_path, capsys,
                                                           simplices):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"ambient_dim": 1, "vertices": [[0]],
                                "simplices": simplices}))
    argv = ["homology", "--space", str(path)]
    assert input_error(capsys, argv, path) == 2


S1_EDGE = {"ambient_dim": 2, "vertices": [[[0, 1], [0, 1]], [[1, 1], [0, 1]]],
           "simplices": [[0], [1], [0, 1]]}


@pytest.mark.parametrize("key, value", [
    ("vertices", [["a"], [1]]),
    ("simplices", [[0], [1], ["x", 1]]),
    ("ambient_dim", "two"),
    ("vertices", 5),
    ("simplices", None),
    ("vertices", [[[0, 1], [0, 1]], [[1, 0], [0, 1]]]),
    ("vertices", [[[0, 1, 7], [0, 1]], [[1, 1], [0, 1]]]),
    ("subcomplexes", [0]),
], ids=["text-vertex", "text-index", "text-dim", "vertices-number",
        "simplices-null", "zero-denominator", "number-triple",
        "subcomplexes-list"])
def test_malformed_space_file_exits_two(tmp_path, capsys, key, value):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({**S1_EDGE, key: value}))
    argv = ["homology", "--space", str(path)]
    assert input_error(capsys, argv, path) == 2


@pytest.mark.parametrize("balls", [
    [{"center": [[1, 1], [0, 1], [0, 1]], "radius": "big"}],
    3,
    [{"center": [[1, 1], [0, 1], [0, 1]], "radius": [1]}],
    # one coordinate where s1 has three
    [{"center": [[1, 1]], "radius": [3, 2]}],
], ids=["text-radius", "balls-number", "short-radius-pair", "short-center"])
def test_malformed_cover_file_exits_two(tmp_path, capsys, balls):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"balls": balls}))
    argv = ["verify", "space", "--space", "s1", "--cover", str(path)]
    assert input_error(capsys, argv, path) == 2


def test_space_metric_check_fails_on_a_degenerate_simplex(monkeypatch,
                                                          capsys):
    # vertex 4, (3, 1), moved onto the line through vertices 0 and 1
    complex_ = spaces.load_space("annulus_pair")
    complex_.vertices[4] = point((3, 0))
    monkeypatch.setattr(spaces, "load_space", lambda name: complex_)
    assert cli.main(["verify", "space", "--space", "annulus_pair"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[0] == {"check": "metric", "status": "fail",
                         "detail": "simplex (0, 1, 4) is geometrically "
                                   "degenerate"}
    assert [c["status"] for c in checks[1:]] == ["pass", "pass"]


@pytest.mark.parametrize("simplex", [99, -1])
def test_cover_center_outside_the_simplices_exits_two(tmp_path, capsys,
                                                      simplex):
    # the barycentric coordinates fit the last simplex of s1, an edge
    ball = {"center_simplex": simplex, "barycentric": [[1, 2], [1, 2]],
            "radius": [1, 2]}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"balls": [ball]}))
    argv = ["verify", "space", "--space", "s1", "--cover", str(path)]
    assert input_error(capsys, argv, path) == 2


def test_failing_coverage_exits_one(tmp_path):
    bad = {"balls": [{"center_simplex": 0, "barycentric": [[1, 1]],
                      "radius": [1, 100]}]}
    path = tmp_path / "bad_cover.json"
    path.write_text(json.dumps(bad))
    res = run_cli("verify", "space", "--space", "s1", "--cover", str(path))
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    checks = {c["check"]: c["status"] for c in payload["checks"]}
    assert checks["coverage"] == "fail"


def two_ball_cover(tmp_path):
    """s1 cover file: ball 0 meets the edges at vertex 0 up to t = 0.42,
    ball 1 covers the rest from t = 0.31.  They overlap on arcs free of
    depth-2 samples (multiples of 1/4), so the pair is neither witnessed
    nor certified empty."""
    cover = {"balls": [{"center": [[1, 1], [0, 1], [0, 1]], "radius": [3, 5]},
                       {"center": [[-1, 2], [1, 2], [1, 2]],
                        "radius": [13, 10]}]}
    path = tmp_path / "two_balls.json"
    path.write_text(json.dumps(cover))
    return path


def test_nerve_check_fails_on_unwitnessed_overlap(tmp_path):
    path = two_ball_cover(tmp_path)
    res = run_cli("verify", "space", "--space", "s1", "--cover", str(path))
    assert res.returncode == 1
    checks = {c["check"]: c for c in json.loads(res.stdout)["checks"]}
    assert checks["coverage"]["status"] == "pass"
    assert checks["nerve"]["status"] == "fail"
    assert checks["nerve"]["uncertified"] == [[0, 1]]


def test_zigzag_failures_land_in_the_report(tmp_path):
    # without the overlap in the nerve no fill certificate can be made;
    # each cycle fails on its own and the report is still printed
    path = two_ball_cover(tmp_path)
    res = run_cli("verify", "zigzag", "--space", "s1", "--cover", str(path),
                  "--budget", "2")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["status"] == "fail"
    assert payload["failed"] == 2
    assert [c["check"] for c in payload["checks"]] == ["zigzag[0]",
                                                      "zigzag[1]"]
    for check in payload["checks"]:
        assert check["status"] == "fail"
        assert check["detail"] == ("(0,) has a nonzero residual but no "
                                   "overlap one arity up (fill)")


def test_torus_nerve_is_certified():
    res = run_cli("verify", "space", "--space", "torus")
    assert res.returncode == 0
    checks = {c["check"]: c for c in json.loads(res.stdout)["checks"]}
    assert checks["nerve"]["status"] == "pass"
    assert checks["nerve"]["detail"] == \
        "54 pairs, 36 triples, 780 certified empty"


def test_homology_check_tests_euler_characteristic(monkeypatch):
    C, _ = spaces.load_space("torus").chain_complex()
    assert cli._homology_check("homology", C)["status"] == "pass"
    real = cli.homology_data

    def lose_a_class(C, k):
        data = real(C, k)
        if k == 1:
            data.group = HomologyGroup(1)
        return data

    monkeypatch.setattr(cli, "homology_data", lose_a_class)
    check = cli._homology_check("homology", C)
    assert check == {"check": "homology", "status": "fail",
                     "detail": "Z, Z, Z"}


def test_depth_defaults_to_three_whatever_the_environment():
    res = run_cli("compare", "--space", "s1", "--budget", "1",
                  env_extra={"MHOM_DEPTH": "2"})
    assert res.returncode == 0
    assert json.loads(res.stdout)["depth"] == 3
    res = run_cli("compare", "--space", "s1", "--budget", "1", "--depth", "4",
                  env_extra={"MHOM_DEPTH": "2"})
    assert json.loads(res.stdout)["depth"] == 4


def _s2_cover_file(tmp_path):
    """A one-ball cover of s2 saved to a file: s2 has no bundled cover."""
    s2 = spaces.load_space("s2")
    path = tmp_path / "s2_ball.json"
    spaces.save_cover(BallCover(s2, [{"center_simplex": 0, "barycentric": [1],
                                      "radius": 4}]), path)
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (["compare"], "no bundled pairing forms for 's2'"),
    (["verify", "zigzag"],
     "compare in degree 1 is bundled for s1 and torus; got 's2'"),
])
def test_uncompared_space_exits_two(tmp_path, capsys, argv, message):
    """A space outside spaces.COMPARED is refused before any report is
    written, even with a cover of its own."""
    argv = argv + ["--space", "s2", "--cover", _s2_cover_file(tmp_path),
                   "--budget", "1"]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_compare_circle_certificates():
    res = run_cli("compare", "--space", "s1", "--budget", "2")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["pairing"]["unimodular"]
    assert payload["pairing"]["nonsingular"]
    assert all(r["identified"] for r in payload["iota"])
    assert len(payload["runs"]) == 2


def test_compare_degree_zero_empty_draw(capsys):
    # seed 13 draws the same point twice in both pairs, so no points remain
    assert spaces.random_point_cycle(spaces.load_space("s1"),
                                     random.Random(13)) == []
    argv = ["compare", "--space", "s1", "--degree", "0", "--seed", "13",
            "--budget", "1"]
    assert cli.main(argv) == 0
    run, = json.loads(capsys.readouterr().out)["runs"]
    assert run["cycle_points"] == 0 and run["filling_terms"] == 0


def test_compare_pair_exactness():
    res = run_cli("compare", "--space", "annulus_pair", "--pair", "outer",
                  "--degree", "0", "--budget", "1")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["les"]
    assert all(c["exact"] for c in payload["les"])


def test_pair_checks_solve_each_window_once(count_calls):
    """The exact-sequence checks of disc_pair read 8 distinct (complex,
    degree) windows; degree k reuses degree k - 1's solves."""
    calls = count_calls(chaincomplex, "homology_data")
    checks = cli._pair_les_checks(spaces.load_space("disc_pair"), "boundary")
    assert all(c["exact"] for c in checks)
    assert len(calls) == 8


@pytest.mark.parametrize("argv, solves", [
    (["compare", "--space", "torus", "--budget", "0"], 1),
    (["homology", "--space", "torus", "--theory", "current"], 3),
    (["homology", "--space", "torus", "--theory", "current",
      "--degree", "2"], 2),
])
def test_commands_solve_each_window_once(argv, solves, count_calls, capsys):
    """The pairing reads the degree-one solve that the iota check or the
    group listing made, and solves H1 itself only when --degree skips it."""
    calls = count_calls(chaincomplex, "homology_data")
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    assert len(calls) == solves


ZIGZAG_RUNS = [["compare", "--space", "s1", "--budget", "2"],
               ["verify", "zigzag", "--space", "s1", "--budget", "2"]]


@pytest.mark.parametrize("argv", ZIGZAG_RUNS, ids=["compare", "verify"])
def test_cone_out_of_a_bad_ball_is_an_input_error(argv, capsys):
    """The two arcs of s1_arcs2 overlap in two pieces, and ball 0 meets
    the edges (0, 2) and (1, 2) without holding its center in them, so its
    cone leaves the circle: the cover is rejected, exit 2."""
    assert cli.main(argv + ["--cover", "arcs2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: cone to the center of ball 0 failed")
    assert "top simplices (0, 2), (1, 2)," in err


@pytest.mark.parametrize("argv", ZIGZAG_RUNS, ids=["compare", "verify"])
def test_cone_failure_on_a_good_cover_exits_one(argv, monkeypatch, capsys):
    """On s1_arcs3 no ball meets a top simplex that misses its center, so
    a refuted cone certificate stays a failed verification."""
    def refuted(x, apex, complex_, context):
        raise GeometryError(f"cone certificate failed {context}: refuted")

    monkeypatch.setattr(cech, "_certify_cone", refuted)
    assert cli.main(argv + ["--cover", "arcs3"]) == 1
    out, err = capsys.readouterr()
    assert "cone certificate failed" in out + err


@pytest.mark.parametrize("extra", [
    ("--cover", "arcs2", "--budget", "2"),
    # seed 8 draws a zero chain, so its split has no parts
    ("--budget", "20", "--seed", "8"),
], ids=["arcs2", "seed8"])
def test_verify_cosheaf_both_theories(extra):
    res = run_cli("verify", "cosheaf", "--space", "s1", *extra)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    kinds = {c["check"].split("[")[0] for c in payload["checks"]}
    assert {"eps-chain", "ker-eps"} <= kinds
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_cosheaf_with_first_and_last_balls_apart(monkeypatch, capsys):
    """A cover of s1 by radius-3/2 balls at its vertices holds the whole
    circle in each ball, so the first-ball and last-ball bucketings of
    cech.split differ in every draw of the suite; on the bundled covers
    they agreed in every draw tried.  The suite passes, and its report is
    pinned."""
    complex_ = spaces.load_space("s1")
    cover = spaces.load_cover(complex_, str(WIDE_COVER))
    rng = random.Random(0)
    for i in range(6):
        ch = cli._random_chain(complex_, i % 2, rng)
        first = cech.split(ch, cover)
        last = cech.split(ch, cover, range(len(cover) - 1, -1, -1))
        assert list(first) == [(0,)] and list(last) == [(2,)]
        assert first[(0,)].terms == last[(2,)].terms
    # the report prints the cover path, so it is given as the golden
    # reports give theirs: relative to the tests directory
    monkeypatch.chdir(WIDE_COVER.parent.parent)
    assert cli.main(["verify", "cosheaf", "--space", "s1", "--cover",
                     f"data/{WIDE_COVER.name}", "--budget", "6"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "3a2acf9ea552f338f72f57e12cf1090426ebdcfda826f4dacecf6423e67d4cf7")

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import mapforge
from mapforge import cli
from mapforge.bijections import sample_quadrangulation_uniform
from mapforge.cli import main, diffpoly_text
from mapforge.geodesic import integral_of_motion, solve_Rn_series
from mapforge.series_core import TruncSeries, rat_parse, rat_str
from mapforge.string_eq import kdv_residue


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_planar_example(capsys):
    doc = run_json(capsys, "planar", "--g4", "1", "--order", "3",
                   "--emit", "f")
    assert doc["results"]["f"] == ["0", "1/2", "9/8", "9/2"]


def test_geodesic_example(capsys):
    doc = run_json(capsys, "geodesic", "--g4", "1", "--n", "0",
                   "--order", "3", "--emit", "Rn")
    assert doc["results"]["Rn"] == ["1", "2", "9", "54"]


def test_branching_exact_reference_path(capsys):
    doc = run_json(capsys, "branching", "--p", "0.3", "--n", "0",
                   "--samples", "0")
    r = doc["results"]
    assert r["exact"] == "6/7"
    assert r["estimate"] is None and r["stderr"] is None


def test_rationals_round_trip(capsys):
    doc = run_json(capsys, "planar", "--order", "6", "--emit", "f,R,Gamma2")
    for series in doc["results"].values():
        for s in series:
            assert isinstance(rat_parse(s), F)


def test_oracle_genus_split(capsys):
    doc = run_json(capsys, "oracle", "--weights", "g4=1", "--order", "2",
                   "--genus-split")
    assert doc["results"]["1"] == {"0": "1/2", "1": "1/4"}
    assert doc["results"]["2"] == {"0": "9/8", "1": "15/8"}


# (g-order, genus, coefficient) of F for g3 = 1, g4 = 1/2 to order 6
ORACLE_G3_G4 = [
    (1, 0, "1/4"), (1, 1, "1/8"),
    (2, 0, "91/96"), (2, 1, "61/96"),
    (3, 0, "57/16"), (3, 1, "85/16"), (3, 2, "15/32"),
    (4, 0, "6775/384"), (4, 1, "36397/768"), (4, 2, "3767/256"),
    (5, 0, "16249/160"), (5, 1, "140213/320"), (5, 2, "102303/320"),
    (5, 3, "945/64"),
    (6, 0, "993913/1536"), (6, 1, "9582305/2304"), (6, 2, "8777639/1536"),
    (6, 3, "284727/256"),
]


def test_oracle_outputs_are_pinned(capsys):
    argv = ("oracle", "--weights", "g3=1", "g4=1/2", "--order", "6")
    want = {}
    for k, h, q in ORACLE_G3_G4:
        want.setdefault(str(k), {})["N^%d" % (2 - 2 * h)] = q
    assert run_json(capsys, *argv)["results"] == want
    for flags, column, key in (((), "N-exponent", lambda h: 2 - 2 * h),
                               (("--genus-split",), "genus", lambda h: h)):
        code, out = run(capsys, *argv, *flags, "--format", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows == ["order,%s,coefficient" % column] + [
            "%d,%d,%s" % (k, key(h), q) for k, h, q in ORACLE_G3_G4]


def test_genus_csv_rows(capsys):
    code, out = run(capsys, "genus", "--g4", "1", "--order", "3",
                    "--max-genus", "1", "--format", "csv")
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "order,genus,coefficient"
    assert "3,1,33/2" in rows
    assert not any(r.split(",")[1] == "2" for r in rows[1:])


def test_stringeq_rendering(capsys):
    doc = run_json(capsys, "stringeq", "--m", "1", "--emit", "residues")
    assert doc["results"]["residues"]["R2"] == "3/8*u^2 - 1/8*u''"
    assert diffpoly_text(kdv_residue(0)) == "-1/2*u"


def test_stringeq_commutator(capsys):
    doc = run_json(capsys, "stringeq", "--m", "1", "--emit", "commutator")
    assert doc["results"]["commutator"] == diffpoly_text(
        2 * kdv_residue(1).derivative())


def test_byte_identical_reruns(capsys):
    a = run(capsys, "sample", "--faces", "8", "--samples", "5", "--seed", "3")
    b = run(capsys, "sample", "--faces", "8", "--samples", "5", "--seed", "3")
    assert a == b
    # worker-count hint must not change the payload rows
    c = run(capsys, "sample", "--faces", "8", "--samples", "5", "--seed", "3",
            "--threads", "4")
    rows = lambda out: [l for l in out[1].splitlines()
                        if not l.startswith("#")]
    assert rows(a) == rows(c)


def test_dump_maps(tmp_path, capsys):
    path = tmp_path / "maps.json"
    code, _ = run(capsys, "sample", "--faces", "4", "--samples", "3",
                  "--seed", "1", "--dump-maps", str(path))
    assert code == 0
    maps = json.loads(path.read_text())
    assert len(maps) == 3
    for m in maps:
        a = m["alpha"]
        assert all(a[a[d]] == d and a[d] != d for d in range(len(a)))
        assert sorted(m["sigma"]) == list(range(len(a)))


def test_dump_maps_streams_the_json_of_the_whole_list(tmp_path, capsys):
    # the maps are written one at a time, and the file is byte for byte
    # json.dumps of the list of every sampled map
    path = tmp_path / "maps.json"
    code, _ = run(capsys, "sample", "--faces", "6", "--samples", "4",
                  "--seed", "9", "--dump-maps", str(path))
    assert code == 0
    maps = [sample_quadrangulation_uniform(6, 9, i) for i in range(4)]
    want = json.dumps([{"sigma": list(m.sigma), "alpha": list(m.alpha),
                        "root": m.root} for m in maps], sort_keys=True)
    assert path.read_bytes() == (want + "\n").encode()


def test_local_finite_area_exact(capsys):
    code, out = run(capsys, "local", "--emit", "profile", "--nmax", "2",
                    "--finite-area", "1", "--format", "csv")
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[1:] == ["profile,0,1", "profile,1,4/3", "profile,2,2/3"]


def test_local_neighbor_values(capsys):
    doc = run_json(capsys, "local", "--emit", "P,Pi", "--nmax", "2",
                   "--format", "json")
    assert doc["results"]["P"] == {"1": "3/8", "2": "27/128"}
    assert float(doc["results"]["Pi"]["1"]) == pytest.approx(
        7 ** 0.5 - 2, abs=1e-12)


def test_branching_mc_fields(capsys):
    doc = run_json(capsys, "branching", "--p", "0.3", "--n", "0",
                   "--samples", "2000", "--seed", "5")
    r = doc["results"]
    est, se, z = float(r["estimate"]), float(r["stderr"]), float(r["z"])
    assert abs(est - 6 / 7) < 4 * se
    assert z == pytest.approx((est - 6 / 7) / se)
    assert r["censored"] == 0


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = run(capsys, "planar", "--order", "2", "--emit", "R",
                    "--output", str(path))
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["results"]["R"] == ["1", "3", "18"]


def test_validation_exit_codes(capsys):
    assert run(capsys, "planar", "--emit", "bogus")[0] == 2
    assert run(capsys, "oracle", "--weights", "x=1")[0] == 2
    assert run(capsys, "oracle", "--weights", "g0=1")[0] == 2
    assert run(capsys, "branching", "--p", "0.3", "--samples", "5")[0] == 2
    assert run(capsys, "planar", "--no-such-flag")[0] == 2
    # seed missing
    assert run(capsys, "sample", "--faces", "4", "--samples", "1")[0] == 2
    for argv in (["planar", "--g4", "1/0"], ["branching", "--p", "1/0"]):
        assert run(capsys, *argv)[0] == 2


@pytest.mark.parametrize("argv, message", [
    (("planar", "--order", "abc"),
     "mapforge planar: argument --order: invalid int value: 'abc'"),
    (("planar", "--no-such-flag"),
     "mapforge: unrecognized arguments: --no-such-flag"),
    (("sample", "--faces", "4", "--samples", "1"),
     "mapforge sample: the following arguments are required: --seed"),
    ((), "mapforge: the following arguments are required: command"),
], ids=["bad-int", "unknown-flag", "missing-seed", "missing-subcommand"])
def test_argparse_refusals_are_one_line(capsys, argv, message):
    # main returns instead of raising SystemExit, and prints no usage block
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "BadParameter: %s\n" % message


@pytest.mark.parametrize("argv, start", [
    (("--version",), mapforge.__version__ + "\n"),
    (("planar", "--help"), "usage: mapforge planar "),
])
def test_help_and_version_still_exit_0(capsys, argv, start):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith(start)


def test_faces_past_the_cap_exit_2_before_sampling(monkeypatch, capsys):
    def no_sampling(*args):
        raise AssertionError("sampled past the cap")
    monkeypatch.setattr(cli, "sample_quadrangulation_uniform", no_sampling)
    code = main(["sample", "--faces", str(cli.FACES_CAP + 1),
                 "--samples", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "BadParameter: faces must be <= %d\n" % cli.FACES_CAP


def test_numeric_exit_codes(capsys):
    assert run(capsys, "branching", "--p", "0.7")[0] == 3
    assert run(capsys, "geodesic", "--continuum", "--eps", "0.5")[0] == 3


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_resource_errors_exit_3_without_traceback(monkeypatch, capsys, error):
    def boom(args):
        raise error("out of resources")
    monkeypatch.setattr(cli, "_cmd_sample", boom)
    code = main(["sample", "--faces", "4", "--samples", "1", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "%s: out of resources\n" % error.__name__
    assert "Traceback" not in captured.err


def test_threads_default_is_read_on_every_call(monkeypatch, capsys):
    # one parser per MAPFORGE_THREADS value, reused, yet each call echoes
    # the value set when it runs
    for value in ("3", "5", "3"):
        monkeypatch.setenv("MAPFORGE_THREADS", value)
        doc = run_json(capsys, "planar", "--order", "1", "--emit", "R")
        assert doc["metadata"]["parameters"]["threads"] == int(value)
        assert cli.build_parser() is cli.build_parser()


def test_non_integer_threads_variable_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("MAPFORGE_THREADS", "abc")
    code = main(["planar", "--order", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("BadParameter: MAPFORGE_THREADS='abc' is not "
                            "an integer\n")


def test_sample_at_area_1e5(capsys):
    # the sampler holds no recursion, so the default limit suffices
    assert sys.getrecursionlimit() == 1000
    code, out = run(capsys, "sample", "--faces", "100000", "--samples", "1",
                    "--seed", "7")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()
            if l and not l.startswith("#")]
    assert rows[0] == ["sample", "distance", "count"]
    assert rows[1] == ["0", "0", "1"]
    assert sum(int(r[2]) for r in rows[1:]) == 100000 + 2


def test_geodesic_continuum_honours_format(capsys):
    doc = run_json(capsys, "geodesic", "--continuum")
    assert doc["metadata"]["parameters"]["format"] == "json"
    grid = doc["results"]["grid"]
    assert [float(p["r"]) for p in grid][:2] == [0.5, 0.6]
    code, out = run(capsys, "geodesic", "--continuum", "--format", "csv")
    assert code == 0
    assert "# format=csv" in out.splitlines()
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "r,F,G,deviation"
    assert [r.split(",") for r in rows[1:]] == [
        [p["r"], p["F"], p["G"], p["deviation"]] for p in grid]


def test_oracle_past_the_cap_exits_2(capsys):
    code = main(["oracle", "--weights", "g4=1", "--order", "13"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "TooLarge: order 13 needs up to 52 half-edges, cap is 48\n"


@pytest.mark.parametrize("argv, flag", [
    (["planar", "--order", "3"], "--output"),
    (["sample", "--faces", "4", "--samples", "1", "--seed", "1"],
     "--dump-maps"),
])
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv, flag):
    path = str(tmp_path / "missing" / "x.json")
    code = main(argv + [flag, path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "FileNotFoundError: [Errno 2] No such file or directory: %r\n" % path)


@pytest.mark.parametrize("g4", ["1/2", "-3", "0"])
def test_geodesic_g4_matches_window_solver(capsys, g4):
    argv = ["geodesic", "--g4", g4, "--n", "3", "--order", "8",
            "--emit", "Rn,Gn,motion"]
    code, out = run(capsys, *argv)
    assert code == 0
    gs = solve_Rn_series({4: rat_parse(g4)}, 4, 8)
    g = TruncSeries.gen("g", 8)
    series = {"Rn": gs.R[3], "Gn": gs.R[3] - gs.R[2],
              "motion": integral_of_motion((gs.R[3], gs.R[4]), g)}
    doc = {"metadata": cli._metadata(cli.build_parser().parse_args(argv)),
           "results": {name: [rat_str(c) for c in s.coeffs]
                       for name, s in series.items()}}
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _after_cli_import(expr):
    """What a fresh interpreter prints for expr after `import
    mapforge.cli`."""
    src = os.path.dirname(os.path.dirname(mapforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mapforge.cli; print(%s)" % expr],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    assert _after_cli_import("'scipy' in sys.modules") == "False\n"


def test_cli_import_leaves_numpy_unloaded():
    assert _after_cli_import("'numpy' in sys.modules") == "False\n"


def test_cli_import_builds_no_edge_pairing():
    assert _after_cli_import("mapforge.wick_fatgraphs.edge_pairing"
                             ".cache_info().currsize") == "0\n"


def test_metadata_echoes_parameters(capsys):
    doc = run_json(capsys, "planar", "--g4", "1/2", "--order", "2",
                   "--emit", "R")
    params = doc["metadata"]["parameters"]
    assert params["g4"] == "1/2" and params["order"] == 2
    assert doc["metadata"]["command"] == "planar"


@pytest.mark.parametrize("argv, message", [
    (("stringeq", "--m", "-1"), "BadParameter: m must be >= 0\n"),
    (("planar", "--order", "-1"), "BadParameter: order must be >= 0\n"),
    (("genus", "--order", "-1"), "BadParameter: order must be >= 0\n"),
    (("oracle", "--weights", "g4=1", "--order", "-1"),
     "BadParameter: order must be >= 0\n"),
    (("genus", "--max-genus", "-1"), "BadParameter: max-genus must be >= 0\n"),
    (("branching", "--p", "0.3", "--samples", "-3"),
     "BadParameter: samples must be >= 0\n"),
    (("branching", "--p", "0.3", "--t-max", "0"),
     "ValueError: t_max must be >= 1\n"),
    (("branching", "--p", "0.3", "--t-max", "-1"),
     "ValueError: t_max must be >= 1\n"),
])
def test_negative_sizes_exit_2(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("g4", ["1/2", "-3", "0"])
def test_planar_rescales_the_unit_quartic(capsys, g4):
    # the printed solution is the unit one with coefficient k times g4^k;
    # it must equal a direct solve at that coupling
    from mapforge.planar_onecut import Potential, solve_one_cut
    doc = run_json(capsys, "planar", "--g4", g4, "--order", "6",
                   "--emit", "R,S")
    sol = solve_one_cut(Potential.quartic(rat_parse(g4)), 6)
    assert doc["results"] == {"R": [rat_str(c) for c in sol.R.coeffs],
                              "S": [rat_str(c) for c in sol.S.coeffs]}

"""Command-line pipelines, exit codes and report determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import msarr
from msarr import CentralArrangement, feasibility
from msarr.cli import REFERENCE_ORBITS, main, orbit_canonical
from msarr.feasibility import strict_feasibility


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def strip_timing(report):
    report = dict(report)
    report.pop("timing", None)
    return report


@pytest.fixture(scope="module")
def arr52(tmp_path_factory):
    path = tmp_path_factory.mktemp("arr") / "b52.json"
    r = CliRunner().invoke(
        main, ["build", "--example", "moment:0,1,2,3,4", "--out", str(path)]
    )
    assert r.exit_code == 0
    return str(path)


# -- build ----------------------------------------------------------------------


def test_build_named_examples(runner, tmp_path):
    for name, count in (("ms-3.1", 4), ("falk", 15), ("h3", 15)):
        r = invoke(runner, "build", "--example", name)
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert len(data["hyperplanes"]) == count


def test_build_from_matrix_file(runner, tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps([["1", "0", "1", "-1"], ["0", "1", "1", "1"]]))
    r = invoke(runner, "build", "--base", str(path))
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert [h["label"] for h in data["hyperplanes"]] == ["123", "124", "134", "234"]


def test_build_requires_exactly_one_source(runner):
    r = runner.invoke(main, ["build"])
    assert r.exit_code != 0


# -- sigma ------------------------------------------------------------------------


def test_sigma_member_and_nonmember(runner, arr52):
    with open(arr52) as fh:
        labels = [h["label"] for h in json.load(fh)["hyperplanes"]]
    member = "+" * len(labels)
    r = invoke(runner, "sigma", "--arrangement", arr52, "--eps", member, "--p", "2")
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["verdict"] == "member"
    # flipping one coordinate of the all-plus vector breaks codim-2 consistency
    flipped = "-" + "+" * (len(labels) - 1)
    r = invoke(runner, "sigma", "--arrangement", arr52, "--eps", flipped, "--p", "3")
    rep = json.loads(r.output)
    if rep["verdict"] == "non-member":
        assert rep["certificate"]["support"]
        assert rep["failing_flat"]


def test_sigma_lp_count_is_per_command(runner, arr52):
    # membership on B(5,2) solves no LP, so one solved between the two
    # commands would show in the second report if the counter were cumulative
    with open(arr52) as fh:
        member = "+" * len(json.load(fh)["hyperplanes"])
    counts = []
    for _ in range(2):
        r = invoke(runner, "sigma", "--arrangement", arr52, "--eps", member, "--p", "2")
        assert r.exit_code == 0
        counts.append(json.loads(r.output)["timing"]["lp_count"])
        solved = feasibility.lp_count()
        strict_feasibility([[1, 0], [0, 1]])
        assert feasibility.lp_count() == solved + 1
    assert counts == [0, 0]


def test_sigma_scan_clean_levels(runner, arr52):
    r = invoke(runner, "sigma-scan", "--arrangement", arr52, "--p", "2")
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["sigma_p"] == rep["sigma_p1"] == 62
    assert rep["jump_witnesses"] == []


def test_sigma_scan_guard_exit_code(runner, tmp_path):
    """23 hyperplanes are past the enumeration guard of sigma_set."""
    path = tmp_path / "big.json"
    big = CentralArrangement(3, [(f"h{i}", [1, i, i * i]) for i in range(23)])
    path.write_text(json.dumps(big.to_json()))
    r = runner.invoke(main, ["sigma-scan", "--arrangement", str(path), "--p", "2"])
    assert r.exit_code == 3
    assert "guard exceeded" in r.output


@pytest.mark.parametrize(
    "args",
    [
        ["sigma", "--eps", "+" * 10, "--p", "0"],
        ["sigma-scan", "--p", "0"],
        ["sigma", "--eps", "+" * 9, "--p", "2"],
        ["sigma", "--eps", "+" * 9 + "0", "--p", "2"],
    ],
)
def test_bad_parameters_are_usage_errors(runner, arr52, args):
    """A level below 1 or a sign string that does not fit the labels exits
    2 with click's usage message, not a traceback."""
    r = runner.invoke(main, [args[0], "--arrangement", arr52, *args[1:]])
    assert r.exit_code == 2
    assert "Invalid value" in r.output


@pytest.mark.parametrize(
    "args",
    [
        ["perturb", "--n", "6", "--k", "2", "--denom", "0"],
        ["perturb", "--n", "6", "--k", "2", "--denom", "-5"],
        ["main-theorem", "--n", "6", "--k", "2", "--p", "3", "--denom", "0"],
        ["witness", "--n", "4", "--k", "2"],
        ["witness", "--n", "6", "--k", "0"],
        ["perturb", "--n", "4", "--k", "2"],
    ],
)
def test_construction_parameters_are_usage_errors(runner, args):
    """A perturbation denominator below 2, or an (n, k) that no witness
    construction covers, exits 2 with click's usage message, not a
    ValueError traceback."""
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert "Invalid value" in r.output and "Traceback" not in r.output


def normals(*entries):
    return json.dumps({"dim": 3, "hyperplanes": [{"label": "a", "normal": list(entries)}]})


@pytest.mark.parametrize(
    "command,option,content",
    [
        ("sigma", "--arrangement", None),
        ("sigma", "--arrangement", "{"),
        ("sigma", "--arrangement", json.dumps({"hyperplanes": []})),
        ("sigma", "--arrangement", normals("1", "2")),
        ("sigma", "--arrangement", normals("1/0", "2", "3")),
        ("build", "--base", json.dumps([["1", "0", "1"], ["0", "1"]])),
    ],
    ids=["missing", "not-json", "no-dim", "short-normal", "zero-denominator", "ragged-base"],
)
def test_bad_input_files_are_usage_errors(runner, tmp_path, command, option, content):
    """An input file that cannot be read or parsed exits 2 with one error
    line naming the option, not a traceback."""
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    extra = ["--eps", "+", "--p", "1"] if command == "sigma" else []
    r = runner.invoke(main, [command, option, str(path), *extra])
    assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
    errors = [line for line in r.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and f"Invalid value for {option}" in errors[0]


def test_module_entry_point_runs_the_cli(arr52):
    """python -m msarr runs the CLI from a checkout, with src on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(msarr.__file__).resolve().parents[1]))
    r = subprocess.run(
        [sys.executable, "-m", "msarr", "sigma-scan", "--arrangement", arr52, "--p", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["sigma_p"] == rep["sigma_p1"] == 62


# -- cleanliness verification --------------------------------------------------------


def test_verify_clean_52(runner):
    r = invoke(runner, "verify-clean-52")
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["sigma_2"] == rep["sigma_3"] == rep["chambers"] == 62
    assert len(rep["orbit_classes"]) == 3


def test_orbit_canonical_classifies_references():
    # each reference support is fixed by its own canonical form
    canon = {orbit_canonical(o, 5) for o in REFERENCE_ORBITS}
    assert len(canon) == 3
    # relabeling does not change the class
    relabeled = [tuple(sorted(5 + 1 - i for i in t)) for t in
                 [(1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5)]]
    assert orbit_canonical(relabeled, 5) == orbit_canonical(REFERENCE_ORBITS[0], 5)


# -- theorem pipelines ----------------------------------------------------------------


def test_main_theorem_equality_52(runner):
    r = invoke(runner, "main-theorem", "--n", "5", "--k", "2", "--p", "2")
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["mode"] == "equality"
    assert rep["result"] == "sigma_2 = sigma_3"


def test_main_theorem_unsupported_triple(runner):
    r = runner.invoke(main, ["main-theorem", "--n", "9", "--k", "2", "--p", "2"])
    assert r.exit_code != 0


def test_witness_command(runner):
    r = invoke(runner, "witness", "--n", "6", "--k", "3", "--seed", "1")
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["target_codim"] == 2
    assert rep["audit"]


def test_perturb_command(runner):
    r = invoke(runner, "perturb", "--n", "6", "--k", "3", "--seed", "1")
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert len(rep["formerly_coincident"]) == 3
    assert len(rep["hyperplanes"]) == 15  # C(6, 4) subsets for k = 3


# -- determinism ------------------------------------------------------------------------


def test_reports_deterministic_modulo_timing(runner, arr52):
    outs = []
    for _ in range(2):
        r = invoke(runner, "sigma-scan", "--arrangement", arr52, "--p", "2")
        outs.append(strip_timing(json.loads(r.output)))
    assert outs[0] == outs[1]

    wits = []
    for _ in range(2):
        r = invoke(runner, "witness", "--n", "6", "--k", "3", "--seed", "7")
        wits.append(strip_timing(json.loads(r.output)))
    assert wits[0] == wits[1]

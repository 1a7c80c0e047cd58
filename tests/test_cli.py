"""Command-line pipelines, exit codes and report determinism."""

import json

import pytest
from click.testing import CliRunner

from msarr.cli import REFERENCE_ORBITS, main, orbit_canonical


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
    with open(arr52) as fh:
        member = "+" * len(json.load(fh)["hyperplanes"])
    counts = []
    for _ in range(2):
        r = invoke(runner, "sigma", "--arrangement", arr52, "--eps", member, "--p", "2")
        assert r.exit_code == 0
        counts.append(json.loads(r.output)["timing"]["lp_count"])
    assert counts[0] == counts[1] > 0


def test_sigma_scan_clean_levels(runner, arr52):
    r = invoke(runner, "sigma-scan", "--arrangement", arr52, "--p", "2")
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["sigma_p"] == rep["sigma_p1"] == 62
    assert rep["jump_witnesses"] == []


def test_sigma_scan_guard_exit_code(runner, arr52):
    r = runner.invoke(
        main,
        ["sigma-scan", "--arrangement", arr52, "--p", "2", "--max-hyperplanes", "5"],
    )
    assert r.exit_code == 3
    assert "guard exceeded" in r.output


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

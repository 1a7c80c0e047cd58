"""Command-line front end for the arrangement workflows.

Commands compose the library into the standard verification pipelines and
emit JSON reports.  Exit codes: 0 success, 2 a usage error (as click
reports it) or a mathematically asserted fact that failed to verify, 3 a
size guard was exceeded, 4 a randomized search exhausted its retries.
Reports are deterministic for a fixed seed except for the "timing" block.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import permutations

import click

from . import feasibility
from .arrangement import (
    CentralArrangement,
    SignVector,
    circuits,
    zaslavsky_chambers,
)
from .errors import GuardExceeded, RetryExhausted, VerificationError
from .examples import named_base
from .fields import parse_scalar
from .msbuild import (
    GenericArrangement,
    build_ms,
    moment_curve_base,
    parse_ms_label,
    random_very_generic,
)
from .nonvgen import (
    jump_after_perturbation,
    perturb_to_very_generic,
    witness_rank3,
    witness_rank_r,
)
from .sigma import find_jump, in_sigma_p, sigma_set

__all__ = ["main", "orbit_canonical", "REFERENCE_ORBITS"]

# representatives of the three relabeling orbits of 4-element circuit
# supports in B(5,2)
REFERENCE_ORBITS = (
    ("123", "124", "135", "245"),
    ("123", "124", "125", "345"),
    ("123", "124", "135", "145"),
)


def orbit_canonical(support, n: int = 5):
    """Canonical form of a set of index subsets under relabeling of [n]."""
    triples = [parse_ms_label(l, n) if isinstance(l, str) else tuple(sorted(l))
               for l in support]
    best = None
    for perm in permutations(range(1, n + 1)):
        img = tuple(sorted(tuple(sorted(perm[i - 1] for i in t)) for t in triples))
        if best is None or img < best:
            best = img
    return best


def _emit(report: dict, out):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _run(fn):
    try:
        fn()
    except VerificationError as exc:
        click.echo(f"verification failed: {exc}", err=True)
        sys.exit(2)
    except GuardExceeded as exc:
        click.echo(f"guard exceeded: {exc}", err=True)
        sys.exit(3)
    except RetryExhausted as exc:
        click.echo(f"retries exhausted: {exc}", err=True)
        sys.exit(4)


def _clock() -> tuple:
    return time.perf_counter(), feasibility.lp_count()


def _timed_provenance(t0: tuple) -> dict:
    """LP solves and seconds since t0 = _clock(), for this command only."""
    start, lp0 = t0
    return {
        "lp_count": feasibility.lp_count() - lp0,
        "elapsed_s": round(time.perf_counter() - start, 3),
    }


def _read_input(path: str, option: str, parse):
    """parse(the JSON in the file at path); a file that cannot be read or
    parsed is a usage error naming option."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise click.BadParameter(f"{path}: {type(exc).__name__}: {exc}", param_hint=option) from None


def _load_arrangement(path: str) -> CentralArrangement:
    return _read_input(path, "--arrangement", CentralArrangement.from_json)


@click.group()
def main():
    """Exact computations on discriminantal arrangements."""


@main.command()
@click.option("--example", "example_name", default=None, help="named base")
@click.option("--base", "base_path", default=None, help="JSON matrix file")
@click.option("--out", default=None)
def build(example_name, base_path, out):
    """Build the arrangement of a base matrix and write it as JSON."""

    def go():
        if (example_name is None) == (base_path is None):
            raise click.UsageError("give exactly one of --example / --base")
        if example_name:
            g = named_base(example_name)
        else:
            g = _read_input(base_path, "--base", lambda rows: GenericArrangement.from_matrix(
                [[parse_scalar(v) if isinstance(v, str) else v for v in row] for row in rows]
            ))
        m = build_ms(g)
        _emit(m.arrangement.to_json(), out)

    _run(go)


@main.command()
@click.option("--arrangement", "arr_path", required=True)
@click.option("--eps", required=True, help="sign string, e.g. ++-+")
@click.option("--p", type=click.IntRange(min=1), required=True)
@click.option("--out", default=None)
def sigma(arr_path, eps, p, out):
    """Filtration membership of one sign vector, with certificate."""

    def go():
        t0 = _clock()
        a = _load_arrangement(arr_path)
        try:
            sv = SignVector.from_string(a.labels, eps)
        except ValueError as exc:
            raise click.BadParameter(str(exc), param_hint="--eps")
        rep = in_sigma_p(a, sv, p)
        report = {
            "eps": sv.to_string(),
            "p": p,
            "verdict": rep.verdict,
            "timing": _timed_provenance(t0),
        }
        if rep.failing_flat is not None:
            if not rep.certificate.verify(a, sv):
                raise VerificationError("emitted certificate failed re-verification")
            report["failing_flat"] = rep.failing_flat.sorted_labels()
            report["certificate"] = rep.certificate.to_json()
        _emit(report, out)

    _run(go)


@main.command("sigma-scan")
@click.option("--arrangement", "arr_path", required=True)
@click.option("--p", type=click.IntRange(min=1), required=True)
@click.option("--out", default=None)
def sigma_scan(arr_path, p, out):
    """Complete |Sigma_p| / |Sigma_{p+1}| counts and jump witnesses."""

    def go():
        t0 = _clock()
        a = _load_arrangement(arr_path)
        upper = sigma_set(a, p)
        lower = sigma_set(a, p + 1)
        jumps = sorted(e.to_string() for e in upper - lower)
        _emit(
            {
                "p": p,
                "sigma_p": len(upper),
                "sigma_p1": len(lower),
                "jump_witnesses": jumps,
                "timing": _timed_provenance(t0),
            },
            out,
        )

    _run(go)


@main.command("verify-clean-52")
@click.option("--moment", default="0,1,2,3,4", help="moment-curve parameters")
@click.option("--out", default=None)
def verify_clean_52(moment, out):
    """Complete cleanliness scan of B(5,2) plus circuit orbit classes."""

    def go():
        t0 = _clock()
        g = moment_curve_base([parse_scalar(v) for v in moment.split(",")])
        if g.n != 5:
            raise click.UsageError("need exactly five parameters")
        m = build_ms(g)
        a = m.arrangement
        s2 = sigma_set(a, 2)
        s3 = sigma_set(a, 3)
        if s2 != s3:
            raise VerificationError(
                f"filtration levels 2 and 3 differ: {len(s2)} vs {len(s3)}"
            )
        chambers = zaslavsky_chambers(a)
        orbits = sorted(
            {
                orbit_canonical(tuple(sorted(sup)), 5)
                for sup, _ in circuits(a, 4)
                if len(sup) == 4
            }
        )
        expected = sorted(orbit_canonical(o, 5) for o in REFERENCE_ORBITS)
        if orbits != expected:
            raise VerificationError("circuit supports fall outside the three orbits")
        _emit(
            {
                "sigma_2": len(s2),
                "sigma_3": len(s3),
                "chambers": chambers,
                "orbit_classes": [["".join(map(str, t)) for t in o] for o in orbits],
                "timing": _timed_provenance(t0),
            },
            out,
        )

    _run(go)


@main.command("main-theorem")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--seed", type=int, default=1)
@click.option("--denom", type=click.IntRange(min=2), default=10**6)
@click.option("--out", default=None)
def main_theorem(n, k, p, seed, denom, out):
    """Desk-scale jump/equality pipelines: (6,3,2), (6,2,3), (5,2,2)."""

    def go():
        t0 = _clock()
        if (n, k, p) == (5, 2, 2):
            a = build_ms(moment_curve_base([0, 1, 2, 3, 4])).arrangement
            if find_jump(a, 2) is not None:
                raise VerificationError("unexpected jump at level 2 for B(5,2)")
            _emit({"mode": "equality", "n": n, "k": k, "p": p,
                   "result": "sigma_2 = sigma_3", "timing": _timed_provenance(t0)}, out)
            return
        if (n, k, p) == (6, 3, 2):
            m = random_very_generic(6, 3, seed=seed)
            hit = find_jump(m.arrangement, 2)
            if hit is None:
                raise VerificationError("no jump found on a very generic B(6,3)")
            eps, flat, cert = hit
            arr = m.arrangement
        elif (n, k, p) == (6, 2, 3):
            w = witness_rank_r(6, 2, seed=seed)
            m, _labels = perturb_to_very_generic(w, denom=denom, seed=seed)
            eps, flat, cert = jump_after_perturbation(m, w, seed=seed)
            arr = m.arrangement
        else:
            raise click.UsageError("supported (n,k,p): (5,2,2), (6,3,2), (6,2,3)")
        if not cert.verify(arr, eps):
            raise VerificationError("emitted certificate failed re-verification")
        _emit(
            {
                "mode": "jump",
                "n": n,
                "k": k,
                "p": p,
                "eps": eps.to_string(),
                "labels": list(arr.labels),
                "failing_flat": flat.sorted_labels(),
                "certificate": cert.to_json(),
                "timing": _timed_provenance(t0),
            },
            out,
        )

    _run(go)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--seed", type=int, default=1)
@click.option("--out", default=None)
def witness(n, k, seed, out):
    """Construct and audit a non-very-generic witness base."""

    def go():
        t0 = _clock()
        w = _make_witness(n, k, seed)
        report = w.to_json()
        report["timing"] = _timed_provenance(t0)
        _emit(report, out)

    _run(go)


def _make_witness(n, k, seed):
    try:
        if n - k == 3:
            return witness_rank3(n, k, seed=seed)
        return witness_rank_r(n, k, seed=seed)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--n' / '--k'") from None


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--seed", type=int, default=1)
@click.option("--denom", type=click.IntRange(min=2), default=10**6)
@click.option("--out", default=None)
def perturb(n, k, seed, denom, out):
    """Witness construction followed by a very generic perturbation."""

    def go():
        t0 = _clock()
        w = _make_witness(n, k, seed)
        m, labels = perturb_to_very_generic(w, denom=denom, seed=seed)
        report = m.arrangement.to_json()
        report["formerly_coincident"] = list(labels)
        report["timing"] = _timed_provenance(t0)
        _emit(report, out)

    _run(go)


if __name__ == "__main__":
    main()

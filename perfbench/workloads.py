"""The three benchmark workloads: inputs from a seed, ops, correctness gates.

Each workload is closed-loop with one client: the runner sends the next op
only after the previous one returned and passed its gate.  A workload is

* ``setup(seed)``: builds the inputs the ops share (arrangements, lattices,
  witnesses, perturbations, query catalogues).  Its duration is ``setup_s``.
* ``cycles(state)``: an endless, seed-determined stream of cycles; a cycle
  is a tuple of ``Op``.  A run always holds whole cycles, so every run
  has the same mix of op kinds.  A workload whose ops need fresh inputs
  (``setup_per_cycle``) builds them while producing each cycle, and
  ``setup_s`` is the time to produce one.
* ``run_cycles(seconds)``: the fixed number of cycles an untraced run
  times, about ``seconds`` of work on the reference host.  A count, not a
  deadline: every run of a seed times the same ops, whatever the speed of
  the code or the host, so a faster commit does not buy a different mix.
* ``trace_cycles(seconds)``: the fixed number of cycles a traced run
  executes, so traced counts repeat exactly for a given seed.

An ``Op`` has the zero-argument ``call`` that is timed and an untimed
``check(result)`` that raises ``GateError`` or returns the text that goes
into the run's output digest.  The runner keeps
checks out of traces, so their own library calls count in no layer.

Library calls go through the ``msarr`` package attributes (never names
imported into this module), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import msarr
from msarr.fields import format_scalar, sign


class GateError(Exception):
    """An op returned a result that failed its correctness gate."""


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str]


def _require(cond, msg):
    if not cond:
        raise GateError(msg)


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds go through sha512, so streams are stable across runs
    return random.Random(f"{workload}:{seed}")


def _lib_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _value(normal, point):
    return sum(c * v for c, v in zip(normal, point))


def _fmt(values) -> str:
    return ",".join(format_scalar(v) for v in values)


def _cert_text(cert) -> str:
    return f"{'/'.join(cert.support)}:{_fmt(cert.coefficients)}"


def check_certificate(a, eps, cert, flat):
    """Gordan gate, independent of the library's own checks.

    A non-empty positive combination sum lam_H eps_H a_H = 0 over
    hyperplanes of ``flat`` proves that no point realises eps there.
    """
    _require(len(cert.support) > 0, "certificate support is empty")
    _require(len(cert.support) == len(cert.coefficients), "certificate support/coefficients differ in length")
    _require(all(c > 0 for c in cert.coefficients), "certificate coefficient is not positive")
    _require(set(cert.support) <= flat.closed_set, "certificate leaves the flat")
    total = [0] * a.dim
    for label, lam in zip(cert.support, cert.coefficients):
        s = eps.sign_of(label)
        total = [t + lam * s * c for t, c in zip(total, a.normal(label))]
    _require(all(sign(t) == 0 for t in total), "positive relation does not sum to zero")
    _require(cert.verify(a, eps), "GordanCertificate.verify rejects the certificate")


def _grading(flats) -> tuple:
    counts = {}
    for f in flats:
        counts[f.codim] = counts.get(f.codim, 0) + 1
    return tuple(sorted(counts.items()))


def _moment_base(rng: random.Random):
    # five distinct integers, increasing: a generic k = 2 moment-curve base
    return msarr.moment_curve_base(sorted(rng.sample(range(-12, 13), 5)))


# -- shared gates ------------------------------------------------------------


def check_report(a, eps, p, rep, flats) -> str:
    """Gate for an ``in_sigma_p(..., audit=True)`` report.

    Non-members: the certificate passes ``check_certificate`` on the
    failing flat, and that flat has codim min(p, rank).  Members: the
    witness keys are exactly the codim-min(p, rank) flats and every witness
    point realises eps on its flat, by exact substitution.
    """
    q = min(p, max(f.codim for f in flats))
    level = [f for f in flats if f.codim == q]
    if not rep.member:
        x = rep.failing_flat
        _require(x is not None and rep.certificate is not None, "non-member without proof")
        _require(x.codim == q, f"failing flat has codim {x.codim}, expected {q}")
        _require(x in set(level), "failing flat is not in the lattice")
        check_certificate(a, eps, rep.certificate, x)
        return f"non-member|{'/'.join(sorted(x.closed_set))}|{_cert_text(rep.certificate)}"
    _require(set(rep.witness_points) == set(level), "witness flats differ from the codim level")
    parts = []
    for f in level:
        point = rep.witness_points[f]
        for label in f.closed_set:
            _require(
                sign(_value(a.normal(label), point)) == eps.sign_of(label),
                f"witness point misses the sign of {label}",
            )
        parts.append(_fmt(point))
    return "member|" + ";".join(parts)


# -- membership-stream -------------------------------------------------------

# Share of queries per pool arrangement (B(5,2), B(6,3), B(6,3) over
# Q(sqrt5), perturbed B(6,2)) and catalogue size per stratum.  Both are set
# from measured time shares (the ``time_share`` line of an untraced run;
# see README.md): of the timed work Q(sqrt5) takes under a fifth, a
# minority, and the perturbed B(6,2) under half.  Warm B(6,2) and Q(sqrt5)
# queries cost about 5x and 10x a warm B(6,3) one, so their query shares
# are small.  The median op falls inside the narrow cluster of warm B(6,3)
# queries, whose lattice is the same for every seed; with B(5,2) at half
# the queries it fell on the gap between the B(5,2) and B(6,3) clusters,
# where a few ops more on either side moved it by a third.
POOL_WEIGHTS = (0.30, 0.57, 0.03, 0.10)
QUERY_KINDS = ("chamber", "near", "uniform")
# Each (arrangement, kind, p) stratum has its own small catalogue with Zipf
# popularity.  A run meets nearly every catalogue entry, so its cold
# queries (the strict LPs) are about the same set for every run, and the
# rest of the run is the warm-cache service path.
STRATUM_SIZES = (12, 10, 1, 4)
ZIPF_EXPONENT = 0.6


@dataclass
class PoolEntry:
    name: str
    arrangement: object
    rank: int
    flats: list


@dataclass
class MembershipState:
    pool: list
    strata: list  # (pool index, kind, p, [sign vectors], Zipf cumulative weights)
    stratum_weights: list
    rng: random.Random


def _chamber_signs(a, rng: random.Random):
    """Sign vector of a random integer point off every hyperplane."""
    while True:
        x = [rng.randint(-30, 30) for _ in range(a.dim)]
        signs = tuple(sign(_value(a.normal(l), x)) for l in a.labels)
        if 0 not in signs:
            return msarr.SignVector(a.labels, signs)


def _query_sign_vector(a, kind: str, rng: random.Random):
    if kind == "uniform":
        return msarr.SignVector(a.labels, tuple(rng.choice((1, -1)) for _ in a.labels))
    eps = _chamber_signs(a, rng)
    if kind == "near":
        eps = eps.flip(rng.sample(a.labels, rng.choice((1, 2))))
    return eps


def membership_setup(seed: int) -> MembershipState:
    rng = _rng("membership-stream", seed)
    m52 = msarr.build_ms(_moment_base(rng))
    m63 = msarr.random_very_generic(6, 3, seed=_lib_seed(rng))
    h3 = msarr.build_ms(msarr.named_base("h3"))
    w = msarr.witness_rank_r(6, 2, seed=_lib_seed(rng))
    pm, _ = msarr.perturb_to_very_generic(w, seed=_lib_seed(rng))
    pool = []
    for name, m in (
        ("B(5,2) moment", m52),
        ("B(6,3) very generic", m63),
        ("B(6,3) over Q(rt5)", h3),
        ("B(6,2) perturbed", pm),
    ):
        a = m.arrangement
        pool.append(PoolEntry(name, a, a.rank(), a.full_lattice()))
    strata, weights = [], []
    for idx, entry in enumerate(pool):
        levels = range(2, entry.rank + 1)
        size = STRATUM_SIZES[idx]
        zipf = [1.0 / (i + 1) ** ZIPF_EXPONENT for i in range(size)]
        cum = [sum(zipf[: i + 1]) for i in range(size)]
        for kind in QUERY_KINDS:
            for p in levels:
                queries = [_query_sign_vector(entry.arrangement, kind, rng) for _ in range(size)]
                strata.append((idx, kind, p, queries, cum))
                weights.append(POOL_WEIGHTS[idx] / (len(QUERY_KINDS) * len(levels)))
    return MembershipState(pool, strata, weights, rng)


def membership_cycles(state: MembershipState):
    rng = state.rng
    while True:
        idx, kind, p, queries, cum = rng.choices(state.strata, weights=state.stratum_weights)[0]
        eps = rng.choices(queries, cum_weights=cum)[0]
        entry = state.pool[idx]
        a = entry.arrangement

        def check(rep, a=a, eps=eps, p=p, kind=kind, flats=entry.flats):
            # a chamber is realised by a point, so it lies in every Sigma_p
            _require(kind != "chamber" or rep.member, "chamber reported inconsistent")
            return check_report(a, eps, p, rep, flats)

        yield (
            Op(
                f"in_sigma_p {entry.name} p={p}",
                lambda a=a, eps=eps, p=p: msarr.in_sigma_p(a, eps, p, audit=True),
                check,
            ),
        )


# -- jump-search -------------------------------------------------------------


def jump_setup(seed: int) -> random.Random:
    return _rng("jump-search", seed)


def _perturbed_witness(rng: random.Random):
    """A fresh very generic B(6,2) near a rank-4 coincidence witness.

    Its lattice is built; its Sigma and chamber caches are still cold.
    """
    s = _lib_seed(rng)
    w = msarr.witness_rank_r(6, 2, seed=s)
    pm, _ = msarr.perturb_to_very_generic(w, seed=s)
    pm.arrangement.full_lattice()
    return w, pm


def _jap_op(pm, w, op_seed: int) -> Op:
    def check(hit):
        a = pm.arrangement
        eps, flat, cert = hit
        flats = a.full_lattice()
        rk = max(f.codim for f in flats)
        p = rk - 1
        _require(flat.codim == min(p + 1, rk), "jump flat has the wrong codim")
        check_certificate(a, eps, cert, flat)
        rep = msarr.in_sigma_p(a, eps, p, audit=True)
        _require(rep.member, "jump sign vector is not in Sigma_p")
        return f"jump|{eps.to_string()}|{check_report(a, eps, p, rep, flats)}|{_cert_text(cert)}"

    return Op(
        "jump_after_perturbation B(6,2)",
        lambda: msarr.jump_after_perturbation(pm, w, seed=op_seed),
        check,
    )


def _clean_op(m) -> Op:
    def check(hit):
        _require(hit is None, "B(5,2) moment curve reported a jump at p=2")
        return "clean"

    return Op("find_jump B(5,2)", lambda: msarr.find_jump(m.arrangement, 2), check)


def jump_cycles(rng: random.Random):
    """Every cycle builds its own fresh arrangements, so caches start cold.

    Two perturbed-witness jumps per clean certificate keep the median inside
    the jump_after_perturbation cluster for every whole-cycle run.
    """
    while True:
        w1, pm1 = _perturbed_witness(rng)
        m52 = msarr.build_ms(_moment_base(rng))
        m52.arrangement.full_lattice()
        w2, pm2 = _perturbed_witness(rng)
        yield (
            _jap_op(pm1, w1, _lib_seed(rng)),
            _clean_op(m52),
            _jap_op(pm2, w2, _lib_seed(rng)),
        )


# -- lattice-audit -----------------------------------------------------------


@dataclass
class AuditState:
    grading62: tuple
    grading63: tuple
    rng: random.Random


def audit_setup(seed: int) -> AuditState:
    """Reference gradings: a very generic lattice is graded like P(n, k)."""

    def grading(n, k, rk):
        counts = {}
        for fam in msarr.enumerate_pnk(n, k, rk):
            r = msarr.pnk_rank(fam) if fam.members else 0
            counts[r] = counts.get(r, 0) + 1
        return tuple(sorted(counts.items()))

    return AuditState(grading(6, 2, 4), grading(6, 3, 3), _rng("lattice-audit", seed))


def _audit_op(state: AuditState, op_seed: int) -> Op:
    def run():
        w = msarr.witness_rank_r(6, 2, seed=op_seed)
        pm, split = msarr.perturb_to_very_generic(w, seed=op_seed)
        iso, _ = msarr.lattice_isomorphic_to_pnk(pm)
        paving = msarr.is_paving(msarr.matroid_of_arrangement(pm.arrangement))
        chambers = msarr.zaslavsky_chambers(pm.arrangement)
        m63 = msarr.random_very_generic(6, 3, seed=op_seed)
        return pm, split, iso, paving, chambers, m63

    def check(out):
        pm, split, iso, paving, chambers, m63 = out
        vg62, _ = msarr.is_very_generic(pm)
        vg63, _ = msarr.is_very_generic(m63)
        _require(vg62 and vg63, "perturbed or sampled base is not very generic")
        _require(iso, "lattice is not isomorphic to P(6,2)")
        _require(chambers > 0, "Zaslavsky count is not positive")
        flats62 = pm.arrangement.full_lattice()
        flats63 = m63.arrangement.full_lattice()
        _require(_grading(flats62) == state.grading62, "B(6,2) lattice grading differs from P(6,2)")
        _require(_grading(flats63) == state.grading63, "B(6,3) lattice grading differs from P(6,3)")
        base = ";".join(_fmt(col) for col in pm.base.columns)
        return f"audit|{base}|{'/'.join(split)}|{len(flats62)}|{chambers}|{paving}|{len(flats63)}"

    return Op("lattice audit B(6,2)+B(6,3)", run, check)


def audit_cycles(state: AuditState):
    while True:
        yield (_audit_op(state, _lib_seed(state.rng)),)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    cycles: Callable
    cycle_s: float  # untraced wall per cycle on the reference host
    # True: the shared set-up is trivial and each cycle builds its own fresh
    # inputs; setup_s is then the median time to build one cycle's inputs
    setup_per_cycle: bool = False
    # set-ups per untraced run; setup_s is their median
    setup_repeats: int = 3

    def run_cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_s))

    def trace_cycles(self, seconds: float) -> int:
        # a traced run repeats its cycles untraced and traced (about 3x the
        # untraced cost in all)
        return max(1, int(seconds / (3 * self.cycle_s)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "membership-stream",
            membership_setup,
            membership_cycles,
            0.0125,
        ),
        Workload(
            "jump-search",
            jump_setup,
            jump_cycles,
            16.0,
            setup_per_cycle=True,
        ),
        Workload(
            "lattice-audit",
            audit_setup,
            audit_cycles,
            3.0,
            # a 40 ms set-up: many repeats make its median steady
            setup_repeats=15,
        ),
    )
}

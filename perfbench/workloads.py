"""The four workloads: seeded inputs, the calls timed, and their checks.

Each workload is a closed loop with one client: the next operation
starts when the previous one has returned.  passes() yields lists of
operations.  Every pass runs the same slots: slot j is the same kind of
operation on the same nominal size in every pass.  Sizes come from a
fixed grid, each moved down by a seeded jitter of at most JITTER, and
the seed also draws the entries, the b offsets and the matrices.  So the
cost of a pass hardly depends on the seed, while the inputs do.  An
operation's prepare() builds its inputs untimed, right before the timed
call, and returns the call with the checks for its result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Iterator, List

import numpy as np

from checks import (
    C_STAR,
    Tally,
    lower_bound_defect_applies,
    one_minus_defect_applies,
    one_minus_threshold,
    one_minus_witness,
    psi_exact,
    psi_exact_offdiag,
    q_exact_grouped,
)

JITTER = 0.04


def child_env(root: str) -> dict:
    """Environment of a psq child process: the checkout's sources, no thread override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PSQ_THREADS", None)
    return env


def jittered(rng, base: int) -> int:
    """base moved down by a seeded share of at most JITTER, at least 1."""
    return max(1, round(base * (1.0 - JITTER * rng.random())))


@dataclass
class Prepared:
    call: Callable[[], object]
    check: Callable[[object, Tally], None]
    entries: int = 0
    verdict_op: bool = False


@dataclass
class Op:
    kind: str
    prepare: Callable[[], Prepared]


class Workload:
    name = ""
    # Nominal seconds of timed calls in one pass, measured on a 2-core
    # 2.1 GHz Xeon VM; it sets the pass count.
    pass_seconds = 1.0

    def __init__(self, psq, seed: int, root: str):
        self.psq = psq
        self.seed = seed
        self.root = root

    def passes(self) -> Iterator[List[Op]]:
        raise NotImplementedError


# --------------------------------------------------------------------
# threshold_sweep


# Geometric grid of d from 2 to 1000; sup_q costs O(d), so the large d
# hold most of the time.
D_GRID = tuple(round(2 * 500 ** (j / 11)) for j in range(12))
# Relative distance of the seeded b from the returned b_d, both sides.
# For 4 <= d <= 105 the one-minus split refutes every b within 5.4 % below
# b_d, so each member verdict on the grid up to d = 105 shows that known
# defect at every seed, and fail_frac does not depend on the draw.
B_OFFSET = (0.001, 0.05)


class ThresholdSweep(Workload):
    """One operation is one request for d: compute_bd(d), membership of
    M_d(b) on both sides of the returned b_d, and sup_q and
    positivity_witness on the shapes (n, n) and (n + 1, n), n = d // 2.
    Requests on a geometric grid of d differ in cost by a factor of about
    1.8, so the median request does not swap with its neighbours from run
    to run, as single calls of neighbouring d do.
    """

    name = "threshold_sweep"
    pass_seconds = 4.0

    def passes(self):
        rng = np.random.default_rng(self.seed)
        bd_seen = {}
        while True:
            # The reported defects, in every pass next to the seeded d.
            ops = [
                self._membership_op(6, 0.85),
                self._membership_op(4, 0.95),
                Op("compute_bd", lambda: Prepared(lambda: self.psq.compute_bd(51), lambda r, t: check_bd(r, 51, bd_seen, t))),
            ]
            for j, base in enumerate(D_GRID):
                # Slot j keeps the parity of j, so half the d are odd.
                d = max(2, jittered(rng, base))
                if d % 2 != j % 2:
                    d += 1
                ops.append(self._request_op(d, *rng.uniform(*B_OFFSET, 2), bd_seen))
            ops.append(Op("table1_rows", self._table1))
            ops.append(Op("table2_rows", self._table2))
            yield ops

    def _request_op(self, d, lo_off, hi_off, bd_seen):
        psq = self.psq
        n = max(1, d // 2)
        shapes = ((n, n), (n + 1, n))

        def call():
            rep = psq.compute_bd(d)
            bs = (float(rep.b_d) * (1.0 - lo_off), min(1.0, float(rep.b_d) * (1.0 + hi_off)))
            return (
                rep,
                [(b, psq.membership_equal_offdiag(d, b)) for b in bs],
                [psq.sup_q(*s) for s in shapes],
                [psq.positivity_witness(*s) for s in shapes],
            )

        def check(out, t: Tally):
            rep, members, sups, witnesses = out
            check_bd(rep, d, bd_seen, t)
            for b, m in members:
                check_membership(m, d, b, t)
            for res, shape in zip(sups, shapes):
                check_sup(res, *shape, t)
            t.check(
                "sup_q.monotone_in_dims",
                sups[1].sup_value >= sups[0].sup_value - 1e-12,
                f"sup_q({n + 1}, {n}) = {sups[1].sup_value!r} < sup_q({n}, {n}) = {sups[0].sup_value!r}",
            )
            for w, shape in zip(witnesses, shapes):
                check_witness(w, *shape, t)

        return Op("threshold_request", lambda: Prepared(call, check))

    def _membership_op(self, d, b):
        return Op(
            "membership_equal_offdiag",
            lambda: Prepared(
                lambda: self.psq.membership_equal_offdiag(d, b),
                lambda rep, t: check_membership(rep, d, b, t),
            ),
        )

    def _table1(self):
        def check(rows, t: Tally):
            for r in rows:
                t.check(
                    "bd.lower_bound_le_bd",
                    r.lower_bound <= r.b_d,
                    f"table1 d={r.d}: {r.lower_bound!r} > {r.b_d!r}",
                    known=lower_bound_defect_applies(r.d),
                )
            t.check(
                "bd.nonincreasing_in_d",
                all(a.b_d >= b.b_d for a, b in zip(rows, rows[1:])),
                "table1 b_d column increases",
            )

        return Prepared(lambda: self.psq.table1_rows(), check)

    def _table2(self):
        def check(rows, t: Tally):
            for r in rows:
                # Default dims are even, where the floor-form lower bound holds.
                t.check(
                    "table.lower_le_witness_upper",
                    0.0 < r.lower_bound <= r.witness_upper <= 1.0,
                    f"table2 d={r.d}: {r.lower_bound!r} > {r.witness_upper!r}",
                )

        return Prepared(lambda: self.psq.table2_rows(), check)


def check_bd(rep, d, bd_seen, t: Tally) -> None:
    """Invariants of compute_bd(d); bd_seen holds b_d of the d seen so far."""
    t.check(
        "bd.lower_bound_le_bd",
        rep.lower_bound <= rep.b_d,
        f"d={d}: lower_bound {rep.lower_bound!r} > b_d {rep.b_d!r}",
        known=lower_bound_defect_applies(d),
    )
    ok = all(v >= rep.b_d - 1e-9 if e < d else v <= rep.b_d + 1e-9 for e, v in bd_seen.items() if e != d)
    t.check("bd.nonincreasing_in_d", ok, f"d={d}: b_d {rep.b_d!r} breaks monotonicity")
    bd_seen[d] = float(rep.b_d)


def check_sup(res, n_x, n_y, t: Tally) -> None:
    """sup_q is below the growth bound and above Q of its own witness pair."""
    t.check(
        "sup_q.below_growth_bound",
        0.0 <= res.sup_value < C_STAR * max(n_x, n_y),
        f"sup_q({n_x}, {n_y}) = {res.sup_value!r}",
    )
    if res.sup_value > 0.0:
        q = q_exact_grouped(*res.witness_pair(1e-6))
        t.check(
            "sup_q.bounds_its_witness",
            q <= Fraction(res.sup_value) * (1 + Fraction(1, 10**9)),
            f"sup_q({n_x}, {n_y}): witness Q {float(q)!r} > sup {res.sup_value!r}",
        )


def check_witness(w, n_x, n_y, t: Tally) -> None:
    """A positive-quotient pair exists for every shape but (1, 1)."""
    trivial = (n_x, n_y) == (1, 1)
    if not t.check("witness.exists_unless_1_1", (w is None) == trivial, f"({n_x}, {n_y}): {type(w).__name__}"):
        return
    if w is None:
        return
    x, y, _ = w
    q = q_exact_grouped(x, y)
    t.check(
        "witness.exact_q_positive",
        len(x) == n_x and len(y) == n_y and q > 0,
        f"({n_x}, {n_y}): exact Q {float(q)!r}",
    )


def check_membership(rep, d, b, t: Tally) -> None:
    """Invariants of a membership verdict for M_d(b)."""
    if rep.verdict == "member_certified":
        hit = one_minus_witness(d, b)
        t.check(
            "member.one_minus_probe",
            hit is None,
            None if hit is None else f"M_{d}({b!r}) certified, yet Psi = {float(hit[1]):.4g} at gamma = {hit[0]}",
            known=one_minus_defect_applies(d),
        )
    elif rep.verdict == "nonmember":
        w = rep.witness
        ok = w is not None and len(w.z) == d and psi_exact_offdiag(b, w.z, w.s) < 0
        t.check("witness.exact_psi_negative", ok, f"M_{d}({b!r}): witness not confirmed exactly")
    want = (
        "member_certified"
        if b <= rep.b_d - rep.margin
        else "nonmember" if b >= rep.b_d + rep.margin else "inconclusive"
    )
    t.check("membership.consistent_with_bd", rep.verdict == want, f"M_{d}({b!r}): {rep.verdict}, want {want}")


# --------------------------------------------------------------------
# quotient_bulk

FLOAT_SIZES = (1_000, 10_000, 100_000, 1_000_000)
EXACT_SIZES = (100, 1_000, 10_000)
# The tail falls on the third-largest slot (5 passes); keep the slots
# near it apart in cost so that it does not swap with a neighbour.
ORDERED_FLOAT_SIZES = (1_000, 10_000)
ORDERED_EXACT_SIZES = (100, 1_000)
BATCH_WIDTHS = (16, 48)
BATCH_ROWS = 10_000
GROWTH_SIZES = (30, 300, 3_000)
# Length of y relative to x in the unequal-length cases.
UNEQUAL = 0.8


def _q_tol(m1, m2, m3) -> float:
    """Tolerance for a float Q from the sums M1, M2, M3 over both vectors.

    Rounding moves s1 by about eps * M1 and s2 by about eps * M2, so Q
    moves by about eps * M1 * M2 / M3; the factor 1e-10 leaves room.
    """
    return 1e-10 * float(m1) * float(m2) / float(m3)


class QuotientBulk(Workload):
    name = "quotient_bulk"
    pass_seconds = 3.2

    def passes(self):
        rng = np.random.default_rng(self.seed)
        while True:
            # Half the slots of each kind take unequal lengths, the same
            # slots in every pass.
            ops = []
            for j, n in enumerate(FLOAT_SIZES):
                for as_list in (False, True):
                    ops.append(self._float_op(rng, jittered(rng, n), (j + as_list) % 2, as_list))
            for j, n in enumerate(EXACT_SIZES):
                for frac in (False, True):
                    ops.append(self._exact_op(rng, jittered(rng, n), (j + frac) % 2, frac))
            for n in ORDERED_FLOAT_SIZES:
                ops.append(self._ordered_op(rng, jittered(rng, n), exact=False))
            for n in ORDERED_EXACT_SIZES:
                ops.append(self._ordered_op(rng, jittered(rng, n), exact=True))
            for j, n in enumerate(BATCH_WIDTHS):
                ops.append(self._batch_op(rng, jittered(rng, n), j % 2))
            for j, n in enumerate(GROWTH_SIZES):
                ops.append(self._growth_op(jittered(rng, n), j % 2 == 1))
            yield ops

    def _float_op(self, rng, n_x, unequal, as_list):
        psq = self.psq

        def prepare():
            n_y = round(UNEQUAL * n_x) if unequal else n_x
            x = 10.0 ** rng.uniform(-2.0, 0.0, n_x)
            y = 10.0 ** rng.uniform(-2.0, 0.0, n_y)
            ref = [np.sum(x) - np.sum(y), np.sum(y * y) - np.sum(x * x), np.sum(x ** 3) + np.sum(y ** 3)]
            scale = [np.sum(x) + np.sum(y), np.sum(x * x) + np.sum(y * y), ref[2]]
            tol = _q_tol(scale[0], scale[1], scale[2])
            args = (x.tolist(), y.tolist()) if as_list else (x, y)

            def check(res, t: Tally):
                ok = all(abs(float(a) - float(r)) <= 1e-12 * float(sc) for a, r, sc in zip((res.s1, res.s2, res.s3), ref, scale))
                t.check("quotient.sums_match_reference", ok, f"n=({n_x}, {n_y}): sums off")
                t.check(
                    "quotient.value_consistent",
                    abs(res.value - res.s1 * res.s2 / res.s3) <= tol and res.value < C_STAR * max(n_x, n_y),
                    f"n=({n_x}, {n_y}): value {res.value!r}",
                )

            return Prepared(lambda: psq.quotient_q(*args), check, entries=n_x + n_y)

        return Op("quotient_q.float", prepare)

    def _exact_op(self, rng, n_x, unequal, frac):
        psq = self.psq

        def prepare():
            n_y = round(UNEQUAL * n_x) if unequal else n_x
            kx = rng.integers(1, 1001, n_x)
            ky = rng.integers(1, 1001, n_y)
            den = int(rng.integers(2, 98)) if frac else 1
            if frac:
                x = [Fraction(int(v), den) for v in kx]
                y = [Fraction(int(v), den) for v in ky]
            else:
                x, y = [int(v) for v in kx], [int(v) for v in ky]

            def psum(v, p):
                return sum(int(e) ** p for e in v.tolist())

            ref_s1 = Fraction(psum(kx, 1) - psum(ky, 1), den)
            ref_s2 = Fraction(psum(ky, 2) - psum(kx, 2), den ** 2)
            ref_s3 = Fraction(psum(kx, 3) + psum(ky, 3), den ** 3)

            def check(res, t: Tally):
                ok = (
                    isinstance(res.value, (int, Fraction))
                    and (res.s1, res.s2, res.s3) == (ref_s1, ref_s2, ref_s3)
                    and res.value == ref_s1 * ref_s2 / ref_s3
                )
                t.check("quotient.exact_matches_reference", ok, f"n=({n_x}, {n_y}) den={den}")

            return Prepared(lambda: psq.quotient_q(x, y), check, entries=n_x + n_y)

        return Op("quotient_q.exact", prepare)

    def _ordered_op(self, rng, m, exact):
        psq = self.psq

        def prepare():
            if exact:
                den = int(rng.integers(2, 98))
                kx = rng.integers(1, 1001, m)
                kd = rng.integers(0, 200, m)
                x = [Fraction(int(a), den) for a in kx]
                y = [Fraction(int(a + b), den) for a, b in zip(kx, kd)]
            else:
                xa = 10.0 ** rng.uniform(-2.0, 0.0, m)
                ya = xa * (1.0 + rng.uniform(0.0, 0.5, m))
                x, y = xa.tolist(), ya.tolist()

            def check(v, t: Tally):
                t.check("quotient.ordered_nonpositive", v <= 0.0, f"n={m}: Q = {v!r}")

            return Prepared(lambda: psq.q_ordered_nonpositive(x, y), check, entries=2 * m)

        return Op("q_ordered_nonpositive", prepare)

    def _batch_op(self, rng, n, extra):
        psq = self.psq

        def prepare():
            xs = 10.0 ** rng.uniform(-3.0, 3.0, (BATCH_ROWS, n))
            ys = 10.0 ** rng.uniform(-3.0, 3.0, (BATCH_ROWS, n + extra))
            rows = rng.choice(BATCH_ROWS, 16, replace=False)

            def check(vals, t: Tally):
                ok = vals.shape == (BATCH_ROWS,) and bool(np.all(vals < C_STAR * (n + extra)))
                for r in rows:
                    x, y = xs[r], ys[r]
                    q = float(q_exact_grouped(x.tolist(), y.tolist()))
                    tol = _q_tol(np.sum(x) + np.sum(y), np.sum(x * x) + np.sum(y * y), np.sum(x ** 3) + np.sum(y ** 3))
                    ok = ok and abs(float(vals[r]) - q) <= tol
                t.check("quotient.batch_matches_exact", ok, f"batch n={n}+{extra}")

            return Prepared(lambda: psq.quotient_q_batch(xs, ys), check, entries=xs.size + ys.size)

        return Op("quotient_q_batch", prepare)

    def _growth_op(self, n, extra):
        psq = self.psq

        def call():
            x, y = psq.witness_vectors(n, extra_component=extra)
            return x, y, psq.quotient_q(x, y)

        def check(out, t: Tally):
            x, y, res = out
            exact = q_exact_grouped(x, y)
            t.check(
                "growth.q_in_range",
                0.0 < res.value < C_STAR * max(len(x), len(y))
                and abs(res.value - float(exact)) <= 1e-9 * max(1.0, abs(float(exact))),
                f"n={n}: Q = {res.value!r}, exact {float(exact)!r}",
            )

        return Op("growth_pair", lambda: Prepared(call, check, entries=2 * n + extra))


# --------------------------------------------------------------------
# general_search

GENERAL_DIMS = tuple(range(3, 13))
# Two perturbed matrices per d, so the median operation falls inside
# their cluster of latencies rather than at a boundary between kinds.
GENERAL_KINDS = ("perturbed", "perturbed", "dominant", "above_witness")
# Criterion 7's oracle settings, on the balanced and near-balanced
# shapes up to (4, 4): the splits that b_d is taken over.
ORACLE_STARTS, ORACLE_SEED = 64, 7
ORACLE_SHAPES = ((2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4))


def _m_d(d: int, b: float) -> np.ndarray:
    m = np.full((d, d), b)
    np.fill_diagonal(m, 1.0)
    return m


def refuting_probe(m, entries, rng, n_probe: int = 64):
    """A (z, s) with exactly negative Psi among random probes, or None.

    Float Psi screens log-uniform z against random sign patterns; a
    negative float value is confirmed in exact arithmetic.  rng must not
    be the input stream: checks run only on some verdicts, and inputs
    must not depend on the verdicts.
    """
    d = m.shape[0]
    z = 10.0 ** rng.uniform(-2.0, 2.0, (n_probe, d))
    s = rng.choice((-1.0, 1.0), (n_probe, d))
    diag = np.diag(m)
    off = m - np.diag(diag)
    vals = (z ** 3) @ diag + np.einsum("pi,ij,pj->p", s * z, off, s * z * z)
    for p in np.flatnonzero(vals < 0.0):
        if psi_exact(entries, z[p].tolist(), s[p].tolist()) < 0:
            return z[p].tolist(), s[p].tolist()
    return None


class GeneralSearch(Workload):
    name = "general_search"
    pass_seconds = 4.0

    def __init__(self, psq, seed, root):
        super().__init__(psq, seed, root)
        # Untimed references: thresholds, exact one-minus thresholds, sup_q.
        self.b_d = {d: float(psq.compute_bd(d).b_d) for d in GENERAL_DIMS}
        self.t_one_minus = {d: one_minus_threshold(d) for d in GENERAL_DIMS}
        self.sup = {s: psq.sup_q(*s).sup_value for s in ORACLE_SHAPES}

    def passes(self):
        rng = np.random.default_rng(self.seed)
        while True:
            ops = [self._certify_op(rng, d, kind) for d in GENERAL_DIMS for kind in GENERAL_KINDS]
            ops.append(self._certify_op(rng, 16, "m16"))
            ops += [self._oracle_op(s) for s in ORACLE_SHAPES]
            yield ops

    def _matrix(self, rng, d, kind):
        if kind == "m16":
            return _m_d(16, 0.3), None
        if kind == "perturbed":
            b = min(self.b_d[d], float(self.t_one_minus[d])) * rng.uniform(0.5, 0.9)
            return _m_d(d, b) + rng.normal(0.0, 0.005 * b, (d, d)), None
        if kind == "dominant":
            m = rng.uniform(-1.0, 1.0, (d, d))
            np.fill_diagonal(m, 0.0)
            diag = 1.0 + rng.uniform(0.0, 0.5, d)
            m *= rng.uniform(0.5, 0.95) * diag.min() / np.abs(m).sum()
            np.fill_diagonal(m, diag)
            return m, None
        t = float(self.t_one_minus[d])
        b = min(1.0, t + (1.0 - t) * rng.uniform(0.05, 0.95))
        held = one_minus_witness(d, b)
        if held is None:
            raise RuntimeError(f"no held witness for M_{d}({b!r})")
        return _m_d(d, b), held

    def _certify_op(self, rng, d, kind):
        psq = self.psq

        def prepare():
            m, held = self._matrix(rng, d, kind)
            entries = m.tolist()

            def check(rep, t: Tally):
                if rep.verdict == "nonmember":
                    w = rep.witness
                    ok = w is not None and psi_exact(entries, w.z, w.s) < 0
                    t.check("witness.exact_psi_negative", ok, f"{kind} d={d}: witness not confirmed exactly")
                elif rep.verdict == "member_certified":
                    if held is not None:
                        t.check(
                            "general.no_member_above_held_witness",
                            False,
                            f"M_{d}: certified, yet Psi = {float(held[1]):.4g} at gamma = {held[0]}",
                        )
                    bad = refuting_probe(m, entries, np.random.default_rng([self.seed, d]))
                    t.check(
                        "general.member_not_refuted",
                        bad is None,
                        f"{kind} d={d}: certified, yet Psi < 0 at {bad!r}",
                    )

            return Prepared(lambda: psq.certify_general(m), check, verdict_op=True)

        return Op(f"certify_general.{kind}", prepare)

    def _oracle_op(self, shape):
        psq = self.psq
        n_x, n_y = shape

        def check(res, t: Tally):
            t.check(
                "oracle.agrees_with_sup_q",
                abs(res.best_value - self.sup[shape]) <= 1e-5,
                f"{shape}: oracle {res.best_value!r} vs sup_q {self.sup[shape]!r}",
            )
            x, y = np.array(res.best_x), np.array(res.best_y)
            q = (x.sum() - y.sum()) * ((y * y).sum() - (x * x).sum()) / ((x ** 3).sum() + (y ** 3).sum())
            t.check(
                "oracle.value_matches_point",
                res.n_starts >= ORACLE_STARTS and abs(q - res.best_value) <= 1e-9 * max(1.0, abs(q)),
                f"{shape}: best_value {res.best_value!r}, Q(point) {q!r}",
            )

        return Op(
            "brute_force_sup",
            lambda: Prepared(
                lambda: psq.brute_force_sup(n_x, n_y, n_starts=ORACLE_STARTS, seed=ORACLE_SEED, n_jobs=1),
                check,
            ),
        )


# --------------------------------------------------------------------
# cli_cold

CLI_SUBCOMMANDS = ("table1", "table2", "bd", "certify", "sup-q", "witness", "eval-q", "verify")


def _fractions_arg(rng, n):
    nums = rng.integers(1, 50, n)
    dens = rng.integers(1, 20, n)
    return [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]


class CliCold(Workload):
    """A fresh `python -m psq.cli` process per request."""

    name = "cli_cold"
    pass_seconds = 5.5

    def __init__(self, psq, seed, root):
        super().__init__(psq, seed, root)
        import psq.cli  # noqa: F401  (in-process references use the same code)

        self.tmp = os.path.join(root, ".perfbench_run", f"cli_{seed}")
        os.makedirs(self.tmp, exist_ok=True)
        self.env = child_env(root)
        self.bd = {d: float(psq.compute_bd(d).b_d) for d in range(3, 13)}
        self.t_one_minus = {d: one_minus_threshold(d) for d in range(4, 9)}

    def _run(self, args):
        return subprocess.run(
            [sys.executable, "-m", "psq.cli", *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def passes(self):
        rng = np.random.default_rng(self.seed)
        k = 0
        while True:
            yield [
                self._table_op("table1"),
                self._table_op("table2"),
                self._bd_op(100),
                self._certify_op(6, 0.85),
                self._certify_op(*self._nonmember_case(rng)),
                self._sup_op(jittered(rng, 24), jittered(rng, 24)),
                self._growth_op(10_000),
                self._eval_op(_fractions_arg(rng, int(rng.integers(3, 9))), _fractions_arg(rng, int(rng.integers(3, 9)))),
                self._verify_op(rng, k),
            ]
            k += 1

    def _nonmember_case(self, rng):
        d = int(rng.integers(3, 13))
        return d, min(1.0, self.bd[d] * rng.uniform(1.02, 1.1))

    def _op(self, sub, args, check):
        def call():
            return self._run(args)

        def checked(proc, t: Tally):
            try:
                check(proc, t)
            except (ValueError, KeyError, IndexError, TypeError) as e:
                t.check("cli.output_parses", False, f"{sub}: {e!r}; stderr {proc.stderr[-300:]!r}")

        return Op(f"cli.{sub}", lambda: Prepared(call, checked))

    def _table_op(self, which):
        rows = [r.to_json_dict() for r in getattr(self.psq, f"{which}_rows")()]
        keys = list(rows[0])

        def check(proc, t: Tally):
            t.check("cli.exit_code", proc.returncode == 0, f"{which}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()[1:]
            got = [[float(v) for v in line.split()] for line in lines]
            want = [[float(f"{r[c]:.3f}") if c != "d" else float(r[c]) for c in keys] for r in rows]
            t.check("cli.json_matches_in_process", got == want, f"{which}: {got!r} != {want!r}")

        return self._op(which, [which], check)

    def _bd_op(self, d):
        want = json.loads(json.dumps(self.psq.compute_bd(d).to_json_dict()))

        def check(proc, t: Tally):
            t.check("cli.exit_code", proc.returncode == 0, f"bd: exit {proc.returncode}")
            got = json.loads(proc.stdout)
            t.check("cli.json_matches_in_process", got == want, f"bd --d {d}")
            t.check(
                "bd.lower_bound_le_bd",
                got["lower_bound"] <= got["b_d"],
                f"cli bd d={d}",
                known=lower_bound_defect_applies(d),
            )

        return self._op("bd", ["bd", "--d", str(d)], check)

    def _certify_op(self, d, b):
        rep = self.psq.membership_equal_offdiag(d, b)
        want = json.loads(json.dumps(rep.to_json_dict()))

        def check(proc, t: Tally):
            got = json.loads(proc.stdout)
            code = {"member_certified": 0, "nonmember": 1}.get(got["verdict"], 3)
            t.check("cli.exit_code", proc.returncode == code, f"certify: exit {proc.returncode} for {got['verdict']}")
            t.check("cli.json_matches_in_process", got == want, f"certify --d {d} --b {b!r}")
            w = got["witness"]
            check_membership(
                SimpleNamespace(
                    verdict=got["verdict"],
                    b_d=got["b_d"],
                    margin=got["margin"],
                    witness=SimpleNamespace(z=w["z"], s=w["s"]) if w else None,
                ),
                d,
                b,
                t,
            )

        return self._op("certify", ["certify", "--d", str(d), "--b", repr(b)], check)

    def _sup_op(self, n_x, n_y):
        res = self.psq.sup_q(n_x, n_y)
        c = res.maximizing_config
        want = {"n_x": n_x, "n_y": n_y, "sup": res.sup_value}
        want_cfg = {"i": c.i, "m": c.m, "gamma": c.gamma, "side": c.side, "q_value": c.q_value}

        def check(proc, t: Tally):
            t.check("cli.exit_code", proc.returncode == 0, f"sup-q: exit {proc.returncode}")
            got = json.loads(proc.stdout)
            same = {k: got[k] for k in want} == want and got["config"] == want_cfg
            t.check("cli.json_matches_in_process", same, f"sup-q --nx {n_x} --ny {n_y}")
            t.check(
                "sup_q.below_growth_bound",
                0.0 <= got["sup"] < C_STAR * max(n_x, n_y),
                f"cli sup-q ({n_x}, {n_y}) = {got['sup']!r}",
            )

        return self._op("sup-q", ["sup-q", "--nx", str(n_x), "--ny", str(n_y)], check)

    def _growth_op(self, n):
        x, y = self.psq.witness_vectors(n)
        q = float(self.psq.quotient_q(x, y).value)

        def check(proc, t: Tally):
            t.check("cli.exit_code", proc.returncode == 0, f"witness: exit {proc.returncode}")
            got = json.loads(proc.stdout)
            t.check(
                "cli.json_matches_in_process",
                got["x"] == x and got["y"] == y and got["q"] == q,
                f"witness --growth-n {n}",
            )
            t.check("growth.q_in_range", 0.0 < got["q"] < C_STAR * n, f"cli witness n={n}: {got['q']!r}")

        return self._op("witness", ["witness", "--growth-n", str(n)], check)

    def _eval_op(self, x, y):
        exact = q_exact_grouped(x, y)

        def check(proc, t: Tally):
            t.check("cli.exit_code", proc.returncode == 0, f"eval-q: exit {proc.returncode}")
            got = json.loads(proc.stdout)
            res = self.psq.quotient_q(x, y)
            want = {"value": float(res.value), "s1": float(res.s1), "s2": float(res.s2), "s3": float(res.s3)}
            t.check("cli.json_matches_in_process", {k: got[k] for k in want} == want, "eval-q")
            t.check(
                "cli.eval_q_exact",
                got["exact"] is not None and Fraction(got["exact"]) == exact,
                f"eval-q exact {got['exact']!r} != {exact}",
            )

        args = ["eval-q", "-x", ",".join(map(str, x)), "-y", ",".join(map(str, y))]
        return self._op("eval-q", args, check)

    def _verify_op(self, rng, k):
        """Verify a benchmark-held one-minus witness for M_d(b)."""
        d = int(rng.integers(4, 9))
        t_d = float(self.t_one_minus[d])
        b = min(1.0, t_d + (1.0 - t_d) * rng.uniform(0.05, 0.5))
        gamma, _ = one_minus_witness(d, b)
        z = [1.0] + [float(gamma)] * (d - 1)
        s = [-1] + [1] * (d - 1)
        exact = psi_exact_offdiag(b, z, s)
        m_path = os.path.join(self.tmp, f"matrix_{k}.json")
        w_path = os.path.join(self.tmp, f"witness_{k}.json")
        with open(m_path, "w") as fh:
            json.dump({"d": d, "b": b}, fh)
        with open(w_path, "w") as fh:
            json.dump({"z": z, "s": s}, fh)
        want = float(self.psq.psi(_m_d(d, b), z, s))

        def check(proc, t: Tally):
            got = json.loads(proc.stdout)
            t.check("cli.exit_code", proc.returncode == (0 if got["confirmed"] else 1), f"verify: exit {proc.returncode}")
            t.check("cli.json_matches_in_process", got == {"psi": want, "confirmed": want < 0.0}, "verify")
            t.check("cli.verify_matches_exact", got["confirmed"] == (exact < 0), f"verify M_{d}({b!r}): exact {float(exact)!r}")

        return self._op("verify", ["verify", "--matrix", m_path, "--witness", w_path], check)


WORKLOADS = {w.name: w for w in (CliCold, ThresholdSweep, QuotientBulk, GeneralSearch)}

"""Benchmark of the psq package: four closed-loop workloads.

Run from the root of a checkout that holds src/psq and BENCHMARK.json:

    python3 perfbench/run.py --workload threshold_sweep --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --all --seed 1

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds
the per-layer metrics instead, from a run whose first half is untraced
and whose second half wraps every public psq function in a span.  The
line before it is a JSON `detail` object: per-check counts, known
defects, the tail percentile and sample count, and the machine set-up.
--all runs every workload in its own process and prints a table.

Exit code 2 when the checkout has no psq sources or BENCHMARK.json.
"""

from __future__ import annotations

import ctypes
import os

# Pin native thread pools before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

# glibc moves its mmap and trim thresholds after each free of a large
# block, so the time of a call that allocates multi-megabyte temporaries
# depends on what ran before it: certify_general on M_16(0.3) took 2.2 s
# or 4.5 s within one process.  Fixed thresholds remove that dependence,
# as fixed thread counts remove another.  Children read the environment
# variables; this process sets the same values with mallopt.
MALLOC_PINS = {  # mallopt parameter: (environment variable, value)
    -3: ("MALLOC_MMAP_THRESHOLD_", 32 * 1024 * 1024),
    -1: ("MALLOC_TRIM_THRESHOLD_", 64 * 1024 * 1024),
}
for _var, _value in MALLOC_PINS.values():
    os.environ[_var] = str(_value)


def pin_allocator() -> bool:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return False
    return all(mallopt(param, value) == 1 for param, (_, value) in MALLOC_PINS.items())


ALLOCATOR_PINNED = pin_allocator()

import argparse
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# The benchmark's own modules; the script's directory is on sys.path.
from checks import KNOWN_DEFECTS, Tally
from probe import CALIBRATION_REF_S, WARMUPS, calibrate
from tracer import ANNOTATE, Tracer
from workloads import CLI_SUBCOMMANDS, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
SETUP_REPEATS = 3
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SRC_MODULES = ("__init__", "power_sums", "structured", "cone", "oracle", "tables", "cli")


def load_spec() -> dict:
    """BENCHMARK.json, with the self-check that every metric name is well formed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    if bad or len(set(names)) != len(names):
        raise ValueError(f"malformed or repeated metric names: {bad or names}")
    return spec


# --------------------------------------------------------------------
# Set-up probes


def run_probe(module: str, warmup: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "--module", module, "--warmup", warmup],
        cwd=ROOT,
        env=child_env(str(ROOT)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------
# Measurement


@dataclass
class Stats:
    """Latencies of one measured stretch, by slot of the pass.

    Latencies are in reference seconds (see probe.calibrate).  Every
    pass runs the same slots, so the passes repeat each slot with fresh
    inputs of the same nominal size.  slot_latencies() replaces each
    latency by the median of its slot over the passes, so a slow-down
    that hits a single pass moves the metrics little.
    """

    by_slot: list = field(default_factory=list)
    by_kind: dict = field(default_factory=lambda: defaultdict(list))
    raw_busy_s: float = 0.0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    entries: int = 0
    verdicts: int = 0
    definite: int = 0

    def slot_latencies(self) -> list:
        return [statistics.median(v) for v in self.by_slot for _ in v]

    @property
    def busy_s(self) -> float:
        return sum(sum(v) for v in self.by_slot)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / sum(self.slot_latencies())


def measure(workload, seconds: float, tally, min_passes: int, tracer=None) -> Stats:
    """Run whole passes: about `seconds` of timed calls, at least min_passes.

    The pass count comes from the workload's nominal pass time, not from
    the clock, so that it does not change with the machine's speed: the
    tail percentile and the slot medians then rest on the same sample
    structure in every run.
    """
    st = Stats()
    n_passes = max(min_passes, round(seconds / workload.pass_seconds))
    for ops in workload.passes():
        for slot, op in enumerate(ops):
            prep = op.prepare()
            tally.start_op()
            if tracer is not None:
                tracer.begin_op(st.attempted)
            k0 = calibrate()
            t0 = time.perf_counter()
            try:
                result, err = prep.call(), None
            except Exception as e:  # a raising op is a failed op, not a failed run
                result, err = None, e
            raw = time.perf_counter() - t0
            dt = raw * CALIBRATION_REF_S / (0.5 * (k0 + calibrate()))
            st.raw_busy_s += raw
            if tracer is not None:
                tracer.end_op()
            if err is not None:
                tally.check("op.no_exception", False, f"{op.kind}: {err!r}")
            else:
                try:
                    prep.check(result, tally)
                except Exception as e:  # malformed output fails the op
                    tally.check("op.output_well_formed", False, f"{op.kind}: {e!r}")
            st.attempted += 1
            st.failed += tally.end_op()
            if slot == len(st.by_slot):
                st.by_slot.append([])
            st.by_slot[slot].append(dt)
            st.by_kind[op.kind].append(dt)
            st.entries += prep.entries
            if prep.verdict_op and err is None:
                st.verdicts += 1
                st.definite += getattr(result, "verdict", "inconclusive") != "inconclusive"
        st.passes += 1
        if st.passes == n_passes:
            return st


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --------------------------------------------------------------------
# Per-layer metrics from spans


def _p50_ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans) -> dict:
    by = defaultdict(list)
    for s in spans:
        # A call that raised carries no attributes; its op counts as failed.
        if s.attrs or s.name not in ANNOTATE:
            by[s.name].append(s)

    def self_s(name):
        return sum(s.self_s for s in by[name])

    def dur(spans_):
        return sum(s.t1 - s.t0 for s in spans_)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}
    for fn in ("table1_rows", "table2_rows"):
        calls = by[f"tables.{fn}"]
        m[f"tables.{fn}.self_ms"] = per(self_s(f"tables.{fn}"), len(calls), 1e3)

    sup = by["structured.sup_q"]
    m["structured.sup_q.calls"] = len(sup)
    m["structured.sup_q.self_s"] = self_s("structured.sup_q")
    m["structured.sup_q.us_per_dim"] = per(dur(sup), sum(s.attrs["dims"] for s in sup), 1e6)
    m["structured.positivity_witness.self_s"] = self_s("structured.positivity_witness")

    q = by["power_sums.quotient_q"]
    m["power_sums.quotient_q.calls"] = len(q)
    m["power_sums.quotient_q.self_s"] = self_s("power_sums.quotient_q")
    for kind, exact in (("float", False), ("exact", True)):
        part = [s for s in q if s.attrs["exact"] == exact]
        m[f"power_sums.quotient_q.{kind}_ns_per_entry"] = per(dur(part), sum(s.attrs["entries"] for s in part), 1e9)
    qb = by["power_sums.quotient_q_batch"]
    m["power_sums.quotient_q_batch.ns_per_entry"] = per(dur(qb), sum(s.attrs["entries"] for s in qb), 1e9)
    m["power_sums.validate_positive_vector.self_s"] = self_s("power_sums.validate_positive_vector")

    m["cone.compute_bd.self_s"] = self_s("cone.compute_bd")
    mem = by["cone.membership_equal_offdiag"]
    m["cone.membership_equal_offdiag.self_s"] = self_s("cone.membership_equal_offdiag")
    for verdict in ("member_certified", "nonmember", "inconclusive"):
        m[f"cone.membership_equal_offdiag.{verdict}"] = sum(s.attrs["verdict"] == verdict for s in mem)
    m["cone.psi.self_s"] = self_s("cone.psi")
    cg = by["cone.certify_general"]
    evals = sum(s.attrs["psi_evals"] for s in cg)
    m["cone.certify_general.self_s"] = self_s("cone.certify_general")
    m["cone.certify_general.psi_evals"] = evals
    m["cone.certify_general.psi_evals_per_s"] = per(evals, dur(cg))
    m["cone.certify_general.definite_frac"] = per(sum(s.attrs["verdict"] != "inconclusive" for s in cg), len(cg))
    m["cone.sample_membership_general.self_s"] = self_s("cone.sample_membership_general")

    orc = by["oracle.brute_force_sup"]
    starts = sum(s.attrs["starts"] for s in orc)
    m["oracle.brute_force_sup.calls"] = len(orc)
    m["oracle.brute_force_sup.self_s"] = self_s("oracle.brute_force_sup")
    m["oracle.brute_force_sup.starts"] = starts
    m["oracle.brute_force_sup.ms_per_start"] = per(dur(orc), starts, 1e3)
    m["oracle.brute_force_sup.converged_fraction"] = per(sum(s.attrs["converged"] for s in orc), starts)
    return m


def src_lines() -> dict:
    pkg = SRC / "psq"
    out = {}
    for mod in SRC_MODULES:
        f = pkg / f"{mod}.py"
        out[f"src_lines.{mod}"] = len(f.read_text().splitlines()) if f.is_file() else 0
    out["src_lines.total"] = sum(len(f.read_text().splitlines()) for f in pkg.rglob("*.py"))
    return out


# --------------------------------------------------------------------
# One workload


def environment() -> dict:
    import numpy
    import scipy
    from importlib.metadata import version

    # The ceiling keeps git from looking above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.resolve().parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        sha = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "git_sha": sha,
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "malloc_pinned": {var: value for var, value in MALLOC_PINS.values()} if ALLOCATOR_PINNED else None,
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    cli = name == "cli_cold"
    setup_module = "psq.cli" if cli else "psq"
    setup = [run_probe(setup_module, name) for _ in range(SETUP_REPEATS)]
    other = None
    if trace:
        other = [run_probe("psq" if cli else "psq.cli", name) for _ in range(SETUP_REPEATS)]

    import psq

    if Path(psq.__file__).resolve().parent != (SRC / "psq").resolve():
        raise RuntimeError(f"imported psq from {psq.__file__}, not from {SRC}")
    WARMUPS[name](psq)
    workload = WORKLOADS[name](psq, seed, str(ROOT))
    tally = Tally()
    detail = {"workload": name, "seed": seed, "trace": int(trace), "env": environment()}

    if not trace:
        st = measure(workload, seconds, tally, min_passes=3)
        lat = st.slot_latencies()
        tail_s, tail_pct = tail(lat)
        metrics = {
            "setup_s": statistics.median(p["setup_s"] * CALIBRATION_REF_S / p["calib_s"] for p in setup),
            "ops_per_s": st.ops_per_s,
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * tail_s,
            "pass_frac": (st.attempted - st.failed) / st.attempted,
            "peak_rss_mb": peak_rss_mb(children=cli),
        }
        declared = spec["end_to_end"]
    else:
        st = measure(workload, seconds / 2.0, tally, min_passes=2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, seconds / 2.0, tally, min_passes=2, tracer=tracer)
        finally:
            tracer.uninstall()
        tail_pct = None
        imports = {setup_module: setup, ("psq" if cli else "psq.cli"): other}
        metrics = {
            "import.psq_s": statistics.median(p["import_s"] * CALIBRATION_REF_S / p["calib_s"] for p in imports["psq"]),
            "import.psq_cli_s": statistics.median(
                p["import_s"] * CALIBRATION_REF_S / p["calib_s"] for p in imports["psq.cli"]
            ),
            "import.scipy_optimize_loaded": int(any(p["scipy_optimize_loaded"] for p in imports["psq.cli"])),
        }
        for sub in CLI_SUBCOMMANDS:
            metrics[f"cli.{sub}.p50_ms"] = _p50_ms(st.by_kind[f"cli.{sub}"] + traced.by_kind[f"cli.{sub}"])
        metrics.update(layer_metrics(tracer.spans))
        metrics.update(src_lines())
        metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s / st.ops_per_s
        metrics["workload.entries_per_s"] = st.entries / st.busy_s
        metrics["workload.certified_frac"] = st.definite / st.verdicts if st.verdicts else 0.0
        for check in ("witness.exact_psi_negative", "member.one_minus_probe", "bd.lower_bound_le_bd",
                      "bd.nonincreasing_in_d", "oracle.agrees_with_sup_q", "cli.json_matches_in_process"):
            metrics[f"fail.{check}"] = tally.failed[check]
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans_{name}_seed{seed}.jsonl")
        st.attempted += traced.attempted
        st.failed += traced.failed
        declared = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    detail.update(
        {
            "n_ops": st.attempted,
            "passes": st.passes,
            "op_tail_percentile": tail_pct,
            "fail_frac": st.failed / st.attempted,
            "fail_frac_by_check": {c: n / st.attempted for c, n in sorted(tally.failed.items())},
            "entries_per_s": st.entries / st.busy_s,
            "raw_ops_per_s": st.attempted / st.raw_busy_s,
            "raw_setup_s": statistics.median(p["setup_s"] for p in setup),
            "by_kind": {
                k: {"n": len(v), "p50_ms": _p50_ms(v), "busy_s": sum(v)} for k, v in sorted(st.by_kind.items())
            },
            "certified_frac": st.definite / st.verdicts if st.verdicts else None,
            "checks": tally.summary(),
            "known_defects": {c: KNOWN_DEFECTS[c] for c in sorted(tally.known)},
        }
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": tally.unexpected == 0,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------
# Every workload


def run_all(spec: dict, seed: int, seconds: float, trace: int) -> int:
    status = 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{w['name']}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            status = 1
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        print(f"== {w['name']}  correct={result['correct']}  attempted={result['attempted']}  failed={result['failed']}")
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        if not trace:
            rows.append(("fail_frac", detail["fail_frac"], "ratio"))
            if w["name"] == "quotient_bulk":
                rows.append(("entries_per_s", detail["entries_per_s"], "1/s"))
            if w["name"] == "general_search":
                rows.append(("certified_frac", detail["certified_frac"], "ratio"))
        for k, v, unit in rows:
            print(f"  {k:48s} {v:>16.6g} {unit}")
        if not trace:
            print(f"  op_tail = p{detail['op_tail_percentile']:.1f} of n = {detail['n_ops']}")
        for check, frac in detail["fail_frac_by_check"].items():
            print(f"  fail_frac[{check}] = {frac:.4f}")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload and print a table")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "psq" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: run from a checkout with src/psq and BENCHMARK.json (cwd {ROOT})", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.all:
        return run_all(spec, args.seed, seconds, args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(spec, args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

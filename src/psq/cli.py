"""Command line interface.

Exit codes are uniform across subcommands:

    0   success; for certify, membership certified; for verify, the
        witness is confirmed; for witness, a pair exists
    1   definite negative: nonmember, witness not confirmed, or no
        positive-quotient pair exists
    2   usage or validation error
    3   inconclusive

Each subcommand's handler returns its exit code.  main is the one error
boundary and the only place that exits: it maps a ValueError raised
below a handler, by the CLI or the library, to a usage error (exit 2)
with the subcommand's usage line instead of a traceback.

Numeric JSON output keeps full precision (floats round-trip through
repr); the table subcommands print cells truncated at three decimals,
matching the stored row values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

# Handlers call public names on the package, whose lazy namespace loads a module on its first use.
import psq

__all__ = ["main"]


def _write_json(doc, json_path):
    if json_path:
        try:
            with open(json_path, "w") as fh:
                json.dump(doc, fh)
                fh.write("\n")
        except OSError as e:
            raise ValueError(f"cannot write JSON file {json_path!r}: {e}") from None


def _emit(doc, json_path):
    _write_json(doc, json_path)
    try:
        print(json.dumps(doc, indent=2), flush=True)
    except BrokenPipeError:
        # The reader closed stdout early: what is left, and the flush at exit, go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _parse_entries(tokens):
    out = []
    for tok in tokens:
        for part in tok.split(","):
            part = part.strip()
            if not part:
                raise ValueError(f"empty entry in {tok!r}")
            try:
                if "/" in part:
                    out.append(Fraction(part))
                else:
                    try:
                        out.append(int(part))
                    except ValueError:
                        out.append(float(part))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"cannot parse entry {part!r}") from None
    return out


def _float_or_none(v):
    """float(v), or None when an exact value lies beyond float range."""
    try:
        return float(v)
    except OverflowError:
        return None


def eval_q(args):
    """Evaluate Q(x, y) = (M1(x) - M1(y)) (M2(y) - M2(x)) / (M3(x) + M3(y)).

    When every entry is an integer or a fraction the quotient is
    computed exactly and reported alongside the float value; a float
    field whose exact value lies beyond float range is null.
    """
    res = psq.quotient_q(_parse_entries(args.x), _parse_entries(args.y))
    v = res.value
    doc = {k: _float_or_none(getattr(res, k)) for k in ("value", "s1", "s2", "s3")}
    doc["exact"] = f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else None
    _emit(doc, args.json)
    return 0


def sup_q_cmd(args):
    """Supremum of Q over positive orthants of dimensions (nx, ny)."""
    res = psq.sup_q(args.nx, args.ny)
    doc = {
        "n_x": res.n_x,
        "n_y": res.n_y,
        "sup": res.sup_value,
        "attained": res.attained,
        "config": res.maximizing_config._asdict(),
    }
    _emit(doc, args.json)
    return 0


def bd_cmd(args):
    """Threshold b_d = 1 / (1 + sup Q over the balanced split of d)."""
    _emit(psq.compute_bd(args.d).to_json_dict(), args.json)
    return 0


def _table(rows, json_path, **columns):
    """Write rows to json_path, then print d and each column (header=field) at 3 decimals."""
    _write_json([r.to_json_dict() for r in rows], json_path)
    print(f"{'d':>4}", *(f"{h:>8}" for h in columns))
    for r in rows:
        print(f"{r.d:>4}", *(f"{getattr(r, f):>8.3f}" for f in columns.values()))
    return 0


def table1_cmd(args):
    """Thresholds for d = 2..6 (cells truncated at 3 decimals)."""
    return _table(psq.table1_rows(), args.json, lower="lower_bound", b_d="b_d")


def table2_cmd(args):
    """Bracket rows for large d (cells truncated at 3 decimals)."""
    try:
        dims = None if args.dims is None else [int(p) for p in args.dims.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"cannot parse --dims {args.dims!r}") from None
    if dims == []:
        raise ValueError(f"--dims names no dimension: {args.dims!r}")
    rows = psq.table2_rows() if dims is None else psq.table2_rows(dims)
    return _table(rows, args.json, lower="lower_bound", upper="witness_upper", asym="asymptotic")


def _load_json_file(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read {what} file {path!r}: {e}") from None


def certify_cmd(args):
    """Decide cone membership.

    Equal-off-diagonal matrices (via --d/--b or a {"d","b"} file) are
    decided exactly against the threshold b_d, with an explicit witness
    on the nonmember side; b within the relative margin 1e-8 b_d of
    b_d is inconclusive.  General matrices get the sufficient
    diagonal-dominance and perturbation certificates (the latter with b
    and the slack under "diagnostics"), then a search of two-level
    vectors, which can only certify non-membership.

    Exit code: 0 member, 1 nonmember, 3 inconclusive.
    """
    inline = args.d is not None or args.b is not None
    if inline == (args.matrix is not None):
        raise ValueError("give either --d and --b, or --matrix, not both")
    if inline and (args.d is None or args.b is None):
        raise ValueError("--d and --b must be given together")
    spec = psq.MatrixSpec(args.d, args.b) if inline else psq.MatrixSpec.from_json_dict(_load_json_file(args.matrix, "matrix"))
    report = psq.membership_equal_offdiag(*spec) if isinstance(spec, psq.MatrixSpec) else psq.certify_general(spec)
    _emit(report.to_json_dict(), args.json)
    return {"member_certified": 0, "nonmember": 1}.get(report.verdict, 3)


def verify_cmd(args):
    """Re-evaluate a stored witness: confirmed when Psi(z, s) < 0.

    Confirmed on the sign of the exact Psi; "psi" is it correctly rounded,
    null beyond float range.  A {"d","b"} file is checked in O(d) from the
    blocks of z, without numpy or a dense matrix.

    Exit code: 0 confirmed, 1 not confirmed.
    """
    from .cone import _psi
    spec_doc = _load_json_file(args.matrix, "matrix")
    wit = _load_json_file(args.witness, "witness")
    if not isinstance(wit, dict) or set(wit) not in ({"z", "s"}, {"z", "s", "psi"}):
        raise ValueError("witness file must hold an object with the keys 'z' and 's' and an optional 'psi'")
    num, den = _psi(psq.MatrixSpec.from_json_dict(spec_doc), wit["z"], wit["s"])
    _emit({"psi": _float_or_none(Fraction(num, den)), "confirmed": num < 0}, args.json)
    return 0 if num < 0 else 1


def witness_cmd(args):
    """Concrete vector pairs: positive-quotient or near-optimal growth.

    Exit code: 0 when a pair is produced, 1 when none exists.
    """
    from .structured import _lists_and_q
    pair_mode = args.nx is not None or args.ny is not None
    if pair_mode == (args.growth_n is not None):
        raise ValueError("give either --nx and --ny, or --growth-n")
    if pair_mode:
        if args.nx is None or args.ny is None:
            raise ValueError("--nx and --ny must be given together")
        if args.extra:
            raise ValueError("--extra goes with --growth-n, not with --nx and --ny")
        w = psq.positivity_witness(args.nx, args.ny)
        if w is None:
            _emit({"exists": False, "n_x": args.nx, "n_y": args.ny}, args.json)
            return 1
        x, y, q = w
        doc = {"exists": True, "x": list(x), "y": list(y), "q": q}
    else:
        x, y, q = _lists_and_q(psq.growth_blocks(args.growth_n, extra_component=args.extra))
        doc = {"x": x, "y": y, "q": q, "n": args.growth_n, "extra": args.extra}
    _emit(doc, args.json)
    return 0


def _parser():
    parser = argparse.ArgumentParser(prog="psq", description="Power-sum quotient optimization and cubic-form positivity.", allow_abbrev=False)
    subs = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, handler):
        p = subs.add_parser(name, help=handler.__doc__.splitlines()[0], description=handler.__doc__, allow_abbrev=False)
        p.add_argument("--json", metavar="PATH", help="Also write the result to this JSON file.")
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("eval-q", eval_q)
    p.add_argument("-x", action="append", required=True, help="Entry of x; repeat or comma-separate. Accepts decimals and fractions like 3/2. Write a value starting with '-' as -x=-1,2.")
    p.add_argument("-y", action="append", required=True, help="Entry of y; same forms as -x, so -y=-1,2.")
    p = command("sup-q", sup_q_cmd)
    p.add_argument("--nx", type=int, required=True, help="Dimension of x.")
    p.add_argument("--ny", type=int, required=True, help="Dimension of y.")
    p = command("bd", bd_cmd)
    p.add_argument("--d", type=int, required=True, help="Matrix dimension, >= 2.")
    command("table1", table1_cmd)
    p = command("table2", table2_cmd)
    p.add_argument("--dims", help="Comma-separated dimensions, each >= 20 (default: psq.tables.DEFAULT_TABLE2_DIMS).")
    p = command("certify", certify_cmd)
    p.add_argument("--d", type=int, help="Dimension of the equal-off-diagonal family.")
    p.add_argument("--b", type=float, help="Off-diagonal value, in [0, 1].")
    p.add_argument("--matrix", metavar="PATH", help="JSON matrix spec: {\"d\": ..., \"b\": ...} or {\"d\": ..., \"entries\": [[...], ...]}.")
    p = command("verify", verify_cmd)
    p.add_argument("--matrix", metavar="PATH", required=True)
    p.add_argument("--witness", metavar="PATH", required=True, help="JSON object with \"z\" and \"s\" arrays, and optionally the \"psi\" that certify --json writes.")
    p = command("witness", witness_cmd)
    p.add_argument("--nx", type=int, help="With --ny: a positive-quotient pair for these dimensions.")
    p.add_argument("--ny", type=int)
    p.add_argument("--growth-n", type=int, help="Near-optimal growth pair for this n instead.")
    p.add_argument("--extra", action="store_true", help="With --growth-n: append one extra 1/n entry to x.")
    return parser


def main(args=None, standalone_mode=True):
    """Run psq on args (default sys.argv[1:]) and exit with the subcommand's
    code, or return it when standalone_mode is false; usage errors exit 2."""
    ns = _parser().parse_args(args)
    try:
        code = ns.handler(ns)
    except ValueError as e:
        ns.parser.error(str(e))
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()

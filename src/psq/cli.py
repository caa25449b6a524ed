"""Command line interface.

Exit codes are uniform across subcommands:

    0   success; for certify, membership certified; for verify, the
        witness is confirmed; for witness, a pair exists
    1   definite negative: nonmember, witness not confirmed, or no
        positive-quotient pair exists
    2   usage or validation error
    3   inconclusive

Every subcommand is a _Command, the one boundary that maps a ValueError
raised below it, by the CLI or the library, to a usage error (exit 2)
with the subcommand's usage line instead of a traceback.

Numeric JSON output keeps full precision (floats round-trip through
repr); the table subcommands print cells truncated at three decimals,
matching the stored row values.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from .cone import (
    MatrixSpec,
    certify_general,
    compute_bd,
    membership_equal_offdiag,
    psi,
)
from .power_sums import _block_power_sums, _quotient, quotient_q
from .structured import growth_blocks, positivity_witness, sup_q, witness_vectors
from .tables import table1_rows, table2_rows

__all__ = ["main"]


def _write_json(doc, json_path):
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def _emit(doc, json_path):
    click.echo(json.dumps(doc, indent=2))
    _write_json(doc, json_path)


def _parse_entries(tokens):
    out = []
    for tok in tokens:
        for part in tok.split(","):
            part = part.strip()
            if not part:
                raise click.UsageError(f"empty entry in {tok!r}")
            try:
                if "/" in part:
                    out.append(Fraction(part))
                else:
                    try:
                        out.append(int(part))
                    except ValueError:
                        out.append(float(part))
            except (ValueError, ZeroDivisionError):
                raise click.UsageError(f"cannot parse entry {part!r}")
    return out


def _float_or_none(v):
    """float(v), or None when an exact value lies beyond float range."""
    try:
        return float(v)
    except OverflowError:
        return None


class _Command(click.Command):
    """A subcommand whose ValueError from validation is a usage error (exit 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as e:
            raise click.UsageError(str(e), ctx) from None


@click.group()
def main():
    """Power-sum quotient optimization and cubic-form positivity."""


main.command_class = _Command


@main.command("eval-q")
@click.option("-x", "x_tokens", multiple=True, required=True, help="Entry of x; repeat or comma-separate. Accepts decimals and fractions like 3/2.")
@click.option("-y", "y_tokens", multiple=True, required=True, help="Entry of y; same forms as -x.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None, help="Also write the result to this JSON file.")
def eval_q(x_tokens, y_tokens, json_path):
    """Evaluate Q(x, y) = (M1(x) - M1(y)) (M2(y) - M2(x)) / (M3(x) + M3(y)).

    When every entry is an integer or a fraction the quotient is
    computed exactly and reported alongside the float value; a float
    field whose exact value lies beyond float range is null.
    """
    x = _parse_entries(x_tokens)
    y = _parse_entries(y_tokens)
    res = quotient_q(x, y)
    exact = None
    if isinstance(res.value, Fraction):
        exact = f"{res.value.numerator}/{res.value.denominator}"
    doc = {k: _float_or_none(getattr(res, k)) for k in ("value", "s1", "s2", "s3")}
    doc["exact"] = exact
    _emit(doc, json_path)


@main.command("sup-q")
@click.option("--nx", type=int, required=True, help="Dimension of x.")
@click.option("--ny", type=int, required=True, help="Dimension of y.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def sup_q_cmd(nx, ny, json_path):
    """Supremum of Q over positive orthants of dimensions (nx, ny)."""
    res = sup_q(nx, ny)
    c = res.maximizing_config
    doc = {
        "n_x": res.n_x,
        "n_y": res.n_y,
        "sup": res.sup_value,
        "attained": res.attained,
        "config": {
            "i": c.i,
            "m": c.m,
            "gamma": c.gamma,
            "side": c.side,
            "q_value": c.q_value,
        },
    }
    _emit(doc, json_path)


@main.command("bd")
@click.option("--d", "d", type=int, required=True, help="Matrix dimension, >= 2.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def bd_cmd(d, json_path):
    """Threshold b_d = 1 / (1 + sup Q over the balanced split of d)."""
    _emit(compute_bd(d).to_json_dict(), json_path)


@main.command("table1")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def table1_cmd(json_path):
    """Thresholds for d = 2..6 (cells truncated at 3 decimals)."""
    rows = table1_rows()
    click.echo(f"{'d':>4} {'lower':>8} {'b_d':>8}")
    for r in rows:
        click.echo(f"{r.d:>4} {r.lower_bound:>8.3f} {r.b_d:>8.3f}")
    _write_json([r.to_json_dict() for r in rows], json_path)


@main.command("table2")
@click.option("--dims", default=None, help="Comma-separated dimensions, each >= 20. Default: 50,100,150,200,300,400,500.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def table2_cmd(dims, json_path):
    """Bracket rows for large d (cells truncated at 3 decimals)."""
    try:
        d_list = None if dims is None else [int(p) for p in dims.split(",") if p.strip()]
    except ValueError:
        raise click.UsageError(f"cannot parse --dims {dims!r}")
    rows = table2_rows() if d_list is None else table2_rows(d_list)
    click.echo(f"{'d':>4} {'lower':>8} {'upper':>8} {'asym':>8}")
    for r in rows:
        click.echo(
            f"{r.d:>4} {r.lower_bound:>8.3f} {r.witness_upper:>8.3f} "
            f"{r.asymptotic:>8.3f}"
        )
    _write_json([r.to_json_dict() for r in rows], json_path)


def _load_json_file(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise click.UsageError(f"cannot read {what} file {path!r}: {e}")


@main.command("certify")
@click.option("--d", "d", type=int, default=None, help="Dimension of the equal-off-diagonal family.")
@click.option("--b", "b", type=float, default=None, help="Off-diagonal value, in [0, 1].")
@click.option("--matrix", "matrix_path", type=click.Path(dir_okay=False), default=None, help="JSON matrix spec: {\"d\": ..., \"b\": ...} or {\"d\": ..., \"entries\": [[...], ...]}.")
@click.option("--samples", type=int, default=200, show_default=True, help="Random probes for general matrices.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def certify_cmd(d, b, matrix_path, samples, seed, json_path):
    """Decide cone membership.

    Equal-off-diagonal matrices (via --d/--b or a {"d","b"} file) are
    decided exactly against the threshold b_d, with an explicit witness
    on the nonmember side; b within a fixed 1e-8 of b_d is
    inconclusive.  General matrices get the sufficient
    diagonal-dominance and perturbation certificates (the latter with b
    and the slack under "diagnostics"), then a randomized violation
    search that can only certify non-membership.

    Exit code: 0 member, 1 nonmember, 3 inconclusive.
    """
    inline = d is not None or b is not None
    if inline == (matrix_path is not None):
        raise click.UsageError("give either --d and --b, or --matrix, not both")
    if inline and (d is None or b is None):
        raise click.UsageError("--d and --b must be given together")
    if inline:
        spec = MatrixSpec.equal_off_diagonal(d, b)
    else:
        spec = MatrixSpec.from_json_dict(_load_json_file(matrix_path, "matrix"))
    if spec.kind == "equal_off_diagonal":
        report = membership_equal_offdiag(spec.d, spec.b)
    else:
        report = certify_general(spec.dense(), n_samples=samples, seed=seed)
    _emit(report.to_json_dict(), json_path)
    sys.exit({"member_certified": 0, "nonmember": 1}.get(report.verdict, 3))


@main.command("verify")
@click.option("--matrix", "matrix_path", type=click.Path(dir_okay=False), required=True)
@click.option("--witness", "witness_path", type=click.Path(dir_okay=False), required=True, help="JSON object with \"z\" and \"s\" arrays.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def verify_cmd(matrix_path, witness_path, json_path):
    """Re-evaluate a stored witness: confirmed when Psi(z, s) < 0.

    Exit code: 0 confirmed, 1 not confirmed.
    """
    spec_doc = _load_json_file(matrix_path, "matrix")
    wit = _load_json_file(witness_path, "witness")
    if not isinstance(wit, dict) or "z" not in wit or "s" not in wit:
        raise click.UsageError("witness file must hold an object with 'z' and 's'")
    val = psi(MatrixSpec.from_json_dict(spec_doc).dense(), wit["z"], wit["s"])
    confirmed = val < 0.0
    _emit({"psi": val, "confirmed": confirmed}, json_path)
    sys.exit(0 if confirmed else 1)


@main.command("witness")
@click.option("--nx", type=int, default=None, help="With --ny: a positive-quotient pair for these dimensions.")
@click.option("--ny", type=int, default=None)
@click.option("--growth-n", type=int, default=None, help="Near-optimal growth pair for this n instead.")
@click.option("--extra", is_flag=True, help="With --growth-n: append one extra 1/n entry to x.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def witness_cmd(nx, ny, growth_n, extra, json_path):
    """Concrete vector pairs: positive-quotient or near-optimal growth.

    Exit code: 0 when a pair is produced, 1 when none exists.
    """
    pair_mode = nx is not None or ny is not None
    if pair_mode == (growth_n is not None):
        raise click.UsageError("give either --nx and --ny, or --growth-n")
    if pair_mode:
        if nx is None or ny is None:
            raise click.UsageError("--nx and --ny must be given together")
        w = positivity_witness(nx, ny)
        if w is None:
            _emit({"exists": False, "n_x": nx, "n_y": ny}, json_path)
            sys.exit(1)
        x, y, q = w
        doc = {"exists": True, "x": list(x), "y": list(y), "q": q}
    else:
        x, y = witness_vectors(growth_n, extra_component=extra)
        q = _quotient(*map(_block_power_sums, growth_blocks(growth_n, extra_component=extra))).value
        doc = {"x": x, "y": y, "q": q, "n": growth_n, "extra": bool(extra)}
    _emit(doc, json_path)


if __name__ == "__main__":
    main()

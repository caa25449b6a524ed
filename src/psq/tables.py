"""Reference tables for the cone threshold b_d.

Cell values are truncated (not rounded) at three decimals, so each
printed cell is a certified lower bound of the underlying quantity.
Table 1 covers small dimensions with the exact threshold; table 2
covers large dimensions, where the threshold lies between the
linear-growth lower bound 1/(1 + c* floor(d/2)) (ceil(d/2) for odd
d >= 7, see growth_lower_bound) and a concrete witness upper bound,
with 2/(c* d) as the asymptotic scale: compute_bd's fields, truncated.
"""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Tuple

from . import _LAZY
from .cone import compute_bd
from .power_sums import _integer

__all__ = _LAZY["tables"]

TABLE1_DIMS: Tuple[int, ...] = (2, 3, 4, 5, 6)
DEFAULT_TABLE2_DIMS: Tuple[int, ...] = (50, 100, 150, 200, 300, 400, 500)


def truncate3(x: float) -> float:
    """Truncate a nonnegative value at the third decimal."""
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"expected a finite nonnegative value, got {x!r}")
    return math.floor(x * 1000.0) / 1000.0


class Table1Row(NamedTuple):
    d: int
    lower_bound: float
    b_d: float

    def to_json_dict(self) -> dict:
        return self._asdict()


class Table2Row(NamedTuple):
    d: int
    lower_bound: float
    witness_upper: float
    asymptotic: float

    def to_json_dict(self) -> dict:
        return self._asdict()


def table1_rows() -> List[Table1Row]:
    """Thresholds and lower bounds for d = 2..6, truncated at 3 decimals."""
    reps = map(compute_bd, TABLE1_DIMS)
    return [Table1Row(d=r.d, lower_bound=truncate3(r.lower_bound), b_d=truncate3(r.b_d)) for r in reps]


def _table2_row(d: int) -> Table2Row:
    r = compute_bd(_integer(d, "d", 20))
    if r.witness_upper is None:
        raise RuntimeError(f"growth-witness quotient is not positive for d={r.d}")
    return Table2Row(r.d, *map(truncate3, (r.lower_bound, r.witness_upper, r.asymptotic)))


def table2_rows(dims: Iterable[int] = DEFAULT_TABLE2_DIMS) -> List[Table2Row]:
    """Bracket rows for large d, truncated at 3 decimals."""
    return [_table2_row(d) for d in dims]

"""Reference tables for the cone threshold b_d.

Cell values are truncated (not rounded) at three decimals, so each
printed cell is a certified lower bound of the underlying quantity.
Table 1 covers small dimensions with the exact threshold; table 2
covers large dimensions, where the threshold lies between the
linear-growth lower bound 1/(1 + c* floor(d/2)) (ceil(d/2) for odd
d >= 7, see growth_lower_bound) and a concrete witness
upper bound, with 2/(c* d) as the asymptotic scale.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, List, Tuple

from .cone import _growth_estimates, compute_bd, growth_lower_bound
from .power_sums import _integer

__all__ = [
    "Table1Row",
    "Table2Row",
    "truncate3",
    "table1_rows",
    "table2_rows",
    "DEFAULT_TABLE2_DIMS",
    "TABLE1_DIMS",
]

TABLE1_DIMS: Tuple[int, ...] = (2, 3, 4, 5, 6)
DEFAULT_TABLE2_DIMS: Tuple[int, ...] = (50, 100, 150, 200, 300, 400, 500)


def truncate3(x: float) -> float:
    """Truncate a nonnegative value at the third decimal."""
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"expected a finite nonnegative value, got {x!r}")
    return math.floor(x * 1000.0) / 1000.0


@dataclass(frozen=True)
class Table1Row:
    d: int
    lower_bound: float
    b_d: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Table2Row:
    d: int
    lower_bound: float
    witness_upper: float
    asymptotic: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def table1_rows() -> List[Table1Row]:
    """Thresholds and lower bounds for d = 2..6, truncated at 3 decimals."""
    rows = []
    for d in TABLE1_DIMS:
        rep = compute_bd(d)
        rows.append(
            Table1Row(
                d=d,
                lower_bound=truncate3(rep.lower_bound),
                b_d=truncate3(rep.b_d),
            )
        )
    return rows


def _table2_row(d: int) -> Table2Row:
    n = _integer(d, "d", 20)
    q, asym = _growth_estimates(n)
    if q <= 0.0:
        raise RuntimeError(f"growth-witness quotient is not positive for d={n}")
    return Table2Row(
        d=n,
        lower_bound=truncate3(growth_lower_bound(n)),
        witness_upper=truncate3(1.0 / (1.0 + q)),
        asymptotic=truncate3(asym),
    )


def table2_rows(dims: Iterable[int] = DEFAULT_TABLE2_DIMS) -> List[Table2Row]:
    """Bracket rows for large d, truncated at 3 decimals."""
    return [_table2_row(d) for d in dims]

import numpy as np
import pytest

from psq.tables import (
    DEFAULT_TABLE2_DIMS,
    table1_rows,
    table2_rows,
    truncate3,
)

TABLE1_CELLS = [
    (2, 0.946, 1.000),
    (3, 0.946, 0.962),
    (4, 0.898, 0.962),
    (5, 0.898, 0.902),
    (6, 0.855, 0.902),
]

TABLE2_CELLS = [
    (50, 0.415, 0.510, 0.710),
    (100, 0.262, 0.295, 0.355),
    (150, 0.191, 0.210, 0.236),
    (200, 0.150, 0.161, 0.177),
    (300, 0.105, 0.111, 0.118),
    (400, 0.081, 0.084, 0.088),
    (500, 0.066, 0.068, 0.071),
]


class TestTruncate:
    def test_floors_not_rounds(self):
        assert truncate3(0.9626) == 0.962
        assert truncate3(0.9999) == 0.999
        assert truncate3(1.0) == 1.0
        assert truncate3(0.51049) == 0.510

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            truncate3(-0.1)
        with pytest.raises(ValueError):
            truncate3(float("nan"))


class TestTable1:
    def test_cells(self):
        rows = table1_rows()
        assert [(r.d, r.lower_bound, r.b_d) for r in rows] == TABLE1_CELLS

    def test_json(self):
        doc = table1_rows()[0].to_json_dict()
        assert doc == {"d": 2, "lower_bound": 0.946, "b_d": 1.0}


class TestTable2:
    def test_cells(self):
        rows = table2_rows()
        got = [(r.d, r.lower_bound, r.witness_upper, r.asymptotic) for r in rows]
        assert got == TABLE2_CELLS

    def test_default_dims(self):
        assert DEFAULT_TABLE2_DIMS == (50, 100, 150, 200, 300, 400, 500)

    def test_custom_dims_and_ordering(self):
        rows = table2_rows([100, 50])
        assert [r.d for r in rows] == [100, 50]
        for r in rows:
            assert r.lower_bound <= r.witness_upper

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            table2_rows([10])

    @pytest.mark.parametrize("d", [50.5, "60", 60.0])
    def test_rejects_non_integers(self, d):
        with pytest.raises(ValueError, match="must be integers >= 20"):
            table2_rows([d])

    def test_accepts_numpy_integers(self):
        rows = table2_rows([np.int64(50)])
        assert rows == table2_rows([50]) and type(rows[0].d) is int

import json

import pytest
from click.testing import CliRunner

from psq.cli import main
from psq.cone import certify_general, compute_bd, membership_equal_offdiag
from psq.tables import table1_rows, table2_rows


@pytest.fixture
def runner():
    return CliRunner()


class TestEvalQ:
    def test_scalar_pair(self, runner):
        out = runner.invoke(main, ["eval-q", "-x", "1", "-y", "2"])
        assert out.exit_code == 0
        doc = json.loads(out.output)
        assert doc["value"] == pytest.approx(-1 / 3, abs=1e-15)
        assert doc["exact"] == "-1/3"
        assert (doc["s1"], doc["s2"], doc["s3"]) == (-1.0, 3.0, 9.0)

    def test_comma_and_fraction_entries(self, runner):
        out = runner.invoke(main, ["eval-q", "-x", "3/2,1/2", "-y", "1"])
        assert out.exit_code == 0
        assert json.loads(out.output)["exact"] is not None

    def test_float_entries_have_no_exact(self, runner):
        out = runner.invoke(main, ["eval-q", "-x", "1.5", "-y", "1"])
        assert json.loads(out.output)["exact"] is None

    def test_validation_exit_code(self, runner):
        assert runner.invoke(main, ["eval-q", "-x", "0", "-y", "1"]).exit_code == 2
        assert runner.invoke(main, ["eval-q", "-x", "a", "-y", "1"]).exit_code == 2
        assert runner.invoke(main, ["eval-q", "-x", "1/0", "-y", "1"]).exit_code == 2

    def test_float_overflow_exit_code(self, runner):
        out = runner.invoke(main, ["eval-q", "-x", "1e200", "-y", "1"])
        assert out.exit_code == 2
        assert "x: power sums overflow float64" in out.output

    def test_exact_entries_beyond_float_range(self, runner):
        out = runner.invoke(main, ["eval-q", "-x", "1" + "0" * 400, "-y", "1"])
        assert out.exit_code == 0
        doc = json.loads(out.output)
        assert doc["s1"] is None and doc["s2"] is None and doc["s3"] is None
        assert doc["value"] == pytest.approx(-1.0)
        num, den = (int(p) for p in doc["exact"].split("/"))
        assert num == -(10 ** 800 - 2 * 10 ** 400 + 1) and den == 10 ** 800 - 10 ** 400 + 1

    def test_json_file(self, runner, tmp_path):
        path = tmp_path / "q.json"
        out = runner.invoke(main, ["eval-q", "-x", "1", "-y", "2", "--json", str(path)])
        assert out.exit_code == 0
        assert json.loads(path.read_text())["value"] == pytest.approx(-1 / 3)


class TestSupQ:
    def test_values_and_bracket(self, runner):
        out = runner.invoke(main, ["sup-q", "--nx", "3", "--ny", "2"])
        doc = json.loads(out.output)
        assert doc["sup"] == pytest.approx(0.10790884700463473, abs=1e-12)
        assert doc["bracket"] == [0.1079, 0.1080]
        assert doc["attained"] is False
        assert doc["config"]["i"] == 1 and doc["config"]["m"] == 3

    def test_bad_dims(self, runner):
        assert runner.invoke(main, ["sup-q", "--nx", "0", "--ny", "2"]).exit_code == 2


class TestBd:
    def test_report(self, runner):
        out = runner.invoke(main, ["bd", "--d", "4"])
        doc = json.loads(out.output)
        assert doc["b_d"] == pytest.approx(0.9623649861142065, abs=1e-12)
        assert doc["exact"] == pytest.approx(doc["b_d"], abs=1e-9)

    def test_bad_d(self, runner):
        assert runner.invoke(main, ["bd", "--d", "1"]).exit_code == 2

    def test_d_beyond_list_sizes(self, runner):
        out = runner.invoke(main, ["bd", "--d", str(10**20)])
        assert out.exit_code == 0, out.output
        assert out.output.strip() == json.dumps(compute_bd(10**20).to_json_dict(), indent=2)


@pytest.mark.parametrize(
    "args",
    [
        ["bd", "--d", str(10**400)],
        ["bd", "--d", str(10**300)],
        ["sup-q", "--nx", str(10**400), "--ny", "3"],
        ["sup-q", "--nx", str(10**200), "--ny", str(10**200)],
        ["table2", "--dims", str(10**300)],
        ["certify", "--d", str(10**400), "--b", "0.0"],
    ],
    ids=lambda a: f"{a[0]}-{len(a[2])}-digits",
)
def test_huge_dimensions_are_usage_errors(runner, args):
    _assert_usage_error(runner.invoke(main, args))


def test_certify_matrix_with_huge_d(runner, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"d": 1' + "0" * 400 + ', "b": 0.0}')
    _assert_usage_error(runner.invoke(main, ["certify", "--matrix", str(path)]))


class TestTables:
    def test_table1_text(self, runner):
        out = runner.invoke(main, ["table1"])
        assert out.exit_code == 0
        lines = out.output.strip().splitlines()
        assert len(lines) == 6
        assert lines[1].split() == ["2", "0.946", "1.000"]
        assert lines[-1].split() == ["6", "0.855", "0.902"]

    def test_table2_text_and_json(self, runner, tmp_path):
        path = tmp_path / "t2.json"
        out = runner.invoke(main, ["table2", "--dims", "50,100", "--json", str(path)])
        assert out.exit_code == 0
        rows = json.loads(path.read_text())
        assert rows[0] == {
            "d": 50,
            "lower_bound": 0.415,
            "witness_upper": 0.510,
            "asymptotic": 0.710,
        }

    def test_bad_dims(self, runner):
        assert runner.invoke(main, ["table2", "--dims", "9"]).exit_code == 2
        assert runner.invoke(main, ["table2", "--dims", "x"]).exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--threads", "2", "table2"],
        ["sup-q", "--nx", "3", "--ny", "2", "--tol", "1e-9"],
        ["bd", "--d", "4", "--tol", "1e-9"],
        ["table1", "--tol", "1e-9"],
        ["certify", "--d", "4", "--b", "0.5", "--tol", "1e-9"],
    ],
)
def test_removed_options_are_usage_errors(runner, args):
    assert runner.invoke(main, args).exit_code == 2


def _assert_usage_error(out):
    assert out.exit_code == 2
    assert isinstance(out.exception, SystemExit)
    assert "Error:" in out.output and "Traceback" not in out.output


def test_report_json_key_order():
    # The CLI prints these dicts; pin their layout, nested keys included.
    bd = compute_bd(5).to_json_dict()
    assert list(bd) == [
        "d", "b_d", "sup_value", "split", "lower_bound", "asymptotic",
        "witness_upper", "bracket", "exact",
    ]
    assert json.loads(json.dumps(bd))["split"] == [3, 2]
    mem = membership_equal_offdiag(4, 0.99).to_json_dict()
    assert list(mem) == ["d", "b", "b_d", "verdict", "margin", "witness"]
    assert list(mem["witness"]) == ["z", "s", "psi"]
    general_keys = ["d", "verdict", "method", "n_evaluated", "seed", "witness", "diagnostics"]
    m5 = [[1.0 if i == j else 0.95 for j in range(5)] for i in range(5)]
    sampled = certify_general(m5, n_samples=10).to_json_dict()
    assert list(sampled) == general_keys and list(sampled["witness"]) == ["z", "s", "psi"]
    m16 = [[1.0 if i == j else 0.3 for j in range(16)] for i in range(16)]
    perturbed = certify_general(m16).to_json_dict()
    assert list(perturbed) == general_keys
    assert list(perturbed["diagnostics"]) == ["b", "slack", "threshold"]
    assert list(table1_rows()[0].to_json_dict()) == ["d", "lower_bound", "b_d"]
    assert list(table2_rows([50])[0].to_json_dict()) == [
        "d", "lower_bound", "witness_upper", "asymptotic",
    ]


class TestCertify:
    def test_member(self, runner):
        out = runner.invoke(main, ["certify", "--d", "4", "--b", "0.5"])
        assert out.exit_code == 0
        assert json.loads(out.output)["verdict"] == "member_certified"

    def test_nonmember_with_witness(self, runner):
        out = runner.invoke(main, ["certify", "--d", "4", "--b", "0.99"])
        assert out.exit_code == 1
        doc = json.loads(out.output)
        assert doc["witness"]["psi"] < 0

    def test_inconclusive_at_threshold(self, runner):
        bd = json.loads(runner.invoke(main, ["bd", "--d", "5"]).output)["b_d"]
        out = runner.invoke(main, ["certify", "--d", "5", "--b", repr(bd)])
        assert out.exit_code == 3

    def test_matrix_file_equal_offdiag(self, runner, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 3, "b": 0.2}))
        assert runner.invoke(main, ["certify", "--matrix", str(path)]).exit_code == 0

    def test_matrix_file_general(self, runner, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [[3.0, 0.1], [0.1, 3.0]]}))
        out = runner.invoke(main, ["certify", "--matrix", str(path)])
        assert out.exit_code == 0
        assert json.loads(out.output)["method"] == "diagonal_dominance"
        assert json.loads(out.output)["diagnostics"] is None

    def test_matrix_file_general_perturbation(self, runner, tmp_path):
        path = tmp_path / "m.json"
        entries = [[1.0 if i == j else 0.3 for j in range(16)] for i in range(16)]
        path.write_text(json.dumps({"d": 16, "entries": entries}))
        out = runner.invoke(main, ["certify", "--matrix", str(path)])
        assert out.exit_code == 0
        doc = json.loads(out.output)
        assert doc["method"] == "perturbation" and doc["verdict"] == "member_certified"
        assert doc["diagnostics"]["slack"] > 0.45

    def test_usage_errors(self, runner, tmp_path):
        assert runner.invoke(main, ["certify"]).exit_code == 2
        assert runner.invoke(main, ["certify", "--d", "4"]).exit_code == 2
        path = tmp_path / "m.json"
        path.write_text("{not json")
        assert (
            runner.invoke(main, ["certify", "--matrix", str(path)]).exit_code == 2
        )
        assert (
            runner.invoke(
                main, ["certify", "--d", "4", "--b", "0.5", "--matrix", str(path)]
            ).exit_code
            == 2
        )


@pytest.mark.parametrize(
    "spec",
    [
        '{"d": null, "b": 0.5}',
        '{"d": [2], "b": 0.5}',
        '{"d": 4, "b": null}',
        '{"d": 4.7, "b": 0.5}',
        '{"d": 2.5, "entries": [[1, 0], [0, 1]]}',
        '{"d": 4, "b": true}',
        '{"d": 4, "b": "0.5"}',
        pytest.param('{"d": 4, "b": 1' + "0" * 400 + '}', id="b-with-401-digits"),
    ],
)
def test_certify_rejects_malformed_spec(runner, tmp_path, spec):
    path = tmp_path / "m.json"
    path.write_text(spec)
    _assert_usage_error(runner.invoke(main, ["certify", "--matrix", str(path)]))


class TestVerify:
    def test_round_trip(self, runner, tmp_path):
        mpath = tmp_path / "m.json"
        wpath = tmp_path / "w.json"
        rpath = tmp_path / "r.json"
        mpath.write_text(json.dumps({"d": 4, "b": 0.99}))
        out = runner.invoke(
            main, ["certify", "--matrix", str(mpath), "--json", str(rpath)]
        )
        assert out.exit_code == 1
        wpath.write_text(json.dumps(json.loads(rpath.read_text())["witness"]))
        out = runner.invoke(
            main, ["verify", "--matrix", str(mpath), "--witness", str(wpath)]
        )
        assert out.exit_code == 0
        assert json.loads(out.output)["confirmed"] is True

    def test_not_confirmed_against_member(self, runner, tmp_path):
        mpath = tmp_path / "m.json"
        wpath = tmp_path / "w.json"
        mpath.write_text(json.dumps({"d": 2, "b": 0.3}))
        wpath.write_text(json.dumps({"z": [1.0, 1.0], "s": [-1, 1]}))
        out = runner.invoke(
            main, ["verify", "--matrix", str(mpath), "--witness", str(wpath)]
        )
        assert out.exit_code == 1
        assert json.loads(out.output)["psi"] == pytest.approx(2 - 0.6)

    def test_malformed_witness(self, runner, tmp_path):
        mpath = tmp_path / "m.json"
        wpath = tmp_path / "w.json"
        mpath.write_text(json.dumps({"d": 2, "b": 0.3}))
        wpath.write_text(json.dumps({"z": [1.0, 1.0]}))
        out = runner.invoke(
            main, ["verify", "--matrix", str(mpath), "--witness", str(wpath)]
        )
        assert out.exit_code == 2

    @pytest.mark.parametrize("signs", [[1, "1"], [True, -1]])
    def test_non_numeric_signs(self, runner, tmp_path, signs):
        mpath = tmp_path / "m.json"
        wpath = tmp_path / "w.json"
        mpath.write_text(json.dumps({"d": 2, "b": 0.3}))
        wpath.write_text(json.dumps({"z": [1.0, 1.0], "s": signs}))
        out = runner.invoke(
            main, ["verify", "--matrix", str(mpath), "--witness", str(wpath)]
        )
        _assert_usage_error(out)
        assert "must be -1 or +1" in out.output

    @pytest.mark.parametrize("bad", ["matrix", "witness"])
    def test_non_utf8_file(self, runner, tmp_path, bad):
        paths = {"matrix": tmp_path / "m.json", "witness": tmp_path / "w.json"}
        paths["matrix"].write_text(json.dumps({"d": 2, "b": 0.3}))
        paths["witness"].write_text(json.dumps({"z": [1.0, 1.0], "s": [-1, 1]}))
        paths[bad].write_bytes(b'{"d": "\xff\xfe"}')
        out = runner.invoke(
            main, ["verify", "--matrix", str(paths["matrix"]), "--witness", str(paths["witness"])]
        )
        _assert_usage_error(out)


class TestWitness:
    def test_pair_exists(self, runner):
        out = runner.invoke(main, ["witness", "--nx", "5", "--ny", "5"])
        assert out.exit_code == 0
        doc = json.loads(out.output)
        assert doc["exists"] and doc["q"] > 0
        assert len(doc["x"]) == 5 and len(doc["y"]) == 5

    def test_degenerate_pair(self, runner):
        out = runner.invoke(main, ["witness", "--nx", "1", "--ny", "1"])
        assert out.exit_code == 1
        assert json.loads(out.output)["exists"] is False

    def test_growth_pair_signs(self, runner):
        neg = json.loads(runner.invoke(main, ["witness", "--growth-n", "9"]).output)
        pos = json.loads(runner.invoke(main, ["witness", "--growth-n", "10"]).output)
        assert neg["q"] < 0 < pos["q"]

    def test_growth_extra_component(self, runner):
        out = runner.invoke(main, ["witness", "--growth-n", "8", "--extra"])
        doc = json.loads(out.output)
        assert len(doc["x"]) == 9 and len(doc["y"]) == 8

    def test_usage_errors(self, runner):
        assert runner.invoke(main, ["witness"]).exit_code == 2
        assert runner.invoke(main, ["witness", "--nx", "3"]).exit_code == 2
        assert (
            runner.invoke(
                main, ["witness", "--nx", "3", "--ny", "3", "--growth-n", "5"]
            ).exit_code
            == 2
        )
        assert runner.invoke(main, ["witness", "--nx", "5", "--ny", "3"]).exit_code == 2

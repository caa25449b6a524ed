import json
import os
import warnings

import pytest

from psq.cli import main
from psq.cone import certify_general, compute_bd, membership_equal_offdiag
from psq.tables import table1_rows, table2_rows


class TestEvalQ:
    def test_scalar_pair(self, cli):
        out = cli(["eval-q", "-x", "1", "-y", "2"])
        assert out.code == 0
        doc = json.loads(out.out)
        assert doc["value"] == pytest.approx(-1 / 3, abs=1e-15)
        assert doc["exact"] == "-1/3"
        assert (doc["s1"], doc["s2"], doc["s3"]) == (-1.0, 3.0, 9.0)

    def test_comma_and_fraction_entries(self, cli):
        out = cli(["eval-q", "-x", "3/2,1/2", "-y", "1"])
        assert out.code == 0
        assert json.loads(out.out)["exact"] is not None

    def test_float_entries_have_no_exact(self, cli):
        out = cli(["eval-q", "-x", "1.5", "-y", "1"])
        assert json.loads(out.out)["exact"] is None

    def test_validation_exit_code(self, cli):
        assert cli(["eval-q", "-x", "0", "-y", "1"]).code == 2
        assert cli(["eval-q", "-x", "a", "-y", "1"]).code == 2
        assert cli(["eval-q", "-x", "1/0", "-y", "1"]).code == 2
        out = cli(["eval-q", "-x", "1,,2", "-y", "1"])
        _assert_usage_error(out)
        assert "empty entry" in out.err

    def test_negative_entries_need_the_equals_form(self, cli):
        # argparse reads "-1,2" after -x as an option, so -x has no value.
        out = cli(["eval-q", "-x", "-1,2", "-y", "1"])
        _assert_usage_error(out)
        assert "argument -x: expected one argument" in out.err
        out = cli(["eval-q", "-x=-1,2", "-y", "1"])
        _assert_usage_error(out)
        assert "x[0] = -1 is not > 0" in out.err

    def test_float_overflow_exit_code(self, cli):
        out = cli(["eval-q", "-x", "1e200", "-y", "1"])
        assert out.code == 2
        assert "x: power sums overflow float64" in out.err

    def test_underflowed_cubes_exit_code(self, cli):
        out = cli(["eval-q", "-x", "1e-200", "-y", "2e-200"])
        _assert_usage_error(out)
        assert "every cube underflows to 0" in out.err

    def test_exact_entries_beyond_float_range(self, cli):
        out = cli(["eval-q", "-x", "1" + "0" * 400, "-y", "1"])
        assert out.code == 0
        doc = json.loads(out.out)
        assert doc["s1"] is None and doc["s2"] is None and doc["s3"] is None
        assert doc["value"] == pytest.approx(-1.0)
        num, den = (int(p) for p in doc["exact"].split("/"))
        assert num == -(10 ** 800 - 2 * 10 ** 400 + 1) and den == 10 ** 800 - 10 ** 400 + 1

    def test_json_file(self, cli, tmp_path):
        path = tmp_path / "q.json"
        out = cli(["eval-q", "-x", "1", "-y", "2", "--json", str(path)])
        assert out.code == 0
        assert json.loads(path.read_text())["value"] == pytest.approx(-1 / 3)


class TestSupQ:
    def test_values(self, cli):
        out = cli(["sup-q", "--nx", "3", "--ny", "2"])
        doc = json.loads(out.out)
        assert list(doc) == ["n_x", "n_y", "sup", "attained", "config"]
        assert doc["sup"] == pytest.approx(0.10790884700463473, abs=1e-12)
        assert doc["attained"] is False
        assert doc["config"]["i"] == 1 and doc["config"]["m"] == 3

    def test_bad_dims(self, cli):
        assert cli(["sup-q", "--nx", "0", "--ny", "2"]).code == 2


class TestBd:
    def test_report(self, cli):
        out = cli(["bd", "--d", "4"])
        doc = json.loads(out.out)
        assert doc["b_d"] == pytest.approx(0.9623649861142065, abs=1e-12)
        assert doc["exact"] == pytest.approx(doc["b_d"], abs=1e-9)

    def test_bad_d(self, cli):
        assert cli(["bd", "--d", "1"]).code == 2

    def test_d_beyond_list_sizes(self, cli):
        # The second d lies just below the window where sup_q is finite but the
        # growth-pair quotient overflows (see test_huge_dimensions_are_usage_errors).
        for d in (10**20, 33675876497316176 * 10**139):
            out = cli(["bd", "--d", str(d)])
            assert out.code == 0, out.out
            assert out.out.strip() == json.dumps(compute_bd(d).to_json_dict(), indent=2)


_OVERFLOW = "dimensions too large: the block arithmetic overflows float64"


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(args, message, id=f"{args[0]}-{len(args[2])}-digits")
        for args, message in [
            (["bd", "--d", str(10**400)], _OVERFLOW),
            (["bd", "--d", str(10**300)], _OVERFLOW),
            (["sup-q", "--nx", str(10**400), "--ny", "3"], _OVERFLOW),
            (["sup-q", "--nx", str(10**200), "--ny", str(10**200)], _OVERFLOW),
            (["table2", "--dims", str(10**300)], _OVERFLOW),
            (["certify", "--d", str(10**400), "--b", "0.0"], _OVERFLOW),
            (["witness", "--growth-n", str(10**400)], "n is too large for float64"),
            # sup_q is still finite at this d; the growth pair's quotient is not.
            (["bd", "--d", str(33675876497316179 * 10**139)], "d is too large: the growth-pair quotient overflows float64"),
        ]
    ],
)
def test_huge_dimensions_are_usage_errors(cli, args, message):
    out = cli(args)
    _assert_usage_error(out)
    assert message in out.err


@pytest.mark.parametrize(
    "args",
    [
        ["witness", "--growth-n", str(10**20)],
        ["witness", "--nx", str(10**20), "--ny", str(10**20)],
        ["certify", "--d", str(10**20), "--b", "0.5"],
    ],
    ids=["growth-n", "nx-ny", "certify"],
)
def test_witness_lengths_beyond_maxsize_are_usage_errors(cli, args):
    out = cli(args)
    _assert_usage_error(out)
    assert "exceeds sys.maxsize" in out.err


@pytest.mark.parametrize(
    "args",
    [
        ["witness", "--growth-n", str(10**17)],
        ["witness", "--nx", str(10**17), "--ny", str(10**17)],
        ["certify", "--d", str(10**17), "--b", "0.9"],
    ],
    ids=["growth-n", "nx-ny", "certify"],
)
def test_witness_lengths_too_large_to_build_are_usage_errors(cli, args):
    # Below sys.maxsize, but far beyond what can be allocated.
    out = cli(args)
    _assert_usage_error(out)
    assert "is too large to build" in out.err


def test_certify_matrix_with_huge_d(cli, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"d": 1' + "0" * 400 + ', "b": 0.0}')
    _assert_usage_error(cli(["certify", "--matrix", str(path)]))


class TestTables:
    def test_table1_text(self, cli):
        out = cli(["table1"])
        assert out.code == 0
        lines = out.out.strip().splitlines()
        assert len(lines) == 6
        assert lines[1].split() == ["2", "0.946", "1.000"]
        assert lines[-1].split() == ["6", "0.855", "0.902"]

    def test_table2_text_and_json(self, cli, tmp_path):
        path = tmp_path / "t2.json"
        out = cli(["table2", "--dims", "50,100", "--json", str(path)])
        assert out.code == 0
        rows = json.loads(path.read_text())
        assert rows[0] == {
            "d": 50,
            "lower_bound": 0.415,
            "witness_upper": 0.510,
            "asymptotic": 0.710,
        }

    def test_table2_default_dims(self, cli, tmp_path):
        # Without --dims the handler calls table2_rows(), so the parser keeps no copy of the default.
        path = tmp_path / "t2.json"
        out = cli(["table2", "--json", str(path)])
        assert out.code == 0
        rows = table2_rows()
        assert json.loads(path.read_text()) == [r.to_json_dict() for r in rows]
        want = [[str(r.d), *(f"{v:.3f}" for v in r[1:])] for r in rows]
        assert [line.split() for line in out.out.splitlines()[1:]] == want

    def test_bad_dims(self, cli):
        assert cli(["table2", "--dims", "9"]).code == 2
        assert cli(["table2", "--dims", "x"]).code == 2

    @pytest.mark.parametrize("dims", ["", " , "])
    def test_empty_dims(self, cli, dims):
        # An empty list printed the header alone and exited 0.
        out = cli(["table2", "--dims", dims])
        _assert_usage_error(out)
        assert out.out == "" and "--dims names no dimension" in out.err


@pytest.mark.parametrize(
    "args",
    [
        ["--threads", "2", "table2"],
        ["sup-q", "--nx", "3", "--ny", "2", "--tol", "1e-9"],
        ["bd", "--d", "4", "--tol", "1e-9"],
        ["table1", "--tol", "1e-9"],
        ["certify", "--d", "4", "--b", "0.5", "--tol", "1e-9"],
        ["certify", "--d", "4", "--b", "0.5", "--samples", "5"],
        ["certify", "--d", "4", "--b", "0.5", "--seed", "0"],
    ],
)
def test_removed_options_are_usage_errors(cli, args):
    assert cli(args).code == 2


@pytest.mark.parametrize(
    "args",
    [["witness", "--growth", "100"], ["certify", "--d", "4", "--b", "0.5", "--js", os.devnull]],
)
def test_option_prefixes_are_usage_errors(cli, args):
    _assert_usage_error(cli(args))


def test_json_write_failure_is_a_usage_error(cli, tmp_path):
    out = cli(["bd", "--d", "4", "--json", str(tmp_path / "missing" / "out.json")])
    _assert_usage_error(out)
    assert out.out == "" and "cannot write JSON file" in out.err


def test_main_returns_the_exit_code(capsys):
    assert main(["certify", "--d", "6", "--b", "0.99"], standalone_mode=False) == 1
    assert main(["certify", "--d", "6", "--b", "0.5"], standalone_mode=False) == 0
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--d", "6", "--b", "0.99"])
    assert exc.value.code == 1


def _assert_usage_error(out):
    assert out.code == 2
    assert "Traceback" not in out.err
    assert sum("error:" in line for line in out.err.splitlines()) == 1


def test_report_json_key_order():
    # The CLI prints these dicts; pin their layout, nested keys included.
    bd = compute_bd(5).to_json_dict()
    assert list(bd) == [
        "d", "b_d", "sup_value", "split", "lower_bound", "asymptotic",
        "witness_upper", "exact",
    ]
    assert json.loads(json.dumps(bd))["split"] == [3, 2]
    mem = membership_equal_offdiag(4, 0.99).to_json_dict()
    assert list(mem) == ["d", "b", "b_d", "verdict", "margin", "witness"]
    assert list(mem["witness"]) == ["z", "s", "psi"]
    general_keys = ["d", "verdict", "method", "n_evaluated", "witness", "diagnostics"]
    m5 = [[1.0 if i == j else 0.95 for j in range(5)] for i in range(5)]
    sampled = certify_general(m5).to_json_dict()
    assert list(sampled) == general_keys and list(sampled["witness"]) == ["z", "s", "psi"]
    m16 = [[1.0 if i == j else 0.3 for j in range(16)] for i in range(16)]
    perturbed = certify_general(m16).to_json_dict()
    assert list(perturbed) == general_keys
    assert list(perturbed["diagnostics"]) == ["b", "slack", "threshold", "evaluations"]
    assert list(table1_rows()[0].to_json_dict()) == ["d", "lower_bound", "b_d"]
    assert list(table2_rows([50])[0].to_json_dict()) == [
        "d", "lower_bound", "witness_upper", "asymptotic",
    ]


class TestCertify:
    def test_member(self, cli):
        out = cli(["certify", "--d", "4", "--b", "0.5"])
        assert out.code == 0
        assert json.loads(out.out)["verdict"] == "member_certified"

    def test_nonmember_with_witness(self, cli):
        out = cli(["certify", "--d", "4", "--b", "0.99"])
        assert out.code == 1
        doc = json.loads(out.out)
        assert doc["witness"]["psi"] < 0

    def test_near_float_max_writes_no_warning(self, cli, tmp_path):
        # The certificates' float sums overflow; numpy must not warn on stderr or raise under -W error.
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"entries": [[1e308, 1e308], [1e308, 1e308]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cli(["certify", "--matrix", str(mpath)])
        assert (out.code, out.err) == (3, "")
        assert json.loads(out.out)["verdict"] == "inconclusive"

    def test_inconclusive_at_threshold(self, cli):
        bd = json.loads(cli(["bd", "--d", "5"]).out)["b_d"]
        out = cli(["certify", "--d", "5", "--b", repr(bd)])
        assert out.code == 3

    def test_matrix_file_equal_offdiag(self, cli, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 3, "b": 0.2}))
        assert cli(["certify", "--matrix", str(path)]).code == 0

    def test_matrix_file_general(self, cli, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [[3.0, 0.1], [0.1, 3.0]]}))
        out = cli(["certify", "--matrix", str(path)])
        assert out.code == 0
        assert json.loads(out.out)["method"] == "diagonal_dominance"
        assert json.loads(out.out)["diagnostics"] is None

    def test_matrix_file_general_perturbation(self, cli, tmp_path):
        path = tmp_path / "m.json"
        entries = [[1.0 if i == j else 0.3 for j in range(16)] for i in range(16)]
        path.write_text(json.dumps({"d": 16, "entries": entries}))
        out = cli(["certify", "--matrix", str(path)])
        assert out.code == 0
        doc = json.loads(out.out)
        assert doc["method"] == "perturbation" and doc["verdict"] == "member_certified"
        assert doc["diagnostics"]["slack"] > 0.45

    def test_usage_errors(self, cli, tmp_path):
        assert cli(["certify"]).code == 2
        assert cli(["certify", "--d", "4"]).code == 2
        path = tmp_path / "m.json"
        path.write_text("{not json")
        assert cli(["certify", "--matrix", str(path)]).code == 2
        assert cli(["certify", "--d", "4", "--b", "0.5", "--matrix", str(path)]).code == 2


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
        # A float cast read true as 1 and parsed "1"; both printed member_certified.
        '{"entries": [[true, 0.1], [0.1, true]]}',
        '{"entries": [["1", "0.1"], ["0.1", "1"]]}',
        '{"entries": [[1, null], [0, 1]]}',
        pytest.param('{"entries": [[1, 1' + "0" * 400 + '], [0, 1]]}', id="entry-with-401-digits"),
        # One schema per file; both were certified from one form, the rest dropped.
        pytest.param('{"d": 2, "b": 0.9, "entries": [[1, 0], [0, 1]]}', id="both-forms"),
        pytest.param('{"d": 3, "b": 0.5, "bee": 1}', id="unknown-key"),
    ],
)
def test_certify_rejects_malformed_spec(cli, tmp_path, spec):
    path = tmp_path / "m.json"
    path.write_text(spec)
    _assert_usage_error(cli(["certify", "--matrix", str(path)]))


@pytest.mark.parametrize(
    "spec",
    [{"d": 2, "b": 0.9, "entries": [[1, 0], [0, 1]]}, {"d": 2, "b": 0.5, "bee": 1}],
    ids=["both-forms", "unknown-key"],
)
def test_verify_rejects_mixed_spec(cli, tmp_path, spec):
    mpath, wpath = tmp_path / "m.json", tmp_path / "w.json"
    mpath.write_text(json.dumps(spec))
    wpath.write_text(json.dumps({"z": [1.0, 1.0], "s": [-1, 1]}))
    out = cli(["verify", "--matrix", str(mpath), "--witness", str(wpath)])
    _assert_usage_error(out)
    assert "matrix spec must hold the keys 'd' and 'b'" in out.err


_M6_ENTRIES = [[1.0 if i == j else 0.9 for j in range(6)] for i in range(6)]


class TestVerify:
    def test_round_trip(self, cli, tmp_path):
        mpath = tmp_path / "m.json"
        wpath = tmp_path / "w.json"
        rpath = tmp_path / "r.json"
        mpath.write_text(json.dumps({"d": 4, "b": 0.99}))
        out = cli(["certify", "--matrix", str(mpath), "--json", str(rpath)])
        assert out.code == 1
        wpath.write_text(json.dumps(json.loads(rpath.read_text())["witness"]))
        out = cli(["verify", "--matrix", str(mpath), "--witness", str(wpath)])
        assert out.code == 0
        assert json.loads(out.out)["confirmed"] is True

    def test_round_trip_one_sign_general(self, cli, tmp_path):
        # Negative only at the one-sign pattern s = (-1, -1): Psi(1, 1) = -8.
        mpath, wpath, rpath = tmp_path / "m.json", tmp_path / "w.json", tmp_path / "r.json"
        mpath.write_text(json.dumps({"d": 2, "entries": [[1, -5], [-5, 1]]}))
        out = cli(["certify", "--matrix", str(mpath), "--json", str(rpath)])
        assert out.code == 1
        witness = json.loads(rpath.read_text())["witness"]
        wpath.write_text(json.dumps(witness))
        out = cli(["verify", "--matrix", str(mpath), "--witness", str(wpath)])
        assert out.code == 0
        assert json.loads(out.out)["psi"] == witness["psi"] < 0

    def test_not_confirmed_against_member(self, cli, tmp_path):
        mpath = tmp_path / "m.json"
        wpath = tmp_path / "w.json"
        mpath.write_text(json.dumps({"d": 2, "b": 0.3}))
        wpath.write_text(json.dumps({"z": [1.0, 1.0], "s": [-1, 1]}))
        out = cli(["verify", "--matrix", str(mpath), "--witness", str(wpath)])
        assert out.code == 1
        assert json.loads(out.out)["psi"] == pytest.approx(2 - 0.6)

    def test_malformed_witness(self, cli, tmp_path):
        mpath = tmp_path / "m.json"
        wpath = tmp_path / "w.json"
        mpath.write_text(json.dumps({"d": 2, "b": 0.3}))
        wpath.write_text(json.dumps({"z": [1.0, 1.0]}))
        out = cli(["verify", "--matrix", str(mpath), "--witness", str(wpath)])
        assert out.code == 2

    def test_witness_keys(self, cli, tmp_path):
        # {"z", "s"}, or the {"z", "s", "psi"} that certify --json writes; any other key set is a usage error.
        mpath, wpath = tmp_path / "m.json", tmp_path / "w.json"
        mpath.write_text(json.dumps({"d": 2, "b": 0.3}))
        witness = {"z": [1.0, 1.0], "s": [-1, 1]}
        for extra in ({}, {"psi": 1.4}):
            wpath.write_text(json.dumps({**witness, **extra}))
            assert cli(["verify", "--matrix", str(mpath), "--witness", str(wpath)]).code == 1
        for doc in ({**witness, "extra": 1}, {**witness, "psi": 1.4, "d": 2}, {"z": [1.0, 1.0], "psi": 1.4}, [witness]):
            wpath.write_text(json.dumps(doc))
            out = cli(["verify", "--matrix", str(mpath), "--witness", str(wpath)])
            _assert_usage_error(out)
            assert "witness file must hold an object with the keys 'z' and 's' and an optional 'psi'" in out.err

    @pytest.mark.parametrize("signs", [[1, "1"], [True, -1]])
    def test_non_numeric_signs(self, cli, tmp_path, signs):
        mpath = tmp_path / "m.json"
        wpath = tmp_path / "w.json"
        mpath.write_text(json.dumps({"d": 2, "b": 0.3}))
        wpath.write_text(json.dumps({"z": [1.0, 1.0], "s": signs}))
        out = cli(["verify", "--matrix", str(mpath), "--witness", str(wpath)])
        _assert_usage_error(out)
        assert "must be -1 or +1" in out.err

    @pytest.mark.parametrize("spec", [{"d": 6, "b": 0.9}, {"entries": _M6_ENTRIES}], ids=["d-b", "entries"])
    @pytest.mark.parametrize("k, shown", [(-360, "-0.0"), (360, "null")])
    def test_extreme_scale(self, cli, tmp_path, spec, k, shown):
        # M_6(0.9)'s witness z = (1, 0.3^5), s = (-1, +1^5), scaled by 2^k.
        # Psi has degree 3, so its sign holds while its value underflows to
        # -0.0 or lies beyond float range (null); the exact sign confirms it.
        mpath, wpath = tmp_path / "m.json", tmp_path / "w.json"
        mpath.write_text(json.dumps(spec))
        z = [2.0 ** k] + [0.3 * 2.0 ** k] * 5
        wpath.write_text(json.dumps({"z": z, "s": [-1] + [1] * 5}))
        out = cli(["verify", "--matrix", str(mpath), "--witness", str(wpath)])
        assert out.code == 0
        assert json.loads(out.out)["confirmed"] is True
        assert f'"psi": {shown},' in out.out

    @pytest.mark.parametrize("spec", [{"d": 2, "b": 0.3}, {"entries": [[1.0, 0.3], [0.3, 1.0]]}], ids=["d-b", "entries"])
    def test_z_beyond_float_range(self, cli, tmp_path, spec):
        mpath, wpath = tmp_path / "m.json", tmp_path / "w.json"
        mpath.write_text(json.dumps(spec))
        wpath.write_text(json.dumps({"z": [1.0, 10 ** 400], "s": [-1, 1]}))
        out = cli(["verify", "--matrix", str(mpath), "--witness", str(wpath)])
        _assert_usage_error(out)
        assert "z[1] lies beyond float range" in out.err

    @pytest.mark.parametrize("bad", ["matrix", "witness"])
    def test_non_utf8_file(self, cli, tmp_path, bad):
        paths = {"matrix": tmp_path / "m.json", "witness": tmp_path / "w.json"}
        paths["matrix"].write_text(json.dumps({"d": 2, "b": 0.3}))
        paths["witness"].write_text(json.dumps({"z": [1.0, 1.0], "s": [-1, 1]}))
        paths[bad].write_bytes(b'{"d": "\xff\xfe"}')
        out = cli(["verify", "--matrix", str(paths["matrix"]), "--witness", str(paths["witness"])])
        _assert_usage_error(out)


class TestWitness:
    def test_pair_exists(self, cli):
        out = cli(["witness", "--nx", "5", "--ny", "5"])
        assert out.code == 0
        doc = json.loads(out.out)
        assert doc["exists"] and doc["q"] > 0
        assert len(doc["x"]) == 5 and len(doc["y"]) == 5

    def test_degenerate_pair(self, cli):
        out = cli(["witness", "--nx", "1", "--ny", "1"])
        assert out.code == 1
        assert json.loads(out.out)["exists"] is False

    def test_growth_pair_signs(self, cli):
        neg = json.loads(cli(["witness", "--growth-n", "9"]).out)
        pos = json.loads(cli(["witness", "--growth-n", "10"]).out)
        assert neg["q"] < 0 < pos["q"]

    def test_growth_extra_component(self, cli):
        out = cli(["witness", "--growth-n", "8", "--extra"])
        doc = json.loads(out.out)
        assert len(doc["x"]) == 9 and len(doc["y"]) == 8

    def test_usage_errors(self, cli):
        assert cli(["witness"]).code == 2
        assert cli(["witness", "--nx", "3"]).code == 2
        assert cli(["witness", "--nx", "3", "--ny", "3", "--growth-n", "5"]).code == 2
        assert cli(["witness", "--nx", "5", "--ny", "3"]).code == 2

    def test_extra_needs_growth_n(self, cli):
        # --extra was silently ignored in pair mode, with exit 0.
        out = cli(["witness", "--nx", "3", "--ny", "2", "--extra"])
        _assert_usage_error(out)
        assert out.out == "" and "--extra goes with --growth-n" in out.err

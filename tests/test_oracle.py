import json
import sys
from importlib import import_module

import numpy as np
import pytest
from conftest import _RUN_CLI, _loaded, _python

import psq
from psq.cone import compute_bd
from psq.oracle import OracleResult, brute_force_sup, check_structured_shape
from psq.power_sums import quotient_q
from psq.structured import C_STAR, sup_q


class TestBruteForce:
    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    def test_agrees_with_structured(self, dims):
        res = brute_force_sup(*dims, n_starts=40, seed=0)
        want = sup_q(*dims).sup_value
        assert abs(max(res.best_value, 0.0) - want) <= 1e-6

    def test_degenerate_pair_nonpositive(self):
        res = brute_force_sup(1, 1, n_starts=30, seed=0)
        assert res.best_value <= 0.0
        assert res.best_value == pytest.approx(0.0, abs=1e-9)

    def test_growth_bound_invariant(self):
        res = brute_force_sup(4, 4, n_starts=40, seed=0)
        assert res.best_value <= C_STAR * 4

    def test_best_value_reevaluates(self):
        # The closure zeros are exact and add nothing to the power sums; quotient_q rejects them.
        res = brute_force_sup(3, 2, n_starts=40, seed=3)
        assert 0.0 in res.best_x + res.best_y
        q = float(quotient_q([v for v in res.best_x if v], [v for v in res.best_y if v]).value)
        assert abs(q - res.best_value) <= 1e-12

    @pytest.mark.parametrize("n_x", range(1, 9))
    def test_no_point_beats_best_value(self, n_x):
        # 10^4 seeded log-uniform points per shape, and every (side, i) block
        # configuration against a constant gamma on a 200-point grid over [1e-3, 1e3].
        rng = np.random.default_rng(n_x)
        gammas = np.geomspace(1e-3, 1e3, 200)[:, None]
        for n_y in range(1, 9):
            best = brute_force_sup(n_x, n_y).best_value
            points = [10.0 ** rng.uniform(-3.0, 3.0, (10**4, n_x + n_y))]
            for block_len, m, x_is_block in ((n_x, n_y, True), (n_y, n_x, False)):
                for i in range(1, block_len + 1):
                    block = np.broadcast_to((np.arange(block_len) < i).astype(float), (200, block_len))
                    const = np.broadcast_to(gammas, (200, m))
                    points.append(np.hstack((block, const) if x_is_block else (const, block)))
            z = np.vstack(points)
            x, y = z[:, :n_x], z[:, n_x:]
            s1 = x.sum(1) - y.sum(1)
            s2 = (y * y).sum(1) - (x * x).sum(1)
            q = s1 * s2 / ((x ** 3).sum(1) + (y ** 3).sum(1))
            assert q.max() <= best + 1e-12 * abs(best), (n_x, n_y)

    def test_gradient_vanishes_at_best_point(self):
        for n_x in range(1, 9):
            for n_y in range(1, 9):
                assert brute_force_sup(n_x, n_y).fd_grad_sup <= 1e-7, (n_x, n_y)

    def test_deterministic_across_jobs(self):
        a = brute_force_sup(3, 2, n_starts=30, seed=5, n_jobs=1)
        b = brute_force_sup(3, 2, n_starts=30, seed=5, n_jobs=4)
        assert a == b

    def test_result_bookkeeping(self):
        res = brute_force_sup(2, 2, n_starts=25, seed=0)
        assert res.n_starts >= 25
        assert 0.0 <= res.converged_fraction <= 1.0
        assert res.fd_grad_sup >= 0.0

    def test_rejects_bad_inputs(self):
        for bad in ((0, 1), (9, 2), (2, -1), (2.0, 2)):
            with pytest.raises(ValueError):
                brute_force_sup(*bad)
        with pytest.raises(ValueError):
            brute_force_sup(2, 2, n_starts=0)
        with pytest.raises(ValueError):
            brute_force_sup(2, 2, n_jobs=-1)

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((True, 2), {}, "n_x must be an integer in [1, 8], got True"),
            ((2, True), {}, "n_y must be an integer in [1, 8], got True"),
            ((2, 2), {"n_starts": True}, "n_starts must be an integer >= 1, got True"),
            ((2, 2), {"n_starts": 2.5}, "n_starts must be an integer >= 1, got 2.5"),
        ],
        ids=["n_x", "n_y", "n_starts-bool", "n_starts-float"],
    )
    def test_rejects_bools_and_fractional_counts(self, args, kwargs, message):
        with pytest.raises(ValueError) as err:
            brute_force_sup(*args, **kwargs)
        assert str(err.value) == message


class TestNoNumpy:
    def test_list_input_leaves_numpy_unloaded(self):
        # A long float list is summed by numpy only when numpy is already
        # loaded, and to the same bits as without it.
        code = (
            "import random, sys\n"
            "from fractions import Fraction\n"
            "from psq import power_sums, q_ordered_nonpositive, quotient_q\n"
            "quotient_q([0.5, 0.25], (0.75,))\n"
            "quotient_q([1, Fraction(1, 2)], [2, 0.5])\n"
            "power_sums((3, 4))\n"
            "q_ordered_nonpositive([1.0, 2.0], (0.5, 1.5))\n"
            "rng = random.Random(4)\n"
            "x = [10.0 ** rng.uniform(-300.0, 100.0) for _ in range(10**4)]\n"
            "print(repr(power_sums(x)), repr(quotient_q(x, x[::-3])))\n"
            "print(sys.modules.get('numpy') is not None)\n"
        )
        runs = {prefix: _python(prefix + code) for prefix in ("", "import numpy\n")}
        for out in runs.values():
            assert out.returncode == 0, out.stderr
        sums, loaded = runs[""].stdout.splitlines()
        assert loaded == "False"
        assert runs["import numpy\n"].stdout.splitlines() == [sums, "True"]

    @pytest.mark.parametrize("d, b", [(6, 0.99), (3, 1.0), (100000, 0.5)])
    def test_round_trip_leaves_numpy_unloaded(self, tmp_path, d, b):
        # An M_d(b) nonmember witness (a unit block against d - i equal entries)
        # re-verifies on its {"d", "b"} file from the blocks of z, in O(d), and
        # neither process loads more than the M_d(b) route's modules.
        mpath, rpath, wpath = tmp_path / "m.json", tmp_path / "r.json", tmp_path / "w.json"
        out = _python(_loaded(_RUN_CLI), "certify", "--d", str(d), "--b", str(b), "--json", str(rpath), timeout=20)
        assert out.returncode == 1, out.stderr
        assert json.loads(out.stdout)["verdict"] == "nonmember"
        assert out.stderr.splitlines()[-1] == repr(sorted(_CONE))
        mpath.write_text(json.dumps({"d": d, "b": b}))
        wpath.write_text(json.dumps(json.loads(rpath.read_text())["witness"]))
        out = _python(_loaded(_RUN_CLI), "verify", "--matrix", str(mpath), "--witness", str(wpath), timeout=20)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["confirmed"] is True
        assert out.stderr.splitlines()[-1] == repr(sorted(_CONE))

    def test_array_names_load_numpy_on_use(self):
        code = (
            "import sys, psq\n"
            "names = set(dir(psq))\n"
            "assert 'numpy' not in sys.modules\n"
            "assert {'brute_force_sup', 'OracleResult', 'check_structured_shape'} <= names\n"
            "assert psq.certify_general([[1.0, 0.5], [0.5, 1.0]]).verdict == 'member_certified'\n"
            "assert 'numpy' in sys.modules and 'psq.oracle' not in sys.modules\n"
            "assert psq.brute_force_sup.__module__ == 'psq.oracle'\n"
            "ns = {}\n"
            "exec('from psq import *', ns)\n"
            "assert set(psq.__all__) <= set(ns) and 'OracleResult' in ns\n"
            "print('ok')\n"
        )
        out = _python(code)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            psq.nope


_PS = ["psq", "psq.power_sums"]
_STRUCTURED = [*_PS, "psq.structured"]
_CONE = [*_STRUCTURED, "psq.cone"]
_ALL = [*_CONE, "psq.tables"]


def _footprint(args, want, code=0, timeout=120, name=None):
    """One cold CLI run: its argv, loaded modules, exit code and time limit, with the id 'argv-modules'."""
    return pytest.param(args, want, code, timeout, id=f"{name or ' '.join(args)}-{' '.join(want)}")


class TestModuleFootprint:
    """A cold process loads only the psq modules its call needs, and of numpy, scipy,
    click, dataclasses and inspect only what an explicit matrix needs: numpy, which
    loads inspect.  Results are NamedTuples, so no call loads dataclasses (and the
    inspect it pulls in), which would add about 20 ms to every cold psq process.

    This is tier-1's one test that a call runs without numpy: psq imports numpy only
    inside the functions that use it, or looks it up in sys.modules, and never probes
    for it, so a run whose module set excludes numpy behaves the same whether or not
    numpy can be imported."""

    @pytest.mark.parametrize(
        "args, want, code, timeout",
        [
            _footprint(["eval-q", "-x", "1,1/2", "-y", "3/4"], _PS),
            _footprint(["eval-q", "-x", "0.5,1/4", "-y", "0.75"], _PS),
            _footprint(["eval-q", "-x", "1,1/2,1/4", "-y", "3/4"], _PS),
            _footprint(["eval-q", "-x", "0.5,0.25", "-y", "0.75"], _PS),
            # A float -x longer than the shortest list that numpy, once loaded, sums as a
            # float64 array: the in-process run has numpy loaded, the cold one sums with fsum.
            _footprint(
                ["eval-q", "-x", ",".join(repr(10.0 ** (k / 50 - 20)) for k in range(1100)), "-y", "0.75"],
                _PS,
                name="eval-q 1100 floats",
            ),
            _footprint(["sup-q", "--nx", "3", "--ny", "2"], _STRUCTURED),
            _footprint(["sup-q", "--nx", "3", "--ny", "3"], _STRUCTURED),
            _footprint(["sup-q", "--nx", "24", "--ny", "23"], _STRUCTURED),
            _footprint(["witness", "--nx", "7", "--ny", "6"], _STRUCTURED),
            _footprint(["witness", "--growth-n", "100"], _STRUCTURED),
            _footprint(["witness", "--growth-n", "10000"], _STRUCTURED),
            _footprint(["bd", "--d", "100"], _CONE),
            _footprint(["certify", "--d", "6", "--b", "0.5"], _CONE),
            _footprint(
                ["certify", "--d", "6", "--b", repr(compute_bd(6).b_d)], _CONE, code=3, name="certify --d 6 --b b_d(6)"
            ),
            _footprint(["certify", "--d", "6", "--b", "0.99"], _CONE, code=1),
            _footprint(["certify", "--d", "3000", "--b", "0.5"], _CONE, code=1),
            _footprint(["certify", "--d", "100000", "--b", "0.5"], _CONE, code=1, timeout=20),
            _footprint(["certify", "--matrix"], [*_CONE, "numpy", "inspect"], code=1),
            _footprint(["certify", "--matrix", "dominant"], [*_CONE, "numpy", "inspect"]),
            _footprint(["verify"], _CONE),
            _footprint(["table1"], _ALL),
            _footprint(["table2", "--dims", "50"], _ALL),
            _footprint(["table2"], _ALL),
        ],
    )
    def test_cli_subcommand(self, cli, tmp_path, args, want, code, timeout):
        # Members and every other request exit 0, nonmembers 1, the b = b_d request 3; stdout is
        # what the CLI prints in this process, where numpy is loaded.
        if args == ["verify"]:
            mpath, wpath = tmp_path / "m.json", tmp_path / "w.json"
            mpath.write_text(json.dumps({"d": 6, "b": 0.9}))
            wpath.write_text(json.dumps({"z": [1.0] + [0.3] * 5, "s": [-1] + [1] * 5}))
            args = ["verify", "--matrix", str(mpath), "--witness", str(wpath)]
        if args[:2] == ["certify", "--matrix"]:
            # An explicit matrix loads numpy, but neither tables nor oracle nor scipy: a 4 x 4 nonmember,
            # or a diagonally dominant 2 x 2 member.
            gpath = tmp_path / "g.json"
            if args[2:]:
                entries = [[1, 0.3], [0.3, 1]]
            else:
                entries = [[1.0 if i == j else 0.99 for j in range(4)] for i in range(4)]
            gpath.write_text(json.dumps({"entries": entries}))
            args = ["certify", "--matrix", str(gpath)]
        out = _python(_loaded(_RUN_CLI), *args, timeout=timeout)
        assert out.returncode == code, out.stderr
        assert out.stderr.splitlines()[-1] == repr(sorted(want))
        assert (code, out.stdout) == cli(args)[:2]

    @pytest.mark.parametrize(
        "run, want",
        [
            ("import psq", _PS),
            ("import psq.cli", [*_PS, "psq.cli"]),
            ("import psq; psq.quotient_q([1.0, 0.5], [0.25])", _PS),
            ("import psq; psq.sup_q(3, 2)", _STRUCTURED),
            ("import psq; psq.compute_bd(8)", _CONE),
            ("import psq; psq.table1_rows()", _ALL),
            ("import psq; psq.brute_force_sup(3, 3)", [*_PS, "psq.oracle"]),
        ],
    )
    def test_library_call(self, run, want):
        out = _python(_loaded(run))
        assert out.returncode == 0, out.stderr
        assert out.stderr.splitlines()[-1] == repr(sorted(want))

    @pytest.mark.parametrize("first", ["structured", "cone", "tables", "oracle", "power_sums", "cli"])
    def test_power_sums_stays_the_function(self, first):
        # The package binds the function power_sums over the submodule of the same name, in every import order.
        out = _python(f"import psq.{first}, psq; print(psq.power_sums.__name__, type(psq.power_sums).__name__)")
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["power_sums", "function"]

    def test_all_keeps_its_names_and_order(self):
        # import_module, not sys.modules: the test must not rely on another file having loaded tables.
        mods = [import_module(f"psq.{m}") for m in ("power_sums", "structured", "cone", "oracle", "tables")]
        assert psq.__all__ == ["__version__", *(n for m in mods for n in m.__all__)]
        assert all(getattr(psq, n) is getattr(m, n) for m in mods for n in m.__all__)
        # Each lazy module's public names are written once, in the package's _LAZY.
        assert all(sys.modules[f"psq.{m}"].__all__ is psq._LAZY[m] for m in ("structured", "cone", "oracle", "tables"))

    def test_names_cover_all_before_and_after_loading(self):
        code = (
            "import sys, psq\n"
            "assert set(psq.__all__) <= set(dir(psq))\n"
            "assert 'compute_bd' not in vars(psq)\n"
            "psq.compute_bd(8)\n"
            "# A first use binds the whole module's names, so later lookups skip __getattr__.\n"
            "assert {'compute_bd', 'psi', 'MatrixSpec'} <= set(vars(psq)) and 'table1_rows' not in vars(psq)\n"
            "assert psq.compute_bd is sys.modules['psq.cone'].compute_bd\n"
            "ns = {}\n"
            "exec('from psq import *', ns)\n"
            "assert set(psq.__all__) <= set(ns) <= set(dir(psq)) | {'__builtins__'}\n"
            "print('ok')\n"
        )
        out = _python(code)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"


class TestStructuredShape:
    def test_maximizers_are_block_shaped(self):
        for dims in ((3, 3), (2, 3)):
            res = brute_force_sup(*dims, n_starts=40, seed=0)
            assert check_structured_shape(res)

    def test_non_block_point_fails(self):
        fake = OracleResult(
            n_x=3,
            n_y=3,
            best_value=0.05,
            best_x=(1.0, 0.6, 0.3),
            best_y=(0.5, 0.2, 0.9),
            n_starts=1,
            converged_fraction=1.0,
            fd_grad_sup=0.0,
        )
        assert not check_structured_shape(fake)

    def test_requires_positive_value(self):
        res = brute_force_sup(1, 1, n_starts=10, seed=0)
        with pytest.raises(ValueError):
            check_structured_shape(res)

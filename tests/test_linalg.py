"""Dense SPD kernels: factorization contract, inverses, pivot indices."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from spodnet import linalg
from spodnet.autodiff import Tensor
from spodnet.linalg import (NotPositiveDefinite, cholesky, eig_diagnostics,
                            spd_inverse)

from oracles import glasso_kkt_residual, is_spd


def _random_spd(rng, p, shift=1.0):
    a = rng.standard_normal((p, p))
    m = a @ a.T / p + shift * np.eye(p)
    return 0.5 * (m + m.T)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_elimination(self):
        L = cholesky(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 1.0]], atol=1e-14)

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
        assert exc.value.pivot == 1

    def test_recovers_factor(self):
        rng = np.random.default_rng(0)
        L_true = np.tril(rng.standard_normal((6, 6)))
        np.fill_diagonal(L_true, np.abs(np.diag(L_true)) + 1.0)
        prod = L_true @ L_true.T
        L = cholesky(0.5 * (prod + prod.T))
        assert np.abs(L - L_true).max() <= 1e-10

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(1)
        a = _random_spd(rng, 9)
        L = cholesky(a)
        assert np.abs(L @ L.T - a).max() <= 1e-10 * np.abs(a).max()

    def test_is_spd(self):
        assert is_spd(np.eye(4))
        assert not is_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_finite_rejected(self):
        # LAPACK factors a NaN matrix without reporting failure
        for bad in (np.nan, np.inf):
            m = np.eye(3)
            m[1, 1] = bad
            with pytest.raises(NotPositiveDefinite) as exc:
                cholesky(m)
            assert exc.value.pivot == 1
            assert not is_spd(m)


class TestAsSymArray:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.as_sym_array(np.array([[1.0, 2.0], [2.1, 5.0]]))

    def test_non_finite_must_mirror_exactly(self):
        for bad in (np.nan, np.inf):
            m = np.eye(3)
            m[0, 2] = bad
            with pytest.raises(ValueError, match="not symmetric"):
                linalg.as_sym_array(m)
            m[2, 0] = bad
            assert np.array_equal(linalg.as_sym_array(m), m, equal_nan=True)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.as_sym_array(np.ones((2, 3)))

    def test_ops_accept_tensor(self):
        m = Tensor(np.eye(3) * 2.0)
        assert np.allclose(spd_inverse(m), np.eye(3) / 2.0)
        assert eig_diagnostics(m) == (2.0, 2.0, 1.0)


class TestRestIndices:
    def test_values_and_read_only(self):
        rest = linalg.rest_indices(4, 1)
        assert np.array_equal(rest, [0, 2, 3])
        assert linalg.rest_indices(4, 1) is rest
        with pytest.raises(ValueError):
            rest[0] = 5

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            linalg.rest_indices(3, 3)
        with pytest.raises(IndexError):
            linalg.rest_indices(3, -1)


class TestSpdInverse:
    def test_identity(self):
        assert np.allclose(spd_inverse(np.eye(5)), np.eye(5))

    def test_diagonal(self):
        inv = spd_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]))

    def test_adjugate_2x2(self):
        inv = spd_inverse(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(inv, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = _random_spd(rng, 8)
            back = spd_inverse(spd_inverse(a))
            rel = np.linalg.norm(back - a) / np.linalg.norm(a)
            assert rel <= 1e-8

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        inv = spd_inverse(_random_spd(rng, 7))
        assert np.array_equal(inv, inv.T)

    def test_propagates_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="not symmetric"):
            spd_inverse(np.array([[2.0, 1.0], [0.5, 2.0]]))


def _fresh_python(code, *args, env=None):
    """Run ``code`` in a new interpreter with this checkout's spodnet; its
    last stdout line, parsed as JSON."""
    src = str(Path(linalg.__file__).resolve().parents[1])
    env = {**(os.environ if env is None else env), "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


_CLI_WITHOUT_SCIPY = """
import json
import sys
import numpy as np
from spodnet import cli, linalg
root = sys.argv[1]
def run(*argv):
    assert cli.main(list(argv)) == 0, argv
for name, seed in (("train", 3), ("test", 4)):
    run("gen-data", "--p", "6", "--n", "20", "--num", "4", "--alpha", "0.9",
        "--seed", str(seed), "--keep-samples", "--out", f"{root}/{name}")
run("train", "--model", "ubg", "--train", f"{root}/train", "--test", f"{root}/test",
    "--epochs", "1", "--seed", "5", "--out", f"{root}/run")
for command in ("eval", "diagnose"):
    run(command, "--checkpoint", f"{root}/run/checkpoint.json", "--data", f"{root}/test",
        "--out", f"{root}/{command}")
for method in ("glasso", "glasso-cv", "lw", "oas"):
    run("baseline", "--method", method, "--data", f"{root}/test",
        "--out", f"{root}/{method}.json")
inv = linalg.spd_inverse(np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 0.5], [1.0, 0.5, 2.0]]))
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  inv.tobytes().hex()]))
"""


def test_cli_runs_without_scipy(tmp_path):
    """Every command (gen-data, train, eval, diagnose and each baseline)
    inverts through numpy's bundled OpenBLAS and never imports scipy; the
    inverse keeps its bits."""
    if linalg._bundled_dtrtrs() is None:
        pytest.skip("numpy bundles no scipy-openblas here; the scipy fallback runs")
    loaded, inv = _fresh_python(_CLI_WITHOUT_SCIPY, tmp_path)
    assert loaded == []
    a = np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 0.5], [1.0, 0.5, 2.0]])
    assert bytes.fromhex(inv) == _solve_triangular_pair(a).tobytes()


_BLAS_THREADS = """
import json
import os
import spodnet
print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
"""


@pytest.mark.parametrize("user_value, expected", [(None, "1"), ("3", "3")])
def test_import_pins_blas_threads_unless_set(user_value, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    assert _fresh_python(_BLAS_THREADS, env=env) == expected


class TestEigDiagnostics:
    def test_diagonal(self):
        lo, hi, cond = eig_diagnostics(np.diag([1.0, 2.0, 5.0]))
        assert (lo, hi, cond) == (1.0, 5.0, 5.0)

    def test_identity(self):
        assert eig_diagnostics(np.eye(4)) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(3)
        a[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eig_diagnostics(a)

    def test_characteristic_polynomial(self):
        lo, hi, cond = eig_diagnostics(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert abs(lo - 1.0) <= 1e-12
        assert abs(hi - 3.0) <= 1e-12
        assert abs(cond - 3.0) <= 1e-12

    def test_accuracy_on_known_spectrum(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        vals = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0])
        a = q @ np.diag(vals) @ q.T
        a = 0.5 * (a + a.T)
        lo, hi, _ = eig_diagnostics(a)
        scale = np.linalg.norm(a)
        assert abs(lo - 0.5) <= 1e-9 * scale
        assert abs(hi - 21.0) <= 1e-9 * scale


def _spd_stack(rng, shape, p):
    flat = [_random_spd(rng, p) for _ in range(int(np.prod(shape)))]
    return np.stack(flat).reshape(*shape, p, p)


def _solve_triangular_pair(a):
    """The reference inverse: scipy's two triangular solves, symmetrized."""
    from scipy.linalg import solve_triangular

    L = np.linalg.cholesky(a)
    half = solve_triangular(L, np.eye(len(a)), lower=True)
    inv = solve_triangular(L.T, half, lower=False)
    return 0.5 * (inv + inv.T)


@pytest.mark.parametrize("p", [1, 2, 6, 20, 100, 257])
class TestStackBits:
    """Training outcomes depend on the inverse's last bits, so the stacked
    kernels must give each matrix exactly the per-matrix result."""

    def test_inverse_is_the_two_triangular_solves(self, p):
        a = _random_spd(np.random.default_rng(p), p)
        assert np.array_equal(spd_inverse(a), _solve_triangular_pair(a))

    def test_stacked_inverse_equals_per_matrix(self, p):
        stack = _spd_stack(np.random.default_rng(p + 1), (2, 3), p)
        out = spd_inverse(stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], spd_inverse(stack[idx]))

    def test_stacked_cholesky_equals_per_matrix(self, p):
        stack = _spd_stack(np.random.default_rng(p + 2), (2, 3), p)
        out = cholesky(stack)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], cholesky(stack[idx]))

    def test_stacked_eig_diagnostics_equal_per_matrix(self, p):
        stack = _spd_stack(np.random.default_rng(p + 3), (4,), p)
        lo, hi, cond = eig_diagnostics(stack)
        assert lo.shape == hi.shape == cond.shape == (4,)
        for j in range(4):
            assert (lo[j], hi[j], cond[j]) == eig_diagnostics(stack[j])


@pytest.fixture(params=["bundled", "scipy"])
def inverse_path(request, monkeypatch):
    """Run spd_inverse through numpy's bundled OpenBLAS, or through the
    scipy fallback by letting the library locator find nothing."""
    if request.param == "scipy":
        monkeypatch.setattr(linalg, "_bundled_dtrtrs", lambda: None)
    elif linalg._bundled_dtrtrs() is None:
        pytest.skip("numpy bundles no scipy-openblas here")
    return request.param


@pytest.mark.parametrize("p", [1, 2, 6, 20, 100, 257])
class TestInversePaths:
    """Both paths of spd_inverse give scipy's bits, stacked and per matrix;
    p runs across OpenBLAS's blocking sizes."""

    def test_stack_and_each_matrix_are_the_solve_triangular_pair(self, inverse_path, p):
        stack = _spd_stack(np.random.default_rng(p + 4), (2, 3), p)
        out = spd_inverse(stack)
        for idx in np.ndindex(2, 3):
            expected = _solve_triangular_pair(stack[idx])
            assert np.array_equal(out[idx], expected)
            assert np.array_equal(spd_inverse(stack[idx]), expected)

    def test_a_given_factor_gives_the_same_bits(self, inverse_path, p):
        stack = _spd_stack(np.random.default_rng(p + 5), (2, 3), p)
        for a in (stack, stack[1, 2]):
            got = spd_inverse(a, factor=cholesky(a))
            assert got.tobytes() == spd_inverse(a).tobytes()


def test_ill_conditioned_inverse_is_the_solve_triangular_pair(inverse_path):
    rng = np.random.default_rng(8)
    a = rng.standard_normal((60, 30))
    ill = a @ a.T / 60 + 1e-6 * np.eye(60)  # rank 30 plus a 1e-6 ridge
    ill = 0.5 * (ill + ill.T)
    assert eig_diagnostics(ill)[2] > 1e5
    stack = np.stack([_random_spd(rng, 60), ill])
    expected = _solve_triangular_pair(ill)
    assert np.array_equal(spd_inverse(ill), expected)
    assert np.array_equal(spd_inverse(stack)[1], expected)


def test_concurrent_inverses_match_single_threaded(inverse_path):
    """Threads inverting different stacks at once get the serial bytes: the
    solves release the interpreter lock, so their size and status buffers
    must not be shared."""
    rng = np.random.default_rng(9)
    stacks = [_spd_stack(rng, (6,), p) for p in (17, 30, 45, 60)]
    serial = [spd_inverse(s).tobytes() for s in stacks]
    start = threading.Barrier(len(stacks))
    results = [[] for _ in stacks]

    def work(k):
        start.wait()
        for _ in range(30):
            results[k].append(spd_inverse(stacks[k]).tobytes())

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(stacks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, got in enumerate(results):
        assert got == [serial[k]] * 30


class TestStackFailures:
    def _stack_with(self, bad, j, shape=(2, 3), p=5):
        stack = _spd_stack(np.random.default_rng(7), shape, p)
        stack.reshape(-1, p, p)[j] = bad
        return stack

    @pytest.mark.parametrize("j", [0, 4, 5])
    def test_indefinite_member_names_sample_and_pivot(self, j):
        bad = np.eye(5)
        bad[2:4, 2:4] = [[1.0, 2.0], [2.0, 1.0]]  # fails at pivot 3
        with pytest.raises(NotPositiveDefinite) as single:
            cholesky(bad)
        assert single.value.sample is None
        for fn in (cholesky, spd_inverse):
            with pytest.raises(NotPositiveDefinite) as exc:
                fn(self._stack_with(bad, j))
            assert (exc.value.sample, exc.value.pivot) == (j, single.value.pivot) == (j, 3)
            assert str(exc.value) == str(single.value)
        assert not is_spd(self._stack_with(bad, j))

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_non_finite_member_names_sample_and_pivot(self, bad_value):
        bad = np.eye(5)
        bad[1, 1] = bad_value
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(self._stack_with(bad, 3))
        assert (exc.value.sample, exc.value.pivot) == (3, 1)

    def test_first_failing_member_is_named(self):
        bad = np.diag([1.0, -1.0, 1.0, 1.0, 1.0])
        stack = self._stack_with(bad, 4)
        stack.reshape(-1, 5, 5)[1] = np.diag([1.0, 1.0, 1.0, 1.0, -2.0])
        with pytest.raises(NotPositiveDefinite) as exc:
            spd_inverse(stack)
        assert (exc.value.sample, exc.value.pivot) == (1, 4)

    def test_asymmetric_member_rejected(self):
        bad = np.eye(5)
        bad[0, 3] = 0.5
        for fn in (linalg.as_sym_array, cholesky, spd_inverse, eig_diagnostics):
            with pytest.raises(ValueError, match="not symmetric"):
                fn(self._stack_with(bad, 2))

    def test_non_finite_members_must_mirror_exactly(self):
        bad = np.eye(5)
        bad[0, 3] = bad[3, 0] = np.nan
        assert np.array_equal(linalg.as_sym_array(self._stack_with(bad, 1)),
                              self._stack_with(bad, 1), equal_nan=True)
        bad[3, 0] = 0.0
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.as_sym_array(self._stack_with(bad, 1))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4), (4, 2, 3)])
    def test_non_square_rejected(self, shape):
        for fn in (linalg.as_sym_array, cholesky, spd_inverse, eig_diagnostics):
            with pytest.raises(ValueError, match="square"):
                fn(np.ones(shape))

    def test_single_matrix_entry_points_reject_a_stack(self):
        from spodnet import baselines, datagen

        stack = np.stack([np.eye(3), np.eye(3)])
        cfg = baselines.GlassoConfig()
        calls = [
            lambda: linalg.as_sym_matrix(stack),
            lambda: baselines.glasso_solve(stack, cfg),
            lambda: baselines.glasso_objective(stack, np.eye(3), 0.1),
            lambda: baselines.glasso_objective(np.eye(3), stack, 0.1),
            lambda: glasso_kkt_residual(stack, np.eye(3), 0.1),
            lambda: glasso_kkt_residual(np.eye(3), stack, 0.1),
            lambda: datagen.sample_covariance(stack, 4, datagen.make_rng(0)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="square matrix"):
                call()

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from vqt import numerics
from vqt.errors import RowErrors, Singular
from vqt.model import build_matrices, validate_params
from vqt.numerics import inv
from vqt.solver import ScalarMixture, _moment, mean_wait, solve
from vqt.spectral import _assemble_u, build_spectral

from conftest import solvent_expm as _expm


def expm_reference(a: np.ndarray) -> np.ndarray:
    """Independent matrix exponential: scaling and squaring + Taylor."""
    norm = np.abs(a).sum(axis=1).max()
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.25))))
    b = a / 2**s
    out = np.eye(len(a))
    term = np.eye(len(a))
    for n in range(1, 40):
        term = term @ b / n
        out = out + term
        if np.abs(term).max() < 1e-22:
            break
    for _ in range(s):
        out = out @ out
    return out


def eigen_system(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, left vectors as rows, their inverse) of t with real spectrum,
    from numpy; t = inverse @ diag(values) @ left."""
    values, right = np.linalg.eig(t)
    return values.real, np.linalg.inv(right).real, right.real


class TestLuSolve:
    """inv: the LU solve of a against the identity."""

    def test_identity(self):
        assert np.array_equal(inv(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        x = inv(np.diag([2.0, 4.0]))
        assert np.allclose(x, np.diag([0.5, 0.25]), rtol=0, atol=0)

    def test_random_8x8_residual(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 8)) + 8 * np.eye(8)
        x = inv(a)
        assert np.abs(a @ x - np.eye(8)).max() <= 1e-10

    def test_singular_raises(self):
        with pytest.raises(Singular):
            inv(np.array([[1.0, 2.0], [2.0, 4.0]]))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        assert np.abs(a @ inv(a) - np.eye(n)).max() <= 1e-9


def reference_lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-oriented LU with scaled partial pivoting, then forward and back
    substitution, for every input: the path inv(a) takes for full ones, with
    b = I."""
    a = np.array(a, dtype=float)
    n = len(a)
    row_scale = np.abs(a).max(axis=1)
    if row_scale.min() == 0.0:
        raise Singular("matrix has a zero row")
    perm = np.arange(n)
    for j in range(n):
        scaled = np.abs(a[j:, j]) / row_scale[j:]
        p = j + int(np.argmax(scaled))
        if scaled[p - j] < 1e-14:
            raise Singular(f"pivot {a[p, j]:.3e} below 1e-14 of its row "
                           f"scale at column {j}")
        if p != j:
            a[[j, p]] = a[[p, j]]
            row_scale[[j, p]] = row_scale[[p, j]]
            perm[[j, p]] = perm[[p, j]]
        a[j + 1:, j] /= a[j, j]
        a[j + 1:, j + 1:] -= np.outer(a[j + 1:, j], a[j, j + 1:])
    b = np.asarray(b, dtype=float)
    x = b.reshape(len(b), -1)[perm].astype(float)
    for j in range(n):
        x[j + 1:] -= np.outer(a[j + 1:, j], x[j])
    for j in range(n - 1, -1, -1):
        x[j] /= a[j, j]
        if j:
            x[:j] -= np.outer(a[:j, j], x[j])
    return x[:, 0] if b.ndim == 1 else x


def graded_upper(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random upper-triangular matrix whose rows span twelve decades."""
    a = np.triu(rng.normal(size=(n, n)))
    a[np.diag_indices(n)] += np.sign(np.diag(a)) * 0.5
    return a * 10.0 ** rng.uniform(-6, 6, size=(n, 1))


def reference_error(a: np.ndarray) -> str:
    with pytest.raises(Singular) as ref:
        reference_lu_solve(a, np.eye(len(a)))
    return str(ref.value)


class TestUpperTriangularShortcut:
    """Upper-triangular inputs skip elimination and the forward pass, and
    must give exactly what the pivoted path gives."""

    @pytest.mark.parametrize("n", range(1, 25))
    def test_bit_identical_to_pivoted_path(self, n):
        rng = np.random.default_rng(100 + n)
        a = graded_upper(rng, n)
        got = inv(a)
        assert got.shape == (n, n)
        assert np.array_equal(got, reference_lu_solve(a, np.eye(n)))

    @pytest.mark.parametrize("column", [0, 2, 4])
    def test_small_diagonal_pivot_raises_reference_message(self, column):
        a = graded_upper(np.random.default_rng(column), 7)
        a[column, column] = 1e-15 * np.abs(a[column]).max()
        a[5, 5] = 0.0                           # a later failing column
        with pytest.raises(Singular) as got:
            inv(a)
        assert str(got.value) == reference_error(a)
        assert f"at column {min(column, 5)}" in str(got.value)

    def test_zero_row_raises_reference_message(self):
        a = graded_upper(np.random.default_rng(1), 5)
        a[2] = 0.0
        with pytest.raises(Singular, match="zero row") as got:
            inv(a)
        assert str(got.value) == reference_error(a)

    def test_diagonal_pivots_of_a_stack_fail_per_matrix(self):
        # a stack (N, n, n) raises, for each failing matrix, the Singular of
        # its own check; a stack of upper matrices through inv does the same
        rng = np.random.default_rng(6)
        stack = np.array([graded_upper(rng, 5) for _ in range(4)])
        stack[1, 3, 3] = 1e-15 * np.abs(stack[1, 3]).max()
        stack[3, 2] = 0.0
        want = {}
        for i, a in enumerate(stack):
            try:
                numerics._check_diagonal(a)
            except Singular as exc:
                want[i] = str(exc)
        assert sorted(want) == [1, 3]
        for check in (numerics._check_diagonal, inv):
            with pytest.raises(RowErrors) as got:
                check(stack)
            assert {i: str(e) for i, e in got.value.errors.items()} == want

    def test_only_non_upper_inputs_reach_lu_factor(self, monkeypatch):
        def unreachable(a):
            raise AssertionError("lu_factor called")

        monkeypatch.setattr(numerics, "lu_factor", unreachable)
        rng = np.random.default_rng(3)
        upper = graded_upper(rng, 6)
        assert np.array_equal(inv(upper), reference_lu_solve(upper, np.eye(6)))
        for other in (upper.T, rng.normal(size=(6, 6)) + 6 * np.eye(6)):
            with pytest.raises(AssertionError, match="lu_factor called"):
                inv(other)

    def test_non_finite_upper_input_takes_pivoted_path(self):
        # 0 * NaN in the elimination makes NaN below a NaN entry, where back
        # substitution alone keeps it in its row; the short-cut must not
        # skip that, though the matrix is upper triangular
        a = graded_upper(np.random.default_rng(4), 4)
        a[0, 3] = np.nan
        with np.errstate(invalid="ignore"):
            got, ref = inv(a), reference_lu_solve(a, np.eye(4))
        assert np.isnan(ref[1:]).any()
        assert np.array_equal(got, ref, equal_nan=True)


N0 = numerics._LIST_MAX_ORDER


def reference_lu_factor(a: np.ndarray, b: np.ndarray):
    """reference_lu_solve's elimination of a alone, then its forward pass
    on b[perm]: the packed LU and L^-1 P b."""
    a = np.array(a, dtype=float)
    n = len(a)
    perm = np.arange(n)
    row_scale = np.abs(a).max(axis=1)
    for j in range(n):
        p = j + int(np.argmax(np.abs(a[j:, j]) / row_scale[j:]))
        a[[j, p]] = a[[p, j]]
        row_scale[[j, p]] = row_scale[[p, j]]
        perm[[j, p]] = perm[[p, j]]
        a[j + 1:, j] /= a[j, j]
        a[j + 1:, j + 1:] -= np.outer(a[j + 1:, j], a[j, j + 1:])
    y = np.asarray(b, dtype=float)[perm]
    for j in range(n):
        y[j + 1:] -= np.outer(a[j + 1:, j], y[j])
    return a, y


def graded(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """A random upper, lower or full matrix whose rows span twelve decades."""
    if kind == "upper":
        return graded_upper(rng, n)
    if kind == "lower":
        return graded_upper(rng, n)[::-1, ::-1].copy()
    a = rng.normal(size=(n, n)) + 0.5 * np.eye(n)
    return a * 10.0 ** rng.uniform(-6, 6, size=(n, 1))


@pytest.fixture(params=["list", "numpy"])
def executor(request, monkeypatch):
    """Send every finite matrix of order <= _LIST_MAX_ORDER to one executor."""
    if request.param == "numpy":
        monkeypatch.setattr(numerics, "_LIST_MAX_ORDER", 0)
    return request.param


def outcome(a):
    """The bytes and shape of inv(a) and of the reference inverse, or the
    exception's type and text."""
    got = []
    for solve in (inv, lambda a: reference_lu_solve(a, np.eye(len(a)))):
        try:
            with np.errstate(all="ignore"):
                x = solve(a)
        except Singular as exc:
            got.append((type(exc), str(exc)))
        else:
            got.append((x.shape, x.tobytes()))
    return got


class TestExecutors:
    """Matrices of order <= _LIST_MAX_ORDER run on Python floats, larger ones
    on numpy arrays; both must give reference_lu_solve's bits."""

    @pytest.mark.parametrize("n", range(1, N0 + 3))
    @pytest.mark.parametrize("kind", ["upper", "lower", "full"])
    def test_bytes_match_reference(self, executor, n, kind):
        rng = np.random.default_rng(1000 * n + len(kind))
        a = graded(rng, n, kind)
        got = inv(a)
        assert got.shape == (n, n)
        assert got.tobytes() == reference_lu_solve(a, np.eye(n)).tobytes()

    def test_zero_multiplier_updates_keep_signed_zeros(self, executor):
        # row 1 has multiplier 0 at column 0, yet -0.0 - 0 * (-1.0) = +0.0:
        # skipping zero-multiplier updates would leave u_12 = -0.0
        a = np.array([[4.0, 1.0, -1.0], [0.0, -3.0, -0.0], [1.0, 1.0, 5.0]])
        ab = np.hstack((a, np.eye(3)))
        if executor == "list":
            packed = np.array(numerics.lu_factor(ab.tolist()))
        else:
            numerics._factor_stack(ab, 3)         # raises nothing
            packed = ab
        assert packed[1, 2] == 0.0 and not np.signbit(packed[1, 2])
        assert packed.tobytes() == np.hstack(reference_lu_factor(a, np.eye(3))).tobytes()
        # the inverse keeps the reference's signed zeros: x_10 = +0.0 / -3
        got = inv(a)
        assert got[1, 0] == 0.0 and np.signbit(got[1, 0])
        assert got.tobytes() == reference_lu_solve(a, np.eye(3)).tobytes()

    def test_zero_row_message(self, executor):
        a = graded(np.random.default_rng(11), 6, "full")
        a[3] = 0.0
        with pytest.raises(Singular, match="zero row") as got:
            inv(a)
        assert str(got.value) == reference_error(a)

    @pytest.mark.parametrize("column, swap",
                             [(0, False), (2, False), (4, False), (4, True)])
    def test_small_pivot_message(self, executor, column, swap):
        a = graded(np.random.default_rng(20 + column), 7, "upper")
        a[column, column] = 1e-15 * np.abs(a[column]).max()
        if swap:
            a[[0, 1]] = a[[1, 0]]       # column 0 swaps them back first
        with pytest.raises(Singular) as got:
            inv(a)
        assert str(got.value) == reference_error(a)
        assert f"at column {column}" in str(got.value)

    # the non-finite entry sits in a: inv's right-hand side is always I
    @pytest.mark.parametrize("where", ["a"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["upper", "lower", "full"])
    def test_non_finite_input_matches_reference(self, where, value, kind):
        rng = np.random.default_rng(5)
        for n in (1, 3, N0):
            a = graded(rng, n, kind)
            a[n // 2, 0] = value
            got, ref = outcome(a)
            assert got == ref

    @pytest.mark.parametrize("n", [1, 4, N0, N0 + 2])
    @pytest.mark.parametrize("kind", ["lower", "full"])
    def test_factor_of_augmented_matrix(self, n, kind):
        rng = np.random.default_rng(30 + n)
        a = graded(rng, n, kind)
        b = rng.normal(size=(n, 3))
        lu, y = reference_lu_factor(a, b)
        ab = np.hstack((a, b))          # both executors, each in place
        numerics._factor_stack(ab, n)               # raises nothing
        for packed in (ab, np.array(numerics.lu_factor(np.hstack((a, b)).tolist()))):
            assert packed.shape == (n, n + 3)
            assert packed[:, :n].tobytes() == lu.tobytes()
            assert packed[:, n:].tobytes() == y.tobytes()


class TestMatFunc:
    """The solvent exponential e^{Ux} = V^-1 diag(e^{roots x}) V (the form of
    e^{U1- k} and e^{-U1+ k} in solver._boundary)
    and the assembly of U itself (spectral._assemble_u)."""

    def test_identity_function_reconstructs(self):
        rng = np.random.default_rng(5)
        t = np.triu(rng.normal(size=(5, 5)))
        t[np.diag_indices(5)] = [1, 2, 3, 4, 5]
        values, left, _ = eigen_system(t)
        # the left eigenvector of an upper-triangular t for t[i, i] vanishes
        # before entry i; scaled to 1 there and ordered by i, the vectors form
        # the unitriangular basis that _assemble_u takes
        order = np.argsort(values)
        v = np.triu(left[order] / left[order].diagonal()[:, None])
        u, _, _ = _assemble_u(values[order], v, "upper")
        assert np.abs(u - t).max() < 1e-10 * np.abs(t).max()

    def test_exp_diagonal(self):
        got = _expm(*eigen_system(np.diag([0.0, np.log(2.0)])), 1.0)
        assert np.allclose(got, np.diag([1.0, 2.0]), atol=1e-14)

    def test_exp_vs_scaling_squaring(self):
        t = np.array([[0.5, 0.3, -0.2], [0.0, -0.7, 0.4], [0.0, 0.0, 1.1]])
        got = _expm(*eigen_system(t), 1.0)
        ref = expm_reference(t)
        assert np.abs(got - ref).max() < 1e-9 * np.abs(ref).max()

    @given(st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_semigroup_property(self, x, y):
        t = np.array([[-0.4, 0.8, 0.1], [0.0, -1.0, 0.3], [0.0, 0.0, -0.2]])
        es = eigen_system(t)
        exy = _expm(*es, x + y)
        ex = _expm(*es, x)
        ey = _expm(*es, y)
        assert np.abs(exy - ex @ ey).max() <= 1e-9 * max(1.0, np.abs(exy).max())

    @pytest.mark.parametrize("case", [
        (8, 5.6, 0.8, 1.0, 0.5),          # the ROADMAP scan point at c = 8
        (2, 2.0, 0.75, 1.12, 0.45),       # the worked two-server case
    ])
    def test_pipeline_solvents_vs_expm(self, case):
        p = validate_params(*case)
        sp = build_spectral(p, build_matrices(p))
        c, k = p.c, p.k
        for roots, basis, inverse, u in (
            (sp.theta[:c], sp.phi[:c], sp.phi_minus_inv, sp.u1_minus),
            (sp.theta[c:], sp.phi[c:], sp.phi_plus_inv, sp.u1_plus),
        ):
            ref = expm(k * u)
            got = _expm(roots, basis, inverse, k)
            assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


class TestIKernel:
    """The moment kernel int_0^k th x e^(th x) dx of mean_wait: its closed
    form, read through mean_wait of a one-term mixture, and the series
    below |th| k = 1e-6 (solver._moment)."""

    @staticmethod
    def closed_form(theta):
        # lower branch: one term of rate theta and weight 1 on [0, 1]; one
        # upper term of weight 0 adds (1/r - k) * 0 = -0.0 to the moment
        sol = solve(validate_params(1, 0.5, 0.8, 1.0, 1.0))
        mix = ScalarMixture(k=1.0, lower_rates=np.array([theta]),
                            lower_weights=np.array([[1.0]]), lower_constant=np.array([-1.0]),
                            upper_rates=np.array([-1.0]), upper_weights=np.array([[0.0]]),
                            upper_constant=np.array([1.0]))
        return mean_wait(dataclasses.replace(sol, mixture=mix))

    def test_zero_matrix_gives_zero(self):
        assert _moment(0.0, 2.0) == 0.0

    def test_scalar_one_integration_by_parts(self):
        # int_0^1 x e^x dx = 1
        assert abs(self.closed_form(1.0) - 1.0) < 1e-12

    @pytest.mark.parametrize("theta", [0.8e-6, 1.2e-6, -0.8e-6, -1.2e-6])
    def test_taylor_switchover_vs_quadrature(self, theta):
        # both sides of the 1e-6 switch agree with direct quadrature; the
        # closed form just above it cancels to ~1e-10 absolute, the series
        # below it is exact to machine precision
        got = _moment(theta, 1.0) if abs(theta) < 1e-6 else self.closed_form(theta)
        ref = quad(lambda x: theta * x * np.exp(theta * x), 0.0, 1.0,
                   epsabs=1e-16, epsrel=1e-13)[0]
        tol = 1e-13 if abs(theta) < 1e-6 else 1e-9
        assert abs(got - ref) < tol


def test_inv_roundtrip():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
    assert np.abs(a @ inv(a) - np.eye(5)).max() < 1e-11

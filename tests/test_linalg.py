import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg.lapack import dgttrf

from hybridlv import linalg
from hybridlv.errors import InvalidInputError, SingularSystemError
from hybridlv.linalg import thomas_apply, thomas_prefactor

from .oracles import TridiagonalSystem, dense_tridiagonal_solve, solve_tridiagonal


def _random_dominant(rng, n):
    a = rng.uniform(-1.0, 1.0, n)
    c = rng.uniform(-1.0, 1.0, n)
    a[0] = c[-1] = 0.0
    sign = rng.choice([-1.0, 1.0], n)
    b = sign * (np.abs(a) + np.abs(c) + 1.0 + rng.uniform(0.0, 2.0, n))
    f = rng.uniform(-5.0, 5.0, n)
    return a, b, c, f


def _residual(a, b, c, x, f):
    n = len(b)
    r = b * x - f
    r[1:] += a[1:] * x[:-1]
    r[:-1] += c[:-1] * x[1:]
    return np.max(np.abs(r))


def test_identity_system():
    n = 11
    f = np.linspace(-2, 2, n)
    sys = TridiagonalSystem(np.zeros(n), np.ones(n), np.zeros(n), f)
    assert np.allclose(solve_tridiagonal(sys), f, rtol=0, atol=0)


def test_three_by_three_against_dense_oracle():
    a = np.array([0.0, 1.0, 1.0])
    b = np.array([4.0, 4.0, 4.0])
    c = np.array([1.0, 1.0, 0.0])
    f = np.array([6.0, 12.0, 10.0])
    x = solve_tridiagonal(TridiagonalSystem(a, b, c, f))
    oracle = dense_tridiagonal_solve(a, b, c, f)
    assert np.allclose(x, oracle, rtol=1e-14)
    # frozen from the dense solve: (13/14, 16/7, 27/14)
    assert x == pytest.approx([0.9285714285714286, 2.2857142857142856, 1.9285714285714286])


def test_two_hundred_random_dominant_systems(rng):
    for _ in range(200):
        n = int(rng.integers(2, 60))
        a, b, c, f = _random_dominant(rng, n)
        x = solve_tridiagonal(TridiagonalSystem(a, b, c, f))
        assert _residual(a, b, c, x, f) <= 1e-10 * (1.0 + np.max(np.abs(f)))


@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_residual_property(n, seed):
    rng = np.random.default_rng(seed)
    a, b, c, f = _random_dominant(rng, n)
    x = solve_tridiagonal(TridiagonalSystem(a, b, c, f))
    assert _residual(a, b, c, x, f) <= 1e-10 * (1.0 + np.max(np.abs(f)))


def test_zero_pivot_raises():
    sys = TridiagonalSystem(
        np.array([0.0, 1.0]), np.array([0.0, 2.0]), np.array([1.0, 0.0]), np.array([1.0, 1.0])
    )
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(sys)


def test_length_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        TridiagonalSystem(np.zeros(3), np.ones(4), np.zeros(4), np.ones(4))


def _lines(x, axis):
    """The lines of a batch, each as a 1-d array running along ``axis``."""
    return list(x.T if axis == 0 else x)


def _solve_batch(a, b, c, f, axis):
    return thomas_apply(thomas_prefactor(a, b, c, axis), f)


@pytest.mark.parametrize("axis", [0, 1])
def test_batched_solver_matches_scalar_path(rng, axis):
    n, m = 17, 9
    shape = (n, m) if axis == 0 else (m, n)
    a = rng.uniform(-1, 1, shape)
    c = rng.uniform(-1, 1, shape)
    b = np.abs(a) + np.abs(c) + 1.5
    f = rng.uniform(-3, 3, shape)
    x = _solve_batch(a, b, c, f, axis)
    assert x.shape == shape
    # compare each batch line against the one-system solver
    for line in zip(*(_lines(v, axis) for v in (a, b, c, f, x))):
        sys = TridiagonalSystem(*line[:4])
        assert np.allclose(line[4], solve_tridiagonal(sys), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 31, 32, 33, 70])
def test_blocked_scan_matches_dense_oracle_at_block_edges(rng, axis, n):
    # Line lengths around multiples of the 16-row block, so the carry from
    # block to block and a partly padded last block are both exercised.
    m = 5
    shape = (n, m) if axis == 0 else (m, n)
    a = rng.uniform(-1, 1, shape)
    c = rng.uniform(-1, 1, shape)
    b = rng.choice([-1.0, 1.0], shape) * (np.abs(a) + np.abs(c) + 1.0 + rng.uniform(0, 2, shape))
    f = rng.uniform(-3, 3, shape)
    lu = thomas_prefactor(a, b, c, axis)
    x = thomas_apply(lu, f)
    # The factors keep a work buffer; a non-finite solve leaves nothing in it.
    assert np.isnan(thomas_apply(lu, np.full(shape, np.nan))).all()
    assert np.array_equal(thomas_apply(lu, f), x)
    for la, lb, lc, lf, lx in zip(*(_lines(v, axis) for v in (a, b, c, f, x))):
        la, lc = la.copy(), lc.copy()
        la[0] = lc[-1] = 0.0
        assert np.allclose(lx, dense_tridiagonal_solve(la, lb, lc, lf), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("axis", [0, 1])
def test_overflowing_scan_products_raise(axis):
    # No row is swapped, but an upper coupling of 1e30 over a unit pivot on
    # every row overflows the scan's in-block products.
    n, m = 20, 3
    a, b, c = np.zeros((n, m)), np.ones((n, m)), np.full((n, m), 1e30)
    if axis == 1:
        a, b, c = a.T, b.T, c.T
    with pytest.raises(SingularSystemError, match="product of the blocked scan overflows"):
        thomas_prefactor(a, b, c, axis)


@pytest.mark.parametrize("axis", [0, 1])
def test_a_line_that_needs_a_row_swap_raises(rng, axis):
    n, m = 12, 7
    shape = (n, m) if axis == 0 else (m, n)
    a = rng.uniform(-1, 1, shape)
    c = rng.uniform(-1, 1, shape)
    b = np.abs(a) + np.abs(c) + 1.5
    # Line 4 is far from diagonally dominant: every sub-diagonal entry
    # outweighs its diagonal, so partial pivoting must swap rows, first on row 1.
    weak = (slice(None), 4) if axis == 0 else (4, slice(None))
    b[weak] = rng.uniform(-0.1, 0.1, n)
    a[weak] = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 3.0, n)
    lines = (a, b, c) if axis == 0 else (a.T, b.T, c.T)
    _, _, ipiv = _gttrf_factors(*lines)
    assert ipiv[0, 4] == 4 * n + 2  # gttrf swaps rows 0 and 1 of line 4 (1-based, batch-wide)
    with pytest.raises(SingularSystemError, match=r"a line needs a row swap .* at row 1$"):
        thomas_prefactor(a, b, c, axis)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("where", ["first", "later"])
def test_batch_with_zero_elimination_pivot_raises(rng, axis, where):
    # These lines are nonsingular but meet a zero pivot under elimination
    # without row interchanges, which only a row swap would avoid.
    n, m = 6, 5
    a = rng.uniform(-1, 1, (n, m))
    c = rng.uniform(-1, 1, (n, m))
    b = np.abs(a) + np.abs(c) + 1.5
    if where == "first":
        b[0, 3] = 0.0
    else:
        # second pivot b[1] - a[1] * c[0] / b[0] vanishes
        b[0, 3], c[0, 3], a[1, 3], b[1, 3] = 1.0, 1.0, 2.0, 2.0
    a[0] = c[-1] = 0.0
    if axis == 1:
        a, b, c = a.T, b.T, c.T
    row = 0 if where == "first" else 1
    with pytest.raises(SingularSystemError, match=f"zero or non-finite pivot at row {row}$"):
        thomas_prefactor(a, b, c, axis)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("where", ["first", "later", "nan", "inf"])
def test_batch_with_one_singular_line_raises(rng, axis, where):
    n, m = 6, 5
    a = rng.uniform(-1, 1, (n, m))
    c = rng.uniform(-1, 1, (n, m))
    b = np.abs(a) + np.abs(c) + 1.5
    if where == "first":
        a[0, 3] = b[0, 3] = c[0, 3] = 0.0
    elif where == "later":
        a[3, 3] = b[3, 3] = c[3, 3] = 0.0
    elif where == "nan":
        b[2, 3] = np.nan
    else:
        # an infinite pivot leaves the factorisation without a zero pivot
        b[2, 3] = np.inf
    if axis == 1:
        a, b, c = a.T, b.T, c.T
    with pytest.raises(SingularSystemError, match="zero or non-finite pivot"):
        thomas_prefactor(a, b, c, axis)


def test_right_hand_side_of_another_shape_rejected():
    a, b, c = np.zeros((4, 8)), np.ones((4, 8)), np.zeros((4, 8))
    lu = thomas_prefactor(a, b, c, axis=1)
    with pytest.raises(InvalidInputError):
        thomas_apply(lu, np.ones((8, 4)))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("route", ["scan", "swap"])
def test_solve_into_strided_out_matches_allocating_route(rng, axis, route):
    # The right-hand side and the output are interiors of padded arrays, as
    # the step operator passes them; line 4 of the swap batch needs row
    # swaps, so it has no route and raises.
    n, m = 35, 7
    shape = (n, m) if axis == 0 else (m, n)
    a, c = rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape)
    b = np.abs(a) + np.abs(c) + 1.5
    if route == "swap":
        weak = (slice(None), 4) if axis == 0 else (4, slice(None))
        b[weak] = rng.uniform(-0.1, 0.1, n)
        a[weak] = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 3.0, n)
        with pytest.raises(SingularSystemError, match="needs a row swap"):
            thomas_prefactor(a, b, c, axis)
        return
    lu = thomas_prefactor(a, b, c, axis)
    f_pad = rng.uniform(-3, 3, (shape[0] + 2, shape[1] + 2))
    out_pad = np.full_like(f_pad, 7.0)
    f, out = f_pad[1:-1, 1:-1], out_pad[1:-1, 1:-1]
    want = thomas_apply(lu, f.copy())
    # a new array comes back in C order, whatever the axis
    assert want.flags.c_contiguous
    assert thomas_apply(lu, f, out=out) is out
    assert np.array_equal(out, want)
    ring = np.ones(out_pad.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    assert np.all(out_pad[ring] == 7.0)


@pytest.mark.parametrize("axis, reshape, match", [
    (2, None, "axis must be 0 or 1"),
    (-1, None, "axis must be 0 or 1"),
    (0, lambda a, b, c: (a[:, :19], b, c), "2-d float arrays of one shape"),
    (1, lambda a, b, c: (a, b, c[:, :, None]), "2-d float arrays of one shape"),
    (0, lambda a, b, c: (a[0], b[0], c[0]), "2-d float arrays of one shape"),
    (0, lambda a, b, c: (a.tolist(), b, c), "2-d float arrays of one shape"),
    (1, lambda a, b, c: (a.astype(int), b.astype(int), c.astype(int)), "2-d float arrays"),
], ids=["axis 2", "axis -1", "a narrower", "c 3-d", "1-d lines", "a list", "integers"])
def test_a_batch_the_scan_would_misread_is_refused(rng, axis, reshape, match):
    # Unrefused, axis 2 or -1 was factored as axis 0 and solved as axis 1,
    # without error: a residual of 0.54 along either axis (axis 2), a
    # solution 0.10 off the axis 1 one (axis -1). Integer lines died in the
    # elimination with a bare numpy UFuncTypeError.
    shape = (20, 20)
    a, c = rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape)
    b = np.abs(a) + np.abs(c) + 1.5
    if reshape is not None:
        a, b, c = reshape(a, b, c)
    with pytest.raises(InvalidInputError, match=match):
        thomas_prefactor(a, b, c, axis)


def test_output_of_another_shape_rejected():
    a, b, c = np.zeros((4, 8)), np.ones((4, 8)), np.zeros((4, 8))
    lu = thomas_prefactor(a, b, c, axis=1)
    with pytest.raises(InvalidInputError, match="output shape"):
        thomas_apply(lu, np.ones((4, 8)), out=np.empty((8, 4)))


def _gttrf_factors(a, b, c):
    """LAPACK's ``l``, ``d`` and pivot vector of lines that are each a
    column of (n, W) ``a``, ``b``, ``c``, laid out as (n, W) too."""
    n, width = b.shape
    dl, du = a.T.flatten(), c.T.flatten()
    dl[::n] = 0.0
    du[n - 1::n] = 0.0
    dl, d, _, _, ipiv, info = dgttrf(dl[1:], b.T.flatten(), du[:-1])
    assert info == 0

    def by_line(x):
        return x.reshape(width, n).T

    return by_line(np.append(0.0, dl)), by_line(d), by_line(ipiv)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("n", [15, 16, 17, 33])
def test_numpy_factors_match_gttrf(rng, axis, n):
    # |a|, |c| <= 1 under |b| >= 3 keep every pivot above 2: gttrf swaps no row.
    m = 7
    shape = (n, m) if axis == 0 else (m, n)
    a, c = rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape)
    b = rng.choice([-1.0, 1.0], shape) * rng.uniform(3.0, 5.0, shape)
    lines = (a, b, c) if axis == 0 else (a.T, b.T, c.T)
    lower, diag = linalg._eliminate(*lines)
    want_l, want_d, ipiv = _gttrf_factors(*lines)
    assert np.array_equal(ipiv.T.ravel(), np.arange(1, n * m + 1))
    # The same operations in the same order; a LAPACK built with fused
    # multiply-adds may round d_i once where numpy rounds twice.
    for got, want in ((lower, want_l), (diag, want_d)):
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
    # and these are the factors the scan solves with
    lu = thomas_prefactor(a, b, c, axis)
    stored = np.empty_like(lower)
    linalg._gather(lu.lower, stored)
    assert np.array_equal(stored, lower)


@pytest.mark.parametrize("axis", [0, 1])
def test_a_batch_factors_exactly_when_gttrf_keeps_every_pivot(rng, axis):
    # Weakly dominant lines, some of which pivot, and one line whose every
    # sub-diagonal entry ties its pivot (|d_{i-1}| = |a_i|, no swap in gttrf).
    # A batch that gttrf would pivot raises, naming the swap.
    n, m = 20, 4
    for _ in range(40):
        shape = (n, m) if axis == 0 else (m, n)
        a, c = rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape)
        b = rng.choice([-1.0, 1.0], shape) * rng.uniform(0.9, 2.5, shape)
        lines = [x if axis == 0 else x.T for x in (a, b, c)]
        lines[0][:, 0], lines[1][:, 0], lines[2][:, 0] = 1.0, 1.0, 0.0
        _, _, ipiv = _gttrf_factors(*lines)
        if not np.array_equal(ipiv.T.ravel(), np.arange(1, n * m + 1)):
            with pytest.raises(SingularSystemError, match="needs a row swap"):
                thomas_prefactor(a, b, c, axis)
            continue
        lu = thomas_prefactor(a, b, c, axis)
        f = rng.uniform(-3, 3, shape)
        x = thomas_apply(lu, f)
        for la, lb, lc, lf, lx in zip(*(_lines(v, axis) for v in (a, b, c, f, x))):
            la, lc = la.copy(), lc.copy()
            la[0] = lc[-1] = 0.0
            assert np.allclose(lx, dense_tridiagonal_solve(la, lb, lc, lf), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("weak", [False, True, "singular"])
def test_one_line_broadcast_over_the_batch_factors_as_its_copies(rng, axis, weak):
    # A line the scan solves is factored once: the factors of its row loops
    # are copied out, and its block weights stay read-only views of the one
    # line, which solve with the same bits; a line that needs row swaps, or
    # a singular line, raises with the cause its copies raise with.
    n, m = 37, 6
    a, b, c, _ = _random_dominant(rng, n)
    if weak == "singular":
        a[5] = b[5] = c[5] = 0.0
    elif weak:
        a[1:] *= 10.0
    shape = (n, m) if axis == 0 else (m, n)
    as_line = (lambda x: x[:, None]) if axis == 0 else (lambda x: x[None, :])
    broadcast = [np.broadcast_to(as_line(x), shape) for x in (a, b, c)]
    copies = [x.copy() for x in broadcast]
    if weak:
        cause = "zero or non-finite pivot" if weak == "singular" else "needs a row swap"
        for lines in (broadcast, copies):
            with pytest.raises(SingularSystemError, match=cause):
                thomas_prefactor(*lines, axis)
        return
    shared = thomas_prefactor(*broadcast, axis)
    separate = thomas_prefactor(*copies, axis)
    for name in ("lower", "upper", "inv_diag", "fwd_weights", "bwd_weights",
                 "fwd_carry", "bwd_carry"):
        got, want = getattr(shared, name), getattr(separate, name)
        assert np.array_equal(got, want)
        one_line = name in ("fwd_weights", "bwd_weights")
        assert got.flags.writeable != one_line
        assert (got.strides[-1] == 0) == one_line
    f = rng.uniform(-3, 3, shape)
    assert np.array_equal(thomas_apply(shared, f), thomas_apply(separate, f))


@pytest.mark.parametrize("axis", [0, 1])
def test_a_lent_work_buffer_solves_as_an_own_one(rng, axis):
    # Two batches lent one buffer, solved one at a time, give the bits of
    # their own buffers; a buffer short of the scan's work, or not flat, is refused.
    n, m = 37, 6
    shape = (n, m) if axis == 0 else (m, n)
    a, b, c = (rng.uniform(-1, 1, shape) for _ in range(3))
    b += 3.0 * np.sign(b)
    size = linalg.scan_work_size(shape, axis)
    assert size == 48 * m  # the 37 rows of each line padded to blocks of 16
    work = np.empty(size + 5)
    lent = thomas_prefactor(a, b, c, axis, work=work)
    other = thomas_prefactor(0.5 * a, b, c, axis, work=work)
    assert np.shares_memory(lent.work, other.work)
    own, own_other = thomas_prefactor(a, b, c, axis), thomas_prefactor(0.5 * a, b, c, axis)
    f = rng.uniform(-3, 3, shape)
    for factors, reference in ((lent, own), (other, own_other), (lent, own)):
        assert np.array_equal(thomas_apply(factors, f), thomas_apply(reference, f))
    for bad in (np.empty(size - 1), np.empty((2, size))):
        with pytest.raises(InvalidInputError, match="work buffer"):
            thomas_prefactor(a, b, c, axis, work=bad)

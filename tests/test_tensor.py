import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbss import tensor
from tensorbss.bss import apply_unmixing, unmix
from tensorbss.simgen import gen_mixing, mix
from tensorbss.tensor import (
    m_flatten,
    m_unflatten,
    mode_product,
    read_series,
    series_components,
    series_flatten,
    series_from_components,
    series_mode_product,
    series_multilinear_product,
    unvectorize,
    vectorize,
    write_series,
)

from oracles import naive_m_flatten, naive_vectorize

rng = np.random.default_rng(20260826)


def random_dims(draw_rng, max_order=3):
    r = draw_rng.integers(1, max_order + 1)
    return tuple(int(d) for d in draw_rng.integers(1, 5, r))


def test_flatten_matrix_modes():
    m = rng.standard_normal((2, 3))
    assert np.array_equal(m_flatten(m, 1), m)
    assert np.array_equal(m_flatten(m, 2), m.T)


def test_flatten_matches_fiber_enumeration():
    x = rng.standard_normal((3, 2, 2))
    for mode in (1, 2, 3):
        assert np.array_equal(m_flatten(x, mode), naive_m_flatten(x, mode))


def test_flatten_mode_out_of_range():
    x = rng.standard_normal((3, 2))
    with pytest.raises(ValueError):
        m_flatten(x, 0)
    with pytest.raises(ValueError):
        m_flatten(x, 3)


def test_unflatten_round_trip():
    x = rng.standard_normal((3, 2, 2))
    for mode in (1, 2, 3):
        assert np.array_equal(m_unflatten(m_flatten(x, mode), mode, x.shape), x)


def test_unflatten_zero_and_shape_errors():
    assert np.array_equal(m_unflatten(np.zeros((2, 6)), 1, (2, 3, 2)), np.zeros((2, 3, 2)))
    with pytest.raises(ValueError):
        m_unflatten(np.zeros((2, 5)), 1, (2, 3, 2))


def test_unflatten_detects_column_permutation():
    x = rng.standard_normal((3, 2, 2))
    m = m_flatten(x, 2)
    perm = np.array([2, 0, 1, 3, 5, 4])
    assert not np.array_equal(m_unflatten(m[:, perm], 2, x.shape), x)


def test_mode_product_identity():
    x = rng.standard_normal((3, 2, 2))
    for mode, p in ((1, 3), (2, 2), (3, 2)):
        assert np.array_equal(mode_product(x, np.eye(p), mode), x)


def test_mode_product_flattening_identity():
    x = rng.standard_normal((3, 2, 2))
    a = rng.standard_normal((4, 2))
    y = mode_product(x, a, 2)
    assert np.allclose(m_flatten(y, 2), a @ m_flatten(x, 2), atol=1e-14)


def test_mode_products_commute_across_modes():
    x = rng.standard_normal((3, 2, 2))
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2))
    y1 = mode_product(mode_product(x, a, 1), b, 2)
    y2 = mode_product(mode_product(x, b, 2), a, 1)
    assert np.allclose(y1, y2, atol=1e-13)


def test_mode_product_dim_mismatch():
    with pytest.raises(ValueError):
        mode_product(rng.standard_normal((3, 2)), np.eye(3), 2)


def test_vectorize_layout():
    x = np.array([[1.0, 3.0], [2.0, 4.0]])  # element (2,1) -> position 2
    assert np.array_equal(vectorize(x), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(vectorize(np.zeros((2, 3))), np.zeros(6))


def test_vectorize_matches_naive():
    x = rng.standard_normal((3, 2, 2))
    assert np.array_equal(vectorize(x), naive_vectorize(x))
    assert np.array_equal(unvectorize(vectorize(x), x.shape), x)


def test_vec_kronecker_identity():
    x = rng.standard_normal((3, 2, 2))
    mats = [rng.standard_normal((p, p)) for p in (3, 2, 2)]
    y = x
    for mode, a in enumerate(mats, start=1):
        y = mode_product(y, a, mode)
    big = np.kron(mats[2], np.kron(mats[1], mats[0]))
    assert np.allclose(vectorize(y), big @ vectorize(x), atol=1e-12)


def test_series_helpers_match_per_frame():
    xs = rng.standard_normal((7, 3, 2, 2))
    a = rng.standard_normal((5, 2))
    for mode in (1, 2, 3):
        f = series_flatten(xs, mode)
        for t in range(7):
            assert np.array_equal(f[t], m_flatten(xs[t], mode))
    y = series_mode_product(xs, a, 2)
    for t in range(7):
        assert np.allclose(y[t], mode_product(xs[t], a, 2), atol=1e-14)
    comps = series_components(xs)
    for t in range(7):
        assert np.array_equal(comps[t], vectorize(xs[t]))


def einsum_product(x, mats):
    """X x_1 A_1 ... x_k A_k of one frame X, as one einsum."""
    idx, new = "abcdefg"[:x.ndim], "hijklmn"[:len(mats)]
    ops = "".join(f",{o}{i}" for o, i in zip(new, idx))
    return np.einsum(f"{idx}{ops}->{new}{idx[len(mats):]}", x, *mats)


class TestProductKernels:
    """`series_multilinear_product`'s two kernels, one GEMM with the Kronecker
    product for frames of at most `KRON_FRAME_MAX` entries and chained
    `series_mode_product` calls for larger ones, against per-frame einsums,
    with the vector (12,) and 3x2x2 frames on the Kronecker side and the
    10x8x3 frames on the chained side."""

    SIDES = [((12,), True), ((3, 2, 2), True), ((10, 8, 3), False)]

    @pytest.mark.parametrize("dims,kron", SIDES)
    def test_the_frame_size_picks_the_kernel(self, monkeypatch, dims, kron):
        calls, fn = [], tensor.series_mode_product

        def counted(xs, a, mode):
            calls.append(mode)
            return fn(xs, a, mode)

        monkeypatch.setattr(tensor, "series_mode_product", counted)
        r = np.random.default_rng(60)
        series_multilinear_product(r.standard_normal((5,) + dims),
                                   [r.standard_normal((p, p)) for p in dims])
        assert calls == ([] if kron else list(range(1, len(dims) + 1)))

    @pytest.mark.parametrize("frame_max", [0, 10**9])  # every frame on one side
    @pytest.mark.parametrize("dims", [dims for dims, _ in SIDES])
    def test_kernels_match_per_frame_einsum(self, monkeypatch, dims, frame_max):
        monkeypatch.setattr(tensor, "KRON_FRAME_MAX", frame_max)
        r = np.random.default_rng(61)
        xs = r.standard_normal((9,) + dims)
        square = [r.standard_normal((p, p)) for p in dims]
        cases = [
            (xs, square),
            (xs, [r.standard_normal((p + (-1) ** m, p)) for m, p in enumerate(dims)]),
            (xs, square[:-1]),  # fewer matrices than modes
            (np.asfortranarray(xs), square),  # not C-contiguous
        ]
        for x, mats in cases:
            want = np.stack([einsum_product(frame, mats) for frame in x])
            got = series_multilinear_product(x, mats)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("dims", [(12,), (3, 2, 2), (10, 8, 3)])
    def test_mode_product_is_c_contiguous_and_matches_einsum(self, dims):
        r = np.random.default_rng(62)
        xs = r.standard_normal((9,) + dims)
        for mode, p in enumerate(dims, start=1):
            a = r.standard_normal((p + 1, p))
            mats = [np.eye(q) for q in dims[:mode - 1]] + [a]
            got = series_mode_product(xs, a, mode)
            assert got.flags.c_contiguous
            want = np.stack([einsum_product(frame, mats) for frame in xs])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_too_many_or_mismatched_matrices_rejected(self):
        xs = rng.standard_normal((4, 3, 2))
        with pytest.raises(ValueError, match="out of range"):
            series_multilinear_product(xs, [np.eye(3), np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match=re.escape("matrix of shape (2, 3) cannot act on "
                                                       "mode 2 of size 2")):
            series_multilinear_product(xs, [np.eye(3), np.ones((2, 3))])

    @pytest.mark.parametrize("method", ["tsobi", "tgjade"])
    @pytest.mark.parametrize("dims", [(3, 2, 2), (10, 8, 3)])
    def test_apply_unmixing_reproduces_recovered(self, dims, method):
        # the fit's recovered series is (X W) U^T, apply_unmixing's X (U^T W)
        r = np.random.default_rng(63)
        xs = mix(r.standard_normal((300,) + dims) ** 3, gen_mixing(dims, "gaussian", r))
        res = unmix(xs, method)
        got = apply_unmixing(xs, res)
        assert np.abs(got - res.recovered).max() <= 1e-12 * np.abs(res.recovered).max()


@pytest.mark.parametrize("dims", [(4,), (3, 2), (3, 1, 4), (2, 3, 2, 2)])
def test_series_components_inverse_round_trip(dims):
    xs = np.random.default_rng(len(dims)).standard_normal((5,) + dims)
    flat = series_components(xs)
    back = series_from_components(flat, dims)
    assert back.flags.c_contiguous and back.shape == xs.shape
    assert np.array_equal(back, xs)
    assert np.array_equal(series_components(back), flat)
    for t in range(5):
        assert np.array_equal(unvectorize(flat[t], dims), xs[t])
    with pytest.raises(ValueError, match=re.escape(f"shape (5, 7) cannot fill dims {dims}")):
        series_from_components(np.zeros((5, 7)), dims)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_flatten_round_trip_property(seed):
    r = np.random.default_rng(seed)
    dims = tuple(int(d) for d in r.integers(1, 5, int(r.integers(1, 4))))
    x = r.standard_normal(dims)
    for mode in range(1, len(dims) + 1):
        assert np.array_equal(m_unflatten(m_flatten(x, mode), mode, dims), x)


def test_series_file_round_trip(tmp_path):
    xs = rng.standard_normal((11, 3, 2, 2))
    path = tmp_path / "series.ts"
    write_series(path, xs)
    back = read_series(path)
    assert back.shape == xs.shape
    assert np.array_equal(back, xs)  # 17 significant digits round-trip exactly
    header = path.read_text().splitlines()[0]
    assert header == "dims=3,2,2;T=11"


def test_series_file_vector_round_trip(tmp_path):
    xs = rng.standard_normal((9, 4))
    path = tmp_path / "series.ts"
    write_series(path, xs)
    assert np.array_equal(read_series(path), xs)


def test_series_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.ts"
    path.write_text("hello\n1 2 3\n")
    with pytest.raises(ValueError):
        read_series(path)

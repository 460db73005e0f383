"""The GF(2^8) multiply-accumulate kernel against the table-gather reference.

``gf_matmul`` picks, per output row, Horner over the coefficient bits or one
``bytearray.translate`` per coefficient (``gf_mul_acc``).  Every case here
runs under the automatic choice and with each kernel forced, and must equal
the plain ``_MUL_TABLE[c][b]`` gather loop byte for byte.
"""

import functools

import numpy as np
import pytest

import repro.gf.arithmetic as arithmetic
from repro.ec import (
    RSCodec,
    combine_deltas,
    gf_matinv,
    gf_matmul,
    parity_delta,
    systematic_cauchy,
    systematic_vandermonde,
)
from repro.gf.arithmetic import _MUL_TABLE, gf_mul_acc

LENGTHS = [0, 1, 7, 8, 9, 100, 4099, 65536]


def reference_matmul(a, rows):
    """The per-(row, k) table-gather loop the kernel replaced."""
    a = np.asarray(a, dtype=np.uint8)
    n = np.asarray(rows[0]).size if len(rows) else 0
    out = np.zeros((a.shape[0], n), dtype=np.uint8)
    for i in range(a.shape[0]):
        for k in range(a.shape[1]):
            if a[i, k]:
                out[i] ^= _MUL_TABLE[a[i, k]][np.asarray(rows[k])]
    return out


@pytest.fixture(params=["auto", "horner", "translate"])
def kernel(request, monkeypatch):
    """Force one kernel by pinning the cost model's translate price."""
    if request.param == "horner":
        monkeypatch.setattr(arithmetic, "_TRANSLATE_RATIO", 10**12)
    elif request.param == "translate":
        monkeypatch.setattr(arithmetic, "_TRANSLATE_RATIO", 0)
    return request.param


def _rows(rng, k, n):
    return [rng.integers(0, 256, n, dtype=np.uint8) for _ in range(k)]


def _nonsingular(rng, k):
    while True:
        m = rng.integers(0, 256, (k, k), dtype=np.uint8)
        try:
            return m, gf_matinv(m)
        except np.linalg.LinAlgError:
            continue


@pytest.mark.parametrize("build", [systematic_vandermonde, systematic_cauchy])
def test_parity_blocks_match_reference(build, kernel):
    rng = np.random.default_rng(7)
    for k in range(2, 13):
        for m in range(1, 5):
            parity = build(k, m)[k:]
            rows = _rows(rng, k, 257)
            assert np.array_equal(gf_matmul(parity, rows), reference_matmul(parity, rows)), (k, m)


def test_every_coefficient_matches_reference(kernel):
    rng = np.random.default_rng(11)
    a = rng.permutation(256).astype(np.uint8).reshape(16, 16)
    rows = _rows(rng, 16, 100)
    assert np.array_equal(gf_matmul(a, rows), reference_matmul(a, rows))
    for c in range(256):
        assert np.array_equal(
            gf_mul_acc([c], rows[:1], np.empty(100, dtype=np.uint8)),
            _MUL_TABLE[c][rows[0]],
        ), c


@pytest.mark.parametrize("k", [2, 3, 6, 8])
def test_random_inverse_matches_reference(k, kernel):
    rng = np.random.default_rng(k)
    m, inv = _nonsingular(rng, k)
    rows = _rows(rng, k, 4099)
    assert np.array_equal(gf_matmul(inv, rows), reference_matmul(inv, rows))
    assert np.array_equal(gf_matmul(m, gf_matmul(inv, rows)), np.stack(rows))


@pytest.mark.parametrize("n", LENGTHS)
def test_row_lengths_match_reference(n, kernel):
    rng = np.random.default_rng(n)
    a = rng.integers(0, 256, (4, 6), dtype=np.uint8)
    rows = _rows(rng, 6, n)
    out = gf_matmul(a, rows)
    assert out.shape == (4, n)
    assert np.array_equal(out, reference_matmul(a, rows))
    eye = np.eye(5, dtype=np.uint8)
    assert np.array_equal(gf_matmul(eye, rows[:5]), np.stack(rows[:5]))


def test_strided_and_read_only_rows_match_reference(kernel):
    rng = np.random.default_rng(3)
    a = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    wide = rng.integers(0, 256, (4, 2 * 4099), dtype=np.uint8)
    strided = list(wide[:, ::2])
    fortran = np.asfortranarray(rng.integers(0, 256, (4, 4099), dtype=np.uint8))
    read_only = [r.copy() for r in strided]
    for r in read_only:
        r.flags.writeable = False
    for rows in (strided, wide[:, 1::2], fortran, read_only):
        assert np.array_equal(gf_matmul(a, rows), reference_matmul(a, list(rows)))


@pytest.mark.parametrize("construction", ["vandermonde", "cauchy"])
def test_combine_deltas_matches_sequential_fold(construction, kernel):
    rng = np.random.default_rng(17)
    codec = RSCodec(6, 3, construction)
    for n in (1, 100, 4099):
        for subset in ([0, 1], [2, 4, 5], list(range(6))):
            deltas = {j: rng.integers(0, 256, n, dtype=np.uint8) for j in subset}
            for p in range(codec.m):
                folded = functools.reduce(
                    np.bitwise_xor,
                    (parity_delta(codec.coefficient(p, j), d) for j, d in deltas.items()),
                )
                got = combine_deltas(codec.parity_matrix, p, deltas)
                assert got.flags.writeable
                assert np.array_equal(got, folded), (n, subset, p)


@pytest.mark.parametrize("k,m", [(2, 1), (4, 2), (6, 2), (6, 3)])
def test_reconstruct_single_index_matches_decode_then_encode(k, m, kernel):
    rng = np.random.default_rng(k * 10 + m)
    codec = RSCodec(k, m)
    data = _rows(rng, k, 100)
    blocks = data + codec.encode(data)
    for lost in range(k + m):
        survivors = [b for b in range(k + m) if b != lost]
        rng.shuffle(survivors)
        shards = {b: blocks[b] for b in survivors[:k]}
        decoded = codec.decode(shards)
        expect = (decoded + codec.encode(decoded))[lost]
        got = codec.reconstruct(shards, [lost])
        assert list(got) == [lost]
        assert np.array_equal(got[lost], expect)
        assert np.array_equal(got[lost], blocks[lost])

"""Table-driven GF(2^8) arithmetic and the payload multiply-accumulate kernel.

The exp table is laid out doubled (length 510) so ``exp[log a + log b]``
never needs an explicit ``mod 255``; the log table maps 1..255 to 0..254
(``log[0]`` is a sentinel never consulted on a valid path).

Elementwise products (`gf_mul`, `gf_mul_scalar`) gather from the 64 KiB
product table.  Payload-sized sums of products -- every encode, decode and
parity check -- go through :func:`gf_mul_acc`, which picks per output row
the cheaper of two exact kernels:

* **Horner over the coefficient bits**: ``acc = 2*acc ^ XOR{rows[k] : bit i
  of coeffs[k] is set}`` from the top bit down, with the packed doubling
  done as four whole-row numpy passes (sign mask, times 0x1d, wrapping
  ``acc + acc``, XOR).  It costs ``4*top_bit + popcount`` passes per row,
  independent of how many bytes each product touches, so it wins on long
  rows and on the small coefficients of the systematic generators;
* **one ``bytearray.translate`` per coefficient** against a cached 256-byte
  product row (coefficient 1 is a bare XOR), which wins on short rows and
  on dense random coefficients (decode matrices).

Against the per-(row, k) ``np.take`` loop this replaced, on a 2-core x86-64
host (numpy 2.4), per call: RS(6,2) encode 1310 -> 187 us at 64 KiB and
180 -> 81 us at 4 KiB; RS(4,2) encode 462 -> 180 us at 32 KiB; a random 6x6
decode 4675 -> 1297 us at 64 KiB and 510 -> 273 us at 4 KiB (translate rows).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

GF_ORDER = 256
PRIM_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIM_POLY
    exp[255:510] = exp[0:255]
    return exp, log


_EXP, _LOG = _build_tables()

# 256x256 full multiplication table: 64 KiB, built once.  Row g is the map
# b -> g*b, which turns scalar-times-buffer into one gather.
_MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
for _g in range(1, 256):
    _bs = np.arange(1, 256)
    _MUL_TABLE[_g, 1:] = _EXP[_LOG[_g] + _LOG[_bs]]
del _g, _bs

# The same rows as 256-byte `bytes` objects: ``bytearray(payload).translate
# (row)`` is the fastest scalar-times-buffer gather CPython offers (a tight
# C loop with no index-dtype conversion): ~2.6x faster than np.take at
# 64 KiB, ~5x at 4 KiB.
_MUL_BYTES = [bytes(_MUL_TABLE[_g2]) for _g2 in range(256)]

# gf_mul_acc's cost model, in bytes of one whole-row numpy pass: a pass over
# n bytes costs ~(n + _PASS_OVERHEAD), a translate gather plus its XOR
# ~_TRANSLATE_RATIO * (n + _TRANSLATE_OVERHEAD) (fitted on 512 B..128 KiB).
_PASS_OVERHEAD = 32768
_TRANSLATE_RATIO = 16
_TRANSLATE_OVERHEAD = 4096


def gf_exp_table() -> np.ndarray:
    """A read-only view of the doubled exp table (length 510)."""
    v = _EXP.view()
    v.flags.writeable = False
    return v


def gf_log_table() -> np.ndarray:
    """A read-only view of the log table (index 0 is a sentinel)."""
    v = _LOG.view()
    v.flags.writeable = False
    return v


def gf_add(a, b) -> np.ndarray:
    """Field addition (= subtraction): bytewise XOR."""
    return np.bitwise_xor(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))


def gf_mul(a, b) -> np.ndarray:
    """Elementwise field product of two uint8 arrays (broadcasting)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return _MUL_TABLE[a, b]


def gf_mul_scalar(scalar: int, buf) -> np.ndarray:
    """``scalar * buf`` over the field, vectorised via one table row."""
    if not 0 <= scalar <= 255:
        raise ValueError(f"scalar {scalar} outside GF(256)")
    buf = np.asarray(buf, dtype=np.uint8)
    if scalar == 0:
        return np.zeros_like(buf)
    if scalar == 1:
        return buf.copy()
    return _MUL_TABLE[scalar][buf]


def gf_inv(a: int) -> int:
    """Multiplicative inverse of a nonzero field element."""
    if not 0 < a <= 255:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_EXP[255 - _LOG[a]])


def gf_div(a, b) -> np.ndarray:
    """Elementwise ``a / b``; raises on any zero divisor."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if np.any(b == 0):
        raise ZeroDivisionError("division by zero in GF(256)")
    la = _LOG[a]
    lb = _LOG[b]
    out = _EXP[(la - lb) % 255].astype(np.uint8)
    return np.where(a == 0, np.uint8(0), out)


def gf_pow(a: int, n: int) -> int:
    """``a ** n`` in the field (n may be any integer for nonzero a)."""
    if a == 0:
        if n == 0:
            return 1
        if n < 0:
            raise ZeroDivisionError("0 ** negative in GF(256)")
        return 0
    return int(_EXP[(_LOG[a] * n) % 255])


def gf_mul_acc(coeffs: Sequence[int], rows: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
    """``out[:] = XOR_k coeffs[k] * rows[k]`` over the field; returns ``out``.

    ``rows`` are equal-length 1-D uint8 arrays (any strides, read-only
    fine); ``out`` is a writable uint8 row of that length.  The kernel
    (module docstring) is chosen from the coefficients and the length.
    """
    terms = [(int(c), r) for c, r in zip(coeffs, rows) if c]
    if not terms:
        out.fill(0)
        return out
    top = max(c for c, _ in terms).bit_length() - 1
    big = sum(c > 1 for c, _ in terms)
    passes = 4 * top + sum(bin(c).count("1") for c, _ in terms) - (len(terms) - big)
    n = out.size
    if passes * (n + _PASS_OVERHEAD) >= big * _TRANSLATE_RATIO * (n + _TRANSLATE_OVERHEAD):
        for i, (c, r) in enumerate(terms):
            if c > 1:
                r = np.frombuffer(bytearray(r).translate(_MUL_BYTES[c]), dtype=np.uint8)
            if i:
                np.bitwise_xor(out, r, out=out)
            else:
                np.copyto(out, r)
        return out
    carry = np.empty_like(out)
    signed = out.view(np.int8)
    for bit in range(top, -1, -1):
        hits = [r for c, r in terms if c >> bit & 1]
        if bit == top:
            np.copyto(out, hits.pop())
        else:
            # out *= 2: bytes with the top bit set fold x^8 back in as 0x1d.
            np.less(signed, 0, out=carry.view(np.bool_))
            np.multiply(carry, 0x1D, out=carry)
            np.add(out, out, out=out)
            np.bitwise_xor(out, carry, out=out)
        for r in hits:
            np.bitwise_xor(out, r, out=out)
    return out

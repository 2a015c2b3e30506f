"""Batched circle and line products, bitwise equal to the per-pair `_ref`
kernels.

`circle_convolve` runs the K×L key pairs of one closed-form circle product
Σ_{(s, a)} f_a(z + s)·g_s(z) at once, `poly_mul_rows` the live intervals of
one closed-form line product; pair by pair, most of the time would go to
interpreter overhead.  Both multiply in `_accumulate`, the one product loop,
which keeps the order of every floating-point operation, so each
coefficient has the bits of the per-pair route:

* `_ref.poly_mul` adds u·v into out[i + j] with i (the left factor's index)
  outer; `_accumulate` makes one numpy pass per i that adds the products of
  every pair at once, pairs along the last, contiguous axis;
* a complex product is written out in float64 real and imaginary parts
  (re = ar·br − ai·bi, im = ar·bi + ai·br), CPython's formula; numpy's
  complex128 multiply may use fused or reordered vector loops whose results
  differ from CPython's in the last bit, so it is never used here;
* zeros need no special case: `_ref` skips zero left coefficients and
  prunes zero modes after each product and sum, while here a zero term adds
  ±0, which changes nothing: an accumulator starts at +0 and a sum is −0
  only if both terms are, so no accumulator ever holds −0, and x + (±0) = x
  for every other x.  The one exception is a zero left coefficient times an
  inf right one, which gives NaN where `_ref` adds nothing; line rows, whose
  pieces may hold the inf of an overflowed product, pass a mask that turns
  the terms of zero left coefficients into +0.  In both kernels overflow
  to inf and inf − inf = NaN happen silently, as in CPython: each call
  enters `np.errstate` once, outside its loops.

`circle_convolve` also computes each rotation phase of mode k under shift
t as `cmath.exp(1j * tau * k)` with `tau = 2.0 * cmath.pi * t`, the
expression of `_ref.trig_rotate`, once per shift instead of once per pair,
and adds the pair results into their output rows in pair order by one
`np.add.at`, which adds repeated indices one at a time in index order.

numpy is imported inside the functions: importing the package stays as
cheap as the pure-Python kernels.
"""

import cmath

from . import _ref


def _accumulate(ar, ai, b, live=None):
    """(2, n + m − 1, P) real and imaginary parts of Σ_i x^i·a_i·b(x) for
    every column p: ar, ai (n, P) are the parts of the left coefficients,
    b (m, P) the complex right ones, live (n, P) or None the mask of
    nonzero left coefficients (see the module docstring)."""
    import numpy as np

    n, (m, count) = len(ar), b.shape
    # u·v = ur·(vr, vi) + ui·(−vi, vr); x − y and x + (−y) are the same sum
    v_re = np.stack((b.real, b.imag))  # (2, m, P)
    v_im = np.stack((-b.imag, b.real))
    acc = np.zeros((2, n + m - 1, count))
    for i in range(n):
        term = ar[i] * v_re + ai[i] * v_im
        if live is not None and not live[i].all():
            term = np.where(live[i], term, 0.0)
        acc[:, i:i + m] += term
    return acc


def _complex_rows(parts):
    """The (2, width, P) parts as P lists of width complex numbers."""
    import numpy as np

    _, width, count = parts.shape
    rows = np.empty((count, width), dtype=complex)
    rows.real, rows.imag = parts.transpose(0, 2, 1)
    return rows.tolist()


def circle_convolve(f_off, f_rows, g_rows, shifts, slots, n_slots):
    """Sum over pairs (l, k) of rotate(f_k, shifts[l]) · g_l into rows.

    f_rows: K dense coefficient lists of one width n, mode f_off first.
    g_rows: L dense coefficient lists of one width m.
    shifts: L floats, the rotation of the left factor in pair (l, k).
    slots: K·L output row indices, pair (l, k) at l·K + k; rows receive
      their pairs in this order.
    Returns n_slots lists of n + m − 1 complex coefficients, the first at
    mode f_off + (g's first mode).
    """
    import numpy as np

    f = np.array(f_rows, dtype=complex)
    g = np.array(g_rows, dtype=complex)
    k_count, n = f.shape
    phases = []
    for t in shifts:
        tau = 2.0 * cmath.pi * t
        phases.append([cmath.exp(1j * tau * k)
                       for k in range(f_off, f_off + n)])
    # pairs p = l·K + k run along the last, contiguous axis
    e = np.array(phases, dtype=complex).T[:, :, None]  # (n, L, 1)
    f = f.T[:, None, :]  # (n, 1, K)
    with np.errstate(over="ignore", invalid="ignore"):
        ar = (f.real * e.real - f.imag * e.imag).reshape(n, -1)  # (n, P)
        ai = (f.real * e.imag + f.imag * e.real).reshape(n, -1)
        prod = _accumulate(ar, ai, np.repeat(g.T, k_count, axis=1))
        # unbuffered: a row that several pairs share receives them in pair
        # order
        out = np.zeros(prod.shape[:2] + (n_slots,))
        np.add.at(out, (slice(None), slice(None), slots), prod)
    return _complex_rows(out)


# A shape group runs through numpy when its row count times its right
# factor's length reaches this.  Below it, per-row `_ref.poly_mul` is as
# fast or faster (numpy pays a fixed cost per left index; measured on 1×1
# to 17×9 products, the two cross near 100), and a product made only of
# small groups does not import numpy.
_MIN_BATCH = 100


def poly_mul_rows(lefts, rights):
    """`_ref.poly_mul(lefts[r], rights[r])` for every row r, bitwise.

    lefts, rights: equally many nonempty sequences of complex coefficients,
    ascending degree.  Returns one list of len(lefts[r]) + len(rights[r]) − 1
    complex coefficients per row, in row order.  Rows are grouped by
    (len a, len b); a group smaller than `_MIN_BATCH` goes through
    `_ref.poly_mul` row by row, a larger one through `_product_group`.
    """
    shapes = {}
    for r, (a, b) in enumerate(zip(lefts, rights)):
        shapes.setdefault((len(a), len(b)), []).append(r)
    out = [None] * len(lefts)
    for (_, m), rows in shapes.items():
        if len(rows) * m < _MIN_BATCH:
            products = [_ref.poly_mul(list(lefts[r]), list(rights[r]))
                        for r in rows]
        else:
            products = _product_group([lefts[r] for r in rows],
                                      [rights[r] for r in rows])
        for r, row in zip(rows, products):
            out[r] = row
    return out


def _product_group(lefts, rights):
    """Bitwise `_ref.poly_mul` of R rows of one shape (n, m) in numpy, by
    `_accumulate` with rows as its pairs and the zero-left mask."""
    import numpy as np

    a = np.array(lefts, dtype=complex).T  # (n, R)
    b = np.array(rights, dtype=complex).T  # (m, R)
    with np.errstate(over="ignore", invalid="ignore"):
        return _complex_rows(_accumulate(a.real, a.imag, b, a != 0))

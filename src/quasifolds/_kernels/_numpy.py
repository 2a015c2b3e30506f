"""Batched circle and line products, bitwise equal to the per-pair `_ref`
kernels.

`poly_mul_rows` multiplies the live intervals of one closed-form line
product; it is described at the function.

One closed-form circle product Σ_{(s, a)} f_a(z + s)·g_s(z) has K×L key
pairs.  Running `trig_rotate` and `trig_mul` once per pair spends most of its
time in interpreter overhead; this kernel does all pairs at once in numpy and
keeps the order of every floating-point operation, so for finite
coefficients each mode comes out with the same bits as the per-pair route:

* the rotation phase of mode k under shift t is `cmath.exp(1j * tau * k)`
  with `tau = 2.0 * cmath.pi * t`, the expression of `_ref.trig_rotate`,
  computed once per shift instead of once per pair;
* `_ref.poly_mul` adds u·v into out[i + j] with i (the left factor's index)
  outer; here one numpy pass per i adds the products of every pair at once;
* pair results are added into their output rows in pair order, by one
  `np.add.at`, which adds repeated indices one at a time in index order.

Complex products are written out in float64 real and imaginary parts
(re = ar·br − ai·bi, im = ar·bi + ai·br), CPython's formula.  numpy's
complex128 multiply may use fused or reordered vector loops whose results
differ from CPython's in the last bit, so it is never used here.

Zeros need no special case.  `_ref` skips zero left coefficients and prunes
zero modes after each product and sum; here they are added as ±0, which
changes nothing: an accumulator starts at +0 and a sum is −0 only if both
terms are, so no accumulator ever holds −0, and x + (±0) = x for every
other x.

numpy is imported inside the functions: importing the package stays as
cheap as the pure-Python kernels.
"""

import cmath

from . import _ref


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
    (k_count, n), (l_count, m) = f.shape, g.shape
    width = n + m - 1
    phases = []
    for t in shifts:
        tau = 2.0 * cmath.pi * t
        phases.append([cmath.exp(1j * tau * k)
                       for k in range(f_off, f_off + n)])
    # pairs p = l·K + k run along the last, contiguous axis
    e = np.array(phases, dtype=complex).T[:, :, None]  # (n, L, 1)
    f = f.T[:, None, :]  # (n, 1, K)
    ar = (f.real * e.real - f.imag * e.imag).reshape(n, -1)  # (n, P)
    ai = (f.real * e.imag + f.imag * e.real).reshape(n, -1)
    gt = np.repeat(g.T, k_count, axis=1)  # (m, P)
    # u·v = ur·(vr, vi) + ui·(−vi, vr); x − y and x + (−y) are the same sum
    v_re = np.stack((gt.real, gt.imag))  # (2, m, P)
    v_im = np.stack((-gt.imag, gt.real))
    prod = np.zeros((2, width, l_count * k_count))
    for i in range(n):
        prod[:, i:i + m] += ar[i] * v_re + ai[i] * v_im

    # unbuffered: a row that several pairs share receives them in pair order
    out = np.zeros((2, width, n_slots))
    np.add.at(out, (slice(None), slice(None), slots), prod)
    result = np.empty((n_slots, width), dtype=complex)
    result.real, result.imag = out.transpose(0, 2, 1)
    return result.tolist()


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
    """Bitwise `_ref.poly_mul` of R rows of one shape (n, m) in numpy.

    As in `circle_convolve`, out[i + j] += u·v runs with i (the left
    factor's index) outer, one numpy pass per i, and each product is written
    out in CPython's real and imaginary parts.  `_ref.poly_mul` skips a zero
    left coefficient u; here its terms are replaced by +0, which leaves every
    accumulator as it is (no accumulator ever holds −0) and keeps 0·inf from
    adding a NaN.  Overflow to inf and inf − inf = NaN happen silently, as
    in CPython.
    """
    import numpy as np

    a = np.array(lefts, dtype=complex)  # (R, n)
    b = np.array(rights, dtype=complex)  # (R, m)
    (count, n), m = a.shape, b.shape[1]
    # u·v = ur·(vr, vi) + ui·(−vi, vr), as in circle_convolve
    v_re = np.stack((b.real, b.imag))  # (2, R, m)
    v_im = np.stack((-b.imag, b.real))
    ar, ai, live = a.real.T[:, :, None], a.imag.T[:, :, None], (a != 0).T
    acc = np.zeros((2, count, n + m - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            term = ar[i] * v_re + ai[i] * v_im
            if not live[i].all():
                term = np.where(live[i][:, None], term, 0.0)
            acc[:, :, i:i + m] += term
    res = np.empty((count, n + m - 1), dtype=complex)
    res.real, res.imag = acc
    return res.tolist()

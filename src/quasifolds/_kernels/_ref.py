"""Pure-Python kernels for dense complex coefficient arithmetic.

Polynomials are lists of complex coefficients, ascending degree.  Trig
polynomials are (offset, coeffs): coeffs[i] is the mode-(offset+i) Fourier
coefficient.
"""

import cmath

BACKEND = "python"


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0j] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u == 0:
            continue
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [0j] * n
    for i, u in enumerate(a):
        out[i] += u
    for i, v in enumerate(b):
        out[i] += v
    return out


def poly_scale(a, s):
    return [u * s for u in a]


def poly_eval(a, x):
    acc = 0j
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_shift(a, h):
    """Taylor shift: coefficients of p(x + h)."""
    n = len(a)
    out = list(a)
    if h == 0 or n == 0:
        return [complex(c) for c in out]
    # Horner-style synthetic shift, O(n²); c carries out[j + 1], the value
    # just stored (out[n − 1] never changes)
    for i in range(n - 1):
        c = out[n - 1]
        for j in range(n - 2, i - 1, -1):
            c = out[j] = out[j] + h * c
    return [complex(c) for c in out]


def trig_mul(off_a, a, off_b, b):
    return off_a + off_b, poly_mul(a, b)


def trig_rotate(off, coeffs, t):
    """Multiply the mode-k coefficient by e^{2πikt} (precompose with x+t)."""
    tau = 2.0 * cmath.pi * t
    return [c * cmath.exp(1j * tau * (off + i)) for i, c in enumerate(coeffs)]


def trig_eval(off, coeffs, x):
    tau = 2.0 * cmath.pi * x
    acc = 0j
    for i, c in enumerate(coeffs):
        if c != 0:
            acc += c * cmath.exp(1j * tau * (off + i))
    return acc

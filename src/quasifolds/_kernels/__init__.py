"""Dense complex coefficient kernels: the eight per-pair kernels of _ref
(pure Python) and the two batched products of _numpy, `circle_convolve`
for the circle and `poly_mul_rows` for the line, each bitwise equal to the
per-pair kernels it replaces."""

from ._numpy import circle_convolve, poly_mul_rows
from ._ref import (BACKEND, poly_add, poly_eval, poly_mul, poly_scale,
                   poly_shift, trig_eval, trig_mul, trig_rotate)

__all__ = ["BACKEND", "poly_mul", "poly_add", "poly_scale", "poly_eval",
           "poly_shift", "trig_mul", "trig_rotate", "trig_eval",
           "circle_convolve", "poly_mul_rows"]

"""Dense complex coefficient kernels (pure Python, implemented in _ref)."""

from ._ref import (BACKEND, poly_add, poly_eval, poly_mul, poly_scale,
                   poly_shift, trig_eval, trig_mul, trig_rotate)

__all__ = ["BACKEND", "poly_mul", "poly_add", "poly_scale", "poly_eval",
           "poly_shift", "trig_mul", "trig_rotate", "trig_eval"]

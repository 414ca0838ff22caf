"""Compensated accumulation.

Neumaier's variant of Kahan summation keeps a running compensation term so
that long alternating sums (Ryser, permutation sums) stay reproducible and
accurate.
"""

from __future__ import annotations


class ComplexNeumaier:
    """Compensated sum of complex values: a sum and a compensation per component."""

    __slots__ = ("re", "re_c", "im", "im_c")

    def __init__(self) -> None:
        self.re = self.re_c = self.im = self.im_c = 0.0

    def add(self, z: complex) -> None:
        self.re, self.re_c = _add(self.re, self.re_c, z.real)
        self.im, self.im_c = _add(self.im, self.im_c, z.imag)

    def value(self) -> complex:
        return complex(self.re + self.re_c, self.im + self.im_c)


def _add(s: float, c: float, x: float) -> tuple[float, float]:
    t = s + x
    # the branch recovers the rounding error of s + x exactly
    return t, c + ((s - t) + x if abs(s) >= abs(x) else (x - t) + s)

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
        # each branch recovers the rounding error of s + x exactly
        s, x = self.re, z.real
        self.re = t = s + x
        self.re_c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s, x = self.im, z.imag
        self.im = t = s + x
        self.im_c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s

    def value(self) -> complex:
        return complex(self.re + self.re_c, self.im + self.im_c)

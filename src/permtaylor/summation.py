"""Compensated accumulation.

Neumaier's variant of Kahan summation keeps a running compensation term so
that long alternating sums (Ryser, permutation sums) stay reproducible and
accurate.
"""

from __future__ import annotations


class Neumaier:
    """Running compensated sum of real floats."""

    __slots__ = ("s", "c")

    def __init__(self) -> None:
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        s = self.s
        t = s + x
        # the branch recovers the rounding error of s + x exactly
        if abs(s) >= abs(x):
            self.c += (s - t) + x
        else:
            self.c += (x - t) + s
        self.s = t

    def value(self) -> float:
        return self.s + self.c


class ComplexNeumaier:
    """Compensated sum of complex values, one accumulator per component."""

    __slots__ = ("re", "im")

    def __init__(self) -> None:
        self.re = Neumaier()
        self.im = Neumaier()

    def add(self, z: complex) -> None:
        self.re.add(z.real)
        self.im.add(z.imag)

    def value(self) -> complex:
        return complex(self.re.value(), self.im.value())

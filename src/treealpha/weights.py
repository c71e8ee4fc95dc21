"""Exact rational vertex weights.

Weights live in Q+ and all arithmetic on them is exact; nothing in the value
lattice is ever a float. Missing vertices default to weight 1.
"""

from fractions import Fraction

_ONE = Fraction(1)


class WeightMap:
    """Per-vertex nonnegative rational weights over a graph of `n` vertices."""

    __slots__ = ("n", "_w")

    def __init__(self, n, values=None):
        self.n = n
        w = {}
        if values:
            for v, x in dict(values).items():
                if not (0 <= v < n):
                    raise ValueError(f"weighted vertex {v} out of range [0, {n})")
                f = Fraction(x)
                if f < 0:
                    raise ValueError(f"weight of vertex {v} is negative: {f}")
                w[v] = f
        self._w = w

    @classmethod
    def _from_checked(cls, n, values):
        """Wrap a dict the caller has already checked (ids in range(n),
        nonnegative `Fraction` values) without copying or re-checking it."""
        wm = cls.__new__(cls)
        wm.n = n
        wm._w = values
        return wm

    def __getitem__(self, v):
        return self._w.get(v, _ONE)

    def total(self, vertices):
        """w(S) = sum of the member weights."""
        t = Fraction(0)
        for v in vertices:
            t += self[v]
        return t

    def items(self):
        for v in range(self.n):
            yield v, self[v]

    def __eq__(self, other):
        if not isinstance(other, WeightMap):
            return NotImplemented
        return self.n == other.n and all(self[v] == other[v] for v in range(self.n))

    def __repr__(self):
        return f"WeightMap(n={self.n})"

"""Exact rational vertex weights.

Weights live in Q+ and all arithmetic on them is exact; nothing in the value
lattice is ever a float. Missing vertices default to weight 1.
"""

from fractions import Fraction

_ONE = Fraction(1)
#: Fraction(i) for the small vertex counts that totals start from: building
#: a Fraction costs about a microsecond, looking one up almost nothing.
_COUNTS = tuple(Fraction(i) for i in range(8))


class WeightMap:
    """Per-vertex nonnegative rational weights over a graph of `n` vertices.

    `wm[v]` and `total` accept only ids in range(n) and raise IndexError for
    any other. A WeightMap is not iterable: `iter(wm)`, `for x in wm` and
    `v in wm` raise TypeError; `items()` yields the (vertex, weight) pairs.
    """

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
        x = self._w.get(v)
        if x is not None:
            return x
        if 0 <= v < self.n:
            return _ONE
        raise IndexError(f"vertex {v} out of range [0, {self.n})")

    def __iter__(self):
        # Without this, `for` and `in` would index 0, 1, 2, ... until an
        # IndexError, reading weights where a caller may expect vertices.
        raise TypeError("WeightMap is not iterable; use items()")

    def total(self, vertices):
        """w(S) = sum of the member weights, as a Fraction.

        Vertices without a stored weight are counted as an int, and only
        the stored weights are added as Fractions."""
        w = self._w
        n = self.n
        unset = 0
        stored = []
        for v in vertices:
            x = w.get(v)
            if x is not None:
                stored.append(x)
            elif 0 <= v < n:
                unset += 1
            else:
                raise IndexError(f"vertex {v} out of range [0, {n})")
        start = _COUNTS[unset] if unset < len(_COUNTS) else Fraction(unset)
        return sum(stored, start)

    def items(self):
        for v in range(self.n):
            yield v, self[v]

    def __eq__(self, other):
        if not isinstance(other, WeightMap):
            return NotImplemented
        return self.n == other.n and all(self[v] == other[v] for v in range(self.n))

    def __repr__(self):
        return f"WeightMap(n={self.n})"

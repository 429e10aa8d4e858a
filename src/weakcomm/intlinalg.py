"""Exact integer linear algebra: Smith normal form and f.g. abelian groups.

Everything here uses unbounded Python integers; matrices are small (relation
matrices of desk-scale groups), so no fast path is attempted.  Conventions:

* ``IntMatrix`` is a dense rows x cols array of exact integers.
* ``cokernel(M)`` is Z^rows / (column span of M), i.e. the cokernel of the
  linear map M : Z^cols -> Z^rows.
* ``FinAbGroup`` is the canonical invariant-factor form d1 | d2 | ... | dt
  (each >= 2) plus a free rank.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ArgumentError


class IntMatrix:
    """Dense integer matrix with exact arithmetic."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], rows: int | None = None,
                 cols: int | None = None):
        self.data = [list(map(int, row)) for row in data]
        self.rows = len(self.data) if rows is None else rows
        self.cols = (len(self.data[0]) if self.data else 0) if cols is None else cols
        if len(self.data) != self.rows:
            raise ArgumentError("row count mismatch")
        for row in self.data:
            if len(row) != self.cols:
                raise ArgumentError("ragged matrix")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls.zero(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        m = cls.zero(rows, len(columns))
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ArgumentError("column length mismatch")
            for i, v in enumerate(col):
                m.data[i][j] = int(v)
        return m

    def copy(self) -> "IntMatrix":
        return IntMatrix([row[:] for row in self.data], self.rows, self.cols)

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data \
            and self.rows == other.rows and self.cols == other.cols

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ArgumentError("dimension mismatch in product")
        out = IntMatrix.zero(self.rows, other.cols)
        for i in range(self.rows):
            srow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = srow[k]
                if a:
                    brow = other.data[k]
                    for j in range(other.cols):
                        orow[j] += a * brow[j]
        return out

    def apply(self, vec: Sequence[int]) -> list[int]:
        """Matrix * column vector."""
        if len(vec) != self.cols:
            raise ArgumentError("vector length mismatch")
        return [sum(map(operator.mul, row, vec)) for row in self.data]

    def __repr__(self) -> str:
        return f"IntMatrix({self.data!r})"


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U m V = D diagonal satisfying d1 | d2 | ...

    U and V are unimodular.  Pivot rule: smallest nonzero absolute value,
    ties broken row-major, which keeps the output deterministic.
    """
    a = m.copy()
    u = IntMatrix.identity(m.rows)
    v = IntMatrix.identity(m.cols)
    rows, cols = m.rows, m.cols

    def swap_rows(i, j):
        if i != j:
            a.data[i], a.data[j] = a.data[j], a.data[i]
            u.data[i], u.data[j] = u.data[j], u.data[i]

    def swap_cols(i, j):
        if i != j:
            for row in a.data:
                row[i], row[j] = row[j], row[i]
            for row in v.data:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):  # row[dst] += c * row[src]
        if c:
            arow, asrc = a.data[dst], a.data[src]
            for j in range(cols):
                arow[j] += c * asrc[j]
            urow, usrc = u.data[dst], u.data[src]
            for j in range(rows):
                urow[j] += c * usrc[j]

    def add_col(src, dst, c):  # col[dst] += c * col[src]
        if c:
            for row in a.data:
                row[dst] += c * row[src]
            for row in v.data:
                row[dst] += c * row[src]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a.data[i][j]
                if x and (best is None or abs(x) < abs(a.data[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        piv = find_pivot(t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(rows):
                if i != t and a.data[i][t]:
                    q = a.data[i][t] // a.data[t][t]
                    add_row(t, i, -q)
                    if a.data[i][t]:
                        swap_rows(t, i)  # remainder is smaller; continue with it
                        dirty = True
            for j in range(cols):
                if j != t and a.data[t][j]:
                    q = a.data[t][j] // a.data[t][t]
                    add_col(t, j, -q)
                    if a.data[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        t += 1

    # positive diagonal
    for i in range(min(rows, cols)):
        if a.data[i][i] < 0:
            for j in range(cols):
                a.data[i][j] = -a.data[i][j]
            for j in range(rows):
                u.data[i][j] = -u.data[i][j]

    # enforce the divisibility chain
    n = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            di, dj = a.data[i][i], a.data[i + 1][i + 1]
            if di and dj % di == 0:
                continue
            if di == 0 and dj != 0:
                swap_rows(i, i + 1)
                swap_cols(i, i + 1)
                changed = True
                continue
            if dj == 0:
                continue
            # standard 2x2 gcd step: put gcd at (i,i), lcm at (i+1,i+1)
            add_col(i + 1, i, 1)            # col i gets dj in row i+1
            # now re-clear the 2x2 block
            while a.data[i + 1][i] or a.data[i][i + 1]:
                if a.data[i][i] == 0 or (a.data[i + 1][i] and
                                         abs(a.data[i + 1][i]) < abs(a.data[i][i])):
                    swap_rows(i, i + 1)
                if a.data[i + 1][i]:
                    q = a.data[i + 1][i] // a.data[i][i]
                    add_row(i, i + 1, -q)
                    continue
                if a.data[i][i + 1]:
                    q = a.data[i][i + 1] // a.data[i][i]
                    add_col(i, i + 1, -q)
            if a.data[i][i] < 0:
                for j in range(cols):
                    a.data[i][j] = -a.data[i][j]
                for j in range(rows):
                    u.data[i][j] = -u.data[i][j]
            if a.data[i + 1][i + 1] < 0:
                for j in range(cols):
                    a.data[i + 1][j] = -a.data[i + 1][j]
                for j in range(rows):
                    u.data[i + 1][j] = -u.data[i + 1][j]
            changed = True
    return u, a, v


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group in canonical invariant-factor form."""

    invariant_factors: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        for d, e in zip(self.invariant_factors, self.invariant_factors[1:]):
            if e % d != 0:
                raise ArgumentError(f"invariant factors must form a chain, got "
                                    f"{self.invariant_factors}")
        if any(d < 2 for d in self.invariant_factors):
            raise ArgumentError("invariant factors must be >= 2")
        if self.free_rank < 0:
            raise ArgumentError("free rank must be >= 0")

    @classmethod
    def from_orders(cls, orders: Iterable[int], free_rank: int = 0) -> "FinAbGroup":
        """Canonicalize an unordered list of cyclic orders (>= 1)."""
        torsion = [d for d in orders if d > 1]
        diag = IntMatrix.zero(len(torsion) + free_rank, len(torsion))
        for j, d in enumerate(torsion):
            diag.data[j][j] = d
        return cokernel(diag)

    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors)

    def exponent(self) -> int | None:
        if self.free_rank:
            return None
        if not self.invariant_factors:
            return 1
        return self.invariant_factors[-1]

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " x ".join(parts) if parts else "0"


def cokernel(m: IntMatrix) -> FinAbGroup:
    """Z^rows / (column span of m), from the SNF diagonal."""
    _, d, _ = smith_normal_form(m)
    diag = [d.data[i][i] for i in range(min(m.rows, m.cols))]
    factors = tuple(x for x in diag if x > 1)
    free = m.rows - sum(1 for x in diag if x != 0)
    return FinAbGroup(factors, free)


def tensor(a: FinAbGroup, b: FinAbGroup) -> FinAbGroup:
    """Tensor product over Z: bilinear expansion of the cyclic decompositions."""
    orders: list[int] = []
    free = a.free_rank * b.free_rank
    for d in a.invariant_factors:
        for e in b.invariant_factors:
            orders.append(math.gcd(d, e))
    orders += [d for d in a.invariant_factors for _ in range(b.free_rank)]
    orders += [e for e in b.invariant_factors for _ in range(a.free_rank)]
    return FinAbGroup.from_orders(orders, free)

"""Exact integer linear algebra: Smith normal form and f.g. abelian groups.

Everything here uses unbounded Python integers.  Relation matrices are wide
(S4's augmentation module has 23 generators and 384 relations), so a column
Hermite pass first cuts the relation lattice down to a basis of at most
``rows`` vectors, and the Smith form runs on that basis, which keeps the
entries small: eliminating on a full 9 x 11 matrix can grow them to tens of
thousands of bits (Cohen, *A Course in Computational Algebraic Number
Theory*, 1993, section 2.4).  Conventions:

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


def hermite_basis(columns: Iterable[Sequence[int]], rows: int) -> list[list[int]]:
    """A basis of the lattice spanned by the columns, vectors of length rows:
    at most rows vectors, in echelon form (each is zero above its pivot row,
    and the pivot rows increase).

    Row by row, the live columns with a nonzero entry there are cleared
    Euclid-style: the one with the smallest such entry reduces the others,
    until one is left, which becomes the pivot for that row.  Zero columns
    are dropped.  Live columns are zero above the current row, so each
    reduction touches only the rows from there down.
    """
    live = [list(map(int, c)) for c in columns if any(c)]
    basis = []
    for i in range(rows):
        hits = [c for c in live if c[i]]
        if not hits:
            continue
        live = [c for c in live if not c[i]]
        while len(hits) > 1:
            p = min(hits, key=lambda c: abs(c[i]))
            rest = [p]
            for c in hits:
                if c is not p:
                    q = c[i] // p[i]
                    for k in range(i, rows):
                        c[k] -= q * p[k]
                    if c[i]:
                        rest.append(c)
                    elif any(c):
                        live.append(c)
            hits = rest
        basis.append(hits[0])
    return basis


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, list[int]]:
    """Return (U, d) with U unimodular and U m V = diag(d) for a unimodular V
    that is not formed: d has m.rows entries, d1 | d2 | ... | dr, then zeros
    from the rank r on.

    The elimination runs on the ``hermite_basis`` of the columns of m.  Its r
    columns are independent, so every step finds a pivot: the smallest
    nonzero absolute value of the remaining block, ties broken row-major,
    which keeps the output deterministic.  Row operations are tracked in U,
    column operations are not.  When the cleared pivot fails to divide an
    entry of the remaining block, that row is added to the pivot row, whose
    next clearing yields a smaller pivot.
    """
    basis = hermite_basis(map(m.column, range(m.cols)), m.rows)
    n, r = m.rows, len(basis)
    a = [[c[i] for c in basis] for i in range(n)]
    u = IntMatrix.identity(n).data

    def add_row(src, dst, c):  # row[dst] += c * row[src], in a and in U
        for mat in (a, u):
            mat[dst] = [x + c * y for x, y in zip(mat[dst], mat[src])]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(j):  # with column t; the rows above t are zero there
        for row in a[t:]:
            row[t], row[j] = row[j], row[t]

    for t in range(r):
        _, pi, pj = min((abs(x), i, j) for i in range(t, n)
                        for j, x in enumerate(a[i][t:], t) if x)
        swap_rows(t, pi)
        swap_cols(pj)
        while True:
            clean = True
            for i in range(t + 1, n):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
                        clean = False
            for j in range(t + 1, r):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a[t:]:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        swap_cols(j)
                        clean = False
            if clean:
                p = a[t][t]
                bad = next((i for i in range(t + 1, n)
                            if any(x % p for x in a[i][t + 1:])), None)
                if bad is None:
                    break
                add_row(bad, t, 1)
        if a[t][t] < 0:
            a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]
    return IntMatrix(u), [a[i][i] for i in range(r)] + [0] * (n - r)


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
    """Z^rows / (column span of m), from the Smith diagonal."""
    _, d = smith_normal_form(m)
    return FinAbGroup(tuple(x for x in d if x > 1), d.count(0))


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

"""Validated fillings and the literal exchange relation, kept as test oracles.

The package works on plain row tuples only.  The tests build fillings as
Numbering objects, canonicalize them with their sign, expand exchange
relations term by term with pi_expand, and attach a numbering to a
spanning subgraph, so the group-algebra oracle (groupalg.py) and the
reference builds (helpers.py) judge the package with code it never runs.
Nothing in the package imports this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from cshom.graphs import Graph, connected_components
from cshom.tableaux import Partition, _canonical_rows, numbering_key

__all__ = [
    "Numbering",
    "NumberingVector",
    "numbering",
    "canonicalize",
    "numbering_of_subgraph",
    "pi_expand",
]


@dataclass(frozen=True)
class Numbering:
    """Filling of a partition shape, stored as a tuple of row tuples.

    Construction only checks the shape (row lengths weakly decreasing);
    content checks are explicit via check_content so intermediate objects
    stay cheap.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows or any(not row for row in rows):
            raise ValueError("rows must be non-empty")
        if any(len(rows[i]) < len(rows[i + 1]) for i in range(len(rows) - 1)):
            raise ValueError(f"row lengths must be weakly decreasing: {rows!r}")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    def word(self) -> tuple[int, ...]:
        """Reading word: rows left to right, top row first."""
        return tuple(x for row in self.rows for x in row)

    def check_content(self) -> "Numbering":
        """Require entries to be exactly 1..n; returns self for chaining."""
        if sorted(self.word()) != list(range(1, self.n + 1)):
            raise ValueError(f"entries must be exactly 1..{self.n}: {self.rows!r}")
        return self

    def key(self) -> tuple[tuple[int, ...], ...]:
        return numbering_key(self.rows)

    def __lt__(self, other: "Numbering") -> bool:
        return self.key() < other.key()


def numbering(*rows: Sequence[int]) -> Numbering:
    """Shorthand: numbering((1, 2), (3, 4), (5,))."""
    return Numbering(tuple(tuple(r) for r in rows))


def canonicalize(nb: Numbering, frozen_rows: int = 0) -> tuple[int, Numbering]:
    """Signed canonical representative.

    Sorting inside a row is free.  Below the frozen prefix, rows of equal
    length are put in ascending order of content; permuting rows of length L
    multiplies the underlying element by the permutation sign raised to L,
    so only odd-length blocks can flip the sign.  The work is done on plain
    row tuples by cshom.tableaux._canonical_rows, which straightening calls
    directly.
    """
    sign, rows = _canonical_rows(nb.rows, frozen_rows)
    return sign, Numbering(rows)


class NumberingVector:
    """Integer combination of numberings, keyed by canonical representatives."""

    __slots__ = ("terms",)

    def __init__(
        self,
        terms: Union[Mapping[Numbering, int], Iterable[tuple[Numbering, int]]] = (),
        frozen_rows: int = 0,
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Numbering, int] = {}
        for nb, c in items:
            if not c:
                continue
            sgn, canon = canonicalize(nb, frozen_rows)
            c = acc.get(canon, 0) + c * sgn
            if c:
                acc[canon] = c
            else:
                acc.pop(canon, None)
        self.terms = acc

    def items(self) -> list[tuple[Numbering, int]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].key())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NumberingVector):
            return self.terms == other.terms
        if isinstance(other, Mapping):
            return self.terms == dict(other)
        return NotImplemented


def numbering_of_subgraph(g: Graph, edges: Iterable[tuple[int, int]]) -> Numbering:
    """Row numbering attached to a spanning subgraph of g.

    Rows are the connected components of (V(g), edges), each sorted
    ascending; rows are ordered by decreasing size, ties broken by
    increasing minimum.
    """
    comps = connected_components(g.n, tuple(edges))
    rows = sorted((tuple(c) for c in comps), key=lambda row: (-len(row), row[0]))
    return Numbering(tuple(rows))


def pi_expand(s: Numbering, i: int, j: int) -> NumberingVector:
    """Exchange relation at rows i, i+1 (1-indexed): the element of s equals
    (-1)^j times the sum over exchanges of the first j entries of row i+1
    with j-subsets of row i, each subset keeping its internal order.

    Returns that expansion with canonicalized terms.
    """
    rows = s.rows
    if not 1 <= i < len(rows):
        raise ValueError(f"row index {i} out of range for {len(rows)} rows")
    upper, lower = rows[i - 1], rows[i]
    if not 1 <= j <= min(len(upper), len(lower)):
        raise ValueError(f"exchange width {j} out of range")
    moved = lower[:j]
    rest = lower[j:]
    sign = -1 if j % 2 else 1
    pairs = []
    for pos in itertools.combinations(range(len(upper)), j):
        new_upper = list(upper)
        for t, p in enumerate(pos):
            new_upper[p] = moved[t]
        new_lower = tuple(upper[p] for p in pos) + rest
        nb = Numbering(rows[: i - 1] + (tuple(new_upper), new_lower) + rows[i + 1 :])
        pairs.append((nb, sign))
    return NumberingVector(pairs)

"""Two-column tableau combinatorics: numberings, canonical forms, exchange
relations, and straightening into standard bases.

Everything works on explicit row tuples with plain integer entries; no group
algebra elements are materialized here.  The tests judge this module against
an independent group-algebra oracle (tests/groupalg.py) and against the
cell-by-cell semistandard backtracker that enumerate_ssyt replaced.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .errors import StraighteningStalled
from .graphs import Graph, connected_components

__all__ = [
    "Partition",
    "Numbering",
    "NumberingVector",
    "numbering",
    "numbering_key",
    "canonicalize",
    "enumerate_syt",
    "enumerate_ssyt",
    "numbering_of_subgraph",
    "standardize",
    "pi_expand",
    "straighten",
    "straighten_columns",
]


@dataclass(frozen=True)
class Partition:
    """Integer partition, parts weakly decreasing and positive."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive: {parts!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts!r}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def two_column_rows(self) -> int | None:
        """k when the shape is (2^k, 1^(n-2k)), else None."""
        k = sum(1 for p in self.parts if p == 2)
        if self.parts == (2,) * k + (1,) * (len(self.parts) - k):
            return k
        return None

    @staticmethod
    def two_column(n: int, k: int) -> "Partition":
        if k < 1 or 2 * k > n:
            raise ValueError(f"no shape (2^{k}, 1^*) with n={n}")
        return Partition((2,) * k + (1,) * (n - 2 * k))


def numbering_key(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Comparison key realizing the total order on fillings of one shape.

    Keys compare row-major; within a row the comparison runs right to left,
    so the deciding cell is the rightmost differing column of the topmost
    differing row.
    """
    return tuple(tuple(reversed(row)) for row in rows)


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


def sort_sign(values: Iterable) -> int:
    """Sign of the permutation that sorts values ascending."""
    vals = list(values)
    inv = 0
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] > vals[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _canonical_rows(
    rows: Sequence[Sequence[int]], frozen_rows: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Sign and rows of the canonical representative of a filling given as
    row tuples; canonicalize documents the form."""
    if not 0 <= frozen_rows <= len(rows):
        raise ValueError(f"frozen_rows out of range: {frozen_rows}")
    rows = [tuple(sorted(row)) for row in rows]
    out = rows[:frozen_rows]
    sign = 1
    i = frozen_rows
    while i < len(rows):
        j = i
        while j < len(rows) and len(rows[j]) == len(rows[i]):
            j += 1
        block = rows[i:j]
        ordered = sorted(block)
        if ordered != block and len(block[0]) % 2 == 1:
            sign *= sort_sign(block)
        out.extend(ordered)
        i = j
    return sign, tuple(out)


def canonicalize(nb: Numbering, frozen_rows: int = 0) -> tuple[int, Numbering]:
    """Signed canonical representative.

    Sorting inside a row is free.  Below the frozen prefix, rows of equal
    length are put in ascending order of content; permuting rows of length L
    multiplies the underlying element by the permutation sign raised to L,
    so only odd-length blocks can flip the sign.  The work is done on plain
    row tuples by _canonical_rows, which straightening calls directly.
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


@functools.cache
def enumerate_syt(shape: Partition) -> tuple[Numbering, ...]:
    """All standard numberings of the shape, ascending in the total order."""
    lengths = shape.parts
    fills = [0] * len(lengths)
    rows: list[list[int]] = [[] for _ in lengths]
    out: list[Numbering] = []

    def place(v: int) -> None:
        if v > shape.n:
            out.append(Numbering(tuple(tuple(r) for r in rows)))
            return
        for r in range(len(lengths)):
            c = fills[r]
            if c >= lengths[r]:
                continue
            # the cell above must already be filled
            if r > 0 and fills[r - 1] <= c:
                continue
            rows[r].append(v)
            fills[r] += 1
            place(v + 1)
            rows[r].pop()
            fills[r] -= 1

    place(1)
    out.sort(key=Numbering.key)
    return tuple(out)


@functools.cache
def enumerate_ssyt(
    shape: Partition, weight: Partition
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Semistandard fillings of a two-column shape with content (2^a, 1^b),
    ascending.

    Content: value v appears weight.parts[v-1] times.  Rows weakly increase,
    columns strictly increase.  Returned as raw row tuples since entries
    repeat.

    The fillings are built, not searched.  Each value v <= a fills two
    cells, which column strictness puts in one row; by induction on v that
    row is row v, so rows 1..a read (v, v).  The rest of the shape is then
    filled once each by a+1..n: a standard filling of the remaining rows
    shifted by a.  The fillings share rows 1..a and the shift keeps order,
    so they come out ascending as enumerate_syt's do.  No filling exists
    when a exceeds the number of length-2 rows.  Raises ValueError for a shape that is not (2^k, 1^(n-2k)), a
    weight that is not (2^a, 1^b), or unequal sizes.
    """
    if weight.n != shape.n:
        raise ValueError(f"weight size {weight.n} != shape size {shape.n}")
    k = shape.two_column_rows()
    if k is None:
        raise ValueError(f"shape {shape.parts!r} is not two-column")
    a = weight.two_column_rows()
    if a is None:
        raise ValueError(f"weight {weight.parts!r} is not (2^a, 1^b)")
    if a > k:
        return ()
    top = tuple((v, v) for v in range(1, a + 1))
    rest = shape.parts[a:]
    if not rest:
        return (top,)
    return tuple(
        top + tuple(tuple(x + a for x in row) for row in t.rows)
        for t in enumerate_syt(Partition(rest))
    )


def numbering_of_subgraph(g: Graph, edges: Iterable[tuple[int, int]]) -> Numbering:
    """Row numbering attached to a spanning subgraph of g.

    Rows are the connected components of (V(g), edges), each sorted
    ascending; rows are ordered by decreasing size, ties broken by
    increasing minimum.
    """
    comps = connected_components(g.n, tuple(edges))
    rows = sorted((tuple(c) for c in comps), key=lambda row: (-len(row), row[0]))
    return Numbering(tuple(rows))


def standardize(filling: Sequence[Sequence[int]], target: Numbering) -> Numbering:
    """Relabel a semistandard filling into target's entries.

    Value v of the filling must occur exactly len(target.rows[v-1]) times;
    the stable sort of the filling's reading word then assigns target's
    reading word positionwise, sending equal values to one target row in
    increasing order.
    """
    rows = tuple(tuple(int(x) for x in row) for row in filling)
    wy = [x for row in rows for x in row]
    wt = target.word()
    if len(wy) != len(wt):
        raise ValueError(f"filling has {len(wy)} cells, target has {len(wt)}")
    counts = Counter(wy)
    if sorted(counts) != list(range(1, len(target.rows) + 1)):
        raise ValueError(f"filling values must be 1..{len(target.rows)}")
    for v, row in enumerate(target.rows, start=1):
        if counts[v] != len(row):
            raise ValueError(
                f"value {v} occurs {counts[v]} times, target row has {len(row)} cells"
            )
    order = sorted(range(len(wy)), key=lambda k: (wy[k], k))
    ranks = [0] * len(wy)
    for rank, k in enumerate(order):
        ranks[k] = rank
    word = [wt[ranks[k]] for k in range(len(wy))]
    out = []
    pos = 0
    for row in rows:
        out.append(tuple(word[pos : pos + len(row)]))
        pos += len(row)
    return Numbering(tuple(out))


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


Rows = tuple[tuple[int, ...], ...]
Term = Union[Numbering, Rows]
TermsLike = Union[Term, NumberingVector, Iterable[tuple[Term, int]]]

STRAIGHTEN_STEP_LIMIT = 1_000_000


def _rows(t: Term) -> Rows:
    return t.rows if isinstance(t, Numbering) else t


@functools.cache
def _rewrite_plan(
    lengths: tuple[int, ...], frozen_rows: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int, bool], ...]]:
    """Where a canonical filling with these row lengths can violate, and
    the block of equal-length rows below the frozen prefix that holds each
    row.

    The rows of a block are in lexicographic order, so inside a block
    column 0 never violates and a block of singletons never does; across a
    block boundary every column can.  checks lists the (lower row, column)
    pairs that can, rows downward and columns right to left, so the first
    that violates is the topmost pair's rightmost violating column.
    blocks[r] is (start, end, odd) for row r's block, odd when its rows
    have odd length: only those blocks carry a sign when reordered.
    """
    checks: list[tuple[int, int]] = []
    blocks: list[tuple[int, int, bool]] = [(0, 0, False)] * len(lengths)
    start = frozen_rows
    while start < len(lengths):
        length = lengths[start]
        end = start
        while end < len(lengths) and lengths[end] == length:
            end += 1
        blocks[start:end] = [(start, end, length % 2 == 1)] * (end - start)
        if start > frozen_rows:
            checks += [(start, c) for c in reversed(range(length))]
        for r in range(start + 1, end):
            checks += [(r, c) for c in reversed(range(1, length))]
        start = end
    return tuple(checks), tuple(blocks)


def _rewrite(
    rows: Rows, r: int, col: int, blocks: tuple[tuple[int, int, bool], ...]
) -> list[tuple[int, Rows]]:
    """Signed canonical children of one rewrite step of the canonical
    filling rows at the violation (r, col).

    A child differs from rows only in rows r-1 and r.  Each is sorted and
    inserted at its bisect position in what is left of its block, which is
    still sorted; in an odd-length block a row that passes d others flips
    the sign d times.
    """
    upper, lower = rows[r - 1], rows[r]
    x = lower[col]
    low_rest = lower[:col] + lower[col + 1 :]
    start, end, odd = blocks[r - 1]
    children = []
    if r < end:
        # both rows in one block: the rest of it, and the slot they leave
        rest = rows[start : r - 1] + rows[r + 1 : end]
        head, tail = rows[:start], rows[end:]
        p = r - 1 - start
        for t, y in enumerate(upper):
            up = tuple(sorted(upper[:t] + (x,) + upper[t + 1 :]))
            low = tuple(sorted((y,) + low_rest))
            a, b = (up, low) if up <= low else (low, up)
            i = bisect_left(rest, a)
            j = bisect_left(rest, b)
            sign = 1
            if odd:
                moves = up > low
                for row in (up, low):
                    moves += max(0, p - bisect_right(rest, row))
                    moves += max(0, bisect_left(rest, row) - p)
                sign = -1 if moves % 2 else 1
            child = head + rest[:i] + (a,) + rest[i:j] + (b,) + rest[j:] + tail
            children.append((sign, child))
        return children
    # row r-1 ends its block and row r starts the next one
    _, end_low, odd_low = blocks[r]
    for t, y in enumerate(upper):
        up = tuple(sorted(upper[:t] + (x,) + upper[t + 1 :]))
        low = tuple(sorted((y,) + low_rest))
        i = bisect_left(rows, up, start, r - 1)
        j = bisect_left(rows, low, r + 1, end_low)
        moves = (r - 1 - bisect_right(rows, up, start, r - 1)) if odd else 0
        if odd_low:
            moves += j - r - 1
        child = rows[:i] + (up,) + rows[i : r - 1] + rows[r + 1 : j] + (low,) + rows[j:]
        children.append((-1 if moves % 2 else 1, child))
    return children


def straighten_columns(
    vs: Sequence[TermsLike], basis: Sequence[Term], frozen_rows: int = 0
) -> list[list[int]]:
    """Integer coefficients of each of vs over basis, by exchange-relation
    rewriting with one memo shared by all of them.

    A filling, as a term, an entry of vs or a basis entry, is a Numbering
    or its plain row tuple; row tuples are taken as they are, unvalidated,
    so fillings the program built itself need no Numbering.

    Rows above frozen_rows are never touched; each rewrite step takes the
    topmost violating row pair below the frozen prefix, the rightmost
    violating column, and trades that single entry against every entry of
    the row above (one sign flip per term).  This measure strictly
    decreases, so on two-column shapes the rewrite always reaches fillings
    with no violations; those must be basis members.

    Each input term is canonicalized once; every child of a rewrite step is
    built canonical from its canonical parent, by sorting the two changed
    rows and inserting each at its bisect position in its block of
    equal-length rows.  The violation scan visits only the (row, column)
    pairs that can violate in a canonical filling, worked out once per row
    shape and frozen prefix: inside a block, columns from 1 on; across a
    block boundary, every column.  A block of singleton rows is never
    scanned.

    The rewrite of a canonical filling depends only on the filling, so its
    expansion, a sparse {basis position: coefficient} dict, is kept in a
    memo local to the call: a filling that several rewrites reach is
    expanded once.  An explicit stack settles a filling after all the
    fillings its rewrite step produces.  The rewrite runs on plain row
    tuples, keyed against basis rows; no Numbering is built per step.

    Raises StraighteningStalled when a violation-free term is not in the
    basis, when a filling's rewrite reaches that filling again (never on
    two-column shapes, where the measure above decreases), or when more than
    STRAIGHTEN_STEP_LIMIT terms are settled, leaves included.
    """
    index: dict[Rows, int] = {}
    for pos, b in enumerate(map(_rows, basis)):
        if b in index:
            raise ValueError(f"duplicate basis entry: {b!r}")
        index[b] = pos

    memo: dict[Rows, dict[int, int]] = {}
    pending: dict[Rows, list[tuple[int, Rows]]] = {}
    steps = 0

    def settle(root: Rows) -> dict[int, int]:
        nonlocal steps
        checks, blocks = _rewrite_plan(tuple(map(len, root)), frozen_rows)
        stack = [root]
        while stack:
            rows = stack[-1]
            if rows in memo:
                stack.pop()
                continue
            children = pending.pop(rows, None)
            if children is None:
                for r, col in checks:
                    if rows[r - 1][col] > rows[r][col]:
                        children = _rewrite(rows, r, col, blocks)
                        break
                else:
                    pos = index.get(rows)
                    if pos is None:
                        raise StraighteningStalled(
                            f"violation-free term {rows!r} is not in the basis"
                        )
                    expansion = {pos: 1}
                if children is not None:
                    missing = [canon for _, canon in children if canon not in memo]
                    if missing:
                        pending[rows] = children
                        stack.extend(missing)
                        continue
            if children is not None:
                acc: dict[int, int] = {}
                try:
                    for sgn, canon in children:
                        for pos, c in memo[canon].items():
                            acc[pos] = acc.get(pos, 0) - sgn * c
                except KeyError:
                    # every child pushed above rows has settled, so a child
                    # not in the memo is pending below it: an ancestor of
                    # rows, or rows itself, and the rewrite cycles
                    raise StraighteningStalled(
                        f"rewrite of {rows!r} cycles back to a pending filling"
                    ) from None
                expansion = {pos: c for pos, c in acc.items() if c}
            steps += 1
            if steps > STRAIGHTEN_STEP_LIMIT:
                raise StraighteningStalled(
                    f"rewrite did not settle within {STRAIGHTEN_STEP_LIMIT} steps"
                )
            memo[rows] = expansion
            stack.pop()
        return memo[root]

    out = []
    for v in vs:
        # a lone filling is a Numbering or a row tuple, whose first row
        # starts with an int; anything else is (filling, coefficient) pairs
        lone = isinstance(v, Numbering) or (
            isinstance(v, tuple) and v and isinstance(v[0][0], int)
        )
        column = [0] * len(basis)
        for t, c in [(v, 1)] if lone else v:
            if not c:
                continue
            sgn, canon = _canonical_rows(_rows(t), frozen_rows)
            for pos, x in settle(canon).items():
                column[pos] += c * sgn * x
        out.append(column)
    return out


def straighten(
    v: TermsLike, basis: Sequence[Term], frozen_rows: int = 0
) -> list[int]:
    """Integer coefficients of v over basis: straighten_columns([v], basis,
    frozen_rows)[0], which documents the rewrite and its errors."""
    return straighten_columns([v], basis, frozen_rows)[0]

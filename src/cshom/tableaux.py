"""Two-column tableau combinatorics: standard and semistandard fillings,
standardization, and straightening into standard bases by exchange-relation
rewriting.

A filling is a tuple of row tuples with plain integer entries, and nothing
else; no group algebra elements are materialized here.  The tests judge this
module against an independent group-algebra oracle (tests/groupalg.py), the
literal exchange expansion and validated numberings of tests/numbering.py,
and the cell-by-cell semistandard backtracker that enumerate_ssyt replaced.
The verification battery (cshom.verify) pins straighten itself: its three
exchange checks pin the coefficients of a single-entry exchange, a
two-entry exchange and a subdivided-graph filling over enumerate_syt.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import StraighteningStalled

__all__ = [
    "Partition",
    "numbering_key",
    "enumerate_syt",
    "enumerate_ssyt",
    "standardize",
    "straighten",
    "straighten_columns",
]


Rows = tuple[tuple[int, ...], ...]


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
) -> tuple[int, Rows]:
    """Sign and rows of the canonical representative of a filling.

    Sorting inside a row is free.  Below the frozen prefix, rows of equal
    length are put in ascending order of content; permuting rows of length L
    multiplies the underlying element by the permutation sign raised to L,
    so only odd-length blocks can flip the sign.
    """
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


@functools.cache
def enumerate_syt(shape: Partition) -> tuple[Rows, ...]:
    """All standard fillings of the shape as row tuples, ascending in the
    total order of numbering_key."""
    lengths = shape.parts
    fills = [0] * len(lengths)
    rows: list[list[int]] = [[] for _ in lengths]
    out: list[Rows] = []

    def place(v: int) -> None:
        if v > shape.n:
            out.append(tuple(tuple(r) for r in rows))
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
    out.sort(key=numbering_key)
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
    when a exceeds the number of length-2 rows.

    Raises ValueError for a shape that is not (2^k, 1^(n-2k)), a weight
    that is not (2^a, 1^b), or unequal sizes.
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
        top + tuple(tuple(x + a for x in row) for row in t)
        for t in enumerate_syt(Partition(rest))
    )


def standardize(filling: Sequence[Sequence[int]], target: Rows) -> Rows:
    """Relabel a semistandard filling into the entries of target, a filling
    given as row tuples.

    Value v of the filling must occur exactly len(target[v-1]) times;
    the stable sort of the filling's reading word then assigns target's
    reading word positionwise, sending equal values to one target row in
    increasing order.
    """
    rows = tuple(tuple(int(x) for x in row) for row in filling)
    wy = [x for row in rows for x in row]
    wt = [x for row in target for x in row]
    if len(wy) != len(wt):
        raise ValueError(f"filling has {len(wy)} cells, target has {len(wt)}")
    counts = Counter(wy)
    if sorted(counts) != list(range(1, len(target) + 1)):
        raise ValueError(f"filling values must be 1..{len(target)}")
    for v, row in enumerate(target, start=1):
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
    return tuple(out)


# a filling to straighten: one row tuple, or (row tuple, coefficient) pairs
TermsLike = Union[Rows, Iterable[tuple[Rows, int]]]

STRAIGHTEN_STEP_LIMIT = 1_000_000


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
    vs: Sequence[TermsLike], basis: Sequence[Rows], frozen_rows: int = 0
) -> list[list[int]]:
    """Integer coefficients of each of vs over basis, by exchange-relation
    rewriting with one memo shared by all of them.

    Each entry of vs is one filling, a tuple of row tuples, or an iterable
    (a list or a tuple) of (filling, integer coefficient) pairs; an empty
    iterable is the zero vector.  Basis entries are fillings.  Fillings are
    taken as they are, unvalidated.

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
    tuples, keyed against basis rows.

    Raises StraighteningStalled when a violation-free term is not in the
    basis, when a filling's rewrite reaches that filling again (never on
    two-column shapes, where the measure above decreases), or when more than
    STRAIGHTEN_STEP_LIMIT terms are settled, leaves included.
    """
    index: dict[Rows, int] = {}
    for pos, b in enumerate(basis):
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
        # a lone filling is a row tuple whose first row starts with an int;
        # anything else is (filling, coefficient) pairs
        lone = isinstance(v, tuple) and v and isinstance(v[0][0], int)
        column = [0] * len(basis)
        for t, c in [(v, 1)] if lone else v:
            if not c:
                continue
            sgn, canon = _canonical_rows(t, frozen_rows)
            for pos, x in settle(canon).items():
                column[pos] += c * sgn * x
        out.append(column)
    return out


def straighten(
    v: TermsLike, basis: Sequence[Rows], frozen_rows: int = 0
) -> list[int]:
    """Integer coefficients of v, one filling or an iterable of (filling,
    coefficient) pairs, over basis: straighten_columns([v], basis,
    frozen_rows)[0], which documents the accepted forms, the rewrite and
    its errors."""
    return straighten_columns([v], basis, frozen_rows)[0]

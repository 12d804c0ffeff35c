"""Restricted chain complexes of a graph at a two-column shape.

For shape (2^k, 1^(n-2k)) the three chain groups are spanned by: standard
fillings (degree 0); one block of standardized fillings per edge (degree
1, K copies each); one block per non-consecutive edge pair (degree 2).
Differential columns are computed by straightening the block generators
into the target bases, the d1 columns of an edge not yet in the tables
(below) in one call with a shared memo, with the sign convention: removing
the lexicographically smaller edge of a pair keeps the larger one and
carries +1, removing the larger carries -1.  A pair generator's filling is
the two edges followed by its pattern on the remaining vertices, built
directly; its two block parts come from one straightening per order type,
and the composite d1 d2 is checked zero by a sparse exact product.

The edge template, each edge's block and d1 columns, and the d2 order-type
table depend only on (n, shape), never on the graph.  A build keeps them in
a tables dict keyed by (n, shape.parts) and computes only what is missing
there; the caller that passes one dict to several builds owns its lifetime
(the survey, for one run), and a build without one starts from empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import ComplexNotExact
from .graphs import Edge, Graph, edge_pairs_by_type
from .intlinalg import mat_mul
from .tableaux import (
    Partition,
    Rows,
    enumerate_ssyt,
    enumerate_syt,
    numbering_key,
    standardize,
    straighten,
    straighten_columns,
)

__all__ = ["RestrictedComplex", "build_restricted_complex"]


@dataclass(frozen=True)
class RestrictedComplex:
    """Chain data of one graph at one two-column shape.

    basis0 holds the standard fillings, ascending.  basis1 rows are
    (edge_index, copy, filling) and basis2 rows are ((i, j), copy,
    filling).  Every filling, in all three, is a plain row tuple; indices
    are 1-based to match the generator names X_i^j and W_{i,j}^l used in
    reports and certificates.  d1 and d2 are tuples of rows, each row a
    tuple of Python ints; d1 is |basis0| x |basis1|, d2 is
    |basis1| x |basis2|.
    """

    graph: Graph
    shape: Partition
    basis0: tuple[Rows, ...]
    basis1: tuple[tuple[int, int, Rows], ...]
    basis2: tuple[tuple[tuple[int, int], int, Rows], ...]
    d1: tuple[tuple[int, ...], ...]
    d2: tuple[tuple[int, ...], ...]

    @property
    def copies1(self) -> int:
        """Specht multiplicity K of each edge block."""
        return len(self.basis1) // self.graph.m if self.graph.m else 0

    @cached_property
    def column_of_edge_copy(self) -> dict[tuple[int, int], int]:
        return {(i, j): col for col, (i, j, _) in enumerate(self.basis1)}

    @cached_property
    def column_of_pair_copy(self) -> dict[tuple[int, int, int], int]:
        return {
            (i, j, l): col for col, ((i, j), l, _) in enumerate(self.basis2)
        }

    def dims(self) -> tuple[int, int, int]:
        return len(self.basis2), len(self.basis1), len(self.basis0)


def _standard_below(rows: Rows, frozen_rows: int) -> bool:
    for r in range(frozen_rows, len(rows)):
        if any(rows[r][c] >= rows[r][c + 1] for c in range(len(rows[r]) - 1)):
            return False
        if r > frozen_rows:
            if any(rows[r - 1][c] >= rows[r][c] for c in range(len(rows[r]))):
                return False
    return True


@dataclass
class _ShapeTables:
    """The graph-independent part of every build at one (n, shape).

    copies is the Specht multiplicity K and paired/single the edge
    template's reading word, its length-2 rows and its singletons apart.
    blocks and columns map an edge to its K fillings and their d1 columns;
    order_types maps a d2 order type to its straightened block part.
    """

    copies: int
    paired: list[int]
    single: list[int]
    blocks: dict[Edge, tuple[Rows, ...]] = field(default_factory=dict)
    columns: dict[Edge, list[list[int]]] = field(default_factory=dict)
    order_types: dict[tuple[tuple[int, ...], int], list[int]] = field(
        default_factory=dict
    )


def degree1_basis(
    g: Graph, shape: Partition, tables: Optional[dict] = None
) -> tuple[tuple[int, int, Rows], ...]:
    """Degree-1 basis rows (edge_index, copy, filling) of g at the shape,
    each filling a plain row tuple.

    Requires a canonical (sorted, loop-free) graph and a two-column shape
    with k >= 1 length-2 rows summing to n.  Each edge contributes one
    block of K standardized fillings whose top row is the edge, standard
    below it and listed in ascending order.

    The patterns are standardized once, into a template with top row
    (1, 2) and singletons 3..n, and the checks run on the template.  Edge
    (a, b) relabels it by 1 -> a, 2 -> b and the order-preserving map of
    3..n onto V minus {a, b}: entries below the top row keep their order,
    so every block keeps the checked properties.  The template and each
    edge's block are taken from tables (see the module docstring) when
    they are there and put there when not.
    """
    g.assert_canonical()
    if shape.n != g.n:
        raise ValueError(f"shape size {shape.n} != graph order {g.n}")
    k = shape.two_column_rows()
    if k is None or k < 1:
        raise ValueError(f"shape {shape.parts!r} is not (2^k, 1^*) with k >= 1")

    if tables is None:
        tables = {}
    t = tables.get((g.n, shape.parts))
    if t is None:
        mu = Partition((2,) + (1,) * (g.n - 2))
        t0 = ((1, 2),) + tuple((v,) for v in range(3, g.n + 1))
        template = [standardize(z, t0) for z in enumerate_ssyt(shape, mu)]
        for x in template:
            if x[0] != (1, 2):
                raise AssertionError(f"filling {x!r} does not start with (1, 2)")
            if not _standard_below(x, 1):
                raise AssertionError(f"filling {x!r} is not standard below the edge")
        if sorted(template, key=numbering_key) != template:
            raise AssertionError("edge block must be listed in ascending order")
        paired = [v for x in template for row in x[:k] for v in row]
        single = [row[0] for x in template for row in x[k:]]
        t = tables[(g.n, shape.parts)] = _ShapeTables(len(template), paired, single)
    # each new edge maps the template's reading word once and cuts it back
    # into fillings
    m = g.n - 2 * k
    basis1: list[tuple[int, int, Rows]] = []
    for i, (a, b) in enumerate(g.edges, start=1):
        block = t.blocks.get((a, b))
        if block is None:
            label = (0, a, b) + tuple(
                v for v in range(1, g.n + 1) if v != a and v != b
            )
            cells = list(map(label.__getitem__, t.paired))
            pairs = list(zip(cells[::2], cells[1::2]))
            singles = list(zip(map(label.__getitem__, t.single)))
            block = t.blocks[(a, b)] = tuple(
                tuple(pairs[j * k : j * k + k]) + tuple(singles[j * m : j * m + m])
                for j in range(t.copies)
            )
        basis1.extend((i, j, rows) for j, rows in enumerate(block, start=1))
    return tuple(basis1)


def build_restricted_complex(
    g: Graph, shape: Partition, tables: Optional[dict] = None
) -> RestrictedComplex:
    """Assemble bases and differentials; the composite d1 d2 is asserted zero.

    Requires a canonical (sorted, loop-free) graph and a two-column shape
    with k >= 1 length-2 rows summing to n.  With k = 1 the degree-2 group
    is empty by definition, so d2 has no columns.

    The block parts of d2 are straightened once per order type.  With the
    top row e frozen, straightening only compares entries below it, so the
    coefficients of a filling (e, f, rest) over e's block are unchanged by
    the order-preserving relabeling of V minus e onto 1..n-2, which maps e's
    block onto the same ordered list of standard fillings.  They depend
    only on the ranks of f's endpoints in V minus e and the pattern index,
    and one table keyed by those serves both the removed-edge and the
    kept-edge side of every pair, in every graph of order n.

    Of the tables (see the module docstring) a build computes only what is
    missing: one straighten_columns call over the new edges' fillings and
    one straighten per new order type.  None gives a dict local to the call.
    """
    if tables is None:
        tables = {}
    basis1 = degree1_basis(g, shape, tables)
    t = tables[(g.n, shape.parts)]
    k = shape.two_column_rows()
    basis0 = enumerate_syt(shape)
    n = g.n
    kcopies = t.copies

    new = [e for e in g.edges if e not in t.columns]
    if new:
        cols = straighten_columns([x for e in new for x in t.blocks[e]], basis0)
        for s, e in enumerate(new):
            t.columns[e] = cols[s * kcopies : (s + 1) * kcopies]
    d1_cols = [col for e in g.edges for col in t.columns[e]]
    d1 = tuple(zip(*d1_cols)) if d1_cols else ((),) * len(basis0)

    basis2: list[tuple[tuple[int, int], int, Rows]] = []
    d2_rows: list[list[int]] = [[] for _ in basis1]
    if k >= 2:
        noncons, _ = edge_pairs_by_type(g)
        nu = Partition((2, 2) + (1,) * (n - 4))
        w_patterns = enumerate_ssyt(shape, nu)
        d2_rows = [[0] * (len(noncons) * len(w_patterns)) for _ in basis1]
        table = t.order_types
        for i0, j0 in noncons:
            ei, ej = g.edges[i0], g.edges[j0]
            # row 2 of every pattern is (2, 2); values 3.. are the singletons
            singles = [v for v in range(1, n + 1) if v not in ei and v not in ej]
            for l, pat in enumerate(w_patterns, start=1):
                rest = tuple(tuple(singles[v - 3] for v in row) for row in pat[2:])
                col = len(basis2)
                basis2.append(((i0 + 1, j0 + 1), l, (ei, ej) + rest))
                for top, f, b0, sign in ((ej, ei, j0, 1), (ei, ej, i0, -1)):
                    key = (tuple(v - 1 - (v > top[0]) - (v > top[1]) for v in f), l)
                    if key not in table:
                        table[key] = straighten(
                            (top, f) + rest, t.blocks[top], frozen_rows=1
                        )
                    for s, v in enumerate(table[key]):
                        d2_rows[b0 * kcopies + s][col] = sign * v
    d2 = tuple(map(tuple, d2_rows))

    if basis2 and any(map(any, mat_mul(d1, d2))):
        raise ComplexNotExact(
            f"d1 d2 != 0 for graph {g.edges!r} at shape {shape.parts!r}"
        )

    return RestrictedComplex(
        graph=g,
        shape=shape,
        basis0=basis0,
        basis1=basis1,
        basis2=tuple(basis2),
        d1=d1,
        d2=d2,
    )

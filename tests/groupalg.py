"""Group-algebra oracle for the restricted complexes.

A test oracle, kept with the tests: the tests compare the rewriting route in
cshom against it, and nothing in the package imports it.

Chain generators are expanded literally as signed permutation sums: the
generator attached to a numbering S with reference R is

    sum over zeta in C(R), rho in R(R) of  sgn(zeta) * zeta rho sigma

with sigma the permutation carrying S to R cellwise.  Edge maps of the
underlying complex are genuine inclusions of group-algebra submodules, so
differential columns fall out of exact rational expansion in these sums.
Nothing here touches the exchange-relation rewriting, and the semistandard
patterns come from the cell-by-cell backtracker in helpers.py, not from
cshom.tableaux.enumerate_ssyt; that independence is the point.  Generators
are Numbering objects from numbering.py; fillings taken from the package,
which are plain row tuples, are wrapped in one.

Permutations of {1..n} are tuples in one-line notation: p[i] is the image
of i + 1.

Sizes are capped (n <= 7 for matrices, n <= 5 for the full tabloid
homology); beyond the caps the symmetric group blows up and the rewriting
route in cshom.complexes is the only practical one.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from cshom.errors import CshomError
from cshom.graphs import Graph, edge_pairs_by_type
from cshom.intlinalg import HomologyResult, homology_group
from cshom.tableaux import Partition, enumerate_syt, standardize
from helpers import reference_enumerate_ssyt
from numbering import Numbering, numbering_of_subgraph

__all__ = [
    "specht_vector",
    "expand_in_basis",
    "permutation_module_basis",
    "oracle_restricted_matrices",
    "full_h1_small",
]

Perm = tuple[int, ...]
GAVector = dict[Perm, int]

ORACLE_MAX_N = 7
FULL_MAX_N = 5


class NotInSpan(CshomError):
    """A vector is not an integer combination of the given basis."""


class NonIntegerSolution(CshomError):
    """The unique rational expansion exists but is not integral."""


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """Product p * q: the right factor acts first."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def sign(p: Perm) -> int:
    """Sign of p, computed from its cycle type."""
    n = len(p)
    seen = [False] * n
    s = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def from_mapping(mapping: dict[int, int], n: int) -> Perm:
    """Permutation sending k to mapping[k], identity elsewhere."""
    out = list(range(1, n + 1))
    for k, v in mapping.items():
        out[k - 1] = v
    p = tuple(out)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError("mapping is not a bijection")
    return p


def _group_elements(rows: Iterable[tuple[int, ...]], n: int) -> list[tuple[Perm, int]]:
    """All permutations moving entries only within the given blocks, signed."""
    blocks = [tuple(b) for b in rows if len(b) > 1]
    out: list[tuple[Perm, int]] = [(identity(n), 1)]
    for block in blocks:
        expanded = []
        for images in itertools.permutations(block):
            p = from_mapping(dict(zip(block, images)), n)
            s = sign(p)
            expanded.extend((compose(q, p), t * s) for q, t in out)
        out = expanded
    return out


def _columns(nb: Numbering) -> list[tuple[int, ...]]:
    width = len(nb.rows[0])
    return [
        tuple(row[c] for row in nb.rows if c < len(row)) for c in range(width)
    ]


@functools.cache
def _symmetrizer(ref: Numbering) -> tuple[tuple[Perm, int], ...]:
    """Terms of b_ref a_ref; |C| * |R| distinct permutations."""
    n = ref.n
    rows = _group_elements(ref.rows, n)
    cols = _group_elements(_columns(ref), n)
    terms: dict[Perm, int] = {}
    for zeta, s in cols:
        for rho, _ in rows:
            key = compose(zeta, rho)
            if key in terms:
                raise AssertionError("row and column groups must intersect trivially")
            terms[key] = s
    return tuple(terms.items())


def specht_vector(s: Numbering, ref: Numbering | None = None) -> GAVector:
    """Group-algebra expansion of the generator attached to s.

    ref defaults to the least standard numbering of the shape.  s and ref
    must have equal shape; entries must be exactly 1..n.
    """
    s.check_content()
    if ref is None:
        ref = Numbering(enumerate_syt(s.shape)[0])
    if ref.shape != s.shape:
        raise ValueError(f"shape mismatch: {s.shape.parts} vs {ref.shape.parts}")
    mapping = {}
    for row_s, row_r in zip(s.rows, ref.rows):
        mapping.update(zip(row_s, row_r))
    sigma = from_mapping(mapping, s.n)
    return {compose(key, sigma): c for key, c in _symmetrizer(ref)}


def expand_in_basis(
    vector: Mapping[Perm, int], basis: Sequence[Mapping[Perm, int]]
) -> list[int]:
    """Integer coordinates of vector over a linearly independent basis.

    Exact rational elimination; NotInSpan if no rational combination exists,
    NonIntegerSolution if the unique one is not integral.
    """
    work = [
        {k: Fraction(v) for k, v in b.items() if v} for b in basis
    ]
    comb = [
        [Fraction(int(i == j)) for j in range(len(basis))] for i in range(len(basis))
    ]
    pivots: list[tuple[Perm, int]] = []
    for t in range(len(work)):
        if not work[t]:
            raise ValueError("basis is not linearly independent")
        pivot = min(work[t])
        pval = work[t][pivot]
        for u in range(t + 1, len(work)):
            uval = work[u].get(pivot)
            if not uval:
                continue
            f = uval / pval
            for k, v in work[t].items():
                nv = work[u].get(k, Fraction(0)) - f * v
                if nv:
                    work[u][k] = nv
                else:
                    work[u].pop(k, None)
            for j in range(len(basis)):
                comb[u][j] -= f * comb[t][j]
        pivots.append((pivot, t))
    residue = {k: Fraction(v) for k, v in vector.items() if v}
    reduced = [Fraction(0)] * len(work)
    for pivot, t in pivots:
        rv = residue.get(pivot)
        if not rv:
            continue
        f = rv / work[t][pivot]
        reduced[t] = f
        for k, v in work[t].items():
            nv = residue.get(k, Fraction(0)) - f * v
            if nv:
                residue[k] = nv
            else:
                residue.pop(k, None)
    if residue:
        raise NotInSpan("vector has a component outside the basis span")
    coeffs = [
        sum(reduced[t] * comb[t][j] for t in range(len(work)))
        for j in range(len(basis))
    ]
    if any(c.denominator != 1 for c in coeffs):
        raise NonIntegerSolution(f"rational coordinates: {coeffs!r}")
    return [int(c) for c in coeffs]


def _check_oracle_bound(n: int, bound: int, what: str) -> None:
    if n > bound:
        raise ValueError(f"{what} supports n <= {bound}, got n = {n}")


def oracle_restricted_matrices(
    g: Graph, shape: Partition
) -> tuple[list[list[int]], list[list[int]]]:
    """(d1, d2) of the restricted complex, by group-algebra expansion only.

    Basis order matches cshom.complexes.build_restricted_complex: standard
    numberings ascending; edge blocks in edge order with copies in
    semistandard order; pair blocks in lexicographic pair order.  n <= 7.
    """
    g.assert_canonical()
    _check_oracle_bound(g.n, ORACLE_MAX_N, "oracle_restricted_matrices")
    n = g.n
    k = shape.two_column_rows()
    if k is None or k < 1 or shape.n != n:
        raise ValueError(f"shape {shape.parts!r} is not two-column for n={n}")

    syt = [Numbering(y) for y in enumerate_syt(shape)]
    ref = syt[0]
    basis0 = [specht_vector(y, ref) for y in syt]

    mu = Partition((2,) + (1,) * (n - 2))
    patterns = reference_enumerate_ssyt(shape, mu)
    x_fillings: list[list[Numbering]] = []
    x_vectors: list[list[GAVector]] = []
    for e in g.edges:
        t_e = numbering_of_subgraph(g, (e,))
        block = [Numbering(standardize(z, t_e.rows)) for z in patterns]
        x_fillings.append(block)
        x_vectors.append([specht_vector(x, ref) for x in block])

    kcopies = len(patterns)
    d1 = [[0] * (g.m * kcopies) for _ in range(len(syt))]
    for i in range(g.m):
        for j in range(kcopies):
            col = expand_in_basis(x_vectors[i][j], basis0)
            for r, v in enumerate(col):
                d1[r][i * kcopies + j] = v

    if k < 2:
        return d1, [[] for _ in range(g.m * kcopies)]

    noncons, _ = edge_pairs_by_type(g)
    nu = Partition((2, 2) + (1,) * (n - 4))
    w_patterns = reference_enumerate_ssyt(shape, nu)
    wcopies = len(w_patterns)
    d2 = [[0] * (len(noncons) * wcopies) for _ in range(g.m * kcopies)]
    for p, (i, j) in enumerate(noncons):
        t_f = numbering_of_subgraph(g, (g.edges[i], g.edges[j]))
        for l, pat in enumerate(w_patterns):
            w = specht_vector(Numbering(standardize(pat, t_f.rows)), ref)
            col = p * wcopies + l
            # removing the lower edge lands in the kept-upper block, sign +
            for s, v in enumerate(expand_in_basis(w, x_vectors[j])):
                d2[j * kcopies + s][col] = v
            for s, v in enumerate(expand_in_basis(w, x_vectors[i])):
                d2[i * kcopies + s][col] = -v
    return d1, d2


TabloidKey = tuple[tuple[int, ...], ...]


def permutation_module_basis(t: Numbering) -> tuple[TabloidKey, ...]:
    """Row-content classes (tabloids) of numberings with t's row sizes.

    Basis of the module generated by t's row symmetrizer; its size is
    n! / prod(row sizes!).
    """
    t.check_content()
    sizes = [len(r) for r in t.rows]
    out: list[TabloidKey] = []

    def fill(rows: tuple[tuple[int, ...], ...], left: tuple[int, ...]) -> None:
        if len(rows) == len(sizes):
            out.append(rows)
            return
        need = sizes[len(rows)]
        for chosen in itertools.combinations(left, need):
            rest = tuple(x for x in left if x not in chosen)
            fill(rows + (chosen,), rest)

    fill((), tuple(range(1, t.n + 1)))
    return tuple(out)


def _tabloid_of(h: dict[int, int], t: Numbering) -> TabloidKey:
    return tuple(tuple(sorted(h[x] for x in row)) for row in t.rows)


def _coset_perms(key: TabloidKey, t: Numbering) -> Iterable[dict[int, int]]:
    """All permutations sending t's rows onto the key's rows setwise."""
    for arranged in itertools.product(*(itertools.permutations(r) for r in key)):
        h: dict[int, int] = {}
        for trow, images in zip(t.rows, arranged):
            h.update(zip(trow, images))
        yield h


def _inclusion_columns(
    t_big: Numbering, t_small: Numbering, small_index: dict[TabloidKey, int]
) -> dict[TabloidKey, list[tuple[int, int]]]:
    """Sparse columns of the inclusion of the big-row module into the small.

    For every basis tabloid of the big module, the coset sum regroups into
    cosets of the smaller row group with unit coefficients.
    """
    small_size = 1
    for row in t_small.rows:
        f = 1
        for q in range(2, len(row) + 1):
            f *= q
        small_size *= f
    out: dict[TabloidKey, list[tuple[int, int]]] = {}
    for key in permutation_module_basis(t_big):
        counts: dict[TabloidKey, int] = {}
        for h in _coset_perms(key, t_big):
            kk = _tabloid_of(h, t_small)
            counts[kk] = counts.get(kk, 0) + 1
        entries = []
        for kk, c in counts.items():
            if c != small_size:
                raise AssertionError("coset regrouping must be uniform")
            entries.append((small_index[kk], 1))
        out[key] = entries
    return out


def full_h1_small(g: Graph) -> HomologyResult:
    """Degree-one homology of the full tabloid complex (every summand kept).

    Ground truth for small graphs: n <= 5.  Chain modules are spanned by
    tabloids of the subgraph numberings; differentials are the signed
    inclusion maps.
    """
    g.assert_canonical()
    _check_oracle_bound(g.n, FULL_MAX_N, "full_h1_small")
    n = g.n
    t0 = numbering_of_subgraph(g, ())
    keys0 = permutation_module_basis(t0)
    index0 = {k: i for i, k in enumerate(keys0)}

    edge_ts = [numbering_of_subgraph(g, (e,)) for e in g.edges]
    edge_keys = [permutation_module_basis(t) for t in edge_ts]
    edge_offset = []
    c1 = 0
    for keys in edge_keys:
        edge_offset.append(c1)
        c1 += len(keys)
    edge_index = [
        {k: i for i, k in enumerate(keys)} for keys in edge_keys
    ]

    d1 = [[0] * c1 for _ in range(len(keys0))]
    for ei, t_e in enumerate(edge_ts):
        cols = _inclusion_columns(t_e, t0, index0)
        for local, key in enumerate(edge_keys[ei]):
            for r, v in cols[key]:
                d1[r][edge_offset[ei] + local] = v

    pairs = list(itertools.combinations(range(g.m), 2))
    c2 = 0
    pair_data = []
    for i, j in pairs:
        t_f = numbering_of_subgraph(g, (g.edges[i], g.edges[j]))
        keys = permutation_module_basis(t_f)
        pair_data.append((i, j, t_f, keys, c2))
        c2 += len(keys)

    d2 = [[0] * c2 for _ in range(c1)]
    for i, j, t_f, keys, off in pair_data:
        into_j = _inclusion_columns(t_f, edge_ts[j], edge_index[j])
        into_i = _inclusion_columns(t_f, edge_ts[i], edge_index[i])
        for local, key in enumerate(keys):
            col = off + local
            for r, v in into_j[key]:
                d2[edge_offset[j] + r][col] = v
            for r, v in into_i[key]:
                d2[edge_offset[i] + r][col] = -v

    return homology_group(d1, d2)

"""Exact integer linear algebra: Smith normal form with transforms, integer
kernels and solves, homology of a two-step integer complex, and torsion
certificate checking.

Matrices cross the API as lists of rows of Python ints, so results are exact
no matter the size, and the module needs only the standard library.
Products (mat_mul, mat_vec) run over nonzeros.  The SNF eliminates on
Python-int row lists and skips every row whose quotient is 0, so its cost
follows the nonzeros it touches.  Kernels, homology and integer solves share
one sparse elimination of unit pivots on a Python-int copy of the matrix,
taking rows in order of their nonzero count, so the SNF sees only the
residual: a kernel basis takes the residual's kernel from its SNF and
back-substitutes the pivot columns, homology reads its invariants off the
residual's SNF, and a solve carries the right-hand side through the same
row operations, solves the residual system through its SNF transforms and
back-substitutes the pivot rows.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Optional, Sequence

from .errors import ComplexNotExact

__all__ = [
    "smith_normal_form",
    "kernel_basis",
    "solve_integer",
    "homology_group",
    "HomologyResult",
    "TorsionCertificate",
    "CertificateVerdict",
    "check_certificate",
    "mat_mul",
    "mat_vec",
]

Matrix = list[list[int]]


def _dims(m: Sequence[Sequence[int]]) -> tuple[int, int]:
    r = len(m)
    c = len(m[0]) if r else 0
    if any(len(row) != c for row in m):
        raise ValueError("ragged matrix")
    return r, c


def _least_entry(A: Matrix, k: int) -> Optional[tuple[int, int]]:
    """Position of the first entry of least nonzero |value| in row-major
    order of the block A[k:, k:], or None when that block is zero."""
    best, at = 0, -1
    for i in range(k, len(A)):
        least = min(map(abs, filter(None, A[i][k:])), default=0)
        if least and (not best or least < best):
            best, at = least, i
            if best == 1:
                break
    if not best:
        return None
    row = A[at]
    return at, next(j for j in range(k, len(row)) if abs(row[j]) == best)


def _subtract(M: Matrix, i: int, q: int, nz: list[int], src: list[int]) -> None:
    """M[i] -= q * src, over the nonzero positions nz of src."""
    row = M[i]
    for t in nz:
        row[t] -= q * src[t]


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transforms: returns (S, U, V) with U m V = S.

    U and V are unimodular; S is diagonal with nonnegative entries, each
    dividing the next.

    The elimination is pinned, not just correct: on the residual that the
    row-length-ordered unit elimination (_eliminate) leaves, U and V decide
    the kernel columns of kernel_basis and solve_integer's x, which
    certificate documents store as witness_x.  At step k the pivot is the
    first entry of least |value| in row-major order of the trailing block.  Its column is
    then cleared by row operations with floor quotients and its row by
    column operations; each time a nonzero remainder is left, the first one
    of least |value| is swapped into the pivot.  When the pivot does not
    divide the whole trailing block, the first row holding an entry it does
    not divide is added to the pivot row and the step goes on.
    """
    r, c = _dims(m)
    A = [[int(x) for x in row] for row in m]
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    # V is kept transposed, so its column operations are row operations
    Vt = [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_cols(j: int) -> None:
        for row in A:
            row[k], row[j] = row[j], row[k]
        Vt[k], Vt[j] = Vt[j], Vt[k]

    for k in range(min(r, c)):
        at = _least_entry(A, k)
        if at is None:
            break
        i, j = at
        A[k], A[i] = A[i], A[k]
        U[k], U[i] = U[i], U[k]
        swap_cols(j)
        while True:
            if A[k][k] < 0:
                A[k] = [-x for x in A[k]]
                U[k] = [-x for x in U[k]]
            p = A[k][k]
            below = [i for i in range(r) if i != k and A[i][k]]
            if below:
                nz_a = list(compress(range(c), A[k]))
                nz_u = list(compress(range(r), U[k]))
                for i in below:
                    q = A[i][k] // p
                    if q:
                        _subtract(A, i, q, nz_a, A[k])
                        _subtract(U, i, q, nz_u, U[k])
                left = [i for i in below if A[i][k]]
                if left:
                    # remainder smaller than the pivot: promote it
                    i = min(left, key=lambda i: abs(A[i][k]))
                    A[k], A[i] = A[i], A[k]
                    U[k], U[i] = U[i], U[k]
                continue
            row = A[k]
            right = [j for j in range(c) if j != k and row[j]]
            if right:
                nz_v = list(compress(range(c), Vt[k]))
                for j in right:
                    q = row[j] // p
                    if q:
                        row[j] -= q * p
                        _subtract(Vt, j, q, nz_v, Vt[k])
                left = [j for j in right if row[j]]
                if left:
                    swap_cols(min(left, key=lambda j: abs(row[j])))
                continue
            if p != 1:
                bad = next(
                    (i for i in range(k + 1, r) if any(x % p for x in A[i][k + 1 :])),
                    None,
                )
                if bad is not None:
                    A[k] = [a + b for a, b in zip(A[k], A[bad])]
                    U[k] = [a + b for a, b in zip(U[k], U[bad])]
                    continue
            break
    return A, U, [list(col) for col in zip(*Vt)]


def kernel_basis(m: Matrix) -> list[list[int]]:
    """Basis of the integer kernel lattice of m, as a list of columns.

    Route: the +-1 pivots are eliminated from a sparse copy of m, rows
    taken in order of their nonzero count (see _eliminate; row operations
    keep the kernel).  Every column that is neither a pivot nor a residual
    column is free and gives a unit generator, listed first in column
    order; the kernel columns of the residual's SNF V follow.  The pivot
    coordinates are then fixed by back-substitution in reverse elimination
    order, composed once into a map from the non-pivot columns.  Projecting the kernel onto the non-pivot coordinates is a
    bijection onto Z^free (+) ker(residual), and V is unimodular, so the
    columns generate the full, saturated kernel lattice.  Each column's
    first nonzero entry is positive for deterministic output.
    """
    _, c = _dims(m)
    pivots, rows = _eliminate(_sparse_rows(m))
    _, live, residual = _residual(rows)
    bound = {j for _, j, _ in pivots}.union(live)
    gens: list[dict[int, int]] = [{j: 1} for j in range(c) if j not in bound]
    if residual:
        S, _, V = smith_normal_form(residual)
        rank = sum(1 for i in range(min(len(residual), len(live))) if S[i][i])
        for t in range(rank, len(live)):
            gens.append({j: vrow[t] for j, vrow in zip(live, V) if vrow[t]})
    # x[j] = -p * (sum of the frozen pivot row's other entries times x):
    # those are later pivots, already composed, or non-pivot columns
    via: dict[int, dict[int, int]] = {}
    for _, j, row in reversed(pivots):
        p = row[j]
        acc: dict[int, int] = {}
        for jj, v in row.items():
            if jj == j:
                continue
            expr = via.get(jj)
            if expr is None:
                acc[jj] = acc.get(jj, 0) - p * v
                continue
            for t, w in expr.items():
                acc[t] = acc.get(t, 0) - p * v * w
        via[j] = {t: w for t, w in acc.items() if w}
    uses: dict[int, list[tuple[int, int]]] = {}
    for j, expr in via.items():
        for t, w in expr.items():
            uses.setdefault(t, []).append((j, w))
    out = []
    for gen in gens:
        col = [0] * c
        for t, g in gen.items():
            col[t] = g
            for j, w in uses.get(t, ()):
                col[j] += w * g
        if next(x for x in col if x) < 0:
            col = [-x for x in col]
        out.append(col)
    return out


def _sparse_rows(m: Sequence[Sequence[int]]) -> list[dict[int, int]]:
    """Each row of m as {column: value} over its nonzeros, in Python ints."""
    return [{j: int(row[j]) for j in compress(range(len(row)), row)} for row in m]


def _sparse_product(a: Matrix, b_rows: list[dict[int, int]], cb: int) -> Matrix:
    """a times the cb-column matrix whose rows are b_rows: every row of the
    product accumulates over the nonzeros of a's row."""
    out = []
    for row in a:
        acc = [0] * cb
        for k in compress(range(len(row)), row):
            x = int(row[k])
            for j, y in b_rows[k].items():
                acc[j] += x * y
        out.append(acc)
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product in Python ints.  Operands are row lists or row
    tuples of ints (numpy integers included).  b is read into sparse rows
    once and the product runs over nonzeros (_sparse_product), so the cost
    follows the nonzero counts, not the dense size, and no entry can
    overflow."""
    ra, ca = _dims(a)
    rb, cb = _dims(b)
    if ca != rb:
        raise ValueError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    return _sparse_product(a, _sparse_rows(b), cb)


def mat_vec(m: Matrix, v: Sequence[int]) -> list[int]:
    """Exact product m v in Python ints, summed over the nonzeros of v."""
    r, c = _dims(m)
    if len(v) != c:
        raise ValueError(f"vector length {len(v)} != {c} columns")
    nz = [(j, int(v[j])) for j in compress(range(c), v)]
    return [sum(int(row[j]) * x for j, x in nz) for row in m]


@dataclass(frozen=True)
class HomologyResult:
    """Betti number plus the invariant factors greater than one."""

    betti: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        fac = tuple(int(f) for f in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fac)
        if self.betti < 0:
            raise ValueError("negative betti number")
        if any(f <= 1 for f in fac):
            raise ValueError(f"factors must exceed 1: {fac!r}")
        if any(fac[i + 1] % fac[i] for i in range(len(fac) - 1)):
            raise ValueError(f"factors must form a divisibility chain: {fac!r}")

    @property
    def has_torsion(self) -> bool:
        return bool(self.invariant_factors)

    @property
    def has_z2(self) -> bool:
        return any(f % 2 == 0 for f in self.invariant_factors)


def _eliminate(
    m_rows: list[dict[int, int]], rhs: Optional[list[int]] = None
) -> Optional[tuple[list[tuple[int, int, dict[int, int]]], dict[int, dict[int, int]]]]:
    """Eliminate +-1 pivots from m_rows, the sparse rows of a matrix m (see
    _sparse_rows).  The row dicts are updated in place.

    Returns (pivots, rows).  pivots lists each pivot as (row index, column,
    row entries) in elimination order; a pivot row leaves the elimination
    when it is chosen, so its entries are frozen there.  rows maps each
    residual row index to its nonzero entries, none of them +-1 once the
    loop ends.  Each step is unimodular, so SNF(m) = I_p (+) SNF(residual).

    Pivots go by row length.  Rows wait in a heap keyed by their nonzero
    count, ties by row index; a popped row whose count has changed since it
    was pushed goes back at its current count.  Only then is its pivot
    chosen: the first +-1 entry, in row order, of the column with fewest
    nonzeros.  A row with no +-1 entry is set aside until an elimination
    changes it and puts it back on the heap.

    When rhs is given, every row operation is applied to it in place, and
    the result is None as soon as a row that is or has become zero has a
    nonzero rhs entry: m x = rhs then has no solution.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(m_rows):
        if row:
            rows[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
        elif rhs is not None and rhs[i]:
            return None
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    aside: set[int] = set()
    pivots: list[tuple[int, int, dict[int, int]]] = []
    while heap:
        count, i = heapq.heappop(heap)
        row = rows.get(i)
        if row is None:
            continue
        if len(row) != count:
            heapq.heappush(heap, (len(row), i))
            continue
        units = [jj for jj, v in row.items() if v == 1 or v == -1]
        j = min(units, key=lambda jj: len(cols[jj]), default=None)
        if j is None:
            aside.add(i)
            continue
        p = row[j]
        pivots.append((i, j, row))
        del rows[i]
        for jj in row:
            cols[jj].discard(i)
        for t in list(cols[j]):
            target = rows[t]
            f = target[j] * p
            if rhs is not None:
                rhs[t] -= f * rhs[i]
            for jj, v in row.items():
                new = target.get(jj, 0) - f * v
                if not new:
                    del target[jj]
                    cols[jj].discard(t)
                else:
                    if jj not in target:
                        cols[jj].add(t)
                    target[jj] = new
            if not target:
                if rhs is not None and rhs[t]:
                    return None
                del rows[t]
            elif t in aside:
                aside.discard(t)
                heapq.heappush(heap, (len(target), t))
        del cols[j]
    return pivots, rows


def _residual(rows: dict[int, dict[int, int]]) -> tuple[list[int], list[int], Matrix]:
    """Row indices, live columns and dense matrix of a residual."""
    ids = sorted(rows)
    live = sorted({j for row in rows.values() for j in row})
    return ids, live, [[rows[i].get(j, 0) for j in live] for i in ids]


def solve_integer(m: Matrix, b: Sequence[int]) -> Optional[list[int]]:
    """Some integer solution of m x = b, or None iff b is outside the
    column span.

    Route: +-1 pivots are eliminated from a sparse copy of m, rows taken in
    order of their nonzero count (see _eliminate), each row operation
    applied to b as well; a row that is or becomes zero with a nonzero
    right-hand side ends the solve with None.  The residual system
    R y = b_R is solved through its SNF with transforms (U R V = S: S z =
    U b_R entrywise, y = V z).  Columns that are neither pivot nor residual
    columns are set to 0.  Last, the pivot rows are back-substituted in
    reverse elimination order: a pivot row was frozen when it was chosen,
    so besides its pivot it holds only later pivot columns, residual
    columns and zeroed columns, all known by then.
    """
    rows, cols = _dims(m)
    if len(b) != rows:
        raise ValueError(f"rhs length {len(b)} != {rows} rows")
    rhs = [int(v) for v in b]
    reduced = _eliminate(_sparse_rows(m), rhs)
    if reduced is None:
        return None
    pivots, left = reduced
    x = [0] * cols
    if left:
        ids, live, residual = _residual(left)
        S, U, V = smith_normal_form(residual)
        z = [0] * len(live)
        for i, urow in enumerate(U):
            v = sum(u * rhs[t] for u, t in zip(urow, ids))
            d = S[i][i] if i < len(live) else 0
            if v % d if d else v:
                return None
            if d:
                z[i] = v // d
        for j, vrow in zip(live, V):
            x[j] = sum(a * c for a, c in zip(vrow, z))
    for i, j, row in reversed(pivots):
        x[j] = row[j] * (rhs[i] - sum(v * x[jj] for jj, v in row.items() if jj != j))
    return x


def homology_group(d1: Matrix, d2: Matrix) -> HomologyResult:
    """Middle homology of the integer complex  C2 --d2--> C1 --d1--> C0.

    C1 / ker d1 embeds in the free group C0, so ker d1 is a direct summand
    of C1 and the torsion of H1 = ker d1 / im d2 is the torsion of
    coker d2.  Route: d2 is read into sparse rows once; those rows serve
    the d1 d2 = 0 product and then the elimination.  The kernel rank of d1
    is counted off kernel_basis (the same sparse elimination, so only d1's
    residual, often empty, reaches an SNF); +-1 pivots are eliminated from
    d2's rows in order of their nonzero count (unimodular steps, so
    SNF(d2) = I_p (+) SNF(residual)), then the SNF of the residual alone.
    betti = ker dim - rank d2; invariant factors are the residual's
    diagonal entries above 1.

    Raises ComplexNotExact when d1 d2 != 0.
    """
    r1, c1 = _dims(d1)
    r2, c2 = _dims(d2)
    if c1 != r2:
        raise ValueError(f"shape mismatch: d1 is {r1}x{c1}, d2 is {r2}x{c2}")
    d2_rows = _sparse_rows(d2)
    if c1 and c2 and any(map(any, _sparse_product(d1, d2_rows, c2))):
        raise ComplexNotExact("d1 composed with d2 is nonzero")
    kdim = len(kernel_basis(d1))
    pivots, rows = _eliminate(d2_rows)
    residual = _residual(rows)[2]
    diag = []
    if residual:
        S, _, _ = smith_normal_form(residual)
        diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    return HomologyResult(
        betti=kdim - len(pivots) - sum(1 for d in diag if d),
        invariant_factors=tuple(d for d in diag if d > 1),
    )


def _is_prime(n: int) -> bool:
    """Whether n is a prime below 2^31; trial division stays under 46341
    steps."""
    return 2 <= n < 1 << 31 and all(n % d for d in range(2, math.isqrt(n) + 1))


@dataclass(frozen=True)
class TorsionCertificate:
    """Witness data for a p-torsion class in bidegree (1, 0).

    h is a cycle in C1 coordinates (ordered as the complex's basis1) that is
    not a boundary, while witness_x in C2 coordinates satisfies
    d2 witness_x = p * h.  The order of h then divides p and is not 1, so it
    is exactly p because p must be prime (below 2^31).

    The optional fields carry provenance when the certificate was produced
    by lifting: the construction trace, the subgraph witness it grew from,
    and the internal-to-input vertex relabeling.  complex is the complex the
    certificate was built and verified on, kept so that serializing it
    needs no second build; it takes no part in comparison or repr.  A
    certificate is immutable; dataclasses.replace gives a copy with other
    provenance.
    """

    graph: object
    shape: object
    h: tuple[int, ...]
    witness_x: tuple[int, ...]
    prime: int = 2
    trace: object = None
    witness: object = None
    vertex_map: dict = field(default=None, repr=False)
    complex: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", tuple(int(x) for x in self.h))
        object.__setattr__(self, "witness_x", tuple(int(x) for x in self.witness_x))
        if not _is_prime(self.prime):
            raise ValueError(f"prime must be a prime below 2^31, got {self.prime}")


@dataclass(frozen=True)
class CertificateVerdict:
    """The three independent checks a torsion certificate must pass."""

    cycle: bool
    doubled: bool
    not_in_image: bool

    @property
    def valid(self) -> bool:
        return self.cycle and self.doubled and self.not_in_image


def check_certificate(cert: TorsionCertificate, complex) -> CertificateVerdict:
    """Verify a certificate against a freshly built complex.

    cycle:        d1 h = 0
    doubled:      d2 witness_x = prime * h
    not_in_image: h is not an integer combination of d2 columns

    Raises ValueError when the certificate does not even bind to the complex
    (different graph or shape, wrong vector lengths).
    """
    if cert.graph != complex.graph:
        raise ValueError("certificate graph differs from complex graph")
    if cert.shape != complex.shape:
        raise ValueError("certificate shape differs from complex shape")
    r1, c1 = _dims(complex.d1)
    r2, c2 = _dims(complex.d2)
    if len(cert.h) != c1 or len(cert.witness_x) != c2:
        raise ValueError(
            f"certificate vectors have lengths {len(cert.h)}/{len(cert.witness_x)}, "
            f"complex needs {c1}/{c2}"
        )
    h = list(cert.h)
    cycle = not any(mat_vec(complex.d1, h))
    dx = mat_vec(complex.d2, list(cert.witness_x))
    doubled = dx == [cert.prime * v for v in h]
    not_in_image = solve_integer(complex.d2, h) is None
    return CertificateVerdict(cycle=cycle, doubled=doubled, not_in_image=not_in_image)

"""Test helpers shared by several test modules: an exact determinant, used
only to judge the Smith normal form, graphs that recur across suites, the
cell-by-cell semistandard backtracker that judges enumerate_ssyt, the
Numbering-based rewrite with its full-scan violation finder that judges
straighten, the per-edge degree-1 basis and per-column complex build that
judge degree1_basis and build_restricted_complex, the unpruned Kuratowski
search that judges _search_subdivision, the degree-1 straightening
transport that judges the cycles the certificate lifts read off, the numpy
Smith normal form that judges smith_normal_form, and a call budget that stops a runaway
computation by counting calls instead of timing it.

The reference rewrite and builds take their numberings, canonical forms
and subgraph numberings from the test-only Numbering layer in
numbering.py, which the package never imports; every filling they hand to
or take from the package is a plain tuple of row tuples."""

import contextlib
import functools
import random
import sys
from itertools import combinations, permutations
from typing import Iterator, Sequence

import numpy as np

from cshom.complexes import RestrictedComplex, _standard_below, build_restricted_complex
from cshom.errors import ComplexNotExact, StraighteningStalled
from cshom.graphs import (
    K5_MODEL_EDGES,
    K33_MODEL_EDGES,
    Graph,
    SubdivisionWitness,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    edge_pairs_by_type,
    path_graph,
    subdivide,
)
from cshom.intlinalg import _dims, mat_mul
from cshom.survey import generate_connected_graphs
from cshom.tableaux import (
    STRAIGHTEN_STEP_LIMIT,
    Partition,
    enumerate_syt,
    numbering_key,
    standardize,
    straighten,
)
from numbering import Numbering, canonicalize, numbering_of_subgraph


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    r = len(m)
    if any(len(row) != r for row in m):
        raise ValueError("determinant needs a square matrix")
    if r == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(r - 1):
        if a[k][k] == 0:
            for i in range(k + 1, r):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[r - 1][r - 1]


@contextlib.contextmanager
def call_budget(module: str, limit: int) -> Iterator[None]:
    """Raise AssertionError as soon as the block has entered Python
    functions of the named module more than limit times.

    Counts profiler "call" events, so a generator counts once per resume.
    The bound is on work, not on time: a loop that grows exponentially
    trips it within limit calls instead of hanging the suite.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__") == module:
            calls += 1
            if calls > limit:
                raise AssertionError(f"more than {limit} calls into {module}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(previous)


def heawood_graph():
    edges = [(i + 1, (i + 1) % 14 + 1) for i in range(14)]
    edges += [(i + 1, (i + 5) % 14 + 1) for i in range(0, 14, 2)]
    return Graph.from_edges(14, edges)


def subdivided(g, edges=None):
    """g with each of edges (every edge of g when omitted) subdivided once,
    in order."""
    for e in g.edges if edges is None else edges:
        g = subdivide(g, e)
    return g


def k5_six_subdivided():
    return subdivided(
        complete_graph(5), ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4))
    )


def _ten_fixed_order6_graphs():
    star = Graph.from_edges(6, [(1, i) for i in range(2, 7)])
    prism = Graph.from_edges(
        6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    )
    wheel = Graph.from_edges(
        6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)] + [(i, 6) for i in range(1, 6)]
    )
    k6_minus = Graph.from_edges(
        6, [e for e in complete_graph(6).edges if e != (1, 2)]
    )
    double_star = Graph.from_edges(6, [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6)])
    return [
        path_graph(6),
        cycle_graph(6),
        star,
        double_star,
        prism,
        wheel,
        complete_bipartite((1, 2, 3), (4, 5, 6)),
        complete_bipartite((1, 3, 5), (2, 4, 6)),
        k6_minus,
        complete_graph(6),
    ]


def criterion3_graphs():
    """The oracle-equality corpus: connected graphs on 4 or 5 vertices plus
    ten fixed graphs of order 6."""
    return [g for g in generate_connected_graphs(5) if g.n >= 4] + (
        _ten_fixed_order6_graphs()
    )


def criterion4_graphs():
    """The exactness corpus: connected graphs on at most 6 vertices plus 100
    seeded random graphs of order 4 to 8."""
    graphs = list(generate_connected_graphs(6))
    rng = random.Random(20260816)
    for _ in range(100):
        n = rng.randint(4, 8)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.5
        ]
        graphs.append(Graph.from_edges(n, edges))
    return graphs


@functools.cache
def reference_enumerate_ssyt(
    shape: Partition, weight: Partition
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The cell-by-cell backtracker that enumerate_ssyt replaced, kept as its
    oracle: semistandard fillings of any shape with any content, ascending.

    Content: value v appears weight[v-1] times.  Rows weakly increase,
    columns strictly increase.  Returned as raw row tuples since entries
    repeat.  Its running time grows exponentially with n.
    """
    if weight.n != shape.n:
        raise ValueError(f"weight size {weight.n} != shape size {shape.n}")
    lengths = shape.parts
    remaining = list(weight.parts)
    rows: list[list[int]] = [[] for _ in lengths]
    out: list[tuple[tuple[int, ...], ...]] = []

    def place(r: int, c: int) -> None:
        if r == len(lengths):
            out.append(tuple(tuple(row) for row in rows))
            return
        nr, nc = (r, c + 1) if c + 1 < lengths[r] else (r + 1, 0)
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, len(remaining) + 1):
            if not remaining[v - 1]:
                continue
            remaining[v - 1] -= 1
            rows[r].append(v)
            place(nr, nc)
            rows[r].pop()
            remaining[v - 1] += 1

    place(0, 0)
    out.sort(key=numbering_key)
    return tuple(out)


def _violation(
    rows: tuple[tuple[int, ...], ...], frozen_rows: int
) -> tuple[int, int] | None:
    """Topmost non-frozen adjacent row pair breaking column increase, with
    the rightmost offending column, scanning every row and column.  Expects
    within-row sorted rows."""
    for r in range(frozen_rows + 1, len(rows)):
        upper, lower = rows[r - 1], rows[r]
        found = -1
        for c in range(len(lower)):
            if upper[c] > lower[c]:
                found = c
        if found >= 0:
            return r, found
    return None


def _as_numbering(t):
    return t if isinstance(t, Numbering) else Numbering(t)


def reference_straighten(v, basis, frozen_rows=0):
    """The Numbering-based rewrite that straighten replaced, kept as its
    oracle: every step builds a Numbering, canonicalizes it and scans
    every row with _violation.  Fillings given as row tuples are made
    Numberings first."""
    index: dict[Numbering, int] = {}
    for pos, b in enumerate(map(_as_numbering, basis)):
        if b in index:
            raise ValueError(f"duplicate basis entry: {b.rows!r}")
        index[b] = pos

    lone = isinstance(v, Numbering) or (isinstance(v, tuple) and isinstance(v[0][0], int))
    pairs = [(_as_numbering(t), c) for t, c in ([(v, 1)] if lone else v)]

    out = [0] * len(basis)
    work: list[tuple[int, Numbering]] = []
    for nb, c in pairs:
        if not c:
            continue
        sgn, canon = canonicalize(nb, frozen_rows)
        work.append((c * sgn, canon))

    steps = 0
    while work:
        steps += 1
        if steps > STRAIGHTEN_STEP_LIMIT:
            raise StraighteningStalled(
                f"rewrite did not settle within {STRAIGHTEN_STEP_LIMIT} steps"
            )
        c, s = work.pop()
        hit = _violation(s.rows, frozen_rows)
        if hit is None:
            pos = index.get(s)
            if pos is None:
                raise StraighteningStalled(
                    f"violation-free term {s.rows!r} is not in the basis"
                )
            out[pos] += c
            continue
        r, col = hit
        x = s.rows[r][col]
        low_rest = s.rows[r][:col] + s.rows[r][col + 1 :]
        for t, y in enumerate(s.rows[r - 1]):
            up = s.rows[r - 1][:t] + (x,) + s.rows[r - 1][t + 1 :]
            nb = Numbering(s.rows[: r - 1] + (up, (y,) + low_rest) + s.rows[r + 1 :])
            sgn, canon = canonicalize(nb, frozen_rows)
            work.append((-c * sgn, canon))

    return out


@functools.cache
def _violation_free_fillings(shape, frozen_rows):
    """Every canonical filling of the shape with no violation below the
    frozen prefix, as row tuples: a basis on which straightening never
    stalls."""
    out = set()
    for perm in permutations(range(1, shape.n + 1)):
        rows, pos = [], 0
        for length in shape.parts:
            rows.append(perm[pos : pos + length])
            pos += length
        _, canon = canonicalize(Numbering(tuple(rows)), frozen_rows)
        if _violation(canon.rows, frozen_rows) is None:
            out.add(canon.rows)
    return tuple(sorted(out, key=numbering_key))


def reference_degree1_basis(g, shape):
    """The per-edge degree-1 basis that degree1_basis replaced, kept as its
    oracle: every pattern standardized against every edge's numbering, and
    each block checked on its own."""
    g.assert_canonical()
    if shape.n != g.n:
        raise ValueError(f"shape size {shape.n} != graph order {g.n}")
    k = shape.two_column_rows()
    if k is None or k < 1:
        raise ValueError(f"shape {shape.parts!r} is not (2^k, 1^*) with k >= 1")

    mu = Partition((2,) + (1,) * (g.n - 2))
    patterns = reference_enumerate_ssyt(shape, mu)
    basis1 = []
    for i, e in enumerate(g.edges, start=1):
        t_e = numbering_of_subgraph(g, (e,))
        block = [standardize(z, t_e.rows) for z in patterns]
        for x in block:
            if x[0] != e:
                raise AssertionError(f"filling {x!r} does not start with {e!r}")
            if not _standard_below(x, 1):
                raise AssertionError(f"filling {x!r} is not standard below the edge")
        if sorted(block, key=numbering_key) != block:
            raise AssertionError("edge block must be listed in ascending order")
        basis1.extend((i, j, x) for j, x in enumerate(block, start=1))
    return tuple(basis1)


def reference_build_restricted_complex(g, shape):
    """The per-column build that build_restricted_complex replaced, kept as
    its oracle: the per-edge degree-1 basis, every d1 column straightened on
    its own, every pair filling standardized on its own and both block parts
    of every d2 column straightened afresh."""
    basis1 = reference_degree1_basis(g, shape)
    k = shape.two_column_rows()
    basis0 = enumerate_syt(shape)
    n = g.n
    fillings1 = [x for _, _, x in basis1]
    kcopies = len(basis1) // g.m if g.m else 0

    d1_cols = [straighten(x, basis0) for x in fillings1]
    d1 = tuple(zip(*d1_cols)) if d1_cols else ((),) * len(basis0)

    basis2 = []
    d2_cols = []
    if k >= 2:
        noncons, _ = edge_pairs_by_type(g)
        nu = Partition((2, 2) + (1,) * (n - 4))
        w_patterns = reference_enumerate_ssyt(shape, nu)
        for i0, j0 in noncons:
            ei, ej = g.edges[i0], g.edges[j0]
            block_i = fillings1[i0 * kcopies : (i0 + 1) * kcopies]
            block_j = fillings1[j0 * kcopies : (j0 + 1) * kcopies]
            t_f = numbering_of_subgraph(g, (ei, ej))
            for l, pat in enumerate(w_patterns, start=1):
                w = standardize(pat, t_f.rows)
                if w[0] != ei or w[1] != ej:
                    raise AssertionError(
                        f"pair filling {w!r} does not start with {ei!r}, {ej!r}"
                    )
                basis2.append(((i0 + 1, j0 + 1), l, w))
                col = [0] * len(basis1)
                kept_j = (w[1], w[0]) + w[2:]
                for s, v in enumerate(straighten(kept_j, block_j, frozen_rows=1)):
                    col[j0 * kcopies + s] = v
                for s, v in enumerate(straighten(w, block_i, frozen_rows=1)):
                    col[i0 * kcopies + s] = -v
                d2_cols.append(col)

    d2 = tuple(zip(*d2_cols)) if d2_cols else ((),) * len(basis1)

    if d2_cols:
        prod = mat_mul(d1, d2)
        if any(x for row in prod for x in row):
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


def _cascade_terms(rows, new_label):
    """Rewrite (broken-edge filling + appended new-vertex box) so the new
    vertex reaches the top row.

    Repeated single-entry exchanges with the row above; each exchange flips
    the sign and branches over the upper row's entries.  The final exchange
    replaces one endpoint of the old top-row pair, so every leaf's top row
    is one of the two replacement edges.
    """
    start = rows + ((new_label,),)
    work = [(1, start, len(start) - 1)]
    leaves = []
    while work:
        c, rows, p = work.pop()
        if p == 0:
            leaves.append((c, rows))
            continue
        upper, lower = rows[p - 1], rows[p]
        pos = lower.index(new_label)
        rest = lower[:pos] + lower[pos + 1 :]
        for t, y in enumerate(upper):
            nu = upper[:t] + (new_label,) + upper[t + 1 :]
            nrows = rows[: p - 1] + (nu, (y,) + rest) + rows[p + 1 :]
            work.append((-c, nrows, p - 1))
    return leaves


def _cycle_terms(cert):
    """The certificate's cycle as (filling rows, coefficient) terms."""
    basis1 = build_restricted_complex(cert.graph, cert.shape).basis1
    return [(basis1[col][2], coeff) for col, coeff in enumerate(cert.h) if coeff]


def _straightened_on(target, k, terms):
    c = build_restricted_complex(target, Partition.two_column(target.n, k))
    return straighten(terms, [f for _, _, f in c.basis1], frozen_rows=1)


def reference_subdivision_h(cert, edges):
    """The cycle that lift_subdivision(cert, edges) must read off, by the
    degree-1 transport it replaced: every cycle term is carried through
    each subdivision as row tuples (a term whose top row is the broken edge
    by the exchange cascade, any other gaining the new vertex as a final
    singleton box) and straightened once on the last graph."""
    g, terms = cert.graph, _cycle_terms(cert)
    for e in edges:
        e = (min(e), max(e))
        g = subdivide(g, e)
        carried = []
        for rows, coeff in terms:
            if tuple(sorted(rows[0])) == e:
                carried += [(leaf, s * coeff) for s, leaf in _cascade_terms(rows, g.n)]
            else:
                carried.append((rows + ((g.n,),), coeff))
        terms = carried
    return _straightened_on(g, cert.shape.two_column_rows(), terms)


def reference_subgraph_h(cert, host, embedding=None):
    """The cycle that lift_subgraph(cert, host, embedding) must read off, by
    the degree-1 transport it replaced: every cycle term gains singleton
    boxes n+1.. for the spare host vertices, is relabeled into the host and
    straightened on the host complex."""
    g = cert.graph
    emb = dict(embedding or {v: v for v in range(1, g.n + 1)})
    spare = sorted(set(range(1, host.n + 1)) - set(emb.values()))
    tau = {**emb, **dict(zip(range(g.n + 1, host.n + 1), spare))}
    boxes = tuple((t,) for t in range(g.n + 1, host.n + 1))
    terms = [
        (tuple(tuple(tau[x] for x in r) for r in rows + boxes), coeff)
        for rows, coeff in _cycle_terms(cert)
    ]
    return _straightened_on(host, cert.shape.two_column_rows(), terms)


def _reference_paths_between(
    adj: dict[int, set[int]],
    start: int,
    goal: int,
    blocked: set[int],
    max_len: int,
) -> Iterator[tuple[int, ...]]:
    """Simple paths start->goal avoiding ``blocked`` internally, short first."""
    for target_len in range(1, max_len + 1):
        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            if len(path) - 1 > target_len:
                continue
            if v == goal:
                if len(path) - 1 == target_len:
                    yield path
                continue
            if len(path) - 1 == target_len:
                continue
            for w in sorted(adj[v], reverse=True):
                if w in path:
                    continue
                if w != goal and (w in blocked):
                    continue
                stack.append((w, path + (w,)))


def _reference_complete_paths(
    g: Graph, branch: tuple[int, ...], model: Sequence[tuple[int, int]]
) -> tuple[tuple[int, ...], ...] | None:
    adj = g.adjacency()
    branch_set = set(branch)
    used: set[int] = set()
    paths: list[tuple[int, ...]] = []

    def bt(idx: int) -> bool:
        if idx == len(model):
            return True
        i, j = model[idx]
        u, v = branch[i], branch[j]
        for path in _reference_paths_between(adj, u, v, branch_set | used, g.n):
            interior = set(path[1:-1])
            used.update(interior)
            paths.append(path)
            if bt(idx + 1):
                return True
            paths.pop()
            used.difference_update(interior)
        return False

    return tuple(paths) if bt(0) else None


def reference_search_subdivision(g: Graph) -> SubdivisionWitness | None:
    """The branch-set search that _search_subdivision replaced, verbatim,
    kept as its oracle: the first K5 or K3,3 subdivision over branch sets
    in lexicographic order, with no degree cut on branch sets and no
    distance bound on paths; None when none exists."""
    deg = g.degrees()
    if g.m >= 10:
        quads = sorted(v for v in deg if deg[v] >= 4)
        for branch in combinations(quads, 5):
            paths = _reference_complete_paths(g, branch, K5_MODEL_EDGES)
            if paths is not None:
                return SubdivisionWitness("K5", branch, paths)
    if g.m >= 9:
        cubs = sorted(v for v in deg if deg[v] >= 3)
        for side_a in combinations(cubs, 3):
            rest = [v for v in cubs if v not in side_a]
            for side_b in combinations(rest, 3):
                if side_b[0] < side_a[0]:
                    continue  # unordered pair of sides: canonical orientation
                branch = side_a + side_b
                paths = _reference_complete_paths(g, branch, K33_MODEL_EDGES)
                if paths is not None:
                    return SubdivisionWitness("K33", branch, paths)
    return None


# int64 elimination restarts in exact mode once any entry reaches this
_GUARD = 1 << 28


class _Overflow(Exception):
    pass


def _eye(n: int, exact: bool) -> np.ndarray:
    if exact:
        out = np.zeros((n, n), dtype=object)
        for i in range(n):
            out[i, i] = 1
        return out
    return np.eye(n, dtype=np.int64)


def _exceeds(a: np.ndarray) -> bool:
    return bool(a.size) and int(np.abs(a).max()) >= _GUARD


def _snf_arrays(
    A: np.ndarray, guarded: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows, cols = A.shape
    exact = not guarded
    U = _eye(rows, exact)
    V = _eye(cols, exact)
    k = 0
    while k < min(rows, cols):
        sub = A[k:, k:]
        nzr, nzc = np.nonzero(sub)
        if len(nzr) == 0:
            break
        t = int(np.argmin(np.abs(sub[nzr, nzc])))
        i, j = int(nzr[t]) + k, int(nzc[t]) + k
        if i != k:
            A[[k, i], :] = A[[i, k], :]
            U[[k, i], :] = U[[i, k], :]
        if j != k:
            A[:, [k, j]] = A[:, [j, k]]
            V[:, [k, j]] = V[:, [j, k]]
        while True:
            if guarded and (_exceeds(A) or _exceeds(U) or _exceeds(V)):
                raise _Overflow
            if A[k, k] < 0:
                A[k, :] = -A[k, :]
                U[k, :] = -U[k, :]
            p = A[k, k]
            col = A[:, k].copy()
            col[k] = 0
            if np.any(col):
                q = col // p
                A -= np.outer(q, A[k, :])
                U -= np.outer(q, U[k, :])
                rem = A[:, k].copy()
                rem[k] = 0
                nz = np.nonzero(rem)[0]
                if len(nz):
                    # remainder smaller than the pivot: promote it
                    i = int(nz[np.argmin(np.abs(rem[nz]))])
                    A[[k, i], :] = A[[i, k], :]
                    U[[k, i], :] = U[[i, k], :]
                continue
            rowv = A[k, :].copy()
            rowv[k] = 0
            if np.any(rowv):
                q = rowv // p
                A -= np.outer(A[:, k], q)
                V -= np.outer(V[:, k], q)
                rem = A[k, :].copy()
                rem[k] = 0
                nz = np.nonzero(rem)[0]
                if len(nz):
                    j = int(nz[np.argmin(np.abs(rem[nz]))])
                    A[:, [k, j]] = A[:, [j, k]]
                    V[:, [k, j]] = V[:, [j, k]]
                continue
            if p != 1 and k + 1 < min(rows, cols):
                tail = A[k + 1 :, k + 1 :]
                bad_r, bad_c = np.nonzero(tail % p)
                if len(bad_r):
                    i = int(bad_r[0]) + k + 1
                    A[k, :] += A[i, :]
                    U[k, :] += U[i, :]
                    continue
            break
        k += 1
    return A, U, V


def reference_smith_normal_form(m):
    """The numpy Smith normal form that smith_normal_form replaced, both
    routes verbatim, kept as its oracle: (S, U, V) with U m V = S, by
    elimination on int64 under a magnitude guard, restarted on an
    object-dtype array once an entry reaches the guard."""
    r, c = _dims(m)
    try:
        A = np.array(m, dtype=np.int64).reshape(r, c)
        if _exceeds(A):
            raise _Overflow
        S, U, V = _snf_arrays(A, guarded=True)
    except (_Overflow, OverflowError):
        A = np.empty((r, c), dtype=object)
        for i in range(r):
            for j in range(c):
                A[i, j] = int(m[i][j])
        S, U, V = _snf_arrays(A, guarded=False)
    return S.tolist(), U.tolist(), V.tolist()



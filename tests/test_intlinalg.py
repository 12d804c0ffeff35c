import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import cshom.intlinalg
from cshom.certificates import certify_nonplanar
from cshom.complexes import build_restricted_complex
from cshom.errors import ComplexNotExact
from cshom.graphs import complete_bipartite, complete_graph, petersen_graph
from cshom.intlinalg import (
    HomologyResult,
    _dims,
    _eliminate,
    _residual,
    _sparse_rows,
    homology_group,
    kernel_basis,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_integer,
)
from cshom.tableaux import Partition
from helpers import (
    determinant,
    heawood_graph,
    k5_six_subdivided,
    reference_smith_normal_form,
)
from test_acceptance import _snf_suite


def _matrix_suite():
    """200 matrices: structured edge cases plus seeded random fill."""
    suite = [
        [[0]],
        [[5]],
        [[-3]],
        [[1, 0], [0, 1]],
        [[0, 0], [0, 0]],
        [[2, 4], [6, 8]],
        [[2, 4, 4]],
        [[2], [4], [4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # rank 2
        [[6, 4], [4, 6]],
        [[1000000007, 2], [3, 999999937]],
    ]
    rng = random.Random(20260816)
    while len(suite) < 200:
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        bound = rng.choice([1, 3, 9, 50])
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.2 and rows >= 2:
            m[rng.randrange(rows)] = list(m[rng.randrange(rows)])  # duplicate row
        suite.append(m)
    return suite


SUITE = _matrix_suite()


def _diag(s):
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


@pytest.mark.parametrize("idx", range(len(SUITE)))
def test_snf_transforms_and_divisibility(idx):
    a = SUITE[idx]
    s, u, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == s
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    d = _diag(s)
    rows, cols = len(s), len(s[0]) if s else 0
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s[i][j] == 0
    for i in range(len(d) - 1):
        if d[i + 1]:
            assert d[i] != 0 and d[i + 1] % d[i] == 0
        assert d[i] >= 0


def _determinantal_divisor(a, k):
    """gcd of all k x k minors."""
    rows, cols = len(a), len(a[0])
    g = 0
    for ri in itertools.combinations(range(rows), k):
        for ci in itertools.combinations(range(cols), k):
            minor = [[a[r][c] for c in ci] for r in ri]
            g = math.gcd(g, determinant(minor))
    return g


@pytest.mark.parametrize("idx", range(len(SUITE)))
def test_snf_matches_determinantal_divisors(idx):
    a = SUITE[idx]
    s, _, _ = smith_normal_form(a)
    d = _diag(s)
    prod = 1
    for k in range(1, min(len(a), len(a[0])) + 1):
        prod *= d[k - 1]
        assert abs(prod) == _determinantal_divisor(a, k)


def test_determinant_known_values():
    assert determinant([[2]]) == 2
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


def test_determinant_large_entries_exact():
    # Hilbert-like growth forces exact big-int arithmetic
    a = [[(i * 97 + j * 89 + 1) ** 3 for j in range(6)] for i in range(6)]
    s, u, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == s


def _random_sparse(seed, pool):
    rng = random.Random(seed)
    out = []
    for _ in range(100):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice((0.2, 0.5, 1.0))
        out.append([
            [rng.choice(pool) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ])
    return out


def _graph_differentials():
    out = []
    for g, k, names in (
        (complete_graph(5), 2, ("d1", "d2")),
        (complete_bipartite((1, 2, 3), (4, 5, 6)), 2, ("d1", "d2")),
        (petersen_graph(), 2, ("d1", "d2")),
        (complete_graph(8), 4, ("d1",)),
    ):
        c = build_restricted_complex(g, Partition.two_column(g.n, k))
        out += [[list(r) for r in getattr(c, name)] for name in names]
    return out


# the numpy oracle ran int64 below 2^28 and restarted on Python ints past it:
# "grows-past-2^28" restarts mid-elimination on 38 of its 100 matrices, the
# two "past" pools start on Python ints on most of theirs
_SNF_ORACLE_CORPORA = {
    "matrix-suite": _matrix_suite,
    "criterion6-suite": _snf_suite,
    "empty-shapes": lambda: [[], [[]], [[], [], []]],
    "grows-past-2^28": lambda: _random_sparse(
        "snf:grows", (0, 0, 1, -1, 2, 5, 3 * 2**20 + 7, 2**27 - 1)
    ),
    "past-2^28": lambda: _random_sparse(
        "snf:2^28", (0, 0, 1, -1, 2**28 + 3, -(2**29) - 6, 3 * 2**28)
    ),
    "past-2^63": lambda: _random_sparse(
        "snf:2^63", (0, 1, -1, 3, 2**63 + 1, -(2**64), 2**70 - 5)
    ),
    "graph-differentials": _graph_differentials,
}


@pytest.mark.parametrize("corpus", sorted(_SNF_ORACLE_CORPORA))
def test_smith_normal_form_equals_numpy_reference(corpus):
    # U and V reach witness_x and the kernel_basis columns, so S alone is not
    # enough: all three must be the oracle's, entry for entry
    for m in _SNF_ORACLE_CORPORA[corpus]():
        assert smith_normal_form(m) == reference_smith_normal_form(m)


def test_solve_integer_round_trip():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-4, 4) for _ in range(cols)]
        b = mat_vec(a, x)
        got = solve_integer(a, b)
        assert got is not None
        assert mat_vec(a, got) == b


def test_solve_integer_detects_insolvable():
    assert solve_integer([[2]], [1]) is None  # 2x = 1 has no integer solution
    assert solve_integer([[1, 0], [0, 0]], [1, 1]) is None  # inconsistent
    assert solve_integer([[2, 0], [0, 3]], [4, 7]) is None


def test_solver_in_image():
    m = [[2, 0], [0, 4]]
    x = solve_integer(m, [2, 8])
    assert x is not None and mat_vec(m, x) == [2, 8]
    assert solve_integer(m, [1, 4]) is None
    assert solve_integer(m, [0, 0]) == [0, 0]


def test_kernel_basis_spans_and_saturates():
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        kb = kernel_basis(a)
        for vec in kb:
            assert mat_vec(a, vec) == [0] * rows
        s, _, _ = smith_normal_form(a)
        rank = sum(1 for i in range(min(rows, cols)) if s[i][i])
        assert len(kb) == cols - rank
        if kb:
            # saturated: the kernel lattice is a direct summand
            s2, _, _ = smith_normal_form([list(col) for col in zip(*kb)])
            diag = [s2[i][i] for i in range(min(len(s2), len(s2[0])))]
            assert all(x == 1 for x in diag if x)


def test_homology_group_hand_cases():
    # 0 -> Z --2--> Z -> 0 concentrated so H = Z/2
    r = homology_group([[0]], [[2]])
    assert (r.betti, r.invariant_factors) == (0, (2,))
    assert r.has_z2 and r.has_torsion
    # zero maps: everything survives
    r = homology_group([[0, 0]], [[0], [0]])
    assert (r.betti, r.invariant_factors) == (2, ())
    assert not r.has_torsion
    # full-rank d1 kills the middle
    r = homology_group([[1, 0], [0, 1]], [[0], [0]])
    assert (r.betti, r.invariant_factors) == (0, ())
    # torsion of order 3 exists but is odd
    r = homology_group([[0]], [[3]])
    assert r.has_torsion and not r.has_z2


def test_homology_group_rejects_non_complex():
    with pytest.raises(ComplexNotExact):
        homology_group([[1]], [[1]])


def test_homology_result_validation():
    with pytest.raises(ValueError):
        HomologyResult(betti=-1, invariant_factors=())
    with pytest.raises(ValueError):
        HomologyResult(betti=0, invariant_factors=(1,))
    with pytest.raises(ValueError):
        HomologyResult(betti=0, invariant_factors=(4, 2))  # chain must divide


def test_mat_mul_basic_and_empty():
    assert mat_mul([], []) == []
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]
    assert mat_mul([[1, 2], [3, 4]], [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]


def _reference_product(a, b):
    """Schoolbook product in Python ints."""
    cols = len(b[0]) if b else 0
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(cols)] for row in a]


@pytest.mark.parametrize(
    "a, b",
    [
        ([[2**63, 1]], [[1], [2]]),  # does not fit int64
        ([[-(2**63)]], [[1, -1]]),  # fits int64, bound too large
        ([[2**30, 2**30]], [[2**31 - 1], [2**31 - 1]]),  # bound just below 2^62
        ([[2**31, 2**31]], [[2**31], [2**31]]),  # bound 2^63, one past the int64 range
        ([[-(2**31), -(2**31)]], [[2**31], [2**31]]),
        ([[2**31]], [[2**31]]),  # bound exactly 2^62
        ([[0, 0], [0, 0]], [[0], [0]]),
        ([[0, 0]], [[5, -7], [3, 1]]),
        ([[1, 2]], [[], []]),
        ([[], []], []),
        (((1, 2), (3, 4)), ((5, -1), (6, 2))),
        (((2**62, 0),), ((3,), (4,))),
    ],
    ids=[
        "2^63", "-2^63", "bound-below-2^62", "bound-2^63", "product--2^63",
        "bound-2^62", "zeros", "zero-left", "no-columns", "no-inner",
        "tuples", "tuples-2^62",
    ],
)
def test_mat_mul_matches_reference_at_the_int64_boundary(a, b):
    got = mat_mul(a, b)
    assert got == _reference_product(a, b)
    assert all(type(x) is int for row in got for x in row)


def _reference_mat_vec(a, v):
    return [row[0] for row in _reference_product(a, [[x] for x in v])]


@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
def test_mat_mul_and_mat_vec_match_reference_on_random_matrices(density):
    rng = random.Random(int(density * 100))
    for _ in range(40):
        r, inner, c = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 7)

        def fill(rows, cols):
            return [
                [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]

        a, b = fill(r, inner), fill(inner, c)
        v = fill(1, inner)[0]
        assert mat_mul(a, b) == _reference_product(a, b)
        assert mat_vec(a, v) == _reference_mat_vec(a, v)


def test_mat_mul_and_mat_vec_are_exact_on_int64_operands_past_2_63():
    a = np.array([[2**62, -3, 0], [5, 2**40, -(2**61)]], dtype=np.int64)
    b = np.array([[4, 1], [2**62, 7], [0, -(2**62)]], dtype=np.int64)
    v = np.array([2**62, -(2**62), 3], dtype=np.int64)
    a_int = [[int(x) for x in row] for row in a]
    b_int = [[int(x) for x in row] for row in b]
    v_int = [int(x) for x in v]
    want = _reference_product(a_int, b_int)
    assert any(abs(x) >= 2**63 for row in want for x in row)
    for aa, bb in ((a, b), (list(a), list(b)), (a.tolist(), b)):
        got = mat_mul(aa, bb)
        assert got == want
        assert all(type(x) is int for row in got for x in row)
    want_v = _reference_mat_vec(a_int, v_int)
    assert any(abs(x) >= 2**63 for x in want_v)
    for aa, vv in ((a, v), (list(a), list(v)), (a_int, v)):
        got = mat_vec(aa, vv)
        assert got == want_v
        assert all(type(x) is int for x in got)


def test_homology_group_rejects_composites_past_int64():
    # d1 d2 = 2^64 is nonzero but 0 modulo 2^64: only an exact product rejects it
    with pytest.raises(ComplexNotExact):
        homology_group([[2**41]], [[2**23]])
    with pytest.raises(ComplexNotExact):
        homology_group([[2**41, 2**41]], [[2**41], [2**41]])


def reference_solve(m, b):
    """The dense route that solve_integer replaced, kept as its oracle: with
    U m V = S from one SNF with both transforms, solve S y = U b entrywise
    and return V y, or None when some entry does not divide."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    s, u, v = smith_normal_form(m)
    ub = mat_mul(u, [[x] for x in b])
    y = [0] * cols
    for i in range(rows):
        d = s[i][i] if i < cols else 0
        x = ub[i][0]
        if d:
            if x % d:
                return None
            y[i] = x // d
        elif x:
            return None
    return [row[0] for row in mat_mul(v, [[x] for x in y])] if cols else []


def _solve_agrees(m, b):
    """solve_integer and the dense oracle agree on solvability, and every
    returned x solves m x = b; returns whether b is in the image."""
    got = solve_integer(m, b)
    want = reference_solve(m, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert len(got) == (len(m[0]) if m else 0)
        assert mat_vec(m, got) == list(b)
    return got is not None


def test_solve_integer_matches_reference_on_suite():
    rng = random.Random(29)
    outcomes = []
    for m in SUITE:
        rows, cols = len(m), len(m[0])
        b_in = mat_vec(m, [rng.randint(-4, 4) for _ in range(cols)])
        b_off = list(b_in)
        b_off[rng.randrange(rows)] += rng.choice((1, -1, 3))
        for b in (b_in, b_off, [0] * rows):
            outcomes.append(_solve_agrees(m, b))
    # every in-image and zero rhs solves; a perturbed one mostly does not
    assert outcomes.count(False) >= 100


# a large non-unit: it stays in the residual, so the SNF, its transforms and
# the back-substitution multiply entries past 2^28
_BIG = (1 << 28) + 3

_SOLVE_POOLS = {
    "units": (1, -1),
    "twos": (1, -1, 2, -2),
    "big": (1, -1, 2, _BIG, -_BIG - 1, 2 * _BIG),
}


@pytest.mark.parametrize("pool", sorted(_SOLVE_POOLS))
def test_solve_integer_matches_reference_on_sparse_matrices(pool):
    rng = random.Random(f"solve:{pool}")
    outcomes = []
    for _ in range(120):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice((0.15, 0.3, 0.6))
        m = [
            [rng.choice(_SOLVE_POOLS[pool]) if rng.random() < density else 0
             for _ in range(cols)]
            for _ in range(rows)
        ]
        b_in = mat_vec(m, [rng.randint(-3, 3) for _ in range(cols)])
        b_off = list(b_in)
        b_off[rng.randrange(rows)] += rng.choice((1, -1))
        for b in (b_in, b_off, [rng.randint(-4, 4) for _ in range(rows)]):
            outcomes.append(_solve_agrees(m, b))
    assert outcomes.count(True) >= 120 and outcomes.count(False) >= 60


def test_solve_integer_zero_rows_and_no_columns():
    # a row that is zero from the start decides solvability by its rhs alone
    assert solve_integer([[0, 0], [1, 1]], [1, 2]) is None
    assert solve_integer([[0, 0], [1, 1]], [0, 2]) in ([2, 0], [0, 2])
    assert solve_integer([[1, 2], [0, 0], [2, 4]], [1, 0, 2]) is not None
    assert solve_integer([[1, 2], [0, 0], [2, 4]], [1, 5, 2]) is None
    # a row that only becomes zero under elimination
    assert solve_integer([[1, 1], [2, 2]], [1, 3]) is None
    assert solve_integer([[1, 1], [2, 2], [0, 3]], [1, 2, 3]) == [0, 1]
    # a matrix without columns solves exactly the zero rhs, by the empty x
    for rows in (1, 3):
        m = [[] for _ in range(rows)]
        assert solve_integer(m, [0] * rows) == reference_solve(m, [0] * rows) == []
        b = [0] * (rows - 1) + [2]
        assert solve_integer(m, b) is None and reference_solve(m, b) is None
    assert solve_integer([], []) == []
    with pytest.raises(ValueError):
        solve_integer([[1, 0]], [1, 2])


_CERTIFIED = {
    "petersen": petersen_graph,
    "K5,5": lambda: complete_bipartite(range(1, 6), range(6, 11)),
    "heawood": heawood_graph,
    "K5-sub6": k5_six_subdivided,
}


@pytest.mark.parametrize("name", sorted(_CERTIFIED))
def test_solve_integer_matches_reference_on_certified_complexes(name):
    # on the complex a certificate was verified on: 2h is in the image of
    # d2 and h is not, by either route
    cert = certify_nonplanar(_CERTIFIED[name]())
    d2 = cert.complex.d2
    assert _solve_agrees(d2, [2 * v for v in cert.h])
    assert not _solve_agrees(d2, list(cert.h))


def reference_kernel_basis(m):
    """The dense route that kernel_basis replaced, kept as its oracle.

    Basis of the integer kernel lattice of m, as a list of columns.

    The returned columns generate the full kernel lattice (the unimodular V
    of the SNF makes the sublattice saturated).  Each column's first nonzero
    entry is positive for deterministic output.
    """
    r, c = _dims(m)
    S, U, V = smith_normal_form(m)
    rank = sum(1 for i in range(min(r, c)) if S[i][i])
    out = []
    for j in range(rank, c):
        col = [V[i][j] for i in range(c)]
        lead = next((x for x in col if x), 0)
        if lead < 0:
            col = [-x for x in col]
        out.append(col)
    return out


def reference_homology(d1, d2):
    """The three-SNF route that homology_group replaced, kept as its oracle:
    the kernel lattice of d1, the coordinates of every d2 column in that
    lattice off one SNF of the kernel matrix, then the SNF of the coordinate
    matrix."""
    c1 = len(d1[0]) if d1 else 0
    c2 = len(d2[0]) if d2 else 0
    assert c1 == len(d2)
    if c1 and c2 and any(x for row in mat_mul(d1, d2) for x in row):
        raise ComplexNotExact("d1 composed with d2 is nonzero")
    kernel = reference_kernel_basis(d1)
    kdim = len(kernel)
    if kdim == 0 or c2 == 0:
        return HomologyResult(betti=kdim, invariant_factors=())
    kmat = [[kernel[j][i] for j in range(kdim)] for i in range(c1)]
    s, u, v = smith_normal_form(kmat)
    ub = mat_mul(u, d2)
    # kmat has full column rank, so its first kdim diagonal entries are nonzero
    y = []
    for i in range(c1):
        d = s[i][i] if i < kdim else 0
        escapes = any(x % d for x in ub[i]) if d else any(ub[i])
        if escapes:
            raise ComplexNotExact("a d2 column escapes the kernel lattice of d1")
        if d:
            y.append([x // d for x in ub[i]])
    s, _, _ = smith_normal_form(mat_mul(v, y))
    diag = _diag(s)
    return HomologyResult(
        betti=kdim - sum(1 for d in diag if d),
        invariant_factors=tuple(d for d in diag if d > 1),
    )


# entry pools for random d2: generic, no +-1 entry (the residual is all of
# d2), all zero, and units mixed with large non-units that stay in the residual
_ENTRY_POOLS = {
    "mixed": (0, 0, 0, 1, -1, 2, -2, 3),
    "no_units": (0, 0, 2, -2, 3, 4, -6),
    "zero": (0,),
    "big": (0, 0, 1, -1, _BIG, -2 * _BIG, 3 * _BIG + 1),
}


def _random_exact_pair(rng, pool):
    """A random d2 and a d1 whose rows are scaled vectors of d2's left
    kernel, so d1 d2 = 0; a random subset of the kernel keeps betti > 0
    possible."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 7)
    d2 = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
    left = reference_kernel_basis([list(c) for c in zip(*d2)])
    d1 = []
    for vec in left:
        if rng.random() < 0.7:
            scale = rng.choice((1, -1, 2, 3))
            d1.append([scale * x for x in vec])
    return d1 or [[0] * rows], d2


@pytest.mark.parametrize("pool", sorted(_ENTRY_POOLS))
def test_homology_group_matches_reference_route(pool):
    rng = random.Random(f"homology:{pool}")
    for _ in range(40):
        d1, d2 = _random_exact_pair(rng, _ENTRY_POOLS[pool])
        assert homology_group(d1, d2) == reference_homology(d1, d2)


def test_homology_group_matches_reference_without_d2_columns():
    rng = random.Random(3)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        d1 = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        d2 = [[] for _ in range(cols)]
        assert homology_group(d1, d2) == reference_homology(d1, d2)


def _unit_pivot_reduce(m):
    """The number p of +-1 pivots eliminated from m, and the residual: the
    nonzero rows and columns left once no entry is +-1.
    SNF(m) = I_p (+) SNF(residual)."""
    pivots, rows = _eliminate(_sparse_rows(m))
    return len(pivots), _residual(rows)[2]


def test_unit_pivots_split_off_the_smith_form():
    # SNF(m) = I_p (+) SNF(residual), also when the residual keeps entries past 2^28
    rng = random.Random(17)
    for pool in _ENTRY_POOLS.values():
        for _ in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
            pivots, residual = _unit_pivot_reduce(m)
            assert all(any(row) for row in residual)
            assert all(any(col) for col in zip(*residual))
            tail = [d for d in _diag(smith_normal_form(residual)[0]) if d] if residual else []
            assert [d for d in _diag(smith_normal_form(m)[0]) if d] == [1] * pivots + tail
    _, residual = _unit_pivot_reduce([[1, 1, 0], [1, 1 + _BIG, 2 * _BIG], [0, 0, 2]])
    assert max(abs(x) for row in residual for x in row) >= 1 << 28


def test_homology_group_and_reference_reject_non_complex():
    rng = random.Random(5)
    cases = 0
    while cases < 20:
        d1 = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)]
        d2 = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(4)]
        if not any(x for row in mat_mul(d1, d2) for x in row):
            continue
        cases += 1
        for route in (homology_group, reference_homology):
            with pytest.raises(ComplexNotExact):
                route(d1, d2)


# every (graph, shape) the benchmark's homology workload runs, plus all
# shapes of K5 and K3,3
_GRAPH_CORPUS = [
    ("petersen", petersen_graph, k) for k in (2, 3, 4, 5)
] + [
    ("K8", lambda: complete_graph(8), k) for k in (2, 3, 4)
] + [
    ("K5,5", lambda: complete_bipartite(range(1, 6), range(6, 11)), 2),
    ("K10", lambda: complete_graph(10), 2),
    ("K5", lambda: complete_graph(5), 1),
    ("K5", lambda: complete_graph(5), 2),
] + [
    ("K3,3", lambda: complete_bipartite((1, 2, 3), (4, 5, 6)), k) for k in (1, 2, 3)
]


# plus the larger inputs of the residual gate below
_HOMOLOGY_CORPUS = _GRAPH_CORPUS + [
    ("K10", lambda: complete_graph(10), 3),
    ("heawood", heawood_graph, 2),
    ("heawood", heawood_graph, 3),
]


@pytest.mark.parametrize(
    "name,make,k", _HOMOLOGY_CORPUS, ids=[f"{name}-k{k}" for name, _, k in _HOMOLOGY_CORPUS]
)
def test_homology_group_matches_reference_on_graph_corpus(name, make, k):
    g = make()
    c = build_restricted_complex(g, Partition.two_column(g.n, k))
    d1, d2 = [list(r) for r in c.d1], [list(r) for r in c.d2]
    assert homology_group(d1, d2) == reference_homology(d1, d2)


# the unit elimination of d2 under the row-length pivot order: (pivots,
# residual rows, residual columns).  The residual is what reaches the dense
# SNF, so a pivot rule that leaves more of d2 there fails here; the homology
# of every input is judged by the reference route above.
_K33 = (1, 2, 3), (4, 5, 6)
_RESIDUAL_GATE = [
    ("K5", lambda: complete_graph(5), 1, (0, 0, 0)),
    ("K5", lambda: complete_graph(5), 2, (14, 3, 1)),
    ("K3,3", lambda: complete_bipartite(*_K33), 1, (0, 0, 0)),
    ("K3,3", lambda: complete_bipartite(*_K33), 2, (17, 6, 1)),
    ("K3,3", lambda: complete_bipartite(*_K33), 3, (12, 0, 0)),
    ("petersen", petersen_graph, 2, (69, 5, 3)),
    ("petersen", petersen_graph, 3, (225, 0, 0)),
    ("petersen", petersen_graph, 4, (330, 0, 0)),
    ("petersen", petersen_graph, 5, (168, 0, 0)),
    ("K8", lambda: complete_graph(8), 2, (119, 4, 35)),
    ("K8", lambda: complete_graph(8), 3, (224, 0, 0)),
    ("K8", lambda: complete_graph(8), 4, (126, 0, 0)),
    ("K10", lambda: complete_graph(10), 2, (279, 4, 126)),
    ("K10", lambda: complete_graph(10), 3, (825, 0, 0)),
    ("heawood", heawood_graph, 2, (153, 12, 5)),
    ("heawood", heawood_graph, 3, (861, 0, 0)),
]


@pytest.mark.parametrize(
    "name,make,k,pinned", _RESIDUAL_GATE,
    ids=[f"{name}-k{k}" for name, _, k, _ in _RESIDUAL_GATE],
)
def test_d2_residual_is_pinned(name, make, k, pinned):
    g = make()
    c = build_restricted_complex(g, Partition.two_column(g.n, k))
    pivots, rows = _eliminate(_sparse_rows(c.d2))
    ids, live, _ = _residual(rows)
    assert (len(pivots), len(ids), len(live)) == pinned


def _saturated(cols):
    """Whether the columns span a saturated lattice: all nonzero invariant
    factors of the column matrix are 1, read off the unit-pivot split."""
    _, residual = _unit_pivot_reduce([list(r) for r in zip(*cols)])
    if not residual:
        return True
    return all(d == 1 for d in _diag(smith_normal_form(residual)[0]) if d)


def _assert_same_kernel(m, solve_cols=None):
    """kernel_basis(m) against reference_kernel_basis(m): equal dimension,
    every column in the kernel, a positive leading entry, and the same
    lattice each way, each column solved in the other basis by
    solve_integer (all columns, or a seeded sample of solve_cols per side
    when given).  With a sample, both bases are also checked saturated:
    a saturated lattice of full kernel rank inside the kernel is the whole
    kernel lattice, so equality is still exact."""
    got, want = kernel_basis(m), reference_kernel_basis(m)
    assert len(got) == len(want)
    rows = len(m)
    for col in got:
        assert mat_vec(m, col) == [0] * rows
        assert next(x for x in col if x) > 0
    if not got:
        return
    rng = random.Random(len(got))
    for basis, other in ((want, got), (got, want)):
        mat = [list(r) for r in zip(*basis)]
        sample = other if solve_cols is None else rng.sample(other, min(solve_cols, len(other)))
        assert all(solve_integer(mat, col) is not None for col in sample)
        if solve_cols is not None:
            assert _saturated(basis)


@pytest.mark.parametrize("pool", sorted(_ENTRY_POOLS))
def test_kernel_basis_matches_dense_reference_on_random_matrices(pool):
    rng = random.Random(f"kernel:{pool}")
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 8)
        density = rng.choice((0.3, 0.6, 1.0))
        m = [
            [rng.choice(_ENTRY_POOLS[pool]) if rng.random() < density else 0
             for _ in range(cols)]
            for _ in range(rows)
        ]
        _assert_same_kernel(m)


_KERNEL_CORPUS = [(name, make, k) for name, make, k in _GRAPH_CORPUS] + [
    ("heawood", heawood_graph, 3)
]


@pytest.mark.parametrize(
    "name,make,k", _KERNEL_CORPUS, ids=[f"{name}-k{k}" for name, _, k in _KERNEL_CORPUS]
)
def test_kernel_basis_matches_dense_reference_on_graph_d1(name, make, k):
    g = make()
    c = build_restricted_complex(g, Partition.two_column(g.n, k))
    _assert_same_kernel(c.d1, solve_cols=12)


def test_kernel_basis_of_k10_d1_takes_no_smith_form(monkeypatch):
    c = build_restricted_complex(complete_graph(10), Partition.two_column(10, 2))
    calls = []
    real = cshom.intlinalg.smith_normal_form

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(cshom.intlinalg, "smith_normal_form", counting)
    assert len(kernel_basis(c.d1)) == 280
    assert calls == []


_NO_NUMPY_SCRIPT = """
import json, sys
from cshom import (
    Partition, build_restricted_complex, canonical_certificates,
    certificate_from_dict, certificate_to_dict, certify_nonplanar,
    check_certificate, complete_graph, homology_group, petersen_graph,
    run_battery,
)
canonical_certificates()
c = build_restricted_complex(complete_graph(5), Partition.two_column(5, 2))
assert homology_group(c.d1, c.d2).has_z2
doc = json.loads(json.dumps(certificate_to_dict(certify_nonplanar(petersen_graph()))))
cert = certificate_from_dict(doc)
assert check_certificate(cert, cert.complex).valid
assert all(r.passed for r in run_battery())
# neither numpy nor a test-side module (the oracle, the test helpers, the
# Numbering layer)
print(sorted({"numpy", "groupalg", "helpers", "numbering"} & set(sys.modules)))
"""


def test_runtime_never_imports_numpy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

import itertools

import pytest
from hypothesis import given, strategies as st

import cshom.certificates
import cshom.complexes
import cshom.tableaux
from cshom.certificates import certify_nonplanar
from cshom.complexes import build_restricted_complex
from cshom.errors import StraighteningStalled
from cshom.tableaux import (
    Partition,
    enumerate_ssyt,
    enumerate_syt,
    standardize,
    straighten,
    straighten_columns,
)
from cshom.graphs import complete_bipartite, complete_graph, petersen_graph
from groupalg import expand_in_basis, specht_vector
from helpers import (
    _violation_free_fillings,
    heawood_graph,
    k5_six_subdivided,
    reference_enumerate_ssyt,
    reference_straighten,
)
from numbering import (
    Numbering,
    NumberingVector,
    canonicalize,
    numbering,
    numbering_of_subgraph,
    pi_expand,
)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))  # increasing
    with pytest.raises(ValueError):
        Partition((2, 0))
    p = Partition.two_column(6, 2)
    assert p.parts == (2, 2, 1, 1)
    assert p.two_column_rows() == 2
    assert Partition((3, 1)).two_column_rows() is None


def test_numbering_shape_validation():
    with pytest.raises(ValueError):
        numbering((1,), (2, 3))  # row lengths increase
    nb = numbering((1, 2), (3, 4), (5,))
    assert nb.shape.parts == (2, 2, 1)
    assert nb.word() == (1, 2, 3, 4, 5)


def test_numbering_order_discriminates_on_upper_rows():
    y4 = numbering((1, 3), (2, 5), (4,))
    y5 = numbering((1, 4), (2, 5), (3,))
    assert y4 < y5


def test_canonicalize_row_sort_is_free():
    sign, c = canonicalize(numbering((2, 1), (4, 3), (5,)))
    assert sign == 1
    assert c.rows == ((1, 2), (3, 4), (5,))


def test_canonicalize_two_row_reorder_is_free():
    sign, c = canonicalize(numbering((3, 4), (1, 2), (5,)))
    assert sign == 1
    assert c.rows == ((1, 2), (3, 4), (5,))


def test_canonicalize_singleton_block_carries_sort_sign():
    sign, c = canonicalize(numbering((1, 2), (3, 4), (6,), (5,)))
    assert sign == -1
    assert c.rows == ((1, 2), (3, 4), (5,), (6,))


def test_canonicalize_frozen_rows_stay_in_place():
    nb = numbering((3, 4), (1, 2), (5,))
    sign, c = canonicalize(nb, frozen_rows=1)
    assert sign == 1
    assert c.rows == ((3, 4), (1, 2), (5,))


def test_enumerate_syt_pinned():
    got = enumerate_syt(Partition((2, 2, 1)))
    assert got == (
        ((1, 2), (3, 4), (5,)),
        ((1, 2), (3, 5), (4,)),
        ((1, 3), (2, 4), (5,)),
        ((1, 3), (2, 5), (4,)),
        ((1, 4), (2, 5), (3,)),
    )


def _brute_force_syt(shape: Partition) -> set:
    """Every standard filling, by filtering all placements of 1..n."""
    n = shape.n
    out = set()
    for perm in itertools.permutations(range(1, n + 1)):
        rows = []
        pos = 0
        for length in shape.parts:
            rows.append(tuple(perm[pos : pos + length]))
            pos += length
        ok = all(r[c] < r[c + 1] for r in rows for c in range(len(r) - 1))
        ok = ok and all(
            rows[i][c] < rows[i + 1][c]
            for i in range(len(rows) - 1)
            for c in range(len(rows[i + 1]))
        )
        if ok:
            out.add(tuple(rows))
    return out


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3)])
def test_enumerate_syt_matches_brute_force(n, k):
    shape = Partition.two_column(n, k)
    got = list(enumerate_syt(shape))
    assert set(got) == _brute_force_syt(shape)
    assert got == sorted(got, key=lambda rows: tuple(tuple(reversed(r)) for r in rows))


def test_enumerate_ssyt_pinned():
    got = enumerate_ssyt(Partition((2, 2, 1)), Partition((2, 1, 1, 1)))
    assert got == (((1, 1), (2, 3), (4,)), ((1, 1), (2, 4), (3,)))


def test_enumerate_ssyt_rows_weakly_increase_columns_strictly():
    for shape, weight in [
        ((2, 2, 1, 1), (2, 1, 1, 1, 1)),
        ((2, 2, 1, 1), (2, 2, 1, 1)),
        ((2, 2, 2), (2, 2, 1, 1)),
    ]:
        for rows in enumerate_ssyt(Partition(shape), Partition(weight)):
            for r in rows:
                assert all(r[c] <= r[c + 1] for c in range(len(r) - 1))
            for i in range(len(rows) - 1):
                for c in range(len(rows[i + 1])):
                    assert rows[i][c] < rows[i + 1][c]


@pytest.mark.parametrize("n", range(1, 13))
def test_enumerate_ssyt_matches_reference(n):
    # every shape (2^k, 1^(n-2k)) with every weight (2^a, 1^(n-2a)), a <= 2;
    # a > k has no filling at all
    for k in range(n // 2 + 1):
        shape = Partition((2,) * k + (1,) * (n - 2 * k))
        for a in range(min(2, n // 2) + 1):
            weight = Partition((2,) * a + (1,) * (n - 2 * a))
            got = enumerate_ssyt(shape, weight)
            assert got == reference_enumerate_ssyt(shape, weight), (shape, weight)
            assert bool(got) == (a <= k)


@pytest.mark.parametrize(
    "shape,weight",
    [
        ((3, 1), (2, 1, 1)),  # a row of length 3
        ((2, 2, 1), (3, 1, 1)),  # a value occurring three times
        ((2, 2, 1), (2, 1, 1)),  # sizes differ
    ],
)
def test_enumerate_ssyt_rejects_other_shapes_and_weights(shape, weight):
    with pytest.raises(ValueError):
        enumerate_ssyt(Partition(shape), Partition(weight))


def test_standardize_pinned_edge_fillings():
    g = complete_graph(5)
    patterns = enumerate_ssyt(Partition((2, 2, 1)), Partition((2, 1, 1, 1)))
    t14 = numbering_of_subgraph(g, ((1, 4),))
    assert standardize(patterns[0], t14.rows) == ((1, 4), (2, 3), (5,))
    assert standardize(patterns[1], t14.rows) == ((1, 4), (2, 5), (3,))
    t12 = numbering_of_subgraph(g, ((1, 2),))
    assert standardize(patterns[0], t12.rows) == ((1, 2), (3, 4), (5,))


def test_standardize_rejects_wrong_multiplicities():
    target = ((1, 4), (2, 3), (5,))
    with pytest.raises(ValueError):
        standardize(((1, 2), (3, 4), (5,)), target)  # value 1 must occur twice


def test_numbering_of_subgraph_component_order():
    g = complete_graph(5)
    # one edge: the size-2 component leads, singletons ascend
    nb = numbering_of_subgraph(g, ((2, 4),))
    assert nb.rows == ((2, 4), (1,), (3,), (5,))
    # two disjoint edges: blocks ordered by minimum
    nb = numbering_of_subgraph(g, ((3, 5), (1, 2)))
    assert nb.rows == ((1, 2), (3, 5), (4,))


def test_pi_expand_pinned():
    got = pi_expand(numbering((1, 4), (2, 3), (5,)), 1, 1)
    assert got == {
        numbering((1, 2), (3, 4), (5,)): -1,
        numbering((1, 3), (2, 4), (5,)): -1,
    }
    got = pi_expand(numbering((2, 4), (1, 3), (5,)), 1, 2)
    assert got == {numbering((1, 3), (2, 4), (5,)): 1}


def test_pi_expand_range_validation():
    nb = numbering((1, 2), (3, 4), (5,))
    with pytest.raises(ValueError):
        pi_expand(nb, 3, 1)
    with pytest.raises(ValueError):
        pi_expand(nb, 2, 2)  # row 3 has a single entry


def _ga_scale(vec, c):
    return {k: c * v for k, v in vec.items() if v}


def _two_column_numbering(draw, n_min=4, n_max=6, k_min=2):
    n = draw(st.integers(n_min, n_max))
    k = draw(st.integers(k_min, n // 2))
    shape = Partition.two_column(n, k)
    entries = draw(st.permutations(list(range(1, n + 1))))
    rows = []
    pos = 0
    for length in shape.parts:
        rows.append(tuple(entries[pos : pos + length]))
        pos += length
    return Numbering(tuple(rows))


@st.composite
def two_column_numberings(draw):
    return _two_column_numbering(draw)


@given(two_column_numberings())
def test_canonicalize_sign_matches_group_algebra(nb):
    sign, canon = canonicalize(nb)
    assert specht_vector(nb) == _ga_scale(specht_vector(canon), sign)


@given(two_column_numberings(), st.data())
def test_pi_expansion_holds_in_group_algebra(nb, data):
    rows = nb.rows
    i = data.draw(st.integers(1, len(rows) - 1))
    j = data.draw(st.integers(1, min(len(rows[i - 1]), len(rows[i]))))
    expansion = pi_expand(nb, i, j)
    total: dict = {}
    for term, coeff in expansion.items():
        for perm, v in specht_vector(term).items():
            total[perm] = total.get(perm, 0) + coeff * v
    lhs = specht_vector(nb)
    assert {k: v for k, v in total.items() if v} == {
        k: v for k, v in lhs.items() if v
    }


@given(two_column_numberings())
def test_straighten_agrees_with_rational_expansion(nb):
    basis = enumerate_syt(nb.shape)
    got = straighten(nb.rows, basis)
    want = expand_in_basis(
        specht_vector(nb), [specht_vector(Numbering(b)) for b in basis]
    )
    assert got == want


@given(two_column_numberings())
def test_straighten_result_reconstructs_vector(nb):
    basis = enumerate_syt(nb.shape)
    coeffs = straighten(nb.rows, basis)
    total: dict = {}
    for c, b in zip(coeffs, basis):
        if not c:
            continue
        for perm, v in specht_vector(Numbering(b)).items():
            total[perm] = total.get(perm, 0) + c * v
    lhs = specht_vector(nb)
    assert {k: v for k, v in total.items() if v} == {
        k: v for k, v in lhs.items() if v
    }


def test_straighten_linear_combination_input():
    basis = enumerate_syt(Partition((2, 2, 1)))
    pairs = [(((1, 4), (2, 3), (5,)), 2), (((1, 2), (3, 4), (5,)), 1)]
    got = straighten(pairs, basis)
    a = straighten(pairs[0][0], basis)
    b = straighten(pairs[1][0], basis)
    assert got == [2 * x + y for x, y in zip(a, b)]


_K5_SYT = enumerate_syt(Partition((2, 2, 1)))


def test_straighten_takes_a_lone_row_tuple():
    assert straighten(((1, 4), (2, 3), (5,)), _K5_SYT) == [-1, 0, -1, 0, 0]


def test_straighten_takes_a_list_of_pairs():
    pairs = [(((1, 4), (2, 3), (5,)), 2), (((1, 3), (2, 5), (4,)), -1)]
    assert straighten(pairs, _K5_SYT) == [-2, 0, -2, -1, 0]


def test_straighten_takes_a_tuple_of_pairs():
    pairs = ((((1, 4), (2, 3), (5,)), 2), (((1, 3), (2, 5), (4,)), -1))
    assert straighten(pairs, _K5_SYT) == [-2, 0, -2, -1, 0]


def test_straighten_columns_takes_empty_inputs():
    assert straighten_columns([], _K5_SYT) == []
    # an empty iterable of pairs is the zero vector
    assert straighten_columns([[], ()], _K5_SYT) == [[0] * 5, [0] * 5]


def test_straighten_stalls_outside_basis_and_past_budget(monkeypatch):
    syt = enumerate_syt(Partition((2, 2, 1)))
    with pytest.raises(StraighteningStalled, match="not in the basis"):
        straighten(syt[0], syt[1:])
    monkeypatch.setattr("cshom.tableaux.STRAIGHTEN_STEP_LIMIT", 0)
    with pytest.raises(StraighteningStalled, match="did not settle"):
        straighten(syt[0], syt)


def test_straighten_stalls_when_a_rewrite_cycles():
    # with rows of length 3 a rewrite can reach a filling that is still
    # waiting for its own children; that is a stall, never a bare KeyError
    basis = enumerate_syt(Partition((3, 3)))
    columns = stalls = 0
    for p in itertools.permutations(range(1, 7)):
        try:
            column = straighten((p[:3], p[3:]), basis)
        except StraighteningStalled as exc:
            assert "cycles" in str(exc)
            stalls += 1
        else:
            assert len(column) == len(basis)
            columns += 1
    assert (columns, stalls) == (360, 360)


def test_numbering_vector_accumulates_canonical_terms():
    v = NumberingVector(
        [
            (numbering((2, 1), (3, 4), (5,)), 1),
            (numbering((1, 2), (3, 4), (5,)), 2),
        ]
    )
    assert v == {numbering((1, 2), (3, 4), (5,)): 3}


def test_straighten_matches_reference_on_every_pipeline_call(monkeypatch):
    calls = []
    mismatches = []

    def check(v, got, basis, frozen_rows):
        calls.append(frozen_rows)
        if got != reference_straighten(v, basis, frozen_rows):
            mismatches.append((v, frozen_rows))

    def checked(v, basis, frozen_rows=0):
        v = v if isinstance(v, tuple) else list(v)
        got = straighten(v, basis, frozen_rows)
        check(v, got, basis, frozen_rows)
        return got

    def checked_columns(vs, basis, frozen_rows=0):
        vs = [v if isinstance(v, tuple) else list(v) for v in vs]
        got = straighten_columns(vs, basis, frozen_rows)
        for v, column in zip(vs, got):
            check(v, column, basis, frozen_rows)
        return got

    monkeypatch.setattr(cshom.complexes, "straighten", checked)
    monkeypatch.setattr(cshom.complexes, "straighten_columns", checked_columns)
    monkeypatch.setattr(cshom.certificates, "straighten", checked)
    builds = [(petersen_graph(), k) for k in (2, 3, 4, 5)]
    builds += [(complete_graph(8), k) for k in (2, 3, 4)]
    builds += [(complete_bipartite(range(1, 6), range(6, 11)), 2)]
    builds += [(complete_graph(10), 2)]
    for g, k in builds:
        build_restricted_complex(g, Partition.two_column(g.n, k))
    for g in (petersen_graph(), heawood_graph(), k5_six_subdivided()):
        certify_nonplanar(g)
    assert mismatches == []
    assert set(calls) == {0, 1}
    # one entry per column: the d1 columns, which each build straightens in
    # one straighten_columns call (2794 here, frozen_rows=0), plus one per
    # straighten call for a d2 order type or a lift target (747, frozen_rows=1);
    # repeated d2 columns are filled from the build's table and covered by
    # the build oracle in test_complexes
    assert calls.count(0) > 2_500 and calls.count(1) > 600


@given(st.data())
def test_straighten_matches_reference_on_linear_combinations(data):
    # k = 1 gives (2, 1^m) and k = n/2 gives (2^k), with no singleton block;
    # frozen_rows from 0 to k puts a rewrite's two rows inside the 2-row
    # block or across its boundary, or leaves nothing to rewrite
    first = _two_column_numbering(data.draw, 5, 7, k_min=1)
    shape = first.shape
    frozen_rows = data.draw(st.integers(0, shape.two_column_rows()))
    coeffs = st.integers(-3, 3).filter(bool)
    pairs = [(first.rows, data.draw(coeffs))]
    for _ in range(data.draw(st.integers(0, 3))):
        perm = data.draw(st.permutations(list(range(1, shape.n + 1))))
        rows, pos = [], 0
        for length in shape.parts:
            rows.append(tuple(perm[pos : pos + length]))
            pos += length
        pairs.append((tuple(rows), data.draw(coeffs)))
    basis = _violation_free_fillings(shape, frozen_rows)
    assert straighten(pairs, basis, frozen_rows) == reference_straighten(
        pairs, basis, frozen_rows
    )


def _draw_combination(data, shape):
    coeffs = st.integers(-3, 3).filter(bool)
    pairs = []
    for _ in range(data.draw(st.integers(1, 3))):
        perm = data.draw(st.permutations(list(range(1, shape.n + 1))))
        rows, pos = [], 0
        for length in shape.parts:
            rows.append(tuple(perm[pos : pos + length]))
            pos += length
        pairs.append((tuple(rows), data.draw(coeffs)))
    return pairs


@given(st.data())
def test_straighten_columns_matches_straighten_per_column(data):
    first = _two_column_numbering(data.draw, 5, 7, k_min=1)
    shape = first.shape
    frozen_rows = data.draw(st.integers(0, shape.two_column_rows()))
    vs = [first.rows] + [
        _draw_combination(data, shape) for _ in range(data.draw(st.integers(0, 4)))
    ]
    basis = _violation_free_fillings(shape, frozen_rows)
    assert straighten_columns(vs, basis, frozen_rows) == [
        straighten(v, basis, frozen_rows) for v in vs
    ]


def test_straighten_columns_matches_straighten_on_complex_blocks():
    g = petersen_graph()
    c = build_restricted_complex(g, Partition.two_column(g.n, 3))
    fillings1 = [x for _, _, x in c.basis1]
    assert straighten_columns(fillings1, c.basis0) == [
        straighten(x, c.basis0) for x in fillings1
    ]
    # d2 block parts: pair fillings over the block of their top edge
    block = fillings1[: c.copies1]
    top = block[0][0]
    pairs = [w for _, _, w in c.basis2 if w[0] == top]
    assert len(pairs) > 10
    # fillings alone and as weighted terms, in a list and in a tuple
    vs = pairs + [[(r, 2) for r in pairs], tuple((r, 2) for r in pairs)]
    assert straighten_columns(vs, block, frozen_rows=1) == [
        straighten(v, block, frozen_rows=1) for v in vs
    ]
    assert straighten_columns([], block, frozen_rows=1) == []


def test_straighten_rejects_frozen_rows_past_the_shape():
    v = ((1, 3), (2, 4), (5,))
    basis = enumerate_syt(Partition((2, 2, 1)))
    with pytest.raises(ValueError, match="frozen_rows out of range"):
        straighten(v, basis, frozen_rows=len(v) + 1)


def test_straighten_builds_no_numbering_per_rewrite_step(monkeypatch):
    g = petersen_graph()
    c = build_restricted_complex(g, Partition.two_column(g.n, 3))
    column = c.basis1[-1][2]
    want = reference_straighten(column, c.basis0)
    # the column needs rewrite steps
    assert column not in c.basis0
    assert sum(1 for x in want if x) > 1

    constructed = []
    real_post_init = Numbering.__post_init__

    def counting_post_init(self):
        constructed.append(self)
        real_post_init(self)

    monkeypatch.setattr(Numbering, "__post_init__", counting_post_init)
    got = straighten(column, c.basis0)
    assert got == want
    assert constructed == []


def test_straighten_canonicalizes_each_input_term_once(monkeypatch):
    g = petersen_graph()
    c = build_restricted_complex(g, Partition.two_column(g.n, 3))
    fillings1 = [x for _, _, x in c.basis1]
    want = straighten_columns(fillings1, c.basis0)

    calls = []
    real_canonical_rows = cshom.tableaux._canonical_rows

    def counting_canonical_rows(rows, frozen_rows):
        calls.append(rows)
        return real_canonical_rows(rows, frozen_rows)

    monkeypatch.setattr(cshom.tableaux, "_canonical_rows", counting_canonical_rows)
    assert straighten_columns(fillings1, c.basis0) == want
    # rewrite children are built canonical, never canonicalized
    assert calls == fillings1

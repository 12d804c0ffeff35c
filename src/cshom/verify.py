"""Pinned verification battery.

Every check compares a live computation of the pipeline's own code against
a frozen expected value: tableau enumeration, the standardized edge
fillings of the degree-1 basis, straightening, differential columns on the
complete graph of order 5, both pinned torsion certificates, and the
torsion groups they witness.  The three exchange checks pin the
coefficients that straighten gives over the standard fillings of the
shape: a filling that one single-entry exchange straightens
(exchange-single-entry), one whose two length-2 rows are only out of order,
which swapping them straightens with no sign (exchange-two-entries), and a
filling of shape (2, 2, 1, 1), the shape of the once-subdivided complete
graph of order 5 (subdivision-rewrite).  All values are exact; there are
no tolerances.  The sabotage flag deliberately corrupts one expected sign
so callers can confirm the battery is able to fail.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .certificates import canonical_certificates, seed_certificate, recheck_certificate
from .complexes import RestrictedComplex, build_restricted_complex
from .graphs import complete_graph
from .intlinalg import homology_group
from .tableaux import Partition, Rows, enumerate_ssyt, enumerate_syt, straighten

__all__ = ["CheckResult", "run_battery", "BATTERY_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


_SHAPE = Partition((2, 2, 1))

_SYT_EXPECTED = (
    ((1, 2), (3, 4), (5,)),
    ((1, 2), (3, 5), (4,)),
    ((1, 3), (2, 4), (5,)),
    ((1, 3), (2, 5), (4,)),
    ((1, 4), (2, 5), (3,)),
)

_PATTERNS_EXPECTED = (
    ((1, 1), (2, 3), (4,)),
    ((1, 1), (2, 4), (3,)),
)

# degree-1 basis fillings of the complete graph: (edge, copy) -> filling
_STANDARDIZE_EXPECTED = {
    ((1, 2), 1): ((1, 2), (3, 4), (5,)),
    ((1, 2), 2): ((1, 2), (3, 5), (4,)),
    ((1, 4), 1): ((1, 4), (2, 3), (5,)),
    ((1, 4), 2): ((1, 4), (2, 5), (3,)),
}

_D1_COLUMNS_EXPECTED = {
    (3, 1): (-1, 0, -1, 0, 0),
    (3, 2): (0, 0, 0, 0, 1),
    (1, 1): (1, 0, 0, 0, 0),
}

# disjoint pair (edge 1, edge 8) = ((1,2),(3,4)), copy 1: the inclusion
# keeping edge 8 enters with +1, the one keeping edge 1 with -1
_D2_COLUMN_EXPECTED = {0: -1, 14: 1}


@functools.lru_cache(maxsize=1)
def _k5_complex() -> RestrictedComplex:
    return build_restricted_complex(complete_graph(5), _SHAPE)


def _fmt(ok: bool, got: object, want: object) -> tuple[bool, str]:
    return (True, "matches pinned value") if ok else (False, f"got {got!r}, want {want!r}")


def _check_syt() -> tuple[bool, str]:
    got = enumerate_syt(_SHAPE)
    return _fmt(got == _SYT_EXPECTED, got, _SYT_EXPECTED)


def _check_patterns() -> tuple[bool, str]:
    got = tuple(enumerate_ssyt(_SHAPE, Partition((2, 1, 1, 1))))
    return _fmt(got == _PATTERNS_EXPECTED, got, _PATTERNS_EXPECTED)


def _check_standardize() -> tuple[bool, str]:
    c = _k5_complex()
    for (edge, copy), want in _STANDARDIZE_EXPECTED.items():
        i = c.graph.edges.index(edge) + 1
        got = c.basis1[c.column_of_edge_copy[(i, copy)]][2]
        if got != want:
            return False, f"edge {edge} copy {copy}: got {got!r}, want {want!r}"
    return True, "matches pinned value"


def _check_straighten(filling: Rows, want: dict[Rows, int]) -> tuple[bool, str]:
    """straighten of filling over the standard fillings of its shape, as
    {standard filling: nonzero coefficient}, against want."""
    basis = enumerate_syt(Partition(tuple(map(len, filling))))
    got = {b: c for b, c in zip(basis, straighten(filling, basis)) if c}
    return _fmt(got == want, got, want)


def _check_exchange_single() -> tuple[bool, str]:
    return _check_straighten(
        ((1, 4), (2, 3), (5,)),
        {((1, 2), (3, 4), (5,)): -1, ((1, 3), (2, 4), (5,)): -1},
    )


def _check_exchange_double() -> tuple[bool, str]:
    return _check_straighten(((2, 4), (1, 3), (5,)), {((1, 3), (2, 4), (5,)): 1})


def _check_dimensions() -> tuple[bool, str]:
    got = _k5_complex().dims()
    return _fmt(got == (15, 20, 5), got, (15, 20, 5))


def _check_d1_columns() -> tuple[bool, str]:
    c = _k5_complex()
    for (i, j), want in _D1_COLUMNS_EXPECTED.items():
        col = c.column_of_edge_copy[(i, j)]
        got = tuple(c.d1[r][col] for r in range(len(c.basis0)))
        if got != want:
            return False, f"edge {i} copy {j}: got {got!r}, want {want!r}"
    return True, "matches pinned value"


def _make_d2_check(sabotage: bool) -> Callable[[], tuple[bool, str]]:
    def check() -> tuple[bool, str]:
        want = dict(_D2_COLUMN_EXPECTED)
        if sabotage:
            want[0] = -want[0]
        c = _k5_complex()
        col = c.column_of_pair_copy[(1, 8, 1)]
        got = {
            r: c.d2[r][col] for r in range(len(c.basis1)) if c.d2[r][col]
        }
        return _fmt(got == want, got, want)

    return check


def _check_subdivision_rewrite() -> tuple[bool, str]:
    return _check_straighten(
        ((1, 5), (2, 3), (4,), (6,)),
        {((1, 3), (2, 5), (4,), (6,)): -1, ((1, 2), (3, 5), (4,), (6,)): -1},
    )


def _check_seed(kind: str) -> tuple[bool, str]:
    seed5, seed33 = canonical_certificates()
    seed = seed5 if kind == "K5" else seed33
    cert = seed_certificate(seed)
    verdict = recheck_certificate(cert)
    if not verdict.valid:
        return False, f"verdict {verdict!r}"
    return True, "cycle, doubling, and non-image all hold"


def _check_torsion(kind: str) -> tuple[bool, str]:
    seed5, seed33 = canonical_certificates()
    seed = seed5 if kind == "K5" else seed33
    c = build_restricted_complex(seed.graph, seed.shape)
    hg = homology_group(c.d1, c.d2)
    got = (hg.betti, hg.invariant_factors)
    return _fmt(got == (0, (2,)), got, (0, (2,)))


BATTERY_NAMES = (
    "standard-tableaux",
    "edge-copy-patterns",
    "edge-standardization",
    "exchange-single-entry",
    "exchange-two-entries",
    "complex-dimensions",
    "degree1-columns",
    "degree2-column",
    "subdivision-rewrite",
    "pinned-certificate-complete",
    "pinned-certificate-bipartite",
    "torsion-group-complete",
    "torsion-group-bipartite",
)


def run_battery(sabotage: bool = False) -> list[CheckResult]:
    """Run every pinned check; with sabotage=True the degree-2 column check
    must come back failed, which callers use to prove the battery can
    discriminate."""
    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("standard-tableaux", _check_syt),
        ("edge-copy-patterns", _check_patterns),
        ("edge-standardization", _check_standardize),
        ("exchange-single-entry", _check_exchange_single),
        ("exchange-two-entries", _check_exchange_double),
        ("complex-dimensions", _check_dimensions),
        ("degree1-columns", _check_d1_columns),
        ("degree2-column", _make_d2_check(sabotage)),
        ("subdivision-rewrite", _check_subdivision_rewrite),
        ("pinned-certificate-complete", lambda: _check_seed("K5")),
        ("pinned-certificate-bipartite", lambda: _check_seed("K33")),
        ("torsion-group-complete", lambda: _check_torsion("K5")),
        ("torsion-group-bipartite", lambda: _check_torsion("K33")),
    ]
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail))
    return results

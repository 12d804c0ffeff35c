"""The verification battery pins the pipeline's own code: breaking the
rewrite that straighten runs must fail the battery's exchange checks."""

import pytest

import cshom.certificates
import cshom.tableaux
import cshom.verify
from cshom.verify import BATTERY_NAMES, run_battery


def _clear_battery_caches():
    for fn in (
        cshom.verify._k5_complex,
        cshom.certificates.seed_certificate,
        cshom.certificates.canonical_certificates,
    ):
        fn.cache_clear()


@pytest.fixture
def fresh_caches():
    # nothing built with a broken rewrite may outlive the test, and nothing
    # built before it may shield the battery from the broken rewrite
    _clear_battery_caches()
    yield
    _clear_battery_caches()


def test_battery_fails_when_the_rewrite_signs_are_negated(monkeypatch, fresh_caches):
    real_rewrite = cshom.tableaux._rewrite

    def negated(rows, r, col, blocks):
        return [(-sign, child) for sign, child in real_rewrite(rows, r, col, blocks)]

    monkeypatch.setattr(cshom.tableaux, "_rewrite", negated)
    results = run_battery()
    assert [r.name for r in results] == list(BATTERY_NAMES)
    failed = {r.name for r in results if not r.passed}
    assert {"exchange-single-entry", "subdivision-rewrite"} <= failed
    # checks that run no rewrite step still pass
    assert not failed & {"standard-tableaux", "edge-copy-patterns", "exchange-two-entries"}

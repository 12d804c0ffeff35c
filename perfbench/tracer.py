"""Spans around calls into the cshom layers, recorded from outside the program.

A Tracer replaces each traced public function with a wrapper at every cshom
module namespace that bound it by name, so calls made inside the package
(``complexes.straighten``, ``certificates.build_restricted_complex``, ...)
are seen as well as the harness's own calls.  Each call becomes a span with
a parent link; a span's self time is its duration minus the durations of
its child spans.  Counts are taken from argument and result shapes, never
from inside the program.  ``remove`` puts every original back.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

ALL = frozenset({"homology", "certify", "census"})


@dataclass(frozen=True)
class Traced:
    """One traced function: its home module, name, and the workloads that
    are known to call it (a zero call count there means a missed binding)."""

    module: str
    name: str
    exercised_by: frozenset
    measure: Optional[Callable] = None
    generator: bool = False


def _d2_size(args, result) -> dict:
    d2 = result.d2
    return {
        "cells": len(result.basis1) * len(result.basis2),
        "nnz": sum(len(row) - row.count(0) for row in d2),
    }


def _matrix_size(args, result) -> dict:
    m = args[0]
    return {"cells": len(m) * (len(m[0]) if m else 0)}


TRACED = (
    Traced("graphs", "find_kuratowski_subdivision", frozenset({"certify", "census"})),
    Traced("tableaux", "straighten", ALL),
    Traced("tableaux", "standardize", ALL),
    Traced("tableaux", "enumerate_syt", ALL),
    Traced("tableaux", "enumerate_ssyt", ALL),
    Traced("complexes", "build_restricted_complex", ALL, measure=_d2_size),
    Traced("intlinalg", "smith_normal_form", ALL, measure=_matrix_size),
    Traced("intlinalg", "kernel_basis", frozenset({"homology", "census"})),
    Traced("intlinalg", "homology_group", frozenset({"homology", "census"})),
    Traced("intlinalg", "solve_integer", frozenset({"certify", "census"})),
    Traced("intlinalg", "check_certificate", frozenset({"certify", "census"})),
    Traced("intlinalg", "mat_mul", ALL),
    Traced("certificates", "certify_nonplanar", frozenset({"certify", "census"})),
    Traced("certificates", "lift_subdivision", frozenset({"certify"})),
    Traced("certificates", "lift_subgraph", frozenset({"certify", "census"})),
    Traced("certificates", "certificate_to_dict", frozenset({"certify", "census"})),
    Traced("certificates", "certificate_from_dict", frozenset({"certify"})),
    Traced("survey", "generate_connected_graphs", frozenset({"census"}), generator=True),
    Traced("survey", "run_survey", frozenset({"census"})),
    Traced("survey", "survey_one", frozenset({"census"})),
)


class Span:
    __slots__ = ("name", "parent", "root", "t0", "t1", "child", "size", "ok")

    def __init__(self, name: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.child = 0.0
        self.size: Optional[dict] = None
        self.ok = True
        self.t1 = 0.0
        self.t0 = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def under(self, name: str) -> bool:
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


class Tracer:
    """Span recorder; ``install`` wraps, ``remove`` restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # spans

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span, ok: bool = True) -> None:
        span.t1 = time.perf_counter()
        span.ok = ok
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child += span.duration

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans = []

    # wrappers

    def _wrap(self, key: str, fn, t: Traced):
        tracer = self
        if t.generator:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per resumption, so only draining is timed
                it = fn(*args, **kwargs)
                while True:
                    span = tracer.open(key)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.close(span, ok=False)
                        return
                    except BaseException:
                        tracer.close(span, ok=False)
                        raise
                    tracer.close(span)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span, ok=False)
                raise
            tracer.close(span)
            if t.measure is not None:
                span.size = t.measure(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cshom" or name.startswith("cshom."))
        ]
        for t in TRACED:
            home = sys.modules["cshom." + t.module]
            original = getattr(home, t.name)
            wrapper = self._wrap(f"{t.module}.{t.name}", original, t)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


# per-layer metrics of one traced pass

COUNT_SUFFIXES = ("_calls", "_cells", "_nnz", "graphs_generated")


def is_count(metric: str) -> bool:
    return metric.endswith(COUNT_SUFFIXES) or "_per_" in metric


def missed_bindings(spans: list[Span], workload: str) -> list[str]:
    """Traced functions with zero calls on a workload known to call them."""
    seen = {s.name for s in spans}
    return [
        f"{t.module}.{t.name}" for t in TRACED
        if workload in t.exercised_by and f"{t.module}.{t.name}" not in seen
    ]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def get(name: str) -> list[Span]:
        return by.get(name, [])

    def total(name: str) -> float:
        return sum(s.duration for s in get(name))

    def self_total(name: str) -> float:
        return sum(s.self_time for s in get(name))

    def per(numerator: int, denominator: int) -> float:
        return numerator / denominator if denominator else 0.0

    builds = get("complexes.build_restricted_complex")
    snfs = get("intlinalg.smith_normal_form")
    homologies = get("intlinalg.homology_group")
    certified = [
        s for s in get("certificates.certify_nonplanar")
        if s.ok and s.root.name == "op.certify"
    ]
    survey_ms = [1000.0 * s.duration for s in get("survey.survey_one")]
    quartiles = (
        statistics.quantiles(survey_ms, n=10, method="inclusive")
        if len(survey_ms) >= 2 else [0.0] * 9
    )
    generated = get("survey.generate_connected_graphs")

    return {
        "graphs.kuratowski_s": total("graphs.find_kuratowski_subdivision"),
        "graphs.kuratowski_calls": len(get("graphs.find_kuratowski_subdivision")),
        "tableaux.straighten_s": total("tableaux.straighten"),
        "tableaux.straighten_calls": len(get("tableaux.straighten")),
        "tableaux.standardize_s": total("tableaux.standardize"),
        "tableaux.enumerate_s": total("tableaux.enumerate_syt") + total("tableaux.enumerate_ssyt"),
        "complexes.build_s": self_total("complexes.build_restricted_complex"),
        "complexes.build_calls": len(builds),
        "complexes.exactness_check_s": sum(
            s.duration for s in get("intlinalg.mat_mul")
            if s.parent is not None and s.parent.name == "complexes.build_restricted_complex"
        ),
        "complexes.d2_cells": sum(s.size["cells"] for s in builds if s.size),
        "complexes.d2_nnz": sum(s.size["nnz"] for s in builds if s.size),
        "intlinalg.snf_s": total("intlinalg.smith_normal_form"),
        "intlinalg.snf_calls": len(snfs),
        "intlinalg.snf_cells": sum(s.size["cells"] for s in snfs if s.size),
        "intlinalg.snf_max_cells": max((s.size["cells"] for s in snfs if s.size), default=0),
        "intlinalg.snfs_per_homology": per(
            sum(1 for s in snfs if s.under("intlinalg.homology_group")), len(homologies)
        ),
        "intlinalg.homology_self_s": self_total("intlinalg.homology_group"),
        "intlinalg.mat_mul_s": total("intlinalg.mat_mul"),
        "intlinalg.solve_s": total("intlinalg.solve_integer"),
        "intlinalg.solve_calls": len(get("intlinalg.solve_integer")),
        "intlinalg.check_s": total("intlinalg.check_certificate"),
        "certificates.lift_subdivision_s": total("certificates.lift_subdivision"),
        "certificates.lift_subdivision_calls": len(get("certificates.lift_subdivision")),
        "certificates.lift_subgraph_s": total("certificates.lift_subgraph"),
        "certificates.lift_subgraph_calls": len(get("certificates.lift_subgraph")),
        "certificates.to_dict_s": total("certificates.certificate_to_dict"),
        "certificates.from_dict_s": total("certificates.certificate_from_dict"),
        "certificates.builds_per_cert": per(
            sum(1 for s in builds if s.root.name == "op.certify"), len(certified)
        ),
        "certificates.snfs_per_cert": per(
            sum(1 for s in snfs if s.root.name == "op.certify"), len(certified)
        ),
        "survey.generate_s": sum(s.duration for s in generated),
        "survey.graphs_generated": sum(1 for s in generated if s.ok),
        "survey.survey_one_s": total("survey.survey_one"),
        "survey.graph_p50_ms": quartiles[4],
        "survey.graph_p90_ms": quartiles[8],
        "survey.run_self_s": self_total("survey.run_survey"),
    }

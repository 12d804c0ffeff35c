"""Command-line interface.

Subcommands: homology (torsion scan of one graph), certify (build a torsion
certificate for a non-planar graph), check (re-verify a certificate file),
survey (batch scan a corpus), verify-paper (pinned verification battery).

Exit codes: 0 success; 1 domain outcome against the request (planar input
for certify, invalid certificate for check, failed battery); 2 malformed
input; 3 internal failure (an unexpected library error, running out of
memory, or an aborted survey).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .certificates import certificate_from_dict, certificate_to_dict, certify_nonplanar
from .complexes import build_restricted_complex
from .errors import CshomError, PlanarInput
from .graphs import normalize, parse_graph, to_graph6
from .intlinalg import check_certificate, homology_group
from .survey import (
    generate_connected_graphs,
    run_survey,
    scan_shapes,
    write_csv,
    write_jsonl,
)
from .tableaux import Partition
from .verify import run_battery

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_homology(args: argparse.Namespace) -> int:
    try:
        raw = parse_graph(_read_text(args.graph))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    g, report = normalize(raw)

    if args.shape is not None:
        if not 2 <= args.shape <= g.n // 2:
            print(
                f"error: shape parameter must satisfy 2 <= k <= {g.n // 2} "
                f"for n={g.n}",
                file=sys.stderr,
            )
            return EXIT_INPUT
        shapes = [Partition.two_column(g.n, args.shape)]
    else:
        shapes = scan_shapes(g.n)

    rows = []
    for shape in shapes:
        if report.had_loop:
            # a loop forbids every proper coloring, so all groups vanish
            rows.append({"shape": list(shape.parts), "betti": 0,
                         "invariant_factors": [], "has_z2": False})
            continue
        c = build_restricted_complex(g, shape)
        hg = homology_group(c.d1, c.d2)
        rows.append({
            "shape": list(shape.parts),
            "betti": hg.betti,
            "invariant_factors": list(hg.invariant_factors),
            "has_z2": hg.has_z2,
        })

    has_z2 = any(r["has_z2"] for r in rows)
    if args.format == "json":
        doc = {
            "n": g.n,
            "m": g.m,
            "had_loop": report.had_loop,
            "collapsed_multiedges": report.collapsed_multiedges,
            "shapes": rows,
            "has_z2": has_z2,
        }
        _write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"graph: n={g.n} m={g.m}"]
        if report.had_loop:
            lines.append("input had a loop: every homology group is zero")
        if report.collapsed_multiedges:
            lines.append(f"collapsed {report.collapsed_multiedges} duplicate edge(s)")
        if not rows:
            lines.append(f"no two-long-row shapes exist for n={g.n}")
        for r in rows:
            factors = ",".join(str(f) for f in r["invariant_factors"]) or "-"
            lines.append(
                f"shape {'+'.join(str(p) for p in r['shape'])}: "
                f"betti={r['betti']} torsion_factors={factors} "
                f"order2={'yes' if r['has_z2'] else 'no'}"
            )
        lines.append(f"order-2 torsion detected: {'yes' if has_z2 else 'no'}")
        _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    try:
        raw = parse_graph(_read_text(args.graph))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    g, report = normalize(raw)
    if report.had_loop or report.collapsed_multiedges:
        print(
            "note: certifying the simple graph underlying the input",
            file=sys.stderr,
        )
    try:
        cert = certify_nonplanar(g)
    except PlanarInput as exc:
        print(f"planar: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    doc = certificate_to_dict(cert)
    _write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.out and args.out != "-":
        print(
            f"certificate written to {args.out} "
            f"(kind {doc['lift']['kind']}, n={g.n}, m={g.m})",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(_read_text(args.certificate))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        cert = certificate_from_dict(doc)
    except (ValueError, CshomError) as exc:
        print(f"error: certificate does not bind: {exc}", file=sys.stderr)
        return EXIT_INPUT
    verdict = check_certificate(cert, cert.complex)
    for name, ok in (
        ("cycle", verdict.cycle),
        ("doubled-by-witness", verdict.doubled),
        ("not-in-image", verdict.not_in_image),
    ):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if verdict.valid:
        print(f"certificate valid: order-{cert.prime} torsion class confirmed")
        return EXIT_OK
    print("certificate INVALID")
    return EXIT_DOMAIN


def cmd_survey(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.generate is not None:
            items: list = list(generate_connected_graphs(args.generate))
        else:
            if args.corpus is None:
                print("error: give a corpus file or --generate N", file=sys.stderr)
                return EXIT_INPUT
            items = []
            for lineno, ln in enumerate(_read_text(args.corpus).splitlines(), 1):
                ln = ln.split("#", 1)[0].strip()
                if not ln:
                    continue
                try:
                    g, report = normalize(parse_graph(ln))
                    if report.had_loop:
                        raise ValueError("graph has a loop")
                    items.append(to_graph6(g))
                except ValueError as exc:
                    raise ValueError(f"corpus line {lineno}: {exc}") from None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        records = run_survey(
            items, cache_dir=args.cache, cert_dir=args.cert_dir, jobs=args.jobs
        )
    except RuntimeError as exc:
        print(f"SURVEY ABORTED: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    buf = io.StringIO()
    if args.format == "jsonl":
        write_jsonl(records, buf)
    else:
        write_csv(records, buf)
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def cmd_verify_paper(args: argparse.Namespace) -> int:
    results = run_battery(sabotage=args.sabotage)
    for r in results:
        print(f"{'ok  ' if r.passed else 'FAIL'} {r.name} - {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cshom",
        description=(
            "Exact integral chromatic-module homology of finite graphs: "
            "torsion scans, torsion certificates, and batch surveys."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph_help = "graph file (edge list or graph6), or - for stdin"

    p = sub.add_parser("homology", help="compute integral homology across shapes")
    p.add_argument("graph", help=graph_help)
    p.add_argument(
        "--shape",
        type=int,
        default=None,
        metavar="K",
        help="scan only the shape with K length-2 rows (default: all K >= 2)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("certify", help="build a torsion certificate for a non-planar graph")
    p.add_argument("graph", help=graph_help)
    p.add_argument("--out", default=None, help="certificate file (default stdout)")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("check", help="re-verify a certificate file from scratch")
    p.add_argument("certificate", help="certificate JSON file, or - for stdin")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("survey", help="scan a corpus of graphs and emit a report")
    p.add_argument("corpus", nargs="?", default=None,
                   help="file with one graph per line (graph6 or edge list)")
    p.add_argument("--generate", type=int, default=None, metavar="N",
                   help="survey all connected graphs with at most N vertices instead")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache", default=None, help="cache directory (default CSHOM_CACHE or ~/.cache/cshom)")
    p.add_argument("--cert-dir", default=None, help="write certificate files here")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(fn=cmd_survey)

    p = sub.add_parser(
        "verify-paper",
        help="run the pinned verification battery of exact frozen values",
    )
    p.add_argument(
        "--sabotage",
        action="store_true",
        help="corrupt one pinned sign to demonstrate the battery can fail",
    )
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CshomError as exc:
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("internal failure: out of memory", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Verbs: ``fan-info``, ``ss``, ``vpoly``, ``check``, ``cubical-ss``,
``euler``.  Exit codes are a stable contract: 0 success, 2 parse error,
3 validation error, 4 property-check failure.  All tabular output is
deterministically ordered (cones by id, page entries by (r, p, q)).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .complexes import (
    ComplexError,
    FilteredComplex,
    canonical_filtration,
    filtered_from_doc,
    filtered_to_doc,
)
from .cubical import (
    diagram_from_doc,
    hyperres_from_doc,
    is_acyclic,
    simple_filtered,
    skeleton_filtration,
)
from .pages import (
    SpectralSequence,
    decalage_mismatches,
    purity_collapse_report,
    reindexed_page,
    virtual_poincare,
    weight_profile,
)
from .toric import Fan, FanError, orbit_sum_poly, parse_fan, standard_fan, toric_cell_complex

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PROPERTY = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}", EXIT_PARSE)


def _fan_from_args(args) -> Fan:
    if getattr(args, "standard", None):
        name, _, param = args.standard.partition(":")
        try:
            size = int(param) if param else 0
        except ValueError:
            raise CliError(f"--standard {args.standard}: {param!r} is not an integer",
                           EXIT_PARSE)
        try:
            return standard_fan(name, size)
        except FanError as exc:
            raise CliError(str(exc), EXIT_VALIDATION)
    doc = _load_json(args.fan)
    try:
        return parse_fan(doc)
    except FanError as exc:
        raise CliError(f"{args.fan}: {exc}", EXIT_VALIDATION)


def _filtered_from_args(args) -> tuple[FilteredComplex, int]:
    """Returns the filtered complex and the ambient dimension for reports."""
    selector = getattr(args, "filtration", None) or "toric"
    if getattr(args, "fan", None) or getattr(args, "standard", None):
        fan = _fan_from_args(args)
        cx = toric_cell_complex(fan)
        if selector == "canonical":
            return canonical_filtration(cx.complex), fan.n
        if selector in ("toric", "file"):
            return cx.filtered, fan.n
        raise CliError(f"filtration {selector!r} does not apply to fans", EXIT_PARSE)
    if getattr(args, "hyperres", None):
        doc = _load_json(args.hyperres)
        try:
            fc = skeleton_filtration(hyperres_from_doc(doc))
        except ComplexError as exc:
            raise CliError(str(exc), EXIT_VALIDATION)
        return fc, max(fc.complex.degrees() or [0])
    if not getattr(args, "complex", None):
        raise CliError("one of --fan/--standard/--complex/--hyperres is required",
                       EXIT_PARSE)
    doc = _load_json(args.complex)
    try:
        fc = filtered_from_doc(doc)
        if selector == "canonical":
            fc = canonical_filtration(fc.complex)
        elif selector not in ("file", "toric"):
            raise CliError(f"filtration {selector!r} does not apply to complex files",
                           EXIT_PARSE)
    except ComplexError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    return fc, max(fc.complex.degrees() or [0])


# ---------------------------------------------------------------------------
# output helpers


def _page_rows(ss: SpectralSequence) -> list[tuple[int, int, int, int]]:
    rows = []
    for r in range(1, ss.r_inf + 1):
        for (p, q), d in sorted(ss.page(r).items()):
            rows.append((r, p, q, d))
    return rows


def _reindexed_rows(ss: SpectralSequence) -> list[tuple[int, int, int, int]]:
    rows = []
    for r in range(2, ss.r_inf + 2):
        for (p, q), d in sorted(reindexed_page(ss, r).items()):
            rows.append((r, p, q, d))
    return rows


def _emit_pages(ss: SpectralSequence, dim: int, fmt: str) -> None:
    report = purity_collapse_report(ss, dim)
    profile = weight_profile(ss)
    if fmt == "doc":
        doc = {
            "pages": [
                {"r": r, "p": p, "q": q, "dim": d} for r, p, q, d in _page_rows(ss)
            ],
            "reindexed": [
                {"r": r, "p": p, "q": q, "dim": d} for r, p, q, d in _reindexed_rows(ss)
            ],
            "infinity": [
                {"p": p, "q": q, "dim": d}
                for (p, q), d in sorted(ss.infinity_page().items())
            ],
            "pure": report.is_pure,
            "collapse_page": report.collapse_page,
            "support_ok": report.support_ok,
            "weight_profile": {
                str(k): {str(p): d for p, d in sorted(by_p.items())}
                for k, by_p in sorted(profile.items())
            },
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    if fmt == "csv":
        print("table,r,p,q,dim")
        for r, p, q, d in _page_rows(ss):
            print(f"page,{r},{p},{q},{d}")
        for r, p, q, d in _reindexed_rows(ss):
            print(f"reindexed,{r},{p},{q},{d}")
        for (p, q), d in sorted(ss.infinity_page().items()):
            print(f"infinity,,{p},{q},{d}")
        return
    # text
    print("pages (r, p, q, dim):")
    for r, p, q, d in _page_rows(ss):
        print(f"  E^{r}_{{{p},{q}}} = {d}")
    print("reindexed pages (r, p', q', dim):")
    for r, p, q, d in _reindexed_rows(ss):
        print(f"  ~E^{r}_{{{p},{q}}} = {d}")
    print("limit page:")
    for (p, q), d in sorted(ss.infinity_page().items()):
        print(f"  E^inf_{{{p},{q}}} = {d}")
    print(f"pure: {'yes' if report.is_pure else 'no'}, "
          f"collapse: r={report.collapse_page}, "
          f"support triangle: {'ok' if report.support_ok else 'VIOLATED'}")
    print("weight filtration of homology (degree: level -> dim):")
    for k, by_p in sorted(profile.items()):
        levels = ", ".join(f"{p}:{d}" for p, d in sorted(by_p.items()))
        print(f"  H_{k}: {levels}")


# ---------------------------------------------------------------------------
# commands


def cmd_fan_info(args) -> int:
    fan = _fan_from_args(args)
    print(f"lattice rank: {fan.n}")
    print(f"rays: {[list(r) for r in fan.rays]}")
    print("cones (id, dim, codim, rays, faces):")
    for cid in fan.cone_ids():
        c = fan.cone(cid)
        print(f"  {cid}: dim {c.dim}, codim {fan.n - c.dim}, "
              f"rays {sorted(c.ray_indices)}, faces {sorted(c.faces)}")
    cx = toric_cell_complex(fan).complex
    counts = ", ".join(f"{k}:{cx.dim(k)}" for k in cx.degrees())
    print(f"cell counts by degree: {counts}")
    return EXIT_OK


def cmd_ss(args) -> int:
    fc, dim = _filtered_from_args(args)
    if args.emit_complex:
        with open(args.emit_complex, "w") as fh:
            json.dump(filtered_to_doc(fc), fh, indent=2, sort_keys=True)
    _emit_pages(SpectralSequence(fc), dim, args.format)
    return EXIT_OK


def cmd_vpoly(args) -> int:
    fan = _fan_from_args(args)
    beta = virtual_poincare(SpectralSequence(toric_cell_complex(fan).filtered))
    prediction = orbit_sum_poly(fan)
    agree = beta == prediction
    if args.format == "doc":
        print(json.dumps({
            "coefficients": list(beta.coeffs),
            "polynomial": str(beta),
            "orbit_sum": list(prediction.coeffs),
            "agree": agree,
        }, indent=2, sort_keys=True))
    elif args.format == "csv":
        print("q,beta_q")
        for q, c in enumerate(beta.coeffs):
            print(f"{q},{c}")
    else:
        print(f"beta = {beta}")
        print(f"coefficients: {list(beta.coeffs)}")
        print(f"orbit-sum prediction: {prediction} "
              f"({'agrees' if agree else 'DISAGREES'})")
    return EXIT_OK if agree else EXIT_PROPERTY


def cmd_check(args) -> int:
    from .checks import run_suite
    try:
        results = run_suite(args.suite)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE)
    failures = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        line = f"{status}  {res.name}"
        if not res.ok and res.detail:
            line += f"  [{res.detail}]"
        print(line)
        failures += 0 if res.ok else 1
    print(f"{len(results) - failures} passed, {failures} failed")
    return EXIT_PROPERTY if failures else EXIT_OK


def cmd_cubical_ss(args) -> int:
    if args.diagram:
        doc = _load_json(args.diagram)
        try:
            ss = SpectralSequence(simple_filtered(diagram_from_doc(doc)))
        except ComplexError as exc:
            raise CliError(str(exc), EXIT_VALIDATION)
        print(f"total complex acyclic: {'yes' if is_acyclic(ss) else 'no'}")
    elif args.hyperres:
        doc = _load_json(args.hyperres)
        try:
            h = hyperres_from_doc(doc)
        except ComplexError as exc:
            raise CliError(str(exc), EXIT_VALIDATION)
        ss = SpectralSequence(skeleton_filtration(h))
        mismatches = decalage_mismatches(ss)
        print(f"shifted-filtration comparison: {mismatches or 'ok'}")
    else:
        raise CliError("--diagram or --hyperres is required", EXIT_PARSE)
    _emit_pages(ss, max(ss.cx.degrees() or [0]), args.format)
    return EXIT_OK


def cmd_euler(args) -> int:
    from . import euler
    try:
        cx = euler.complex_from_doc(_load_json(args.complex))
        if args.op == "link":
            phi = euler.function_from_doc(_load_json(args.function), cx)
            print(json.dumps(euler.function_to_doc(euler.link(phi)), sort_keys=True))
        elif args.op == "boundary":
            chain = euler.chain_from_doc(_load_json(args.chain), cx)
            out = euler.chain_boundary(chain)
            members = sorted(out.members, key=str)
            print(json.dumps({
                "k": out.k,
                "members": [
                    {"vertices": list(m[1]), "copy": m[2]} for m in members
                ],
            }, sort_keys=True))
        elif args.op == "integral":
            phi = euler.function_from_doc(_load_json(args.function), cx)
            print(euler.euler_integral(phi))
        elif args.op == "pushforward":
            target = euler.complex_from_doc(_load_json(args.target))
            f = euler.map_from_doc(_load_json(args.map), cx, target)
            phi = euler.function_from_doc(_load_json(args.function), cx)
            out = euler.pushforward_cf(f, phi)
            print(json.dumps(euler.function_to_doc(out), sort_keys=True))
        else:
            raise CliError(f"unknown euler op {args.op!r}", EXIT_PARSE)
    except euler.EulerError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightlab",
        description="Weight spectral sequences of real toric varieties and "
                    "filtered mod-2 chain complexes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_fan_inputs(p):
        p.add_argument("--fan", help="fan document (JSON)")
        p.add_argument("--standard", help="named fan, e.g. P:2, trivial:3, hirzebruch:1")

    def add_format(p):
        p.add_argument("--format", choices=("text", "doc", "csv"), default="text")

    p = sub.add_parser("fan-info", help="summarize a fan and its cell complex")
    add_fan_inputs(p)
    p.set_defaults(func=cmd_fan_info)

    p = sub.add_parser("ss", help="compute spectral-sequence pages")
    add_fan_inputs(p)
    p.add_argument("--complex", help="filtered complex document (JSON)")
    p.add_argument("--hyperres", help="hyperresolution document (JSON)")
    p.add_argument("--filtration",
                   choices=("toric", "canonical", "skeleton", "file"),
                   help="filtration to use (default: toric for fans, "
                        "file for complex documents, skeleton for hyperresolutions)")
    p.add_argument("--emit-complex", metavar="PATH",
                   help="also write the filtered complex document")
    add_format(p)
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("vpoly", help="virtual Poincaré polynomial of a fan")
    add_fan_inputs(p)
    add_format(p)
    p.set_defaults(func=cmd_vpoly)

    p = sub.add_parser("check", help="run property suites over the fixture corpus")
    p.add_argument("--suite", default="all",
                   choices=("toric", "fcomplex", "cubical", "euler", "all", "none"))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cubical-ss", help="pages of a diagram or hyperresolution")
    p.add_argument("--diagram", help="cubical diagram document (JSON)")
    p.add_argument("--hyperres", help="hyperresolution document (JSON)")
    add_format(p)
    p.set_defaults(func=cmd_cubical_ss)

    p = sub.add_parser("euler", help="Euler-calculus operations")
    p.add_argument("--op", required=True,
                   choices=("link", "boundary", "integral", "pushforward"))
    p.add_argument("--complex", required=True, help="cell complex document")
    p.add_argument("--function", help="constructible function document")
    p.add_argument("--chain", help="chain document")
    p.add_argument("--map", help="cell map document")
    p.add_argument("--target", help="target complex document (pushforward)")
    p.set_defaults(func=cmd_euler)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FanError, ComplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

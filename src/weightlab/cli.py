"""Command-line interface.

Verbs: ``fan-info``, ``ss``, ``vpoly``, ``check``, ``cubical-ss``,
``euler``.  Exit codes are a stable contract: 0 success, 2 parse error,
3 validation error, 4 property-check failure; a run whose reader closes
the output pipe early stops quietly with 141, as if killed by SIGPIPE.
All tabular output is deterministically ordered (cones by id, page
entries by (r, p, q)).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from typing import Sequence

from .complexes import (
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
from .gf2 import InputError
from .pages import (
    PurityReport,
    SpectralSequence,
    decalage_mismatches,
    euler_poincare,
    purity_collapse_report,
    reindexed_page,
    weight_profile,
)
from .toric import (
    Fan,
    cell_counts,
    levels,
    orbit_sum_poly,
    parse_fan,
    standard_fan,
    toric_cell_complex,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PROPERTY = 4
EXIT_BROKEN_PIPE = 128 + 13  # SIGPIPE


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object, a key given twice refused rather than read as its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise InputError(f"key {key!r} is given twice in one object")
    return obj


def _read(path: str, reader, *args):
    """``reader(doc, *args)`` of the UTF-8 JSON document at path: every
    document is read here, and any refusal names its file, with exit 2 for
    a file that cannot be read or decoded and 3 for a document refused."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}", EXIT_PARSE)
    except InputError as exc:
        raise CliError(f"{path}: {exc}", EXIT_VALIDATION)
    except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, too long an int
        raise CliError(f"{path}: {exc}", EXIT_PARSE)
    try:
        return reader(doc, *args)
    except InputError as exc:
        raise CliError(f"{path}: {exc}", EXIT_VALIDATION)


def _fan_from_args(args) -> Fan:
    """The fan of ``--standard`` or ``--fan``."""
    if args.standard is not None:
        name, _, param = args.standard.partition(":")
        try:
            size = int(param) if param else 0
        except ValueError:
            raise CliError(f"--standard {args.standard}: {param!r} is not an integer",
                           EXIT_PARSE)
        return standard_fan(name, size)
    return _read(args.fan, parse_fan)


# The --filtration names that each kind of input reads as its own
# filtration, None for no option; "canonical" applies to every kind.
_NATIVE_FILTRATIONS = {
    "fans": (None, "toric", "file"),
    "hyperresolutions": (None, "skeleton"),
    "complex files": (None, "file", "toric"),
}


def _filtered_from_args(args) -> tuple[FilteredComplex, int]:
    """Returns the filtered complex and the ambient dimension for reports.

    The input is read and refused before the filtration is.  A fan's
    complex is written in the augmentation basis, unless it is to be
    emitted as a document, which is written in the cell basis; the pages
    are the same in both."""
    if args.fan is not None or args.standard is not None:
        kind, fan = "fans", _fan_from_args(args)
    elif args.hyperres is not None:
        kind = "hyperresolutions"
        fc = skeleton_filtration(_read(args.hyperres, hyperres_from_doc))
    else:
        kind, fc = "complex files", _read(args.complex, filtered_from_doc)
    selector = args.filtration
    if selector != "canonical" and selector not in _NATIVE_FILTRATIONS[kind]:
        raise CliError(f"filtration {selector!r} does not apply to {kind}", EXIT_PARSE)
    if kind == "fans":
        tcc = toric_cell_complex(fan)
        fc = tcc.cell_filtered if args.emit_complex is not None else tcc.filtered
    if selector == "canonical":
        fc = canonical_filtration(fc.complex)
    return fc, fan.n if kind == "fans" else max(fc.complex.degrees() or [0])


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


def page_doc_text(pages, reindexed, infinity, report: PurityReport,
                  profile: dict[int, dict[int, int]]) -> str:
    """The ``--format doc`` document: the text that
    ``json.dumps(doc, indent=2, sort_keys=True)`` gives, written straight
    from the page rows with one template per row shape.

    ``pages`` and ``reindexed`` hold (r, p, q, dim) rows, ``infinity``
    holds (p, q, dim) rows.  The profile's keys are written as strings,
    so both of its levels are ordered as strings are (``"-1" < "-2"``).
    """
    row = '    {\n      "dim": %d,\n      "p": %d,\n      "q": %d,\n      "r": %d\n    }'
    spot = '    {\n      "dim": %d,\n      "p": %d,\n      "q": %d\n    }'

    def block(items: list[str], indent: str, brackets: str) -> str:
        if not items:
            return brackets
        return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}"

    degrees = [
        '    "%s": ' % k + block(
            ['      "%s": %d' % level
             for level in sorted((str(p), d) for p, d in by_p.items())],
            "    ", "{}")
        for k, by_p in sorted((str(k), by_p) for k, by_p in profile.items())
    ]
    return (
        '{\n  "collapse_page": %d,\n  "infinity": %s,\n  "pages": %s,\n'
        '  "pure": %s,\n  "reindexed": %s,\n  "support_ok": %s,\n'
        '  "weight_profile": %s\n}' % (
            report.collapse_page,
            block([spot % (d, p, q) for p, q, d in infinity], "  ", "[]"),
            block([row % (d, p, q, r) for r, p, q, d in pages], "  ", "[]"),
            "true" if report.is_pure else "false",
            block([row % (d, p, q, r) for r, p, q, d in reindexed], "  ", "[]"),
            "true" if report.support_ok else "false",
            block(degrees, "  ", "{}"),
        )
    )


def _emit_pages(ss: SpectralSequence, dim: int, fmt: str) -> None:
    report = purity_collapse_report(ss, dim)
    profile = weight_profile(ss)
    if fmt == "doc":
        print(page_doc_text(
            _page_rows(ss), _reindexed_rows(ss),
            [(p, q, d) for (p, q), d in sorted(ss.infinity_page().items())],
            report, profile))
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
    counts = cell_counts(fan)
    print(f"lattice rank: {fan.n}")
    print(f"rays: {[list(r) for r in fan.rays]}")
    print("cones (id, dim, codim, rays, faces):")
    sys.stdout.writelines(f"  {cid}: dim {c.dim}, codim {fan.n - c.dim}, "
                          f"rays {sorted(c.ray_indices)}, faces {sorted(c.faces)}\n"
                          for cid, c in sorted(fan.cones.items()))
    by_degree = ", ".join(f"{k}:{n}" for k, n in sorted(counts.items()))
    print(f"cell counts by degree: {by_degree}")
    return EXIT_OK


def cmd_ss(args) -> int:
    fc, dim = _filtered_from_args(args)
    if args.emit_complex is not None:
        doc = filtered_to_doc(fc)
        try:
            with open(args.emit_complex, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
        except OSError as exc:
            raise CliError(f"cannot write {args.emit_complex}: {exc}", EXIT_PARSE)
    _emit_pages(SpectralSequence(fc), dim, args.format)
    return EXIT_OK


def cmd_vpoly(args) -> int:
    """β from the levels that the build lays out, against the orbit sum:
    no complex is built, so the two disagree only on a wrong level count."""
    fan = _fan_from_args(args)
    beta = euler_poincare(levels(fan))
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
    results = run_suite(args.suite)
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
    if args.diagram is not None:
        ss = SpectralSequence(simple_filtered(_read(args.diagram, diagram_from_doc)))
        print(f"total complex acyclic: {'yes' if is_acyclic(ss) else 'no'}")
    else:
        h = _read(args.hyperres, hyperres_from_doc)
        ss = SpectralSequence(skeleton_filtration(h))
        mismatches = decalage_mismatches(ss)
        print(f"shifted-filtration comparison: {mismatches or 'ok'}")
    _emit_pages(ss, max(ss.cx.degrees() or [0]), args.format)
    return EXIT_OK


def cmd_euler(args) -> int:
    from . import euler

    def read(option: str, reader, *context):
        path = getattr(args, option)
        if path is None:
            raise CliError(f"--op {args.op} needs --{option}", EXIT_PARSE)
        return _read(path, reader, *context)

    cx = read("complex", euler.complex_from_doc)
    if args.op == "link":
        phi = read("function", euler.function_from_doc, cx)
        print(json.dumps(euler.function_to_doc(euler.link(phi)), sort_keys=True))
    elif args.op == "boundary":
        chain = read("chain", euler.chain_from_doc, cx)
        out = euler.chain_boundary(chain)
        members = sorted(out.members, key=str)
        print(json.dumps({
            "k": out.k,
            "members": [
                {"vertices": list(m[1]), "copy": m[2]} for m in members
            ],
        }, sort_keys=True))
    elif args.op == "integral":
        phi = read("function", euler.function_from_doc, cx)
        print(euler.euler_integral(phi))
    else:  # pushforward
        target = read("target", euler.complex_from_doc)
        f = read("map", euler.map_from_doc, cx, target)
        phi = read("function", euler.function_from_doc, cx)
        out = euler.pushforward_cf(f, phi)
        print(json.dumps(euler.function_to_doc(out), sort_keys=True))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="weightlab",
        description="Weight spectral sequences of real toric varieties and "
                    "filtered mod-2 chain complexes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_fan_inputs(p):
        """The input options, of which a request names exactly one."""
        inputs = p.add_mutually_exclusive_group(required=True)
        inputs.add_argument("--fan", help="fan document (JSON)")
        inputs.add_argument("--standard", help="named fan, e.g. P:2, trivial:3, hirzebruch:1")
        return inputs

    def add_format(p):
        p.add_argument("--format", choices=("text", "doc", "csv"), default="text")

    p = sub.add_parser("fan-info", help="summarize a fan and its cell complex")
    add_fan_inputs(p)
    p.set_defaults(func=cmd_fan_info)

    p = sub.add_parser("ss", help="compute spectral-sequence pages")
    inputs = add_fan_inputs(p)
    inputs.add_argument("--complex", help="filtered complex document (JSON)")
    inputs.add_argument("--hyperres", help="hyperresolution document (JSON)")
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
    inputs = p.add_mutually_exclusive_group(required=True)
    inputs.add_argument("--diagram", help="cubical diagram document (JSON)")
    inputs.add_argument("--hyperres", help="hyperresolution document (JSON)")
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InputError as exc:
        # A refused input that no document gave, such as a --standard fan.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # The reader closed the pipe (`weightlab ss ... | head`).  Point
        # stdout at /dev/null so the interpreter's last flush cannot fail
        # again, and end as a writer stopped by SIGPIPE does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())

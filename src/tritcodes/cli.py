"""Command-line entry point.

Commands: construct | verify-distance | dual-spectrum | lemma-check | report.
Each is cmd_x(field, args) -> (doc, passed), field from --m and --modulus:
check_modulus's modulus for construct (no numpy), make_field's FieldCtx for
the rest.  main alone writes doc and maps passed to the exit code.
All output is UTF-8 JSON, newline-terminated, with fixed key order and
counts maps keyed by decimal strings sorted numerically, so byte-level
diffing works.  Exit codes: 0 = all checks pass, 1 = a check failed (the
doc is written) or a self-check raised Inconsistent (nothing is written),
2 = invalid input (an unwritable --out path included).

The report command diffs against the fixtures shipped as package data for
m in {5, 7, 9}, which hold what a run with the default modulus writes for
the code and its dual enumerator: fixture_match is true when the file's text
is those bytes.  When the diff cannot run (no fixture file, or another
modulus) fixture_match is null and a one-line note on stderr says why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import polyring
from .exceptions import DEFAULT_BUDGET, Inconsistent, TritcodesError
from .gf3m import DEFAULT_MODULI, MAX_M, check_modulus, make_field

# tritcodes computes in exact integers and never calls BLAS, so numpy's
# OpenBLAS needs no pool of nproc - 1 worker threads.  Set on import, before
# any command imports numpy, so every caller of main runs one thread; a value
# the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

FIXTURE_MS = (5, 7, 9)
FIXTURES = resources.files("tritcodes") / "fixtures"


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit(doc: dict, out: str | None) -> None:
    text = _json(doc)
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:  # e.g. a missing directory: invalid input, exit 2
            raise ValueError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


def _fixture_match(written: dict) -> bool | None:
    """Whether fixtures/m{m}.json holds written's bytes; None off FIXTURE_MS, and None
    with a note on stderr when that file is missing or the modulus is not the default."""
    m = written["m"]
    if m not in FIXTURE_MS:
        return None
    ref = FIXTURES / f"m{m}.json"
    modulus = polyring.format_poly(DEFAULT_MODULI[m])
    if not ref.is_file():
        why = f"no m{m}.json fixture found"
    elif written["modulus"] != modulus:
        why = f"modulus {written['modulus']} is not the fixture's {modulus}"
    else:
        return ref.read_text(encoding="utf-8") == _json(written)
    print(f"note: fixture_match is null: {why}", file=sys.stderr)
    return None


def cmd_construct(modulus, args) -> tuple[dict, bool]:
    from . import codebuilder
    return codebuilder.construct(args.m, modulus).to_json_dict(), True


def cmd_verify_distance(ctx, args) -> tuple[dict, bool]:
    from . import codebuilder, distance
    report = distance.conclude_distance(codebuilder.build_code(ctx), budget=args.budget)
    return report.to_json_dict(), report.concluded_d == 4


def _enumerators(ctx, args) -> dict:
    """The dual weight enumerators --method asks for, by path name, spectral first.
    The direct path runs first: its estimate (n+1)*n is never below the spectral
    m*3^m, so a refused "both" stops before any field table is read."""
    from . import dualspectrum
    paths = {
        "direct": dualspectrum.direct_enumerator,
        "spectral": dualspectrum.spectral_enumerator,
    }
    enums = {
        name: path(ctx, budget=args.budget)
        for name, path in paths.items()
        if args.method in (name, "both")
    }
    return {name: enums[name] for name in ("spectral", "direct") if name in enums}


def cmd_dual_spectrum(ctx, args) -> tuple[dict, bool]:
    enums = _enumerators(ctx, args)
    if args.method != "both":
        return enums[args.method].to_json_dict(), True
    agree = enums["spectral"] == enums["direct"]
    return {**{name: e.to_json_dict() for name, e in enums.items()}, "agree": agree}, agree


def _lemma_docs(ctx, orbit_scan: bool) -> tuple[list[dict], bool]:
    """The epsilon = 1, 2 lemma reports as JSON, from the root count (no field
    table), and whether both are empty.  With orbit_scan, lemma.lemma_check
    counts again, and a count that differs raises Inconsistent."""
    from . import lemma
    reports = []
    for eps in (1, 2):
        count = polyring.nonzero_root_count(polyring.lemma_polynomial(ctx.m, eps, 1), ctx.m)
        scan = lemma.lemma_check(ctx, eps).solution_count if orbit_scan else count
        if scan != count:
            raise Inconsistent(
                f"lemma, epsilon={eps}: the root count finds {count} solutions,"
                f" the orbit scan {scan}"
            )
        reports.append(lemma.LemmaReport(ctx.m, eps, count, ctx.order).to_json_dict())
    return reports, all(d["solution_count"] == 0 for d in reports)


def cmd_lemma_check(ctx, args) -> tuple[dict, bool]:
    docs, empty = _lemma_docs(ctx, orbit_scan=False)
    return {"m": ctx.m, "reports": docs}, empty


def cmd_report(ctx, args) -> tuple[dict, bool]:
    from . import codebuilder, distance, dualspectrum
    code = codebuilder.build_code(ctx)
    enums = _enumerators(ctx, args)
    enum = next(iter(enums.values()))
    dist_report = distance.conclude_distance(code, dual_enum=enum, budget=args.budget)
    lemma_docs, lemma_empty = _lemma_docs(ctx, orbit_scan=True)
    code_doc = code.to_json_dict()
    written = {**code_doc, "dual_weight_enumerator": enum.to_json_dict()}
    checks = {
        "d_equals_4": dist_report.concluded_d == 4,
        "lemma_empty": lemma_empty,
        "weights_in_predicted_set": enum.support() <= dualspectrum.weight_value_set(ctx.m),
        "paths_agree": enums["spectral"] == enums["direct"] if args.method == "both" else None,
        "fixture_match": _fixture_match(written),
    }
    mismatch = next((name for name, ok in checks.items() if ok is False), None)
    doc = {
        **code_doc,
        "distance": dist_report.to_json_dict(),
        "lemma": lemma_docs,
        "dual_spectrum": {
            "method": args.method, "spectral": None, "direct": None,
            **{name: e.to_json_dict() for name, e in enums.items()},
        },
        "checks": checks,
        "mismatch": mismatch,
    }
    return doc, mismatch is None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritcodes",
        description="Optimal ternary cyclic codes C_(u,v) and their dual spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "construct": cmd_construct,
        "verify-distance": cmd_verify_distance,
        "dual-spectrum": cmd_dual_spectrum,
        "lemma-check": cmd_lemma_check,
        "report": cmd_report,
    }
    for name, func in specs.items():
        p = sub.add_parser(name)
        p.add_argument("--m", type=int, required=True, help=f"extension degree (odd, 3..{MAX_M})")
        p.add_argument("--modulus", help="ascending trit list, e.g. 1,2,0,0,0,1")
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument(
            "--budget", type=_positive_int, default=DEFAULT_BUDGET,
            help="operation-count ceiling gating expensive paths",
        )
        if name in ("dual-spectrum", "report"):
            p.add_argument(
                "--method", choices=("spectral", "direct", "both"), default="spectral"
            )
        p.set_defaults(func=func, field=check_modulus if name == "construct" else make_field)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        modulus = None if args.modulus is None else polyring.parse_poly(args.modulus)
        doc, passed = args.func(args.field(args.m, modulus), args)
        _emit(doc, args.out)
        return 0 if passed else 1
    except TritcodesError as exc:  # Inconsistent exits 1, invalid input 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

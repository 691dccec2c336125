"""Command-line entry point.

Commands: construct | verify-distance | dual-spectrum | lemma-check | report.
All output is UTF-8 JSON, newline-terminated, with fixed key order and
counts maps keyed by decimal strings sorted numerically, so byte-level
diffing works.  Exit codes: 0 = all checks pass, 1 = mathematical
mismatch, 2 = invalid input (an unwritable --out path included).

The report command diffs against the shipped fixtures for m in {5, 7, 9};
TRITCODES_FIXTURES overrides the fixture directory.  When the diff cannot
run (no fixture file, or another modulus) fixture_match is null and a
one-line note on stderr says why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import polyring
from .exceptions import (
    DEFAULT_BUDGET,
    Inconsistent,
    NonIntegerOutput,
    NonIntegralWeight,
    TritcodesError,
)
from .gf3m import make_field

FIXTURE_MS = (5, 7, 9)


# Top-level fixture keys and their JSON types; counts maps decimal weights to ints.
FIXTURE_SHAPE = {
    "n": int, "k": int, "modulus": str, "generator": str, "dual_weight_enumerator": dict,
}


def _load_fixture(m: int) -> dict | None:
    """The m{m}.json fixture, None when absent; ValueError when malformed."""
    override = os.environ.get("TRITCODES_FIXTURES")
    base = Path(override) if override else resources.files("tritcodes") / "fixtures"
    ref = base / f"m{m}.json"
    if not ref.is_file():
        return None
    doc = json.loads(ref.read_text(encoding="utf-8"))
    ok = isinstance(doc, dict) and all(
        isinstance(doc.get(key), kind) for key, kind in FIXTURE_SHAPE.items()
    )
    counts = doc["dual_weight_enumerator"].get("counts") if ok else None
    if not isinstance(counts, dict) or not all(
        w.isdigit() and isinstance(c, int) for w, c in counts.items()
    ):
        raise ValueError(
            f"malformed fixture {ref}: need {', '.join(FIXTURE_SHAPE)}"
            " and dual_weight_enumerator.counts mapping weights to counts"
        )
    return doc


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:  # e.g. a missing directory: invalid input, exit 2
            raise ValueError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


def _field(args):
    modulus = polyring.parse_poly(args.modulus) if args.modulus is not None else None
    return make_field(args.m, modulus)


def cmd_construct(args) -> int:
    ctx = _field(args)
    from . import codebuilder
    code = codebuilder.build_code(ctx)
    _emit(code.to_json_dict(), args.out)
    return 0


def cmd_verify_distance(args) -> int:
    ctx = _field(args)
    from . import codebuilder, distance
    code = codebuilder.build_code(ctx)
    report = distance.conclude_distance(code, budget=args.budget)
    _emit(report.to_json_dict(), args.out)
    return 0 if report.concluded_d == 4 else 1


def _enumerators(ctx, method: str, budget: int):
    from . import dualspectrum
    spectral = direct = None
    if method in ("spectral", "both"):
        spectral = dualspectrum.spectral_enumerator(ctx, budget=budget)
    if method in ("direct", "both"):
        direct = dualspectrum.direct_enumerator(ctx, budget=budget)
    return spectral, direct


def cmd_dual_spectrum(args) -> int:
    ctx = _field(args)
    spectral, direct = _enumerators(ctx, args.method, args.budget)
    if args.method == "spectral":
        doc = spectral.to_json_dict()
    elif args.method == "direct":
        doc = direct.to_json_dict()
    else:
        doc = {
            "spectral": spectral.to_json_dict(),
            "direct": direct.to_json_dict(),
            "agree": spectral == direct,
        }
    _emit(doc, args.out)
    return 0 if doc.get("agree", True) else 1


def cmd_lemma_check(args) -> int:
    ctx = _field(args)
    from . import lemma
    docs = [lemma.lemma_check(ctx, eps).to_json_dict() for eps in (1, 2)]
    _emit({"m": ctx.m, "reports": docs}, args.out)
    return 0 if all(d["solution_count"] == 0 for d in docs) else 1


def cmd_report(args) -> int:
    ctx = _field(args)
    from . import codebuilder, distance, dualspectrum, lemma
    code = codebuilder.build_code(ctx)
    spectral, direct = _enumerators(ctx, args.method, args.budget)
    enum = spectral if spectral is not None else direct
    dist_report = distance.conclude_distance(code, dual_enum=enum, budget=args.budget)
    lemma_docs = [lemma.lemma_check(ctx, eps).to_json_dict() for eps in (1, 2)]

    predicted = dualspectrum.weight_value_set(ctx.m)
    checks = {
        "d_equals_4": dist_report.concluded_d == 4,
        "lemma_empty": all(d["solution_count"] == 0 for d in lemma_docs),
        "weights_in_predicted_set": enum.support() <= predicted,
        "paths_agree": spectral == direct if args.method == "both" else None,
        "fixture_match": None,
    }
    fixture = _load_fixture(ctx.m) if ctx.m in FIXTURE_MS else None
    modulus = polyring.format_poly(ctx.modulus)
    if fixture is not None and fixture["modulus"] == modulus:
        fix_counts = {int(w): c for w, c in fixture["dual_weight_enumerator"]["counts"].items()}
        checks["fixture_match"] = (
            fixture["generator"] == polyring.format_poly(code.gen)
            and fixture["n"] == code.n
            and fixture["k"] == code.k
            and fix_counts == enum.counts
        )
    elif ctx.m in FIXTURE_MS:
        why = (
            f"no m{ctx.m}.json fixture found" if fixture is None
            else f"modulus {modulus} is not the fixture's {fixture['modulus']}"
        )
        print(f"note: fixture_match is null: {why}", file=sys.stderr)
    mismatch = next(
        (name for name, ok in checks.items() if ok is False),
        None,
    )
    doc = {
        **code.to_json_dict(),
        "distance": dist_report.to_json_dict(),
        "lemma": lemma_docs,
        "dual_spectrum": {
            "method": args.method,
            "spectral": spectral.to_json_dict() if spectral else None,
            "direct": direct.to_json_dict() if direct else None,
        },
        "checks": checks,
        "mismatch": mismatch,
    }
    _emit(doc, args.out)
    return 0 if mismatch is None else 1


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
        p.add_argument("--m", type=int, required=True, help="extension degree (odd, 3..13)")
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
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # tritcodes computes in exact integers and never calls BLAS, so numpy's
    # OpenBLAS, imported below only once a modulus has passed validation,
    # needs no pool of nproc - 1 worker threads; a value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Inconsistent, NonIntegerOutput, NonIntegralWeight) as exc:
        # internal mathematical inconsistency, not bad input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except TritcodesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

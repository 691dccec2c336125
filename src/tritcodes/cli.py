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

The report command diffs against the shipped fixtures for m in {5, 7, 9}
(TRITCODES_FIXTURES overrides the directory): fixture_match compares the
JSON of each key the run writes for the code and its dual enumerator with
the JSON of that key of the fixture, so 122.0 does not match 122.  When the
diff cannot run (no fixture file, or another modulus) fixture_match is null
and a one-line note on stderr says why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import polyring
from .exceptions import DEFAULT_BUDGET, TritcodesError
from .gf3m import MAX_M, check_modulus, make_field

# tritcodes computes in exact integers and never calls BLAS, so numpy's
# OpenBLAS needs no pool of nproc - 1 worker threads.  Set on import, before
# any command imports numpy, so every caller of main runs one thread; a value
# the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

FIXTURE_MS = (5, 7, 9)


# Top-level fixture keys and their JSON types; counts maps ASCII decimal weights to ints.
FIXTURE_SHAPE = {
    "n": int, "k": int, "modulus": str, "generator": str, "dual_weight_enumerator": dict,
}


def _load_fixture(m: int) -> dict | None:
    """The m{m}.json fixture, None when absent; ValueError when malformed or unreadable."""
    override = os.environ.get("TRITCODES_FIXTURES")
    base = Path(override) if override else resources.files("tritcodes") / "fixtures"
    ref = base / f"m{m}.json"
    try:
        if not ref.is_file():
            return None
        doc = json.loads(ref.read_text(encoding="utf-8"))
    except OSError as exc:  # e.g. a path too long or unreadable: invalid input, exit 2
        raise ValueError(f"cannot read fixture: {exc}") from None
    ok = isinstance(doc, dict) and all(
        isinstance(doc.get(key), kind) for key, kind in FIXTURE_SHAPE.items()
    )
    counts = doc["dual_weight_enumerator"].get("counts") if ok else None
    if not isinstance(counts, dict) or not all(
        w.isascii() and w.isdigit() and type(c) is int for w, c in counts.items()
    ):
        raise ValueError(
            f"malformed fixture {ref}: need {', '.join(FIXTURE_SHAPE)}"
            " and dual_weight_enumerator.counts mapping ASCII decimal weights to int counts"
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


def cmd_construct(modulus, args) -> tuple[dict, bool]:
    from . import codebuilder
    return codebuilder.construct(args.m, modulus).to_json_dict(), True


def cmd_verify_distance(ctx, args) -> tuple[dict, bool]:
    from . import codebuilder, distance
    report = distance.conclude_distance(codebuilder.build_code(ctx), budget=args.budget)
    return report.to_json_dict(), report.concluded_d == 4


def _enumerators(ctx, args) -> dict:
    """The dual weight enumerators --method asks for, by path name, spectral first."""
    from . import dualspectrum
    paths = {
        "spectral": dualspectrum.spectral_enumerator,
        "direct": dualspectrum.direct_enumerator,
    }
    return {
        name: path(ctx, budget=args.budget)
        for name, path in paths.items()
        if args.method in (name, "both")
    }


def cmd_dual_spectrum(ctx, args) -> tuple[dict, bool]:
    enums = _enumerators(ctx, args)
    if args.method != "both":
        return enums[args.method].to_json_dict(), True
    agree = enums["spectral"] == enums["direct"]
    return {**{name: e.to_json_dict() for name, e in enums.items()}, "agree": agree}, agree


def _lemma_docs(ctx) -> tuple[list[dict], bool]:
    """The epsilon = 1, 2 lemma reports as JSON, and whether both are empty."""
    from . import lemma
    docs = [lemma.lemma_check(ctx, eps).to_json_dict() for eps in (1, 2)]
    return docs, all(d["solution_count"] == 0 for d in docs)


def cmd_lemma_check(ctx, args) -> tuple[dict, bool]:
    docs, empty = _lemma_docs(ctx)
    return {"m": ctx.m, "reports": docs}, empty


def cmd_report(ctx, args) -> tuple[dict, bool]:
    from . import codebuilder, distance, dualspectrum
    code = codebuilder.build_code(ctx)
    enums = _enumerators(ctx, args)
    enum = next(iter(enums.values()))
    dist_report = distance.conclude_distance(code, dual_enum=enum, budget=args.budget)
    lemma_docs, lemma_empty = _lemma_docs(ctx)
    checks = {
        "d_equals_4": dist_report.concluded_d == 4,
        "lemma_empty": lemma_empty,
        "weights_in_predicted_set": enum.support() <= dualspectrum.weight_value_set(ctx.m),
        "paths_agree": enums["spectral"] == enums["direct"] if args.method == "both" else None,
        "fixture_match": None,
    }
    code_doc = code.to_json_dict()
    written = {**code_doc, "dual_weight_enumerator": enum.to_json_dict()}
    fixture = _load_fixture(ctx.m) if ctx.m in FIXTURE_MS else None
    if fixture is not None and fixture["modulus"] == code_doc["modulus"]:
        checks["fixture_match"] = all(
            json.dumps(fixture.get(key), sort_keys=True) == json.dumps(val, sort_keys=True)
            for key, val in written.items()
        )
    elif ctx.m in FIXTURE_MS:
        why = (
            f"no m{ctx.m}.json fixture found" if fixture is None
            else f"modulus {code_doc['modulus']} is not the fixture's {fixture['modulus']}"
        )
        print(f"note: fixture_match is null: {why}", file=sys.stderr)
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

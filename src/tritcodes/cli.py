"""Command-line entry point.

Commands: construct | verify-distance | dual-spectrum | lemma-check | report.
Each is cmd_x(ctx, args) -> (doc, passed), ctx the make_field context of
--m and --modulus: numpy loads on the first field table a command reads, so
construct, lemma-check and a refused modulus never load it.  The library
compares the two paths of a claim (lemma.reports, dualspectrum.enumerators);
main alone builds ctx, writes doc and maps passed to the exit code.
All output is UTF-8 JSON, newline-terminated, with fixed key order and
counts maps keyed by decimal strings sorted numerically, so byte-level
diffing works.  Exit codes: 0 = all checks pass, 1 = a check failed (the
doc is written) or a self-check raised Inconsistent (nothing is written),
2 = invalid input (an unwritable stdout included).  Stdout is the one output
path; the error: and note: lines go to stderr, and nowhere when it is closed.

The report command diffs against the fixtures shipped as package data for
m in {5, 7, 9}, which hold what a run with the default modulus writes for
the code and its dual enumerator: fixture_match is true when the file's text
is those bytes.  When the diff cannot run (no fixture file, or another
modulus) fixture_match is null and a one-line note on stderr says why.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import polyring
from .exceptions import DEFAULT_BUDGET, TritcodesError
from .gf3m import DEFAULT_MODULI, MAX_M, make_field

# tritcodes computes in exact integers and never calls BLAS, so numpy's
# OpenBLAS needs no pool of nproc - 1 worker threads.  Set on import, before
# any command imports numpy, so every caller of main runs one thread; a value
# the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

FIXTURE_MS = (5, 7, 9)
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _json(doc: dict) -> str:
    import json  # here, not at the top: a refused modulus or flag writes no JSON
    return json.dumps(doc, indent=2) + "\n"


def _emit(doc: dict) -> None:
    try:
        if sys.stdout is None:  # fd 1 was closed when Python started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(_json(doc))
        sys.stdout.flush()
    except OSError as exc:  # a full device, a closed fd: invalid input, exit 2
        raise ValueError(f"cannot write stdout: {exc}") from None


def _fixture_match(written: dict) -> bool | None:
    """Whether fixtures/m{m}.json holds written's bytes; None off FIXTURE_MS, and None
    with a note on stderr when that file is missing or the modulus is not the default."""
    m = written["m"]
    if m not in FIXTURE_MS:
        return None
    ref = os.path.join(FIXTURES, f"m{m}.json")
    modulus = polyring.format_poly(DEFAULT_MODULI[m])
    if not os.path.isfile(ref):
        why = f"no m{m}.json fixture found"
    elif written["modulus"] != modulus:
        why = f"modulus {written['modulus']} is not the fixture's {modulus}"
    else:
        with open(ref, encoding="utf-8") as f:
            return f.read() == _json(written)
    print(f"note: fixture_match is null: {why}", file=sys.stderr)
    return None


def cmd_construct(ctx, args) -> tuple[dict, bool]:
    from . import codebuilder
    return codebuilder.build_code(ctx).to_json_dict(), True


def cmd_verify_distance(ctx, args) -> tuple[dict, bool]:
    from . import codebuilder, distance
    report = distance.conclude_distance(codebuilder.build_code(ctx), budget=args.budget)
    return report.to_json_dict(), report.concluded_d == 4


def cmd_dual_spectrum(ctx, args) -> tuple[dict, bool]:
    from . import dualspectrum
    enums, agree = dualspectrum.enumerators(ctx, args.method, args.budget)
    if agree is None:
        return enums[args.method].to_json_dict(), True
    return {**{name: e.to_json_dict() for name, e in enums.items()}, "agree": agree}, agree


def cmd_lemma_check(ctx, args) -> tuple[dict, bool]:
    from . import lemma
    reports = lemma.reports(ctx, orbit_scan=False)
    docs = [r.to_json_dict() for r in reports]
    return {"m": ctx.m, "reports": docs}, not any(r.solution_count for r in reports)


def cmd_report(ctx, args) -> tuple[dict, bool]:
    from . import codebuilder, distance, dualspectrum, lemma
    code = codebuilder.build_code(ctx)
    enums, agree = dualspectrum.enumerators(ctx, args.method, args.budget)
    enum = next(iter(enums.values()))
    dist_report = distance.conclude_distance(code, dual_enum=enum, budget=args.budget)
    lemma_reports = lemma.reports(ctx, orbit_scan=True)
    code_doc = code.to_json_dict()
    written = {**code_doc, "dual_weight_enumerator": enum.to_json_dict()}
    checks = {
        "d_equals_4": dist_report.concluded_d == 4,
        "lemma_empty": not any(r.solution_count for r in lemma_reports),
        "weights_in_predicted_set": enum.counts.keys() <= dualspectrum.weight_value_set(ctx.m),
        "paths_agree": agree,
        "fixture_match": _fixture_match(written),
    }
    mismatch = next((name for name, ok in checks.items() if ok is False), None)
    doc = {
        **code_doc,
        "distance": dist_report.to_json_dict(),
        "lemma": [r.to_json_dict() for r in lemma_reports],
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
        if name in ("verify-distance", "dual-spectrum", "report"):
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
    # With fd 2 closed at start sys.stderr is None, and print(file=None) and
    # argparse's usage line would write to stdout: drop them in os.devnull.
    sys.stderr = sys.stderr or open(os.devnull, "w")
    args = build_parser().parse_args(argv)
    try:
        modulus = None if args.modulus is None else polyring.parse_poly(args.modulus)
        doc, passed = args.func(make_field(args.m, modulus), args)
        _emit(doc)
        return 0 if passed else 1
    except TritcodesError as exc:  # Inconsistent exits 1, invalid input 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """main() as a process of its own: main flushes stdout, run stderr, then
    os._exit skips the interpreter's teardown.  An exception propagates uncaught."""
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()

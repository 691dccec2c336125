"""Per-layer tracing of one tritcodes CLI command, in a fresh process.

    python3 perfbench/tracer.py SPANS_JSON CLI_ARG...

Wraps the public functions of the library modules, and `cli.main`, on the
module attributes through which callers look them up, then runs
`tritcodes.cli.main(CLI_ARGS)`.  Each call records a span: name, start,
end, parent span, the work it did by the models in WORK_MODELS and, for
the functions in PEAK_TRACED, the peak bytes tracemalloc saw its own code
allocate (numpy buffers included).  Spans stay in memory and are written to SPANS_JSON when the command
ends.  Stdout and the exit code are those of `python -m tritcodes.cli`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from math import comb
from pathlib import Path
from typing import Callable

# The layers are the modules of src/tritcodes.  In `cli` only `main` is
# wrapped, so its self time is argument parsing, fixture load and JSON emit.
LAYERS = ("cli", "gf3m", "polyring", "codebuilder", "distance", "lemma", "dualspectrum")

# Span fields, in the order each span is stored.
NAME, START, END, PARENT, PEAK, WORK = range(6)


def _pairs_to_row(n: int, rows: int) -> int:
    """(t2, t3) pairs with 1 <= t2 <= rows < t3 < n: sum of n - 1 - t2."""
    return rows * (n - 1) - rows * (rows + 1) // 2


def _witness_pairs(args: dict, result, exc) -> int:
    n = args["code"].n
    rows = result["support"][1] if result else n - 1
    return _pairs_to_row(n, rows)


def _oracle_checks(args: dict, result, exc) -> int:
    if exc is not None:  # BudgetExceeded is raised before any work
        return 0
    n = args["code"].n
    return sum(comb(n, w) * 2 ** (w - 1) for w in range(1, args["wmax"] + 1))


def _table_entries(args: dict, result, exc) -> int:
    # In a one-command process the field cache is empty, so a call that gets
    # past validation builds tables; NotPrimitive is raised after the build.
    if exc is None or type(exc).__name__ == "NotPrimitive":
        return 3 ** args["m"]
    return 0


# Work done by one call, from its bound arguments, result and exception.
WORK_MODELS: dict[str, Callable[[dict, object, BaseException | None], int]] = {
    "gf3m.make_field": _table_entries,
    "distance.weight3_search": lambda a, r, e: 4 * (a["code"].n - 1),
    "distance.weight4_witness": _witness_pairs,
    "distance.brute_force_min_weight": _oracle_checks,
    "lemma.lemma_check": lambda a, r, e: r.scanned if r is not None else 0,
    "dualspectrum.spectral_enumerator": lambda a, r, e: a["ctx"].order,
    "dualspectrum.direct_enumerator": lambda a, r, e: (a["ctx"].order + 1) ** 2,
}

# Unit of each function's work count.
WORK_UNITS = {
    "gf3m.make_field": "entries",
    "distance.weight3_search": "candidates",
    "distance.weight4_witness": "pairs",
    "distance.brute_force_min_weight": "checks",
    "lemma.lemma_check": "elements",
    "dualspectrum.spectral_enumerator": "points",
    "dualspectrum.direct_enumerator": "pairs",
}

# The per-layer metrics the benchmark reports, by function.
LAYER_METRICS = {
    "gf3m.make_field": ("self_s", "calls", "work", "peak_alloc_mb"),
    "polyring.is_irreducible": ("self_s", "calls"),
    "polyring.minimal_polynomial": ("self_s", "calls"),
    "codebuilder.build_code": ("self_s", "calls"),
    "distance.weight2_search": ("self_s", "calls"),
    "distance.weight3_search": ("self_s", "calls", "work", "peak_alloc_mb"),
    "distance.weight4_witness": ("self_s", "calls", "work", "peak_alloc_mb"),
    "distance.brute_force_min_weight": ("self_s", "calls", "work"),
    "distance.conclude_distance": ("self_s", "calls"),
    "distance.macwilliams": ("self_s", "calls"),
    "lemma.lemma_check": ("self_s", "calls", "work", "peak_alloc_mb"),
    "dualspectrum.spectral_enumerator": ("self_s", "calls", "work", "peak_alloc_mb"),
    "dualspectrum.direct_enumerator": ("self_s", "calls", "work"),
    "cli.main": ("self_s", "calls"),
}

PEAK_TRACED = {name for name, qs in LAYER_METRICS.items() if "peak_alloc_mb" in qs}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, trace.overhead_s last."""
    units = {"self_s": "s", "calls": "count", "peak_alloc_mb": "MiB"}
    out = {
        f"{name}.{q}": WORK_UNITS[name] if q == "work" else units[q]
        for name, quantities in LAYER_METRICS.items()
        for q in quantities
    }
    out["trace.overhead_s"] = "s"
    return out


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        # open spans: [index, traces allocations, bytes still held from its
        # earlier tracemalloc sessions, peak so far]
        self._stack: list[list] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        work_of = WORK_MODELS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                end = time.perf_counter()
                work = 0
                if work_of is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work = work_of(bound.arguments, result, exc)
                self._exit(index, end, work)

        return traced

    # tracemalloc slows every allocation, tens of times over in pure-Python
    # loops such as is_codeword at m = 13.  So it runs only while the
    # innermost open span is one in PEAK_TRACED, and a span's peak counts
    # what its own code allocates.  Frees of blocks allocated before a
    # nested call are not seen after it, so the figure can only err high.

    def _pause(self) -> None:
        if self._stack and self._stack[-1][1]:
            frame = self._stack[-1]
            current, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            frame[3] = max(frame[3], frame[2] + peak)
            frame[2] += current

    def _resume(self) -> None:
        if self._stack and self._stack[-1][1]:
            tracemalloc.start()

    def _enter(self, name: str) -> int:
        self._pause()
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([index, name in PEAK_TRACED, 0, 0])
        self._resume()
        self.spans.append([name, time.perf_counter(), None, parent, 0, 0])
        return index

    def _exit(self, index: int, end: float, work: int) -> None:
        self._pause()
        peak = self._stack.pop()[3]
        span = self.spans[index]
        span[END], span[PEAK], span[WORK] = end, peak, work
        self._resume()


def install(tracer: Tracer) -> None:
    """Replace every reference to a layer function in tritcodes by its wrapper.

    Callers either resolve a function as a module global of its own module
    (`distance.weight3_search` inside `conclude_distance`) or import it by
    name (`cli.make_field`), so every tritcodes module's globals are patched.
    """
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"tritcodes.{layer}")
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and (layer != "cli" or attr == "main")
            ):
                wrappers[value] = tracer.wrap(f"{layer}.{attr}", value)
    for modname, module in list(sys.modules.items()):
        if modname == "tritcodes" or modname.startswith("tritcodes."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def summarize(commands: list[list[list]]) -> dict[str, dict[str, float]]:
    """Per function over the commands' span lists: summed self time, calls,
    summed work, and the largest peak allocation."""
    out: dict[str, dict[str, float]] = {}
    for spans in commands:
        for span, self_s in zip(spans, self_times(spans)):
            row = out.setdefault(
                span[NAME], {"self_s": 0.0, "calls": 0, "work": 0, "peak_alloc_mb": 0.0}
            )
            row["self_s"] += self_s
            row["calls"] += 1
            row["work"] += span[WORK]
            row["peak_alloc_mb"] = max(row["peak_alloc_mb"], span[PEAK] / 2**20)
    return out


def main() -> None:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import tritcodes.cli

    tracer = Tracer()
    install(tracer)
    try:
        code = tritcodes.cli.main(argv)
    finally:
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    sys.exit(code)


if __name__ == "__main__":
    main()

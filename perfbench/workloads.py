"""Workloads of the tritcodes benchmark and the checks on their outputs.

A workload is a list of CLI commands generated from a seed; the program
under test only sees the resulting argv.  Every command carries the exit
code it must return and a check on its JSON output.  The checks read keys,
not bytes, so output blocks added later do not break them; byte equality
across runs is checked separately by the runner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from sympy import Poly, factorint, symbols
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod

WORKLOADS = ("fixtures", "distance13", "moduli")

# setup_s: the workload's largest m, where a fresh `construct` is timed, and
# how many times; more at m = 9, where one run is short and noisier.
SETUP = {"fixtures": (9, 15), "distance13": (13, 7), "moduli": (13, 7)}

MODULI_MS = (7, 9, 11, 13)

_X = symbols("x")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit_code: int
    # Check on the parsed stdout; None means stdout must be empty.
    check: Callable[[dict], bool] | None


def _report_ok(m: int) -> Callable[[dict], bool]:
    def check(doc: dict) -> bool:
        checks = doc["checks"]
        return (
            doc["m"] == m
            and checks["fixture_match"] is True
            and doc["mismatch"] is None
            and (m != 5 or checks["paths_agree"] is True)
        )

    return check


def _distance_ok(doc: dict) -> bool:
    return doc["d"] == 4


def _lemma_ok(m: int) -> Callable[[dict], bool]:
    def check(doc: dict) -> bool:
        reports = doc["reports"]
        return (
            doc["m"] == m
            and sorted(r["epsilon"] for r in reports) == [1, 2]
            and all(r["solution_count"] == 0 for r in reports)
        )

    return check


def _construct_ok(m: int, modulus: str | None = None) -> Callable[[dict], bool]:
    def check(doc: dict) -> bool:
        return (
            doc["m"] == m
            and doc["n"] == 3**m - 1
            and doc["k"] == doc["n"] - 2 * m
            and len(doc["generator"].split(",")) - 1 == 2 * m
            and (modulus is None or doc["modulus"] == modulus)
        )

    return check


def setup_command(m: int) -> Command:
    """`construct --m m` with the default modulus: import, tables, code."""
    return Command(("construct", "--m", str(m)), 0, _construct_ok(m))


def classify(modulus: tuple[int, ...]) -> str:
    """'primitive', 'irreducible' (x not primitive) or 'reducible', by sympy.

    `modulus` is a monic ascending trit tuple.  Primitivity is the order of
    x modulo f: x^((3^m - 1)/p) != 1 for every prime p dividing 3^m - 1.
    """
    desc = list(reversed(modulus))
    if not Poly(desc, _X, modulus=3).is_irreducible:
        return "reducible"
    order = 3 ** (len(modulus) - 1) - 1
    for p in factorint(order):
        if gf_pow_mod([1, 0], order // p, desc, 3, ZZ) == [1]:
            return "irreducible"
    return "primitive"


def _draw_modulus(rng: random.Random, m: int, label: str) -> tuple[int, ...]:
    while True:
        modulus = tuple(rng.randrange(3) for _ in range(m)) + (1,)
        if classify(modulus) == label:
            return modulus


def _moduli_commands(rng: random.Random) -> list[Command]:
    """Per m: two primitive moduli, one irreducible non-primitive, one reducible.

    Primitive moduli get `construct` and, below m = 13, `lemma-check`; at
    m = 13 the lemma scan reads the tables for seconds, which is the
    distance13 workload's job.  The others exit 2, after a full table build
    (irreducible) or right after the irreducibility test (reducible).
    """
    plan = []
    for m in MODULI_MS:
        second = "construct" if m == 13 else "lemma-check"
        plan += [
            ("construct", m, _draw_modulus(rng, m, "primitive")),
            (second, m, _draw_modulus(rng, m, "primitive")),
            (rng.choice(("construct", "lemma-check")), m, _draw_modulus(rng, m, "irreducible")),
            (rng.choice(("construct", "lemma-check")), m, _draw_modulus(rng, m, "reducible")),
        ]
    cmds = []
    for name, m, modulus in plan:
        text = ",".join(map(str, modulus))
        argv = (name, "--m", str(m), "--modulus", text)
        if classify(modulus) != "primitive":
            cmds.append(Command(argv, 2, None))
        elif name == "construct":
            cmds.append(Command(argv, 0, _construct_ok(m, text)))
        else:
            cmds.append(Command(argv, 0, _lemma_ok(m)))
    return cmds


def commands(workload: str, seed: int) -> list[Command]:
    """One pass of `workload`; the seed fixes moduli and command order."""
    rng = random.Random(seed)
    if workload == "fixtures":
        cmds = [
            Command(("report", "--m", "5", "--method", "both"), 0, _report_ok(5)),
            Command(("report", "--m", "7"), 0, _report_ok(7)),
            Command(("report", "--m", "9"), 0, _report_ok(9)),
        ]
    elif workload == "distance13":
        cmds = [
            Command(("verify-distance", "--m", "13"), 0, _distance_ok),
            Command(("lemma-check", "--m", "13"), 0, _lemma_ok(13)),
        ]
    elif workload == "moduli":
        cmds = _moduli_commands(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(cmds)
    return cmds

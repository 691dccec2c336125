"""Tests of the benchmark itself: workload generation, tracing arithmetic,
and that tracing leaves the CLI's results unchanged.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _polymulmod(a: list[int], b: list[int], f: list[int]) -> list[int]:
    """a*b mod the monic f over GF(3); ascending coefficient lists."""
    m = len(f) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % 3
    for top in range(len(out) - 1, m - 1, -1):
        c = out[top]
        if c:
            for i in range(m + 1):
                out[top - m + i] = (out[top - m + i] - c * f[i]) % 3
    return (out + [0] * m)[:m]


def _brute_label(modulus: tuple[int, ...]) -> str:
    """Trial division by every monic polynomial of degree <= m/2, then the
    order of x by repeated multiplication."""
    f = list(modulus)
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(3), repeat=d):
            g = list(low) + [1]
            rem = f[:]
            for top in range(m, d - 1, -1):
                c = rem[top]
                if c:
                    for i in range(d + 1):
                        rem[top - d + i] = (rem[top - d + i] - c * g[i]) % 3
            if not any(rem[:d]):
                return "reducible"
    one = [1] + [0] * (m - 1)
    x = [0, 1] + [0] * (m - 2)
    power, order = x, 1
    while power != one:
        power, order = _polymulmod(power, x, f), order + 1
    return "primitive" if order == 3**m - 1 else "irreducible"


def test_classify_matches_brute_force_for_every_quintic():
    for low in itertools.product(range(3), repeat=5):
        modulus = low + (1,)
        assert workloads.classify(modulus) == _brute_label(modulus), modulus


def test_moduli_workload_is_seeded_and_labelled_right():
    first = workloads.commands("moduli", 7)
    again = workloads.commands("moduli", 7)
    other = workloads.commands("moduli", 8)
    assert [(c.argv, c.exit_code) for c in first] == [(c.argv, c.exit_code) for c in again]
    assert {c.argv for c in first} != {c.argv for c in other}

    labels: dict[int, list[str]] = {m: [] for m in workloads.MODULI_MS}
    for cmd in first:
        m = int(cmd.argv[2])
        modulus = tuple(int(t) for t in cmd.argv[4].split(","))
        label = workloads.classify(modulus)
        labels[m].append(label)
        assert cmd.exit_code == (0 if label == "primitive" else 2)
        if m <= 9:
            assert label == _brute_label(modulus), cmd.argv
    for m, got in labels.items():
        assert sorted(got) == ["irreducible", "primitive", "primitive", "reducible"], m


def test_self_time_subtracts_the_union_of_child_spans():
    # name, start, end, parent, peak, work
    spans = [
        ["root", 0.0, 10.0, -1, 0, 0],
        ["a", 1.0, 4.0, 0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0, 0],
        ["b", 3.0, 6.0, 0, 0, 0],  # overlaps a: covered once
        ["c", 8.0, 12.0, 0, 0, 0],  # ends after root: clipped
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_summarize_keeps_parents_within_each_command():
    first = [["f", 0.0, 4.0, -1, 2**20, 3], ["g", 1.0, 2.0, 0, 0, 0]]
    second = [["g", 0.0, 1.0, -1, 0, 0], ["f", 0.0, 1.0, 0, 2**21, 5]]
    rows = tracer.summarize([first, second])
    assert rows["f"] == {"self_s": 4.0, "calls": 2, "work": 8, "peak_alloc_mb": 2.0}
    assert rows["g"] == {"self_s": 1.0, "calls": 2, "work": 0, "peak_alloc_mb": 0.0}


def test_wrapper_returns_and_raises_what_the_function_does():
    pytest.importorskip("tritcodes")
    from tritcodes import gf3m
    from tritcodes.exceptions import EvenDegree

    t = tracer.Tracer()
    make_field = t.wrap("gf3m.make_field", gf3m.make_field)
    assert make_field(5) is gf3m.make_field(5)
    with pytest.raises(EvenDegree):
        make_field(4)
    assert [s[tracer.NAME] for s in t.spans] == ["gf3m.make_field"] * 2
    assert [s[tracer.WORK] for s in t.spans] == [3**5, 0]


def _cli(prefix: list[str], argv: list[str]) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "TRITCODES_FIXTURES"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, *prefix, *argv], env=env, capture_output=True, timeout=120
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--m", "3", "--method", "both"],
        ["lemma-check", "--m", "7", "--modulus", "1,1,1,1,1,1,1,1"],
    ],
)
def test_traced_cli_prints_what_the_untraced_cli_prints(argv, tmp_path):
    spans_path = tmp_path / "spans.json"
    plain = _cli(["-m", "tritcodes.cli"], argv)
    traced = _cli([str(ROOT / "perfbench" / "tracer.py"), str(spans_path)], argv)
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    spans = json.loads(spans_path.read_text())
    names = {s[tracer.NAME] for s in spans}
    assert "cli.main" in names and "gf3m.make_field" in names
    if argv[0] == "report":
        assert {"distance.brute_force_min_weight", "dualspectrum.direct_enumerator"} <= names
        assert all(s[tracer.PEAK] > 0 for s in spans if s[tracer.NAME] == "gf3m.make_field")


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

"""Benchmark of the tritcodes CLI, one workload per invocation.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0

Runs the workload's commands (see workloads.py) as fresh
`python -m tritcodes.cli` processes, one at a time, importing tritcodes
from this checkout's `src`.  It checks every command's exit code and
output, and that each command's stdout is byte-identical on every run.

--trace 0 measures end-to-end metrics: whole passes of the workload for
about --seconds, and the set-up time.  --trace 1 spends half of --seconds
on untraced passes and half on passes that run each command under
tracer.py, and reports per-layer metrics.  Either way the
metrics are printed by name with unit and sample count, a record of the
run goes to perfbench/out/, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import tracer
import workloads
from workloads import Command

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# A run must end within 180 s; no child may outlive this budget.
RUN_BUDGET_S = 170.0


@dataclass
class Pass:
    # (wall s, CPU s, peak RSS MiB) of each command, in workload order
    runs: list[tuple[float, float, float]] = field(default_factory=list)
    layers: dict[str, dict[str, float]] = field(default_factory=dict)


def typical_pass(passes: list[Pass]) -> dict[str, float]:
    """Wall and CPU time of a pass and its largest RSS, from each command's
    median over the passes.  A slow spell on a shared machine that covers
    part of one pass then moves no command's median."""
    per_command = [list(zip(*runs)) for runs in zip(*(p.runs for p in passes))]
    return {
        "wall_s": sum(statistics.median(c[0]) for c in per_command),
        "cpu_s": sum(statistics.median(c[1]) for c in per_command),
        "peak_rss_mb": max(statistics.median(c[2]) for c in per_command),
    }


class Runner:
    """Spawns CLI processes one at a time and checks what they print."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "TRITCODES_FIXTURES"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.digests: dict[tuple[str, ...], str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[dict] = []

    def spawn(self, argv: list[str]) -> tuple[int, bytes, float, os.struct_rusage]:
        """Run argv to completion; exit code, stdout, wall time, rusage."""
        out_path, err_path = OUT / "stdout", OUT / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            timeout = max(self.deadline - time.monotonic(), 0.0)
            if not select.select([pidfd], [], [], timeout)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            # wait4 gives this child's own usage; RUSAGE_CHILDREN accumulates.
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        return os.waitstatus_to_exitcode(status), out_path.read_bytes(), wall, usage

    def run(self, cmd: Command, traced: bool = False) -> tuple[float, float, float]:
        """Run one command; wall s, CPU s, peak RSS MiB.  Records failures."""
        spans_path = OUT / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            prefix = [str(ROOT / "perfbench" / "tracer.py"), str(spans_path)]
        else:
            prefix = ["-m", "tritcodes.cli"]
        code, stdout, wall, usage = self.spawn([sys.executable, *prefix, *cmd.argv])
        self.attempted += 1
        problem = _verdict(cmd, code, stdout)
        digest = hashlib.sha256(stdout).hexdigest()
        if problem is None and self.digests.setdefault(cmd.argv, digest) != digest:
            problem = "stdout differs from an earlier run of the same command"
        if problem is not None:
            stderr = (OUT / "stderr").read_text(errors="replace").strip().splitlines()
            detail = f" [{stderr[-1]}]" if stderr else ""
            self.failures.append(f"{' '.join(cmd.argv)}: {problem}{detail}")
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            self.spans.append({"command": len(self.spans), "argv": cmd.argv, "spans": spans})
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def run_pass(self, cmds: list[Command], traced: bool = False) -> Pass:
        result = Pass()
        first_span = len(self.spans)
        for cmd in cmds:
            result.runs.append(self.run(cmd, traced))
        if traced:
            result.layers = tracer.summarize([rec["spans"] for rec in self.spans[first_span:]])
        return result

    def passes(
        self,
        cmds: list[Command],
        seconds: float,
        traced: bool = False,
        before: Callable[[], None] | None = None,
    ) -> list[Pass]:
        """Whole passes, at least one, while the next is expected to end
        within `seconds`; `before()` runs ahead of each pass, in the window."""
        out: list[Pass] = []
        start = time.monotonic()
        while time.monotonic() < self.deadline:
            elapsed = time.monotonic() - start
            if out and elapsed * (len(out) + 1) / len(out) > seconds:
                break
            if before is not None:
                before()
            out.append(self.run_pass(cmds, traced))
        return out


def _verdict(cmd: Command, code: int, stdout: bytes) -> str | None:
    """Why the command's result is wrong, or None when it is right."""
    if code != cmd.exit_code:
        return f"exit code {code}, expected {cmd.exit_code}"
    if cmd.check is None:
        return None if not stdout else "unexpected stdout"
    try:
        ok = cmd.check(json.loads(stdout))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
    return None if ok else "output check failed"


def _probe(runner: Runner) -> dict:
    """Import tritcodes the way the children do; it must come from ./src."""
    script = "import numpy, tritcodes; print(tritcodes.__file__); print(numpy.__version__)"
    code, stdout, _, _ = runner.spawn([sys.executable, "-c", script])
    lines = stdout.decode().split()
    if code != 0 or len(lines) != 2:
        sys.exit(f"cannot import tritcodes from {ROOT / 'src'} (exit code {code})")
    module, numpy_version = lines
    if not Path(module).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"tritcodes resolves to {module}, outside {ROOT / 'src'}")
    return {"module": module, "numpy": numpy_version}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    OUT.mkdir(parents=True, exist_ok=True)
    env = {
        **_probe(runner),
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("# " + json.dumps(env))
    cmds = workloads.commands(args.workload, args.seed)

    # Set-up runs are spread over the plain passes, so that their median and
    # the passes' see the same spells of load on a shared machine.
    setup_m, setup_repeats = workloads.SETUP[args.workload]
    setup_cmd = workloads.setup_command(setup_m)
    setup: list[float] = []

    def time_setup() -> None:
        setup.append(runner.run(setup_cmd)[0])

    share = args.seconds / 2 if args.trace else args.seconds
    plain = runner.passes(cmds, share, before=time_setup)
    while len(setup) < setup_repeats:
        time_setup()
    traced = runner.passes(cmds, share, traced=True) if args.trace else []
    if args.trace and not traced:
        runner.failures.append("no traced pass fitted in the run budget")

    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
    end_to_end = {**typical_pass(plain), "setup_s": statistics.median(setup)}
    for name, value in end_to_end.items():
        count = f"{len(setup)} runs" if name == "setup_s" else f"{len(plain)} passes"
        print(f"{name} = {value:.6g} {units[name]}  (median of {count})")
    failed = len(runner.failures)
    print(f"fail_ratio = {failed / runner.attempted:.6g}  ({failed} of {runner.attempted} commands)")
    for line in runner.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)

    layer_units = tracer.metric_units()
    per_layer = {}
    if traced:
        for name, unit in layer_units.items():
            fn, _, quantity = name.rpartition(".")
            if name == "trace.overhead_s":
                value = typical_pass(traced)["wall_s"] - end_to_end["wall_s"]
            else:
                value = statistics.median([p.layers.get(fn, {}).get(quantity, 0) for p in traced])
            per_layer[name] = value
            print(f"{name} = {value:.6g} {unit}  (median of {len(traced)} traced passes)")

    record = {
        "env": env,
        "commands": [list(c.argv) for c in cmds],
        "setup_s": setup,
        "plain_runs": [p.runs for p in plain],
        "traced_runs": [p.runs for p in traced],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "all_layers": [p.layers for p in traced],
        "failures": runner.failures,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if traced:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(runner.spans), encoding="utf-8")

    if args.trace:
        values, value_units = per_layer, layer_units
    else:
        values, value_units = end_to_end, units
    metrics = {name: {"value": v, "unit": value_units[name]} for name, v in values.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

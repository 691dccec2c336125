"""Golden CLI outputs: the exact stdout bytes, exit code and empty stderr of
nine commands, and the one note of a budget skip.

Byte-identical default output is part of the CLI contract; stdout is the
CLI's one output path.  Each file under tests/golden/ is the stdout of
the command named in CASES, written by the CLI and committed unedited; a
change that alters one of these bytes changes the contract.  The commands
run as python -m tritcodes.cli, so through cli.run, in a fresh interpreter
with block-buffered stdout and the shipped fixtures.  The python block
under "## Library" in README.md runs here too, so the documented import
paths cannot go stale.
"""

import re
from pathlib import Path

import pytest

from conftest import fresh_python

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"

# golden file stem -> (argv, exit code); every default report and dual-spectrum to
# m = 11 checks both dual enumerators, so a _both stem names no option of its own
CASES = {
    "construct_m13": (["construct", "--m", "13"], 0),
    "construct_m13_modulus": (
        ["construct", "--m", "13", "--modulus", "1,0,0,2,0,0,1,1,2,2,1,0,0,1"], 0
    ),
    "report_m3_both": (["report", "--m", "3"], 0),
    "report_m5_both": (["report", "--m", "5"], 0),
    "verify_distance_m7": (["verify-distance", "--m", "7"], 0),
    "verify_distance_m13": (["verify-distance", "--m", "13"], 0),
    "lemma_check_m9": (["lemma-check", "--m", "9"], 0),
    "lemma_check_m13": (["lemma-check", "--m", "13"], 0),
    "dual_spectrum_m5_both": (["dual-spectrum", "--m", "5"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_bytes_and_exit_code(name):
    argv, exit_code = CASES[name]
    proc = fresh_python(["-m", "tritcodes.cli", *argv])
    assert proc.returncode == exit_code, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes()
    assert proc.stderr == b""


def test_skip_note_survives_os_exit():
    """cli.run flushes the budget's skip note before os._exit: it is all of
    stderr, and the run exits 0."""
    proc = fresh_python(["-m", "tritcodes.cli", "dual-spectrum", "--m", "3", "--budget", "129"])
    assert (proc.returncode, proc.stderr) == (
        0, b"note: skipped: direct enumeration needs ~1.30e+02 trace comparisons (budget 129)\n"
    )


def test_readme_library_example():
    """The python block under "## Library" in README.md runs as written."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0], re.M | re.S)
    namespace = {}
    exec(block.group(1), namespace)
    assert namespace["report"].concluded_d == 4
    assert namespace["enum"].counts[144] == 2420

import json
import os
import sys
from pathlib import Path

import pytest

import tritcodes
from tritcodes import cli, dualspectrum, gf3m, polyring
from tritcodes.cli import main
from tritcodes.codebuilder import build_code
from tritcodes.gf3m import DEFAULT_MODULI

from conftest import ENUM_M7, fresh_python, spectral_enum

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_m5(capsys):
    code, out, _ = run_cli(capsys, "construct", "--m", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["generator"] == "2,2,0,1,0,2,2,0,2,1,1"
    assert (doc["n"], doc["k"]) == (242, 232)
    assert out.endswith("\n")


def test_construct_m7(capsys):
    code, out, _ = run_cli(capsys, "construct", "--m", "7")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["k"]) == (2186, 2172)


def test_construct_even_m_exit_2(capsys):
    code, _, err = run_cli(capsys, "construct", "--m", "4")
    assert code == 2
    assert err == "error: EvenDegree: m must be odd, got 4\n"


def test_construct_reducible_modulus_exit_2(capsys):
    code, out, err = run_cli(capsys, "construct", "--m", "5", "--modulus", "0,0,0,0,0,1")
    assert (code, out) == (2, "")
    assert err == (
        "error: NotPrimitive: modulus is not a primitive polynomial of degree 5: 0,0,0,0,0,1\n"
    )


def test_construct_custom_modulus(capsys):
    code, out, _ = run_cli(capsys, "construct", "--m", "5", "--modulus", "1,2,0,0,0,1")
    assert code == 0
    assert json.loads(out)["modulus"] == "1,2,0,0,0,1"


def test_verify_distance_m3(capsys):
    code, out, _ = run_cli(capsys, "verify-distance", "--m", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 4
    assert doc["sphere_packing_ceiling"] == 4
    assert doc["weight_le3_witness"] is None


def test_dual_spectrum_both_m3(capsys):
    code, out, _ = run_cli(capsys, "dual-spectrum", "--m", "3")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["spectral", "direct", "agree"]
    assert doc["agree"] is True
    assert doc["spectral"]["total"] == 3**6


def test_dual_spectrum_direct_m7(capsys):
    code, out, _ = run_cli(capsys, "dual-spectrum", "--m", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["direct"]["counts"] == {str(w): c for w, c in ENUM_M7.items()}
    assert doc["agree"] is True


def test_report_method_both_prints_what_no_flag_prints(capsys):
    """report accepts an ignored --method both, which perfbench passes."""
    default = run_cli(capsys, "report", "--m", "5")
    assert default[0] == 0
    assert run_cli(capsys, "report", "--m", "5", "--method", "both") == default


def test_lemma_check_m5(capsys):
    code, out, _ = run_cli(capsys, "lemma-check", "--m", "5")
    assert code == 0
    doc = json.loads(out)
    assert [r["epsilon"] for r in doc["reports"]] == [1, 2]
    assert all(r["solution_count"] == 0 for r in doc["reports"])


def test_report_m3_both(capsys):
    code, out, _ = run_cli(capsys, "report", "--m", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatch"] is None
    assert list(doc["dual_spectrum"]) == ["spectral", "direct"]
    assert doc["checks"]["d_equals_4"] is True
    assert doc["checks"]["paths_agree"] is True
    assert doc["distance"]["d"] == 4


@pytest.mark.parametrize("m", sorted(DEFAULT_MODULI))
def test_report_matches_fixture(capsys, m):
    """Every default report matches its shipped fixture; at m = 13, above
    DIRECT_MAX_M, the direct enumerator is skipped, and the fixture freezes it."""
    code, out, err = run_cli(capsys, "report", "--m", str(m))
    skipped = m == 13
    note = "note: skipped: direct enumeration runs at m <= 11\n"
    assert (code, err) == (0, note if skipped else "")
    doc = json.loads(out)
    assert doc["checks"]["fixture_match"] is True
    assert doc["checks"]["paths_agree"] is (None if skipped else True)
    assert doc["mismatch"] is None


def test_failed_self_check_exit_1(capsys, monkeypatch):
    """A self-check that raises Inconsistent exits 1, not 2, and writes no JSON."""
    monkeypatch.setattr(polyring, "cyclotomic_coset", lambda j, m: (0,))
    code, out, err = run_cli(capsys, "construct", "--m", "5")
    assert (code, out) == (1, "")
    assert err == "error: Inconsistent: coset sizes |C_u|=1, |C_v|=1, expected 5\n"


def test_lemma_paths_that_disagree_exit_1(capsys, monkeypatch):
    """report runs the root count and the orbit scan: a count that differs
    raises Inconsistent, so report exits 1 with one error line and no JSON."""
    monkeypatch.setattr(polyring, "nonzero_root_count", lambda p, m: 1)
    code, out, err = run_cli(capsys, "report", "--m", "5")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: Inconsistent: lemma, epsilon=1: the root count finds 1 solutions,"
        " the orbit scan 0"
    ]


@pytest.fixture
def no_field_tables(monkeypatch):
    """Fresh field contexts, the default ones too (_default_field is
    cleared), whose every table raises on read."""

    def no_table(ctx):
        raise AssertionError("a field table was read")

    gf3m._default_field.cache_clear()
    for table in ("exp", "zech", "trace_by_log", "orbit_reps"):
        monkeypatch.setattr(gf3m.FieldCtx, table, property(no_table))


@pytest.mark.parametrize("command", ["construct", "lemma-check"])
def test_reads_no_field_table(capsys, no_field_tables, command):
    """construct builds m_u * m_v in GF(3)[x]/(f) and lemma-check decides the
    lemma by the root count: with every table of a fresh m = 13 context
    raising on read, each prints its golden bytes."""
    code, out, err = run_cli(capsys, command, "--m", "13")
    golden = GOLDEN / f"{command.replace('-', '_')}_m13.json"
    assert (code, out, err) == (0, golden.read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("command", ["dual-spectrum", "report"])
def test_over_budget_both_reads_no_field_table(capsys, monkeypatch, command):
    """A direct path above DIRECT_MAX_M is skipped with one note and the run
    exits 0: with the limit at 3, enumerators at m = 5 never calls
    direct_enumerator, so it reads none of that path's field tables."""

    def never(ctx):
        raise AssertionError("direct_enumerator was called")

    monkeypatch.setattr(dualspectrum, "direct_enumerator", never)
    monkeypatch.setattr(dualspectrum, "DIRECT_MAX_M", 3)
    code, out, err = run_cli(capsys, command, "--m", "5")
    doc = json.loads(out)
    assert (code, (doc["dual_spectrum"] if command == "report" else doc)["direct"]) == (0, None)
    assert err == "note: skipped: direct enumeration runs at m <= 3\n"


@pytest.mark.parametrize("command", ["dual-spectrum", "report"])
def test_budget_skips_are_noted(capsys, monkeypatch, command):
    """A direct path above DIRECT_MAX_M prints one note on stderr with the
    limit, and the stdout is the default run's but for the skipped path's
    null results; a run that skips nothing prints no note."""
    code, out, err = run_cli(capsys, command, "--m", "5")
    assert (code, err) == (0, "")
    default = json.loads(out)
    monkeypatch.setattr(dualspectrum, "DIRECT_MAX_M", 3)
    code, out, err = run_cli(capsys, command, "--m", "5")
    assert (code, err) == (0, "note: skipped: direct enumeration runs at m <= 3\n")
    if command == "dual-spectrum":
        default.update(direct=None, agree=None)
    else:
        default["dual_spectrum"]["direct"] = default["checks"]["paths_agree"] = None
    assert json.loads(out) == default


def test_skip_note_states_the_budget_as_given(capsys, monkeypatch):
    """The note gives the limit it read: with DIRECT_MAX_M at 2, m = 3 is
    skipped.  At m = DIRECT_MAX_M the path runs: both agree, and no note."""
    monkeypatch.setattr(dualspectrum, "DIRECT_MAX_M", 2)
    code, _, err = run_cli(capsys, "dual-spectrum", "--m", "3")
    assert (code, err) == (0, "note: skipped: direct enumeration runs at m <= 2\n")
    monkeypatch.setattr(dualspectrum, "DIRECT_MAX_M", 3)
    code, out, err = run_cli(capsys, "dual-spectrum", "--m", "3")
    assert (code, json.loads(out)["agree"], err) == (0, True, "")


@pytest.fixture
def direct_one_off(monkeypatch):
    """The direct enumerator with one more codeword of weight 0."""
    direct = dualspectrum.direct_enumerator

    def one_off(ctx):
        enum = direct(ctx)
        return dualspectrum.WeightEnumerator(enum.n, {**enum.counts, 0: enum.counts[0] + 1})

    monkeypatch.setattr(dualspectrum, "direct_enumerator", one_off)


def test_dual_spectrum_paths_that_disagree_exit_1(capsys, direct_one_off):
    code, out, err = run_cli(capsys, "dual-spectrum", "--m", "3")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert list(doc) == ["spectral", "direct", "agree"]
    assert doc["agree"] is False
    assert doc["direct"]["counts"]["0"] == doc["spectral"]["counts"]["0"] + 1


def test_report_paths_that_disagree_exit_1(capsys, direct_one_off):
    code, out, err = run_cli(capsys, "report", "--m", "3")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["checks"]["paths_agree"] is False
    assert doc["mismatch"] == "paths_agree"
    spectrum = doc["dual_spectrum"]
    assert spectrum["direct"]["counts"]["0"] == spectrum["spectral"]["counts"]["0"] + 1


def test_fixture_missing_noted_on_stderr(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "FIXTURES", tmp_path)
    code, out, err = run_cli(capsys, "report", "--m", "5")
    assert code == 0
    assert json.loads(out)["checks"]["fixture_match"] is None
    assert err == "note: fixture_match is null: no m5.json fixture found\n"


def test_fixture_environment_variable_is_not_read(tmp_path, capsys, monkeypatch):
    """The fixtures are package data: no environment variable moves them."""
    monkeypatch.setenv("TRITCODES_FIXTURES", str(tmp_path))
    code, out, err = run_cli(capsys, "report", "--m", "5")
    assert (code, err) == (0, "")
    assert json.loads(out)["checks"]["fixture_match"] is True


def test_fixture_modulus_mismatch_noted_on_stderr(capsys):
    # minimal polynomial of pi^5 under the default modulus: primitive, not the fixture's
    code, out, err = run_cli(capsys, "report", "--m", "5", "--modulus", "1,1,1,1,2,1")
    assert code == 0
    assert json.loads(out)["checks"]["fixture_match"] is None
    assert err == (
        "note: fixture_match is null: modulus 1,1,1,1,2,1 is not the fixture's 1,2,0,0,0,1\n"
    )


SHIPPED = Path(tritcodes.__file__).parent / "fixtures"


def _fixture_text(doc):
    """The text report writes for doc, which a fixture must hold to match."""
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("m", sorted(DEFAULT_MODULI))
def test_shipped_fixture_is_what_report_writes(m):
    """fixtures/m{m}.json holds, byte for byte, the code and dual enumerator
    that report writes with the default modulus."""
    code_doc = build_code(gf3m.make_field(m)).to_json_dict()
    written = {**code_doc, "dual_weight_enumerator": spectral_enum(m).to_json_dict()}
    assert written["modulus"] == polyring.format_poly(DEFAULT_MODULI[m])
    assert (SHIPPED / f"m{m}.json").read_bytes() == _fixture_text(written).encode()


def _m5_fixture_with(**top):
    """The shipped m5.json with the given top-level keys replaced."""
    doc = json.loads((SHIPPED / "m5.json").read_text(encoding="utf-8"))
    return {**doc, **top}


# name -> fixture text other than the bytes a run writes: other content, the
# same content under == (122.0 for 122), and the same content unindented.
OTHER_FIXTURES = {
    "wrong_generator": _fixture_text(_m5_fixture_with(generator="1,0,0,0,0,0,0,0,0,0,1")),
    "float_u": _fixture_text(_m5_fixture_with(u=122.0)),
    "shipped_without_indent": json.dumps(_m5_fixture_with()) + "\n",
}


@pytest.mark.parametrize("name", sorted(OTHER_FIXTURES))
def test_fixture_other_than_the_run_bytes_does_not_match(tmp_path, capsys, monkeypatch, name):
    (tmp_path / "m5.json").write_text(OTHER_FIXTURES[name], encoding="utf-8")
    monkeypatch.setattr(cli, "FIXTURES", tmp_path)
    code, out, err = run_cli(capsys, "report", "--m", "5")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["checks"]["fixture_match"] is False
    assert report["mismatch"] == "fixture_match"


UNKNOWN = "tritcodes: error: unrecognized arguments: "
INVALID_METHOD = "tritcodes report: error: argument --method: invalid choice"
COMMANDS = ["construct", "verify-distance", "dual-spectrum", "lemma-check", "report"]
# command and flags -> the start of the last stderr line, argparse's message
RETIRED_FLAGS = {
    "dual-spectrum --out x.json": UNKNOWN + "--out x.json",
    **{f"{command} --budget 7": UNKNOWN + "--budget 7" for command in COMMANDS},
    "dual-spectrum --method both": UNKNOWN + "--method both",
    "report --method spectral": INVALID_METHOD,
    "report --method direct": INVALID_METHOD,
}


@pytest.mark.parametrize(
    "argv", RETIRED_FLAGS, ids=lambda argv: argv.replace(" --", "--").replace(" ", "-")
)
def test_retired_flags_exit_2(capsys, argv):
    """argparse refuses --out (stdout is the one output path), the retired
    --budget on every command, --method on dual-spectrum, and every --method
    but the ignored both on report: exit 2 and nothing on stdout."""
    command, *flags = argv.split()
    with pytest.raises(SystemExit) as exc:
        main([command, "--m", "5", *flags])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1].startswith(RETIRED_FLAGS[argv])


@pytest.mark.parametrize("m", ["4", "x"])
def test_closed_stderr_writes_nothing_on_stdout(capsys, monkeypatch, m):
    """With sys.stderr None, print(file=None) and argparse's usage line would
    write to stdout: main drops its error line (m = 4) and argparse's (m = x),
    and both exit 2 with nothing on stdout."""
    monkeypatch.setattr("sys.stderr", None)
    try:
        code = main(["construct", "--m", m])
    except SystemExit as exc:
        code = exc.code
    sys.stderr.close()
    assert (code, capsys.readouterr().out) == (2, "")


def test_empty_modulus_exit_2(capsys):
    code, out, err = run_cli(capsys, "construct", "--m", "5", "--modulus", "")
    assert (code, out) == (2, "")
    assert err == "error: NotPrimitive: modulus is not a primitive polynomial of degree 5: \n"


def test_modulus_parts_may_be_spaced(capsys):
    code, out, _ = run_cli(capsys, "construct", "--m", "5", "--modulus", " 1, 2 ,0,0,0,1 ")
    assert code == 0
    assert json.loads(out)["modulus"] == "1,2,0,0,0,1"


@pytest.mark.parametrize(
    "text",
    [
        "\u0661,2,0,0,0,1",  # Arabic-Indic one
        "\uff11,2,0,0,0,1",  # fullwidth one
        "01,2,0,0,0,1",
        "+1,2,0,0,0,1",
        "1_0,2,0,0,0,1",
        ",1",
        "1,2,,0,0,0,1",
        "1,2,0,0,0,1,",
    ],
)
def test_malformed_trit_list_exit_2(capsys, text):
    """Each part of --modulus is exactly 0, 1 or 2: whatever else int() reads is refused."""
    code, out, err = run_cli(capsys, "construct", "--m", "5", "--modulus", text)
    assert (code, out) == (2, "")
    assert err == f"error: trit list may only contain 0, 1, 2: {text!r}\n"


def test_rejected_moduli_exit_2_before_numpy_loads():
    """A reducible and an irreducible but imprimitive m = 13 modulus are
    refused in GF(3)[x]: numpy is never imported."""
    script = (
        "import sys\n"
        "from tritcodes.cli import main\n"
        "for f in ('1,1,0,2,0,1,1,1,0,2,1,0,2,1', '2,2,1,2,1,0,1,2,2,1,2,1,2,1'):\n"
        "    print(main(['construct', '--m', '13', '--modulus', f]))\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = fresh_python(["-c", script], text=True)
    assert proc.stdout.split() == ["2", "2", "False"]
    refusal = "error: NotPrimitive: modulus is not a primitive polynomial of degree 13: "
    assert proc.stderr.splitlines() == [
        refusal + "1,1,0,2,0,1,1,1,0,2,1,0,2,1",
        refusal + "2,2,1,2,1,0,1,2,2,1,2,1,2,1",
    ]


def _loaded(argvs, modules, *flags):
    """Run main on each of argvs in a fresh `python *flags` with stdout sent
    to os.devnull, then print the exit codes (argparse's by SystemExit) and
    which of modules it imported."""
    program = (
        "import os, sys\nfrom tritcodes.cli import main\n"
        "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        "def code(argv):\n"
        "    try:\n        return main(argv)\n"
        "    except SystemExit as exc:\n        return exc.code\n"
        f"print(*[code(argv) for argv in {argvs!r}], file=out)\n"
        f"print(*sorted(set({modules!r}) & set(sys.modules)), sep=',', file=out)\n"
    )
    proc = fresh_python([*flags, "-c", program], text=True)
    return proc.stdout.split("\n")[:-1], proc.stderr


# Modules a command has no use for.  A process imports, and without bytecode
# caches compiles, every module it loads, so one that leaks in costs each run.
# No command imports dataclasses: every result it prints is a NamedTuple.
UNUSED_MODULES = {
    "construct": [
        "dataclasses", "numpy", "tritcodes.lemma", "tritcodes.distance",
        "tritcodes.dualspectrum",
    ],
    "lemma-check": [
        "dataclasses", "numpy", "tritcodes.codebuilder", "tritcodes.distance",
        "tritcodes.dualspectrum",
    ],
    # MacWilliams runs only on a dual enumerator, which verify-distance never has
    "verify-distance": ["dataclasses", "tritcodes.dualspectrum", "tritcodes.lemma"],
    "dual-spectrum": ["dataclasses", "tritcodes.distance", "tritcodes.lemma"],
    "report": ["dataclasses"],
}


@pytest.mark.parametrize("command", ["construct", "lemma-check"])
def test_loads_no_numpy(command):
    """construct and lemma-check get their context from make_field but read no
    field table: at m = 13, for the default and for a dense modulus, each
    exits 0 with numpy and dataclasses never imported, nor a tritcodes module
    it has no use for (construct needs no lemma, lemma-check no code)."""
    argv = [command, "--m", "13"]
    lines, err = _loaded(
        [argv, [*argv, "--modulus", "1,0,0,2,0,0,1,1,2,2,1,0,0,1"]], UNUSED_MODULES[command]
    )
    assert lines == ["0 0", ""], err


@pytest.mark.parametrize("command", ["verify-distance", "dual-spectrum", "report"])
def test_loads_no_unused_module(command):
    """The commands that read field tables load numpy, but at m = 5 each
    exits 0 with none of the modules UNUSED_MODULES lists for it imported."""
    lines, err = _loaded([[command, "--m", "5"]], UNUSED_MODULES[command])
    assert lines == ["0", ""], err


def test_start_up_imports_no_pathlib():
    """Under -S no site .pth file imports pathlib or importlib.resources
    first, so this sees whether a command does: construct and lemma-check at
    m = 13 exit 0 and a refused m = 13 modulus exits 2 with neither loaded."""
    refused = ["construct", "--m", "13", "--modulus", "1,1,0,2,0,1,1,1,0,2,1,0,2,1"]
    lines, err = _loaded(
        [["construct", "--m", "13"], ["lemma-check", "--m", "13"], refused],
        ["importlib.resources", "pathlib"],
        "-S",
    )
    assert lines == ["0 0 2", ""], err


def test_refused_input_loads_no_json():
    """cli imports json on the first JSON it writes: a refused m = 13 modulus
    and an unknown flag each exit 2 with json never loaded (-S: no site .pth
    file imports it first)."""
    refused = ["construct", "--m", "13", "--modulus", "1,1,0,2,0,1,1,1,0,2,1,0,2,1"]
    lines, err = _loaded([refused, ["construct", "--m", "13", "--bogus"]], ["json"], "-S")
    assert lines == ["2 2", ""], err


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_starts_no_blas_threads():
    """Importing tritcodes.cli caps numpy's OpenBLAS pool at one thread before
    numpy loads, when OPENBLAS_NUM_THREADS is unset: for a command run by main,
    and for the layers imported next, as perfbench's tracer does."""
    for script in (
        "from tritcodes.cli import main\nsys.stdout = open(os.devnull, 'w')\n"
        "main(['verify-distance', '--m', '5'])\nsys.stdout = sys.__stdout__\n",
        "import tritcodes.cli\nimport tritcodes.distance\n",
    ):
        program = (
            "import os, sys\n"
            + script
            + "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))\n"
        )
        proc = fresh_python(["-c", program], "OPENBLAS_NUM_THREADS", text=True)
        assert proc.stdout.split() == ["True", "1"], (script, proc.stderr)


# run() ends the process by os._exit, so nothing but main's and run()'s own
# flushes writes out the buffers: these run it in fresh interpreters whose
# stdout is block-buffered (fresh_python drops PYTHONUNBUFFERED).
CLI = ["-m", "tritcodes.cli"]


def test_run_flushes_stdout_redirected_to_a_file(tmp_path):
    path = tmp_path / "construct_m13.json"
    with path.open("wb") as out:
        proc = fresh_python([*CLI, "construct", "--m", "13"], stdout=out)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert path.read_bytes() == (GOLDEN / "construct_m13.json").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_run_stdout_on_a_full_device_exit_2(flags):
    """A failed stdout write, in the flush after it or, with -u, in the write
    itself, gives one error line and exit 2."""
    with open("/dev/full", "wb") as full:
        proc = fresh_python([*flags, *CLI, "construct", "--m", "5"], stdout=full, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(os.name != "posix", reason="closes an fd in the child before exec")
def test_run_closed_stdout_exit_2():
    """With fd 1 closed Python starts with sys.stdout None: an unwritable
    stdout like any other, one error line and exit 2."""
    proc = fresh_python([*CLI, "construct", "--m", "5"], preexec_fn=lambda: os.close(1), text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: [Errno 9] Bad file descriptor\n"


@pytest.mark.skipif(os.name != "posix", reason="closes an fd in the child before exec")
@pytest.mark.parametrize("m, code", [("5", 0), ("4", 2)])
def test_run_closed_stderr_keeps_exit_code_and_stdout(m, code):
    """With fd 2 closed Python starts with sys.stderr None: a pass (m = 5) and
    a refused m (4, whose error line has nowhere to go) exit as they do with
    stderr open, and write the same stdout."""
    argv = [*CLI, "construct", "--m", m]
    want = fresh_python(argv)
    proc = fresh_python(argv, preexec_fn=lambda: os.close(2))
    assert (want.returncode, proc.returncode, proc.stderr) == (code, code, b"")
    assert proc.stdout == want.stdout


def test_run_refused_modulus_exit_2():
    reducible = "1,1,0,2,0,1,1,1,0,2,1,0,2,1"
    proc = fresh_python([*CLI, "construct", "--m", "13", "--modulus", reducible], text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: NotPrimitive: modulus is not a primitive polynomial of degree 13: {reducible}\n"
    )


def test_run_failed_self_check_exit_1():
    script = (
        "import sys\n"
        "from tritcodes import cli, polyring\n"
        "polyring.cyclotomic_coset = lambda j, m: (0,)\n"
        "sys.argv = ['tritcodes', 'construct', '--m', '5']\n"
        "cli.run()\n"
    )
    proc = fresh_python(["-c", script], text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: Inconsistent: coset sizes |C_u|=1, |C_v|=1, expected 5\n"

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tritcodes
from tritcodes import cli, dualspectrum, fieldctx, gf3m, polyring
from tritcodes.cli import main
from tritcodes.codebuilder import build_code
from tritcodes.gf3m import DEFAULT_MODULI

from conftest import ENUM_M7


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
    assert "EvenDegree" in err


def test_construct_reducible_modulus_exit_2(capsys):
    code, _, err = run_cli(capsys, "construct", "--m", "5", "--modulus", "0,0,0,0,0,1")
    assert code == 2
    assert "NotIrreducible" in err


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
    code, out, _ = run_cli(capsys, "dual-spectrum", "--m", "3", "--method", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["spectral"]["total"] == 3**6


def test_dual_spectrum_direct_m7(capsys):
    code, out, _ = run_cli(capsys, "dual-spectrum", "--m", "7", "--method", "direct")
    assert code == 0
    assert json.loads(out)["counts"] == {str(w): c for w, c in ENUM_M7.items()}


def test_dual_spectrum_direct_budget_gate_m11(capsys):
    code, out, err = run_cli(capsys, "dual-spectrum", "--m", "11", "--method", "direct")
    assert (code, out) == (2, "")
    assert err == (
        "error: BudgetExceeded: direct enumeration needs ~3.14e+10 trace lookups"
        " (budget 1e+09)\n"
    )


def test_dual_spectrum_spectral_budget_gate_m9(capsys):
    code, out, err = run_cli(capsys, "dual-spectrum", "--m", "9", "--budget", "100000")
    assert (code, out) == (2, "")
    assert err == (
        "error: BudgetExceeded: spectral transform needs ~1.77e+05 operations"
        " (budget 1e+05)\n"
    )


def test_lemma_check_m5(capsys):
    code, out, _ = run_cli(capsys, "lemma-check", "--m", "5")
    assert code == 0
    doc = json.loads(out)
    assert [r["epsilon"] for r in doc["reports"]] == [1, 2]
    assert all(r["solution_count"] == 0 for r in doc["reports"])


def test_report_m3_both(capsys):
    code, out, _ = run_cli(capsys, "report", "--m", "3", "--method", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatch"] is None
    assert doc["checks"]["d_equals_4"] is True
    assert doc["checks"]["paths_agree"] is True
    assert doc["distance"]["d"] == 4


@pytest.mark.parametrize("m", [5, 7, 9])
def test_report_matches_fixture(capsys, m):
    code, out, _ = run_cli(capsys, "report", "--m", str(m))
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["fixture_match"] is True


def test_report_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "report", "--m", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text(encoding="utf-8"))
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
    """Fresh field contexts whose every table raises on read."""

    def no_table(ctx):
        raise AssertionError("a field table was read")

    monkeypatch.setattr(gf3m, "_FIELD_CACHE", {})
    for table in ("exp", "log", "zech", "trace_by_log", "orbit_reps"):
        monkeypatch.setattr(fieldctx.FieldCtx, table, property(no_table))


def test_lemma_check_reads_no_field_table(capsys, no_field_tables):
    """lemma-check decides the lemma by the root count: with every table of a
    fresh m = 13 context raising on read, it prints its golden bytes."""
    code, out, err = run_cli(capsys, "lemma-check", "--m", "13")
    golden = Path(__file__).parent / "golden" / "lemma_check_m13.json"
    assert (code, out, err) == (0, golden.read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("command", ["dual-spectrum", "report"])
def test_over_budget_both_reads_no_field_table(capsys, no_field_tables, command):
    """--method both runs the direct path first, whose estimate is never below
    the spectral one: a refused run exits 2 before any table is read."""
    code, out, err = run_cli(capsys, command, "--m", "11", "--method", "both")
    assert (code, out) == (2, "")
    assert err == (
        "error: BudgetExceeded: direct enumeration needs ~3.14e+10 trace lookups"
        " (budget 1e+09)\n"
    )


@pytest.fixture
def direct_one_off(monkeypatch):
    """The direct enumerator with one more codeword of weight 0."""
    direct = dualspectrum.direct_enumerator

    def one_off(ctx, budget):
        enum = direct(ctx, budget=budget)
        return dualspectrum.WeightEnumerator(enum.n, {**enum.counts, 0: enum.counts[0] + 1})

    monkeypatch.setattr(dualspectrum, "direct_enumerator", one_off)


def test_dual_spectrum_paths_that_disagree_exit_1(capsys, direct_one_off):
    code, out, err = run_cli(capsys, "dual-spectrum", "--m", "3", "--method", "both")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert list(doc) == ["spectral", "direct", "agree"]
    assert doc["agree"] is False
    assert doc["direct"]["counts"]["0"] == doc["spectral"]["counts"]["0"] + 1


def test_report_paths_that_disagree_exit_1(capsys, direct_one_off):
    code, out, err = run_cli(capsys, "report", "--m", "3", "--method", "both")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["checks"]["paths_agree"] is False
    assert doc["mismatch"] == "paths_agree"
    spectrum = doc["dual_spectrum"]
    assert spectrum["direct"]["counts"]["0"] == spectrum["spectral"]["counts"]["0"] + 1


def test_out_to_missing_directory_exit_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "construct", "--m", "3", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not path.exists()


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


@pytest.mark.parametrize("m", [5, 7, 9])
def test_shipped_fixture_is_what_report_writes(request, m):
    """fixtures/m{m}.json holds, byte for byte, the code and dual enumerator
    that report writes with the default modulus."""
    ctx, enum = request.getfixturevalue(f"ctx{m}"), request.getfixturevalue(f"enum{m}")
    written = {**build_code(ctx).to_json_dict(), "dual_weight_enumerator": enum.to_json_dict()}
    assert written["modulus"] == polyring.format_poly(DEFAULT_MODULI[m])
    assert (SHIPPED / f"m{m}.json").read_bytes() == _fixture_text(written).encode()


def _m5_fixture_with(top=(), enum=(), weight0=None):
    """The shipped m5.json with top-level and dual_weight_enumerator keys
    replaced, and its weight-0 count entry replaced by weight0 = (key, count)."""
    doc = json.loads((SHIPPED / "m5.json").read_text(encoding="utf-8"))
    doc.update(top)
    doc["dual_weight_enumerator"].update(enum)
    if weight0 is not None:
        counts = doc["dual_weight_enumerator"]["counts"]
        del counts["0"]
        counts[weight0[0]] = weight0[1]
    return doc


# name -> fixture text other than the bytes a run writes.  The floats equal the
# run's ints under ==, as do the Arabic-Indic zero key and the boolean count
# under int() and ==; the last is the shipped content without indentation.
OTHER_FIXTURES = {
    "wrong_generator": _fixture_text(_m5_fixture_with(top={"generator": "1,0,0,0,0,0,0,0,0,0,1"})),
    "float_u": _fixture_text(_m5_fixture_with(top={"u": 122.0})),
    "float_total": _fixture_text(_m5_fixture_with(enum={"total": 59049.0})),
    "float_u_and_total": _fixture_text(
        _m5_fixture_with(top={"u": 122.0}, enum={"total": 59049.0})
    ),
    "empty_object": _fixture_text({}),
    "list": _fixture_text([1, 2]),
    "counts_list": _fixture_text(_m5_fixture_with(enum={"counts": [1, 2420]})),
    "arabic_indic_zero_key": _fixture_text(_m5_fixture_with(weight0=("\u0660", 1))),
    "boolean_count": _fixture_text(_m5_fixture_with(weight0=("0", True))),
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


@pytest.mark.parametrize("flag, value", [("--budget", "-5"), ("--budget", "0")])
def test_nonpositive_budget_exit_2(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify-distance", "--m", "5", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_budget_one_accepted(capsys):
    code, out, _ = run_cli(capsys, "verify-distance", "--m", "3", "--budget", "1")
    assert code == 0
    assert json.loads(out)["d"] == 4


def test_empty_modulus_exit_2(capsys):
    code, out, err = run_cli(capsys, "construct", "--m", "5", "--modulus", "")
    assert code == 2
    assert out == ""
    assert "NotIrreducible" in err


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


def _fresh_python(script, *drop_env):
    """Run script in a new interpreter that imports the tritcodes this process
    imported, without the environment variables in drop_env."""
    env = {k: v for k, v in os.environ.items() if k not in drop_env}
    src = str(Path(tritcodes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )


def test_rejected_moduli_exit_2_before_numpy_loads():
    """A reducible and an irreducible but imprimitive m = 13 modulus are
    refused in GF(3)[x]: numpy is never imported."""
    proc = _fresh_python(
        "import sys\n"
        "from tritcodes.cli import main\n"
        "for f in ('1,1,0,2,0,1,1,1,0,2,1,0,2,1', '2,2,1,2,1,0,1,2,2,1,2,1,2,1'):\n"
        "    print(main(['construct', '--m', '13', '--modulus', f]))\n"
        "print('numpy' in sys.modules)\n"
    )
    assert proc.stdout.split() == ["2", "2", "False"]
    assert proc.stderr.splitlines() == [
        "error: NotIrreducible: modulus factors over GF(3): 1,1,0,2,0,1,1,1,0,2,1,0,2,1",
        "error: NotPrimitive: x generates a subgroup of order < 1594322 modulo"
        " 2,2,1,2,1,0,1,2,2,1,2,1,2,1",
    ]


def test_construct_loads_no_numpy_and_no_field_tables():
    """construct builds m_u * m_v in GF(3)[x]/(f), for the default and for a
    dense m = 13 modulus: neither numpy nor tritcodes.fieldctx is imported."""
    proc = _fresh_python(
        "import os, sys\n"
        "from tritcodes.cli import main\n"
        "for extra in ([], ['--modulus', '1,0,0,2,0,0,1,1,2,2,1,0,0,1']):\n"
        "    print(main(['construct', '--m', '13', '--out', os.devnull, *extra]))\n"
        "print('numpy' in sys.modules, 'tritcodes.fieldctx' in sys.modules)\n"
    )
    assert proc.stdout.split() == ["0", "0", "False", "False"], proc.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_starts_no_blas_threads():
    """Importing tritcodes.cli caps numpy's OpenBLAS pool at one thread before
    numpy loads, when OPENBLAS_NUM_THREADS is unset: for a command run by main,
    and for the layers imported next, as perfbench's tracer does."""
    for script in (
        "from tritcodes.cli import main\nmain(['lemma-check', '--m', '5', '--out', os.devnull])\n",
        "import tritcodes.cli\nimport tritcodes.distance\n",
    ):
        proc = _fresh_python(
            "import os, sys\n"
            + script
            + "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))\n",
            "OPENBLAS_NUM_THREADS",
        )
        assert proc.stdout.split() == ["True", "1"], (script, proc.stderr)

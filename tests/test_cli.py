"""CLI exit codes, output formats, golden files, and byte determinism."""

import json
import pathlib
import subprocess
import sys

import pytest

from charcorr.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


# -- table ---------------------------------------------------------------------------


def test_table_text(tmp_path):
    code, text = run_cli(["table", "--group", "corpus/s4", "--format", "text"], tmp_path)
    assert code == 0
    assert text == (GOLDEN / "s4_table.txt").read_text()


def test_table_c7_has_seventh_roots(tmp_path):
    code, text = run_cli(["table", "--group", "c7"], tmp_path)
    assert code == 0
    assert "z7" in text and text.count("chi.") == 7


def test_table_structured(tmp_path):
    code, text = run_cli(["table", "--group", "s4", "--format", "structured"], tmp_path)
    assert code == 0
    data = json.loads(text)
    assert data["degrees"] == [1, 1, 2, 3, 3]


def test_table_missing_file_exits_2(capsys):
    assert main(["table", "--group", "missing-file"]) == 2


def test_table_cap_too_small_exits_2(capsys):
    assert main(["table", "--group", "s4", "--cap", "10"]) == 2


def test_engine_error_exits_3_without_traceback(monkeypatch, capsys):
    from charcorr import chartab

    def broken(table):
        raise RuntimeError(f"{table.group.name}: first orthogonality fails at rows 0,1")

    monkeypatch.setattr(chartab, "_verify_table", broken)
    assert main(["table", "--group", "s4"]) == 3  # a fresh group: no cached table
    err = capsys.readouterr().err
    assert err.startswith("engine error: S4: first orthogonality fails")
    assert "Traceback" not in err and "FALSIFIED" not in err


def test_malformed_generators_exit_2(tmp_path, capsys):
    for generators in ([["a", "b"]], 5):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "degree": 2, "generators": generators}))
        assert main(["table", "--group", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: bad: generators are not lists")


def test_group_description_bounds_exit_2(tmp_path, capsys):
    cases = [
        (-3, [], "degree -3 is outside"),
        (10**12, [], "degree 1000000000000 is outside"),
        (2, [[0, 1]] * 65, "65 generators, at most 64"),
    ]
    for degree, generators, message in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "degree": degree, "generators": generators}))
        assert main(["table", "--group", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad: ") and message in err
        assert "Traceback" not in err


def test_out_unwritable_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    from charcorr import cli

    def must_not_run(*args):
        raise AssertionError("the computation ran although --out cannot be written")

    monkeypatch.setattr(cli, "character_table", must_not_run)
    for out, message in (
        (tmp_path, "is a directory"),
        (tmp_path / "missing" / "t.txt", "does not exist"),
    ):
        assert main(["table", "--group", "s3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and message in err
        assert "Traceback" not in err


def test_out_write_failure_exits_2(tmp_path, monkeypatch, capsys):
    from charcorr import cli

    folder = tmp_path / "vanishing"
    folder.mkdir()
    real = cli.character_table

    def remove_folder_then_compute(G):
        folder.rmdir()
        return real(G)

    monkeypatch.setattr(cli, "character_table", remove_folder_then_compute)
    assert main(["table", "--group", "s3", "--out", str(folder / "t.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {folder / 't.txt'}: ")
    assert "Traceback" not in err


def test_construction_error_is_an_engine_error(monkeypatch, capsys):
    from charcorr import showcase

    def failing(cond, message):
        raise showcase.ConstructionError(message)

    monkeypatch.setattr(showcase, "_require", failing)
    # a cap of its own, so the per-process showcase cache cannot answer
    assert main(["remark648", "--cap", "19999"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("engine error: |G| = 648, expected 648")
    assert "Traceback" not in err and "FALSIFIED" not in err


# -- verify --------------------------------------------------------------------------


def test_verify_s4(tmp_path):
    code, text = run_cli(["verify", "--group", "s4", "-p", "2"], tmp_path)
    assert code == 0
    assert "verdict: TRUE" in text
    assert text.count("coincide=true") == 4


def test_verify_structured(tmp_path):
    code, text = run_cli(
        ["verify", "--group", "f21", "-p", "3", "--format", "structured"], tmp_path
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["verdict"] is True and len(rep["pairs"]) == 3


def test_verify_hypothesis_failure_exits_2(capsys):
    assert main(["verify", "--group", "sl23", "-p", "3"]) == 2
    assert "self_normalizing" in capsys.readouterr().err


def test_verify_non_prime_exits_2(capsys):
    assert main(["verify", "--group", "s4", "-p", "6"]) == 2


def test_verify_all(tmp_path):
    code, text = run_cli(["verify", "--all"], tmp_path)
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 11  # one per corpus instance + the summary
    assert lines[-1] == "all ok: true"
    assert sum("verdict=true" in l for l in lines) == 7
    assert sum("SKIP descent" in l for l in lines) == 3


def test_verify_all_structured_golden(tmp_path):
    code, text = run_cli(["verify", "--all", "--format", "structured"], tmp_path)
    assert code == 0
    assert text == (GOLDEN / "verify_all.json").read_text()


# -- remark648 ------------------------------------------------------------------------


def test_remark_text(tmp_path):
    code, text = run_cli(["remark648"], tmp_path)
    assert code == 0
    assert "|G|=648" in text and "|N|=72" in text
    assert "1+2*z3" in text and "-1-2*z3" in text
    assert text.count("asserted 0") == 3


def test_remark_structured_golden(tmp_path):
    code, text = run_cli(["remark648", "--format", "structured"], tmp_path)
    assert code == 0
    assert text == (GOLDEN / "remark648.json").read_text()


def test_remark_cap_exits_2(capsys):
    assert main(["remark648", "--cap", "100"]) == 2


# -- determinism and fresh-process runs --------------------------------------------------


def _run_subprocess(args, out_path, flags=()):
    cmd = [sys.executable, *flags, "-m", "charcorr.cli"] + args + ["--out", str(out_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return out_path.read_bytes()


@pytest.mark.slow
def test_verify_all_byte_identical_across_runs(tmp_path):
    outs = [
        _run_subprocess(["verify", "--all", "--format", "structured"], tmp_path / f"{i}.json")
        for i in range(3)
    ]
    assert outs[0] == outs[1] == outs[2]
    assert outs[0] == (GOLDEN / "verify_all.json").read_bytes()


@pytest.mark.slow
def test_verify_all_golden_with_asserts_stripped(tmp_path):
    out = _run_subprocess(
        ["verify", "--all", "--format", "structured"], tmp_path / "o.json", flags=("-O",)
    )
    assert out == (GOLDEN / "verify_all.json").read_bytes()


@pytest.mark.slow
def test_remark_golden_with_asserts_stripped(tmp_path):
    out = _run_subprocess(["remark648", "--format", "structured"], tmp_path / "o.json", flags=("-O",))
    assert out == (GOLDEN / "remark648.json").read_bytes()


def test_verify_jobs_option_is_gone():
    cmd = [sys.executable, "-m", "charcorr.cli", "verify", "--all", "--jobs", "2"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--jobs" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.slow
def test_remark_byte_identical_across_runs(tmp_path):
    a = _run_subprocess(["remark648", "--format", "structured"], tmp_path / "a.json")
    b = _run_subprocess(["remark648", "--format", "structured"], tmp_path / "b.json")
    assert a == b == (GOLDEN / "remark648.json").read_bytes()


# -- stress group: the Heisenberg group mod 7 -----------------------------------------


def heisenberg7_file(tmp_path):
    """Heisenberg group mod 7 (order 343, 55 classes) on the 49 points of Z_7^2.

    Point (x, y) is 7x + y.  The generators are the affine maps
    (x, y) -> (x + 1, y) and (x, y) -> (x, y + x); their commutator is the
    central translation (x, y) -> (x, y + 1).
    """
    shift = [7 * ((x + 1) % 7) + y for x in range(7) for y in range(7)]
    shear = [7 * x + (y + x) % 7 for x in range(7) for y in range(7)]
    path = tmp_path / "heis7.json"
    path.write_text(json.dumps({"name": "heis7", "degree": 49, "generators": [shift, shear]}))
    return path


def test_table_heisenberg7_structured_golden(tmp_path):
    code, text = run_cli(
        ["table", "--group", str(heisenberg7_file(tmp_path)), "--format", "structured"], tmp_path
    )
    assert code == 0
    assert text == (GOLDEN / "heis7_table.json").read_text()

"""CLI exit codes, output formats, golden files, and byte determinism."""

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcorr import cli, groups, showcase
from charcorr.cli import main
from charcorr.common import FalsificationError, HypothesisError, corpus
from charcorr.groups import DEFAULT_CAP, MAX_CLASSES, MAX_FILE_BYTES, group_from_dict
from charcorr.mckay import check_hypotheses, verify_main
from faults import with_foreign_identity_column
from instances import GOLDEN, MANIFEST, RECORDS, s4_wreath_c2_record, write_record


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


def test_a_missing_group_path_is_not_read_as_a_shipped_group(tmp_path, capsys):
    # only a bare name or corpus/NAME falls back to the shipped corpus; a path
    # elsewhere that does not exist is an error, whatever its basename
    for spec in (str(tmp_path / "nowhere" / "s4.json"), str(tmp_path / "nowhere" / "s4")):
        assert main(["table", "--group", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "group file or builtin name not found" in err
    for spec in ("corpus/s4", "corpus/s4.json", "s4"):
        code, text = run_cli(["table", "--group", spec, "--format", "text"], tmp_path)
        assert code == 0 and text == (GOLDEN / "s4_table.txt").read_text()


def test_table_cap_too_small_exits_2(capsys):
    assert main(["table", "--group", "s4", "--cap", "10"]) == 2


def test_a_group_over_the_class_bound_exits_2_before_any_class_matrix(tmp_path):
    # C2^k on 2k points has 2^k classes: the least such group over the bound
    # is refused right after its classes are found, before the split builds
    # a class matrix or its dense identity, in a fresh process of small size
    k = MAX_CLASSES.bit_length()
    swaps = [[i ^ 1 if i // 2 == j else i for i in range(2 * k)] for j in range(k)]
    path = write_record({"name": "c2^k", "degree": 2 * k, "generators": swaps}, tmp_path, "c2k")
    code = (
        "import time; from charcorr.kernels import pure; calls = []; "
        "real = pure.class_matrix; "
        "pure.class_matrix = lambda *args: calls.append(args) or real(*args); "
        "from charcorr.cli import main; start = time.perf_counter(); "
        f"code = main(['table', '--group', {str(path)!r}]); "
        "print(code, len(calls), time.perf_counter() - start, flush=True)"
    )
    # a child's peak RSS starts at the peak of the process that spawned it,
    # so the child is spawned by a bare interpreter, which prints the peak
    spawn = (
        "import os, sys; pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ); "
        "print(os.wait4(pid, 0)[2].ru_maxrss)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-I", "-c", spawn, sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    exit_code, calls, seconds, rss_kb = proc.stdout.split()
    assert (exit_code, calls) == ("2", "0")
    assert proc.stderr == (
        f"error: c2^k: {2**k} conjugacy classes exceed the class bound {MAX_CLASSES} of a table\n"
    )
    assert float(seconds) < 10 and int(rss_kb) < 64 * 1024


def test_engine_error_exits_3_without_traceback(monkeypatch, capsys):
    from charcorr import chartab

    def broken(table):
        raise RuntimeError(f"{table.group.name}: first orthogonality fails at rows 0,1")

    monkeypatch.setattr(chartab, "_verify_table", broken)
    assert main(["table", "--group", "s4"]) == 3  # a fresh group: no cached table
    err = capsys.readouterr().err
    assert err.startswith("engine error: S4: first orthogonality fails")
    assert "Traceback" not in err and "FALSIFIED" not in err


def test_any_other_engine_exception_exits_3_with_its_type(monkeypatch, capsys):
    from charcorr import cli

    def broken(G):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "character_table", broken)
    assert main(["table", "--group", "s3"]) == 3
    err = capsys.readouterr().err
    assert err == "engine error: KeyError: 'boom'\n"


def test_degree_recovery_fault_exits_3_without_traceback(monkeypatch, capsys):
    # Shifting one entry of one common eigenvector breaks the degree step:
    # d^2 = |G| / t has no root d <= sqrt(|G|) mod q, or t = 0 (shown as d^2 = 0).
    from charcorr import chartab

    real = chartab._common_eigenvectors
    errors = []
    for delta in range(1, 13):  # q = 13 for S4

        def perturbed(class_matrix, r, q, delta=delta):
            vectors = real(class_matrix, r, q)
            vectors[0] = vectors[0][:-1] + [(vectors[0][-1] + delta) % q]
            return vectors

        monkeypatch.setattr(chartab, "_common_eigenvectors", perturbed)
        assert main(["table", "--group", "s4"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("engine error: ") and "Traceback" not in err
        errors.append(err)
    no_degree = [e for e in errors if "S4: no degree d <= sqrt(|G|) has d^2 = " in e]
    assert any("d^2 = 0 mod 13" in e for e in no_degree)
    assert any("d^2 = 0 mod 13" not in e for e in no_degree)


def test_rational_value_above_the_degree_exits_3_without_traceback(monkeypatch, capsys):
    # Every class of S4 is rational, so its values are read off as symmetric
    # residues mod q.  Shifting the class-1 entry of one common eigenvector
    # can leave the degree recoverable while that value leaves [-d, d].
    from charcorr import chartab

    real = chartab._common_eigenvectors
    errors = []
    for delta in range(1, 13):  # q = 13 for S4

        def perturbed(class_matrix, r, q, delta=delta):
            vectors = real(class_matrix, r, q)
            vectors[0] = [vectors[0][0], (vectors[0][1] + delta) % q] + vectors[0][2:]
            return vectors

        monkeypatch.setattr(chartab, "_common_eigenvectors", perturbed)
        assert main(["table", "--group", "s4"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("engine error: ") and "Traceback" not in err
        errors.append(err)
    pattern = r"engine error: S4: row 0, rational class 1: \d+ exceeds the degree \d\n"
    assert sum(bool(re.fullmatch(pattern, e)) for e in errors) == 2


def test_eigensplit_invariance_fault_exits_3_without_traceback(monkeypatch, capsys):
    from charcorr.kernels import pure

    monkeypatch.setattr(pure, "class_matrix", with_foreign_identity_column(pure.class_matrix))
    assert main(["table", "--group", "s4"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("engine error: class-matrix eigenspace is not invariant")
    assert "Traceback" not in err and "FALSIFIED" not in err


@pytest.mark.parametrize("generators", [[], [[0]]], ids=["no generators", "identity"])
def test_degree_one_group_exits_0(tmp_path, capsys, generators):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"name": "one", "degree": 1, "generators": generators}))
    code, text = run_cli(["table", "--group", str(path)], tmp_path)
    assert code == 0 and text.endswith("chi.0   1\n")
    code, text = run_cli(["verify", "--group", str(path), "-p", "2"], tmp_path)
    assert code == 0 and "verdict: TRUE" in text
    assert "Traceback" not in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "record",
    [
        {"name": "bad", "degree": 2.7, "generators": [[1.9, 0.2]]},
        {"name": "bad", "degree": 2, "generators": [[1.0, 0.0]]},
        {"name": "bad", "degree": "3", "generators": [[1, 2, 0]]},
        {"name": "bad", "degree": True, "generators": [[0]]},
        {"name": "bad", "degree": 2, "generators": [[True, False]]},
        {"name": "bad", "degree": 1, "generators": "0"},
        {"name": "bad", "degree": 2, "generators": ["10"]},
        {"name": "bad", "degree": 2, "generators": [{"0": 1, "1": 0}]},
    ],
)
def test_non_integer_group_description_exits_2(tmp_path, capsys, record):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    assert main(["table", "--group", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "name", [[1, {"a": None}], {"a": 1}, None, "x" * 10**6], ids=["list", "object", "null", "long"]
)
def test_group_name_must_be_a_short_string(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": name, "degree": 2, "generators": [[1, 0]]}))
    assert main(["table", "--group", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: group name is not a string of at most 256 characters")
    assert "Traceback" not in err


def _assert_unreadable_group_exits_2(path, capsys):
    assert main(["table", "--group", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a readable JSON file")
    assert "Traceback" not in err


def test_group_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "S\xe9", "degree": 1, "generators": []}'.encode("latin-1"))
    _assert_unreadable_group_exits_2(path, capsys)


def test_group_file_nested_too_deep_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    _assert_unreadable_group_exits_2(path, capsys)


def test_group_file_permission_denied_exits_2(tmp_path, monkeypatch, capsys):
    import builtins

    path = tmp_path / "locked.json"
    path.write_text(json.dumps({"name": "S3", "degree": 3, "generators": [[1, 2, 0]]}))
    real_open = builtins.open

    def guarded_open(file, *args, **kwargs):
        if str(file) == str(path):
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded_open)
    _assert_unreadable_group_exits_2(path, capsys)


def test_oversized_group_file_exits_2_before_it_is_parsed(tmp_path, capsys):
    import tracemalloc

    path = tmp_path / "huge.json"
    with open(path, "wb") as fh:
        fh.truncate(48 * 1024 * 1024)  # sparse: no disk blocks behind it
    tracemalloc.start()
    try:
        code = main(["table", "--group", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: group file exceeds {MAX_FILE_BYTES} bytes")
    assert "Traceback" not in err
    assert peak < 20 * 1024 * 1024


def test_group_file_size_limit_is_inclusive(tmp_path, capsys):
    record = json.dumps({"name": "S3", "degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]})
    path = tmp_path / "padded.json"
    path.write_text(record + " " * (MAX_FILE_BYTES - len(record)))
    code, text = run_cli(["table", "--group", str(path)], tmp_path)
    assert code == 0 and text.count("chi.") == 3
    with open(path, "a") as fh:
        fh.write(" ")
    assert main(["table", "--group", str(path)]) == 2
    assert "group file exceeds" in capsys.readouterr().err


json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def near_miss_records(draw):
    """{name, degree, generators} records at degree <= 6: well formed, or with one flaw."""
    degree = draw(st.integers(min_value=0, max_value=6))
    generators = draw(st.lists(st.permutations(range(degree)).map(list), max_size=3))
    record = {"name": draw(st.text(max_size=6)), "degree": degree, "generators": generators}
    flaw = draw(st.sampled_from([None, "name", "degree", "generators", "image", "missing"]))
    if flaw in ("name", "generators"):
        record[flaw] = draw(json_documents)
    elif flaw == "degree":
        record["degree"] = draw(
            st.integers(min_value=-3, max_value=-1)
            | st.sampled_from([2.0, float("nan"), float("inf"), "3", True, None, [3], {}])
        )
    elif flaw == "image":
        image = st.integers(min_value=-1, max_value=7) | st.sampled_from([1.5, True, "1", None])
        generators.append(draw(st.lists(image, max_size=7)))
    elif flaw == "missing":
        del record[draw(st.sampled_from(sorted(record)))]
    return record


@settings(max_examples=100, deadline=None)
@given(json_documents | near_miss_records())
def test_any_group_file_exits_0_or_2_without_traceback(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "arbitrary.json"
    path.write_text(json.dumps(document))  # NaN and infinities as Python's json writes them
    for args in (["table"], ["verify", "-p", "2"], ["verify", "-p", "3"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*args, "--group", str(path)])
        assert code in (0, 2), (args, document, err.getvalue())
        assert "Traceback" not in err.getvalue()


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


def _buffered_env() -> dict:
    """This environment without PYTHONUNBUFFERED: a child's stdout is then block-buffered,
    as from a shell, so output that a process leaves unflushed at exit goes missing."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _fresh_process(args, timeout=600, **kwargs):
    """One ``python -m charcorr.cli`` process writing to pipes, as the benchmark runs it."""
    cmd = [sys.executable, "-m", "charcorr.cli", *args]
    return subprocess.run(cmd, env=_buffered_env(), capture_output=True, timeout=timeout, **kwargs)


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_stdout_write_failure_exits_2():
    err = io.StringIO()
    with contextlib.redirect_stdout(_FullStream()), contextlib.redirect_stderr(err):
        code = main(["verify", "--group", "s4", "-p", "2"])
    assert code == 2
    assert err.getvalue() == "error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "redirect, reason",
    [(">/dev/full", "[Errno 28] No space left on device"), (">&-", "stdout is closed")],
    ids=["full", "closed"],
)
def test_stdout_that_cannot_be_written_exits_2_in_a_fresh_process(redirect, reason):
    if redirect == ">/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    script = f'"$0" -m charcorr.cli verify --group s4 -p 2 {redirect}'
    cmd = ["sh", "-c", script, sys.executable]
    proc = subprocess.run(cmd, env=_buffered_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write output: {reason}\n"


@pytest.mark.parametrize(
    "error, code",
    [
        (FalsificationError("chi has no star"), 1),
        (HypothesisError("p is not prime"), 2),
        (RuntimeError("orthogonality fails"), 3),
        (KeyError("boom"), 3),
    ],
    ids=["falsified", "error", "engine error", "other engine error"],
)
def test_a_stderr_that_cannot_be_written_keeps_the_exit_code(monkeypatch, error, code):
    def failing(G):
        raise error

    monkeypatch.setattr(cli, "character_table", failing)
    with contextlib.redirect_stderr(_FullStream()):
        assert main(["table", "--group", "s3"]) == code


@pytest.mark.parametrize("redirect", ["2>/dev/full", "2>&-"], ids=["full", "closed"])
def test_a_stderr_that_cannot_be_written_keeps_exit_2_in_a_fresh_process(redirect):
    if redirect == "2>/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    script = f'"$0" -m charcorr.cli verify --group sl23 -p 3 {redirect}'
    cmd = ["sh", "-c", script, sys.executable]
    proc = subprocess.run(cmd, env=_buffered_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")


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


@pytest.mark.parametrize(
    "group, p, message",
    [
        ("sl23", "3", "(SL(2,3), p=3) does not satisfy: self_normalizing, parity"),
        ("f21", "7", "(F21, p=7) does not satisfy: self_normalizing"),
    ],
)
def test_verify_hypothesis_failure_names_the_failed_flags(capsys, group, p, message):
    assert main(["verify", "--group", group, "-p", p]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_non_prime_exits_2(capsys):
    assert main(["verify", "--group", "s4", "-p", "6"]) == 2


def test_verify_prime_above_the_cap_exits_2_before_any_primality_test(monkeypatch, capsys):
    from charcorr import cli

    def must_not_run(n):
        raise AssertionError("a prime above the cap reached the primality test")

    monkeypatch.setattr(cli, "is_prime", must_not_run)
    for args, p, cap in (
        (["-p", "1000000000000000003"], 1000000000000000003, DEFAULT_CAP),
        (["-p", "29", "--cap", "24"], 29, 24),
    ):
        assert main(["verify", "--group", "s4", *args]) == 2
        err = capsys.readouterr().err
        assert err == f"error: p = {p} exceeds the cap {cap} on |G|\n"


def test_a_huge_cap_exits_2_in_a_fresh_process_before_any_work():
    # with no bound on --cap, a huge p below a huge cap reached trial division
    p, cap = "1000000000000000000117", "100000000000000000000000"
    proc = _fresh_process(["verify", "--group", "s4", "-p", p, "--cap", cap], text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: cap must be <= {groups.MAX_CAP}, got {cap}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["--all", "--group", "s4"],
        ["--all", "-p", "2"],
        ["--all", "--group", "s4", "-p", "2"],
        ["--group", "s4"],  # a missing option gets the same message
        ["-p", "2"],
    ],
)
def test_verify_needs_group_and_prime_or_all_alone(monkeypatch, capsys, args):
    from charcorr import cli

    def must_not_run(*args):
        raise AssertionError("the computation ran although the options conflict")

    monkeypatch.setattr(cli, "cmd_verify", must_not_run)
    assert main(["verify", *args]) == 2
    assert capsys.readouterr().err == "error: verify needs --group and -p, or --all\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["table", "--group", "s3", "--cap", "0"], "cap must be >= 1, got 0"),
        (["remark648", "--cap", "-3"], "cap must be >= 1, got -3"),
        (["verify", "--all", "--cap", "0", "-p", "4"], "cap must be >= 1, got 0"),
        (["verify", "--group", "", "-p", "2"], "verify needs --group and -p, or --all"),
        (
            ["verify", "--group", "s3", "-p", "101", "--cap", "100"],
            "p = 101 exceeds the cap 100 on |G|",
        ),
        (["verify", "--group", "s3", "-p", "1"], "1 is not prime"),
        (["verify", "--group", "s3", "-p", "-7"], "-7 is not prime"),
        (["verify", "--group", "s3", "-p", "4", "--out", "."], "4 is not prime"),
        (["table", "--group", "s3", "--out", "."], "--out . is a directory"),
        (["table", "--group", "", "--out", "."], "--out . is a directory"),
        (["table", "--group", ""], "table needs --group"),
        (["table", "--group", "s3", "--out", ""], "--out needs a file name"),
        (["verify", "--group", "s3", "-p", "2", "--out="], "--out needs a file name"),
        (["table", "--group", "s3", "--cap", "1000001"], "cap must be <= 1000000, got 1000001"),
    ],
)
def test_option_checks_exit_2_with_their_message(monkeypatch, capsys, args, message):
    from charcorr import cli

    def must_not_run(*args):
        raise AssertionError("the command ran although its options are invalid")

    for command in ("cmd_table", "cmd_verify", "cmd_remark"):
        monkeypatch.setattr(cli, command, must_not_run)
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_all(tmp_path):
    code, text = run_cli(["verify", "--all"], tmp_path)
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 11  # one per corpus instance + the summary
    assert lines[-1] == "all ok: true"
    assert sum("verdict=true" in l for l in lines) == 7
    assert sum("SKIP descent" in l for l in lines) == 3


@pytest.mark.parametrize(
    "name, p, label, flags",
    [
        ("sl23", 3, "theorem", "'solvable': True, 'self_normalizing': False, 'parity': False"),
        ("s4", 2, "hypothesis-fail", "'solvable': True, 'self_normalizing': True, 'parity': True"),
    ],
    ids=["theorem", "hypothesis-fail"],
)
def test_verify_all_refuses_a_corpus_label_its_flags_contradict(
    monkeypatch, capsys, name, p, label, flags
):
    from charcorr import cli
    from charcorr.common import CorpusEntry

    monkeypatch.setattr(cli, "corpus", lambda: (CorpusEntry(name, p, label),))
    assert main(["verify", "--all"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"engine error: corpus entry {name} at p={p} expects {label}, but its flags are {{{flags}}}\n"
    )


def test_verify_all_builds_each_corpus_table_once(monkeypatch):
    # F21 is listed at p=3 and at p=7; both entries share one loaded group
    from functools import lru_cache

    from charcorr import chartab, cli

    built = []
    real = chartab._dixon_schneider

    def counting(G):
        built.append(G.name)
        return real(G)

    monkeypatch.setattr(chartab, "_dixon_schneider", counting)
    # a loader cache of its own, so no corpus group arrives with its table built
    fresh = lru_cache(maxsize=None)(cli.load_corpus_group.__wrapped__)
    monkeypatch.setattr(cli, "load_corpus_group", fresh)
    assert main(["verify", "--all", "--out", "/dev/null"]) == 0
    assert built.count("F21") == 1


@pytest.mark.parametrize("name, p", [("c7", "7"), ("d8", "2")])
def test_verify_on_a_p_group_builds_one_table(monkeypatch, name, p):
    # P = G, so the Sylow subgroup's view is G itself and shares its table
    from charcorr import chartab, groups

    built = []
    real = chartab._dixon_schneider

    def counting(G):
        built.append(G.name)
        return real(G)

    monkeypatch.setattr(chartab, "_dixon_schneider", counting)
    monkeypatch.setattr(groups, "_VIEW_CACHE", {})  # fresh subgroup views, no tables yet
    assert main(["verify", "--group", name, "-p", p, "--out", "/dev/null"]) == 0
    assert len(built) == 1  # --group loads a fresh group each time


def test_verify_all_computes_each_instances_counts_once(monkeypatch):
    # a positive instance's counts come from its report, not from a second count
    from charcorr import mckay

    counted = []
    real = mckay.mckay_count

    def counting(inst):
        counted.append((inst.group.name, inst.p))
        return real(inst)

    monkeypatch.setattr(mckay, "mckay_count", counting)
    assert main(["verify", "--all", "--out", "/dev/null"]) == 0
    assert len(counted) == len(set(counted)) == len(corpus())


# -- remark648 ------------------------------------------------------------------------


def test_remark_text(tmp_path):
    code, text = run_cli(["remark648"], tmp_path)
    assert code == 0
    assert "|G|=648" in text and "|N|=72" in text
    assert "1+2*z3" in text and "-1-2*z3" in text
    assert text.count("asserted 0") == 3


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


def test_verify_jobs_option_is_gone():
    cmd = [sys.executable, "-m", "charcorr.cli", "verify", "--all", "--jobs", "2"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--jobs" in proc.stderr
    assert "Traceback" not in proc.stderr


# -- the command line ---------------------------------------------------------------


USAGE_ERRORS = {
    "unknown option": ["verify", "--all", "--bogus"],
    "abbreviated option": ["table", "--gr", "s4"],
    "missing value at the end": ["table", "--group"],
    "option where a value belongs": ["verify", "--group", "-p", "2"],
    "missing -p value": ["verify", "--group", "s4", "-p"],
    "non-integer cap": ["table", "--group", "s4", "--cap", "many"],
    "non-integer cap after =": ["table", "--group", "s4", "--cap=1.5"],
    "non-integer -p": ["verify", "--group", "s4", "-p", "two"],
    "bad format": ["table", "--group", "s4", "--format", "xml"],
    "bad format after =": ["verify", "--all", "--format=json"],
    "flag given a value": ["verify", "--all=yes"],
    "positional argument": ["verify", "--all", "s4"],
    "missing command": [],
    "unknown command": ["tabel", "--group", "s4"],
    "verify's option on remark648": ["remark648", "--group", "s4"],
    "verify's option on table": ["table", "--group", "s4", "-p", "2"],
}


@pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_returns_2_with_the_usage(monkeypatch, capsys, args):
    def must_not_run(*args):
        raise AssertionError("the command ran although its command line does not parse")

    for command in ("cmd_table", "cmd_verify", "cmd_remark"):
        monkeypatch.setattr(cli, command, must_not_run)
    assert main(args) == 2  # a return value: no SystemExit leaves main
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: charcorr ")
    assert lines[-1].startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_2_in_a_fresh_process(args):
    proc = _fresh_process(args, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: charcorr ")
    assert "\nerror: " in proc.stderr and "Traceback" not in proc.stderr


def test_a_usage_error_keeps_exit_2_with_stderr_closed():
    script = '"$0" -m charcorr.cli verify --all --bogus 2>&-'
    cmd = ["sh", "-c", script, sys.executable]
    proc = subprocess.run(cmd, env=_buffered_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")


def test_option_value_after_an_equals_sign(tmp_path):
    spaced = run_cli(["table", "--group", "s4", "--format", "structured"], tmp_path, "a")
    joined = run_cli(["table", "--group=s4", "--format=structured", "--cap=100"], tmp_path, "b")
    assert spaced == joined and spaced[0] == 0
    assert main(["verify", "--group=s4", "--prime=2", f"--out={tmp_path / 'c'}"]) == 0
    spaced = run_cli(["verify", "--group", "s4", "-p", "2"], tmp_path)
    assert spaced == (0, (tmp_path / "c").read_text())


def test_omitted_options_take_their_defaults():
    for command in cli.COMMANDS:
        assert vars(cli.parse_args([command])) == {"command": command, **cli.DEFAULTS}
    cfg = cli.parse_args(["verify", "-p", "-7", "--all", "-v", "--cap", "9", "--cap", "10"])
    assert (cfg.prime, cfg.run_all, cfg.verbose, cfg.cap) == (-7, True, True, 10)


@pytest.mark.parametrize("args", [["-h"], ["--help"], ["verify", "--all", "-h"]])
def test_help_exits_0_with_the_usage_on_stdout(capsys, args):
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: charcorr table ") and err == ""
    for _, options in cli.COMMANDS.values():
        assert all(name in out for name in options)


def test_help_exits_0_in_a_fresh_process():
    proc = _fresh_process(["--help"], text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == cli.HELP


@pytest.mark.slow
def test_remark_byte_identical_across_runs(tmp_path):
    a = _run_subprocess(["remark648", "--format", "structured"], tmp_path / "a.json")
    b = _run_subprocess(["remark648", "--format", "structured"], tmp_path / "b.json")
    assert a == b == (GOLDEN / "remark648.json").read_bytes()


# -- goldens: every manifest entry, in-process and in a fresh python -O process ----------


@pytest.mark.parametrize("run", MANIFEST, ids=lambda run: run.id)
def test_golden_in_process(tmp_path, run):
    out = tmp_path / "out"
    assert main([*run.command(tmp_path), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / run.golden).read_bytes()


@pytest.mark.slow
@pytest.mark.parametrize("run", MANIFEST, ids=lambda run: run.id)
def test_golden_with_asserts_stripped(tmp_path, run):
    out = _run_subprocess(run.command(tmp_path), tmp_path / "out", flags=("-O",))
    assert out == (GOLDEN / run.golden).read_bytes()


def test_every_golden_file_has_exactly_one_manifest_entry():
    goldens = [run.golden for run in MANIFEST]
    assert sorted(goldens) == sorted(path.name for path in GOLDEN.iterdir())
    assert len({run.id for run in MANIFEST}) == len(MANIFEST)


@pytest.mark.parametrize("p", ["3", "7"])
def test_c7_wreath_c3_is_outside_the_hypotheses_at_both_primes(tmp_path, capsys, p):
    path = write_record(RECORDS["c7wrc3"], tmp_path, "c7wrc3")
    assert main(["verify", "--group", str(path), "-p", p]) == 2
    message = f"error: (C7wrC3, p={p}) does not satisfy: self_normalizing\n"
    assert capsys.readouterr() == ("", message)


def test_c5_wreath_c4_is_outside_the_hypotheses_at_2(tmp_path, capsys):
    path = write_record(RECORDS["c5wrc4"], tmp_path, "c5wrc4")
    assert main(["verify", "--group", str(path), "-p", "2"]) == 2
    message = "error: (C5wrC4, p=2) does not satisfy: self_normalizing\n"
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "key, p, failed",
    [
        ("agl7", "2", "self_normalizing"),
        ("agl8", "7", "parity"),
        ("agl49", "2", "self_normalizing"),
    ],
    ids=["agl7-p2", "agl8-p7", "agl49-p2"],
)
def test_affine_groups_outside_the_hypotheses_exit_2(tmp_path, capsys, key, p, failed):
    # for odd q, AGL(1,q) is inside them at p = 2 exactly when q - 1 is a power of 2
    path = write_record(RECORDS[key], tmp_path, key)
    assert main(["verify", "--group", str(path), "-p", p]) == 2
    name = RECORDS[key]["name"]
    assert capsys.readouterr() == ("", f"error: ({name}, p={p}) does not satisfy: {failed}\n")


# cli.run ends a fresh process with os._exit: no byte of stdout and no exit code may be lost
@pytest.mark.parametrize(
    "run", [run for run in MANIFEST if run.record is None], ids=lambda run: run.id
)
def test_fresh_process_stdout_equals_the_golden(run):
    proc = _fresh_process(run.argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / run.golden).read_bytes()


def test_fresh_process_keeps_the_exit_code_and_stderr(tmp_path):
    path = write_record(RECORDS["c7wrc3"], tmp_path, "c7wrc3")
    proc = _fresh_process(["verify", "--group", str(path), "-p", "3"], text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: (C7wrC3, p=3) does not satisfy: self_normalizing\n"


def test_the_engine_leaves_no_cyclic_garbage(monkeypatch):
    # cli.run turns the cyclic collector off for the whole process.  That is sound
    # only while nothing the engine builds becomes cyclic garbage while a command
    # runs, so fresh work runs here with the collector off, holding every group and
    # result as a command does until it returns, and a full collection must then
    # find nothing.
    monkeypatch.setattr(groups, "_VIEW_CACHE", {})  # fresh subgroup views, no tables yet
    fresh_corpus = lru_cache(maxsize=None)(cli.load_corpus_group.__wrapped__)
    monkeypatch.setattr(cli, "load_corpus_group", fresh_corpus)
    fresh_remark = lru_cache(maxsize=None)(showcase.remark_data.__wrapped__)
    monkeypatch.setattr(showcase, "remark_data", fresh_remark)
    gc.collect()
    gc.disable()
    try:
        instances = [
            check_hypotheses(group_from_dict(record), p)
            for record, p in ((s4_wreath_c2_record(1), 2), (RECORDS["heis7c3"], 3))
        ]
        held = [verify_main(inst) for inst in instances]
        held += [cli._run_corpus_entry(entry, DEFAULT_CAP) for entry in corpus()]
        held.append(showcase.remark_report())
        found = gc.collect()
    finally:
        gc.enable()
    assert all(held)
    assert found == 0, (
        f"the engine left {found} objects in reference cycles: break those cycles,"
        " or stop cli.run from turning the cyclic collector off"
    )


def test_s4_wreath_c2_descent_does_its_theta_level_work_once_per_theta(tmp_path, monkeypatch):
    # its 8 p'-degree characters descend through one level and share 2 thetas
    from charcorr import mckay

    calls = {}
    theta_level = ("orbit_and_stabilizer", "fixed_points_on_cosets", "lying_over")
    for name in theta_level + ("is_invariant_under",):

        def counting(*args, _real=getattr(mckay, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mckay, name, counting)
    run = next(run for run in MANIFEST if run.id == "s4wrc2_verify")
    code, _ = run_cli(run.command(tmp_path), tmp_path)
    assert code == 0
    assert (tmp_path / "out.txt").read_bytes() == (GOLDEN / run.golden).read_bytes()
    assert calls["orbit_and_stabilizer"] == calls["fixed_points_on_cosets"] == 2
    assert calls["lying_over"] == 2
    assert calls["is_invariant_under"] <= 10

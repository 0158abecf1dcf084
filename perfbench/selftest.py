#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and seeded inputs.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about 5 seconds.  It shows that

* a correct remark648 run passes against its golden, and counts as failed
  against a copy of the golden with one byte changed;
* a correct s4wrc2_verify run passes, and a program that prints the same
  report with a wrong character count, or the right report with exit code 1,
  counts as failed;
* two fresh interpreters given the same seed write byte-identical group files
  for the samples of a run, and another seed gives different relabellings.

Exits 1 if any of these does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import CLI, HERE, WORK, cli_argv, run_sample
from workloads import GOLDEN, WORKLOADS, golden_check


def expect(label: str, cond: bool) -> bool:
    print(("ok   " if cond else "FAIL ") + label)
    return cond


def fake_program(stdout_path, code: int) -> list[str]:
    """A child that prints a file's bytes and exits with the given code."""
    script = (
        "import sys; sys.stdout.buffer.write(open(sys.argv[1], 'rb').read()); "
        "sys.exit(int(sys.argv[2]))"
    )
    return [sys.executable, "-c", script, str(stdout_path), str(code)]


def golden_checks() -> list[bool]:
    w = WORKLOADS["remark648"]
    argv = CLI + cli_argv(w, 0, 0)
    golden = (GOLDEN / "remark648.json").read_bytes()
    mid = len(golden) // 2
    tampered = WORK / "selftest.remark648.tampered.json"
    tampered.write_bytes(golden[:mid] + bytes([golden[mid] ^ 1]) + golden[mid + 1 :])
    return [
        expect("remark648 matches its golden", run_sample(argv, w.check, "selftest").ok),
        expect(
            "remark648 against a golden with one byte changed counts as failed",
            not run_sample(argv, golden_check(tampered), "selftest").ok,
        ),
    ]


def invariant_checks() -> list[bool]:
    w = WORKLOADS["s4wrc2_verify"]
    real = run_sample(CLI + cli_argv(w, 0, 0), w.check, "selftest")
    report = json.loads((WORK / "selftest.out").read_bytes())
    right = WORK / "selftest.s4wrc2.right.json"
    right.write_bytes((WORK / "selftest.out").read_bytes())
    report["counts"]["irr_p_prime_n"] = 7
    report["counts"]["equal"] = False
    wrong = WORK / "selftest.s4wrc2.wrong.json"
    wrong.write_text(json.dumps(report))
    return [
        expect("s4wrc2_verify passes its labelling-invariant check", real.ok),
        expect("a copy of that output passes too", run_sample(fake_program(right, 0), w.check, "selftest").ok),
        expect(
            "the same report with a wrong count of p'-degree characters of N counts as failed",
            not run_sample(fake_program(wrong, 0), w.check, "selftest").ok,
        ),
        expect(
            "the right report with exit code 1 counts as failed",
            not run_sample(fake_program(right, 1), w.check, "selftest").ok,
        ),
    ]


def seed_checks() -> list[bool]:
    def inputs(name: str, seed: int, hash_seed: str) -> bytes:
        """The group files of the first three samples of a run, from a fresh interpreter."""
        code = (
            f"import sys, workloads; w = workloads.WORKLOADS[{name!r}]; "
            f"sys.stdout.buffer.write(b''.join(w.inputs({seed}, i) for i in range(3)))"
        )
        return subprocess.run(
            [sys.executable, "-c", code],
            cwd=HERE,
            env={"PYTHONHASHSEED": hash_seed},
            capture_output=True,
            check=True,
        ).stdout

    first, again = inputs("s4wrc2_verify", 11, "1"), inputs("s4wrc2_verify", 11, "2")
    return [
        expect("s4wrc2_verify: seed 11 gives identical inputs in two processes", first == again),
        expect("s4wrc2_verify: seed 12 gives other inputs", inputs("s4wrc2_verify", 12, "1") != first),
    ]


def main() -> int:
    WORK.mkdir(exist_ok=True)
    results = golden_checks() + invariant_checks() + seed_checks()
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

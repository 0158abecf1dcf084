"""The benchmark's workloads: CLI arguments, seeded inputs and output checks.

Two workloads run fixed corpus commands and compare the output with the
committed goldens byte for byte.  The third runs a stress group built here
from generators; the seed draws a relabelling of its points for every
sample (applied by conjugating the generators), so its check looks only at
labelling-invariant facts.

This module imports nothing from charcorr: the benchmark process stays small,
and the program only ever sees the JSON group file written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

Check = Callable[[bytes], "str | None"]  # None when the output is right, else why not


# -- stress groups ----------------------------------------------------------------


def s4_wreath_c2_generators() -> tuple[int, list[list[int]]]:
    """S4 wr C2 (order 1152) on 8 points: S4 on {0..3}, and a block swap."""
    transposition = [1, 0, 2, 3, 4, 5, 6, 7]
    four_cycle = [1, 2, 3, 0, 4, 5, 6, 7]
    swap = [4, 5, 6, 7, 0, 1, 2, 3]
    return 8, [transposition, four_cycle, swap]


def relabel(degree: int, gens: list[list[int]], salt: str) -> list[list[int]]:
    """Conjugate every generator by one random permutation of the points, drawn from salt."""
    pi = list(range(degree))
    random.Random(salt).shuffle(pi)
    out = []
    for g in gens:
        h = [0] * degree
        for i in range(degree):
            h[pi[i]] = pi[g[i]]
        out.append(h)
    return out


# -- checks -----------------------------------------------------------------------


def golden_check(path: Path) -> Check:
    def check(out: bytes) -> str | None:
        if out != path.read_bytes():
            return f"output differs from {path.name}"
        return None

    return check


def check_s4wrc2_verify(out: bytes) -> str | None:
    r = json.loads(out)
    want_counts = {"irr_p_prime_g": 8, "irr_p_prime_n": 8, "equal": True}
    if r["order"] != 1152 or r["verdict"] is not True:
        return f"order {r['order']}, verdict {r['verdict']}; want 1152, true"
    if r["counts"] != want_counts:
        return f"counts {r['counts']}, want {want_counts}"
    if len(r["pairs"]) != 8 or not all(pr["coincide"] for pr in r["pairs"]):
        return f"{len(r['pairs'])} pairs, coinciding: {[pr['coincide'] for pr in r['pairs']]}"
    if (r["sylow_order"], r["normalizer_order"]) != (128, 128):
        return f"|P| = {r['sylow_order']}, |N_G(P)| = {r['normalizer_order']}, want 128, 128"
    return None


# -- the workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]  # "{group}" stands for the generated group file
    check: Check
    group: Callable[[], tuple[int, list[list[int]]]] | None = None

    def inputs(self, seed: int, sample: int) -> bytes | None:
        """The group file that sample number ``sample`` of a run reads, or None.

        Every sample gets its own relabelling: the cost of the subgroup
        toolbox depends on the labelling (on S4 wr C2 one labelling makes 40%
        more permutation products than another), so a run that timed a single
        labelling would measure that labelling rather than the group.
        """
        if self.group is None:
            return None
        degree, gens = self.group()
        gens = relabel(degree, gens, f"{self.name}:{seed}:{sample}")
        record = {"name": self.name, "degree": degree, "generators": gens}
        return (json.dumps(record, sort_keys=True) + "\n").encode()

    def argv(self, group_path: Path | None) -> list[str]:
        return [str(group_path) if a == "{group}" else a for a in self.cli_args]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_all",
            ("verify", "--all", "--format", "structured"),
            golden_check(GOLDEN / "verify_all.json"),
        ),
        Workload(
            "remark648",
            ("remark648", "--format", "structured"),
            golden_check(GOLDEN / "remark648.json"),
        ),
        Workload(
            "s4wrc2_verify",
            ("verify", "--group", "{group}", "-p", "2", "--format", "structured"),
            check_s4wrc2_verify,
            s4_wreath_c2_generators,
        ),
    )
}

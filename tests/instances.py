"""The suite's instance catalogue and its golden manifest (a helper module, not collected).

The catalogue names every group the tests share: the packaged corpus, and
stress groups built here from generators as ``{name, degree, generators}``
records, the format ``--group`` reads from a file.  ``named_group`` loads
any of them once per session; ``fresh_group`` builds one anew, for tests of
what a run leaves behind on its group.

``MANIFEST`` has one entry per file under ``golden/``: the CLI arguments
whose output that file pins byte for byte.  ``test_cli`` runs every entry
in-process and in a fresh ``python -O`` process.  A new pinned output is one
entry here plus a golden generated by the code it pins.
"""

import json
import pathlib
import random
from functools import lru_cache
from typing import NamedTuple

from charcorr.common import corpus, corpus_path, load_corpus_group
from charcorr.groups import PermGroup, group_from_dict, load_group
from charcorr.showcase import remark_generators

GOLDEN = pathlib.Path(__file__).parent / "golden"

# every packaged corpus group once, in corpus run order
CORPUS = tuple(dict.fromkeys(entry.name for entry in corpus()))


# -- groups built from generators ---------------------------------------------------


def heisenberg_record(p: int) -> dict:
    """Heisenberg group mod p (order p^3, p^2 + p - 1 classes) on the points of Z_p^2.

    Point (x, y) is px + y.  The generators are the affine maps
    (x, y) -> (x + 1, y) and (x, y) -> (x, y + x); their commutator is the
    central translation (x, y) -> (x, y + 1).
    """
    shift = [p * ((x + 1) % p) + y for x in range(p) for y in range(p)]
    shear = [p * x + (y + x) % p for x in range(p) for y in range(p)]
    return {"name": f"heis{p}", "degree": p * p, "generators": [shift, shear]}


def heis7c3_record() -> dict:
    """7^{1+2}:C3 (order 1029) on the 343 points (a, b, c) of F_7^3, indexed 49a + 7b + c.

    With the product (a, b, c)(a', b', c') = (a + a', b + b', c + c' + ab'),
    the right translations by (1, 0, 0) and (0, 1, 0) generate 7^{1+2}
    acting regularly.  The automorphism (a, b, c) -> (2a, 2b, 4c) of order 3
    fixes only the identity, so P = C3 is self-normalizing, and the descent
    at p = 3 takes two levels: 1029 -> 21 -> 3.
    """
    points = [(a, b, c) for a in range(7) for b in range(7) for c in range(7)]

    def perm(f):
        return [49 * x + 7 * y + z for x, y, z in (f(*pt) for pt in points)]

    return {
        "name": "7^(1+2):C3",
        "degree": 343,
        "generators": [
            perm(lambda a, b, c: ((a + 1) % 7, b, c)),
            perm(lambda a, b, c: (a, (b + 1) % 7, (c + a) % 7)),
            perm(lambda a, b, c: (2 * a % 7, 2 * b % 7, 4 * c % 7)),
        ],
    }


def wreath_record(name: str, degree: int, generators, k: int) -> dict:
    """B wr C_k on k blocks of ``degree`` points, B given by its generators.

    The generators are B's own, acting on the first block (points
    0..degree-1) and fixing the rest, and the block rotation i -> i + degree.
    """
    n = degree * k
    gens = [list(g) + list(range(degree, n)) for g in generators]
    rotation = [(i + degree) % n for i in range(n)]
    return {"name": name, "degree": n, "generators": [*gens, rotation]}


# C7 wr C3 (order 1029): neither its Sylow 3- nor its Sylow 7-subgroup is self-normalizing
C7_WR_C3 = wreath_record("C7wrC3", 7, [[(i + 1) % 7 for i in range(7)]], 3)
# C5 wr C4 (order 2500): its Sylow 2-subgroup is not self-normalizing
C5_WR_C4 = wreath_record("C5wrC4", 5, [[(i + 1) % 5 for i in range(5)]], 4)
# (S3 wr C2) wr C2 (order 10368) on 12 points; at p = 2 one descent level
S3_WR_C2 = wreath_record("S3wrC2", 3, [[1, 0, 2], [1, 2, 0]], 2)
S3_WR_C2_WR_C2 = wreath_record("(S3wrC2)wrC2", 6, S3_WR_C2["generators"], 2)


def direct_product_record(name: str, *records: dict) -> dict:
    """The direct product of the given groups, each factor on its own block of points.

    Factor i acts on the points offset_i..offset_i + degree_i - 1 through its
    own generators, shifted by offset_i, and fixes every other point.
    """
    n = sum(r["degree"] for r in records)
    gens, offset = [], 0
    for r in records:
        d = r["degree"]
        for g in r["generators"]:
            gens.append([*range(offset), *(offset + x for x in g), *range(offset + d, n)])
        offset += d
    return {"name": name, "degree": n, "generators": gens}


S4_RECORD = {"name": "S4", "degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}
# S4 x S4 x S4 (order 13824) on 12 points; at p = 2 one descent level, 13824 -> H512
S4_CUBED = direct_product_record("S4xS4xS4", S4_RECORD, S4_RECORD, S4_RECORD)


def agl1_record(q: int) -> dict:
    """AGL(1, q) = {x -> ax + b} (order q(q - 1)) on the q points of GF(q), q prime, 8, 9 or 49.

    The generators are x -> x + 1 and x -> gx with g primitive: conjugating
    the first by powers of the second gives every translation x -> x + g^k.
    GF(8) is F_2[t]/(t^3 + t + 1) with c0 + c1 t + c2 t^2 at point c0 + 2c1 + 4c2
    and g = t.  GF(9) and GF(49) are F_p[i]/(i^2 + 1), p = 3 and 7, with
    a + bi at point a + pb and g = c + i: 1 + i of order 8 and 2 + i of
    order 48.  For odd q the Sylow 2-subgroup is self-normalizing exactly
    when q - 1 is a power of 2.
    """
    points = range(q)
    if q == 8:
        plus_one = [x ^ 1 for x in points]
        times_g = [(x << 1) ^ (0b1011 if x & 4 else 0) for x in points]  # t^3 = t + 1
    elif q in (9, 49):
        p, c = (3, 1) if q == 9 else (7, 2)
        plus_one = [(x + 1) % p + p * (x // p) for x in points]
        # (a + bi)(c + i) = (ca - b) + (a + cb)i
        times_g = [(c * (x % p) - x // p) % p + p * ((x % p + c * (x // p)) % p) for x in points]
    else:
        g = next(g for g in range(1, q) if len({pow(g, k, q) for k in range(1, q)}) == q - 1)
        plus_one = [(x + 1) % q for x in points]
        times_g = [g * x % q for x in points]
    return {"name": f"AGL(1,{q})", "degree": q, "generators": [plus_one, times_g]}


# ((S3 wr C2) wr C2) x AGL(1,9) (order 746496, 486 classes) on 21 points, the instance at
# the enumeration cap: `verify -p 2 --cap 1000000`.  Not pinned, as one run takes over a
# minute; a change to the table engine compares its output with the parent's by hand.
CAP_RECORD = direct_product_record("((S3wrC2)wrC2)xAGL(1,9)", S3_WR_C2_WR_C2, agl1_record(9))


def s4_wreath_c2_record(seed: int) -> dict:
    """Group record of S4 wr C2 (order 1152) on 8 points, relabelled by a seeded shuffle."""
    gens = [
        [1, 0, 2, 3, 4, 5, 6, 7],  # a transposition in the first S4
        [1, 2, 3, 0, 4, 5, 6, 7],  # a 4-cycle in the first S4
        [4, 5, 6, 7, 0, 1, 2, 3],  # the block swap
    ]
    pi = list(range(8))
    random.Random(seed).shuffle(pi)
    relabelled = []
    for g in gens:
        h = [0] * 8
        for i in range(8):
            h[pi[i]] = pi[g[i]]
        relabelled.append(h)
    return {"name": f"S4wrC2#{seed}", "degree": 8, "generators": relabelled}


def gl23_record() -> dict:
    """Group record of 3^{1+2}:GL(2,3) (order 1296) on the 27 points of 3^{1+2}.

    The order-648 showcase generators give 3^{1+2}:SL(2,3).  The extra one,
    (a, b, c) -> (a, -b, -c), lifts diag(1, -1); for this det -1 matrix the
    zero quadratic form is the only one that makes the lift an automorphism.
    It makes the Sylow 2-subgroup self-normalizing, and the descent takes
    three levels: 1296 -> 432 -> 48 -> 16.
    """
    u = [9 * a + 3 * (-b % 3) + (-c % 3) for a in range(3) for b in range(3) for c in range(3)]
    gens = [list(g) for g in remark_generators()] + [u]
    return {"name": "3^(1+2):GL(2,3)", "degree": 27, "generators": gens}


RECORDS = {
    "heis5": heisenberg_record(5),
    "heis7": heisenberg_record(7),
    "heis7c3": heis7c3_record(),
    "c7wrc3": C7_WR_C3,
    "c5wrc4": C5_WR_C4,
    "s3wrc2wrc2": S3_WR_C2_WR_C2,
    "gl23": gl23_record(),
    **{f"agl{q}": agl1_record(q) for q in (5, 7, 8, 9, 17, 49)},
}


# every catalogue group once: the corpus, the records, and S4 wr C2 at seed 1
CATALOGUE = CORPUS + tuple(RECORDS) + ("s4wrc2#1",)


@lru_cache(maxsize=None)
def s4_wreath_c2(seed: int) -> PermGroup:
    """S4 wr C2 (order 1152) on 8 points, its points relabelled by a seeded shuffle."""
    return group_from_dict(s4_wreath_c2_record(seed))


@lru_cache(maxsize=None)
def named_group(name: str) -> PermGroup:
    """A catalogue group: a corpus name, a key of RECORDS, or ``s4wrc2#<seed>``."""
    if name.startswith("s4wrc2#"):
        return s4_wreath_c2(int(name.split("#")[1]))
    if name in RECORDS:
        return group_from_dict(RECORDS[name])
    return load_corpus_group(name)


def fresh_group(name: str) -> PermGroup:
    """A catalogue group built anew on each call, sharing no state with ``named_group``'s."""
    if name.startswith("s4wrc2#"):
        return group_from_dict(s4_wreath_c2_record(int(name.split("#")[1])))
    if name in RECORDS:
        return group_from_dict(RECORDS[name])
    return load_group(corpus_path(name))


# (name, p) for every catalogue instance inside the theorem's hypotheses
THEOREM_INSTANCES = tuple((e.name, e.prime) for e in corpus() if e.expect == "theorem") + (
    ("s4wrc2#1", 2),
    ("gl23", 2),
    ("heis5", 5),
    ("heis7", 7),
    ("heis7c3", 3),
    ("agl5", 2),
    ("agl9", 2),
    ("agl17", 2),
)


def write_record(record: dict, folder, stem: str) -> pathlib.Path:
    """Write a group record as the JSON file that ``--group`` reads; return its path."""
    path = pathlib.Path(folder) / f"{stem}.json"
    path.write_text(json.dumps(record))
    return path


# -- the golden manifest --------------------------------------------------------------


class GoldenRun(NamedTuple):
    """CLI arguments whose output is pinned by ``golden/<golden>``.

    With a record, ``--group`` names a file holding it.
    """

    id: str
    argv: tuple[str, ...]
    record: dict | None
    golden: str

    def command(self, folder) -> list[str]:
        """The arguments to run, writing the record (if any) into folder."""
        if self.record is None:
            return list(self.argv)
        return [*self.argv, "--group", str(write_record(self.record, folder, self.id))]


_TEXT = ("--format", "text")
_STRUCTURED = ("--format", "structured")

MANIFEST = (
    GoldenRun("s4_table", ("table", "--group", "corpus/s4", *_TEXT), None, "s4_table.txt"),
    GoldenRun("d8_table", ("table", "--group", "d8", *_TEXT), None, "d8_table.txt"),
    GoldenRun("f21_table", ("table", "--group", "f21", *_TEXT), None, "f21_table.txt"),
    GoldenRun("sl23_table", ("table", "--group", "sl23", *_TEXT), None, "sl23_table.txt"),
    GoldenRun("heis7_table", ("table", *_STRUCTURED), RECORDS["heis7"], "heis7_table.json"),
    GoldenRun("verify_all", ("verify", "--all", *_STRUCTURED), None, "verify_all.json"),
    GoldenRun("remark648", ("remark648", *_STRUCTURED), None, "remark648.json"),
    # 25 linear characters of a p-group: 25 decompositions on its own table
    GoldenRun(
        "heis5_verify", ("verify", "-p", "5", *_STRUCTURED), RECORDS["heis5"], "heis5_verify.json"
    ),
    # a p-group at p = 7: its 49 p'-degree characters are its linear ones
    GoldenRun(
        "heis7_verify", ("verify", "-p", "7", *_STRUCTURED), RECORDS["heis7"], "heis7_verify.json"
    ),
    # 8 characters through one level, sharing 2 thetas below them
    GoldenRun(
        "s4wrc2_verify",
        ("verify", "-p", "2", *_STRUCTURED),
        s4_wreath_c2_record(1),
        "s4wrc2_verify.json",
    ),
    # every p'-character descends through three levels: 1296 -> 432 -> 48 -> 16
    GoldenRun(
        "gl23_verify", ("verify", "-p", "2", *_STRUCTURED), RECORDS["gl23"], "gl23_verify.json"
    ),
    # the first odd-p instance with two levels: 1029 -> 21 -> 3
    GoldenRun(
        "heis7c3_verify",
        ("verify", "-p", "3", *_STRUCTURED),
        RECORDS["heis7c3"],
        "heis7c3_verify.json",
    ),
    # order 10368: 8 characters through one level, 10368 -> K81/L1 -> H128
    GoldenRun(
        "s3wrc2wrc2_verify",
        ("verify", "-p", "2", *_STRUCTURED),
        RECORDS["s3wrc2wrc2"],
        "s3wrc2wrc2_verify.json",
    ),
    # a direct product: 64 characters through one level, 13824 -> K1728/L64 -> H512
    GoldenRun("s4cubed_verify", ("verify", "-p", "2", *_STRUCTURED), S4_CUBED, "s4cubed_verify.json"),
)

"""Command-line frontend: character tables, correspondence verification,
and the order-648 showcase.

Exit codes: 0 = everything verified (or ``-h``/``--help`` printed), 1 = a
falsification (a checked theorem statement failed), 2 = input or hypothesis
error, including a command line that does not parse (its error follows the
usage on stderr; ``main`` returns 2 and raises no ``SystemExit``) and an
output that cannot be written (an empty ``--out``, or one naming a directory
or a missing directory, is refused before any work; a failed write to
``--out`` or to stdout is caught when it happens), 3 = engine error (an
internal invariant failed, e.g. a table that fails orthogonality or a
showcase ``ConstructionError``, or any other unexpected exception; this is
a bug in the engine, not a statement about the group).  A stderr that
cannot be written loses its message but never changes the exit code.

Each command loads only its own engine: ``verify`` imports ``mckay``, and
``remark648`` imports ``showcase``, inside the function that runs it, so
no process compiles a module its command never calls; ``table`` needs
neither.  What every command uses (the error classes, ``as_json`` and the
corpus helpers) comes from ``common``, imported at the top.

``main(argv)`` is the in-process API and leaves the interpreter as it found
it.  ``run()`` is the entry point of a fresh process: ``python -m
charcorr.cli`` and the ``charcorr`` script.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace
from typing import NoReturn

from .chartab import character_table
from .common import (
    FalsificationError,
    HypothesisError,
    as_json,
    corpus,
    corpus_path,
    load_corpus_group,
)
from .cyclotomic import is_prime
from .groups import DEFAULT_CAP, MAX_CAP, GroupTooLargeError, MalformedGroupError, load_group


class OutputError(Exception):
    """The --out path cannot be written."""


def _resolve_group(spec: str, cap: int):
    """A --group argument is a file path or a builtin corpus name.

    A missing path falls back to the shipped corpus only when it is a bare
    name or ``corpus/NAME``, with or without ``.json``; any other missing
    path is an error, never a shipped group of the same basename.
    """
    for candidate in (spec, spec + ".json"):
        if os.path.isfile(candidate):
            return load_group(candidate, cap=cap)
    folder, base = os.path.split(spec)
    if base.endswith(".json"):
        base = base[:-5]
    if folder in ("", "corpus"):
        packaged = corpus_path(base)
        if os.path.isfile(packaged):
            return load_group(packaged, cap=cap)
    raise FileNotFoundError(f"group file or builtin name not found: {spec}")


def _emit(text: str, out: str | None) -> None:
    """Write the output to --out, or to stdout and flush it, so that none is left buffered."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write --out {out}: {exc}") from exc
        return
    if sys.stdout is None:  # the interpreter started with descriptor 1 closed
        raise OutputError("cannot write output: stdout is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise OutputError(f"cannot write output: {exc}") from exc


def _dump_json(payload) -> str:
    return json.dumps(as_json(payload), indent=2, sort_keys=True) + "\n"


# -- table ---------------------------------------------------------------------------


def cmd_table(cfg: SimpleNamespace) -> int:
    G = _resolve_group(cfg.group, cfg.cap)
    _log(cfg, f"computing the character table of {G.name} (order {G.order})")
    table = character_table(G)
    if cfg.fmt == "structured":
        _emit(_dump_json(table.to_dict()), cfg.out)
    else:
        _emit(table.render_text(), cfg.out)
    return 0


# -- verify --------------------------------------------------------------------------


def _verify_report_text(rep) -> str:
    lines = [
        f"group {rep.group}  order {rep.order}  p {rep.p}",
        "flags " + " ".join(f"{k}={str(v).lower()}" for k, v in sorted(rep.flags.items())),
        f"sylow {rep.sylow_order}  normalizer {rep.normalizer_order}  Lin(P) {rep.linear_count}",
        f"counts |Irr_p'(G)|={rep.counts.irr_p_prime_g} |Irr_p'(N)|={rep.counts.irr_p_prime_n}"
        f" equal={str(rep.counts.equal).lower()}",
        "pairs:",
    ]
    for pr in rep.pairs:
        steps = " ".join(
            f"[{s.order}->K{s.k_order}/L{s.l_order}->H{s.h_order}]" for s in pr.trace
        )
        lines.append(
            f"  chi {pr.chi} (deg {pr.chi_degree}) -> star {pr.star},"
            f" descent {pr.descent}, coincide={str(pr.coincide).lower()}"
            + (f"  {steps}" if steps else "")
            + (f"  ERROR: {pr.error}" if pr.error else "")
        )
    lines.append(f"star bijection: {str(rep.star_bijection).lower()}")
    lines.append(f"descent bijection: {str(rep.descent_bijection).lower()}")
    lines.append(f"verdict: {'TRUE' if rep.verdict else 'FALSE'}")
    return "\n".join(lines) + "\n"


def _report(code: int, message: str) -> int:
    """Print a line to stderr, if it can be written, and return code."""
    if sys.stderr is not None:  # None: the descriptor was closed when the interpreter started
        try:
            print(message, file=sys.stderr)
        except OSError:
            pass
    return code


def _log(cfg: SimpleNamespace, message: str) -> None:
    if cfg.verbose:
        _report(0, message)


def _run_corpus_entry(entry, cap: int) -> dict:
    from .mckay import check_hypotheses, mckay_count, verify_main

    G = load_corpus_group(entry.name, cap=cap)
    inst = check_hypotheses(G, entry.prime)
    if inst.hypotheses_ok != (entry.expect == "theorem"):
        raise RuntimeError(
            f"corpus entry {entry.name} at p={entry.prime} expects {entry.expect},"
            f" but its flags are {inst.flag_summary()}"
        )
    rep = verify_main(inst) if inst.hypotheses_ok else None
    counts = rep.counts if rep else mckay_count(inst)
    return {
        "name": entry.name,
        "group": G.name,
        "order": G.order,
        "p": entry.prime,
        "expect": entry.expect,
        "flags": inst.flag_summary(),
        "counts": counts,
        "report": rep,
        "verdict": rep.verdict if rep else None,
        "ok": rep.verdict if rep else counts.equal,  # the verdict already requires equal counts
    }


def cmd_verify(cfg: SimpleNamespace) -> int:
    from .mckay import check_hypotheses, verify_main

    if not cfg.run_all:
        G = _resolve_group(cfg.group, cfg.cap)
        rep = verify_main(check_hypotheses(G, cfg.prime))
        if cfg.fmt == "structured":
            _emit(_dump_json(rep), cfg.out)
        else:
            _emit(_verify_report_text(rep), cfg.out)
        return 0 if rep.verdict else 1

    records = []
    for e in corpus():
        _log(cfg, f"verifying {e.name} at p={e.prime}")
        records.append(_run_corpus_entry(e, cfg.cap))
    all_ok = all(r["ok"] for r in records)
    if cfg.fmt == "structured":
        _emit(_dump_json({"instances": records, "all_ok": all_ok}), cfg.out)
    else:
        lines = []
        for r in records:
            c = r["counts"]
            if r["verdict"] is None:
                failed = ", ".join(k for k, v in sorted(r["flags"].items()) if not v)
                status = f"SKIP descent (hypothesis fails: {failed})"
            else:
                status = f"verdict={str(r['verdict']).lower()} pairs={len(r['report'].pairs)}"
            lines.append(
                f"{r['name']:<10s} p={r['p']}  {status}  counts=({c.irr_p_prime_g},"
                f"{c.irr_p_prime_n},{str(c.equal).lower()})"
            )
        lines.append(f"all ok: {str(all_ok).lower()}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0 if all_ok else 1


# -- remark648 -----------------------------------------------------------------------


def _remark_text(report: dict) -> str:
    o = report["orders"]
    fr = report["fully_ramified"]
    psi = report["psi"]
    lines = [
        f"Remark648: |G|={o['G']} |K|={o['K']} |L|={o['L']} |H|={o['H']} |P|={o['P']} |N|={o['N']}",
        f"fully ramified: theta={fr['theta']} e={fr['e']} phi={fr['phi']} (degree {fr['phi_degree']})",
        f"psi: alpha={psi['alpha']} beta={psi['beta']} degree={psi['degree']}",
        "psi values: " + ", ".join(psi["values"]),
        "pairs and restriction inner products:",
    ]
    for r in report["non_constituent"]:
        tag = "asserted 0" if r["asserted_zero"] else "reported"
        lines.append(
            f"  chi {r['chi']} (deg {r['chi_degree']}) <-> xi {r['xi']} (deg {r['xi_degree']}):"
            f" <chi_N, xi> = {r['inner_product']}  [{tag}]"
        )
    lines.append(f"viable candidates: {len(report['viable_candidates'])}")
    return "\n".join(lines) + "\n"


def cmd_remark(cfg: SimpleNamespace) -> int:
    from .showcase import remark_report

    _log(cfg, "building the order-648 group and running all showcase checks")
    report = remark_report(cap=cfg.cap)
    if cfg.fmt == "structured":
        _emit(_dump_json(report), cfg.out)
    else:
        _emit(_remark_text(report), cfg.out)
    return 0


# -- wiring --------------------------------------------------------------------------

_COMMON = {
    "--format": ("fmt", ("text", "structured")),
    "--out": ("out", str),
    "--cap": ("cap", int),
    "-v": ("verbose", bool),
    "--verbose": ("verbose", bool),
}
# command -> (its usage after the name, option -> (config field, kind)); a kind
# is bool (a flag, which takes no value), str, int, or a tuple of the values allowed
COMMANDS = {
    "table": ("--group GROUP [OPTIONS]", {"--group": ("group", str), **_COMMON}),
    "verify": (
        "(--group GROUP -p PRIME | --all) [OPTIONS]",
        {
            "--group": ("group", str),
            "-p": ("prime", int),
            "--prime": ("prime", int),
            "--all": ("run_all", bool),
            **_COMMON,
        },
    ),
    "remark648": ("[OPTIONS]", _COMMON),
}
DEFAULTS = {
    "group": None,
    "prime": None,
    "run_all": False,
    "fmt": "text",
    "out": None,
    "cap": DEFAULT_CAP,
    "verbose": False,
}
USAGE = "usage: " + "\n       ".join(f"charcorr {c} {u}" for c, (u, _) in COMMANDS.items())
HELP = f"""{USAGE}

Exact character tables and McKay correspondence verification.

commands:
  table                       print or export a character table
  verify                      verify the correspondence coincidence
  remark648                   run the order-648 showcase verification

options, spelled in full as --opt VALUE or --opt=VALUE (-p as -p PRIME):
  --group GROUP               group file path or builtin name
  -p PRIME, --prime PRIME     the prime p
  --all                       run the whole corpus
  --format {{text,structured}}  output format (default: text)
  --out OUT                   write output to this path (default: stdout)
  --cap CAP                   element enumeration cap (default: {DEFAULT_CAP}, at most {MAX_CAP})
  -v, --verbose               report progress on stderr
  -h, --help                  print this help and exit
"""


class UsageError(Exception):
    """The command line does not parse; ``usage`` is the usage of its command, or all of it."""

    def __init__(self, command: str | None, message: str):
        super().__init__(message)
        self.usage = f"usage: charcorr {command} {COMMANDS[command][0]}" if command else USAGE


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The command line as a config with every field of ``DEFAULTS``, or None for help.

    The command comes first.  Each option is spelled out in full and given as
    ``--opt VALUE`` or ``--opt=VALUE`` (``-p VALUE`` for the short one); the
    last of a repeated option wins.  Anything else raises UsageError.
    """
    if "-h" in argv or "--help" in argv:  # no value may start with "-" but a negative number
        return None
    if not argv or argv[0] not in COMMANDS:
        raise UsageError(None, f"unknown command {argv[0]!r}" if argv else "missing command")
    command = argv[0]
    options = COMMANDS[command][1]
    cfg = SimpleNamespace(command=command, **DEFAULTS)
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        if name not in options:
            raise UsageError(command, f"unrecognized argument {token}")
        field, kind = options[name]
        if kind is bool:
            if eq:
                raise UsageError(command, f"option {name} takes no value")
            setattr(cfg, field, True)
            continue
        if not eq:
            value = next(tokens, None)
            # a negative number is a value; anything else starting with "-" is an option
            if value is None or (value[:1] == "-" and not value[1:].isdigit()):
                raise UsageError(command, f"option {name} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(command, f"option {name}: {value!r} is not an integer") from None
        elif isinstance(kind, tuple) and value not in kind:
            choices = ", ".join(kind)
            raise UsageError(command, f"option {name}: {value!r} is not one of {choices}")
        setattr(cfg, field, value)
    return cfg


def _check_config(cfg: SimpleNamespace) -> None:
    """Refuse conflicting or out-of-range options before any work starts."""
    group, prime = cfg.group, cfg.prime
    if cfg.cap < 1:
        raise MalformedGroupError(f"cap must be >= 1, got {cfg.cap}")
    if cfg.cap > MAX_CAP:
        raise MalformedGroupError(f"cap must be <= {MAX_CAP}, got {cfg.cap}")
    if cfg.command == "verify":
        given = group is not None or prime is not None
        complete = bool(group) and prime is not None
        if (cfg.run_all and given) or not (cfg.run_all or complete):
            raise HypothesisError("verify needs --group and -p, or --all")
    if prime is not None:
        # no group within the cap has an order that a larger prime divides;
        # refusing it first keeps a huge p from reaching trial division
        if prime > cfg.cap:
            raise HypothesisError(f"p = {prime} exceeds the cap {cfg.cap} on |G|")
        if not is_prime(prime):
            raise HypothesisError(f"{prime} is not prime")
    if cfg.out is not None:
        if not cfg.out:
            raise OutputError("--out needs a file name")
        if os.path.isdir(cfg.out):
            raise OutputError(f"--out {cfg.out} is a directory")
        folder = os.path.dirname(os.path.abspath(cfg.out))
        if not os.path.isdir(folder):
            raise OutputError(f"--out {cfg.out}: directory {folder} does not exist")
    if cfg.command == "table" and not group:
        raise MalformedGroupError("table needs --group")


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
        if cfg is None:
            _emit(HELP, None)
            return 0
        _check_config(cfg)
        if cfg.command == "table":
            return cmd_table(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        return cmd_remark(cfg)
    except FalsificationError as exc:
        return _report(1, f"FALSIFIED: {exc}")
    except UsageError as exc:
        return _report(2, f"{exc.usage}\nerror: {exc}")
    except (
        MalformedGroupError,
        GroupTooLargeError,
        HypothesisError,
        OutputError,
        FileNotFoundError,
    ) as exc:
        return _report(2, f"error: {exc}")
    except (RuntimeError, ValueError) as exc:
        return _report(3, f"engine error: {exc}")
    except Exception as exc:  # any other engine bug is an engine error, not a falsification
        return _report(3, f"engine error: {type(exc).__name__}: {exc}")


def run() -> NoReturn:
    """Run ``main`` as a whole process: no cyclic GC, and no interpreter teardown at exit.

    Nothing the engine or the argument parser builds becomes cyclic garbage
    while a command runs (a test in ``tests/test_cli.py`` guards the engine),
    so collections during the run would reclaim nothing.  The final full
    collection and module teardown would free memory that the ending process
    hands back anyway.  ``_emit`` has flushed the output and closed
    ``--out``, and the package registers no ``atexit`` handler.  Every exit,
    ``--help`` and usage errors included, goes through ``main``'s return
    value.
    """
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # the descriptor was closed when the interpreter started
            continue
        try:
            stream.flush()
        except OSError:  # output still buffered here is output whose failed write main reported
            pass
    os._exit(code)


if __name__ == "__main__":
    run()

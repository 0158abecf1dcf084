"""Command-line frontend: character tables, correspondence verification,
and the order-648 showcase.

Exit codes: 0 = everything verified, 1 = a falsification (a checked theorem
statement failed), 2 = input or hypothesis error, including an ``--out``
that cannot be written (a directory or a missing directory is refused before
any work), 3 = engine error (an internal invariant failed, e.g. a table that
fails orthogonality or a showcase ``ConstructionError``; this is a bug in the
engine, not a statement about the group).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .chartab import character_table
from .cyclotomic import is_prime
from .groups import DEFAULT_CAP, GroupTooLargeError, MalformedGroupError, load_group
from .mckay import (
    FalsificationError,
    HypothesisError,
    check_hypotheses,
    mckay_count,
    verify_main,
)
from .showcase import corpus, corpus_path, remark_report


class OutputError(Exception):
    """The --out path cannot be written."""


@dataclass
class RunConfig:
    command: str
    group: str | None = None
    prime: int | None = None
    fmt: str = "text"
    out: str | None = None
    cap: int = DEFAULT_CAP
    run_all: bool = False
    verbose: bool = False

    def __post_init__(self):
        if self.cap < 1:
            raise MalformedGroupError(f"cap must be >= 1, got {self.cap}")
        if self.prime is not None and not is_prime(self.prime):
            raise HypothesisError(f"{self.prime} is not prime")
        if self.out:
            if os.path.isdir(self.out):
                raise OutputError(f"--out {self.out} is a directory")
            folder = os.path.dirname(os.path.abspath(self.out))
            if not os.path.isdir(folder):
                raise OutputError(f"--out {self.out}: directory {folder} does not exist")


def _resolve_group(spec: str, cap: int):
    """A --group argument is a file path or a builtin corpus name."""
    for candidate in (spec, spec + ".json"):
        if os.path.isfile(candidate):
            return load_group(candidate, cap=cap)
    base = os.path.basename(spec)
    if base.endswith(".json"):
        base = base[:-5]
    packaged = corpus_path(base)
    if os.path.isfile(packaged):
        return load_group(packaged, cap=cap)
    raise FileNotFoundError(f"group file or builtin name not found: {spec}")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write --out {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- table ---------------------------------------------------------------------------


def cmd_table(cfg: RunConfig) -> int:
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
        f"group {rep.group_name}  order {rep.group_order}  p {rep.p}",
        "flags " + " ".join(f"{k}={str(v).lower()}" for k, v in sorted(rep.flags.items())),
        f"sylow {rep.sylow_order}  normalizer {rep.normalizer_order}  Lin(P) {rep.linear_count}",
        f"counts |Irr_p'(G)|={rep.counts[0]} |Irr_p'(N)|={rep.counts[1]} equal={str(rep.counts[2]).lower()}",
        "pairs:",
    ]
    for pr in rep.pairs:
        steps = " ".join(
            f"[{s.group_order}->K{s.k_order}/L{s.l_order}->H{s.h_order}]" for s in pr.trace.steps
        )
        lines.append(
            f"  chi {pr.chi_index} (deg {pr.chi_degree}) -> star {pr.star_index},"
            f" descent {pr.descent_index}, coincide={str(pr.coincide).lower()}"
            + (f"  {steps}" if steps else "")
            + (f"  ERROR: {pr.error}" if pr.error else "")
        )
    lines.append(f"star bijection: {str(rep.star_bijection).lower()}")
    lines.append(f"descent bijection: {str(rep.descent_bijection).lower()}")
    lines.append(f"verdict: {'TRUE' if rep.verdict else 'FALSE'}")
    return "\n".join(lines) + "\n"


def _log(cfg: RunConfig, message: str) -> None:
    if cfg.verbose:
        print(message, file=sys.stderr)


def _run_corpus_entry(entry, cap: int) -> dict:
    G = load_group(corpus_path(entry.name), cap=cap)
    inst = check_hypotheses(G, entry.prime)
    counts = mckay_count(inst)
    record = {
        "name": entry.name,
        "group": G.name,
        "order": G.order,
        "p": entry.prime,
        "expect": entry.expect,
        "flags": dict(sorted(inst.flag_summary().items())),
        "counts": {"irr_p_prime_g": counts[0], "irr_p_prime_n": counts[1], "equal": counts[2]},
    }
    if inst.hypotheses_ok:
        rep = verify_main(inst)
        record["report"] = rep.to_dict()
        record["verdict"] = rep.verdict
        record["ok"] = rep.verdict and counts[2]
    else:
        record["report"] = None
        record["verdict"] = None
        record["ok"] = counts[2]
    return record


def cmd_verify(cfg: RunConfig) -> int:
    if not cfg.run_all:
        G = _resolve_group(cfg.group, cfg.cap)
        inst = check_hypotheses(G, cfg.prime)
        if not inst.hypotheses_ok:
            failed = [k for k, v in inst.flag_summary().items() if not v]
            raise HypothesisError(
                f"({G.name}, p={cfg.prime}) does not satisfy: {', '.join(failed)}"
            )
        rep = verify_main(inst)
        if cfg.fmt == "structured":
            _emit(_dump_json(rep.to_dict()), cfg.out)
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
                failed = ", ".join(k for k, v in r["flags"].items() if not v)
                status = f"SKIP descent (hypothesis fails: {failed})"
            else:
                status = f"verdict={str(r['verdict']).lower()} pairs={len(r['report']['pairs'])}"
            lines.append(
                f"{r['name']:<10s} p={r['p']}  {status}  counts=({c['irr_p_prime_g']},"
                f"{c['irr_p_prime_n']},{str(c['equal']).lower()})"
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


def cmd_remark(cfg: RunConfig) -> int:
    _log(cfg, "building the order-648 group and running all showcase checks")
    report = remark_report(cap=cfg.cap)
    if cfg.fmt == "structured":
        _emit(_dump_json(report), cfg.out)
    else:
        _emit(_remark_text(report), cfg.out)
    return 0


# -- wiring --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charcorr",
        description="Exact character tables and McKay correspondence verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="element enumeration cap")
        p.add_argument("-v", "--verbose", action="store_true")

    p_table = sub.add_parser("table", help="print or export a character table")
    p_table.add_argument("--group", required=True, help="group file path or builtin name")
    common(p_table)

    p_verify = sub.add_parser("verify", help="verify the correspondence coincidence")
    p_verify.add_argument("--group", help="group file path or builtin name")
    p_verify.add_argument("-p", "--prime", type=int, help="the prime p")
    p_verify.add_argument("--all", action="store_true", help="run the whole corpus")
    common(p_verify)

    p_remark = sub.add_parser("remark648", help="run the order-648 showcase verification")
    common(p_remark)
    return parser


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        group=getattr(args, "group", None),
        prime=getattr(args, "prime", None),
        fmt=args.format,
        out=args.out,
        cap=args.cap,
        run_all=getattr(args, "all", False),
        verbose=args.verbose,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "table":
            if not cfg.group:
                raise MalformedGroupError("table needs --group")
            return cmd_table(cfg)
        if cfg.command == "verify":
            if not cfg.run_all and (not cfg.group or cfg.prime is None):
                raise HypothesisError("verify needs --group and -p, or --all")
            return cmd_verify(cfg)
        return cmd_remark(cfg)
    except FalsificationError as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 1
    except (MalformedGroupError, GroupTooLargeError, HypothesisError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

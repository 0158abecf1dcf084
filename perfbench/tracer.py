"""Run one charcorr CLI invocation with its layers wrapped in spans.

    python3 perfbench/tracer.py TRACE_OUT CLI_ARG...

The wrappers are installed from outside, so the program itself is unchanged.
A function bound by ``from ... import`` lives in several module namespaces,
so each wrapper replaces the function in every charcorr namespace that binds
it.  Kernels are reached through ``G._impl``, the pure kernel module.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans plus the time covered by no span (the uncovered
remainder) add up to the traced wall time of ``cli.main``.  The metrics go to
TRACE_OUT as JSON; the CLI's own output goes to stdout as usual.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# metric prefix -> the functions it covers, as (module, attribute path)
SPANS = {
    "kernels.closure_bfs": [("charcorr.kernels.pure", "closure_bfs")],
    "kernels.conj_orbit_ids": [("charcorr.kernels.pure", "conj_orbit_ids")],
    "kernels.class_matrix": [("charcorr.kernels.pure", "class_matrix")],
    "groups.from_generators": [("charcorr.groups", "PermGroup.from_generators")],
    "groups.conjugacy_classes": [("charcorr.groups", "conjugacy_classes")],
    "groups.sylow": [("charcorr.groups", "sylow")],
    "groups.normalizer": [("charcorr.groups", "normalizer")],
    "groups.derived_subgroup": [("charcorr.groups", "derived_subgroup")],
    "groups.o_p_residual": [("charcorr.groups", "o_p_residual")],
    "groups.normal_subgroups": [("charcorr.groups", "normal_subgroups")],
    "groups.product_subgroup": [("charcorr.groups", "product_subgroup")],
    "groups.fixed_points_on_cosets": [("charcorr.groups", "fixed_points_on_cosets")],
    "fq.eigenvalues": [("charcorr.fq", "eigenvalues")],
    "fq.nullspace": [("charcorr.fq", "nullspace")],
    "fq.rref": [("charcorr.fq", "rref")],
    "chartab.character_table": [("charcorr.chartab", "character_table")],
    "chartab.eigensplit": [("charcorr.chartab", "_common_eigenvectors")],
    "chartab.central_character": [("charcorr.chartab", "_central_character")],
    "chartab.lift": [("charcorr.chartab", "_lift_value")],
    "chartab.orthogonality": [("charcorr.chartab", "_verify_table")],
    "chartab.inner_product": [("charcorr.chartab", "inner_product")],
    "chartab.constituents": [("charcorr.chartab", "constituents")],
    "chartab.restrict": [("charcorr.chartab", "restrict")],
    "chartab.induce": [("charcorr.chartab", "induce")],
    "chartab.is_invariant_under": [("charcorr.chartab", "is_invariant_under")],
    "chartab.orbit_and_stabilizer": [("charcorr.chartab", "orbit_and_stabilizer")],
    "mckay.check_hypotheses": [("charcorr.mckay", "check_hypotheses")],
    "mckay.is_p_solvable": [("charcorr.mckay", "is_p_solvable")],
    "mckay.star": [("charcorr.mckay", "navarro_star")],
    "mckay.descent": [("charcorr.mckay", "isaacs_descent")],
    "mckay.mckay_count": [("charcorr.mckay", "mckay_count")],
    "mckay.verify_main": [("charcorr.mckay", "verify_main")],
    "showcase.build": [("charcorr.showcase", "build_remark_group")],
    "showcase.fully_ramified": [("charcorr.showcase", "verify_fully_ramified")],
    "showcase.recover_psi": [("charcorr.showcase", "recover_psi")],
    "showcase.non_constituent": [("charcorr.showcase", "verify_non_constituent")],
    # serialising and rendering the result; remark_report is left out because
    # its first call runs the whole showcase pipeline
    "cli.emit": [
        ("charcorr.cli", "_dump_json"),
        ("charcorr.cli", "_emit"),
        ("charcorr.cli", "_verify_report_text"),
        ("charcorr.cli", "_remark_text"),
        ("charcorr.chartab", "CharacterTable.to_dict"),
        ("charcorr.chartab", "CharacterTable.render_text"),
        ("charcorr.mckay", "CorrespondenceReport.to_dict"),
    ],
}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.open: list[float] = []  # per open span: time covered by its child spans
        self.covered = 0.0  # time covered by outermost spans
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def span(self, name, fn):
        clock, open_, self_s, counts = self.clock, self.open, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            t0 = clock()
            open_.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - open_.pop()
                counts[name + ".calls"] += 1
                if open_:
                    open_[-1] += dt
                else:
                    self.covered += dt

        return wrapper

    def counter(self, name, fn, amount=lambda args, result: 1, before=None):
        """Count calls (or ``amount`` of each result) without opening a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            if before is not None:
                counts[name] += before(args)
            result = fn(*args, **kwargs)
            counts[name] += amount(args, result)
            return result

        return wrapper

    def install(self, module_name: str, path: str, make) -> None:
        """Replace a function by make(function) wherever charcorr binds it."""
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{path}")
            return
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
            return
        wrapped = make(raw)
        if isinstance(owner, type):  # also catches aliases such as __rmul__ = __mul__
            homes = [owner]
        else:
            homes = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "charcorr"]
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is raw:
                    setattr(home, key, wrapped)

    def install_all(self) -> None:
        # Counters first, so that each span wraps the counted function and the
        # counting cost lands in the span that does the work.
        self.install(
            "charcorr.kernels.pure",
            "closure_bfs",
            lambda f: self.counter("kernels.closure_bfs.elements", f, lambda a, r: len(r)),
        )
        self.install(
            "charcorr.groups",
            "conjugacy_classes",
            lambda f: self.counter(
                "groups.conjugacy_classes.groups",
                f,
                amount=lambda a, r: 0,
                before=lambda a: a[0]._classes is None,
            ),
        )
        self.install(
            "charcorr.chartab", "_dixon_schneider", lambda f: self.counter("chartab.tables_built", f)
        )
        self.install(
            "charcorr.cyclotomic", "Cyc.__mul__", lambda f: self.counter("cyclotomic.Cyc.mul.calls", f)
        )
        self.install(
            "charcorr.cyclotomic", "Cyc.__add__", lambda f: self.counter("cyclotomic.Cyc.add.calls", f)
        )
        for name, targets in SPANS.items():
            for module_name, path in targets:
                self.install(module_name, path, lambda f, name=name: self.span(name, f))

    def metrics(self, wall: float) -> dict:
        out = {"trace.wall_s": wall, "trace.uncovered_s": wall - self.covered}
        for name in SPANS:
            out[name + ".s"] = self.self_s.get(name, 0.0)
            out[name + ".calls"] = self.counts.get(name + ".calls", 0)
        for name in (
            "kernels.closure_bfs.elements",
            "groups.conjugacy_classes.groups",
            "chartab.tables_built",
            "cyclotomic.Cyc.mul.calls",
            "cyclotomic.Cyc.add.calls",
        ):
            out[name] = self.counts.get(name, 0)
        calls = out["chartab.character_table.calls"]
        out["chartab.table_cache.hit_ratio"] = (
            1 - out["chartab.tables_built"] / calls if calls else 0.0
        )
        return out


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    import charcorr.cli as cli

    tracer = Tracer()
    tracer.install_all()
    t0 = tracer.clock()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        wall = tracer.clock() - t0
        if tracer.missing:
            print(f"tracer: not found, reported as zero: {tracer.missing}", file=sys.stderr)
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"metrics": tracer.metrics(wall), "missing": tracer.missing}, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

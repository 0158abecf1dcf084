"""The benchmark's tracer still finds the functions it wraps.

``perfbench/tracer.py`` wraps package functions by (module, attribute path)
and reports a target it cannot resolve as zero, so a moved kernel or a
renamed function would silently read 0.  The tracer file is only read here.
"""

import importlib
import importlib.util
import pathlib

import charcorr.kernels
from charcorr.groups import PermGroup

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# spans on functions the package no longer has; the next benchmark change drops them.
# No command calls normal_subgroups or CorrespondenceReport.to_dict, so their
# spans read 0 calls on every workload whether or not they resolve.
KNOWN_STALE = {
    "charcorr.chartab._central_character",
    "charcorr.chartab.inner_product",
    "charcorr.fq.eigenvalues",
    "charcorr.fq.nullspace",
    "charcorr.fq.rref",
    "charcorr.groups.normal_subgroups",
    "charcorr.mckay.CorrespondenceReport.to_dict",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, path: str) -> bool:
    """The lookup ``Tracer.install`` makes before it wraps anything."""
    try:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        vars(owner)[attr]
    except (ImportError, AttributeError, KeyError):
        return False
    return True


def test_every_tracer_target_resolves_except_the_known_stale_spans():
    tracer = _load_tracer()
    targets = []

    class Recorder(tracer.Tracer):
        def install(self, module_name, path, make):  # record instead of wrapping
            targets.append((module_name, path))

    Recorder().install_all()
    spans = {target for span in tracer.SPANS.values() for target in span}
    assert spans <= set(targets)  # install_all covers every span, plus its counters
    missing = {f"{m}.{p}" for m, p in targets if not _resolves(m, p)}
    assert missing == KNOWN_STALE


def test_benchmark_probes_still_answer():
    assert charcorr.kernels.BACKEND == "pure"  # read by perfbench/run.py's probe
    G = PermGroup.from_generators(3, [[1, 2, 0]], name="C3")
    assert G._classes is None  # the tracer's "groups built" counter reads this slot

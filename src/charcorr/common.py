"""What every command of the CLI uses, so that no command loads another's engine to get it.

The engines (``mckay`` for ``verify``, ``showcase`` for ``remark648``) raise
``HypothesisError`` and ``FalsificationError`` and return records that
``as_json`` serializes; ``verify --all`` runs the shipped corpus, and
``--group`` falls back to its files by name.  These names are not in
``groups``: past 4096 tokens, compiling a module makes the parser allocate
4096 more at once (about 250 KiB), and ``groups.py`` is near that bound.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple

from .groups import DEFAULT_CAP, PermGroup, load_group


class HypothesisError(Exception):
    """An operation was asked to run on an instance missing its hypotheses."""


class FalsificationError(Exception):
    """A verified theorem statement failed; carries forensic context."""

    def __init__(self, message: str, **context):
        self.context = context
        if context:
            detail = "; ".join(f"{k}={v}" for k, v in sorted(context.items()))
            message = f"{message} [{detail}]"
        super().__init__(message)


def as_json(value):
    """Plain JSON data: a record becomes a dict of its fields, a tuple a list."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {k: as_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [as_json(v) for v in value]
    return value


class CorpusEntry(NamedTuple):
    name: str
    prime: int
    expect: str  # "theorem" | "hypothesis-fail" | "showcase"


def corpus() -> tuple[CorpusEntry, ...]:
    """The shipped verification targets, in canonical run order."""
    return (
        CorpusEntry("s3", 2, "theorem"),
        CorpusEntry("c3xc2", 2, "theorem"),
        CorpusEntry("s4", 2, "theorem"),
        CorpusEntry("d8", 2, "theorem"),
        CorpusEntry("f21", 3, "theorem"),
        CorpusEntry("c5c5_c3", 3, "theorem"),
        CorpusEntry("c7", 7, "theorem"),
        CorpusEntry("sl23", 3, "hypothesis-fail"),
        CorpusEntry("f21", 7, "hypothesis-fail"),
        CorpusEntry("remark648", 2, "showcase"),
    )


def corpus_path(name: str) -> str:
    """The shipped group file ``corpus/NAME.json``, package data beside this module."""
    return os.path.join(os.path.dirname(__file__), "corpus", f"{name}.json")


@lru_cache(maxsize=None)
def load_corpus_group(name: str, cap: int = DEFAULT_CAP) -> PermGroup:
    return load_group(corpus_path(name), cap=cap)

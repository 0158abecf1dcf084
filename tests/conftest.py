"""Shared fixtures: corpus groups and instances, loaded once per session."""

import pytest

from charcorr.common import corpus, load_corpus_group
from charcorr.mckay import check_hypotheses


@pytest.fixture(scope="session")
def s3():
    return load_corpus_group("s3")


@pytest.fixture(scope="session")
def s4():
    return load_corpus_group("s4")


@pytest.fixture(scope="session")
def d8():
    return load_corpus_group("d8")


@pytest.fixture(scope="session")
def c7():
    return load_corpus_group("c7")


@pytest.fixture(scope="session")
def f21():
    return load_corpus_group("f21")


@pytest.fixture(scope="session")
def sl23():
    return load_corpus_group("sl23")


@pytest.fixture(scope="session")
def c5c5_c3():
    return load_corpus_group("c5c5_c3")


@pytest.fixture(scope="session")
def corpus_entries():
    return corpus()


@pytest.fixture(scope="session")
def corpus_instances(corpus_entries):
    """(entry, instance) pairs for the whole corpus."""
    out = []
    for entry in corpus_entries:
        G = load_corpus_group(entry.name)
        out.append((entry, check_hypotheses(G, entry.prime)))
    return out


@pytest.fixture(scope="session")
def positive_instances(corpus_instances):
    """Instances satisfying all hypothesis flags (the theorem regime)."""
    return [(e, i) for e, i in corpus_instances if i.hypotheses_ok]

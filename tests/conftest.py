import pytest

from corpusutil import all_graphs
from hamholes.errors import CertificateError
from hamholes.graph import _bits
from hamholes.holes import verify_certificate


@pytest.fixture(scope="session")
def corpus_upto5():
    """Every labelled graph on 3, 4 and 5 vertices (8 + 64 + 1024)."""
    return [g for n in (3, 4, 5) for g in all_graphs(n)]


@pytest.fixture()
def fail_checks_on(monkeypatch):
    """Call with a graph: from then on the check that every built certificate
    passes fails on that graph, as it would on a wrong certificate, and
    passes on every other graph."""

    def fail_on(target):
        def check(g, c):
            if g == target:
                raise CertificateError("forced failure", pair_index=1)
            return verify_certificate(g, c)

        monkeypatch.setattr("hamholes.holes.verify_certificate", check)

    return fail_on


@pytest.fixture()
def count_yields(monkeypatch):
    """Call with a module name: from then on that module's _bits records
    each walk, and the returned list holds how many bits each walk yielded."""

    def count_in(module):
        walks = []

        def counting(mask):
            walks.append(0)
            for v in _bits(mask):
                walks[-1] += 1
                yield v

        monkeypatch.setattr(f"{module}._bits", counting)
        return walks

    return count_in

"""The balanced-biclique reduction and its equivalence checker."""

import itertools
import random
import tracemalloc

import pytest

from hamholes import hardness
from hamholes.errors import BudgetExceededError, GraphFormatError
from hamholes.graph import Graph
from hamholes.hardness import (
    BipartiteInstance,
    bcbs_to_bhn,
    check_reduction_equivalence,
    parse_instance,
    serialize_instance,
)
from hamholes.holes import has_bipartite_hole


def _instance(a, k, cross_edges):
    return BipartiteInstance(Graph(2 * a, cross_edges), a, k)


def _all_instances(a, k):
    cross = [(u, a + v) for u in range(a) for v in range(a)]
    for bits in range(1 << len(cross)):
        edges = [cross[i] for i in range(len(cross)) if (bits >> i) & 1]
        yield _instance(a, k, edges)


# ---------------------------------------------------------------------------
# instance plumbing


def test_instance_validation():
    _instance(2, 1, [(0, 2), (1, 3)])  # fine
    with pytest.raises(ValueError):
        _instance(2, 0, [])
    with pytest.raises(ValueError):
        BipartiteInstance(Graph(3), 1, 1)  # odd vertex count
    with pytest.raises(ValueError):
        _instance(2, 1, [(0, 1)])  # edge inside the left side
    with pytest.raises(ValueError):
        _instance(2, 1, [(2, 3)])  # edge inside the right side


def test_instance_round_trip():
    inst = _instance(2, 2, [(0, 2), (0, 3), (1, 2)])
    again = parse_instance(serialize_instance(inst))
    assert again.graph == inst.graph and again.a == inst.a and again.k == inst.k


def test_parse_instance_rejects():
    for text, message in [
        # unbalanced sides
        ("2 3 1\n", "line 1: parts must balance, got 2 != 3"),
        ("", "missing header 'a b k'"),
        # non-cross edge
        ("2 2 1\n0 1\n", "line 2: edge 0 1 must satisfy u < 2 <= v < 4"),
        # a repeated edge, at its own line, before any later bad line
        ("2 2 1\n0 2\n0 2\n", "line 3: duplicate edge 0 2"),
        ("2 2 1\n0 2\n0 2\n0 1\n", "line 3: duplicate edge 0 2"),
        ("2 2 1\n0 2\n0 2\nx\n", "line 3: duplicate edge 0 2"),
        ("# c\n2 2 1\n\n1 3\n0 2\n1 3  # again\n", "line 6: duplicate edge 1 3"),
    ]:
        with pytest.raises(GraphFormatError) as exc:
            parse_instance(text)
        assert exc.type is GraphFormatError
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# the reduction map


def test_image_shape():
    inst = _instance(2, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    img = bcbs_to_bhn(inst)
    assert img.n == 2 * inst.a + 3 * inst.k - 1 == 9


def test_image_shape_k1():
    inst = _instance(2, 1, [(0, 2)])
    img = bcbs_to_bhn(inst)
    assert img.n == 4 + 2  # gadget on 3k - 1 = 2 vertices


def test_image_edge_limit_is_inclusive(monkeypatch):
    inst = _instance(2, 2, [(0, 2), (0, 3), (1, 2)])
    # N = 9 vertices: C(9, 2) = 36 pairs, less 3 instance and 4 gadget edges.
    assert bcbs_to_bhn(inst).m == 29
    monkeypatch.setattr(hardness, "MAX_IMAGE_EDGES", 29)
    assert bcbs_to_bhn(inst).m == 29
    monkeypatch.setattr(hardness, "MAX_IMAGE_EDGES", 28)
    with pytest.raises(ValueError, match="^reduction image would have 29 edges"):
        bcbs_to_bhn(inst)


@pytest.mark.parametrize(
    "text", ["5000 5000 1\n", "1 1 1000000000\n"], ids=["wide", "large-k"]
)
def test_oversized_image_is_refused_before_allocation(text):
    # A complete image on 10^4 vertices, or a gadget K_{k-1,2k} with
    # k = 10^9, would take gigabytes.
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        with pytest.raises(ValueError, match="more than 5000000$"):
            bcbs_to_bhn(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_gadget_side_always_has_holes():
    # the attached gadget guarantees holes at every split except (k, k)
    inst = _instance(3, 2, [])
    img = bcbs_to_bhn(inst)
    assert has_bipartite_hole(img, 1, 2 * inst.k - 1) is not None


# ---------------------------------------------------------------------------
# equivalence


def test_equivalence_exhaustive_2_plus_2():
    for k in (1, 2):
        for inst in _all_instances(2, k):
            assert check_reduction_equivalence(inst) is True


def test_equivalence_random_3_plus_3():
    rng = random.Random(99)
    cross = [(u, 3 + v) for u in range(3) for v in range(3)]
    for _ in range(40):
        edges = [e for e in cross if rng.random() < rng.choice([0.3, 0.6, 0.9])]
        for k in (1, 2, 3):
            assert check_reduction_equivalence(_instance(3, k, edges)) is True


def test_equivalence_guard_rejects_large():
    inst = _instance(7, 2, [])
    with pytest.raises(ValueError):
        check_reduction_equivalence(inst)
    with pytest.raises(ValueError):
        check_reduction_equivalence(_instance(2, 4, []))


@pytest.mark.parametrize(
    "a,k,edges,least,answer",
    [
        (3, 2, [(0, 3), (0, 4), (1, 3), (1, 4)], 1, True),
        (4, 2, [(0, 4), (1, 5), (2, 6), (3, 7)], 6, False),
        (6, 3, [(u, v) for u in range(6) for v in range(6, 12) if u * v % 3], 12, True),
    ],
    ids=["first-pair", "matching", "a6-k3"],
)
def test_biclique_least_budget(a, k, edges, least, answer):
    # Recorded before the enumeration charged a shared budget counter: one
    # probe per k-subset of A tried.
    inst = _instance(a, k, edges)
    assert hardness._has_balanced_biclique(inst, least) is answer
    with pytest.raises(BudgetExceededError) as exc:
        hardness._has_balanced_biclique(inst, least - 1)
    assert str(exc.value) == f"biclique enumeration exceeded {least - 1} probes"


def test_known_biclique_cases():
    # complete cross: K_{k,k} present for every k <= a
    full = [(u, 3 + v) for u in range(3) for v in range(3)]
    for k in (1, 2, 3):
        assert check_reduction_equivalence(_instance(3, k, full)) is True
    # empty: no K_{1,1}
    assert check_reduction_equivalence(_instance(2, 1, [])) is True

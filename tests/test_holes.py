"""Bipartite holes, alpha-tilde, certificates, and certificate translation."""

import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpusutil import random_graphs
from hamholes.disjoint import find_edge_disjoint_hamilton
from hamholes.errors import (
    BudgetExceededError,
    CertificateError,
    ContractViolationError,
    GraphFormatError,
)
from hamholes.graph import (
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    gnp_graph,
    min_degree,
    path_graph,
    petersen_graph,
)
from hamholes.hamilton import (
    CycleSeq,
    PathState,
    disconnected_certificate,
    extend_maximal,
    extract_certificate,
    find_hamilton,
)
from hamholes.holes import (
    BipartiteHole,
    HoleCertificate,
    _check_scan_budget,
    _translate,
    alpha_tilde_at_least,
    alpha_tilde_exact,
    has_bipartite_hole,
    parse_certificate,
    serialize_certificate,
    translate_certificate,
    verify_certificate,
)
from hamholes.oracle import independence_number_exact, vertex_connectivity_exact
from hamholes.randomlab import ExperimentConfig, run_experiment


def _is_hole(g, s_side, t_side):
    if set(s_side) & set(t_side):
        return False
    return all(not g.has_edge(u, v) for u in s_side for v in t_side)


# ---------------------------------------------------------------------------
# has_bipartite_hole


def test_hole_witness_shape_and_validity():
    g = cycle_graph(6)
    hole = has_bipartite_hole(g, 1, 2)
    assert hole is not None
    assert len(hole.s_side) == 1 and len(hole.t_side) == 2
    assert _is_hole(g, hole.s_side, hole.t_side)


@pytest.mark.parametrize(
    "s, t, hole", [(1, 2, ((0,), (2, 3))), (2, 1, ((2, 3), (0,)))]
)
def test_hole_witness_walks_only_what_it_keeps(count_yields, s, t, hole):
    walks = count_yields("hamholes.holes")
    found = has_bipartite_hole(path_graph(3000), s, t)
    assert (found.s_side, found.t_side) == hole
    assert max(walks) <= max(s, t)


def test_side_one_hole_holds_no_row_copies():
    # A (1, t)-hole is read off the degrees; a copy of the 40000 closed
    # rows would peak near 100 MiB here.
    g = path_graph(40000)
    tracemalloc.start()
    try:
        found = has_bipartite_hole(g, 1, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == BipartiteHole((0,), (2, 3, 4, 5, 6))
    assert peak < 2**20


def test_hole_none_when_sides_exceed_n():
    assert has_bipartite_hole(cycle_graph(4), 3, 2) is None


def test_hole_complete_graph_has_none():
    assert has_bipartite_hole(complete_graph(6), 1, 1) is None


def test_hole_monotone_in_sides():
    # a witness at (s, t) forces witnesses at every (s', t') <= (s, t)
    for g in random_graphs(7, 40, seed=11):
        found = {
            (s, t): has_bipartite_hole(g, s, t) is not None
            for s in range(1, 4)
            for t in range(1, 5)
        }
        for (s, t), ok in found.items():
            if ok:
                for s2 in range(1, s + 1):
                    for t2 in range(1, t + 1):
                        assert found.get((s2, t2), True)


def test_hole_witnesses_verify_on_random_graphs():
    for g in random_graphs(8, 40, seed=5):
        for s, t in [(1, 1), (1, 3), (2, 2), (3, 2)]:
            hole = has_bipartite_hole(g, s, t)
            if hole is not None:
                assert len(hole.s_side) == s and len(hole.t_side) == t
                assert _is_hole(g, hole.s_side, hole.t_side)


# ---------------------------------------------------------------------------
# alpha_tilde_exact


def test_alpha_tilde_closed_forms():
    assert alpha_tilde_exact(complete_graph(4)) == 1
    assert alpha_tilde_exact(bipartite_graph(2, 3)) == 3
    assert alpha_tilde_exact(bipartite_graph(2, 3).complement()) == 4
    assert alpha_tilde_exact(cycle_graph(5)) == 3
    # Petersen: alpha = 4 but the (3,3) split of 6 is holeless, so 5
    assert alpha_tilde_exact(petersen_graph()) == 5


def test_alpha_tilde_tiny_graphs():
    assert alpha_tilde_exact(Graph(0)) == 1
    assert alpha_tilde_exact(Graph(1)) == 1
    assert alpha_tilde_exact(Graph(2)) == 2  # two isolated vertices
    assert alpha_tilde_exact(Graph(2, [(0, 1)])) == 1


def test_alpha_tilde_definition_on_corpus(corpus_upto5):
    # least r such that SOME split s + t = r + 1 has no (s, t)-hole
    for g in corpus_upto5[::7]:
        r = alpha_tilde_exact(g)
        holeless = lambda total: any(
            has_bipartite_hole(g, s, total - s) is None
            for s in range(1, total // 2 + 1)
        )
        assert holeless(r + 1)
        assert all(not holeless(total) for total in range(2, r + 1))


def test_alpha_tilde_sandwich_on_corpus(corpus_upto5):
    for g in corpus_upto5[::5]:
        alpha = independence_number_exact(g)
        kappa = vertex_connectivity_exact(g)
        assert alpha <= alpha_tilde_exact(g) <= g.n - kappa


def test_alpha_tilde_edge_deletion_monotone():
    for g in random_graphs(6, 30, seed=3):
        base = alpha_tilde_exact(g)
        for e in list(g.edges())[:4]:
            assert alpha_tilde_exact(g.remove_edges([e])) >= base


def test_alpha_tilde_size_guard():
    big = complete_graph(21)
    with pytest.raises(BudgetExceededError, match="n = 21 > 20"):
        alpha_tilde_exact(big)
    assert alpha_tilde_exact(big, budget=10**6) == 1


def test_hole_budget_guard():
    with pytest.raises(BudgetExceededError, match="too large"):
        has_bipartite_hole(complete_graph(40).complement(), 18, 18, budget=10)


def _alpha_tilde_by_definition(g, budget):
    # Least s + t - 1 with no (s, t)-hole.  Each total tries s = 1, 2, ...,
    # which is alpha_tilde_exact's order up to s = total // 2, so a budget
    # trips here at the split where it trips there.
    for total in range(2, g.n + 2):
        for s in range(1, total):
            if has_bipartite_hole(g, s, total - s, budget) is None:
                return total - 1


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceededError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 10),
    st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    st.integers(0, 2**32),
    st.sampled_from([1, 5, 10, 45, 120, 10**8]),
)
def test_alpha_tilde_matches_definition(n, p, seed, budget):
    g = gnp_graph(n, p, seed)
    assert _outcome(alpha_tilde_exact, g, budget) == _outcome(
        _alpha_tilde_by_definition, g, budget
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10),
    st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    st.integers(0, 2**32),
)
def test_alpha_tilde_at_least_matches_exact_value(n, p, seed):
    g = gnp_graph(n, p, seed)
    value = alpha_tilde_exact(g)
    for k in range(0, n + 3):
        assert alpha_tilde_at_least(g, k) == (value >= k)


@pytest.mark.parametrize(
    "g, budget, split",
    [
        (complete_graph(40).complement(), 10, "C(40,1)"),
        (Graph(12), 20, "C(12,2)"),
        (Graph(12), 66, "C(12,3)"),
    ],
)
def test_alpha_tilde_budget_trips_at_first_split_over_it(g, budget, split):
    message = f"instance too large: {split} subset probes exceed budget {budget}"
    with pytest.raises(BudgetExceededError) as info:
        alpha_tilde_exact(g, budget)
    assert str(info.value) == message
    assert _outcome(_alpha_tilde_by_definition, g, budget) == message


def _experiment_decision(g, k, budget):
    # How the experiment asks alpha_tilde >= k: the budget rule, then the
    # threshold test.
    _check_scan_budget(g, budget)
    return alpha_tilde_at_least(g, k, budget)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10),
    st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    st.integers(0, 2**32),
    st.integers(1, 300) | st.integers(1, 10**8),
)
def test_experiment_decision_has_budget_parity(n, p, seed, budget):
    g = gnp_graph(n, p, seed)
    # Same value, or the same BudgetExceededError text, as the exact scan
    # and as the scan by definition.
    exact = _outcome(alpha_tilde_exact, g, budget)
    by_definition = _outcome(_alpha_tilde_by_definition, g, budget)
    for k in range(0, n + 3):
        got = _outcome(_experiment_decision, g, k, budget)
        for ref in (exact, by_definition):
            assert got == (ref if isinstance(ref, str) else ref >= k)


def test_budget_below_n_trips_every_sample_at_side_one():
    # C(n, 1) = n > budget, so s* = 1 and no split comes before it.
    for g in random_graphs(10, 20, seed=5):
        with pytest.raises(BudgetExceededError) as info:
            _check_scan_budget(g, 9)
        assert str(info.value) == (
            "instance too large: C(10,1) subset probes exceed budget 9"
        )
    cfg = ExperimentConfig(10, 0.3, samples=20, seed=5, oracle_budget=9)
    assert all(rec.alpha_gt_2t is None for rec in run_experiment(cfg).records)


# ---------------------------------------------------------------------------
# certificates


def _certificate_for(g, k):
    pairs = []
    for i in range(1, k // 2 + 1):
        hole = has_bipartite_hole(g, i, k - i)
        assert hole is not None
        pairs.append(hole)
    return HoleCertificate(k, tuple(pairs))


def test_verify_certificate_accepts_valid():
    g = bipartite_graph(2, 3)
    c = _certificate_for(g, 3)
    assert verify_certificate(g, c) == 3
    assert verify_certificate(g, HoleCertificate(1, ())) == 1


def test_verify_certificate_k_le_1_empty():
    g = complete_graph(3)
    assert verify_certificate(g, HoleCertificate(1, ())) == 1
    with pytest.raises(CertificateError, match="expected 1"):
        verify_certificate(g, HoleCertificate(2, ()))


@pytest.mark.parametrize(
    "s_side,t_side,complaint",
    [
        ((0,), (2, 9), "range"),
        ((0,), (2, 2), "repeated"),
        ((0,), (0, 2), "intersect"),
        ((0, 1), (2, 3), "size"),
        ((0,), (1, 2), "joins the sides"),
    ],
)
def test_verify_certificate_rejections(s_side, t_side, complaint):
    g = complete_graph(5)  # every cross pair is an edge
    cert = HoleCertificate(3, (BipartiteHole(s_side, t_side),))
    with pytest.raises(CertificateError, match=complaint):
        verify_certificate(g, cert)


def test_verify_certificate_reports_pair_index():
    g = cycle_graph(6)
    good = has_bipartite_hole(g, 1, 3)
    assert good is not None
    bad_pairs = (good, BipartiteHole((0,), (1, 2)))
    with pytest.raises(CertificateError, match="pair 2"):
        verify_certificate(g, HoleCertificate(4, bad_pairs))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(5, 10),
    st.sampled_from([0.1, 0.3, 0.5]),
    st.integers(0, 2**32),
    st.sampled_from(["swap for a neighbour", "resize", "repeat", "out of range"]),
    st.data(),
)
def test_mutated_certificate_never_verifies(n, p, seed, mutation, data):
    g = gnp_graph(n, p, seed)
    k = alpha_tilde_exact(g)
    cert = _certificate_for(g, k)
    assert verify_certificate(g, cert) == k
    assume(cert.pairs)
    idx = data.draw(st.integers(0, len(cert.pairs) - 1))
    sides = [list(cert.pairs[idx].s_side), list(cert.pairs[idx].t_side)]
    which = data.draw(st.integers(0, 1))
    side, other = sides[which], sides[1 - which]
    pos = data.draw(st.integers(0, len(side) - 1))
    if mutation == "swap for a neighbour":
        swaps = [u for v in other for u in g.neighbors(v)]
        assume(swaps)
        side[pos] = data.draw(st.sampled_from(swaps))
    elif mutation == "resize":
        if data.draw(st.booleans()):
            del side[pos]
        else:
            side.append(data.draw(st.sampled_from([v for v in range(n) if v not in side])))
    elif mutation == "repeat":
        assume(len(side) >= 2)
        side[pos] = side[pos - 1]
    else:
        side[pos] = data.draw(st.integers(n, 2 * n) | st.integers(-n, -1))
    pairs = list(cert.pairs)
    pairs[idx] = BipartiteHole(tuple(sorted(sides[0])), tuple(sorted(sides[1])))
    with pytest.raises(CertificateError) as exc:
        verify_certificate(g, HoleCertificate(k, tuple(pairs)))
    assert exc.value.pair_index == idx + 1


def test_certificate_round_trip():
    g = petersen_graph()
    c = _certificate_for(g, 4)
    assert parse_certificate(serialize_certificate(c)) == c
    empty = HoleCertificate(1, ())
    assert parse_certificate(serialize_certificate(empty)) == empty


CERTIFICATE_REJECTIONS = {
    "": "missing header 'alpha-tilde-ge k'",
    "alpha-tilde-ge x": "line 1: expected header 'alpha-tilde-ge k'",
    # missing second pair
    "alpha-tilde-ge 4\n1 | 0 | 1 2": "expected 2 pair lines for k = 4, found 1",
    # wrong index order
    "alpha-tilde-ge 4\n2 | 0 1 | 2 3\n1 | 0 | 1 2 3": (
        "line 2: pair index 2, expected 1"
    ),
    "alpha-tilde-ge 2\n1 | 1 | 0\nextra": "expected 1 pair lines for k = 2, found 2",
    # ids not ascending
    "alpha-tilde-ge 2\n1 | 1 0 | 2": "line 2: side ids must be strictly ascending",
}


@pytest.mark.parametrize("text", list(CERTIFICATE_REJECTIONS))
def test_parse_certificate_rejects(text):
    with pytest.raises(GraphFormatError) as exc:
        parse_certificate(text)
    assert exc.type is GraphFormatError
    assert str(exc.value) == CERTIFICATE_REJECTIONS[text]


# ---------------------------------------------------------------------------
# certificate translation


def test_translate_identity_when_nothing_removed():
    g = bipartite_graph(2, 3)
    c = _certificate_for(g, 3)
    out = translate_certificate(c, [], g)
    assert out.k == min(min_degree(g) + 1, c.k) == 3
    assert verify_certificate(g, out) == out.k


def test_translate_rejects_wrong_span():
    res = find_hamilton(bipartite_graph(2, 3))
    cyc = CycleSeq(cycle_graph(5), (0, 1, 2, 3, 4))
    with pytest.raises(ContractViolationError, match="does not span"):
        translate_certificate(res.certificate, [cyc], complete_graph(6))
    # A short cycle after one with a pair outside g: every span is checked
    # before any cycle is subtracted.
    g = complete_graph(6).remove_edges([(0, 1)])
    cycles = [CycleSeq(complete_graph(6), range(6)), CycleSeq(g, (1, 2, 3))]
    with pytest.raises(ContractViolationError, match="does not span"):
        translate_certificate(HoleCertificate(1, ()), cycles, g)


def test_translate_rejects_cycle_edges_absent():
    res = find_hamilton(bipartite_graph(2, 3))
    host = complete_graph(5).remove_edges([(0, 1)])
    cyc = CycleSeq(cycle_graph(5), (0, 1, 2, 3, 4))
    with pytest.raises(ContractViolationError) as exc:
        translate_certificate(res.certificate, [cyc], host)
    assert str(exc.value) == "removed cycles are not in g: not an edge: (0, 1)"


def test_translate_rejects_cycles_sharing_an_edge():
    g = complete_graph(5)
    cycles = [CycleSeq(g, (0, 1, 2, 3, 4)), CycleSeq(g, (0, 1, 3, 2, 4))]
    with pytest.raises(ContractViolationError) as exc:
        translate_certificate(HoleCertificate(1, ()), cycles, g)
    assert str(exc.value) == "removed cycles are not in g: not an edge: (4, 0)"


def test_translate_rejects_a_certificate_invalid_in_the_residual():
    # In K6 minus C6, 0 and 2 stay adjacent; the translation to k' = 1 has
    # no pairs, so only the residual check can refuse this certificate.
    g = complete_graph(6)
    c = HoleCertificate(2, (BipartiteHole((0,), (2,)),))
    with pytest.raises(CertificateError) as exc:
        translate_certificate(c, [CycleSeq(g, range(6))], g)
    assert str(exc.value) == "pair 1: edge 0 2 joins the sides"


def _translate_all_at_once(c, removed_cycles, g):
    """translate_certificate as it was before it subtracted the cycles one at
    a time: the edges of every cycle go in one remove_edges call."""
    removed_cycles = list(removed_cycles)
    all_edges = []
    for cyc in removed_cycles:
        if len(cyc) != g.n:
            raise ContractViolationError("removed cycle does not span g")
        all_edges.extend(cyc.edges())
    try:
        g_minus = g.remove_edges(all_edges)
    except ValueError as exc:
        raise ContractViolationError(f"removed cycles are not in g: {exc}") from exc
    verify_certificate(g_minus, c)
    return _translate(c, len(removed_cycles), g)


K10 = complete_graph(10)


@st.composite
def translation_cases(draw):
    """(c, cycles, g) with g = G(n, p) on 4-8 vertices and c a certificate
    for g minus its first j peeled Hamilton cycles.  Half the time the
    cycles start with those j.  Each further cycle, up to 3 in all, is a
    peeled cycle (repeats allowed), any order of g's vertices, a short
    order, or an order of n ids that may pass g's last vertex."""
    n = draw(st.integers(4, 8))
    p = draw(st.sampled_from([0.6, 0.8, 1.0]))
    g = gnp_graph(n, p, seed=draw(st.integers(0, 999)))
    peeled, h = [], g
    while (res := find_hamilton(h)).cycle is not None:
        peeled.append(res.cycle)
        h = h.remove_edges(res.cycle.edges())
    j = draw(st.integers(0, len(peeled)))
    cycles = list(peeled[:j]) if draw(st.booleans()) else []
    kinds = ["shuffled", "short", "outside"] + ["peeled"] * 3 * bool(peeled)
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3 - len(cycles))):
        if kind == "peeled":
            cycles.append(draw(st.sampled_from(peeled)))
            continue
        if kind == "shuffled":
            order = draw(st.permutations(range(n)))
        elif kind == "short":
            ids = st.integers(0, n - 1)
            order = draw(st.lists(ids, min_size=3, max_size=n - 1, unique=True))
        else:
            order = draw(st.permutations(range(10)))[:n]
        cycles.append(CycleSeq(K10, order))
    h = g.remove_edges(e for cyc in peeled[:j] for e in cyc.edges())
    c = _certificate_for(h, draw(st.integers(1, alpha_tilde_exact(h))))
    return c, cycles, g


def _translation_outcome(translate, case):
    try:
        return translate(*case)
    except (CertificateError, ContractViolationError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(translation_cases())
def test_translate_matches_all_at_once_removal(case):
    assert _translation_outcome(translate_certificate, case) == _translation_outcome(
        _translate_all_at_once, case
    )


def _bipartite_plus_cycle(a, b, rng):
    """K(a, b) plus the edges of a random Hamilton cycle on its vertices."""
    n = a + b
    order = rng.sample(range(n), n)
    cycle = {tuple(sorted((order[i - 1], order[i]))) for i in range(n)}
    return Graph(n, sorted(set(bipartite_graph(a, b).edges()) | cycle))


def test_extraction_translates_as_the_public_function_does():
    rng = random.Random(9)
    graphs = [complete_graph(7)] + [_bipartite_plus_cycle(6, 9, rng) for _ in range(6)]
    pairs = 0
    for g in graphs:
        res = find_edge_disjoint_hamilton(g)
        public = translate_certificate(res.residual_certificate, res.cycles, g)
        assert res.translated_certificate == public
        pairs += len(public.pairs)
    assert pairs == 5


def test_translate_on_dense_random_graphs():
    rng = random.Random(9)
    graphs = [gnp_graph(10, 0.8, seed=rng.randrange(2**30)) for _ in range(12)]
    # Every G(10, 0.8) draw translates to k = 1, which has no pairs.  On
    # these, one cycle comes off before the residual fails, so pairs remain.
    graphs += [_bipartite_plus_cycle(6, 9, rng) for _ in range(6)]
    checked = 0
    for g in graphs:
        removed = []
        h = g
        while True:
            res = find_hamilton(h)
            if res.cycle is None:
                break
            removed.append(CycleSeq(g, res.cycle.order))
            h = h.remove_edges(res.cycle.edges())
        out = translate_certificate(res.certificate, removed, g)
        assert verify_certificate(g, out) == out.k
        for i, hole in enumerate(out.pairs, start=1):
            assert (len(hole.s_side), len(hole.t_side)) == (i, out.k - i)
            assert _is_hole(g, hole.s_side, hole.t_side)
        checked += len(out.pairs)
        r_hat = len(removed)
        delta = min_degree(g)
        expect = min(max(1, (delta - 2 * r_hat + 1) // (r_hat + 1)), res.certificate.k)
        assert out.k == expect
    assert checked


def test_translate_certificates_of_partial_extractions():
    # Certificates for g minus its first r_hat extracted cycles, at every k
    # up to the residual's hole number.  Below k = delta - 2*r_hat + 1 the
    # value k' follows c.k, so every split keeps enough survivors; with k'
    # capped only at c.k, seed 1 at k = 2 raised "split 1: only 0 survivors,
    # need 1", and 277 of these certificates raised in all.
    translated = 0
    for seed in range(200):
        g = gnp_graph(10, 0.8, seed=seed)
        delta = min_degree(g)
        removed, h = [], g
        while (res := find_hamilton(h)).cycle is not None:
            removed.append(CycleSeq(g, res.cycle.order))
            h = h.remove_edges(res.cycle.edges())
            r_hat = len(removed)
            for k in range(1, alpha_tilde_exact(h) + 1):
                out = translate_certificate(_certificate_for(h, k), removed, g)
                assert verify_certificate(g, out) == out.k
                assert out.k == max(1, min(delta - 2 * r_hat + 1, k) // (r_hat + 1))
                assert all(_is_hole(g, p.s_side, p.t_side) for p in out.pairs)
                translated += 1
    assert translated > 2000


# ---------------------------------------------------------------------------
# the self-check of every certificate the package builds


def _extract_k23(g):
    return extract_certificate(extend_maximal(PathState(g, (0, 2))))


@pytest.mark.parametrize(
    "what, g, produce",
    [
        ("extracted", bipartite_graph(2, 3), _extract_k23),
        (
            "component",
            disjoint_union(complete_graph(3), complete_graph(3)),
            disconnected_certificate,
        ),
        (
            "translated",
            complete_graph(6),
            lambda g: translate_certificate(
                _certificate_for(g.remove_edges(cycle_graph(6).edges()), 3),
                [CycleSeq(g, range(6))],
                g,
            ),
        ),
    ],
)
def test_a_failed_self_check_is_a_contract_violation(fail_checks_on, what, g, produce):
    assert verify_certificate(g, produce(g)) >= 1
    fail_checks_on(g)
    with pytest.raises(
        ContractViolationError,
        match=f"^{what} certificate invalid: pair 1: forced failure$",
    ):
        produce(g)

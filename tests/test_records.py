"""What callers see of the eight result records: construction and defaults,
the constructor checks, frozenness, equality and hashing, repr and pickling."""

import pickle
import tracemalloc

import pytest

from hamholes.disjoint import DisjointResult
from hamholes.graph import Graph, complete_graph
from hamholes.hamilton import CycleSeq, HamResult
from hamholes.hardness import BipartiteInstance
from hamholes.holes import DEFAULT_BUDGET, BipartiteHole, HoleCertificate
from hamholes.randomlab import (
    _COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    SampleRecord,
)

HOLE = BipartiteHole((0, 1), (2,))
CERT = HoleCertificate(3, (HOLE,))
CYCLE = CycleSeq(complete_graph(3), (0, 1, 2))
EDGE = Graph(2, [(0, 1)])
CONFIG = ExperimentConfig(5, 0.5, 2, 3, 7, 9)
SAMPLE = SampleRecord(0, 1, False, None, True, None, None, False)

# class, field names in order, positional values, exact repr
RECORDS = [
    (
        BipartiteHole,
        ("s_side", "t_side"),
        ((0, 1), (2,)),
        "BipartiteHole(s_side=(0, 1), t_side=(2,))",
    ),
    (
        HoleCertificate,
        ("k", "pairs"),
        (3, (HOLE,)),
        "HoleCertificate(k=3, pairs=(BipartiteHole(s_side=(0, 1), t_side=(2,)),))",
    ),
    (
        HamResult,
        ("cycle", "certificate"),
        (CYCLE, None),
        "HamResult(cycle=CycleSeq([0, 1, 2]), certificate=None)",
    ),
    (
        DisjointResult,
        ("cycles", "residual_certificate", "translated_certificate"),
        ((CYCLE,), CERT, HoleCertificate(1, ())),
        "DisjointResult(cycles=(CycleSeq([0, 1, 2]),),"
        " residual_certificate=HoleCertificate(k=3, pairs=(BipartiteHole("
        "s_side=(0, 1), t_side=(2,)),)),"
        " translated_certificate=HoleCertificate(k=1, pairs=()))",
    ),
    (
        BipartiteInstance,
        ("graph", "a", "k"),
        (EDGE, 1, 1),
        "BipartiteInstance(graph=Graph(n=2, m=1), a=1, k=1)",
    ),
    (
        ExperimentConfig,
        ("n", "p", "r", "samples", "seed", "oracle_budget"),
        (5, 0.5, 2, 3, 7, 9),
        "ExperimentConfig(n=5, p=0.5, r=2, samples=3, seed=7, oracle_budget=9)",
    ),
    (
        SampleRecord,
        (
            "sample", "delta", "delta_zero", "alpha_gt_2t", "delta_lt_d",
            "has_r_edhc", "violation_lower", "violation_upper",
        ),
        (0, 1, False, None, True, None, None, False),
        "SampleRecord(sample=0, delta=1, delta_zero=False, alpha_gt_2t=None,"
        " delta_lt_d=True, has_r_edhc=None, violation_lower=None,"
        " violation_upper=False)",
    ),
    (
        ExperimentReport,
        ("config", "t", "d", "records"),
        (CONFIG, 3, 4, (SAMPLE,)),
        "ExperimentReport(config=ExperimentConfig(n=5, p=0.5, r=2, samples=3,"
        " seed=7, oracle_budget=9), t=3, d=4,"
        " records=(SampleRecord(sample=0, delta=1, delta_zero=False,"
        " alpha_gt_2t=None, delta_lt_d=True, has_r_edhc=None,"
        " violation_lower=None, violation_upper=False),))",
    ),
]

params = pytest.mark.parametrize(
    "cls, names, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)


@params
def test_positional_and_keyword_construction_agree(cls, names, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    reordered = cls(**dict(reversed(list(zip(names, values)))))
    mixed = cls(values[0], **dict(zip(names[1:], values[1:])))
    for rec in (by_keyword, reordered, mixed):
        assert rec == by_position
    assert tuple(getattr(by_position, name) for name in names) == values


@params
def test_bad_arguments_raise_type_error(cls, names, values, text):
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    if cls is not HamResult:  # every field has a default there
        with pytest.raises(TypeError):
            cls(values[0])


def test_defaults():
    cfg = ExperimentConfig(5, 0.5)
    assert (cfg.r, cfg.samples, cfg.seed) == (1, 1, 0)
    assert cfg.oracle_budget == DEFAULT_BUDGET == 10**8
    assert ExperimentConfig(n=5, p=0.5, seed=4) == ExperimentConfig(5, 0.5, 1, 1, 4)
    assert HamResult(CYCLE).certificate is None
    assert HamResult(certificate=CERT).cycle is None


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HamResult(), "exactly one of cycle/certificate must be present"),
        (lambda: HamResult(CYCLE, CERT), "exactly one of cycle/certificate must be present"),
        (
            lambda: HamResult(cycle=None, certificate=None),
            "exactly one of cycle/certificate must be present",
        ),
        (lambda: ExperimentConfig(5, 0.5, oracle_budget=0), "budget must be positive"),
        # Checked before the other fields, so the CLI reports it first.
        (lambda: ExperimentConfig(2, 0.5, oracle_budget=-5), "budget must be positive"),
        (lambda: BipartiteInstance(Graph(0, []), 0, 1), "parts must be non-empty"),
        (lambda: BipartiteInstance(EDGE, 2, 1), "graph has 2 vertices, expected 4"),
        (lambda: BipartiteInstance(EDGE, 1, 0), "k must be >= 1, got 0"),
        (
            lambda: BipartiteInstance(Graph(4, [(0, 1)]), 2, 1),
            "edge (0, 1) does not cross the parts",
        ),
        (lambda: ExperimentConfig(2, 0.5), "need n >= 3, got 2"),
        (lambda: ExperimentConfig(5, 1.5), "need 0 <= p <= 1, got 1.5"),
        (lambda: ExperimentConfig(5, 0.5, r=0), "need r >= 1, got 0"),
        (lambda: ExperimentConfig(5, 0.5, samples=0), "need samples >= 1, got 0"),
    ],
)
def test_constructor_checks(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@params
def test_records_are_frozen(cls, names, values, text):
    rec = cls(*values)
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert getattr(rec, names[0]) == values[0]


@params
def test_equality_and_hashing(cls, names, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a.__eq__(values) is NotImplemented
    assert a.__eq__(object()) is NotImplemented
    assert a != values


def test_equality_follows_every_field():
    assert HoleCertificate(3, (HOLE,)) != HoleCertificate(4, (HOLE,))
    assert BipartiteHole((0,), (1,)) != BipartiteHole((1,), (0,))
    assert SAMPLE != SampleRecord(0, 1, False, None, True, None, None, None)
    assert ExperimentConfig(5, 0.5) != ExperimentConfig(5, 0.5, seed=1)


@params
def test_repr(cls, names, values, text):
    assert repr(cls(*values)) == text


@params
def test_pickle_round_trip(cls, names, values, text):
    rec = cls(*values)
    # Protocols 0 and 1 cannot pickle Graph and CycleSeq, which use slots.
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is cls
        assert back == rec and hash(back) == hash(rec)
        assert repr(back) == text
        with pytest.raises(AttributeError):
            setattr(back, names[0], values[0])


def test_csv_columns_are_the_sample_fields():
    names = {cls: names for cls, names, *_ in RECORDS}
    assert _COLUMNS == names[SampleRecord]


def test_records_hold_no_more_memory_than_plain_objects():
    # An experiment keeps every SampleRecord, so a record must cost no more
    # than a plain object that sets the same attributes: no instance dict
    # object of its own beside the values that share the class's keys.
    class Plain:
        def __init__(self, *values):
            for name, value in zip(_COLUMNS, values):
                setattr(self, name, value)

    def traced(cls):
        tracemalloc.start()
        try:
            kept = [cls(0, 1, False, None, True, None, None, False) for _ in range(2000)]
            return tracemalloc.get_traced_memory()[0] / len(kept)
        finally:
            tracemalloc.stop()

    assert traced(SampleRecord) <= traced(Plain) * 1.05

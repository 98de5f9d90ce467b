"""The four text parsers reject bad input with GraphFormatError and nothing
else."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamholes.errors import GraphFormatError
from hamholes.graph import complete_graph, parse_graph
from hamholes.hamilton import parse_cycle
from hamholes.hardness import parse_instance
from hamholes.holes import parse_certificate

# Int tokens stay small, so that sides balance and edges fall in range often
# enough to reach the later checks, and so that no drawn header builds a big
# graph (one at the parsers' vertex limit takes about a second).  Headers
# past that limit come from the @examples below.
INTS = st.integers(-3, 64).map(str)
WORDS = st.sampled_from(["#", "|", "cycle", "alpha-tilde-ge", "x"])
SPACES = st.sampled_from([" ", "  ", "\t"])
BREAKS = st.sampled_from(["\n", "\r\n", "\x0b", "\x1c"])


def _line(tokens, max_size):
    return st.lists(st.tuples(tokens, SPACES), min_size=1, max_size=max_size).map(
        lambda pairs: "".join(token + space for token, space in pairs)
    )


@st.composite
def texts(draw):
    # A header line of one to three ints, often after a keyword, then lines
    # drawn from a pool of up to four, so that lines repeat.  Ints come from
    # a pool of up to three, so that sides balance and edges fall in range.
    ints = st.sampled_from(draw(st.lists(INTS, min_size=1, max_size=3)))
    keyword = draw(st.sampled_from(["", "cycle ", "alpha-tilde-ge "]))
    header = keyword + draw(_line(ints, 3)) + draw(BREAKS)
    tokens = st.one_of(ints, WORDS)
    lines = st.sampled_from(draw(st.lists(_line(tokens, 4), min_size=1, max_size=4)))
    picked = draw(st.lists(st.tuples(lines, BREAKS), max_size=8))
    return header + "".join(line + brk for line, brk in picked)


K8 = complete_graph(8)
PARSERS = [
    parse_graph,
    parse_instance,
    lambda text: parse_cycle(text, K8),
    parse_certificate,
]


@settings(max_examples=400, deadline=None)
@given(texts())
# The two places where a parser turns a constructor's ValueError into
# GraphFormatError: a repeated instance edge and an invalid cycle.
@example("1 1 1\n0 1\n0 1\n")
@example("cycle 3\n0 1 9\n")
# Headers past the vertex limit, refused before any per-vertex allocation.
@example("100000000 0\n")
@example("# comment\n100000000 0\n")
@example("50000000 50000000 1\n")
def test_parsers_raise_only_graph_format_error(text):
    for parse in PARSERS:
        try:
            parse(text)
        except GraphFormatError as exc:
            assert type(exc) is GraphFormatError

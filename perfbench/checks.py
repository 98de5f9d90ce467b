"""Output checks that share no code with hamholes.

Every file the program writes is re-read here with this module's own
parsers and checked against an adjacency built by this module: cycles must
be spanning and use only edges, certificate pairs must have no edge between
their sides, the experiment CSV must be internally consistent with zero
violations, and exact analysis values are compared with networkx.  Each
function returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
import re


class EdgeGraph:
    """Undirected graph as per-vertex neighbour bitmasks, built from text."""

    def __init__(self, n: int, rows: list[int]):
        self.n = n
        self.rows = rows
        self.deg = [row.bit_count() for row in rows]
        self.m = sum(self.deg) // 2
        self.delta = min(self.deg) if n else 0

    def has(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)


def parse_edge_list(text: str) -> EdgeGraph:
    """Strict reader for the sorted edge lists that gen and the setup write.

    Header ``n m``, then m lines ``u v`` with u < v in strictly increasing
    lexicographic order (so no duplicates), then one trailing newline.
    Raises ValueError on any deviation.
    """
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("missing trailing newline")
    n, m = (int(x) for x in lines[0].split(" "))
    if len(lines) != m + 2:
        raise ValueError(f"header says {m} edges, found {len(lines) - 2} lines")
    adj: list[list[int]] = [[] for _ in range(n)]
    prev = -1
    for line in lines[1:-1]:
        a, b = line.split(" ")
        u, v = int(a), int(b)
        if not 0 <= u < v < n:
            raise ValueError(f"bad edge line {line!r}")
        key = u * n + v
        if key <= prev:
            raise ValueError(f"edge {line!r} out of order")
        prev = key
        adj[u].append(v)
        adj[v].append(u)
    return EdgeGraph(n, [sum(1 << v for v in nbrs) for nbrs in adj])


# ---------------------------------------------------------------------------
# generated graphs


def gnp_problems(g: EdgeGraph, n: int, p: float) -> list[str]:
    """A plausible draw of G(n, p): n vertices and an edge count within six
    standard deviations of p * C(n, 2)."""
    pairs = n * (n - 1) // 2
    mean, sd = p * pairs, math.sqrt(pairs * p * (1 - p))
    if g.n != n:
        return [f"gen wrote {g.n} vertices, asked for {n}"]
    if abs(g.m - mean) > 6 * sd + 1:
        return [f"gen wrote {g.m} edges, G({n}, {p}) expects {mean:.0f} +- {sd:.0f}"]
    return []


# ---------------------------------------------------------------------------
# cycles and certificates


def parse_cycle_text(text: str) -> list[int]:
    tokens = text.split()
    if len(tokens) < 2 or tokens[0] != "cycle":
        raise ValueError("missing 'cycle n' header")
    nums = [int(t) for t in tokens[1:]]
    if nums[0] != len(nums) - 1:
        raise ValueError(f"header length {nums[0]}, found {len(nums) - 1} ids")
    return nums[1:]


def cycle_problems(g: EdgeGraph, text: str) -> list[str]:
    """A Hamilton cycle of g: every vertex once, every step an edge."""
    try:
        order = parse_cycle_text(text)
    except ValueError as exc:
        return [f"cycle: {exc}"]
    if sorted(order) != list(range(g.n)):
        return ["cycle does not visit every vertex exactly once"]
    bad = [(a, b) for a, b in zip(order, order[1:] + order[:1]) if not g.has(a, b)]
    if bad:
        return [f"cycle: {len(bad)} step(s) not an edge, first {bad[0]}"]
    return []


def cycle_edge_keys(g: EdgeGraph, order: list[int]) -> list[int]:
    return [min(a, b) * g.n + max(a, b) for a, b in zip(order, order[1:] + order[:1])]


def parse_cert_text(text: str) -> tuple[int, list[tuple[list[int], list[int]]]]:
    lines = [line for line in text.split("\n") if line.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "alpha-tilde-ge":
        raise ValueError("missing 'alpha-tilde-ge k' header")
    k = int(head[1])
    pairs = []
    for i, line in enumerate(lines[1:], start=1):
        idx, s_txt, t_txt = line.split("|")
        if int(idx) != i:
            raise ValueError(f"pair line {i} numbered {idx.strip()}")
        pairs.append(([int(x) for x in s_txt.split()], [int(x) for x in t_txt.split()]))
    return k, pairs


def cert_problems(g: EdgeGraph, text: str, min_k: int = 1) -> list[str]:
    """A certificate that alpha_tilde(g) >= k >= min_k: for every split
    i = 1..k//2 an (i, k-i) pair of disjoint vertex sets with no edge
    between them."""
    try:
        k, pairs = parse_cert_text(text)
    except ValueError as exc:
        return [f"certificate: {exc}"]
    problems = []
    if k < min_k:
        problems.append(f"certificate k = {k} below the required {min_k}")
    if len(pairs) != k // 2:
        problems.append(f"certificate has {len(pairs)} pairs, k = {k} needs {k // 2}")
    for i, (s_side, t_side) in enumerate(pairs, start=1):
        if len(s_side) != i or len(t_side) != k - i:
            problems.append(f"pair {i}: sizes ({len(s_side)}, {len(t_side)})")
            continue
        sides = s_side + t_side
        if any(not 0 <= v < g.n for v in sides) or len(set(sides)) != len(sides):
            problems.append(f"pair {i}: vertex out of range or repeated")
            continue
        reach = 0
        for v in s_side:
            reach |= g.rows[v]
        if any((reach >> v) & 1 for v in t_side):
            problems.append(f"pair {i}: an edge joins the sides")
    return problems


def answer_problems(g: EdgeGraph, text: str, code: int) -> list[str]:
    """Exit 0 must come with a Hamilton cycle, exit 2 with a certificate
    proving alpha_tilde > min degree."""
    if code == 0:
        return cycle_problems(g, text)
    return cert_problems(g, text, min_k=g.delta + 1)


def without_cycles(g: EdgeGraph, orders: list[list[int]]) -> EdgeGraph:
    rows = list(g.rows)
    for order in orders:
        for a, b in zip(order, order[1:] + order[:1]):
            rows[a] &= ~(1 << b)
            rows[b] &= ~(1 << a)
    return EdgeGraph(g.n, rows)


_SUMMARY = re.compile(r"r=(\d+) delta=(\d+) m=(\d+)\n")


def disjoint_problems(
    g: EdgeGraph,
    stdout: str,
    cycle_texts: list[str],
    residual_text: str,
    translated_text: str,
) -> list[str]:
    """Edge-disjoint Hamilton cycles plus the residual and translated
    certificates, against the summary line."""
    match = _SUMMARY.fullmatch(stdout)
    if not match:
        return [f"disjoint summary line {stdout!r}"]
    r, delta, m_value = (int(x) for x in match.groups())
    problems = []
    if r != len(cycle_texts):
        problems.append(f"summary says r={r}, found {len(cycle_texts)} cycle files")
    if delta != g.delta:
        problems.append(f"summary delta={delta}, graph has {g.delta}")
    orders, used = [], set()
    for i, text in enumerate(cycle_texts, start=1):
        found = cycle_problems(g, text)
        if found:
            problems += [f"cycle {i}: {p}" for p in found]
            continue
        order = parse_cycle_text(text)
        keys = cycle_edge_keys(g, order)
        if used.intersection(keys):
            problems.append(f"cycle {i} shares an edge with an earlier cycle")
        used.update(keys)
        orders.append(order)
    if problems:
        return problems
    residual = without_cycles(g, orders)
    problems += [
        f"residual: {p}"
        for p in cert_problems(residual, residual_text, min_k=residual.delta + 1)
    ]
    problems += [f"translated: {p}" for p in cert_problems(g, translated_text)]
    if not translated_text.startswith(f"alpha-tilde-ge {m_value}\n"):
        problems.append(f"translated certificate value differs from m={m_value}")
    if m_value * (r + 1) <= delta - 3 * r:
        problems.append(f"m={m_value} not above (delta - 3r)/(r + 1)")
    return problems


# ---------------------------------------------------------------------------
# analyze


def analyze_problems(g: EdgeGraph, stdout: str) -> list[str]:
    """``analyze --exact`` prints ``n m delta`` and ``alpha alpha_tilde
    kappa``; alpha and kappa must match networkx and alpha <= alpha_tilde
    <= n."""
    lines = stdout.split("\n")
    if len(lines) != 3 or lines[-1] != "":
        return [f"analyze printed {stdout!r}"]
    if lines[0] != f"{g.n} {g.m} {g.delta}":
        return [f"analyze line {lines[0]!r}, expected {g.n} {g.m} {g.delta}"]
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has(u, v)
    )
    alpha = max(len(c) for c in nx.find_cliques(nx.complement(nxg)))
    kappa = nx.node_connectivity(nxg)
    try:
        got_alpha, got_tilde, got_kappa = (int(x) for x in lines[1].split())
    except ValueError:
        return [f"analyze exact line {lines[1]!r}"]
    problems = []
    if got_alpha != alpha:
        problems.append(f"alpha {got_alpha}, networkx says {alpha}")
    if got_kappa != kappa:
        problems.append(f"kappa {got_kappa}, networkx says {kappa}")
    if not alpha <= got_tilde <= g.n:
        problems.append(f"alpha_tilde {got_tilde} outside [alpha, n]")
    return problems


# ---------------------------------------------------------------------------
# experiment CSV

_CSV_HEADER = (
    "sample,delta,delta_zero,alpha_gt_2t,delta_lt_d,"
    "has_r_edhc,violation_lower,violation_upper"
)
_FLAG = {"0": False, "1": True, "NA": None}


def _and3(x, y):
    if x is False or y is False:
        return False
    return None if x is None or y is None else True


def _or3(x, y):
    if x is True or y is True:
        return True
    return None if x is None or y is None else False


def _not3(x):
    return None if x is None else not x


def csv_problems(text: str, n: int, p: float, r: int, samples: int, seed: int) -> list[str]:
    """The sandwich CSV: one row per sample, derived columns consistent with
    delta and the oracle columns, no violation, and comment lines that
    restate the parameters and the counts of the rows above them."""
    lines = text.split("\n")
    if lines[0] != _CSV_HEADER or lines[-1] != "":
        return ["CSV header or trailing newline wrong"]
    if len(lines) < samples + 2:
        return [f"CSV has fewer than {samples} rows"]
    t = math.isqrt(n)
    t += t * t < n
    d = r * 2 * t + 3 * r - 3
    counts = {
        key: [0, 0]
        for key in (
            "delta_zero",
            "delta_lt_d",
            "alpha_gt_2t",
            "no_r_edhc",
            "violation_lower",
            "violation_upper",
        )
    }
    problems = []
    for idx, row in enumerate(lines[1 : samples + 1]):
        cells = row.split(",")
        try:
            delta = int(cells[1])
            dz, agt, dlt, has_r, vlo, vup = (_FLAG[c] for c in cells[2:])
        except (ValueError, KeyError, IndexError):
            problems.append(f"row {idx}: malformed {row!r}")
            continue
        if cells[0] != str(idx) or delta < 0:
            problems.append(f"row {idx}: sample index or delta wrong")
        if dz != (delta == 0) or dlt != (delta < d):
            problems.append(f"row {idx}: delta flags disagree with delta={delta}")
        if vlo != _and3(dz, has_r):
            problems.append(f"row {idx}: violation_lower inconsistent")
        if vup != _and3(_not3(has_r), _not3(_or3(agt, dlt))):
            problems.append(f"row {idx}: violation_upper inconsistent")
        if vlo or vup:
            problems.append(f"row {idx}: sandwich violated")
        for key, flag in (
            ("delta_zero", dz),
            ("delta_lt_d", dlt),
            ("alpha_gt_2t", agt),
            ("no_r_edhc", _not3(has_r)),
            ("violation_lower", vlo),
            ("violation_upper", vup),
        ):
            counts[key][0] += flag is True
            counts[key][1] += flag is not None
    comments = lines[samples + 1 : -1]
    no_r, known = counts["no_r_edhc"]
    expected = [
        f"# params: n={n} p={p!r} r={r} samples={samples} seed={seed} t={t} d={d}",
        *(f"# count {k}: {c[0]}/{samples} known={c[1]}" for k, c in counts.items()),
        f"# freq no_r_edhc: {repr(no_r / known) if known else 'NA'}",
        f"# reference (1-p)^n: {(1.0 - p) ** n!r}",
    ]
    problems += [f"CSV lacks comment line {line!r}" for line in expected if line not in comments]
    return problems


# ---------------------------------------------------------------------------
# corruptions for the checker self-test


def corrupt_cycle(g: EdgeGraph, text: str) -> str:
    """Reverse a segment order[i+1..j] where order[i] and order[j] are not
    adjacent: still a permutation, now with a step that is not an edge."""
    order = parse_cycle_text(text)
    for i in range(len(order) - 2):
        for j in range(i + 2, len(order)):
            if not g.has(order[i], order[j]):
                order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
                return f"cycle {len(order)}\n{' '.join(map(str, order))}\n"
    raise ValueError("complete graph: every step is an edge")


def corrupt_cert(g: EdgeGraph, text: str) -> str:
    """Give the first pair one crossing edge u-w, keeping its sizes: u is
    an S-side vertex when one has a neighbour to spare, else it replaces
    one; w replaces a T-side vertex."""
    k, pairs = parse_cert_text(text)
    s_side, t_side = pairs[0]
    for u in dict.fromkeys(s_side + list(range(g.n))):
        new_s = s_side if u in s_side else sorted([u] + s_side[1:])
        for w in range(g.n):
            rest = [x for x in t_side if x != w and x not in new_s]
            if g.has(u, w) and w not in new_s and len(rest) >= len(t_side) - 1:
                pairs[0] = (new_s, sorted(rest[: len(t_side) - 1] + [w]))
                body = [
                    f"{i} | {' '.join(map(str, s))} | {' '.join(map(str, t))}"
                    for i, (s, t) in enumerate(pairs, start=1)
                ]
                return "\n".join([f"alpha-tilde-ge {k}", *body]) + "\n"
    raise ValueError("graph has no edge to plant in the certificate")


def corrupt_csv(text: str) -> str:
    """Flip the first 0/1 flag cell of the first data row."""
    lines = text.split("\n")
    cells = lines[1].split(",")
    col = next(i for i in range(2, len(cells)) if cells[i] in ("0", "1"))
    cells[col] = "1" if cells[col] == "0" else "0"
    lines[1] = ",".join(cells)
    return "\n".join(lines)

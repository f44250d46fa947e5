"""Schedule generators and the schedule file format.

A computation is an unbounded stream of rounds, and a schedule is its finite
prefix: an ordered sequence of state graphs. State indices (and hence edge
stamps and output rounds) are 1-based, so the first state is round 1. A
state is stored as its set of ``(src, dst)`` links; the stamp of a link is
the index of its round, so it is never stored, and temporal edges are built
only where the protocol and the oracles need them.

The stock generators cover the experimental setup (a backbone whose only
knot is a directed cycle, with a fixed number of backbone edges appearing
uniformly at random per round) and the deterministic worst case for the
protocol's causally-chained complexity bound.

``MAX_PROCESSES`` and ``MAX_HORIZON`` cap what a header or a generator
argument may ask for, and are checked before anything is allocated: the
loader makes one set per round (216 bytes empty, so 100,000 rounds take
about 20 MiB), the engine's arc masks can reach n bits per process
(n**2 / 8 bytes, 12.5 MB at 10,000 processes), and the payload pass's
counts n(w + 1) bits per process, w the bit length of the schedule's link
total (about 200 MB for the 2n-1 round worst case at 10,000 processes).
Both caps sit far above the paper's grids (n=100, 6000 rounds) and the
256-process benchmark worst case.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Optional, Tuple

MAX_PROCESSES = 10_000
MAX_HORIZON = 100_000


def bounded(name: str, value: int, low: int,
            high: Optional[int] = None) -> None:
    """ValueError unless ``value`` is an int (a bool is not) with
    ``low <= value`` and, if ``high`` is given, ``value <= high``. This is
    the one statement of what a count is (a size, a seed, an insert
    position or a ``TemporalEdge`` field), so it reads the same from a flag,
    a config line, a schedule header and a library call; ``name`` may carry
    a ``path:line: `` prefix."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low or high is not None and value > high:
        span = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {span}, got {value}")


def _check_links(n: int, links, where: str) -> None:
    """ValueError, prefixed by ``where``, for a link that is not a
    ``(src, dst)`` tuple of two int ids of 0..n-1, or is a self-loop."""
    for link in links:
        if not (isinstance(link, tuple) and len(link) == 2):
            raise ValueError(f"{where}link {link!r} is not a (src, dst) pair")
        src, dst = link
        ints = type(src) is int and type(dst) is int
        if ints and src == dst:
            raise ValueError(f"{where}self-loop {src}->{dst} is not a valid "
                             "link")
        if not (ints and 0 <= src < n and 0 <= dst < n):
            raise ValueError(
                f"{where}link {src!r}->{dst!r} names a process other than "
                f"the ints 0..{n - 1}")


@dataclass(frozen=True)
class Schedule:
    """A finite prefix of a computation plus its generation provenance.

    ``states[j]`` is the frozenset of ``(src, dst)`` links present in round
    j+1; each link is the temporal edge ``(src, dst, j+1)``, its stamp
    implied by its position. A link must be a ``(src, dst)`` tuple of two
    distinct int ids of 0..n-1. Generated schedules are reproducible from
    (params, seed); hand-built or padded ones carry whatever provenance
    string they were given. The seed is an int of any sign and params a str
    without whitespace, so that the header ``save_schedule`` writes loads.
    """

    n: int
    states: tuple
    params: str = "manual"
    seed: int = 0

    def __post_init__(self) -> None:
        bounded("n", self.n, 0, MAX_PROCESSES)
        states = tuple(frozenset(s) for s in self.states)
        object.__setattr__(self, "states", states)
        try:  # each distinct link once; a bad one is found round by round
            _check_links(self.n, frozenset().union(*states), "")
        except ValueError:
            for j, state in enumerate(states, start=1):
                _check_links(self.n, state, f"round {j}: ")
        if type(self.seed) is not int:  # of any sign, as a header's seed=
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if not isinstance(self.params, str):
            raise ValueError(f"params must be a str, got {self.params!r}")
        if any(ch.isspace() for ch in self.params):
            raise ValueError("params string must not contain whitespace")

    @property
    def horizon(self) -> int:
        return len(self.states)


def save_schedule(s: Schedule, path: str) -> None:
    """Write a schedule as a header line plus ``src dst state`` edge lines."""
    write_lines(path, chain(
        (f"n={s.n} horizon={s.horizon} seed={s.seed} params={s.params}",),
        (f"{src} {dst} {index}" for index, state in enumerate(s.states, 1)
         for src, dst in sorted(state))))


# The one number grammar for user text: ASCII digits and an optional leading
# minus. Flags, config lines, $KNOTID_WORKERS and the header's seed take it;
# the header's counts and the edge fields take it without the minus.
INT = "-?[0-9]+"
# ASCII whitespace, the only kind a config line or a schedule line may be
# padded with; ``\s`` under ``re.ASCII`` is the same set.
SPACE = " \t\n\r\f\v"
_HEADER = re.compile(
    rf"n=([0-9]+) horizon=([0-9]+) seed=({INT}) params=(\S*)")
# A blank line, or three ASCII decimal fields split by ASCII whitespace:
# the "src dst" text, then the stamp.
_EDGE_LINE = re.compile(r"\s*(?:([0-9]+\s+[0-9]+)\s+([0-9]+)\s*)?",
                        re.ASCII)


def integer(text: str, name: str = "value") -> int:
    """``text`` as an int if it fully matches ``INT``, else ValueError: a
    plus sign, an underscore, whitespace or a non-ASCII digit all fail."""
    if re.fullmatch(INT, text) is None:
        raise ValueError(f"bad integer for {name}: {text!r}")
    return int(text)


def numbered_lines(path: str) -> Iterator[Tuple[int, str]]:
    """``(line number, text)`` for each LF-ended line of ``path``, read in
    binary and decoded one line at a time, so a line that is not UTF-8
    raises ValueError naming ``path:line``."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            yield lineno, text


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path``, each ended by LF, in UTF-8 with no
    newline translation; every file knotid writes is written here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def load_schedule(path: str) -> Schedule:
    """Read a file written by ``save_schedule``; blank lines are skipped.
    Any defect raises ValueError naming ``path:line``: a line that is not
    UTF-8, a header not in exactly that form once ASCII whitespace is
    stripped (so also an unknown, repeated, missing or negative field), n
    outside 2..MAX_PROCESSES, a horizon above MAX_HORIZON, or an edge line
    that is not three ASCII decimal fields (a sign, an underscore, a
    non-ASCII digit or non-ASCII whitespace all count), is a self-loop,
    names a process outside 0..n-1, is stamped outside the horizon or
    repeats an earlier line."""
    lines = numbered_lines(path)
    header = next(lines, (1, ""))[1].strip(SPACE)
    match = _HEADER.fullmatch(header)
    if match is None:
        raise ValueError(f"{path}:1: header {header!r} is not 'n=<int> "
                         "horizon=<int> seed=<int> params=<text>'")
    n, horizon, seed = (int(g) for g in match.groups()[:3])
    bounded(f"{path}:1: n", n, 2, MAX_PROCESSES)
    bounded(f"{path}:1: horizon", horizon, 0, MAX_HORIZON)
    buckets: list = [set() for _ in range(horizon)]
    links: dict = {}  # "src dst" text -> its link; a bad one ends the load
    for lineno, raw in lines:
        fields = _EDGE_LINE.fullmatch(raw)
        if fields is None:
            raise ValueError(f"{path}:{lineno}: malformed edge line "
                             f"{raw.strip()!r}: want three ASCII decimal "
                             "fields")
        pair, stamp = fields.groups()
        if pair is None:
            continue
        stamp = int(stamp)
        link = links.get(pair)
        if link is None:
            link = links[pair] = tuple(map(int, pair.split()))
        src, dst = link
        if src == dst:
            problem = "is a self-loop"
        elif not 1 <= stamp <= horizon:
            problem = f"stamped outside 1..{horizon}"
        elif src >= n or dst >= n:
            problem = f"names a process outside 0..{n - 1}"
        elif link in buckets[stamp - 1]:
            problem = "repeats an earlier line"
        else:
            buckets[stamp - 1].add(link)
            continue
        raise ValueError(f"{path}:{lineno}: edge {src} {dst} {stamp} {problem}")
    return Schedule(n=n, states=buckets, params=match.group(4), seed=seed)


@dataclass(frozen=True)
class Backbone:
    """Static experiment topology: a directed cycle with tree-attached nodes.

    The cycle is the unique knot. Tree edges point away from the cycle
    (component toward new node): pointing inward would give the cycle an
    incoming arc and destroy the knot, and outward edges are what lets knot
    information eventually reach every node.
    """

    n: int
    cycle: tuple
    tree_edges: tuple
    seed: int = 0

    @property
    def edges(self) -> tuple:
        k = len(self.cycle)
        cycle_arcs = tuple((self.cycle[i], self.cycle[(i + 1) % k])
                           for i in range(k))
        return cycle_arcs + self.tree_edges


def gen_backbone(n: int, cycle_size: int, rng_seed: int) -> Backbone:
    """Cycle over processes 0..cycle_size-1, remaining nodes attached one by
    one with a single outward edge from a uniformly chosen connected node."""
    bounded("n", n, 2, MAX_PROCESSES)
    bounded("cycle_size", cycle_size, 2, n)
    rng = random.Random(rng_seed)
    cycle = tuple(range(cycle_size))
    tree = []
    for new in range(cycle_size, n):
        parent = rng.randrange(new)  # every id below `new` is already connected
        tree.append((parent, new))
    return Backbone(n=n, cycle=cycle, tree_edges=tuple(tree), seed=rng_seed)


def computation_rounds(backbone: Backbone, edges_per_round: int,
                       rng_seed: int) -> Iterator[frozenset]:
    """A backbone computation's unbounded stream of rounds, each one
    ``edges_per_round`` distinct backbone links drawn independently and
    uniformly. Its n and links are checked once, as in ``Schedule``.

    Each round is the set ``Random(rng_seed).sample(links, m)`` would give,
    drawn by the same ``getrandbits`` calls, so the stream depends on
    ``getrandbits`` alone. As CPython 3.10-3.13's ``sample`` does, an index
    below r takes ``r.bit_length()`` bits, redrawn until it is below r. Over
    more links than sample's set size (21, plus ``4 ** ceil(log(3m, 4))``
    when m > 5) an index already taken is redrawn too; otherwise a partial
    Fisher-Yates shuffle of a fresh copy of the links picks them."""
    links = backbone.edges
    size, m = len(links), edges_per_round
    bounded("backbone: n", backbone.n, 0, MAX_PROCESSES)
    bounded("edges_per_round", m, 1, size)
    _check_links(backbone.n, links, "backbone: ")
    bits = random.Random(rng_seed).getrandbits
    set_size = 21 + (4 ** math.ceil(math.log(m * 3, 4)) if m > 5 else 0)

    def by_rejection() -> Iterator[frozenset]:
        width = size.bit_length()
        while True:
            chosen = set()
            while len(chosen) < m:
                j = bits(width)
                if j < size:
                    chosen.add(j)
            yield frozenset([links[j] for j in chosen])

    def by_shuffle() -> Iterator[frozenset]:
        steps = [(left, left.bit_length())
                 for left in range(size, size - m, -1)]
        while True:
            rest = list(links)
            picked = []
            for left, width in steps:
                j = bits(width)
                while j >= left:
                    j = bits(width)
                picked.append(rest[j])
                rest[j] = rest[left - 1]
            yield frozenset(picked)

    return by_rejection() if size > set_size else by_shuffle()


def gen_computation(backbone: Backbone, edges_per_round: int, horizon: int,
                    rng_seed: int) -> Schedule:
    """The first ``horizon`` rounds of ``computation_rounds``."""
    rounds = computation_rounds(backbone, edges_per_round, rng_seed)
    bounded("horizon", horizon, 0, MAX_HORIZON)
    params = (f"backbone:k={len(backbone.cycle)},m={edges_per_round},"
              f"bseed={backbone.seed}")
    return Schedule(n=backbone.n, states=tuple(islice(rounds, horizon)),
                    params=params, seed=rng_seed)


def worst_case_schedule(n: int) -> Schedule:
    """Slowest possible single-knot run: 2n-1 rounds, one link each, all
    causally chained.

    Rounds 1..n lay an n-cycle link by link; the receiver of round n's link
    is the first process to hold the whole cycle. Rounds n+1..2n-1 walk the
    same chain again so that each remaining process learns the knot one
    round later, the last one exactly at round 2n-1.
    """
    bounded("n", n, 2, MAX_PROCESSES)
    states = ([{(i, (i + 1) % n)} for i in range(n)]
              + [{(j, j + 1)} for j in range(n - 1)])
    return Schedule(n=n, states=tuple(states), params=f"worst_case:n={n}",
                    seed=0)


def insert_noncomm_states(s: Schedule, positions: Iterable[int]) -> Schedule:
    """Insert empty (non-communicating) states.

    Each position is a 1-based state index of the original schedule; an empty
    state is inserted immediately before it (``horizon + 1`` appends at the
    end, and repeats insert several empties at the same spot). Stamps follow
    round indices, so every later link moves to its shifted round with
    nothing to re-stamp, which preserves every causality relation of the
    original schedule.
    """
    positions = list(positions)
    for pos in positions:  # each one before sorting, which needs ints
        bounded("insert position", pos, 1, s.horizon + 1)
    states = list(s.states)
    for pos in sorted(positions, reverse=True):  # keeps lower indices valid
        states.insert(pos - 1, frozenset())
    return Schedule(n=s.n, states=tuple(states), params=s.params, seed=s.seed)

"""The network creation game: buy undirected links, profit from reach.

A strategy is the set of players one pays to connect to.  Connections
are undirected and exist as soon as either endpoint pays; both may pay,
which wastes one payment but is a legal strategy.  Player i's actual
cost is

    alpha * (links i pays for) - g(players within R hops of i)

with g a utility-of-group-size function fixed by the game config.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .dual import Dual
from .game_core import GameInterface

__all__ = [
    "UtilitySpec",
    "NetGameConfig",
    "PurchaseProfile",
    "InducedGraph",
    "NetworkCreationGame",
    "RedundancyReport",
    "induce_graph",
    "neighborhood_counts",
    "actual_cost",
    "redundant_edges",
    "make_profile",
    "PROFILE_SHAPES",
    "dump_profile_json",
    "load_profile",
    "dump_config_json",
    "load_config",
    "dump_dot",
    "parse_dot",
]


@dataclass(frozen=True)
class UtilitySpec:
    """Group-size utility g with g(0) = 0.

    kind "linear" is g(x) = x, "power" is g(x) = x**p for rational p > 0,
    "sqrt" is g(x) = sqrt(x), "table" lists the values outright.  Results
    are exact rationals except for sqrt and fractional powers, which fall
    back to floats (and therefore tolerant cost comparisons).
    """

    kind: str
    p: Fraction | None = None
    values: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.kind == "linear" or self.kind == "sqrt":
            if self.p is not None or self.values is not None:
                raise ValueError(f"{self.kind} utility takes no parameters")
        elif self.kind == "power":
            if self.values is not None:
                raise ValueError("power utility takes no value table")
            p = Fraction(self.p)
            if p <= 0:
                raise ValueError("power exponent must be positive")
            object.__setattr__(self, "p", p)
        elif self.kind == "table":
            if self.p is not None:
                raise ValueError("table utility takes no exponent")
            if not self.values:
                raise ValueError("table utility needs at least one value")
            values = tuple(Fraction(v) for v in self.values)
            if values[0] != 0:
                raise ValueError("group utility must satisfy g(0) = 0")
            object.__setattr__(self, "values", values)
        else:
            raise ValueError(f"unknown utility kind {self.kind!r}")

    @classmethod
    def linear(cls) -> "UtilitySpec":
        return cls("linear")

    @classmethod
    def power(cls, p) -> "UtilitySpec":
        return cls("power", p=Fraction(p))

    @classmethod
    def sqrt(cls) -> "UtilitySpec":
        return cls("sqrt")

    @classmethod
    def table(cls, values) -> "UtilitySpec":
        return cls("table", values=tuple(Fraction(v) for v in values))

    @property
    def is_exact(self) -> bool:
        if self.kind == "sqrt":
            return False
        if self.kind == "power":
            return self.p.denominator == 1
        return True

    def __call__(self, x: int):
        if x < 0:
            raise ValueError("group size cannot be negative")
        if self.kind == "linear":
            return Fraction(x)
        if self.kind == "power":
            if self.p.denominator == 1:
                return Fraction(x) ** self.p
            return float(x) ** float(self.p)
        if self.kind == "sqrt":
            return math.sqrt(x)
        if x >= len(self.values):
            raise ValueError(f"group size {x} outside the table domain")
        return self.values[x]


@dataclass(frozen=True)
class NetGameConfig:
    n: int
    alpha: Fraction
    R: int
    g: UtilitySpec

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("need at least one player")
        alpha = Fraction(self.alpha)
        if alpha < 0:
            raise ValueError("connection price cannot be negative")
        object.__setattr__(self, "alpha", alpha)
        if not isinstance(self.R, int) or self.R < 0:
            raise ValueError("radius must be a nonnegative integer")
        if self.g.kind == "table" and len(self.g.values) != self.n:
            raise ValueError(
                f"table utility needs exactly {self.n} values, got {len(self.g.values)}"
            )

    @cached_property
    def gains(self) -> tuple:
        """g evaluated on every reachable group size 0..n-1."""
        return tuple(self.g(x) for x in range(self.n))


@dataclass(frozen=True)
class PurchaseProfile:
    """Who pays whom: buys[i] is the set of targets player i pays for."""

    buys: tuple[frozenset[int], ...]

    def __post_init__(self):
        buys = tuple(frozenset(b) for b in self.buys)
        n = len(buys)
        for i, targets in enumerate(buys):
            for j in targets:
                if not isinstance(j, int) or not 0 <= j < n:
                    raise ValueError(f"player {i} buys out-of-range target {j!r}")
                if j == i:
                    raise ValueError(f"player {i} cannot buy a link to itself")
        object.__setattr__(self, "buys", buys)

    @property
    def n(self) -> int:
        return len(self.buys)

    def __iter__(self):
        return iter(self.buys)

    def __len__(self) -> int:
        return len(self.buys)

    def __getitem__(self, i: int) -> frozenset[int]:
        return self.buys[i]


@dataclass(frozen=True)
class InducedGraph:
    n: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        neighbors = [[] for _ in range(self.n)]
        for i, j in self.edges:
            neighbors[i].append(j)
            neighbors[j].append(i)
        return tuple(tuple(sorted(ns)) for ns in neighbors)


def _edge_set(buys: tuple[frozenset[int], ...]) -> frozenset[tuple[int, int]]:
    return frozenset(
        (i, j) if i < j else (j, i) for i, targets in enumerate(buys) for j in targets
    )


def induce_graph(profile) -> InducedGraph:
    """Collapse purchases to the undirected topology they create."""
    buys = tuple(profile)
    return InducedGraph(len(buys), _edge_set(buys))


def neighborhood_counts(graph: InducedGraph, i: int, R: int) -> tuple[int, ...]:
    """Sizes of the hop-distance layers 1..R around player i."""
    if R < 0:
        raise ValueError("radius must be nonnegative")
    # layer k is reach within k hops minus reach within k-1; reach stops
    # growing after n hops
    reach = [
        _reach_totals(graph.n, min(k, graph.n), graph.edges)[i] for k in range(R + 1)
    ]
    return tuple(b - a for a, b in zip(reach, reach[1:]))


def _reach_counts(adjacency, R: int) -> tuple[int, ...]:
    """Players within R hops of every node; adjacency[u] is u's neighbor bitmask.

    This is the package's only hop loop: every reach figure comes from here.
    """
    counts = []
    for i in range(len(adjacency)):
        visited = frontier = 1 << i
        for _ in range(R):
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= adjacency[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & ~visited
            if not frontier:
                break
            visited |= frontier
        counts.append(visited.bit_count() - 1)
    return tuple(counts)


@lru_cache(maxsize=1 << 18)
def _reach_totals(n: int, R: int, edges: frozenset) -> tuple[int, ...]:
    """Players within R hops, for every start node of the given graph."""
    adjacency = [0] * n
    for i, j in edges:
        adjacency[i] |= 1 << j
        adjacency[j] |= 1 << i
    return _reach_counts(adjacency, R)


def actual_cost(config: NetGameConfig, profile, i: int) -> Dual:
    buys = tuple(profile)
    if len(buys) != config.n:
        raise ValueError(f"profile is for {len(buys)} players, config for {config.n}")
    reach = _reach_totals(config.n, config.R, _edge_set(buys))[i]
    return Dual(config.alpha * len(buys[i]) - config.gains[reach])


@dataclass(frozen=True)
class RedundancyReport:
    """Edges whose removal changes nobody's reach, and wasted payments."""

    redundant: frozenset[tuple[int, int]]
    double_paid: frozenset[tuple[int, int]]


def redundant_edges(config: NetGameConfig, profile) -> RedundancyReport:
    buys = tuple(profile)
    edges = _edge_set(buys)
    base = _reach_totals(config.n, config.R, edges)
    redundant = frozenset(
        e for e in edges if _reach_totals(config.n, config.R, edges - {e}) == base
    )
    double = frozenset(
        (i, j)
        for i, targets in enumerate(buys)
        for j in targets
        if i < j and i in buys[j]
    )
    return RedundancyReport(redundant=redundant, double_paid=double)


PROFILE_SHAPES = ("isolated", "clique", "star", "circulant", "bounded_tree")


def make_profile(shape: str, config: NetGameConfig, *, center: int = 0, x: int | None = None) -> PurchaseProfile:
    """Canonical profiles: who pays is fixed so results are reproducible.

    clique: the lower-indexed endpoint pays.  star/bounded_tree: every
    leaf pays for its own link to the center.  circulant(x): player i
    pays for links to the next x players around the ring.
    """
    n = config.n
    empty = frozenset()
    if shape == "isolated":
        buys = [empty] * n
    elif shape == "clique":
        buys = [frozenset(range(i + 1, n)) for i in range(n)]
    elif shape in ("star", "bounded_tree"):
        if shape == "bounded_tree" and n < 2:
            raise ValueError("a tree needs at least two players")
        if shape == "bounded_tree":
            center = 0
        if not 0 <= center < n:
            raise ValueError(f"center {center} out of range")
        buys = [empty if i == center else frozenset({center}) for i in range(n)]
    elif shape == "circulant":
        if x is None:
            raise ValueError("circulant shape needs the half-degree x")
        if not 1 <= x <= n // 2:
            raise ValueError(f"half-degree {x} outside 1..{n // 2}")
        buys = [frozenset((i + k) % n for k in range(1, x + 1)) for i in range(n)]
    else:
        raise ValueError(f"unknown profile shape {shape!r}")
    return PurchaseProfile(tuple(buys))


@lru_cache(maxsize=4096)
def _strategy_space(n: int, i: int) -> tuple[frozenset[int], ...]:
    others = [j for j in range(n) if j != i]
    space = []
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            space.append(frozenset(combo))
    return tuple(space)


class NetworkCreationGame(GameInterface):
    """GameInterface implementation backed by a NetGameConfig.

    Strategy spaces are enumerated by (purchase count, sorted targets),
    which is the tie-break order the deviation search expects.
    """

    def __init__(self, config: NetGameConfig):
        self._config = config

    @property
    def config(self) -> NetGameConfig:
        return self._config

    @property
    def n(self) -> int:
        return self._config.n

    def strategy_space(self, i: int):
        if not 0 <= i < self.n:
            raise ValueError(f"player index {i} out of range")
        return _strategy_space(self.n, i)

    def actual_cost(self, i: int, strategies: tuple) -> Dual:
        return actual_cost(self._config, strategies, i)

    def cost_vector(self, strategies: tuple) -> tuple[Dual, ...]:
        buys = tuple(strategies)
        cfg = self._config
        reach = _reach_totals(cfg.n, cfg.R, _edge_set(buys))
        return tuple(
            Dual(cfg.alpha * len(buys[i]) - cfg.gains[reach[i]])
            for i in range(cfg.n)
        )


# -- serialization ------------------------------------------------------


def dump_profile_json(profile) -> str:
    buys = tuple(profile)
    payload = {
        "n": len(buys),
        "strategies": [sorted(targets) for targets in buys],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_profile(text: str) -> PurchaseProfile:
    payload = json.loads(text)
    strategies = payload["strategies"]
    if "n" in payload and payload["n"] != len(strategies):
        raise ValueError("declared size does not match the strategy list")
    return PurchaseProfile(tuple(frozenset(t) for t in strategies))


def _utility_to_json(g: UtilitySpec) -> dict:
    payload = {"kind": g.kind}
    if g.p is not None:
        payload["p"] = str(g.p)
    if g.values is not None:
        payload["values"] = [str(v) for v in g.values]
    return payload


def _utility_from_json(payload: dict) -> UtilitySpec:
    kind = payload["kind"]
    if kind == "power":
        return UtilitySpec.power(Fraction(payload["p"]))
    if kind == "table":
        return UtilitySpec.table(payload["values"])
    return UtilitySpec(kind)


def dump_config_json(config: NetGameConfig) -> str:
    payload = {
        "n": config.n,
        "alpha": str(config.alpha),
        "R": config.R,
        "g": _utility_to_json(config.g),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_config(text: str) -> NetGameConfig:
    payload = json.loads(text)
    return NetGameConfig(
        n=payload["n"],
        alpha=Fraction(payload["alpha"]),
        R=payload["R"],
        g=_utility_from_json(payload["g"]),
    )


def dump_dot(profile) -> str:
    """Topology in DOT form; payer endpoints recorded as an attribute."""
    buys = tuple(profile)
    n = len(buys)
    lines = ["graph topology {"]
    for i in range(n):
        lines.append(f"  {i};")
    for i, j in sorted(_edge_set(buys)):
        payers = [p for p in (i, j) if (j if p == i else i) in buys[p]]
        tag = ",".join(str(p) for p in payers)
        lines.append(f'  {i} -- {j} [payer="{tag}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_NODE = re.compile(r"^\s*(\d+)\s*;\s*$")
_DOT_EDGE = re.compile(r"^\s*(\d+)\s*--\s*(\d+)\s*\[payer=\"([0-9,]*)\"\]\s*;\s*$")


def parse_dot(text: str) -> PurchaseProfile:
    nodes = set()
    edges = []
    for line in text.splitlines():
        node = _DOT_NODE.match(line)
        if node:
            nodes.add(int(node.group(1)))
            continue
        edge = _DOT_EDGE.match(line)
        if edge:
            i, j = int(edge.group(1)), int(edge.group(2))
            payers = [int(p) for p in edge.group(3).split(",") if p]
            edges.append((i, j, payers))
            nodes.update((i, j))
    if not nodes:
        raise ValueError("no nodes found in the topology file")
    n = max(nodes) + 1
    buys = [set() for _ in range(n)]
    for i, j, payers in edges:
        if not payers:
            raise ValueError(f"edge {i} -- {j} has no payer")
        for p in payers:
            if p not in (i, j):
                raise ValueError(f"payer {p} is not an endpoint of {i} -- {j}")
            buys[p].add(j if p == i else i)
    return PurchaseProfile(tuple(frozenset(b) for b in buys))

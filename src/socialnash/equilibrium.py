"""Equilibrium solvers: exhaustive, constructive, and dynamic.

The exhaustive path tests every profile against every one-player
deviation.  For radius-1 linear games there is an exact shortcut: a
link's worth to a player does not depend on her other links, so each
pair of players can be settled independently and the full equilibrium
family is the product of the per-pair options.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .dual import Dual, ZERO, _cmp_parts
from .game_core import best_deviation, social_cost, _improving_player
from .netgame import (
    InducedGraph,
    NetGameConfig,
    NetworkCreationGame,
    PurchaseProfile,
    UtilitySpec,
    _reach_counts,
    induce_graph,
)
from .social_matrix import SocialRangeMatrix

__all__ = [
    "SizeCapError",
    "NoEquilibriumError",
    "EdgeDecision",
    "EquilibriumReport",
    "TopologyClass",
    "OptimumResult",
    "DynamicsStep",
    "DynamicsTrace",
    "AdjacencyResult",
    "r1_linear_edge_rule",
    "edge_rule_profile",
    "iter_edge_rule_pne",
    "enumerate_pne",
    "profile_key",
    "brute_force_social_optimum",
    "social_optimum_graphs",
    "graph_to_profile",
    "best_response_dynamics",
    "isolated_is_ne",
    "regular_ne_condition",
    "tree_ne_condition",
    "adjacency_equilibrium",
]

# Profiles the enumerator is willing to materialize in one report.
_FAMILY_GUARD = 250_000


class SizeCapError(ValueError):
    """The requested search space is above the configured cap."""


class NoEquilibriumError(ValueError):
    """The per-pair rule found a pair with no stable arrangement."""

    def __init__(self, pair: tuple[int, int]):
        super().__init__(
            f"players {pair[0]} and {pair[1]} have no stable link arrangement"
        )
        self.pair = pair


def _require_r1_linear(config: NetGameConfig):
    if config.R != 1 or config.g.kind != "linear":
        raise ValueError("per-link decomposition needs radius 1 and linear utility")


@dataclass(frozen=True)
class EdgeDecision:
    """Outcome of the pairwise link calculus for players i < j.

    delta_* is the perceived-cost change for buying the link into an
    arrangement without it; price_* is the perceived cost of paying for a
    link the other endpoint already covers.  allowed_states lists every
    arrangement of this pair that survives both players' vetoes, in the
    order the canonical constructor prefers them.
    """

    i: int
    j: int
    delta_i: Dual
    delta_j: Dual
    price_i: Dual
    price_j: Dual
    willingness: str
    allowed_states: tuple[str, ...]


def r1_linear_edge_rule(F: SocialRangeMatrix, alpha, i: int, j: int) -> EdgeDecision:
    """Settle one player pair of the radius-1 linear game.

    Buying link {i,j} changes i's actual cost by alpha - 1 and j's by -1,
    so i's perceived change is f_ii*(alpha-1) - f_ij.  A player is willing
    at a weakly negative change.  Stability of each arrangement:

      no link      both deltas weakly positive
      i pays       delta_i <= 0 and j must not want to double-pay
      j pays       symmetric
      both pay     each player's own-payment price f_ii*alpha weakly
                   negative, so dropping the wasted payment does not help
    """
    if i == j:
        raise ValueError("a pair needs two distinct players")
    if not (0 <= i < F.n and 0 <= j < F.n):
        raise ValueError(f"pair ({i}, {j}) out of range")
    alpha = Fraction(alpha)
    delta_i = F[i, i] * (alpha - 1) - F[i, j]
    delta_j = F[j, j] * (alpha - 1) - F[j, i]
    price_i = F[i, i] * alpha
    price_j = F[j, j] * alpha

    i_willing = delta_i.sign() <= 0
    j_willing = delta_j.sign() <= 0
    if i_willing and j_willing:
        willingness = "both_willing"
    elif i_willing:
        willingness = "i_pays"
    elif j_willing:
        willingness = "j_pays"
    else:
        willingness = "neither"

    allowed = []
    if i_willing and price_j.sign() >= 0:
        allowed.append("i_pays")
    if j_willing and price_i.sign() >= 0:
        allowed.append("j_pays")
    if delta_i.sign() >= 0 and delta_j.sign() >= 0:
        allowed.append("none")
    if price_i.sign() <= 0 and price_j.sign() <= 0:
        allowed.append("both")

    return EdgeDecision(
        i=i,
        j=j,
        delta_i=delta_i,
        delta_j=delta_j,
        price_i=price_i,
        price_j=price_j,
        willingness=willingness,
        allowed_states=tuple(allowed),
    )


def _pair_decisions(config: NetGameConfig, F: SocialRangeMatrix):
    _require_r1_linear(config)
    if F.n != config.n:
        raise ValueError(f"matrix is {F.n}x{F.n} but the game has {config.n} players")
    return [
        r1_linear_edge_rule(F, config.alpha, i, j)
        for i, j in combinations(range(config.n), 2)
    ]


def _apply_state(buys: list[set[int]], decision: EdgeDecision, state: str):
    if state in ("i_pays", "both"):
        buys[decision.i].add(decision.j)
    if state in ("j_pays", "both"):
        buys[decision.j].add(decision.i)


def edge_rule_profile(config: NetGameConfig, F: SocialRangeMatrix) -> PurchaseProfile:
    """Deterministic equilibrium of the radius-1 linear game.

    Every pair takes its first allowed arrangement, preferring the
    lower-indexed payer, then no link, then double payment.  Raises
    NoEquilibriumError when some pair has no allowed arrangement (possible
    with negative self-weights).
    """
    buys = [set() for _ in range(config.n)]
    for decision in _pair_decisions(config, F):
        if not decision.allowed_states:
            raise NoEquilibriumError((decision.i, decision.j))
        _apply_state(buys, decision, decision.allowed_states[0])
    return PurchaseProfile(tuple(frozenset(b) for b in buys))


def iter_edge_rule_pne(config: NetGameConfig, F: SocialRangeMatrix):
    """Yield every equilibrium of the radius-1 linear game, one by one.

    The family is the Cartesian product of each pair's allowed
    arrangements; pairs are independent, so the product is exactly the
    set of equilibria.  Yields nothing when some pair has no option.
    """
    decisions = _pair_decisions(config, F)
    if any(not d.allowed_states for d in decisions):
        return
    for combo in product(*(d.allowed_states for d in decisions)):
        buys = [set() for _ in range(config.n)]
        for decision, state in zip(decisions, combo):
            _apply_state(buys, decision, state)
        yield PurchaseProfile(tuple(frozenset(b) for b in buys))


@dataclass(frozen=True)
class TopologyClass:
    """Equilibria grouped by the network they induce."""

    edges: tuple[tuple[int, int], ...]
    multiplicity: int
    social_cost: Dual


@dataclass(frozen=True)
class EquilibriumReport:
    n: int
    method: str
    pne: tuple[tuple[PurchaseProfile, Dual], ...]
    optimum_profile: PurchaseProfile
    optimum_cost: Dual
    worst_pne_cost: Dual | None
    best_pne_cost: Dual | None
    topologies: tuple[TopologyClass, ...]


def profile_key(profile: PurchaseProfile):
    """Stable sort key: per-player purchase sets as sorted tuples."""
    return tuple(tuple(sorted(b)) for b in profile.buys)


def enumerate_pne(config: NetGameConfig, F: SocialRangeMatrix, n_cap: int = 4, method: str = "auto") -> EquilibriumReport:
    """Find every equilibrium, the social optimum, and summary costs.

    method "auto" takes the exact per-pair shortcut whenever the game is
    radius-1 linear and falls back to full profile-space search otherwise;
    "full" and "edge-rule" force one path.  Full search is capped at n_cap
    players; the shortcut is allowed one player more than the cap (at
    least 5) since its cost scales with the equilibrium family, which is
    separately bounded.
    """
    if F.n != config.n:
        raise ValueError(f"matrix is {F.n}x{F.n} but the game has {config.n} players")
    if method not in ("auto", "full", "edge-rule"):
        raise ValueError(f"unknown enumeration method {method!r}")
    fast_ok = config.R == 1 and config.g.kind == "linear"
    if method == "auto":
        method = "edge-rule" if fast_ok else "full"
    elif method == "edge-rule" and not fast_ok:
        raise ValueError("per-link decomposition needs radius 1 and linear utility")

    game = NetworkCreationGame(config)
    n = config.n

    if method == "edge-rule":
        if n > max(n_cap, 5):
            raise SizeCapError(f"{n} players exceeds the cap of {max(n_cap, 5)}")
        decisions = _pair_decisions(config, F)
        family = 1
        for d in decisions:
            family *= len(d.allowed_states)
        if family > _FAMILY_GUARD:
            raise SizeCapError(
                f"equilibrium family has {family} members, above the "
                f"{_FAMILY_GUARD} materialization guard"
            )
        found = list(iter_edge_rule_pne(config, F))
    else:
        if n > n_cap:
            raise SizeCapError(f"{n} players exceeds the cap of {n_cap}")
        found = []
        for combo in product(*(game.strategy_space(i) for i in range(n))):
            if _improving_player(game, F, combo) is None:
                found.append(PurchaseProfile(combo))

    found.sort(key=profile_key)
    pne = tuple((p, social_cost(game, p)) for p in found)

    optimum = brute_force_social_optimum(config)

    worst = best = None
    for _, cost in pne:
        if worst is None or cost > worst:
            worst = cost
        if best is None or cost < best:
            best = cost
    if best is not None and best < optimum.cost:
        raise RuntimeError("an equilibrium undercut the social optimum")

    by_topology: dict = {}
    for p, cost in pne:
        edges = tuple(sorted(induce_graph(p).edges))
        if edges in by_topology:
            by_topology[edges][0] += 1
        else:
            by_topology[edges] = [1, cost]
    topologies = tuple(
        TopologyClass(edges=edges, multiplicity=count, social_cost=cost)
        for edges, (count, cost) in sorted(
            by_topology.items(), key=lambda kv: (len(kv[0]), kv[0])
        )
    )

    return EquilibriumReport(
        n=n,
        method=method,
        pne=pne,
        optimum_profile=optimum.profile,
        optimum_cost=optimum.cost,
        worst_pne_cost=worst,
        best_pne_cost=best,
        topologies=topologies,
    )


@dataclass(frozen=True)
class OptimumResult:
    graph: InducedGraph
    cost: Dual
    profile: PurchaseProfile


@lru_cache(maxsize=64)
def _benefit_table(n: int, R: int, g: UtilitySpec) -> tuple:
    """Total group utility for every graph on n nodes, indexed by edge mask."""
    gains = tuple(g(x) for x in range(n))
    pairs = list(combinations(range(n), 2))
    table = []
    for mask in range(1 << len(pairs)):
        adjacency = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
        total = gains[0] * n  # zero, but keeps the float/exact type uniform
        for reach in _reach_counts(adjacency, R):
            total += gains[reach]
        table.append(total)
    return tuple(table)


def _cost_scan(config: NetGameConfig):
    """One pass over every edge mask, in mask order.

    Yields (mask, cost, improved) for each mask whose cost is at most the
    running minimum; improved marks a new strict minimum, so the masks
    yielded since the last improvement are exactly the minimizers.
    """
    n = config.n
    if n > 7:
        raise SizeCapError(f"{n} players exceeds the 7-player optimum search cap")
    benefits = _benefit_table(n, config.R, config.g)
    best = -benefits[0]
    yield 0, best, True
    for mask in range(1, len(benefits)):
        value = config.alpha * mask.bit_count() - benefits[mask]
        order = _cmp_parts(value, best)
        if order < 0:
            best = value
        if order <= 0:
            yield mask, value, order < 0


def _mask_graph(n: int, mask: int) -> InducedGraph:
    pairs = combinations(range(n), 2)
    return InducedGraph(n, frozenset(e for b, e in enumerate(pairs) if mask >> b & 1))


def brute_force_social_optimum(config: NetGameConfig) -> OptimumResult:
    """Exhaustive social optimum over edge subsets.

    The social cost of a profile depends only on its topology plus the
    payment count, and duplicate payments only ever add cost, so graphs
    with one payer per edge cover all minimizers.  Of the minimizers, the
    one with the lowest edge mask wins and the lower endpoint pays.
    """
    for mask, value, improved in _cost_scan(config):
        if improved:
            best_mask, best_value = mask, value
    graph = _mask_graph(config.n, best_mask)
    return OptimumResult(graph=graph, cost=Dual(best_value), profile=graph_to_profile(graph))


def social_optimum_graphs(config: NetGameConfig) -> tuple[InducedGraph, ...]:
    """Every cost-minimizing topology, in edge-mask order.

    Useful when a claim is about the whole minimizer set (the clique
    and only the clique, every minimizer is a tree, ...).
    """
    masks: list[int] = []
    for mask, _, improved in _cost_scan(config):
        if improved:
            masks.clear()
        masks.append(mask)
    return tuple(_mask_graph(config.n, mask) for mask in masks)


def graph_to_profile(graph: InducedGraph) -> PurchaseProfile:
    """One canonical payer assignment: the lower endpoint pays."""
    buys = [set() for _ in range(graph.n)]
    for i, j in graph.edges:
        buys[min(i, j)].add(max(i, j))
    return PurchaseProfile(tuple(frozenset(b) for b in buys))


@dataclass(frozen=True)
class DynamicsStep:
    player: int
    old: frozenset[int]
    new: frozenset[int]
    delta: Dual


@dataclass(frozen=True)
class DynamicsTrace:
    steps: tuple[DynamicsStep, ...]
    outcome: str  # converged | cycle | cutoff
    final: PurchaseProfile
    cycle_index: int | None = None


def best_response_dynamics(config: NetGameConfig, F: SocialRangeMatrix, initial: PurchaseProfile | None = None, schedule="round-robin", max_steps: int = 100) -> DynamicsTrace:
    """Iterated best responses with strict-improvement steps only.

    Players move in schedule order; a full pass without any strict
    improvement means the profile is an equilibrium (converged).  A
    revisited profile is a cycle, reported with the index of its first
    appearance in the state sequence (initial state = 0).  The step
    budget caps the number of applied improvements (cutoff).
    """
    if max_steps < 1:
        raise ValueError("need at least one step of budget")
    game = NetworkCreationGame(config)
    n = config.n
    if schedule == "round-robin":
        order = tuple(range(n))
    else:
        order = tuple(schedule)
        if set(order) != set(range(n)):
            raise ValueError("schedule must visit every player")
    state = tuple(initial) if initial is not None else (frozenset(),) * n
    if len(state) != n:
        raise ValueError(f"initial profile is for {len(state)} players, config for {n}")
    seen = {state: 0}
    steps: list[DynamicsStep] = []
    while True:
        improved = False
        for player in order:
            move = best_deviation(game, F, player, state)
            if move.delta.sign() >= 0:
                continue
            if len(steps) == max_steps:
                return DynamicsTrace(tuple(steps), "cutoff", PurchaseProfile(state))
            old = state[player]
            state = state[:player] + (move.strategy,) + state[player + 1 :]
            steps.append(DynamicsStep(player, old, move.strategy, move.delta))
            improved = True
            if state in seen:
                return DynamicsTrace(
                    tuple(steps), "cycle", PurchaseProfile(state), seen[state]
                )
            seen[state] = len(steps)
        if not improved:
            return DynamicsTrace(tuple(steps), "converged", PurchaseProfile(state))


def isolated_is_ne(config: NetGameConfig) -> bool:
    """No-edges profile is an equilibrium iff no group size is worth
    buying into at cost alpha per link: g(x) <= x*alpha for all x."""
    return all(
        _cmp_parts(config.gains[x], config.alpha * x) <= 0 for x in range(config.n)
    )


def regular_ne_condition(config: NetGameConfig, x: int) -> bool:
    """Whether buying x ring links each (a 2x-regular graph) is stable.

    The test compares keeping x links against switching to any y: the
    utility edge g(2x) - g(x+y) must cover the price gap alpha*(x-y).
    For 2x = n the inequality is still evaluated (formula utilities
    extend past group size n-1) but no 2x-regular graph exists.
    """
    n = config.n
    if not 0 <= x <= n // 2:
        raise ValueError(f"half-degree {x} outside 0..{n // 2}")
    g2x = config.gains[2 * x] if 2 * x < n else config.g(2 * x)
    return all(
        _cmp_parts(g2x - config.gains[x + y], config.alpha * (x - y)) >= 0
        for y in range(n - x)
    )


def tree_ne_condition(config: NetGameConfig) -> bool:
    """Whether a full-reach tree (radius above 1) is stable: the group
    utility must strictly grow, and one link must be worth full reach."""
    if config.R <= 1:
        raise ValueError("bounded-diameter tree results need a radius above 1")
    n = config.n
    increasing = all(
        _cmp_parts(config.gains[k], config.gains[k + 1]) < 0 for k in range(n - 1)
    )
    return increasing and _cmp_parts(config.alpha, config.gains[n - 1]) < 0


@dataclass(frozen=True)
class AdjacencyResult:
    adjacency: tuple[tuple[int, ...], ...]
    profile: PurchaseProfile


def adjacency_equilibrium(F: SocialRangeMatrix, alpha) -> AdjacencyResult:
    """Read an equilibrium network straight off a binary friend matrix.

    For 1 < alpha < 2 and self-weights in (0, 1], a player buys a link
    exactly to her 1-entries, so the equilibrium adjacency matrix is the
    symmetrized off-diagonal part of F.  The payer is the endpoint whose
    entry is 1; on mutual friendship the lower index pays.
    """
    alpha = Fraction(alpha)
    if not Fraction(1) < alpha < Fraction(2):
        raise ValueError("the adjacency reading needs 1 < alpha < 2")
    n = F.n
    one = Dual(1)
    for i in range(n):
        diag = F[i, i]
        if not (diag.sign() > 0 and diag <= one):
            raise ValueError(f"self-weight of player {i} must be in (0, 1]")
        for j in range(n):
            if i != j and F[i, j] != ZERO and F[i, j] != one:
                raise ValueError(f"entry ({i}, {j}) must be 0 or 1")
    adjacency = tuple(
        tuple(
            1 if i != j and (F[i, j] == one or F[j, i] == one) else 0
            for j in range(n)
        )
        for i in range(n)
    )
    buys = [
        frozenset(
            j
            for j in range(n)
            if j != i and F[i, j] == one and (F[j, i] != one or i < j)
        )
        for i in range(n)
    ]
    return AdjacencyResult(adjacency=adjacency, profile=PurchaseProfile(tuple(buys)))

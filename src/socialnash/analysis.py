"""Scenario studies on top of the solvers.

Three families: the welfare race between a fully selfish society and a
monarch-centered one, the effect of turning indifference into friendship
or ill will, and an executable catalog of the model's structural claims
with one verdict per parameter point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .dual import Dual, EPS, ONE, ZERO, format_weight
from .equilibrium import (
    _FAMILY_GUARD,
    _pair_decisions,
    adjacency_equilibrium,
    brute_force_social_optimum,
    edge_rule_profile,
    enumerate_pne,
    graph_to_profile,
    isolated_is_ne,
    iter_edge_rule_pne,
    profile_key,
    regular_ne_condition,
    social_optimum_graphs,
    tree_ne_condition,
)
from .game_core import is_pne, social_cost
from .netgame import (
    InducedGraph,
    NetGameConfig,
    NetworkCreationGame,
    PurchaseProfile,
    UtilitySpec,
    _reach_totals,
    make_profile,
    redundant_edges,
)
from .social_matrix import SocialRangeMatrix, build_archetype

__all__ = [
    "SocietyOutcome",
    "StarWitness",
    "ScenarioComparison",
    "WindfallReport",
    "LemmaVerdict",
    "LEMMA_CLAIMS",
    "anarchy_vs_monarchy",
    "windfall_experiment",
    "verify_lemma",
    "verify_all",
    "comparison_csv_rows",
    "windfall_csv_rows",
    "verdict_csv_rows",
    "profile_text",
    "decimal_text",
]

_MINUS_ONE = Dual(-1)


def _linear_r1(n: int, alpha) -> NetGameConfig:
    return NetGameConfig(n, alpha, 1, UtilitySpec.linear())


# ---------------------------------------------------------------------------
# selfish society vs monarchy


@dataclass(frozen=True)
class SocietyOutcome:
    """One society's deterministic equilibrium, its recomputed cost, and
    the catalog's closed form for comparison."""

    society: str
    equilibrium: PurchaseProfile
    cost: Dual
    closed_form: Fraction
    matches_closed_form: bool
    verified: bool


@dataclass(frozen=True)
class StarWitness:
    """The star with paying leaves: the catalog's claimed monarchy
    equilibrium of cost (alpha-2)(n-1), checked rather than assumed."""

    profile: PurchaseProfile
    cost: Dual
    claimed_cost: Fraction
    is_equilibrium: bool
    claim_holds: bool


@dataclass(frozen=True)
class ScenarioComparison:
    n: int
    alpha: Fraction
    anarchy: SocietyOutcome
    monarchy: SocietyOutcome
    star: StarWitness
    additional_equilibrium: PurchaseProfile | None
    additional_note: str
    optimum_profile: PurchaseProfile
    optimum_cost: Dual
    optimum_closed_form: Fraction
    optimum_matches: bool
    winner: str  # anarchy | monarchy | tie


def _monarch_pays_star(config: NetGameConfig) -> PurchaseProfile:
    buys = [frozenset(range(1, config.n))]
    buys.extend(frozenset() for _ in range(config.n - 1))
    return PurchaseProfile(tuple(buys))


def anarchy_vs_monarchy(n: int, alpha) -> ScenarioComparison:
    """Compare the selfish society against the monarchy at one (n, alpha).

    Both equilibria come from the deterministic per-pair constructor and
    are re-verified; every cost is recomputed from its profile.  The
    closed forms on record: anarchy (alpha/2-1)n(n-1) for alpha <= 1 and
    0 above; monarchy (alpha-2)(n-1) via the star with paying leaves.
    The star claim fails for alpha < 1 with three or more players (two
    periphery players then profit from a direct link), and the flags
    report that rather than papering over it.
    """
    if n < 2:
        raise ValueError("need at least two players to compare societies")
    alpha = Fraction(alpha)
    config = _linear_r1(n, alpha)
    game = NetworkCreationGame(config)
    identity = build_archetype("identity", n)
    crown = build_archetype("monarchy", n, k=0, self_weight=EPS)

    anarchy_eq = edge_rule_profile(config, identity)
    anarchy_cost = social_cost(game, anarchy_eq)
    if alpha <= 1:
        anarchy_form = (Fraction(alpha, 2) - 1) * n * (n - 1)
    else:
        anarchy_form = Fraction(0)
    anarchy = SocietyOutcome(
        society="anarchy",
        equilibrium=anarchy_eq,
        cost=anarchy_cost,
        closed_form=anarchy_form,
        matches_closed_form=anarchy_cost == Dual(anarchy_form),
        verified=bool(is_pne(game, identity, anarchy_eq)),
    )

    star_claim = (alpha - 2) * (n - 1)
    monarchy_eq = edge_rule_profile(config, crown)
    monarchy_cost = social_cost(game, monarchy_eq)
    monarchy = SocietyOutcome(
        society="monarchy",
        equilibrium=monarchy_eq,
        cost=monarchy_cost,
        closed_form=star_claim,
        matches_closed_form=monarchy_cost == Dual(star_claim),
        verified=bool(is_pne(game, crown, monarchy_eq)),
    )

    star_profile = make_profile("star", config)
    star_cost = social_cost(game, star_profile)
    star_pne = bool(is_pne(game, crown, star_profile))
    star = StarWitness(
        profile=star_profile,
        cost=star_cost,
        claimed_cost=star_claim,
        is_equilibrium=star_pne,
        claim_holds=star_pne and star_cost == Dual(star_claim),
    )

    additional, note = _additional_monarchy_equilibrium(
        config, game, crown, star_profile, star_claim, monarchy_cost
    )

    optimum = brute_force_social_optimum(config)
    if alpha < 2:
        optimum_form = (Fraction(alpha, 2) - 1) * n * (n - 1)
    else:
        optimum_form = Fraction(0)

    order = anarchy_cost.compare(monarchy_cost)
    winner = "tie" if order == 0 else ("anarchy" if order < 0 else "monarchy")

    return ScenarioComparison(
        n=n,
        alpha=alpha,
        anarchy=anarchy,
        monarchy=monarchy,
        star=star,
        additional_equilibrium=additional,
        additional_note=note,
        optimum_profile=optimum.profile,
        optimum_cost=optimum.cost,
        optimum_closed_form=optimum_form,
        optimum_matches=optimum.cost == Dual(optimum_form),
        winner=winner,
    )


def _additional_monarchy_equilibrium(config, game, crown, star_profile, star_claim, monarchy_cost):
    """The catalog promises a second cost-(alpha-2)(n-1) equilibrium for
    alpha <= 1 without naming it.  Try the monarch-paid star, then scan
    the equilibrium family; report honestly when nothing qualifies."""
    if config.alpha > 1:
        return None, "a second equilibrium is claimed only for alpha <= 1"
    target = Dual(star_claim)
    crowned = _monarch_pays_star(config)
    if bool(is_pne(game, crown, crowned)) and social_cost(game, crowned) == target:
        return crowned, "the monarch-paid star"
    decisions = _pair_decisions(config, crown)
    if all(
        set(d.allowed_states) <= {"i_pays", "j_pays"} for d in decisions
    ) and monarchy_cost != target:
        # every pair carries a single-paid link: one topology, one cost
        return None, "no equilibrium attains the claimed cost"
    family = 1
    for d in decisions:
        family *= len(d.allowed_states)
    if family > _FAMILY_GUARD:
        return None, "equilibrium family too large to scan"
    for profile in iter_edge_rule_pne(config, crown):
        if profile != star_profile and social_cost(game, profile) == target:
            return profile, "found by scanning the equilibrium family"
    return None, "no equilibrium attains the claimed cost"


# ---------------------------------------------------------------------------
# windfall of friendship / price of ill will


@dataclass(frozen=True)
class WindfallReport:
    direction: str
    config: NetGameConfig
    flips: tuple[tuple[int, int], ...]
    base_matrix: SocialRangeMatrix
    flipped_matrix: SocialRangeMatrix
    base: object  # EquilibriumReport
    flipped: object
    worst_delta: Dual
    best_delta: Dual
    worst_ok: bool
    best_ok: bool


def _check_flip_class(F: SocialRangeMatrix, direction: str):
    allowed = {ZERO, ONE} if direction == "friendship" else {ZERO, _MINUS_ONE}
    for i in range(F.n):
        if F[i, i] != ONE:
            raise ValueError(
                f"player {i}'s self-weight must be exactly 1 for the "
                f"{direction} comparison"
            )
        for j in range(F.n):
            if i != j and F[i, j] not in allowed:
                raise ValueError(
                    f"entry ({i}, {j}) falls outside the {direction} class"
                )


def windfall_experiment(config: NetGameConfig, F: SocialRangeMatrix, flips, direction: str) -> WindfallReport:
    """Flip indifference entries and compare the equilibrium cost range.

    friendship turns zeros into 1s and the worst and best equilibrium
    costs may only move down; ill_will turns zeros into -1s and they may
    only move up.  Both matrices must have all self-weights exactly 1
    and off-diagonal entries within the direction's class.
    """
    if direction not in ("friendship", "ill_will"):
        raise ValueError(f"unknown direction {direction!r}")
    if config.R != 1 or config.g.kind != "linear":
        raise ValueError("flip comparisons need radius 1 and linear utility")
    if F.n != config.n:
        raise ValueError(f"matrix is {F.n}x{F.n} but the game has {config.n} players")
    flips = tuple(sorted({(int(i), int(j)) for i, j in flips}))
    if not flips:
        raise ValueError("need a non-empty set of entries to flip")
    for i, j in flips:
        if i == j:
            raise ValueError("only off-diagonal entries can be flipped")
    _check_flip_class(F, direction)
    value = ONE if direction == "friendship" else _MINUS_ONE
    flipped_matrix = F.flip_entries([(i, j, value) for i, j in flips])

    base = enumerate_pne(config, F)
    flipped = enumerate_pne(config, flipped_matrix)
    if base.worst_pne_cost is None or flipped.worst_pne_cost is None:
        # with unit self-weights every pair keeps at least one arrangement
        raise RuntimeError("a flip comparison found a game with no equilibrium")

    worst_delta = flipped.worst_pne_cost - base.worst_pne_cost
    best_delta = flipped.best_pne_cost - base.best_pne_cost
    if direction == "friendship":
        worst_ok = worst_delta.sign() <= 0
        best_ok = best_delta.sign() <= 0
    else:
        worst_ok = worst_delta.sign() >= 0
        best_ok = best_delta.sign() >= 0
    return WindfallReport(
        direction=direction,
        config=config,
        flips=flips,
        base_matrix=F,
        flipped_matrix=flipped_matrix,
        base=base,
        flipped=flipped,
        worst_delta=worst_delta,
        best_delta=best_delta,
        worst_ok=worst_ok,
        best_ok=best_ok,
    )


# ---------------------------------------------------------------------------
# the claim catalog


@dataclass(frozen=True)
class LemmaVerdict:
    """One parameter point of one claim.

    conclusion is None when the precondition fails (nothing to check);
    a true precondition with a false conclusion always carries a
    counterexample profile.
    """

    claim: str
    point: str
    precondition: bool
    conclusion: bool | None
    counterexample: PurchaseProfile | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.precondition or bool(self.conclusion)


_DEFAULT_ALPHAS = (
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
)


def _fracs(values):
    return tuple(Fraction(v) for v in values)


def _all_binary_matrices(n: int, negative: bool):
    """Every matrix with unit diagonal and off-diagonal in {0, value}."""
    value = _MINUS_ONE if negative else ONE
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(positions)):
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        for bit, (i, j) in enumerate(positions):
            if mask >> bit & 1:
                rows[i][j] = value
        yield mask, SocialRangeMatrix.from_rows(rows)


def _eps_diag_binary_matrices(n: int):
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(positions)):
        rows = [[EPS if i == j else ZERO for j in range(n)] for i in range(n)]
        for bit, (i, j) in enumerate(positions):
            if mask >> bit & 1:
                rows[i][j] = ONE
        yield mask, SocialRangeMatrix.from_rows(rows)


def _first_difference(set_a, set_b):
    extra = sorted(set_a.symmetric_difference(set_b), key=profile_key)
    return extra[0] if extra else None


def _check_row_scaling(grid):
    ns = tuple(grid.get("ns", (3,)))
    alphas = _fracs(grid.get("alphas", (Fraction(1, 2), Fraction(3, 2))))
    radii = tuple(grid.get("radii", (1, 2)))
    factors = _fracs(grid.get("factors", (Fraction(7),)))
    verdicts = []
    index = 0
    for n in ns:
        matrices = [
            ("identity", build_archetype("identity", n)),
            ("altruistic", build_archetype("altruistic", n)),
            ("monarchy", build_archetype("monarchy", n, k=0, self_weight=EPS)),
        ]
        if n == 3:
            matrices.append(
                (
                    "mixed",
                    SocialRangeMatrix.from_rows(
                        [
                            ["1", "1/2", "0"],
                            ["-1", "eps", "1"],
                            ["0", "0", "1"],
                        ]
                    ),
                )
            )
        for alpha, R, (name, F), factor in product(alphas, radii, matrices, factors):
            row = index % n
            index += 1
            config = NetGameConfig(n, alpha, R, UtilitySpec.linear())
            before = enumerate_pne(config, F, method="full")
            after = enumerate_pne(config, F.scale_row(row, factor), method="full")
            set_before = {p for p, _ in before.pne}
            set_after = {p for p, _ in after.pne}
            conclusion = set_before == set_after
            verdicts.append(
                LemmaVerdict(
                    claim="row-scaling-invariance",
                    point=(
                        f"n={n} alpha={alpha} R={R} matrix={name} "
                        f"row={row} factor={factor}"
                    ),
                    precondition=True,
                    conclusion=conclusion,
                    counterexample=None
                    if conclusion
                    else _first_difference(set_before, set_after),
                )
            )
    return verdicts


def _all_profiles(game: NetworkCreationGame):
    return product(*(game.strategy_space(i) for i in range(game.n)))


def _check_uniform_society(grid):
    ns = tuple(grid.get("ns", (3,)))
    alphas = _fracs(grid.get("alphas", (Fraction(1, 2), Fraction(3, 2))))
    radii = tuple(grid.get("radii", (1, 2)))
    verdicts = []
    for n, alpha, R in product(ns, alphas, radii):
        config = NetGameConfig(n, alpha, R, UtilitySpec.linear())
        game = NetworkCreationGame(config)
        friendly = build_archetype("altruistic", n)
        hostile = SocialRangeMatrix.from_rows(
            [[_MINUS_ONE] * n for _ in range(n)]
        )
        costed = [
            (PurchaseProfile(combo), social_cost(game, combo))
            for combo in _all_profiles(game)
        ]
        low = min(c for _, c in costed)
        high = max(c for _, c in costed)
        for side, F, extreme in (
            ("benevolent/minima", friendly, low),
            ("hostile/maxima", hostile, high),
        ):
            counter = None
            for profile, cost in costed:
                if cost == extreme and not is_pne(game, F, profile):
                    counter = profile
                    break
            verdicts.append(
                LemmaVerdict(
                    claim="uniform-society-optima",
                    point=f"n={n} alpha={alpha} R={R} side={side}",
                    precondition=True,
                    conclusion=counter is None,
                    counterexample=counter,
                )
            )
    return verdicts


def _diameter_at_most(graph: InducedGraph, d: int) -> bool:
    return all(
        reach == graph.n - 1 for reach in _reach_totals(graph.n, d, graph.edges)
    )


def _check_optimum_topology(grid):
    verdicts = []
    ns = tuple(grid.get("ns", (3, 4, 5)))
    alphas = _fracs(grid.get("alphas", (Fraction(1, 2), Fraction(3, 2), Fraction(3))))
    for n, alpha in product(ns, alphas):
        config = NetGameConfig(n, alpha, 1, UtilitySpec.linear())
        graphs = social_optimum_graphs(config)
        full = frozenset(combinations(range(n), 2))
        if alpha < 2:
            conclusion = len(graphs) == 1 and graphs[0].edges == full
            note = "every unit of distance is worth more than a half-link"
        elif alpha > 2:
            conclusion = len(graphs) == 1 and not graphs[0].edges
            note = "links cost more than the distance they save"
        else:
            verdicts.append(
                LemmaVerdict(
                    claim="optimum-topology",
                    point=f"n={n} alpha={alpha} R=1",
                    precondition=False,
                    conclusion=None,
                    note="marginal price: every topology ties",
                )
            )
            continue
        verdicts.append(
            LemmaVerdict(
                claim="optimum-topology",
                point=f"n={n} alpha={alpha} R=1",
                precondition=True,
                conclusion=conclusion,
                counterexample=None if conclusion else graph_to_profile(graphs[0]),
                note=note,
            )
        )
    radii = tuple(grid.get("radii", (2, 3)))
    tree_ns = tuple(grid.get("tree_ns", (4, 5)))
    tree_alphas = _fracs(grid.get("tree_alphas", (Fraction(1, 2), Fraction(3, 2))))
    for n, alpha, R in product(tree_ns, tree_alphas, radii):
        config = NetGameConfig(n, alpha, R, UtilitySpec.linear())
        graphs = social_optimum_graphs(config)
        bad = None
        for graph in graphs:
            # n-1 edges and every pair within min(R, n-1) hops: a short tree
            if not (
                len(graph.edges) == n - 1
                and _diameter_at_most(graph, min(R, n - 1))
                and not redundant_edges(config, graph_to_profile(graph)).redundant
            ):
                bad = graph
                break
        verdicts.append(
            LemmaVerdict(
                claim="optimum-topology",
                point=f"n={n} alpha={alpha} R={R}",
                precondition=True,
                conclusion=bool(graphs) and bad is None,
                counterexample=None if bad is None else graph_to_profile(bad),
                note="every minimizer must be a short tree",
            )
        )
    return verdicts


def _utility_for(key: str, n: int) -> UtilitySpec:
    if key == "linear":
        return UtilitySpec.linear()
    if key == "power2":
        return UtilitySpec.power(2)
    if key == "sqrt":
        return UtilitySpec.sqrt()
    if key == "table":
        # concave staircase, strictly below the identity past x=1
        values = [Fraction(0)] + [Fraction(2) - Fraction(1, 2) ** (x - 1) for x in range(1, n)]
        return UtilitySpec.table(values)
    if key == "plateau":
        return UtilitySpec.table([0] + [1] * (n - 1))
    raise ValueError(f"unknown utility key {key!r}")


def _check_isolated(grid):
    ns = tuple(grid.get("ns", (3, 4)))
    alphas = _fracs(grid.get("alphas", _DEFAULT_ALPHAS))
    gs = tuple(grid.get("gs", ("linear", "power2", "sqrt", "table")))
    radii = tuple(grid.get("radii", (1, 2)))
    verdicts = []
    for n, alpha, key, R in product(ns, alphas, gs, radii):
        config = NetGameConfig(n, alpha, R, _utility_for(key, n))
        game = NetworkCreationGame(config)
        identity = build_archetype("identity", n)
        empty = make_profile("isolated", config)
        predicted = isolated_is_ne(config)
        observed = bool(is_pne(game, identity, empty))
        conclusion = predicted == observed
        verdicts.append(
            LemmaVerdict(
                claim="isolated-equilibrium",
                point=f"n={n} alpha={alpha} R={R} g={key}",
                precondition=True,
                conclusion=conclusion,
                counterexample=None if conclusion else empty,
                note=f"condition={predicted} brute_force={observed}",
            )
        )
    return verdicts


def _check_regular(grid):
    ns = tuple(grid.get("ns", (4, 5, 6)))
    alphas = _fracs(grid.get("alphas", (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2))))
    gs = tuple(grid.get("gs", ("linear", "power2", "table")))
    verdicts = []
    for n, alpha, key in product(ns, alphas, gs):
        config = NetGameConfig(n, alpha, 1, _utility_for(key, n))
        game = NetworkCreationGame(config)
        identity = build_archetype("identity", n)
        for x in range(n // 2 + 1):
            point = f"n={n} alpha={alpha} g={key} x={x}"
            try:
                holds = regular_ne_condition(config, x)
            except ValueError:
                verdicts.append(
                    LemmaVerdict(
                        claim="regular-graph-equilibrium",
                        point=point,
                        precondition=False,
                        conclusion=None,
                        note="utility undefined at group size 2x",
                    )
                )
                continue
            if not holds:
                verdicts.append(
                    LemmaVerdict(
                        claim="regular-graph-equilibrium",
                        point=point,
                        precondition=False,
                        conclusion=None,
                        note="stability condition fails",
                    )
                )
                continue
            if 2 * x > n - 1:
                verdicts.append(
                    LemmaVerdict(
                        claim="regular-graph-equilibrium",
                        point=point,
                        precondition=True,
                        conclusion=True,
                        note="no 2x-regular graph on n nodes; claim is vacuous",
                    )
                )
                continue
            if x == 0:
                profile = make_profile("isolated", config)
            else:
                profile = make_profile("circulant", config, x=x)
            stable = bool(is_pne(game, identity, profile))
            verdicts.append(
                LemmaVerdict(
                    claim="regular-graph-equilibrium",
                    point=point,
                    precondition=True,
                    conclusion=stable,
                    counterexample=None if stable else profile,
                )
            )
    return verdicts


def _check_tree(grid):
    ns = tuple(grid.get("ns", (3, 4, 5, 6)))
    alphas = _fracs(grid.get("alphas", (Fraction(1, 2), Fraction(3, 2), Fraction(3), Fraction(4))))
    radii = tuple(grid.get("radii", (2, 3)))
    gs = tuple(grid.get("gs", ("linear", "power2", "plateau")))
    verdicts = []
    for n, alpha, R, key in product(ns, alphas, radii, gs):
        config = NetGameConfig(n, alpha, R, _utility_for(key, n))
        game = NetworkCreationGame(config)
        identity = build_archetype("identity", n)
        holds = tree_ne_condition(config)
        point = f"n={n} alpha={alpha} R={R} g={key}"
        if not holds:
            verdicts.append(
                LemmaVerdict(
                    claim="bounded-tree-equilibrium",
                    point=point,
                    precondition=False,
                    conclusion=None,
                    note="growth/price condition fails (boundary-adjusted)",
                )
            )
            continue
        star = make_profile("star", config)
        stable = bool(is_pne(game, identity, star))
        verdicts.append(
            LemmaVerdict(
                claim="bounded-tree-equilibrium",
                point=point,
                precondition=True,
                conclusion=stable,
                counterexample=None if stable else star,
                note="boundary-adjusted: utility indexed within 0..n-1",
            )
        )
    return verdicts


def _check_edge_rule_existence(grid):
    n = int(grid.get("n", 3))
    alphas = _fracs(grid.get("alphas", (Fraction(1, 2), Fraction(3, 2))))
    verdicts = []
    for alpha in alphas:
        config = _linear_r1(n, alpha)
        game = NetworkCreationGame(config)
        for mask, F in _eps_diag_binary_matrices(n):
            profile = edge_rule_profile(config, F)
            stable = bool(is_pne(game, F, profile))
            verdicts.append(
                LemmaVerdict(
                    claim="edge-rule-equilibrium-existence",
                    point=f"n={n} alpha={alpha} pattern={mask:0{n * n - n}b}",
                    precondition=True,
                    conclusion=stable,
                    counterexample=None if stable else profile,
                )
            )
    return verdicts


# off-diagonal 1-patterns for the adjacency reading: first twelve on three
# players, eight more on four; diagonals rotate through (0,1] weights
_ADJACENCY_PATTERNS = (
    (3, 0b000000),
    (3, 0b000001),
    (3, 0b000110),
    (3, 0b001001),
    (3, 0b010101),
    (3, 0b011011),
    (3, 0b100100),
    (3, 0b101101),
    (3, 0b110110),
    (3, 0b111000),
    (3, 0b111101),
    (3, 0b111111),
    (4, 0b000000000001),
    (4, 0b000000111000),
    (4, 0b000111000111),
    (4, 0b010101010101),
    (4, 0b011011011011),
    (4, 0b100100100100),
    (4, 0b110000001101),
    (4, 0b111111111111),
)

_ADJACENCY_DIAGONALS = (EPS, ONE, Dual(Fraction(1, 2)))


def _adjacency_matrix(n: int, mask: int) -> SocialRangeMatrix:
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    rows = [
        [_ADJACENCY_DIAGONALS[i % 3] if i == j else ZERO for j in range(n)]
        for i in range(n)
    ]
    for bit, (i, j) in enumerate(positions):
        if mask >> bit & 1:
            rows[i][j] = ONE
    return SocialRangeMatrix.from_rows(rows)


def _check_adjacency(grid):
    alphas = _fracs(grid.get("alphas", (Fraction(5, 4), Fraction(3, 2), Fraction(7, 4))))
    patterns = tuple(grid.get("patterns", _ADJACENCY_PATTERNS))
    verdicts = []
    for alpha in alphas:
        for n, mask in patterns:
            F = _adjacency_matrix(n, mask)
            config = _linear_r1(n, alpha)
            game = NetworkCreationGame(config)
            result = adjacency_equilibrium(F, alpha)
            stable = bool(is_pne(game, F, result.profile))
            symmetric = all(
                result.adjacency[i][j] == result.adjacency[j][i]
                for i in range(n)
                for j in range(n)
            )
            conclusion = stable and symmetric
            verdicts.append(
                LemmaVerdict(
                    claim="adjacency-correspondence",
                    point=f"n={n} alpha={alpha} pattern={mask:0{n * n - n}b}",
                    precondition=True,
                    conclusion=conclusion,
                    counterexample=None if conclusion else result.profile,
                )
            )
    return verdicts


def _check_anarchy_monarchy(grid):
    ns = tuple(grid.get("ns", (2, 3, 4, 5, 6)))
    alphas = _fracs(grid.get("alphas", _DEFAULT_ALPHAS))
    verdicts = []
    for n, alpha in product(ns, alphas):
        result = anarchy_vs_monarchy(n, alpha)
        conclusion = (
            result.anarchy.matches_closed_form
            and result.star.claim_holds
            and result.optimum_matches
        )
        note = ""
        if not result.star.claim_holds:
            note = "the star is unstable: periphery players profit from a direct link"
        verdicts.append(
            LemmaVerdict(
                claim="anarchy-monarchy-closed-forms",
                point=f"n={n} alpha={alpha}",
                precondition=True,
                conclusion=conclusion,
                counterexample=None if conclusion else result.star.profile,
                note=note,
            )
        )
    return verdicts


def _flip_sweep(direction: str, grid, *, worst_only: bool, claim: str):
    n = int(grid.get("n", 3))
    alphas = _fracs(grid.get("alphas", (Fraction(1, 2), Fraction(3, 2))))
    negative = direction == "ill_will"
    verdicts = []
    for alpha in alphas:
        config = _linear_r1(n, alpha)
        for mask, F in _all_binary_matrices(n, negative):
            zeros = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and F[i, j] == ZERO
            ]
            for flip in zeros:
                report = windfall_experiment(config, F, {flip}, direction)
                conclusion = (
                    report.worst_ok
                    if worst_only
                    else report.worst_ok and report.best_ok
                )
                counter = None
                if not conclusion:
                    worst = report.flipped.worst_pne_cost
                    counter = next(
                        p for p, c in report.flipped.pne if c == worst
                    )
                verdicts.append(
                    LemmaVerdict(
                        claim=claim,
                        point=(
                            f"n={n} alpha={alpha} "
                            f"pattern={mask:0{n * n - n}b} "
                            f"flip={flip[0]}:{flip[1]}"
                        ),
                        precondition=True,
                        conclusion=conclusion,
                        counterexample=counter,
                    )
                )
    return verdicts


def _check_windfall(grid):
    return _flip_sweep("friendship", grid, worst_only=False, claim="windfall-of-friendship")


def _check_ill_will(grid):
    return _flip_sweep("ill_will", grid, worst_only=False, claim="price-of-ill-will")


def _check_worst_monotonicity(grid):
    return _flip_sweep(
        "friendship",
        grid,
        worst_only=True,
        claim="worst-equilibrium-friendship-monotonicity",
    )


_REGISTRY = {
    "row-scaling-invariance": _check_row_scaling,
    "uniform-society-optima": _check_uniform_society,
    "optimum-topology": _check_optimum_topology,
    "isolated-equilibrium": _check_isolated,
    "regular-graph-equilibrium": _check_regular,
    "bounded-tree-equilibrium": _check_tree,
    "edge-rule-equilibrium-existence": _check_edge_rule_existence,
    "adjacency-correspondence": _check_adjacency,
    "anarchy-monarchy-closed-forms": _check_anarchy_monarchy,
    "windfall-of-friendship": _check_windfall,
    "price-of-ill-will": _check_ill_will,
    "worst-equilibrium-friendship-monotonicity": _check_worst_monotonicity,
}

LEMMA_CLAIMS = tuple(_REGISTRY)

_ALIASES = {
    "1": "row-scaling-invariance",
    "2": "uniform-society-optima",
    "3": "optimum-topology",
    "4": "isolated-equilibrium",
    "5": "regular-graph-equilibrium",
    "6": "bounded-tree-equilibrium",
    "7": "edge-rule-equilibrium-existence",
    "8": "adjacency-correspondence",
    "9": "anarchy-monarchy-closed-forms",
    "10": "windfall-of-friendship",
    "11": "price-of-ill-will",
    "c1": "worst-equilibrium-friendship-monotonicity",
}


def verify_lemma(claim, grid=None) -> tuple[LemmaVerdict, ...]:
    """Run one catalog claim over its parameter grid.

    claim accepts the registry name or its catalog number ("1".."11",
    "c1").  grid overrides the default parameter ranges per key; unknown
    keys are ignored by checkers that do not use them.
    """
    key = str(claim).lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise ValueError(f"unknown lemma id {claim!r}")
    return tuple(_REGISTRY[key](dict(grid or {})))


def verify_all(grid=None):
    """Every claim over its default grid, in registry order."""
    return {name: verify_lemma(name, grid) for name in LEMMA_CLAIMS}


# ---------------------------------------------------------------------------
# tabular output


def decimal_text(value: Dual) -> str:
    """Standard part as a decimal, for plotting; the exact string is the
    authoritative representation."""
    return format(float(value.std), ".10g")


def profile_text(profile: PurchaseProfile | None) -> str:
    if profile is None:
        return ""
    return "|".join(
        f"{i}:{','.join(str(t) for t in sorted(targets))}"
        for i, targets in enumerate(profile)
    )


def _flag(value: bool | None) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def comparison_csv_rows(results) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    header = (
        "n",
        "alpha",
        "anarchy_cost",
        "anarchy_cost_decimal",
        "anarchy_matches",
        "monarchy_cost",
        "monarchy_cost_decimal",
        "monarchy_matches",
        "star_cost",
        "star_cost_decimal",
        "star_is_equilibrium",
        "star_claim_holds",
        "optimum_cost",
        "optimum_cost_decimal",
        "optimum_matches",
        "winner",
    )
    rows = [
        (
            str(r.n),
            str(r.alpha),
            format_weight(r.anarchy.cost),
            decimal_text(r.anarchy.cost),
            _flag(r.anarchy.matches_closed_form),
            format_weight(r.monarchy.cost),
            decimal_text(r.monarchy.cost),
            _flag(r.monarchy.matches_closed_form),
            format_weight(r.star.cost),
            decimal_text(r.star.cost),
            _flag(r.star.is_equilibrium),
            _flag(r.star.claim_holds),
            format_weight(r.optimum_cost),
            decimal_text(r.optimum_cost),
            _flag(r.optimum_matches),
            r.winner,
        )
        for r in results
    ]
    return header, rows


def windfall_csv_rows(reports) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    header = (
        "direction",
        "n",
        "alpha",
        "flips",
        "base_worst",
        "flipped_worst",
        "worst_delta",
        "worst_delta_decimal",
        "worst_ok",
        "base_best",
        "flipped_best",
        "best_delta",
        "best_delta_decimal",
        "best_ok",
    )
    rows = [
        (
            r.direction,
            str(r.config.n),
            str(r.config.alpha),
            ";".join(f"{i}:{j}" for i, j in r.flips),
            format_weight(r.base.worst_pne_cost),
            format_weight(r.flipped.worst_pne_cost),
            format_weight(r.worst_delta),
            decimal_text(r.worst_delta),
            _flag(r.worst_ok),
            format_weight(r.base.best_pne_cost),
            format_weight(r.flipped.best_pne_cost),
            format_weight(r.best_delta),
            decimal_text(r.best_delta),
            _flag(r.best_ok),
        )
        for r in reports
    ]
    return header, rows


def verdict_csv_rows(verdicts) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    header = ("claim", "point", "precondition", "conclusion", "ok", "note", "counterexample")
    rows = [
        (
            v.claim,
            v.point,
            _flag(v.precondition),
            _flag(v.conclusion),
            _flag(v.ok),
            v.note,
            profile_text(v.counterexample),
        )
        for v in verdicts
    ]
    return header, rows

"""Equilibrium enumeration, the pairwise link rule, optima, and dynamics."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from socialnash.dual import EPS, Dual, ZERO
from socialnash.equilibrium import (
    NoEquilibriumError,
    SizeCapError,
    adjacency_equilibrium,
    best_response_dynamics,
    brute_force_social_optimum,
    edge_rule_profile,
    enumerate_pne,
    graph_to_profile,
    isolated_is_ne,
    iter_edge_rule_pne,
    profile_key,
    r1_linear_edge_rule,
    regular_ne_condition,
    social_optimum_graphs,
    tree_ne_condition,
)
from socialnash.game_core import is_pne
from socialnash.netgame import (
    NetGameConfig,
    NetworkCreationGame,
    PurchaseProfile,
    UtilitySpec,
    induce_graph,
    make_profile,
)
from socialnash.social_matrix import SocialRangeMatrix, build_archetype

from helpers import all_pairs_distances


def linear_config(n, alpha, R=1):
    return NetGameConfig(n=n, alpha=Fraction(alpha), R=R, g=UtilitySpec.linear())


def profile(*buys):
    return PurchaseProfile(tuple(frozenset(b) for b in buys))


def rows(matrix_rows):
    return SocialRangeMatrix.from_rows(matrix_rows)


HALF = Fraction(1, 2)


# -- pairwise link rule -------------------------------------------------------


def test_cheap_links_both_willing():
    F = build_archetype("identity", 2)
    decision = r1_linear_edge_rule(F, HALF, 0, 1)
    assert decision.delta_i == Dual(Fraction(-1, 2))
    assert decision.delta_j == Dual(Fraction(-1, 2))
    assert decision.willingness == "both_willing"
    assert decision.allowed_states == ("i_pays", "j_pays")


def test_expensive_links_nobody_willing():
    F = build_archetype("identity", 2)
    decision = r1_linear_edge_rule(F, Fraction(3, 2), 0, 1)
    assert decision.willingness == "neither"
    assert decision.allowed_states == ("none",)


def test_break_even_price_allows_three_states():
    F = build_archetype("identity", 2)
    decision = r1_linear_edge_rule(F, 1, 0, 1)
    assert decision.allowed_states == ("i_pays", "j_pays", "none")


def test_monarchy_pairs_at_high_price():
    crown = build_archetype("monarchy", 3, self_weight=EPS)
    to_center = r1_linear_edge_rule(crown, 3, 0, 1)
    assert to_center.willingness == "j_pays"
    assert to_center.delta_j == Dual(-1, 2)
    assert to_center.allowed_states == ("j_pays",)
    between_leaves = r1_linear_edge_rule(crown, 3, 1, 2)
    assert between_leaves.willingness == "neither"
    assert between_leaves.allowed_states == ("none",)


def test_indifferent_pair_allows_everything():
    F = rows([[0, 0], [0, 0]])
    decision = r1_linear_edge_rule(F, HALF, 0, 1)
    assert decision.allowed_states == ("i_pays", "j_pays", "none", "both")


def test_self_loathing_pair_has_no_arrangement():
    F = rows([[1, 0], [0, -1]])
    decision = r1_linear_edge_rule(F, HALF, 0, 1)
    # player 0 wants the link, player 1 would tear down any side of it
    assert decision.willingness == "i_pays"
    assert decision.allowed_states == ()


def test_negative_self_weights_stabilize_double_payment():
    F = rows([[-1, 0], [0, -1]])
    decision = r1_linear_edge_rule(F, HALF, 0, 1)
    assert decision.allowed_states == ("none", "both")


def test_pair_validation():
    F = build_archetype("identity", 2)
    with pytest.raises(ValueError, match="two distinct players"):
        r1_linear_edge_rule(F, 1, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        r1_linear_edge_rule(F, 1, 0, 5)


# -- canonical profile and family iteration ------------------------------------


def test_canonical_profile_is_lower_payer_clique():
    config = linear_config(3, HALF)
    F = build_archetype("identity", 3)
    assert edge_rule_profile(config, F) == profile({1, 2}, {2}, set())


def test_canonical_profile_star_under_monarchy():
    config = linear_config(4, 3)
    crown = build_archetype("monarchy", 4, self_weight=EPS)
    star = edge_rule_profile(config, crown)
    assert star == make_profile("star", config)
    assert is_pne(NetworkCreationGame(config), crown, tuple(star))


def test_canonical_profile_raises_without_equilibrium():
    config = linear_config(2, HALF)
    F = rows([[1, 0], [0, -1]])
    with pytest.raises(NoEquilibriumError, match="players 0 and 1") as info:
        edge_rule_profile(config, F)
    assert info.value.pair == (0, 1)
    assert list(iter_edge_rule_pne(config, F)) == []


def test_family_iteration_is_a_cartesian_product():
    config = linear_config(3, HALF)
    F = build_archetype("identity", 3)
    family = list(iter_edge_rule_pne(config, F))
    # two payer choices per pair, three pairs
    assert len(family) == 8
    assert len(set(family)) == 8
    for member in family:
        assert induce_graph(member).edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_edge_rule_needs_radius_one_linear():
    F = build_archetype("identity", 3)
    with pytest.raises(ValueError, match="radius 1 and linear"):
        edge_rule_profile(linear_config(3, 1, R=2), F)
    sqrt_config = NetGameConfig(n=3, alpha=Fraction(1), R=1, g=UtilitySpec.sqrt())
    with pytest.raises(ValueError, match="radius 1 and linear"):
        edge_rule_profile(sqrt_config, F)


# -- full enumeration ------------------------------------------------------------


def test_enumerate_cheap_identity_triangle():
    config = linear_config(3, HALF)
    F = build_archetype("identity", 3)
    report = enumerate_pne(config, F)
    assert report.method == "edge-rule"
    assert len(report.pne) == 8
    for found, cost in report.pne:
        assert cost == Dual(Fraction(-9, 2))
    assert report.worst_pne_cost == Dual(Fraction(-9, 2))
    assert report.best_pne_cost == Dual(Fraction(-9, 2))
    assert report.optimum_cost == Dual(Fraction(-9, 2))
    assert len(report.topologies) == 1
    topology = report.topologies[0]
    assert topology.edges == ((0, 1), (0, 2), (1, 2))
    assert topology.multiplicity == 8


def test_enumerate_expensive_identity_is_empty_network():
    config = linear_config(3, Fraction(3, 2))
    F = build_archetype("identity", 3)
    report = enumerate_pne(config, F)
    assert len(report.pne) == 1
    found, cost = report.pne[0]
    assert found == profile(set(), set(), set())
    assert cost == ZERO
    # equilibrium exists but wastes the whole clique surplus
    assert report.optimum_cost == Dual(Fraction(-3, 2))
    assert report.best_pne_cost > report.optimum_cost


def test_full_and_edge_rule_agree():
    config = linear_config(3, HALF)
    F = build_archetype("identity", 3)
    fast = enumerate_pne(config, F, method="edge-rule")
    slow = enumerate_pne(config, F, method="full")
    assert slow.method == "full"
    assert [p for p, _ in fast.pne] == [p for p, _ in slow.pne]
    assert fast.topologies == slow.topologies


def test_enumerate_indifferent_society_lists_all_profiles():
    config = linear_config(2, HALF)
    F = rows([[0, 0], [0, 0]])
    report = enumerate_pne(config, F)
    assert [p for p, _ in report.pne] == [
        profile(set(), set()),
        profile(set(), {0}),
        profile({1}, set()),
        profile({1}, {0}),
    ]
    empty, linked = report.topologies
    assert empty.edges == ()
    assert empty.multiplicity == 1
    assert linked.edges == ((0, 1),)
    assert linked.multiplicity == 3
    # cost of the first representative in canonical order: single payment
    assert linked.social_cost == Dual(Fraction(-3, 2))


def test_enumerate_results_are_sorted_by_profile_key():
    config = linear_config(2, HALF)
    F = rows([[0, 0], [0, 0]])
    report = enumerate_pne(config, F)
    keys = [profile_key(p) for p, _ in report.pne]
    assert keys == sorted(keys)


def test_enumerate_caps():
    identity6 = build_archetype("identity", 6)
    with pytest.raises(SizeCapError, match="cap of 5"):
        enumerate_pne(linear_config(6, HALF), identity6)
    identity5 = build_archetype("identity", 5)
    with pytest.raises(SizeCapError, match="cap of 4"):
        enumerate_pne(linear_config(5, HALF), identity5, method="full")
    # the shortcut handles five players at the default cap
    report = enumerate_pne(linear_config(5, HALF), identity5)
    assert len(report.pne) == 2**10


def test_enumerate_family_guard():
    config = linear_config(5, HALF)
    F = rows([[0] * 5 for _ in range(5)])
    with pytest.raises(SizeCapError, match="materialization guard"):
        enumerate_pne(config, F)


def test_enumerate_validation():
    config = linear_config(3, HALF)
    F = build_archetype("identity", 2)
    with pytest.raises(ValueError, match="matrix is 2x2"):
        enumerate_pne(config, F)
    with pytest.raises(ValueError, match="unknown enumeration method"):
        enumerate_pne(config, build_archetype("identity", 3), method="fast")
    with pytest.raises(ValueError, match="radius 1 and linear"):
        enumerate_pne(linear_config(3, 1, R=2), build_archetype("identity", 3), method="edge-rule")


def test_enumerate_falls_back_to_full_search_for_radius_two():
    config = linear_config(3, Fraction(3, 2), R=2)
    F = build_archetype("identity", 3)
    report = enumerate_pne(config, F)
    assert report.method == "full"
    # a path connects everyone within two hops; it is stable when the
    # two endpoints pay, since each would lose reach 2 by dropping
    path = profile({1}, set(), {1})
    assert path in [p for p, _ in report.pne]
    # the middle player paying is not stable: dropping saves more
    middle_pays = profile({1}, {2}, set())
    assert middle_pays not in [p for p, _ in report.pne]


# -- social optimum ---------------------------------------------------------------


def test_optimum_is_clique_for_cheap_links():
    result = brute_force_social_optimum(linear_config(4, Fraction(3, 2)))
    assert len(result.graph.edges) == 6
    assert result.cost == Dual(-3)
    assert result.profile == profile({1, 2, 3}, {2, 3}, {3}, set())


def test_optimum_is_empty_for_expensive_links():
    result = brute_force_social_optimum(linear_config(4, 3))
    assert result.graph.edges == frozenset()
    assert result.cost == ZERO
    assert result.profile == profile(set(), set(), set(), set())


def test_optimum_tie_at_marginal_price_prefers_first_mask():
    result = brute_force_social_optimum(linear_config(2, 2))
    assert result.graph.edges == frozenset()
    assert result.cost == ZERO
    assert len(social_optimum_graphs(linear_config(2, 2))) == 2


def test_optimum_with_two_hop_reach_is_a_star():
    result = brute_force_social_optimum(linear_config(4, Fraction(3, 2), R=2))
    assert result.cost == Dual(Fraction(-15, 2))
    assert result.graph.edges == frozenset({(0, 1), (0, 2), (0, 3)})
    minimizers = social_optimum_graphs(linear_config(4, Fraction(3, 2), R=2))
    assert len(minimizers) == 4
    for graph in minimizers:
        degrees = [len(graph.adjacency[i]) for i in range(4)]
        assert sorted(degrees) == [1, 1, 1, 3]


def test_optimum_uniqueness_of_the_clique():
    for alpha in (HALF, 1, Fraction(3, 2)):
        graphs = social_optimum_graphs(linear_config(4, alpha))
        assert len(graphs) == 1
        assert len(graphs[0].edges) == 6


def test_optimum_size_cap():
    with pytest.raises(SizeCapError, match="7-player"):
        brute_force_social_optimum(linear_config(8, 1))
    with pytest.raises(SizeCapError, match="7-player"):
        social_optimum_graphs(linear_config(8, 1))


def test_graph_to_profile_lower_endpoint_pays():
    graph = brute_force_social_optimum(linear_config(3, 1)).graph
    assert graph_to_profile(graph) == profile({1, 2}, {2}, set())


def test_optimum_scan_matches_distance_oracle():
    # independent scan: every edge mask in order, reach from Floyd-Warshall
    utilities = {
        "linear": lambda n: UtilitySpec.linear(),
        "power2": lambda n: UtilitySpec.power(2),
        "table": lambda n: UtilitySpec.table([0, 3, 1, 5, 2][:n]),
    }
    alphas = (0, HALF, Fraction(3, 2), 2, 3)
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        graphs = []
        for mask in range(1 << len(pairs)):
            edges = frozenset(e for b, e in enumerate(pairs) if mask >> b & 1)
            dist = all_pairs_distances(n, edges)
            reach = {
                R: [sum(1 for d in row if 0 < d <= R) for row in dist]
                for R in (0, 1, 2, 3)
            }
            graphs.append((edges, reach))
        for R, key, alpha in product((0, 1, 2, 3), utilities, alphas):
            config = NetGameConfig(n=n, alpha=alpha, R=R, g=utilities[key](n))
            g = [config.g(x) for x in range(n)]
            costs = [
                alpha * len(edges) - sum(g[r] for r in reach[R])
                for edges, reach in graphs
            ]
            low = min(costs)
            minimizers = [edges for (edges, _), c in zip(graphs, costs) if c == low]
            point = (n, R, key, alpha)
            result = brute_force_social_optimum(config)
            assert result.cost == Dual(low), point
            assert result.graph.edges == minimizers[0], point
            found = social_optimum_graphs(config)
            assert [graph.edges for graph in found] == minimizers, point
    # at the marginal price every graph ties and the empty one wins
    for n in range(1, 6):
        config = linear_config(n, 2)
        assert len(social_optimum_graphs(config)) == 1 << (n * (n - 1) // 2)
        assert brute_force_social_optimum(config).graph.edges == frozenset()


def test_optimum_with_sqrt_utility():
    config = NetGameConfig(n=3, alpha=Fraction(1, 4), R=1, g=UtilitySpec.sqrt())
    result = brute_force_social_optimum(config)
    # every edge is worth more than its price: sqrt gains beat 1/4 per link
    assert len(result.graph.edges) == 3
    assert not result.cost.is_exact


# -- best response dynamics ----------------------------------------------------------


def test_dynamics_converges_to_the_triangle():
    config = linear_config(3, HALF)
    F = build_archetype("identity", 3)
    trace = best_response_dynamics(config, F)
    assert trace.outcome == "converged"
    assert trace.final == profile({1, 2}, {2}, set())
    assert [(s.player, sorted(s.new)) for s in trace.steps] == [
        (0, [1, 2]),
        (1, [2]),
    ]
    assert trace.steps[0].delta == Dual(-1)
    assert trace.steps[0].old == frozenset()
    assert trace.cycle_index is None


def test_dynamics_converges_immediately_when_stable():
    config = linear_config(3, Fraction(3, 2))
    trace = best_response_dynamics(config, build_archetype("identity", 3))
    assert trace.outcome == "converged"
    assert trace.steps == ()
    assert trace.final == profile(set(), set(), set())


def test_dynamics_monarchy_star_formation():
    config = linear_config(4, 3)
    crown = build_archetype("monarchy", 4, self_weight=EPS)
    trace = best_response_dynamics(config, crown)
    assert trace.outcome == "converged"
    assert [s.player for s in trace.steps] == [1, 2, 3]
    assert trace.final == make_profile("star", config)
    assert trace.steps[0].delta == Dual(-1, 2)


def test_dynamics_detects_a_cycle():
    config = linear_config(2, HALF)
    F = rows([[1, 0], [0, -1]])
    trace = best_response_dynamics(config, F)
    assert trace.outcome == "cycle"
    assert trace.cycle_index == 0
    assert trace.final == profile(set(), set())
    assert [s.player for s in trace.steps] == [0, 1, 0, 1]


def test_dynamics_cutoff():
    config = linear_config(2, HALF)
    F = rows([[1, 0], [0, -1]])
    trace = best_response_dynamics(config, F, max_steps=3)
    assert trace.outcome == "cutoff"
    assert len(trace.steps) == 3
    assert trace.final == profile(set(), {0})


def test_dynamics_custom_schedule():
    config = linear_config(2, HALF)
    F = build_archetype("identity", 2)
    trace = best_response_dynamics(config, F, schedule=(1, 0))
    assert trace.outcome == "converged"
    assert [s.player for s in trace.steps] == [1]
    assert trace.final == profile(set(), {0})


def test_dynamics_accepts_initial_profile():
    config = linear_config(3, HALF)
    F = build_archetype("identity", 3)
    start = make_profile("clique", config)
    trace = best_response_dynamics(config, F, initial=start)
    assert trace.outcome == "converged"
    assert trace.steps == ()
    assert trace.final == start


def test_dynamics_validation():
    config = linear_config(2, 1)
    F = build_archetype("identity", 2)
    with pytest.raises(ValueError, match="at least one step"):
        best_response_dynamics(config, F, max_steps=0)
    with pytest.raises(ValueError, match="visit every player"):
        best_response_dynamics(config, F, schedule=(0,))
    with pytest.raises(ValueError, match="initial profile is for 3"):
        best_response_dynamics(config, F, initial=profile(set(), set(), set()))


# -- stability conditions ---------------------------------------------------------


def test_isolation_condition_linear():
    assert isolated_is_ne(linear_config(4, Fraction(3, 2)))
    assert isolated_is_ne(linear_config(4, 1))
    assert not isolated_is_ne(linear_config(4, HALF))


def test_isolation_condition_convex_and_table():
    quadratic = NetGameConfig(n=4, alpha=Fraction(2), R=1, g=UtilitySpec.power(2))
    assert not isolated_is_ne(quadratic)
    saturating = NetGameConfig(
        n=4, alpha=Fraction(2), R=1, g=UtilitySpec.table([0, 2, 2, 2])
    )
    assert isolated_is_ne(saturating)
    assert not isolated_is_ne(
        NetGameConfig(n=4, alpha=Fraction(1), R=1, g=UtilitySpec.table([0, 2, 2, 2]))
    )


def test_isolation_condition_sqrt():
    assert isolated_is_ne(NetGameConfig(n=5, alpha=Fraction(1), R=1, g=UtilitySpec.sqrt()))
    assert not isolated_is_ne(
        NetGameConfig(n=5, alpha=Fraction(1, 4), R=1, g=UtilitySpec.sqrt())
    )


def test_regular_condition_matches_known_cases():
    assert regular_ne_condition(linear_config(5, HALF), 2)
    assert regular_ne_condition(linear_config(6, 1), 1)
    assert not regular_ne_condition(linear_config(6, HALF), 1)


def test_regular_condition_certifies_actual_equilibria():
    # the condition holding means the ring profile is stable
    config = linear_config(5, HALF)
    game = NetworkCreationGame(config)
    F = build_archetype("identity", 5)
    ring = make_profile("circulant", config, x=2)
    assert is_pne(game, F, tuple(ring))

    cycle_config = linear_config(6, 1)
    # six players is over the exhaustive cap, so check the cycle directly
    cycle = make_profile("circulant", cycle_config, x=1)
    assert is_pne(NetworkCreationGame(cycle_config), build_archetype("identity", 6), tuple(cycle))


def test_regular_condition_at_zero_matches_isolation():
    for alpha in (HALF, 1, Fraction(3, 2)):
        config = linear_config(5, alpha)
        assert regular_ne_condition(config, 0) == isolated_is_ne(config)


def test_regular_condition_extends_past_group_bound():
    # 2x = n: no such graph exists, but the formula still evaluates
    assert regular_ne_condition(linear_config(6, 1), 3)


def test_regular_condition_validation():
    config = linear_config(6, 1)
    with pytest.raises(ValueError, match="outside 0..3"):
        regular_ne_condition(config, 4)
    table = NetGameConfig(
        n=6, alpha=Fraction(1), R=1, g=UtilitySpec.table([0, 1, 2, 3, 4, 5])
    )
    with pytest.raises(ValueError, match="outside the table domain"):
        regular_ne_condition(table, 3)


def test_tree_condition():
    assert tree_ne_condition(linear_config(4, Fraction(3, 2), R=2))
    assert not tree_ne_condition(linear_config(4, 4, R=2))
    plateau = NetGameConfig(
        n=4, alpha=Fraction(1, 2), R=2, g=UtilitySpec.table([0, 1, 1, 1])
    )
    assert not tree_ne_condition(plateau)
    with pytest.raises(ValueError, match="radius above 1"):
        tree_ne_condition(linear_config(4, 1))


def test_tree_condition_certifies_the_star():
    config = linear_config(4, Fraction(3, 2), R=2)
    assert tree_ne_condition(config)
    star = make_profile("star", config)
    assert is_pne(NetworkCreationGame(config), build_archetype("identity", 4), tuple(star))


def test_tree_condition_sqrt():
    sqrt_config = NetGameConfig(n=4, alpha=Fraction(1), R=2, g=UtilitySpec.sqrt())
    assert tree_ne_condition(sqrt_config)
    pricey = NetGameConfig(n=4, alpha=Fraction(2), R=2, g=UtilitySpec.sqrt())
    assert not tree_ne_condition(pricey)


# -- adjacency reading ---------------------------------------------------------------


def test_adjacency_reading_single_friendship():
    F = rows([["eps", 1, 0], [0, "eps", 0], [0, 0, "eps"]])
    result = adjacency_equilibrium(F, Fraction(3, 2))
    assert result.adjacency == ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    assert result.profile == profile({1}, set(), set())


def test_adjacency_profile_is_a_real_equilibrium():
    F = rows([["eps", 1, 0], [0, "eps", 0], [0, 0, "eps"]])
    result = adjacency_equilibrium(F, Fraction(3, 2))
    config = linear_config(3, Fraction(3, 2))
    report = enumerate_pne(config, F, method="full")
    assert result.profile in [p for p, _ in report.pne]


def test_adjacency_reading_no_friends_no_links():
    F = rows([["eps", 0], [0, "eps"]])
    result = adjacency_equilibrium(F, Fraction(3, 2))
    assert result.profile == profile(set(), set())
    assert result.adjacency == ((0, 0), (0, 0))


def test_adjacency_mutual_friendship_lower_index_pays():
    F = rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    result = adjacency_equilibrium(F, Fraction(5, 4))
    assert result.profile == profile({1, 2}, {2}, set())
    assert result.adjacency == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_adjacency_one_sided_entry_decides_the_payer():
    F = rows([["1/2", 0], [1, "1/2"]])
    result = adjacency_equilibrium(F, Fraction(3, 2))
    assert result.profile == profile(set(), {0})


@pytest.mark.parametrize(
    "matrix_rows, alpha, message",
    [
        ([[1, 0], [0, 1]], 1, "needs 1 < alpha < 2"),
        ([[1, 0], [0, 1]], 2, "needs 1 < alpha < 2"),
        ([[0, 0], [0, 1]], "3/2", r"self-weight of player 0"),
        ([[2, 0], [0, 1]], "3/2", r"self-weight of player 0"),
        ([["-eps", 0], [0, 1]], "3/2", r"self-weight of player 0"),
        ([[1, "1/2"], [0, 1]], "3/2", r"entry \(0, 1\)"),
        ([[1, -1], [0, 1]], "3/2", r"entry \(0, 1\)"),
    ],
)
def test_adjacency_validation(matrix_rows, alpha, message):
    with pytest.raises(ValueError, match=message):
        adjacency_equilibrium(rows(matrix_rows), Fraction(alpha))


# -- small helpers ----------------------------------------------------------------


def test_induced_edges_and_profile_key():
    p = profile({1}, {0, 2}, set())
    assert induce_graph(p).edges == frozenset({(0, 1), (1, 2)})
    assert profile_key(p) == ((1,), (0, 2), ())

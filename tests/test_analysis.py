"""Society comparisons, flip experiments, and the claim catalog."""

from fractions import Fraction

import pytest

from socialnash.analysis import (
    LEMMA_CLAIMS,
    anarchy_vs_monarchy,
    comparison_csv_rows,
    decimal_text,
    profile_text,
    verdict_csv_rows,
    verify_all,
    verify_lemma,
    windfall_csv_rows,
    windfall_experiment,
)
from socialnash.dual import Dual, ZERO
from socialnash.netgame import NetGameConfig, PurchaseProfile, UtilitySpec
from socialnash.social_matrix import SocialRangeMatrix, build_archetype


def profile(*buys):
    return PurchaseProfile(tuple(frozenset(b) for b in buys))


def linear_config(n, alpha):
    return NetGameConfig(n=n, alpha=Fraction(alpha), R=1, g=UtilitySpec.linear())


def unit_diag(n):
    return build_archetype("identity", n)


# -- anarchy vs monarchy -------------------------------------------------------


def test_monarchy_wins_at_moderate_prices():
    result = anarchy_vs_monarchy(4, Fraction(3, 2))
    assert result.winner == "monarchy"
    assert result.anarchy.cost == ZERO
    assert result.anarchy.matches_closed_form
    assert result.anarchy.verified
    assert result.monarchy.cost == Dual(Fraction(-3, 2))
    assert result.monarchy.matches_closed_form
    assert result.monarchy.verified
    assert result.monarchy.equilibrium == profile(set(), {0}, {0}, {0})
    assert result.star.is_equilibrium
    assert result.star.claim_holds
    assert result.additional_equilibrium is None
    assert "alpha <= 1" in result.additional_note
    assert result.optimum_cost == Dual(-3)
    assert result.optimum_matches


def test_anarchy_wins_at_high_prices():
    result = anarchy_vs_monarchy(4, 3)
    assert result.winner == "anarchy"
    assert result.anarchy.cost == ZERO
    assert result.monarchy.cost == Dual(3)
    assert result.monarchy.matches_closed_form
    assert result.star.claim_holds
    assert result.optimum_cost == ZERO
    assert result.optimum_matches


def test_cheap_prices_end_in_a_tie_and_break_the_star_claim():
    # below unit price the leaves of the star profit from direct links,
    # so the monarchy equilibrium is a full clique and ties with anarchy
    result = anarchy_vs_monarchy(4, Fraction(1, 2))
    assert result.winner == "tie"
    assert result.anarchy.cost == Dual(-9)
    assert result.anarchy.matches_closed_form
    assert result.monarchy.cost == Dual(-9)
    assert not result.monarchy.matches_closed_form
    assert result.monarchy.verified
    assert len(result.monarchy.equilibrium[0]) == 3
    assert not result.star.is_equilibrium
    assert not result.star.claim_holds
    assert result.star.cost == Dual(Fraction(-9, 2))
    assert result.additional_equilibrium is None
    assert result.additional_note == "no equilibrium attains the claimed cost"
    assert result.optimum_cost == Dual(-9)
    assert result.optimum_matches


def test_unit_price_monarch_paid_star_is_the_second_equilibrium():
    result = anarchy_vs_monarchy(4, 1)
    assert result.winner == "tie"
    assert result.anarchy.cost == Dual(-6)
    assert result.star.claim_holds
    assert result.additional_equilibrium == profile({1, 2, 3}, set(), set(), set())
    assert result.additional_note == "the monarch-paid star"


def test_two_players_match_every_claim():
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)):
        result = anarchy_vs_monarchy(2, alpha)
        assert result.anarchy.matches_closed_form
        assert result.star.claim_holds
        assert result.optimum_matches
    low = anarchy_vs_monarchy(2, Fraction(1, 2))
    assert low.winner == "tie"
    assert low.additional_equilibrium == profile({1}, set())
    assert low.additional_note == "the monarch-paid star"


def test_comparison_needs_two_players():
    with pytest.raises(ValueError, match="at least two players"):
        anarchy_vs_monarchy(1, 1)


def test_comparison_csv_rows():
    header, rows = comparison_csv_rows([anarchy_vs_monarchy(4, Fraction(3, 2))])
    assert header[:4] == ("n", "alpha", "anarchy_cost", "anarchy_cost_decimal")
    assert rows == [
        (
            "4",
            "3/2",
            "0",
            "0",
            "true",
            "-3/2",
            "-1.5",
            "true",
            "-3/2",
            "-1.5",
            "true",
            "true",
            "-3",
            "-3",
            "true",
            "monarchy",
        )
    ]


# -- flip experiments ------------------------------------------------------------


def test_friendship_flip_creates_a_profitable_link():
    config = linear_config(3, Fraction(3, 2))
    report = windfall_experiment(config, unit_diag(3), [(0, 1)], "friendship")
    assert report.base.worst_pne_cost == ZERO
    assert report.flipped.worst_pne_cost == Dual(Fraction(-1, 2))
    assert report.worst_delta == Dual(Fraction(-1, 2))
    assert report.best_delta == Dual(Fraction(-1, 2))
    assert report.worst_ok and report.best_ok
    assert report.flipped_matrix[0, 1] == Dual(1)
    assert report.base_matrix[0, 1] == ZERO


def test_single_sided_ill_will_keeps_the_triangle():
    # one resentful entry only moves the payer of that link; the
    # equilibrium networks stay full triangles at the same social cost
    config = linear_config(3, Fraction(1, 2))
    report = windfall_experiment(config, unit_diag(3), [(0, 1)], "ill_will")
    assert report.base.worst_pne_cost == Dual(Fraction(-9, 2))
    assert report.flipped.worst_pne_cost == Dual(Fraction(-9, 2))
    assert report.worst_delta == ZERO
    assert report.worst_ok and report.best_ok


def test_mutual_ill_will_severs_the_link():
    config = linear_config(3, Fraction(1, 2))
    report = windfall_experiment(
        config, unit_diag(3), [(0, 1), (1, 0)], "ill_will"
    )
    assert report.flipped.worst_pne_cost == Dual(-3)
    assert report.worst_delta == Dual(Fraction(3, 2))
    assert report.worst_ok and report.best_ok
    assert report.flips == ((0, 1), (1, 0))


def test_flip_positions_are_deduplicated_and_sorted():
    config = linear_config(3, Fraction(3, 2))
    report = windfall_experiment(
        config, unit_diag(3), [(1, 0), (0, 1), (1, 0)], "friendship"
    )
    assert report.flips == ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "flips, matrix_rows, direction, message",
    [
        ([], None, "friendship", "non-empty set"),
        ([(1, 1)], None, "friendship", "off-diagonal"),
        ([(0, 1)], None, "sideways", "unknown direction"),
        ([(0, 1)], [[1, 0, 0], [0, "eps", 0], [0, 0, 1]], "friendship", "exactly 1"),
        ([(0, 1)], [[1, 0, -1], [0, 1, 0], [0, 0, 1]], "friendship", "outside the friendship class"),
        ([(0, 1)], [[1, 0, 1], [0, 1, 0], [0, 0, 1]], "ill_will", "outside the ill_will class"),
        ([(0, 2)], [[1, 0, 1], [0, 1, 0], [0, 0, 1]], "friendship", "refusing to flip"),
    ],
)
def test_flip_validation(flips, matrix_rows, direction, message):
    config = linear_config(3, Fraction(3, 2))
    matrix = (
        unit_diag(3)
        if matrix_rows is None
        else SocialRangeMatrix.from_rows(matrix_rows)
    )
    with pytest.raises(ValueError, match=message):
        windfall_experiment(config, matrix, flips, direction)


def test_flip_needs_radius_one_linear():
    config = NetGameConfig(n=3, alpha=Fraction(1), R=2, g=UtilitySpec.linear())
    with pytest.raises(ValueError, match="radius 1 and linear"):
        windfall_experiment(config, unit_diag(3), [(0, 1)], "friendship")


# -- claim catalog ----------------------------------------------------------------


def test_registry_names_and_aliases():
    assert len(LEMMA_CLAIMS) == 12
    assert verify_lemma("4") == verify_lemma("isolated-equilibrium")
    assert verify_lemma("C1") == verify_lemma(
        "worst-equilibrium-friendship-monotonicity"
    )
    with pytest.raises(ValueError, match="unknown lemma id"):
        verify_lemma("nonsense")


def test_isolation_claim_is_green():
    verdicts = verify_lemma("4", {"ns": (3,), "gs": ("linear", "table")})
    assert verdicts
    for verdict in verdicts:
        assert verdict.claim == "isolated-equilibrium"
        assert verdict.ok
        assert verdict.precondition


def test_closed_form_claim_fails_below_unit_price():
    verdicts = verify_lemma("9", {"ns": (4,), "alphas": ("1/2", "3/2", "3")})
    failing = [v for v in verdicts if not v.ok]
    assert [v.point for v in failing] == ["n=4 alpha=1/2"]
    assert failing[0].note == (
        "the star is unstable: periphery players profit from a direct link"
    )
    # the counterexample is the claimed star itself
    assert failing[0].counterexample == profile(set(), {0}, {0}, {0})


def test_regular_claim_edge_annotations():
    vacuous = verify_lemma("5", {"ns": (4,), "alphas": ("1",), "gs": ("linear",)})
    notes = {v.point: v for v in vacuous}
    edge = notes["n=4 alpha=1 g=linear x=2"]
    assert edge.precondition and edge.conclusion
    assert "vacuous" in edge.note

    undefined = verify_lemma("5", {"ns": (4,), "alphas": ("1",), "gs": ("table",)})
    assert any(v.note == "utility undefined at group size 2x" for v in undefined)


def test_row_scaling_claim_small_grid():
    verdicts = verify_lemma(
        "1", {"ns": (3,), "alphas": ("1/2",), "radii": (1,), "factors": (7,)}
    )
    assert verdicts
    assert all(v.ok for v in verdicts)


def test_edge_rule_existence_claim():
    verdicts = verify_lemma("7", {"alphas": ("3/2",)})
    # 64 binary patterns with tiny self-regard, every one has a family
    assert len(verdicts) == 64
    assert all(v.ok for v in verdicts)


def test_player_counts_reach_every_sized_claim():
    verdicts = verify_lemma("7", {"ns": (2,)})
    # 4 binary patterns at each of the two default prices
    assert len(verdicts) == 8
    assert all(v.point.startswith("n=2 ") for v in verdicts)
    for claim in ("10", "11", "c1"):
        verdicts = verify_lemma(claim, {"ns": (2,), "alphas": ("3/2",)})
        assert verdicts
        assert all(v.point.startswith("n=2 ") for v in verdicts)
    adjacency = verify_lemma("8", {"ns": (4,), "alphas": ("3/2",)})
    assert len(adjacency) == 8
    assert all(v.point.startswith("n=4 ") for v in adjacency)
    optima = verify_lemma("3", {"ns": (3,)})
    # the tree half (radii 2 and 3) follows ns too
    assert any(v.point.endswith("R=2") for v in optima)
    assert all(v.point.startswith("n=3 ") for v in optima)


def test_flip_claims_small_grid():
    for claim in ("10", "11", "c1"):
        verdicts = verify_lemma(claim, {"alphas": ("3/2",)})
        assert verdicts
        assert all(v.ok for v in verdicts)


def test_verify_all_covers_the_registry():
    grid = {
        "ns": (3,),
        "alphas": ("3/2",),
        "radii": (2,),
        "factors": (7,),
        "gs": ("linear",),
        "tree_ns": (4,),
        "tree_alphas": ("3/2",),
        "patterns": ((3, 0b000001),),
    }
    results = verify_all(grid)
    assert set(results) == set(LEMMA_CLAIMS)
    for name, verdicts in results.items():
        assert verdicts, name
        for v in verdicts:
            assert v.claim == name
            assert v.precondition is (v.conclusion is not None)
            assert (v.counterexample is not None) is (v.conclusion is False), v
    numbers = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "c1")
    for number, name in zip(numbers, LEMMA_CLAIMS):
        assert verify_lemma(number, grid) == results[name]


def test_verdict_csv_rows_carry_flags():
    verdicts = verify_lemma("9", {"ns": (4,), "alphas": ("1/2", "3")})
    header, rows = verdict_csv_rows(verdicts)
    assert header == (
        "claim",
        "point",
        "precondition",
        "conclusion",
        "ok",
        "note",
        "counterexample",
    )
    flat = {row[1]: row for row in rows}
    assert flat["n=4 alpha=1/2"][4] == "false"
    assert flat["n=4 alpha=3"][4] == "true"


def test_windfall_csv_rows():
    config = linear_config(3, Fraction(3, 2))
    report = windfall_experiment(config, unit_diag(3), [(0, 1)], "friendship")
    header, rows = windfall_csv_rows([report])
    assert header[0] == "direction"
    assert rows[0][0] == "friendship"
    assert rows[0][3] == "0:1"
    assert "true" in rows[0]


# -- text helpers ------------------------------------------------------------------


def test_decimal_text():
    assert decimal_text(Dual(Fraction(-3, 2))) == "-1.5"
    assert decimal_text(Dual(Fraction(1, 3))) == "0.3333333333"
    assert decimal_text(ZERO) == "0"


def test_profile_text():
    assert profile_text(profile({1, 2}, set(), {0})) == "0:1,2|1:|2:0"
    assert profile_text(None) == ""

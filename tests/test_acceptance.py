"""Full desk-scale verification grids, one verdict line per criterion.

Every test here records a PASS/FAIL line that pytest prints in its
summary.  Two source claims are known not to survive verification (the
cheap-link star equilibrium and, downstream, part of the catalog); the
corresponding criterion records FAIL honestly while the test itself
pins the exact failure set so regressions still surface.
"""

import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from socialnash.analysis import anarchy_vs_monarchy
from socialnash.cli import main
from socialnash.dual import EPS, ONE, Dual
from socialnash.equilibrium import (
    adjacency_equilibrium,
    brute_force_social_optimum,
    edge_rule_profile,
    enumerate_pne,
    isolated_is_ne,
    regular_ne_condition,
    social_optimum_graphs,
    tree_ne_condition,
)
from socialnash.game_core import is_pne, social_cost
from socialnash.netgame import (
    InducedGraph,
    NetGameConfig,
    NetworkCreationGame,
    UtilitySpec,
    dump_config_json,
    _reach_totals,
    make_profile,
    neighborhood_counts,
)
from socialnash.social_matrix import (
    SocialRangeMatrix,
    build_archetype,
    dump_matrix_csv,
    dump_matrix_json,
)

from helpers import deterministic_rng, layer_counts, random_edge_set

LINEAR = UtilitySpec.linear()
GRID_NS = (2, 3, 4, 5, 6)
GRID_ALPHAS = tuple(Fraction(a) for a in ("1/4", "1/2", "1", "3/2", "2", "3"))
HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)


def linear_config(n, alpha, R=1):
    return NetGameConfig(n=n, alpha=Fraction(alpha), R=R, g=LINEAR)


def off_diagonal_positions(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def binary_matrix(n, mask, fill, diagonal):
    """Off-diagonal entries follow the bit mask, diagonal is per-player."""
    rows = [
        [diagonal[i % len(diagonal)] if i == j else 0 for j in range(n)]
        for i in range(n)
    ]
    for bit, (i, j) in enumerate(off_diagonal_positions(n)):
        if mask >> bit & 1:
            rows[i][j] = fill
    return SocialRangeMatrix.from_rows(rows)


def pne_set(config, matrix, method):
    report = enumerate_pne(config, matrix, method=method)
    return frozenset(profile for profile, _ in report.pne)


def test_criterion_01_closed_form_grid(record_criterion):
    """Selfish and single-ruler societies against their closed forms.

    The claimed cheap-link ruler equilibrium (every subject pays for a
    link to the ruler) is not actually stable for alpha < 1 once a third
    player exists: two subjects profit from a direct link.  Those grid
    cells fail and are pinned below; everything else must hold exactly.
    """
    started = time.perf_counter()
    anarchy_bad, star_bad, optimum_bad = [], [], []
    for n, alpha in product(GRID_NS, GRID_ALPHAS):
        result = anarchy_vs_monarchy(n, alpha)
        pair_form = (alpha / 2 - 1) * n * (n - 1)
        anarchy_form = pair_form if alpha <= 1 else Fraction(0)
        star_form = (alpha - 2) * (n - 1)
        optimum_form = pair_form if alpha < 2 else Fraction(0)
        if not (result.anarchy.verified and result.anarchy.cost == Dual(anarchy_form)):
            anarchy_bad.append((n, alpha))
        if not (result.star.cost == Dual(star_form) and result.star.claim_holds):
            star_bad.append((n, alpha))
        if not (result.optimum_matches and result.optimum_cost == Dual(optimum_form)):
            optimum_bad.append((n, alpha))
    elapsed = time.perf_counter() - started
    cells = len(GRID_NS) * len(GRID_ALPHAS)
    failures = len(anarchy_bad) + len(star_bad) + len(optimum_bad)
    record_criterion(
        1,
        failures == 0 and elapsed < 10.0,
        f"{cells - failures} of {cells} cells hold; the claimed ruler "
        f"equilibrium is unstable on {len(star_bad)} ({elapsed:.1f}s)",
    )
    assert anarchy_bad == []
    assert optimum_bad == []
    assert star_bad == [
        (n, alpha) for n, alpha in product((3, 4, 5, 6), (Fraction(1, 4), HALF))
    ]
    assert elapsed < 10.0


def test_criterion_02_worked_price_points(record_criterion):
    cheap = anarchy_vs_monarchy(4, THREE_HALVES)
    dear = anarchy_vs_monarchy(4, Fraction(3))
    checks = (
        cheap.monarchy.cost == Dual(Fraction(-3, 2)),
        cheap.star.claim_holds,
        cheap.anarchy.cost == Dual(0),
        cheap.winner == "monarchy",
        dear.monarchy.cost == Dual(3),
        dear.anarchy.cost == Dual(0),
        dear.winner == "anarchy",
    )
    record_criterion(2, all(checks))
    assert all(checks)


@pytest.fixture(scope="module")
def epsilon_diagonal_sweep():
    """Full enumeration over every binary society with tiny self-regard.

    Shared by the existence and agreement criteria so the expensive
    full search runs once; the elapsed time is part of the result.
    """
    started = time.perf_counter()
    cases = []
    for mask in range(64):
        matrix = binary_matrix(3, mask, 1, (EPS,))
        for alpha in (HALF, THREE_HALVES):
            config = linear_config(3, alpha)
            cases.append((matrix, config, pne_set(config, matrix, "full")))
    return cases, time.perf_counter() - started


def test_criterion_03_equilibria_always_exist(record_criterion, epsilon_diagonal_sweep):
    cases, elapsed = epsilon_diagonal_sweep
    empty, missing_canonical = [], []
    for matrix, config, profiles in cases:
        if not profiles:
            empty.append((matrix, config.alpha))
        elif edge_rule_profile(config, matrix) not in profiles:
            missing_canonical.append((matrix, config.alpha))
    ok = not empty and not missing_canonical and elapsed < 60.0
    record_criterion(
        3, ok, f"{len(cases)} full searches, all populated ({elapsed:.1f}s)"
    )
    assert empty == []
    assert missing_canonical == []
    assert elapsed < 60.0


def test_criterion_04_adjacency_reading_is_stable(record_criterion):
    diagonals = (ONE, EPS, Dual(HALF))
    cases = [(3, mask) for mask in range(64)]
    rng = deterministic_rng("adjacency-extra")
    cases += [(4, rng.randrange(1 << 12)) for _ in range(8)]
    failures = []
    for alpha in (Fraction(5, 4), THREE_HALVES, Fraction(7, 4)):
        for n, mask in cases:
            matrix = binary_matrix(n, mask, 1, diagonals)
            game = NetworkCreationGame(linear_config(n, alpha))
            profile = adjacency_equilibrium(matrix, alpha).profile
            if not is_pne(game, matrix, profile):
                failures.append((n, mask, alpha))
    record_criterion(4, not failures, f"{3 * len(cases)} matrix/price cases")
    assert failures == []


def test_criterion_05_row_scaling_invariance(record_criterion):
    rng = deterministic_rng("acceptance-row-scaling")
    palette = (0, 1, -1, HALF, EPS)
    diagonal = (1, -1, 2, HALF, EPS)
    factors = (2, 3, HALF, Fraction(7, 3))
    mismatches = 0
    for _ in range(50):
        rows = [
            [
                rng.choice(diagonal) if i == j else rng.choice(palette)
                for j in range(3)
            ]
            for i in range(3)
        ]
        matrix = SocialRangeMatrix.from_rows(rows)
        scaled = matrix.scale_row(rng.randrange(3), rng.choice(factors))
        config = NetGameConfig(
            3, rng.choice((HALF, Fraction(1), THREE_HALVES, Fraction(3))),
            rng.choice((1, 2)), LINEAR,
        )
        if pne_set(config, matrix, "full") != pne_set(config, scaled, "full"):
            mismatches += 1
    record_criterion(5, mismatches == 0, "50 scaled societies")
    assert mismatches == 0


def test_criterion_06_uniform_societies_pin_the_extremes(record_criterion):
    all_ones = build_archetype("altruistic", 3)
    all_negative = SocialRangeMatrix.from_rows([[-1] * 3 for _ in range(3)])
    failures = []
    for alpha, R in product((HALF, THREE_HALVES), (1, 2)):
        config = NetGameConfig(3, alpha, R, LINEAR)
        game = NetworkCreationGame(config)
        spaces = [game.strategy_space(i) for i in range(3)]
        costs = {
            profile: social_cost(game, profile) for profile in product(*spaces)
        }
        lowest = min(costs.values())
        highest = max(costs.values())
        for profile, cost in costs.items():
            if cost == lowest and not is_pne(game, all_ones, profile):
                failures.append(("minimizer", alpha, R, profile))
            if cost == highest and not is_pne(game, all_negative, profile):
                failures.append(("maximizer", alpha, R, profile))
    record_criterion(6, not failures, "every extremizer is an equilibrium")
    assert failures == []


def test_criterion_07_constructive_certificates(record_criterion):
    problems = []

    # Below twice the benefit of a one-hop link the clique is the unique
    # optimum; its cost follows the pair count.
    for n, alpha in list(product((3, 4, 5), (HALF, Fraction(1), THREE_HALVES))) + [
        (6, THREE_HALVES)
    ]:
        config = linear_config(n, alpha)
        graphs = social_optimum_graphs(config)
        clique = frozenset(combinations(range(n), 2))
        expected = (alpha / 2 - 1) * n * (n - 1)
        if len(graphs) != 1 or graphs[0].edges != clique:
            problems.append(("clique", n, alpha))
        if brute_force_social_optimum(config).cost != Dual(expected):
            problems.append(("clique-cost", n, alpha))

    # With two-hop reach the optima are exactly the stars.
    for n in (4, 5, 6):
        config = NetGameConfig(n, THREE_HALVES, 2, LINEAR)
        star_degrees = sorted([n - 1] + [1] * (n - 1))
        for graph in social_optimum_graphs(config):
            degrees = sorted(
                sum(1 for e in graph.edges if v in e) for v in range(n)
            )
            if degrees != star_degrees:
                problems.append(("star-shape", n))
        if brute_force_social_optimum(config).cost != Dual((n - 1) * (THREE_HALVES - n)):
            problems.append(("star-cost", n))

    # The isolated profile test must agree with a direct stability check.
    identity4 = build_archetype("identity", 4)
    specs = (
        LINEAR,
        UtilitySpec.power(2),
        UtilitySpec.sqrt(),
        UtilitySpec.table((0, 2, 2, 2)),
    )
    for g, R, alpha in product(specs, (1, 2), GRID_ALPHAS):
        config = NetGameConfig(4, alpha, R, g)
        game = NetworkCreationGame(config)
        empty = make_profile("isolated", config)
        if isolated_is_ne(config) != bool(is_pne(game, identity4, empty)):
            problems.append(("isolated", g.kind, R, alpha))

    # Certified ring and star stability must survive the direct check.
    # x stops below n/2: at 2x = n no 2x-regular ring exists (the buy
    # pattern would pay for some links twice), so the certificate is
    # about a graph the game cannot form.
    certified = 0
    for n in (4, 5, 6):
        identity = build_archetype("identity", n)
        for x, alpha in product(range(1, (n + 1) // 2), (HALF, Fraction(1), THREE_HALVES, Fraction(3))):
            config = linear_config(n, alpha)
            if not regular_ne_condition(config, x):
                continue
            certified += 1
            ring = make_profile("circulant", config, x=x)
            if not is_pne(NetworkCreationGame(config), identity, ring):
                problems.append(("ring", n, x, alpha))
    for n in (3, 4, 5, 6):
        identity = build_archetype("identity", n)
        for alpha in (Fraction(5, 4), THREE_HALVES, Fraction(7, 4)):
            config = NetGameConfig(n, alpha, 2, LINEAR)
            if not tree_ne_condition(config):
                continue
            certified += 1
            star = make_profile("star", config)
            if not is_pne(NetworkCreationGame(config), identity, star):
                problems.append(("star", n, alpha))

    record_criterion(7, not problems, f"{certified} certificates checked directly")
    assert certified > 0
    assert problems == []


def test_criterion_08_flip_monotonicity(record_criterion):
    """New friendship may only lower, new ill will only raise, the cost
    of both the worst and the best equilibrium."""
    cache = {}

    def extremes(config, matrix):
        key = (config.alpha, matrix)
        if key not in cache:
            report = enumerate_pne(config, matrix, method="edge-rule")
            cache[key] = (report.worst_pne_cost, report.best_pne_cost)
        return cache[key]

    def flip_sets(zeros, rng=None):
        singles = [[p] for p in zeros]
        doubles = [list(pair) for pair in combinations(zeros, 2)]
        if rng is not None:
            singles = singles[:3]
            doubles = [doubles[rng.randrange(len(doubles))]] if doubles else []
        return singles + doubles

    violations = []
    checks = 0
    rng = deterministic_rng("flip-monotonicity-n4")
    boards = [(3, mask, None) for mask in range(64)]
    boards += [(4, rng.randrange(1 << 12), rng) for _ in range(12)]
    for fill, improves in ((1, -1), (-1, 1)):
        for alpha in (HALF, THREE_HALVES, Fraction(3)):
            for n, mask, sampler in boards:
                base = binary_matrix(n, mask, fill, (1,))
                positions = off_diagonal_positions(n)
                zeros = [
                    p for bit, p in enumerate(positions) if not mask >> bit & 1
                ]
                config = linear_config(n, alpha)
                base_worst, base_best = extremes(config, base)
                for flips in flip_sets(zeros, sampler):
                    flipped = base.flip_entries([(i, j, fill) for i, j in flips])
                    worst, best = extremes(config, flipped)
                    checks += 1
                    drift_w = (worst - base_worst).sign()
                    drift_b = (best - base_best).sign()
                    if drift_w not in (0, improves) or drift_b not in (0, improves):
                        violations.append((n, mask, alpha, fill, tuple(flips)))
    record_criterion(8, not violations, f"{checks} flip comparisons, zero drift the wrong way")
    assert checks > 1500
    assert violations == []


def test_criterion_09_oracle_and_shortcut_agreement(record_criterion, epsilon_diagonal_sweep):
    rng = deterministic_rng("oracle-graphs")
    layer_mismatches = 0
    for _ in range(100):
        n = rng.randint(2, 8)
        edges = random_edge_set(rng, n, rng.choice((0.15, 0.3, 0.5, 0.75)))
        graph = InducedGraph(n, edges)
        for i, radius in product(range(n), (1, 2, 3)):
            oracle = layer_counts(n, edges, i, radius)
            if (
                neighborhood_counts(graph, i, radius) != oracle
                or _reach_totals(n, radius, edges)[i] != sum(oracle)
            ):
                layer_mismatches += 1

    cases, _ = epsilon_diagonal_sweep
    shortcut_mismatches = sum(
        1
        for matrix, config, full_profiles in cases
        if pne_set(config, matrix, "edge-rule") != full_profiles
    )
    ok = layer_mismatches == 0 and shortcut_mismatches == 0
    record_criterion(
        9, ok, f"100 random graphs, {len(cases)} shortcut comparisons"
    )
    assert layer_mismatches == 0
    assert shortcut_mismatches == 0


def test_criterion_10_byte_identical_cli_output(record_criterion, tmp_path):
    game3 = tmp_path / "game3.json"
    game3.write_text(dump_config_json(linear_config(3, HALF)), encoding="utf-8")
    game4_r2 = tmp_path / "game4r2.json"
    game4_r2.write_text(
        dump_config_json(NetGameConfig(4, THREE_HALVES, 2, LINEAR)), encoding="utf-8"
    )
    game4_dear = tmp_path / "game4dear.json"
    game4_dear.write_text(dump_config_json(linear_config(4, 3)), encoding="utf-8")
    identity3 = tmp_path / "id3.csv"
    identity3.write_text(dump_matrix_csv(build_archetype("identity", 3)), encoding="utf-8")
    crown = tmp_path / "crown.json"
    crown.write_text(
        dump_matrix_json(build_archetype("monarchy", 4, self_weight=EPS)),
        encoding="utf-8",
    )

    jobs = (
        ("enum", ["enumerate", "--game", str(game3), "--matrix", str(identity3), "--out"]),
        ("optimum", ["optimum", "--game", str(game4_r2), "--out"]),
        ("dynamics", ["dynamics", "--game", str(game4_dear), "--matrix", str(crown), "--trace"]),
        ("verdicts", ["experiment", "--kind", "verify-lemmas", "--lemma", "4", "--n", "3", "--csv"]),
        ("compare", ["experiment", "--kind", "anarchy-monarchy", "--n", "4", "--alpha", "3/2", "--json"]),
        ("classify", ["classify", "--matrix", str(crown), "--out"]),
    )
    unstable = []
    for name, argv in jobs:
        outputs = []
        for attempt in (0, 1):
            target = tmp_path / f"{name}-{attempt}.out"
            assert main(argv + [str(target)]) == 0
            outputs.append(target.read_bytes())
        if outputs[0] != outputs[1] or not outputs[0]:
            unstable.append(name)
    record_criterion(10, not unstable, f"{len(jobs)} commands run twice")
    assert unstable == []

"""Seeded input generator for the socialnash benchmark.

make_inputs(workload, seed, out) writes a run's input files (game configs
and preference matrices) and returns its CLI requests; pass_order(...)
gives the order in which pass k sends them.  Both depend only on the
workload, the seed and k, so the same seed always gives the same inputs.
The generator builds its matrices and utilities itself and imports
nothing from socialnash, so the program only ever sees generated inputs.

Every pass of a run sends the same requests, so each request is timed
once per pass and the run can report per-request medians.  One
full-search or dynamics request costs anywhere from 0.1 s to 5 s
depending on the instance, so a handful of freshly drawn instances per
run would make the run's figures a lottery.  Those two workloads
therefore draw a fixed population of instances once, from
POPULATION_SEED; the run seed orders the requests and, for dynamics,
relabels the players of each instance, with the round-robin schedule
relabeled to match, so the dynamics are the same up to tie-breaks.
optimum draws prices, tables and the pairing of utility kinds with radii
from the run seed, with every radius and utility kind present once;
lemmas has one fixed grid and the seed only permutes the claims.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("full-search", "optimum", "dynamics", "lemmas")

ALPHAS = ("1/2", "1", "3/2", "2", "3")
# Matrix entries of the random societies: {0, +-1/2, +-eps, 1, 1+eps, 2}.
MATRIX_VALUES = ("0", "1/2", "-1/2", "eps", "-eps", "1", "1+eps", "2")
# Dynamics adds outright spite off the diagonal and keeps self-regard positive.
SPITE_VALUES = MATRIX_VALUES + ("-1",)
SELF_VALUES = ("1", "1/2", "eps", "1+eps", "2")
UTILITIES = ("linear", "power", "table")
TABLE_STEPS = ("1/2", "1", "3/2", "2", "3")
ARCHETYPES = ("identity", "altruistic", "malicious", "monarchy", "benevolent", "one_malicious")

# The claims catalog, one request per claim on the default grid.
LEMMA_IDS = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "c1")

FULL_SEARCH_N = 4
OPTIMUM_N = 6
DYNAMICS_N = 8
DYNAMICS_MAX_STEPS = 200


# Draws the fixed instance populations of full-search and dynamics.
POPULATION_SEED = 2010
# full-search: (matrix source, R) of each instance, R balanced per source
FULL_SEARCH_SLOTS = (("archetype", 1), ("random", 2), ("archetype", 2), ("random", 1))
DYNAMICS_POPULATION = 8


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _utility(rng: random.Random, n: int, kind: str | None = None) -> dict:
    """A group utility the loader reads: linear, integer power, or table.

    power is written with the key "p", the one the loader reads."""
    kind = kind or rng.choice(UTILITIES)
    if kind == "power":
        return {"kind": "power", "p": "2"}
    if kind == "table":
        values, total = ["0"], Fraction(0)
        for _ in range(1, n):
            total += Fraction(rng.choice(TABLE_STEPS))
            values.append(str(total))
        return {"kind": "table", "values": values}
    return {"kind": "linear"}


def game_config(n: int, alpha: str, R: int, g: dict) -> dict:
    return {"n": n, "alpha": alpha, "R": R, "g": g}


def archetype_rows(kind: str, n: int, k: int, self_weight: str) -> list[list[str]]:
    """The named societies, written out entry by entry."""
    if kind == "identity":
        return [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    if kind == "altruistic":
        return [[self_weight if i == j else "1" for j in range(n)] for i in range(n)]
    if kind == "malicious":
        return [["1" if i == j else "-1" for j in range(n)] for i in range(n)]
    if kind == "monarchy":
        return [
            [self_weight if i == j else ("1" if j == k else "0") for j in range(n)]
            for i in range(n)
        ]
    if kind == "benevolent":
        return [
            [
                (self_weight if j == k else "1") if i == k else ("1" if i == j else "0")
                for j in range(n)
            ]
            for i in range(n)
        ]
    if kind == "one_malicious":
        return [
            [("1" if i == j else "-1") if i == k else ("1" if i == j else "0") for j in range(n)]
            for i in range(n)
        ]
    raise ValueError(f"unknown archetype {kind!r}")


def _random_rows(rng: random.Random, n: int, values, diagonal=None) -> list[list[str]]:
    return [
        [rng.choice(diagonal if diagonal and i == j else values) for j in range(n)]
        for i in range(n)
    ]


def csv_text(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def full_search_population() -> list[tuple[dict, list[list[str]]]]:
    """(game, matrix rows) pairs: R in {1, 2} crossed with half named
    archetypes, half random entries from MATRIX_VALUES."""
    rng = _rng("full-search", "population", POPULATION_SEED)
    n = FULL_SEARCH_N
    kinds = iter(rng.sample(ARCHETYPES, len(FULL_SEARCH_SLOTS) // 2))
    population = []
    for source, R in FULL_SEARCH_SLOTS:
        if source == "archetype":
            rows = archetype_rows(next(kinds), n, rng.randrange(n), rng.choice(("1", "eps")))
        else:
            rows = _random_rows(rng, n, MATRIX_VALUES)
        population.append((game_config(n, rng.choice(ALPHAS), R, _utility(rng, n)), rows))
    return population


def dynamics_population() -> list[tuple[dict, list[list[str]]]]:
    """(game, matrix rows) pairs at n=8, R alternating 1 and 2, spiteful
    entries off the diagonal and positive self-regard on it."""
    rng = _rng("dynamics", "population", POPULATION_SEED)
    n = DYNAMICS_N
    return [
        (
            game_config(n, rng.choice(ALPHAS), 1 + index % 2, _utility(rng, n)),
            _random_rows(rng, n, SPITE_VALUES, diagonal=SELF_VALUES),
        )
        for index in range(DYNAMICS_POPULATION)
    ]


def _full_search_inputs(rng, out: Path) -> list[list[dict]]:
    groups = []
    for index, (game, rows) in enumerate(full_search_population()):
        name = f"i{index}"
        game_path = _write(out / f"{name}.game.json", json.dumps(game))
        matrix_path = _write(out / f"{name}.matrix.csv", csv_text(rows))
        groups.append([{
            "id": name,
            "kind": "enumerate",
            "argv": ["enumerate", "--game", game_path, "--matrix", matrix_path, "--method", "full"],
            "game": game_path,
            "matrix": matrix_path,
        }])
    return groups


def _optimum_inputs(rng, out: Path) -> list[list[dict]]:
    # radii 1, 2, 3 each once, with the three utility kinds dealt among
    # them; the (R, g) pairs of radii 1 and 2 are asked at a second price
    # right after the first, the way an alpha sweep re-prices one scan
    groups = []
    kinds = list(UTILITIES)
    rng.shuffle(kinds)
    for R, kind in zip((1, 2, 3), kinds):
        g = _utility(rng, OPTIMUM_N, kind)
        group = []
        for step, alpha in enumerate(rng.sample(ALPHAS, 2 if R < 3 else 1)):
            name = f"r{R}{'ab'[step]}"
            game_path = _write(out / f"{name}.game.json", json.dumps(game_config(OPTIMUM_N, alpha, R, g)))
            group.append({
                "id": name,
                "kind": "optimum",
                "argv": ["optimum", "--game", game_path],
                "game": game_path,
            })
        groups.append(group)
    return groups


def _dynamics_inputs(rng, out: Path) -> list[list[dict]]:
    groups = []
    for index, (game, rows) in enumerate(dynamics_population()):
        n = len(rows)
        # new label i is old player perm[i]; round-robin over the old
        # labels becomes the schedule of their new labels
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        new_label = {old: new for new, old in enumerate(perm)}
        schedule = [new_label[old] for old in range(n)]
        name = f"i{index}"
        game_path = _write(out / f"{name}.game.json", json.dumps(game))
        matrix_path = _write(out / f"{name}.matrix.csv", csv_text(relabeled))
        groups.append([{
            "id": name,
            "kind": "dynamics",
            "argv": [
                "dynamics", "--game", game_path, "--matrix", matrix_path,
                "--start", "empty", "--schedule", ",".join(map(str, schedule)),
                "--max-steps", str(DYNAMICS_MAX_STEPS),
            ],
            "game": game_path,
            "matrix": matrix_path,
            "schedule": schedule,
            "max_steps": DYNAMICS_MAX_STEPS,
        }])
    return groups


def _lemmas_inputs(rng, out: Path) -> list[list[dict]]:
    # the default grid, one request per claim
    return [
        [{
            "id": f"lemma-{claim}",
            "kind": "lemma",
            "lemma": claim,
            "argv": ["experiment", "--kind", "verify-lemmas", "--lemma", claim],
        }]
        for claim in LEMMA_IDS
    ]


_INPUTS = {
    "full-search": _full_search_inputs,
    "optimum": _optimum_inputs,
    "dynamics": _dynamics_inputs,
    "lemmas": _lemmas_inputs,
}


def make_inputs(workload: str, seed: int, out: Path) -> list[list[dict]]:
    """Write the run's input files under out and return its requests, in
    groups whose members are sent back to back in group order."""
    if workload not in _INPUTS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    return _INPUTS[workload](_rng(workload, seed), out)


def pass_order(workload: str, seed: int, k: int, groups) -> list[dict]:
    """The requests of pass k, groups shuffled by (seed, k)."""
    groups = list(groups)
    _rng(workload, seed, "pass", k).shuffle(groups)
    return [request for group in groups for request in group]

"""Exact oracle for the socialnash benchmark.

It shares no code with socialnash.  Weights are (std, eps) pairs of
Fractions with their own parser, graphs are adjacency bitmasks with their
own R-hop reach, and every solver is a direct search written for clarity.
Inside a search, values are scaled by a positive common denominator to
plain ints, which keeps the order exact and the search fast.

check(request, rc, stdout) returns a list of problems, empty when the
program's answer is right.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import combinations

# -- numbers -------------------------------------------------------------


def parse_dual(text: str) -> tuple[Fraction, Fraction]:
    """Read "a", "eps", "b*eps", "a+b*eps" or "a-b*eps" into (a, b)."""
    body = text.strip().replace(" ", "")
    if not body:
        raise ValueError("empty weight")
    std = eps = Fraction(0)
    start = 0
    for pos in range(1, len(body) + 1):
        if pos == len(body) or (body[pos] in "+-" and body[pos - 1] not in "/*"):
            term = body[start:pos]
            start = pos
            if term.endswith("eps"):
                coeff = term[:-3].rstrip("*")
                eps += Fraction(coeff + "1") if coeff in ("", "+", "-") else Fraction(coeff)
            else:
                std += Fraction(term)
    return std, eps


def dual_text(std: Fraction, eps: Fraction) -> str:
    """The canonical token the CLI prints for std + eps*eps."""
    if eps == 0:
        return str(std)
    size = abs(eps)
    token = "eps" if size == 1 else f"{size}*eps"
    if std == 0:
        return token if eps > 0 else "-" + token
    return f"{std}{'+' if eps > 0 else '-'}{token}"


def _lcm_den(values) -> int:
    d = 1
    for v in values:
        d = d * v.denominator // math.gcd(d, v.denominator)
    return d


# -- inputs --------------------------------------------------------------


class Game:
    """A game config: n, alpha, radius R and g on group sizes 0..n-1."""

    def __init__(self, text: str):
        payload = json.loads(text)
        self.n = int(payload["n"])
        self.alpha = Fraction(payload["alpha"])
        self.R = int(payload["R"])
        g = payload["g"]
        kind = g["kind"]
        if kind == "linear":
            gains = [Fraction(x) for x in range(self.n)]
        elif kind == "power":
            p = Fraction(g["p"])
            if p.denominator != 1:
                raise ValueError("the oracle only handles integer powers")
            gains = [Fraction(x) ** int(p) for x in range(self.n)]
        elif kind == "table":
            gains = [Fraction(v) for v in g["values"]]
        else:
            raise ValueError(f"the oracle does not handle utility {kind!r}")
        self.gains = gains
        # integer scaling: alpha_i and gain_i are alpha and g times scale
        self.scale = _lcm_den([self.alpha, *gains])
        self.alpha_i = int(self.alpha * self.scale)
        self.gain_i = [int(v * self.scale) for v in gains]
        self.key = (self.n, self.R, tuple(gains))


class Matrix:
    """Preference matrix rows as (std, eps) pairs scaled to ints."""

    def __init__(self, text: str):
        rows = [[parse_dual(cell) for cell in row] for row in csv.reader(io.StringIO(text)) if row]
        self.scale = _lcm_den([part for row in rows for pair in row for part in pair])
        self.rows_i = [[(int(s * self.scale), int(e * self.scale)) for s, e in row] for row in rows]


# -- graphs --------------------------------------------------------------


def reach_counts(adj, R: int, nodes=None) -> list[int]:
    """Players within R hops of each node (or of each of nodes), the node
    itself excluded."""
    out = []
    for i in range(len(adj)) if nodes is None else nodes:
        seen = frontier = 1 << i
        for _ in range(R):
            nxt = 0
            probe = frontier
            while probe:
                low = probe & -probe
                nxt |= adj[low.bit_length() - 1]
                probe ^= low
            frontier = nxt & ~seen
            if not frontier:
                break
            seen |= frontier
        out.append(seen.bit_count() - 1)
    return out


def adjacency(buys) -> list[int]:
    """Undirected adjacency bitmasks of a purchase profile (target bitmasks)."""
    adj = list(buys)
    for i, targets in enumerate(buys):
        probe = targets
        while probe:
            low = probe & -probe
            adj[low.bit_length() - 1] |= 1 << i
            probe ^= low
    return adj


def bits(mask: int) -> list[int]:
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


_ORDERS: dict = {}


def strategy_order(n: int, i: int) -> list[int]:
    """Player i's purchase sets in tie-break order: fewer links first, then
    lexicographic by sorted targets."""
    if (n, i) not in _ORDERS:
        others = [j for j in range(n) if j != i]
        _ORDERS[(n, i)] = [
            sum(1 << j for j in combo)
            for size in range(len(others) + 1)
            for combo in combinations(others, size)
        ]
    return _ORDERS[(n, i)]


def _profile_masks(profile, n: int) -> tuple[int, ...]:
    if len(profile) != n:
        raise ValueError(f"profile has {len(profile)} players, expected {n}")
    masks = []
    for i, targets in enumerate(profile):
        if list(targets) != sorted(set(targets)) or any(not 0 <= t < n or t == i for t in targets):
            raise ValueError(f"bad purchase list {targets!r} for player {i}")
        masks.append(sum(1 << t for t in targets))
    return tuple(masks)


def _masks_json(masks) -> list[list[int]]:
    return [bits(m) for m in masks]


# -- costs ---------------------------------------------------------------


def actual_scaled(game: Game, buys, reach) -> list[int]:
    return [game.alpha_i * buys[j].bit_count() - game.gain_i[reach[j]] for j in range(game.n)]


def social_cost(game: Game, buys) -> Fraction:
    reach = reach_counts(adjacency(buys), game.R)
    return Fraction(sum(actual_scaled(game, buys, reach)), game.scale)


def perceived_scaled(F: Matrix, i: int, actual) -> tuple[int, int]:
    std = eps = 0
    for (fs, fe), a in zip(F.rows_i[i], actual):
        std += fs * a
        eps += fe * a
    return std, eps


# -- solvers -------------------------------------------------------------


def equilibria(game: Game, F: Matrix) -> set[tuple[int, ...]]:
    """Every profile where no player has a strictly better purchase set."""
    n = game.n
    spaces = [strategy_order(n, i) for i in range(n)]
    reach_of: dict = {}
    perceived: dict = {}

    def visit(prefix):
        if len(prefix) == n:
            buys = tuple(prefix)
            adj = tuple(adjacency(buys))
            reach = reach_of.get(adj)
            if reach is None:
                reach = reach_of[adj] = reach_counts(adj, game.R)
            actual = actual_scaled(game, buys, reach)
            perceived[buys] = [perceived_scaled(F, i, actual) for i in range(n)]
            return
        for s in spaces[len(prefix)]:
            prefix.append(s)
            visit(prefix)
            prefix.pop()

    visit([])
    best = [{} for _ in range(n)]
    for buys, costs in perceived.items():
        for i in range(n):
            rest = buys[:i] + buys[i + 1 :]
            if rest not in best[i] or costs[i] < best[i][rest]:
                best[i][rest] = costs[i]
    return {
        buys
        for buys, costs in perceived.items()
        if all(costs[i] <= best[i][buys[:i] + buys[i + 1 :]] for i in range(n))
    }


_PAIRS: dict = {}
_CLASSES: dict = {}


def _pairs(n: int):
    if n not in _PAIRS:
        _PAIRS[n] = list(combinations(range(n), 2))
    return _PAIRS[n]


def graph_classes(n: int, R: int) -> dict:
    """Map (edge count, histogram of reach sizes) to its lowest edge mask.

    Social cost depends on a graph only through that key, so the optimum
    search runs over keys; the lowest mask of each key keeps the
    lowest-mask tie-break.  Masks number edges in combinations order.
    """
    if (n, R) in _CLASSES:
        return _CLASSES[(n, R)]
    pairs = _pairs(n)
    classes: dict = {}
    adjs = [[0] * n]
    for mask in range(1, 1 << len(pairs)):
        top = mask.bit_length() - 1
        i, j = pairs[top]
        adj = list(adjs[mask ^ (1 << top)])
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        adjs.append(adj)
    for mask, adj in enumerate(adjs):
        hist = [0] * n
        for r in reach_counts(adj, R):
            hist[r] += 1
        key = (mask.bit_count(), tuple(hist))
        if key not in classes:
            classes[key] = mask
    _CLASSES[(n, R)] = classes
    return classes


def optimum(game: Game) -> tuple[Fraction, int]:
    """Least social cost over all graphs, and the lowest mask attaining it."""
    best = None
    for (edges, hist), mask in graph_classes(game.n, game.R).items():
        value = game.alpha_i * edges - sum(h * g for h, g in zip(hist, game.gain_i))
        if best is None or (value, mask) < best:
            best = (value, mask)
    return Fraction(best[0], game.scale), best[1]


def mask_edges(n: int, mask: int) -> list[list[int]]:
    return [list(p) for b, p in enumerate(_pairs(n)) if mask >> b & 1]


def best_response(game: Game, F: Matrix, buys, i: int):
    """Earliest least-cost purchase set of player i and its perceived cost,
    with the perceived cost of i's current set; costs are int-scaled."""
    n = game.n
    base = list(buys)
    base[i] = 0
    adj0 = adjacency(base)
    row = F.rows_i[i]
    watched = [j for j in range(n) if row[j] != (0, 0)]
    counts = [m.bit_count() for m in buys]

    def cost(s):
        adj = list(adj0)
        adj[i] |= s
        probe = s
        while probe:
            low = probe & -probe
            adj[low.bit_length() - 1] |= 1 << i
            probe ^= low
        std = eps = 0
        for j, r in zip(watched, reach_counts(adj, game.R, watched)):
            size = s.bit_count() if j == i else counts[j]
            a = game.alpha_i * size - game.gain_i[r]
            std += row[j][0] * a
            eps += row[j][1] * a
        return std, eps

    best = best_cost = None
    for s in strategy_order(n, i):
        c = cost(s)
        if best is None or c < best_cost:
            best, best_cost = s, c
    return best, best_cost, cost(buys[i])


# -- checks --------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _cost_problem(label: str, reported, expected: Fraction | None) -> list[str]:
    if expected is None:
        return [] if reported is None else [f"{label}: expected null, got {reported!r}"]
    if not isinstance(reported, dict) or reported.get("exact") != dual_text(expected, Fraction(0)):
        return [f"{label}: expected {dual_text(expected, Fraction(0))}, got {reported!r}"]
    return []


class Oracle:
    """Checks outputs, caching the expensive answer per distinct input."""

    def __init__(self):
        self._memo: dict = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def check(self, request: dict, rc, stdout: str) -> list[str]:
        # outputs repeat byte for byte across passes, so each is judged once
        key = (json.dumps(request, sort_keys=True), rc, stdout)
        return self._cached(key, lambda: self._judge(request, rc, stdout))

    def _judge(self, request: dict, rc, stdout: str) -> list[str]:
        kind = request["kind"]
        try:
            if kind == "lemma":
                return self._check_lemma(request, rc, stdout)
            if kind == "dynamics":
                return self._check_dynamics(request, rc, stdout)
            if rc != 0:
                return [f"exit code {rc!r}, expected 0"]
            payload = json.loads(stdout)
            if kind == "enumerate":
                return self._check_enumerate(request, payload)
            if kind == "optimum":
                return self._check_optimum(request, payload)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        return [f"unknown request kind {kind!r}"]

    def _check_enumerate(self, request, payload) -> list[str]:
        game_text, matrix_text = _read(request["game"]), _read(request["matrix"])
        game, F = Game(game_text), Matrix(matrix_text)
        expected = self._cached(("pne", game_text, matrix_text), lambda: equilibria(game, F))
        problems = []
        reported = [_profile_masks(item["profile"], game.n) for item in payload["pne"]]
        if len(set(reported)) != len(reported):
            problems.append("duplicate equilibria in the report")
        if payload["pne_count"] != len(reported):
            problems.append(f"pne_count {payload['pne_count']} but {len(reported)} listed")
        missing, extra = expected - set(reported), set(reported) - expected
        if missing:
            problems.append(f"{len(missing)} equilibria missing, e.g. {_masks_json(min(missing))}")
        if extra:
            problems.append(f"{len(extra)} non-equilibria reported, e.g. {_masks_json(min(extra))}")
        costs = {}
        for buys, item in zip(reported, payload["pne"]):
            costs[buys] = social_cost(game, buys)
            problems += _cost_problem(f"pne {_masks_json(buys)}", item["social_cost"], costs[buys])
        values = list(costs.values())
        problems += _cost_problem("worst_pne_cost", payload["worst_pne_cost"], max(values, default=None))
        problems += _cost_problem("best_pne_cost", payload["best_pne_cost"], min(values, default=None))
        topo: dict = {}
        for buys in reported:
            adj = adjacency(buys)
            edges = tuple((i, j) for i in range(game.n) for j in bits(adj[i]) if i < j)
            topo[edges] = topo.get(edges, 0) + 1
        listed = {tuple(tuple(e) for e in t["edges"]): t["multiplicity"] for t in payload["topologies"]}
        if listed != topo:
            problems.append("topology classes do not group the listed equilibria")
        best_value, _ = self._cached(("opt",) + game.key + (game.alpha,), lambda: optimum(game))
        problems += _cost_problem("optimum", payload["optimum"]["social_cost"], best_value)
        opt_buys = _profile_masks(payload["optimum"]["profile"], game.n)
        if social_cost(game, opt_buys) != best_value:
            problems.append("the optimum profile does not attain the optimum cost")
        return problems

    def _check_optimum(self, request, payload) -> list[str]:
        game = Game(_read(request["game"]))
        best_value, mask = self._cached(("opt",) + game.key + (game.alpha,), lambda: optimum(game))
        problems = _cost_problem("social_cost", payload["social_cost"], best_value)
        edges = mask_edges(game.n, mask)
        if payload["edges"] != edges:
            problems.append(f"edges {payload['edges']} are not the lowest-mask minimizer {edges}")
        lower_pays = [[j for i2, j in edges if i2 == i] for i in range(game.n)]
        if payload["profile"] != lower_pays:
            problems.append("profile is not the lower-endpoint-pays reading of the edges")
        if (payload["n"], payload["R"], Fraction(payload["alpha"])) != (game.n, game.R, game.alpha):
            problems.append("the echoed game parameters differ from the input")
        return problems

    def _check_dynamics(self, request, rc, stdout) -> list[str]:
        game_text, matrix_text = _read(request["game"]), _read(request["matrix"])
        game, F = Game(game_text), Matrix(matrix_text)
        payload = json.loads(stdout)
        outcome = payload["outcome"]
        expected_rc = {"converged": 0, "cycle": 3, "cutoff": 4}.get(outcome)
        if rc != expected_rc:
            return [f"exit code {rc!r} does not match outcome {outcome!r}"]
        schedule = request.get("schedule") or list(range(game.n))
        return dynamics_problems(game, F, payload, schedule, request["max_steps"])

    def _check_lemma(self, request, rc, stdout) -> list[str]:
        claim = LEMMA_NAMES[request["lemma"]]
        verdicts = json.loads(stdout)
        problems = []
        if len(verdicts) != LEMMA_VERDICTS[claim]:
            problems.append(f"{len(verdicts)} verdicts, expected {LEMMA_VERDICTS[claim]}")
        if any(v["claim"] != claim for v in verdicts):
            problems.append("a verdict names another claim")
        failing = sorted(v["point"] for v in verdicts if not v["ok"])
        expected_failing = sorted(LEMMA_FAILING.get(claim, ()))
        if failing != expected_failing:
            problems.append(f"failing points {failing}, expected {expected_failing}")
        if any(not v["ok"] and not v["counterexample"] for v in verdicts):
            problems.append("a failing verdict carries no counterexample")
        expected_rc = 1 if expected_failing else 0
        if rc != expected_rc:
            problems.append(f"exit code {rc!r}, expected {expected_rc}")
        return problems


def dynamics_problems(game: Game, F: Matrix, payload: dict, schedule, max_steps: int) -> list[str]:
    """Replay best-response dynamics from the empty profile, with players
    taking turns in schedule order.

    Each reported step must be the next scheduled player with a strict
    improvement, moving to its earliest best response with the right
    delta.  The outcome must be true of the replayed run: converged ends
    at an equilibrium, cutoff has a move left after max_steps, and cycle
    revisits both the profile and the next schedule position.
    """
    n = game.n
    denom = game.scale * F.scale
    state = tuple([0] * n)
    pos = 0
    history = [(state, pos)]
    steps = payload["steps"]
    for k, step in enumerate(steps):
        # scan the schedule from pos for the first player with a strict move
        for turn in range(n + 1):
            if turn == n:
                return [f"step {k}: nobody can improve, yet a move is reported"]
            player = schedule[(pos + turn) % n]
            best, best_cost, current = best_response(game, F, state, player)
            if best_cost < current:
                break
        if step["player"] != player:
            return [f"step {k}: player {step['player']} moved, expected player {player}"]
        if step["old"] != bits(state[player]) or step["new"] != bits(best):
            return [f"step {k}: move {step['old']} -> {step['new']}, expected {bits(state[player])} -> {bits(best)}"]
        delta = dual_text(
            Fraction(best_cost[0] - current[0], denom), Fraction(best_cost[1] - current[1], denom)
        )
        if not isinstance(step["delta"], dict) or step["delta"].get("exact") != delta:
            return [f"step {k}: delta {step['delta']!r}, expected {delta}"]
        state = state[:player] + (best,) + state[player + 1 :]
        pos = (pos + turn + 1) % n
        history.append((state, pos))
    if payload["final"] != _masks_json(state):
        return [f"final profile {payload['final']} is not the replayed {_masks_json(state)}"]
    movers = []
    for player in range(n):
        _, best_cost, current = best_response(game, F, state, player)
        if best_cost < current:
            movers.append(player)
    outcome = payload["outcome"]
    if outcome == "converged":
        if movers:
            return [f"converged, but players {movers} can still strictly improve"]
        return []
    if outcome == "cutoff":
        if len(steps) != max_steps or not movers:
            return [f"cutoff after {len(steps)} of {max_steps} steps with movers {movers}"]
        return []
    if outcome == "cycle":
        index = payload["cycle_index"]
        if not isinstance(index, int) or not 0 <= index < len(steps):
            return [f"cycle index {index!r} out of range"]
        first = history.index(history[-1]) if history[-1] in history[:-1] else None
        if first is None:
            same_profile = [t for t, (s, _) in enumerate(history[:-1]) if s == state]
            if not same_profile:
                return [f"cycle reported at step {len(steps)}, but its profile never occurred before"]
            return [
                f"cycle reported at step {len(steps)}: the profile recurs from state "
                f"{same_profile} but the next schedule position ({pos}) does not, "
                "so the dynamics do not repeat"
            ]
        if first != index:
            return [f"cycle index {index}, but the run first reached this state at {first}"]
        return []
    return [f"unknown outcome {outcome!r}"]


# Claims catalog on the default grid: verdict counts and the pinned
# criterion-01 failures of the monarchy closed form (alpha < 1, n >= 3).
LEMMA_NAMES = {
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
LEMMA_VERDICTS = {
    "row-scaling-invariance": 16,
    "uniform-society-optima": 8,
    "optimum-topology": 17,
    "isolated-equilibrium": 96,
    "regular-graph-equilibrium": 120,
    "bounded-tree-equilibrium": 96,
    "edge-rule-equilibrium-existence": 128,
    "adjacency-correspondence": 60,
    "anarchy-monarchy-closed-forms": 30,
    "windfall-of-friendship": 384,
    "price-of-ill-will": 384,
    "worst-equilibrium-friendship-monotonicity": 384,
}
LEMMA_FAILING = {
    "anarchy-monarchy-closed-forms": tuple(
        f"n={n} alpha={alpha}" for n in (3, 4, 5, 6) for alpha in ("1/4", "1/2")
    ),
}

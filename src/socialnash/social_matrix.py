"""Preference matrices: how much each player weighs every player's cost.

Row i of the matrix gives player i's outlook: entry (i, j) is the weight
player i places on player j's out-of-pocket cost.  The induced subjective
cost of a strategy profile for player i is the row-weighted sum of actual
costs.  Scaling a whole row by a positive constant leaves the induced
preferences unchanged, which is what normalize exploits.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from .dual import Dual, ONE, ZERO, format_weight, parse_weight

__all__ = [
    "SocialRangeMatrix",
    "SocietyProfile",
    "DegenerateMatrixError",
    "build_archetype",
    "ARCHETYPES",
    "load_matrix",
    "matrix_payload",
    "dump_matrix_json",
    "dump_matrix_csv",
]


_MINUS_ONE = Dual(-1)


class DegenerateMatrixError(ValueError):
    """No entry has a nonzero standard part, so there is no scale anchor.

    For the fully zero matrix every player is indifferent between all
    outcomes and every profile is an equilibrium; every_profile_pne
    records whether that stronger fact actually holds.
    """

    def __init__(self, every_profile_pne: bool):
        super().__init__("matrix has no entry with a nonzero standard part")
        self.every_profile_pne = every_profile_pne


def _as_weight(value) -> Dual:
    if isinstance(value, str):
        return parse_weight(value)
    return Dual.of(value)


@dataclass(frozen=True)
class SocietyProfile:
    """Classification result for a matrix."""

    selfish: bool = False
    altruistic: bool = False
    malicious: bool = False
    monarchy_center: int | None = None
    benevolent_player: int | None = None
    one_malicious_player: int | None = None
    ignorant_players: tuple[int, ...] = ()
    ignored_players: tuple[int, ...] = ()
    colluding_pairs: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class SocialRangeMatrix:
    entries: tuple[tuple[Dual, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Dual.of(v) for v in row) for row in self.entries)
        n = len(rows)
        if n == 0:
            raise ValueError("matrix needs at least one player")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, pos: tuple[int, int]) -> Dual:
        i, j = pos
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Dual, ...]:
        return self.entries[i]

    @classmethod
    def from_rows(cls, rows) -> "SocialRangeMatrix":
        return cls(tuple(tuple(_as_weight(v) for v in row) for row in rows))

    def scale_row(self, i: int, factor) -> "SocialRangeMatrix":
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError("row scaling factor must be positive")
        rows = list(self.entries)
        rows[i] = tuple(v * factor for v in rows[i])
        return SocialRangeMatrix(tuple(rows))

    def normalize(self) -> "SocialRangeMatrix":
        """Divide every entry by the largest |standard part| in the matrix.

        Afterwards all standard parts lie in [-1, 1]; eps coefficients are
        divided by the same factor, so preferences are unchanged row-wise.
        """
        peak = max(abs(v.std) for row in self.entries for v in row)
        if peak == 0:
            all_zero = all(v == ZERO for row in self.entries for v in row)
            raise DegenerateMatrixError(every_profile_pne=all_zero)
        return SocialRangeMatrix(
            tuple(tuple(v / peak for v in row) for row in self.entries)
        )

    def flip_entries(self, flips, require_zero: bool = True) -> "SocialRangeMatrix":
        """Return a copy with entries (i, j) replaced by new values.

        flips is an iterable of (i, j, value) triples.  With require_zero
        the current entry must be exactly 0, which is what the friendship
        and ill-will experiments demand.
        """
        seen = set()
        rows = [list(row) for row in self.entries]
        for i, j, value in flips:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"flip position ({i}, {j}) out of range")
            if (i, j) in seen:
                raise ValueError(f"duplicate flip position ({i}, {j})")
            seen.add((i, j))
            if require_zero and rows[i][j] != ZERO:
                raise ValueError(
                    f"entry ({i}, {j}) is {rows[i][j]}, not 0; refusing to flip"
                )
            rows[i][j] = _as_weight(value)
        return SocialRangeMatrix(tuple(tuple(row) for row in rows))

    # -- classification -------------------------------------------------

    def classify(self) -> SocietyProfile:
        """Name the societies the matrix is, and its ignorant, ignored and
        colluding players.

        A society matches when the matrix equals its build_archetype form,
        with the diagonal entries that society leaves free taken from the
        matrix: for a monarchy the common non-center diagonal value and the
        center's own entry, for a benevolent player its own entry.
        """
        n = self.n
        e = self.entries
        monarchy_center = benevolent_player = one_malicious_player = None
        if n >= 2:
            # e[k - 1][k - 1] is a non-center diagonal entry for every k
            monarchy_center = next(
                (
                    k
                    for k in range(n)
                    if self
                    == build_archetype(
                        "monarchy", n, k=k, self_weight=e[k - 1][k - 1]
                    ).flip_entries([(k, k, e[k][k])], require_zero=False)
                ),
                None,
            )
            benevolent_player = next(
                (
                    k
                    for k in range(n)
                    if self == build_archetype("benevolent", n, k=k, self_weight=e[k][k])
                ),
                None,
            )
            one_malicious_player = next(
                (k for k in range(n) if self == build_archetype("one_malicious", n, k=k)),
                None,
            )

        ignorant = tuple(i for i in range(n) if all(v == ZERO for v in e[i]))
        ignored = tuple(
            j for j in range(n) if all(e[i][j] == ZERO for i in range(n))
        )

        colluding = tuple(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if self._colludes(i, j)
        )

        return SocietyProfile(
            selfish=self == build_archetype("identity", n),
            altruistic=self == build_archetype("altruistic", n),
            malicious=self == build_archetype("malicious", n),
            monarchy_center=monarchy_center,
            benevolent_player=benevolent_player,
            one_malicious_player=one_malicious_player,
            ignorant_players=ignorant,
            ignored_players=ignored,
            colluding_pairs=colluding,
        )

    def _colludes(self, i: int, j: int) -> bool:
        """True when row i = factor * row j for some rational factor > 0.

        The factor is forced by the first position where row j is nonzero;
        every position is then verified exactly.  Two all-zero rows collude
        with factor 1.
        """
        ri, rj = self.entries[i], self.entries[j]
        factor = None
        for a, b in zip(ri, rj):
            if b.std != 0:
                factor = a.std / b.std
                break
            if b.eps != 0:
                factor = a.eps / b.eps
                break
            if a != ZERO:
                return False
        if factor is None:
            return True
        if factor <= 0:
            return False
        return all(
            a.std == b.std * factor and a.eps == b.eps * factor
            for a, b in zip(ri, rj)
        )


def build_archetype(kind: str, n: int, *, k: int | None = None, self_weight=None) -> SocialRangeMatrix:
    """Construct one of the named societies on n players.

    kind: "identity", "altruistic", "malicious", "monarchy", "benevolent",
    "one_malicious".  k picks the distinguished player where one exists.
    self_weight overrides diagonal entries where the society leaves them
    free: every diagonal for altruistic and monarchy, entry (k, k) for
    benevolent.
    """
    if n < 1:
        raise ValueError("need at least one player")
    if kind in ("identity", "malicious", "one_malicious") and self_weight is not None:
        raise ValueError(f"{kind} has a fixed diagonal")
    needs_k = kind in ("monarchy", "benevolent", "one_malicious")
    if needs_k:
        if k is None:
            k = 0
        if not 0 <= k < n:
            raise ValueError(f"player index {k} out of range")
    elif k is not None:
        raise ValueError(f"{kind} takes no distinguished player")

    sw = None if self_weight is None else _as_weight(self_weight)
    one, zero, neg = ONE, ZERO, _MINUS_ONE

    if kind == "identity":
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    elif kind == "altruistic":
        rows = [[one] * n for _ in range(n)]
        if sw is not None:
            for i in range(n):
                rows[i][i] = sw
    elif kind == "malicious":
        rows = [[one if i == j else neg for j in range(n)] for i in range(n)]
    elif kind == "monarchy":
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][k] = one
        if sw is not None:
            for i in range(n):
                rows[i][i] = sw
    elif kind == "benevolent":
        rows = [[zero] * n for _ in range(n)]
        for j in range(n):
            rows[k][j] = one
        if sw is not None:
            rows[k][k] = sw
    elif kind == "one_malicious":
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for j in range(n):
            if j != k:
                rows[k][j] = neg
    else:
        raise ValueError(f"unknown archetype {kind!r}")
    return SocialRangeMatrix(tuple(tuple(row) for row in rows))


ARCHETYPES = (
    "identity",
    "altruistic",
    "malicious",
    "monarchy",
    "benevolent",
    "one_malicious",
)


# -- serialization ------------------------------------------------------


def matrix_payload(matrix: SocialRangeMatrix) -> dict:
    """The JSON-ready form of a matrix: its size and canonical entry tokens."""
    return {
        "n": matrix.n,
        "entries": [[format_weight(v) for v in row] for row in matrix.entries],
    }


def dump_matrix_json(matrix: SocialRangeMatrix) -> str:
    return json.dumps(matrix_payload(matrix), indent=2, sort_keys=True) + "\n"


def dump_matrix_csv(matrix: SocialRangeMatrix) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for row in matrix.entries:
        writer.writerow([format_weight(v) for v in row])
    return buffer.getvalue()


def _load_json(text: str) -> SocialRangeMatrix:
    payload = json.loads(text)
    entries = payload["entries"]
    if "n" in payload and payload["n"] != len(entries):
        raise ValueError("declared size does not match the entry grid")
    return SocialRangeMatrix.from_rows(entries)


def _load_csv(text: str) -> SocialRangeMatrix:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise ValueError("empty matrix input")
    return SocialRangeMatrix.from_rows(rows)


def load_matrix(text: str) -> SocialRangeMatrix:
    """Read a matrix from JSON or CSV text, sniffing the format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _load_json(text)
    return _load_csv(text)

"""Preference matrix construction, normalization, and classification."""

import random
from fractions import Fraction
from itertools import product

import pytest

from socialnash.dual import EPS, ONE, ZERO, Dual, parse_weight
from socialnash.social_matrix import (
    ARCHETYPES,
    DegenerateMatrixError,
    SocialRangeMatrix,
    build_archetype,
    dump_matrix_csv,
    dump_matrix_json,
    load_matrix,
)


def mat(rows):
    return SocialRangeMatrix.from_rows(rows)


def grid(matrix):
    return [[matrix[i, j] for j in range(matrix.n)] for i in range(matrix.n)]


# -- construction ---------------------------------------------------------


def test_rows_accept_tokens_and_numbers():
    m = mat([["1/2", 1], [EPS, "1-eps"]])
    assert m[0, 0] == Dual(Fraction(1, 2))
    assert m[0, 1] == ONE
    assert m[1, 0] == EPS
    assert m[1, 1] == Dual(1, -1)
    assert m.row(0) == (Dual(Fraction(1, 2)), ONE)


def test_matrix_must_be_square():
    with pytest.raises(ValueError, match="square"):
        mat([[1, 0], [0]])
    with pytest.raises(ValueError, match="at least one player"):
        SocialRangeMatrix(())


# -- archetypes -----------------------------------------------------------


def test_identity_archetype():
    m = build_archetype("identity", 3)
    assert grid(m) == [
        [ONE, ZERO, ZERO],
        [ZERO, ONE, ZERO],
        [ZERO, ZERO, ONE],
    ]


def test_monarchy_with_tiny_self_interest():
    m = build_archetype("monarchy", 3, k=0, self_weight=EPS)
    assert grid(m) == [
        [EPS, ZERO, ZERO],
        [ONE, EPS, ZERO],
        [ONE, ZERO, EPS],
    ]


def test_monarchy_default_center_and_diagonal():
    m = build_archetype("monarchy", 3)
    # without an override the center keeps weight 1 on itself and the
    # other diagonal entries stay 0
    assert grid(m) == [
        [ONE, ZERO, ZERO],
        [ONE, ZERO, ZERO],
        [ONE, ZERO, ZERO],
    ]


def test_remaining_archetypes():
    neg = Dual(-1)
    assert grid(build_archetype("altruistic", 2)) == [[ONE, ONE], [ONE, ONE]]
    assert grid(build_archetype("malicious", 2)) == [[ONE, neg], [neg, ONE]]
    assert grid(build_archetype("benevolent", 3, k=1, self_weight="1/2")) == [
        [ZERO, ZERO, ZERO],
        [ONE, Dual(Fraction(1, 2)), ONE],
        [ZERO, ZERO, ZERO],
    ]
    assert grid(build_archetype("one_malicious", 3, k=2)) == [
        [ONE, ZERO, ZERO],
        [ZERO, ONE, ZERO],
        [neg, neg, ONE],
    ]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(kind="identity", n=2, self_weight=1), "fixed diagonal"),
        (dict(kind="identity", n=2, k=0), "no distinguished player"),
        (dict(kind="monarchy", n=2, k=5), "out of range"),
        (dict(kind="nonsense", n=2), "unknown archetype"),
        (dict(kind="identity", n=0), "at least one player"),
    ],
)
def test_archetype_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        build_archetype(kwargs.pop("kind"), kwargs.pop("n"), **kwargs)


def test_archetype_names_are_buildable():
    for kind in ARCHETYPES:
        assert build_archetype(kind, 3).n == 3


# -- normalize and row scaling ---------------------------------------------


def test_normalize_divides_by_peak_magnitude():
    m = mat([[2, 1], [0, 4]]).normalize()
    assert grid(m) == [
        [Dual(Fraction(1, 2)), Dual(Fraction(1, 4))],
        [ZERO, ONE],
    ]


def test_normalize_uses_absolute_value_and_scales_eps():
    m = mat([["-4", "2*eps"], [1, 2]]).normalize()
    assert m[0, 0] == Dual(-1)
    assert m[0, 1] == Dual(0, Fraction(1, 2))
    assert m[1, 1] == Dual(Fraction(1, 2))


def test_normalize_is_idempotent():
    m = mat([["1/3", "-2"], [0, "1/2+eps"]])
    once = m.normalize()
    assert once[0, 1] == Dual(-1)
    assert grid(once.normalize()) == grid(once)


def test_zero_matrix_is_degenerate_and_every_profile_is_stable():
    with pytest.raises(DegenerateMatrixError) as info:
        mat([[0, 0], [0, 0]]).normalize()
    assert info.value.every_profile_pne is True


def test_eps_only_matrix_is_degenerate_but_not_indifferent():
    with pytest.raises(DegenerateMatrixError) as info:
        mat([["eps", 0], [0, "-eps"]]).normalize()
    assert info.value.every_profile_pne is False


def test_scale_row():
    m = mat([[1, "1/2"], [0, 1]])
    scaled = m.scale_row(0, 7)
    assert grid(scaled) == [
        [Dual(7), Dual(Fraction(7, 2))],
        [ZERO, ONE],
    ]
    assert grid(m.scale_row(1, "1/3"))[1] == [ZERO, Dual(Fraction(1, 3))]
    for bad in (0, -2, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="must be positive"):
            m.scale_row(0, bad)


# -- entry flips ------------------------------------------------------------


def test_flip_entries():
    m = build_archetype("identity", 3)
    flipped = m.flip_entries([(0, 1, 1), (2, 0, "-1")])
    assert flipped[0, 1] == ONE
    assert flipped[2, 0] == Dual(-1)
    assert flipped[1, 2] == ZERO
    # the source matrix is untouched
    assert m[0, 1] == ZERO


def test_flip_requires_zero_target_by_default():
    m = build_archetype("identity", 2)
    with pytest.raises(ValueError, match="refusing to flip"):
        m.flip_entries([(0, 0, -1)])
    relaxed = m.flip_entries([(0, 0, "1/2")], require_zero=False)
    assert relaxed[0, 0] == Dual(Fraction(1, 2))


def test_flip_position_validation():
    m = build_archetype("identity", 2)
    with pytest.raises(ValueError, match="out of range"):
        m.flip_entries([(0, 5, 1)])
    with pytest.raises(ValueError, match="duplicate flip"):
        m.flip_entries([(0, 1, 1), (0, 1, -1)])


# -- classification ---------------------------------------------------------


def test_classify_archetypes():
    assert build_archetype("identity", 3).classify().selfish
    assert build_archetype("altruistic", 3).classify().altruistic
    assert build_archetype("malicious", 3).classify().malicious
    assert build_archetype("monarchy", 4, k=2).classify().monarchy_center == 2
    assert build_archetype("benevolent", 3, k=1).classify().benevolent_player == 1
    profile = build_archetype("one_malicious", 3, k=0).classify()
    assert profile.one_malicious_player == 0
    assert not profile.malicious


def test_classify_is_specific():
    selfish = build_archetype("identity", 3).classify()
    assert not selfish.altruistic
    assert not selfish.malicious
    assert selfish.monarchy_center is None
    assert selfish.ignorant_players == ()
    assert selfish.ignored_players == ()
    assert selfish.colluding_pairs == ()


def test_classify_ignorant_monarchy_combination():
    # the center cares about nobody, everyone else has a grain of
    # self-interest: still a monarchy, and the center is ignorant
    m = mat([[0, 0, 0], ["1", "eps", 0], ["1", 0, "eps"]])
    profile = m.classify()
    assert profile.monarchy_center == 0
    assert profile.ignorant_players == (0,)
    assert profile.ignored_players == ()


def test_classify_ignored_player():
    profile = mat([[1, 0], [0, 0]]).classify()
    assert profile.ignorant_players == (1,)
    assert profile.ignored_players == (1,)


_SOCIETY_FIELDS = (
    "selfish",
    "altruistic",
    "malicious",
    "monarchy_center",
    "benevolent_player",
    "one_malicious_player",
)

_WEIGHTS = ("0", "1", "-1", "eps", "1/2")


def _society_oracle(m):
    """The six named-society fields, decided entry by entry."""
    n, e = m.n, m.entries
    one, neg = Dual(1), Dual(-1)
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    unit_diagonal = all(e[i][i] == one for i in range(n))
    fields = {
        "selfish": unit_diagonal and all(e[i][j] == ZERO for i, j in off),
        "altruistic": all(v == one for row in e for v in row),
        "malicious": unit_diagonal and all(e[i][j] == neg for i, j in off),
        "monarchy_center": None,
        "benevolent_player": None,
        "one_malicious_player": None,
    }
    if n < 2:
        return fields
    for k in range(n):
        # 1 from everyone in column k, 0 elsewhere off the diagonal; the
        # non-center diagonal entries agree and (k, k) is free
        if all(e[i][j] == (one if j == k else ZERO) for i, j in off) and (
            len({e[i][i] for i in range(n) if i != k}) == 1
        ):
            fields["monarchy_center"] = k
            break
    for k in range(n):
        # 1 across row k, every other row 0 throughout; (k, k) is free
        if all(
            e[i][j] == (one if i == k else ZERO)
            for i in range(n)
            for j in range(n)
            if (i, j) != (k, k)
        ):
            fields["benevolent_player"] = k
            break
    for k in range(n):
        if unit_diagonal and all(e[i][j] == (neg if i == k else ZERO) for i, j in off):
            fields["one_malicious_player"] = k
            break
    return fields


def _classify_cases():
    """Every archetype for n = 1..4 with each k and self-weight, every
    single-entry perturbation of those, and 20,000 random matrices."""
    weights = [parse_weight(w) for w in _WEIGHTS]
    bases = []
    for n in range(1, 5):
        for kind in ARCHETYPES:
            ks = range(n) if kind in ("monarchy", "benevolent", "one_malicious") else (None,)
            fixed = kind in ("identity", "malicious", "one_malicious")
            self_weights = (None,) if fixed else (None, *weights)
            bases.extend(
                build_archetype(kind, n, k=k, self_weight=sw)
                for k in ks
                for sw in self_weights
            )
    yield from bases
    for m in bases:
        for i, j in product(range(m.n), repeat=2):
            for w in weights:
                if w != m[i, j]:
                    yield m.flip_entries([(i, j, w)], require_zero=False)
    rng = random.Random(2010)
    for _ in range(20000):
        n = rng.randint(1, 4)
        yield mat([[rng.choice(weights) for _ in range(n)] for _ in range(n)])


def test_classify_matches_the_entrywise_rules():
    for m in dict.fromkeys(_classify_cases()):
        profile = m.classify()
        got = {field: getattr(profile, field) for field in _SOCIETY_FIELDS}
        assert got == _society_oracle(m), grid(m)


def test_colluding_rows_share_a_positive_factor():
    profile = mat([[1, "1/2", 0], [2, 1, 0], [0, 0, 1]]).classify()
    assert profile.colluding_pairs == ((0, 1),)


def test_collusion_rejects_negative_factor_and_detects_eps_rows():
    assert mat([[1, 0], [-2, 0]]).classify().colluding_pairs == ()
    m = mat([["eps", 1], ["2*eps", 2]])
    assert m.classify().colluding_pairs == ((0, 1),)
    zeros = mat([[0, 0], [0, 0]])
    assert zeros.classify().colluding_pairs == ((0, 1),)


# -- serialization ------------------------------------------------------------


def test_json_round_trip():
    m = mat([["1/2", "eps"], ["-1", "1-2*eps"]])
    text = dump_matrix_json(m)
    assert text.endswith("\n")
    assert grid(load_matrix(text)) == grid(m)


def test_csv_round_trip_and_sniffing():
    m = build_archetype("monarchy", 3, self_weight=EPS)
    text = dump_matrix_csv(m)
    assert text.splitlines()[0] == "eps,0,0"
    assert grid(load_matrix(text)) == grid(m)


def test_load_rejects_inconsistent_size():
    with pytest.raises(ValueError, match="declared size"):
        load_matrix('{"n": 3, "entries": [["1"]]}')
    with pytest.raises(ValueError, match="empty matrix"):
        load_matrix("")
    # whitespace-only input fails at the token level instead
    with pytest.raises(ValueError, match="empty weight token"):
        load_matrix("   ")


def test_loaded_tokens_match_parser():
    text = "1,1/2+eps\n0,-eps\n"
    m = load_matrix(text)
    assert m[0, 1] == parse_weight("1/2+eps")
    assert m[1, 1] == parse_weight("-eps")

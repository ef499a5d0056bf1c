"""Command-line behavior: outputs, exit codes, determinism."""

import json
import shutil
import subprocess
from fractions import Fraction

import pytest

from socialnash.cli import main
from socialnash.dual import EPS
from socialnash.netgame import (
    NetGameConfig,
    UtilitySpec,
    dump_config_json,
    dump_profile_json,
    make_profile,
    parse_dot,
)
from socialnash.social_matrix import build_archetype, dump_matrix_csv, dump_matrix_json


def write_config(tmp_path, name, n, alpha, R=1, g=None):
    config = NetGameConfig(n=n, alpha=Fraction(alpha), R=R, g=g or UtilitySpec.linear())
    path = tmp_path / name
    path.write_text(dump_config_json(config), encoding="utf-8")
    return str(path), config


def write_matrix(tmp_path, name, matrix):
    path = tmp_path / name
    text = dump_matrix_json(matrix) if name.endswith(".json") else dump_matrix_csv(matrix)
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def identity3(tmp_path):
    return write_matrix(tmp_path, "id3.csv", build_archetype("identity", 3))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- enumerate -------------------------------------------------------------


def test_enumerate_stdout_json(tmp_path, capsys, identity3):
    game, _ = write_config(tmp_path, "game.json", 3, "3/2")
    code, payload = run_json(capsys, ["enumerate", "--game", game, "--matrix", identity3])
    assert code == 0
    assert payload["method"] == "edge-rule"
    assert payload["pne_count"] == 1
    assert payload["pne"][0]["profile"] == [[], [], []]
    assert payload["pne"][0]["social_cost"] == {"exact": "0", "decimal": 0.0}
    assert payload["optimum"]["social_cost"] == {"exact": "-3/2", "decimal": -1.5}
    assert payload["worst_pne_cost"]["exact"] == "0"
    assert payload["topologies"] == [
        {"edges": [], "multiplicity": 1, "social_cost": {"exact": "0", "decimal": 0.0}}
    ]


def test_enumerate_full_method_and_out_file(tmp_path, capsys, identity3):
    game, _ = write_config(tmp_path, "game.json", 3, "1/2")
    out = tmp_path / "report.json"
    code = main(
        ["enumerate", "--game", game, "--matrix", identity3, "--method", "full", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["method"] == "full"
    assert payload["pne_count"] == 8
    assert payload["best_pne_cost"] == {"exact": "-9/2", "decimal": -4.5}


def test_enumerate_rejects_malformed_weight(tmp_path, capsys):
    game, _ = write_config(tmp_path, "game.json", 2, "1/2")
    bad = tmp_path / "bad.csv"
    bad.write_text("1+eps+eps,0\n0,1\n", encoding="utf-8")
    code = main(["enumerate", "--game", game, "--matrix", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "more than one eps term" in err


def test_enumerate_size_caps_exit_two(tmp_path, capsys):
    game6, _ = write_config(tmp_path, "game6.json", 6, "1/2")
    matrix6 = write_matrix(tmp_path, "id6.csv", build_archetype("identity", 6))
    assert main(["enumerate", "--game", game6, "--matrix", matrix6]) == 2
    assert "cap of 5" in capsys.readouterr().err

    assert (
        main(["enumerate", "--game", game6, "--matrix", matrix6, "--method", "full"])
        == 2
    )
    assert "cap of 5" in capsys.readouterr().err


def test_enumerate_full_search_at_five_players(tmp_path, capsys):
    game, _ = write_config(tmp_path, "game5.json", 5, "3/2", R=2)
    matrix = write_matrix(tmp_path, "alt5.csv", build_archetype("altruistic", 5))
    code, payload = run_json(
        capsys, ["enumerate", "--game", game, "--matrix", matrix, "--method", "full"]
    )
    assert code == 0
    assert payload["method"] == "full"
    assert payload["pne_count"] == 624


def test_enumerate_full_search_family_guard_exit_two(tmp_path, capsys):
    game, _ = write_config(tmp_path, "game5.json", 5, "1/2", R=2)
    matrix = tmp_path / "zero5.csv"
    matrix.write_text("0,0,0,0,0\n" * 5, encoding="utf-8")
    assert main(["enumerate", "--game", game, "--matrix", str(matrix)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "materialization guard" in captured.err


def test_enumerate_size_mismatch_exit_one(tmp_path, capsys, identity3):
    game, _ = write_config(tmp_path, "game.json", 4, "1/2")
    assert main(["enumerate", "--game", game, "--matrix", identity3]) == 1
    assert "matrix is 3x3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, g",
    [
        ("enumerate", UtilitySpec.sqrt()),
        ("optimum", UtilitySpec.power(Fraction(3, 2))),
        ("dynamics", UtilitySpec.sqrt()),
    ],
    ids=("enumerate", "optimum", "dynamics"),
)
def test_inexact_utilities_are_rejected_up_front(tmp_path, capsys, identity3, command, g):
    game, _ = write_config(tmp_path, "game.json", 3, "1/2", g=g)
    argv = [command, "--game", game]
    if command != "optimum":
        argv += ["--matrix", identity3]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error:")
    assert "sqrt or fractional power" in captured.err


def test_missing_file_exit_one(tmp_path, capsys, identity3):
    assert main(["enumerate", "--game", str(tmp_path / "nope.json"), "--matrix", identity3]) == 1
    assert "error:" in capsys.readouterr().err


# -- optimum ---------------------------------------------------------------


def test_optimum_star_with_dot(tmp_path, capsys):
    game, _ = write_config(tmp_path, "game.json", 4, "3/2", R=2)
    dot = tmp_path / "optimum.dot"
    code, payload = run_json(capsys, ["optimum", "--game", game, "--dot", str(dot)])
    assert code == 0
    assert payload["edges"] == [[0, 1], [0, 2], [0, 3]]
    assert payload["profile"] == [[1, 2, 3], [], [], []]
    assert payload["social_cost"] == {"exact": "-15/2", "decimal": -7.5}
    text = dot.read_text()
    assert '0 -- 1 [payer="0"];' in text
    empty = frozenset()
    assert parse_dot(text).buys == (frozenset({1, 2, 3}), empty, empty, empty)


def test_optimum_empty_for_expensive_links(tmp_path, capsys):
    game, _ = write_config(tmp_path, "game.json", 4, "3")
    code, payload = run_json(capsys, ["optimum", "--game", game])
    assert code == 0
    assert payload["edges"] == []
    assert payload["social_cost"]["exact"] == "0"


def test_optimum_reads_the_documented_power_key(tmp_path, capsys):
    game = tmp_path / "game.json"
    game.write_text(
        json.dumps({"n": 3, "alpha": "3/2", "R": 1, "g": {"kind": "power", "p": "2"}}),
        encoding="utf-8",
    )
    code, payload = run_json(capsys, ["optimum", "--game", str(game)])
    assert code == 0
    # the triangle: 3 links at 3/2 against three groups of size 2, each worth 4
    assert payload["edges"] == [[0, 1], [0, 2], [1, 2]]
    assert payload["profile"] == [[1, 2], [2], []]
    assert payload["social_cost"] == {"exact": "-15/2", "decimal": -7.5}


# -- dynamics ---------------------------------------------------------------


def test_dynamics_converges_to_monarchy_star(tmp_path, capsys):
    game, _ = write_config(tmp_path, "game.json", 4, "3")
    crown = write_matrix(tmp_path, "crown.json", build_archetype("monarchy", 4, self_weight=EPS))
    dot = tmp_path / "final.dot"
    code, payload = run_json(
        capsys, ["dynamics", "--game", game, "--matrix", crown, "--dot", str(dot)]
    )
    assert code == 0
    assert payload["outcome"] == "converged"
    assert payload["cycle_index"] is None
    assert payload["final"] == [[], [0], [0], [0]]
    assert [step["player"] for step in payload["steps"]] == [1, 2, 3]
    assert payload["steps"][0]["delta"]["exact"] == "-1+2*eps"
    assert '0 -- 1 [payer="1"];' in dot.read_text()


def test_dynamics_cycle_exit_three(tmp_path, capsys):
    game, _ = write_config(tmp_path, "game.json", 2, "1/2")
    grudge = tmp_path / "grudge.csv"
    grudge.write_text("1,0\n0,-1\n", encoding="utf-8")
    code = main(["dynamics", "--game", game, "--matrix", str(grudge)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["outcome"] == "cycle"
    assert payload["cycle_index"] == 0
    assert [step["player"] for step in payload["steps"]] == [0, 1, 0, 1]
    assert payload["final"] == [[], []]


def test_dynamics_cutoff_exit_four(tmp_path, capsys):
    game, _ = write_config(tmp_path, "game.json", 2, "1/2")
    grudge = tmp_path / "grudge.csv"
    grudge.write_text("1,0\n0,-1\n", encoding="utf-8")
    code = main(
        ["dynamics", "--game", game, "--matrix", str(grudge), "--max-steps", "3"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["outcome"] == "cutoff"
    assert len(payload["steps"]) == 3


def test_dynamics_custom_schedule_and_start(tmp_path, capsys):
    game, config = write_config(tmp_path, "game.json", 3, "1/2")
    matrix = write_matrix(tmp_path, "id3.csv", build_archetype("identity", 3))
    start = tmp_path / "start.json"
    start.write_text(dump_profile_json(make_profile("clique", config)), encoding="utf-8")
    code, payload = run_json(
        capsys,
        [
            "dynamics",
            "--game",
            game,
            "--matrix",
            matrix,
            "--start",
            str(start),
            "--schedule",
            "2,1,0",
        ],
    )
    assert code == 0
    assert payload["steps"] == []
    assert payload["final"] == [[1, 2], [2], []]


def test_dynamics_bad_schedule_exit_one(tmp_path, capsys, identity3):
    game, _ = write_config(tmp_path, "game.json", 3, "1/2")
    code = main(["dynamics", "--game", game, "--matrix", identity3, "--schedule", "0,1"])
    assert code == 1
    assert "visit every player" in capsys.readouterr().err


# -- experiments -----------------------------------------------------------


def test_experiment_comparison_grid(tmp_path, capsys):
    code, payload = run_json(
        capsys,
        ["experiment", "--kind", "anarchy-monarchy", "--n", "4", "--alpha", "3/2", "--alpha", "3"],
    )
    assert code == 0
    assert [entry["winner"] for entry in payload] == ["monarchy", "anarchy"]
    assert payload[0]["monarchy"]["cost"]["exact"] == "-3/2"
    assert payload[0]["star"]["claim_holds"] is True
    assert payload[0]["additional_equilibrium"] is None


def test_experiment_comparison_fails_below_unit_price(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code = main(
        [
            "experiment",
            "--kind",
            "anarchy-monarchy",
            "--n",
            "4",
            "--alpha",
            "1/2",
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 1
    assert capsys.readouterr().out == ""
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("n,alpha,anarchy_cost")
    assert lines[1].startswith("4,1/2,-9,")
    assert ",false," in lines[1]


def test_experiment_windfall_default_point(capsys):
    code, payload = run_json(
        capsys, ["experiment", "--kind", "windfall", "--flip", "0:1"]
    )
    assert code == 0
    assert payload[0]["direction"] == "friendship"
    assert payload[0]["alpha"] == "3/2"
    assert payload[0]["worst_delta"]["exact"] == "-1/2"
    assert payload[0]["worst_ok"] is True
    assert payload[0]["flipped_matrix"]["entries"][0][1] == "1"


def test_experiment_ill_will_mutual_flip(capsys):
    code, payload = run_json(
        capsys,
        ["experiment", "--kind", "ill-will", "--flip", "0:1", "--flip", "1:0"],
    )
    assert code == 0
    assert payload[0]["direction"] == "ill_will"
    assert payload[0]["alpha"] == "1/2"
    assert payload[0]["worst_delta"]["exact"] == "3/2"


def test_experiment_windfall_runs_every_n(capsys):
    argv = ["experiment", "--kind", "windfall", "--flip", "0:1"]
    single = main(argv + ["--n", "3"])
    single_out = capsys.readouterr().out
    code, payload = run_json(capsys, argv + ["--n", "3", "--n", "4"])
    assert single == code == 0
    assert [r["n"] for r in payload] == [3, 4]
    assert json.loads(single_out) == payload[:1]
    # one --n prints what the default point prints
    main(argv)
    assert capsys.readouterr().out == single_out


def test_experiment_windfall_requires_flips(capsys):
    assert main(["experiment", "--kind", "windfall"]) == 1
    assert "non-empty set" in capsys.readouterr().err


def test_experiment_flip_syntax(capsys):
    assert main(["experiment", "--kind", "windfall", "--flip", "01"]) == 1
    assert "not of the form i:j" in capsys.readouterr().err


def test_experiment_verify_single_lemma_green(tmp_path, capsys):
    csv_path = tmp_path / "verdicts.csv"
    code = main(
        [
            "experiment",
            "--kind",
            "verify-lemmas",
            "--lemma",
            "4",
            "--n",
            "3",
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "claim,point,precondition,conclusion,ok,note,counterexample"
    assert all(",true," in line for line in lines[1:])


def test_experiment_verify_lemma_nine_red_cells(tmp_path, capsys):
    csv_path = tmp_path / "verdicts.csv"
    code = main(
        [
            "experiment",
            "--kind",
            "verify-lemmas",
            "--lemma",
            "9",
            "--n",
            "4",
            "--alpha",
            "1/2",
            "--alpha",
            "3",
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 1
    lines = csv_path.read_text().splitlines()
    failing = [line for line in lines[1:] if ",false," in line]
    assert len(failing) == 1
    assert failing[0].startswith("anarchy-monarchy-closed-forms,n=4 alpha=1/2")


def test_experiment_verify_json_payload(capsys):
    code, payload = run_json(
        capsys,
        ["experiment", "--kind", "verify-lemmas", "--lemma", "7", "--alpha", "3/2"],
    )
    assert code == 0
    assert all(entry["ok"] for entry in payload)
    assert payload[0]["claim"] == "edge-rule-equilibrium-existence"


def test_experiment_unknown_lemma_exit_one(capsys):
    assert main(["experiment", "--kind", "verify-lemmas", "--lemma", "zzz"]) == 1
    assert "unknown lemma id" in capsys.readouterr().err


# -- classify ---------------------------------------------------------------


def test_classify_monarchy(tmp_path, capsys):
    crown = write_matrix(tmp_path, "crown.json", build_archetype("monarchy", 4, self_weight=EPS))
    code, payload = run_json(capsys, ["classify", "--matrix", crown])
    assert code == 0
    assert payload == {
        "altruistic": False,
        "benevolent_player": None,
        "colluding_pairs": [],
        "ignorant_players": [],
        "ignored_players": [],
        "malicious": False,
        "monarchy_center": 0,
        "n": 4,
        "one_malicious_player": None,
        "selfish": False,
    }


# -- global behavior ----------------------------------------------------------


def test_outputs_are_deterministic(tmp_path, capsys, identity3):
    game, _ = write_config(tmp_path, "game.json", 3, "1/2")
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert main(["enumerate", "--game", game, "--matrix", identity3, "--out", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()

    rows_a = tmp_path / "a.csv"
    rows_b = tmp_path / "b.csv"
    for out in (rows_a, rows_b):
        assert (
            main(
                [
                    "experiment",
                    "--kind",
                    "verify-lemmas",
                    "--lemma",
                    "4",
                    "--n",
                    "3",
                    "--csv",
                    str(out),
                ]
            )
            == 0
        )
    assert rows_a.read_bytes() == rows_b.read_bytes()


def test_console_script_entry_point(tmp_path):
    if shutil.which("socialnash") is None:
        pytest.skip("console script not on PATH")
    crown = write_matrix(tmp_path, "crown.json", build_archetype("monarchy", 3, self_weight=EPS))
    done = subprocess.run(
        ["socialnash", "classify", "--matrix", crown],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["monarchy_center"] == 0

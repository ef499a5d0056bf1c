"""Check that the benchmark's oracle catches wrong answers.

    python3 bench/selftest.py

Runs socialnash on a few inputs, confirms the oracle accepts the true
outputs, then corrupts them and confirms each corruption is flagged:
an equilibrium dropped from an enumerate report, a converged dynamics
run relabeled as a cycle, a wrong optimum cost, a flipped lemma verdict.
It also runs the instance pinned for ROADMAP defect 1, where the program
itself reports a cycle that does not repeat, and expects the oracle to
reject that output.  Exit code 0 when every check behaves.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
from oracle import Oracle  # noqa: E402

import socialnash.cli as cli  # noqa: E402


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _write(folder: Path, name: str, payload) -> str:
    path = folder / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    return str(path)


def main() -> int:
    oracle = Oracle()
    results = []

    def expect(label, problems, flagged):
        ok = bool(problems) == flagged
        results.append(ok)
        verdict = "flagged" if problems else "accepted"
        print(f"{'PASS' if ok else 'FAIL'} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))

    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)

        # enumerate: drop one equilibrium, keeping the count consistent
        game, rows = gen.full_search_population()[2]
        request = {
            "kind": "enumerate",
            "game": _write(folder, "fs.game.json", game),
            "matrix": _write(folder, "fs.matrix.csv", gen.csv_text(rows)),
        }
        rc, out = _run(["enumerate", "--game", request["game"], "--matrix", request["matrix"], "--method", "full"])
        expect("enumerate, true report", oracle.check(request, rc, out), flagged=False)
        report = json.loads(out)
        report["pne"].pop(len(report["pne"]) // 2)
        report["pne_count"] -= 1
        expect("enumerate, one equilibrium dropped", oracle.check(request, rc, json.dumps(report)), flagged=True)

        # optimum: a cost one unit too high
        request = {"kind": "optimum", "game": _write(folder, "opt.game.json", gen.game_config(5, "3/2", 2, {"kind": "linear"}))}
        rc, out = _run(["optimum", "--game", request["game"]])
        expect("optimum, true answer", oracle.check(request, rc, out), flagged=False)
        answer = json.loads(out)
        answer["social_cost"]["exact"] = str(int(answer["social_cost"]["exact"].split("/")[0]) + 1)
        expect("optimum, wrong cost", oracle.check(request, rc, json.dumps(answer)), flagged=True)

        # dynamics: a converged run reported as a cycle back to the start
        game, rows = gen.dynamics_population()[0]
        request = {
            "kind": "dynamics",
            "game": _write(folder, "dyn.game.json", game),
            "matrix": _write(folder, "dyn.matrix.csv", gen.csv_text(rows)),
            "max_steps": 200,
        }
        rc, out = _run(["dynamics", "--game", request["game"], "--matrix", request["matrix"], "--max-steps", "200"])
        expect("dynamics, true trace", oracle.check(request, rc, out), flagged=False)
        trace = json.loads(out)
        trace["outcome"], trace["cycle_index"] = "cycle", 0
        expect("dynamics, cycle that does not repeat", oracle.check(request, 3, json.dumps(trace)), flagged=True)

        # ROADMAP defect 1: the program reports a cycle keyed on the profile
        # alone; the schedule position differs, so nothing repeats
        request = {
            "kind": "dynamics",
            "game": _write(folder, "d1.game.json", gen.game_config(3, "3/2", 2, {"kind": "table", "values": ["0", "3", "1"]})),
            "matrix": _write(folder, "d1.matrix.csv", "1,-1/2,0\n-1,-eps,0\n1,0,0\n"),
            "max_steps": 100,
        }
        rc, out = _run(["dynamics", "--game", request["game"], "--matrix", request["matrix"]])
        expect(f"dynamics, ROADMAP defect 1 instance (program says {json.loads(out)['outcome']})",
               oracle.check(request, rc, out), flagged=json.loads(out)["outcome"] == "cycle")

        # lemmas: one verdict flipped to a failure
        request = {"kind": "lemma", "lemma": "4"}
        rc, out = _run(["experiment", "--kind", "verify-lemmas", "--lemma", "4"])
        expect("lemma 4, true verdicts", oracle.check(request, rc, out), flagged=False)
        verdicts = json.loads(out)
        verdicts[0]["ok"] = False
        expect("lemma 4, one verdict flipped", oracle.check(request, 1, json.dumps(verdicts)), flagged=True)

    print(f"{sum(results)} of {len(results)} checks behaved")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

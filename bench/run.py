"""socialnash benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N

A run generates its inputs from the seed (gen.py) and plays one client in
a closed loop: each request goes through `socialnash.cli.main(argv)` in a
worker process, and the next is sent only when the previous one is done.
Every pass of requests runs in a fresh worker, so each starts with the
cold caches a command-line invocation has.  Every pass sends the same
requests in a new order; passes repeat until the timed phase has lasted
--seconds, and at least three times.  Throughput and latency come from
each request's median time over the passes.  Afterwards the exact oracle
(oracle.py), which shares no code with socialnash, checks every output.

--trace 0 reports the end-to-end metrics.  --trace 1 also sends pass 0
again through a traced worker (tracer.py) and reports the per-layer
metrics.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  `--workload all` runs every workload both ways and
prints all of it.  Inputs go to .bench_work/ in the checkout and are
deleted at the end; traced spans stay in .bench_work/spans-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracer import MOVES  # noqa: E402

# set-up samples taken before each pass, so they spread over the run
IMPORTS_PER_PASS = 2
# at least this many passes, so every request has a median of three
MIN_PASSES = 3
# stop adding passes after this long, whatever --seconds says, and give
# up on a run (exit code 1, no result) that is still going after RUN_LIMIT_S
PHASE_LIMIT_S = 100
RUN_LIMIT_S = 170


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "n/a (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        return "n/a (packed ref)"
    return ref


def _worker(root: Path, deadline: float, *extra) -> subprocess.CompletedProcess:
    # subprocess.run kills and reaps the worker when the time is up
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(root), *extra],
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
        check=False,
    )


def _run_pass(root: Path, deadline: float, requests, path: Path, trace: bool) -> dict:
    request_file = path.with_suffix(".requests.json")
    result_file = path.with_suffix(".result.json")
    request_file.write_text(json.dumps(requests), encoding="utf-8")
    extra = ["--requests", str(request_file), "--result", str(result_file)]
    proc = _worker(root, deadline, *extra, *(["--trace"] if trace else []))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(result_file.read_text(encoding="utf-8"))


def _import_s(root: Path, deadline: float) -> float:
    """Time to import socialnash.cli in a fresh worker."""
    proc = _worker(root, deadline, "--import-only")
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)["import_s"]


def run_workload(root: Path, work: Path, workload: str, seed: int, seconds: int, trace: bool):
    """One run; returns (report lines, attempted, failed, metrics)."""
    why = {w["name"]: w["why"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]}
    lines = [
        f"workload {workload}: {why[workload]}",
        "load: closed loop, 1 client, 1 thread; each pass of requests in a fresh worker process",
    ]
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    setup = []
    if not trace:
        _import_s(root, deadline)  # may write bytecode caches; not counted
    groups = gen.make_inputs(workload, seed, work / "inputs")
    passes = []
    wall = 0.0
    while len(passes) < MIN_PASSES or (wall < seconds and time.perf_counter() - started < PHASE_LIMIT_S):
        k = len(passes)
        if not trace:
            setup += [_import_s(root, deadline) for _ in range(IMPORTS_PER_PASS)]
        requests = gen.pass_order(workload, seed, k, groups)
        result = _run_pass(root, deadline, requests, work / f"pass{k}", trace=False)
        passes.append((requests, result))
        wall += result["wall_s"]
    traced = None
    if trace:
        traced = _run_pass(root, deadline, passes[0][0], work / "traced", trace=True)

    # every output is checked, outside the timed region
    oracle = Oracle()
    checked = list(passes) + ([(passes[0][0], traced)] if traced else [])
    attempted = failed = 0
    for requests, result in checked:
        for request, row in zip(requests, result["rows"]):
            attempted += 1
            problems = oracle.check(request, row["rc"], row["stdout"])
            if problems:
                failed += 1
                detail = problems[0] if row["rc"] != "exception" else row["stderr"].strip().splitlines()[-1]
                lines.append(f"FAILED {request['id']} (exit {row['rc']}): {detail}")

    # each request ran once per pass; its median time damps slow spells
    # of a shared host that hit one pass
    times: dict = {}
    for _, result in passes:
        for row in result["rows"]:
            times.setdefault(row["id"], []).append(row["latency_s"])
    medians = [statistics.median(v) for v in times.values()]
    n_req = sum(len(v) for v in times.values())
    lines.append(
        f"timed phase: {len(passes)} passes of {len(times)} requests, {wall:.3f} s wall, "
        f"{n_req / wall:.4g} requests/s overall"
    )
    lines.append(f"failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted} requests, traced pass included)")
    if not trace:
        metrics = {
            "requests_per_s": (len(medians) / sum(medians), "1/s", f"{len(medians)} requests x {len(passes)} passes, per-request medians"),
            "latency_p50_s": (statistics.median(medians), "s", f"{len(medians)} requests x {len(passes)} passes, per-request medians"),
            "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh imports"),
            "peak_rss_mb": (
                statistics.median(res["maxrss_mb"] for _, res in passes),
                "MB",
                f"median of {len(passes)} workers",
            ),
        }
        lines.append(f"{'metric':<24} {'value':>14} {'unit':<6} samples")
        for name, (value, unit, samples) in metrics.items():
            lines.append(f"{name:<24} {value:>14.6g} {unit:<6} {samples}")
        return lines, attempted, failed, {k: (v, u) for k, (v, u, _) in metrics.items()}

    cpu = sum(res["cpu_s"] for _, res in passes)
    layer = traced["trace"]["metrics"]
    layer["process.cpu_frac"] = (cpu / wall, "ratio")
    traced_s = sum(row["latency_s"] for row in traced["rows"])
    layer["trace.overhead_frac"] = (traced_s / sum(medians) - 1, "ratio")
    spans_file = root / ".bench_work" / f"spans-{workload}-{seed}.json"
    spans_file.write_text(json.dumps(traced["trace"]["spans"]), encoding="utf-8")
    lines.append(f"traced run: pass 0 again, {len(traced['trace']['spans'])} spans in {spans_file.relative_to(root)}")
    lines.append(f"{'per-layer metric':<44} {'value':>14} {'unit':<6} moves")
    for name, pair in layer.items():
        value = "MISSING" if pair is None else f"{pair[0]:>14.6g}"
        unit = "" if pair is None else pair[1]
        lines.append(f"{name:<44} {value:>14} {unit:<6} {MOVES.get(name, '')}")
    for name, why in {**traced["trace"]["missing"], **traced["trace"]["partial"]}.items():
        lines.append(f"note {name}: {why}")
    metrics = {name: tuple(pair) for name, pair in layer.items() if pair is not None}
    return lines, attempted, failed, metrics


def _result_json(attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "socialnash" / "cli.py").is_file():
        print(f"error: no socialnash sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"socialnash benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"host: python {platform.python_version()}, nproc {os.cpu_count()}, git {_git_sha(ROOT)}")
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    if args.workload != "all":
        lines, attempted, failed, metrics = run_workload(
            ROOT, work, args.workload, args.seed, args.seconds, bool(args.trace)
        )
        print("\n".join(lines))
        print(_result_json(attempted, failed, metrics))
        return 0
    total_attempted = total_failed = 0
    merged = {}
    for workload in gen.WORKLOADS:
        for trace in (False, True):
            lines, attempted, failed, metrics = run_workload(
                ROOT, work, workload, args.seed, args.seconds, trace
            )
            print("\n".join(lines), flush=True)
            total_attempted += attempted
            total_failed += failed
            merged.update({f"{workload}/{name}": pair for name, pair in metrics.items()})
    print(_result_json(total_attempted, total_failed, merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark worker: a fresh interpreter that plays one client.

It times `import socialnash.cli`, then sends the requests of one pass in
a closed loop, each through `socialnash.cli.main(argv)` in this process,
capturing exit code, stdout and wall time.  With --trace the layers are
wrapped first (see tracer.py).  The result, outputs included, goes to a
JSON file; checking the outputs is left to the caller.

    python3 bench/worker.py --root ROOT --requests REQ.json --result OUT.json [--trace]
    python3 bench/worker.py --root ROOT --import-only
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_cli(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import socialnash.cli as cli

    elapsed = time.perf_counter() - start
    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"socialnash was imported from {where}, not from {src}")
    return cli, elapsed


def _peak_rss_mb() -> float:
    """Peak resident set of this process since it started.

    VmHWM covers this program image only; ru_maxrss on Linux also keeps
    the high-water mark of the parent process that forked the worker."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _send(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    except Exception:  # a crash is a failed request, not a failed benchmark
        rc = "exception"
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--requests")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    cli, import_s = _import_cli(Path(args.root))
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    requests = json.loads(Path(args.requests).read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    rows = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for request in requests:
        if tracer:
            tracer.request = request["id"]
        rc, latency, out, err = _send(cli, request["argv"])
        rows.append({"id": request["id"], "rc": rc, "latency_s": latency, "stdout": out, "stderr": err})
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    result = {
        "import_s": import_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_mb": _peak_rss_mb(),
        "rows": rows,
    }
    if tracer:
        metrics = tracer.metrics()
        metrics["cli.bytes_out"] = (sum(len(r["stdout"].encode()) for r in rows), "bytes")
        result["trace"] = {
            "metrics": metrics,
            "missing": tracer.missing,
            "partial": tracer.partial,
            "spans": tracer.spans,
        }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run ``gradedalg equiv`` at sizes the tests do not reach, one process per point.

    python3 tools/scale.py

The points are k[x]/(x^11), k[x]/(x^13) and the Nakayama algebra N(6,5) of
``perfbench.inputs``.  Each runs twice, each time in a fresh process, which
writes the algebra file and calls ``cli.main(["equiv", file, "--out",
report])`` on it: once untraced, so the process's peak RSS is that of one
certificate, and once with tracemalloc on around the ``cli.main`` call,
whose traced peak counts the live Python and numpy memory of the call
alone, not where the allocator placed it.  One JSON line is printed per
point: the exit code, the wall time of the untraced ``cli.main`` call,
ru_maxrss of the untraced process in MB, the tracemalloc peak in MiB, and
the SHA-256 of the report's ``results`` field, re-encoded as the CLI
encodes it (compact JSON).  The traced run must give the same exit code and
hash, or the script exits 1.  The hash does not depend on the host, so two
commits that must give the same answers give the same three hashes; the
times and sizes do depend on it.  No options; the checkout's ``src`` is
imported ahead of any installed copy.
"""

import hashlib
import json
import multiprocessing
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gradedalg import cli, corpus, fileio
from perfbench.inputs import nakayama

POINTS = {
    "k[x]/(x^11)": lambda: corpus.truncated_poly(11),
    "k[x]/(x^13)": lambda: corpus.truncated_poly(13),
    "N(6,5)": lambda: nakayama(6, 5),
}


def _point(point: str, traced: bool, conn) -> None:
    """Certify one point in this process, under tracemalloc when ``traced``,
    and send back its line."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "A.json", Path(tmp) / "equiv.json"
        fileio.save(path, POINTS[point]())
        if traced:
            tracemalloc.start()
        start = time.perf_counter()
        code = cli.main(["equiv", str(path), "--out", str(out)])
        wall = time.perf_counter() - start
        if traced:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        results = json.loads(out.read_text())["results"]
    text = json.dumps(results, separators=(",", ":"))
    line = {"point": point, "code": code, "results_sha256": hashlib.sha256(text.encode()).hexdigest()}
    if traced:
        line["tracemalloc_peak_mib"] = round(peak / 2**20, 1)
    else:
        line["wall_s"] = round(wall, 3)
        line["maxrss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    conn.send(line)


def _run(ctx, point: str, traced: bool) -> dict:
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_point, args=(point, traced, send))
    proc.start()
    send.close()
    line = recv.recv()
    proc.join()
    return line


def main() -> int:
    ctx = multiprocessing.get_context("spawn")
    status = 0
    for point in POINTS:
        line, traced = _run(ctx, point, False), _run(ctx, point, True)
        if (traced["code"], traced["results_sha256"]) != (line["code"], line["results_sha256"]):
            print(f"{point}: the traced run gave {traced}", file=sys.stderr)
            status = 1
        line["tracemalloc_peak_mib"] = traced["tracemalloc_peak_mib"]
        print(json.dumps(line), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

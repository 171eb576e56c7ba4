"""Run ``gradedalg equiv`` at sizes the tests do not reach, one process per point.

    python3 tools/scale.py

The points are k[x]/(x^11), k[x]/(x^13) and the Nakayama algebra N(6,5) of
``perfbench.inputs``.  Each runs in a fresh process, which writes the
algebra file and calls ``cli.main(["equiv", file, "--out", report])`` on
it, so the process's peak RSS is that of one certificate.  One JSON line is
printed per point: the exit code, the wall time of the ``cli.main`` call,
ru_maxrss of the process in MB, and the SHA-256 of the report's
``results`` field, re-encoded as the CLI encodes it (compact JSON).  The
hash does not depend on the host, so two commits that must give the same
answers give the same three hashes; the times and sizes do depend on it.
No options; the checkout's ``src`` is imported ahead of any installed copy.
"""

import hashlib
import json
import multiprocessing
import resource
import sys
import tempfile
import time
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


def _point(point: str, conn) -> None:
    """Certify one point in this process and send back its line."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "A.json", Path(tmp) / "equiv.json"
        fileio.save(path, POINTS[point]())
        start = time.perf_counter()
        code = cli.main(["equiv", str(path), "--out", str(out)])
        wall = time.perf_counter() - start
        results = json.loads(out.read_text())["results"]
    text = json.dumps(results, separators=(",", ":"))
    conn.send(
        {
            "point": point,
            "code": code,
            "wall_s": round(wall, 3),
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "results_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    )


def main() -> int:
    ctx = multiprocessing.get_context("spawn")
    for point in POINTS:
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_point, args=(point, send))
        proc.start()
        send.close()
        line = recv.recv()
        proc.join()
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

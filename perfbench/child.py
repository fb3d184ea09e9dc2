"""Run one p2o command in this fresh process and record what it cost.

Usage: python3 child.py REQUEST.json

The request names the checkout root, the p2o argument list, whether to trace,
and where to write the result. Only the command's in-process call is timed;
interpreter start and imports are not. Peak RSS is this process's own, so it
belongs to this one command and never to input generation.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(request_path):
    req = json.loads(Path(request_path).read_text())
    sys.path.insert(0, str(Path(req["root"]) / "src"))
    import part2object
    from part2object import cli

    tracer = None
    if req["trace"]:
        from tracing import Tracer

        tracer = Tracer(req["run_id"])
        tracer.install(part2object)

    start = time.perf_counter()
    try:
        code = cli.main(req["argv"])
    except SystemExit as exc:  # argparse rejects the argument list
        code = exc.code
    wall_s = time.perf_counter() - start

    result = {
        "exit": code,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"], result["missing"] = tracer.metrics()
        tracer.dump(req["spans"])
    Path(req["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])

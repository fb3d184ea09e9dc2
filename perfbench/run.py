"""Benchmark of the p2o command line on three fixed workloads.

    python3 perfbench/run.py --workload room --seed 7 --seconds 15 --trace 0

Run from the root of a source checkout. One run:

1. set-up: writes the workload's inputs for the seed at least SETUP_REPS
   times, and again while the set-ups so far took under SETUP_SECONDS, and
   reports the median time (``setup_s``); every copy must be byte-identical;
2. measurement: a closed loop with one client runs the workload's p2o
   command on each input in turn, again and again, each time in a fresh
   child process that only reads its input from disk. It starts no command
   that would end after ``--seconds``, but always runs at least two commands
   and every input once;
3. checks: every command must exit 0 and pass the output checks in
   checks.py, and every artifact must be byte-identical to the first
   command on the same input by the same source tree, in this run or an
   earlier one (digests are kept in .perfbench/digests/);
4. report: a table of every metric on stdout, then, as the last line, one
   JSON object with the end-to-end metrics of BENCHMARK.json (``--trace 0``)
   or its per-layer metrics (``--trace 1``).

With ``--trace 1`` the loop alternates untraced and traced commands; the
traced ones wrap the library's functions (tracing.py) and their spans are
written to .perfbench/spans/ when the run ends. The end-to-end metrics are
always taken from untraced commands.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
SETUP_MAX_REPS = 9
SETUP_SECONDS = 3.0
COMMAND_TIMEOUT_S = 120


def parse_args(argv, workload_names, run_seconds):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: workloads.DEFAULT_SEED)")
    p.add_argument("--seconds", type=float, default=run_seconds,
                   help="measurement budget in seconds (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy-sized inputs, for the self-test only")
    return p.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """State of one benchmark run: its work directory and its records."""

    def __init__(self, workload, seed, toy, trace):
        self.workload = workload
        self.seed = seed
        self.toy = toy
        self.trace = trace
        self.run_id = uuid.uuid4().hex[:12]
        self.state = ROOT / ".perfbench"
        self.work = self.state / f"work-{workload.name}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.problems = []
        self.records = []  # one dict per command: traced, wall_s, peak_rss_mb, ...
        self.setup_times = []
        self.input_digests = {}
        self.spans = []

    # -- set-up ------------------------------------------------------------

    def set_up(self):
        for k in range(SETUP_MAX_REPS):
            if k >= SETUP_REPS and sum(self.setup_times) >= SETUP_SECONDS:
                break
            dest = self.work / f"setup{k}"
            start = time.perf_counter()
            for i in range(self.workload.n_inputs):
                self.workload.write_input(self.seed, i, dest / f"input_{i}", self.toy)
            self.setup_times.append(time.perf_counter() - start)
            got = checks.digests(dest)
            if k == 0:
                self.input_digests = got
                dest.rename(self.inputs)
            else:
                if got != self.input_digests:
                    self.problems.append(f"set-up {k} wrote different inputs")
                shutil.rmtree(dest)

    # -- measurement -------------------------------------------------------

    def command(self, index, which, traced):
        """Run the command on input `which` in a child; return its record."""
        inputs = self.inputs / f"input_{which}"
        out = self.work / f"out{index}"
        req_path = self.work / f"request{index}.json"
        result_path = self.work / f"result{index}.json"
        spans_path = self.work / f"spans{index}.json"
        req_path.write_text(json.dumps({
            "root": str(ROOT),
            "argv": self.workload.argv(inputs, out),
            "trace": traced,
            "run_id": f"{self.run_id}-{index}",
            "result": str(result_path),
            "spans": str(spans_path),
        }))
        env = dict(os.environ, P2O_LOG="WARNING")
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "child.py"), str(req_path)],
                              stdout=sys.stderr, env=env) as proc:
            try:
                proc.wait(timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - start

        record = {"input": which, "traced": traced, "elapsed": elapsed, "problems": []}
        if proc.returncode != 0 or not result_path.exists():
            record["problems"].append(f"child exited with {proc.returncode}")
            return record
        record.update(json.loads(result_path.read_text()))
        if record["exit"] != 0:
            record["problems"].append(f"p2o exited with {record['exit']}")
            return record
        try:
            if self.workload.kind == "run":
                record["problems"] += checks.check_run(inputs, out)
            else:
                record["problems"] += checks.check_eval(inputs, out / "report.json")
            record["report"] = json.loads((out / "report.json").read_text())
        except Exception as exc:  # malformed or missing artifacts fail the command
            record["problems"].append(f"output check raised {exc!r}")
        record["digests"] = checks.digests(out)
        if traced:
            self.spans.append(json.loads(spans_path.read_text()))
        shutil.rmtree(out)
        return record

    def measure(self, seconds):
        """Closed loop, one client. Traced runs pair each input's untraced
        command with a traced one, so the overhead compares like with like."""
        n = self.workload.n_inputs
        least = max(2, n)
        start = time.perf_counter()
        while True:
            k = len(self.records)
            which, traced = (k // 2 % n, k % 2 == 1) if self.trace else (k % n, False)
            self.records.append(self.command(k, which, traced))
            elapsed = time.perf_counter() - start
            typical = median([r["elapsed"] for r in self.records])
            if len(self.records) >= least and elapsed + typical > seconds:
                break
        self.check_identical()

    def check_identical(self):
        """Every command's artifacts equal the first ones made by the same
        source tree from the same inputs, in this run or an earlier one."""
        key = [checks.digests(ROOT / "src", "*.py"), self.input_digests]
        store = self.state / "digests" / (
            f"{self.workload.name}-{self.seed}{'-toy' if self.toy else ''}.json")
        known = json.loads(store.read_text()) if store.exists() else {}
        if known.get("source") != key:
            known = {"source": key, "inputs": {}}
        first = known["inputs"]
        for k, record in enumerate(self.records):
            if "digests" not in record:
                continue
            which = str(record["input"])
            if which not in first:
                first[which] = record["digests"]
            elif record["digests"] != first[which]:
                changed = set(record["digests"].items()) ^ set(first[which].items())
                record["problems"].append(
                    f"command {k}: artifacts differ from the first run of this seed: "
                    f"{sorted({path for path, _ in changed})[:5]}")
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(known))

    def close(self):
        if self.spans:
            spans_dir = self.state / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            name = f"{self.workload.name}-seed{self.seed}.json"
            (spans_dir / name).write_text(json.dumps(self.spans))
        shutil.rmtree(self.work, ignore_errors=True)

    # -- results -----------------------------------------------------------

    def results(self, bench):
        """(contract JSON object, every metric by name, metrics reported missing)."""
        untraced = [r for r in self.records if not r["traced"] and "wall_s" in r]
        traced = [r for r in self.records if r["traced"] and "layers" in r]
        failed = sum(1 for r in self.records if r["problems"])
        wall = median([r["wall_s"] for r in untraced])
        report = next((r["report"] for r in self.records
                       if r["input"] == 0 and "report" in r), {})
        rows = {
            "wall_s": wall,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            "setup_s": median(self.setup_times),
            "evaluation.ap25": report.get("ap25", 0.0),
            "evaluation.ap50": report.get("ap50", 0.0),
            "evaluation.map": report.get("map", 0.0),
            "fail_frac": failed / len(self.records),
        }
        missing = set()
        if traced:
            for name in traced[0]["layers"]:
                rows[name] = median([r["layers"][name] for r in traced])
            for r in traced:
                missing.update(r["missing"])
            traced_wall = median([r["wall_s"] for r in traced])
            rows["trace.overhead_frac"] = traced_wall / wall - 1.0 if wall else 0.0
            rows["trace.coverage_frac"] = (
                rows.pop("trace.top_level_s") / traced_wall if traced_wall else 0.0)
        wanted = bench["per_layer"] if self.trace else bench["end_to_end"]
        return {
            "correct": failed == 0 and not self.problems,
            "attempted": len(self.records),
            "failed": failed,
            "metrics": {m["name"]: {"value": rows.get(m["name"], 0.0), "unit": m["unit"]}
                        for m in wanted},
        }, rows, missing


def print_report(run, result, rows, missing, bench):
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    declared["fail_frac"] = {"unit": "frac", "better": "lower"}
    untraced = sum(1 for r in run.records if not r["traced"])
    print(f"workload {run.workload.name}  seed {run.seed}  commands {untraced} untraced"
          f" + {len(run.records) - untraced} traced  set-up x{len(run.setup_times)}")
    order = [m["name"] for m in bench["end_to_end"]] + [
        "evaluation.ap25", "evaluation.ap50", "evaluation.map", "fail_frac"] + [
        m["name"] for m in bench["per_layer"]]
    for name in dict.fromkeys(n for n in order if n in rows):
        value, m = rows[name], declared[name]
        flag = "  (missing)" if name in missing else ""
        print(f"  {name:<40} {value:>14.6g} {m['unit']:<6} {m['better']}{flag}")
    for problem in run.problems + [p for r in run.records for p in r["problems"]]:
        print(f"  FAIL: {problem}")
    print(json.dumps(result))


def main(argv=None):
    if not (ROOT / "src" / "part2object" / "__init__.py").is_file():
        print(f"error: no part2object sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, sorted(workloads.WORKLOADS), bench["run_seconds"])
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    run = Run(workloads.WORKLOADS[args.workload], seed, args.toy, bool(args.trace))
    try:
        run.set_up()
        run.measure(args.seconds)
        output = run.results(bench)
    finally:
        run.close()
    print_report(run, *output, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())

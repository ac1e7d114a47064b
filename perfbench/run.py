"""Benchmark of `twistorsec verify`: end-to-end metrics, or per-layer ones traced.

Run from the root of a twistorsec checkout:

    python3 perfbench/run.py --workload verify-default --seed 42 --seconds 30 --trace 0

Each run starts five set-up probes (which also run the torus pairing oracle)
and then whole rounds, one at a time, until ``--seconds`` have passed.  A
round is one fresh process running one `verify` command of the workload with
the given seed.  Its report is re-checked independently and hashed; every
round of a run must produce the same bytes.

With ``--trace 0`` the result holds ``verify_s``, ``setup_s`` and
``peak_rss_mb``, the medians over rounds (and probes, for set-up).  With
``--trace 1`` the rounds run traced and the result holds the per-layer
metrics of ``tracing.metric_names()``: exact counts, which must agree between
rounds, and the median of each time.

The last line on stdout is the result as JSON; a readable summary goes to
stderr.  The exit status is 0 when the outputs checked correct, 1 when they
did not, and 2 when the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from check import check_report
from tracing import metric_names
from workloads import WORKLOADS

PROBES = 5
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = (("verify_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
HERE = os.path.dirname(os.path.abspath(__file__))


class Run:
    """The state of one benchmark run: spawned processes and what they found."""

    def __init__(self, workload, seed: int, trace: bool, work_dir: str, src: str):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.work_dir, self.src = work_dir, src
        self.started = time.monotonic()
        self.attempted = self.failed = 0
        self.problems, self.notes, self.hashes = [], [], set()
        self.setups, self.verifies, self.rss, self.layers = [], [], [], []

    def _spawn(self, spec: dict):
        """Start one child, wait for it, and return its result, or None if it
        crashed or passed the deadline (noted, not counted as a problem)."""
        spec = dict(spec, src=self.src, seed=self.seed, trace=self.trace,
                    t0=time.monotonic())
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                capture_output=True, text=True, timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            self.notes.append(f"{spec['mode']} process passed the deadline")
            return None
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        self.notes.append(f"{spec['mode']} process exited {proc.returncode}: {tail[0]}")
        return None

    def probe(self, index: int):
        result = self._spawn({"mode": "probe", "probe": index, "argv": []})
        if result is None:
            self.problems.append(f"oracle pass {index} did not run")
            return
        self.setups.append(result["setup_s"])
        self.problems += result["oracle_problems"]

    def round(self):
        out_path = os.path.join(self.work_dir, "report.json")
        expected = sum(self.workload.min_records().values())
        result = self._spawn({"mode": "verify", "probe": None,
                              "argv": self.workload.argv(self.seed, out_path)})
        if result is None or not os.path.exists(out_path):
            # a crashed verify counts every record it should have made as failed
            self.attempted += expected
            self.failed += expected
            if result is not None:
                self.notes.append(f"verify returned {result['exit_code']} "
                                  "without writing a report")
            return
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.unlink(out_path)
        records, failed, problems = check_report(data.decode("utf-8"),
                                                 self.workload, self.seed)
        self.attempted += records
        self.failed += failed
        self.problems += problems
        if result["exit_code"] != (1 if failed else 0):
            self.problems.append(f"verify returned {result['exit_code']} "
                                 f"with {failed} failed records")
        self.hashes.add(hashlib.sha256(data).hexdigest())
        self.setups.append(result["setup_s"])
        self.verifies.append(result["verify_s"])
        self.rss.append(result["peak_rss_mb"])
        if "layers" in result:
            self.layers.append(result["layers"])

    def metrics(self) -> dict:
        if not self.verifies:
            return {}
        if not self.trace:
            values = {"verify_s": self.verifies, "setup_s": self.setups,
                      "peak_rss_mb": self.rss}
            return {name: {"value": statistics.median(values[name]), "unit": unit}
                    for name, unit in END_TO_END}
        out = {}
        for name, unit in metric_names():
            values = [layers[name] for layers in self.layers]
            if unit == "s":
                value = statistics.median(values)
            else:
                value = values[0]
                if len(set(values)) > 1:
                    self.problems.append(f"{name} differs between traced rounds: {values}")
            out[name] = {"value": value, "unit": unit}
        return out


def run(workload, seed: int, seconds: float, trace: bool, work_dir: str,
        src: str) -> Run:
    state = Run(workload, seed, trace, work_dir, src)
    for index in range(PROBES):
        state.probe(index)
    while not state.verifies or time.monotonic() - state.started < seconds:
        state.round()
        if state.attempted and not state.verifies:
            break  # the first round crashed: later ones would only repeat it
    if len(state.hashes) > 1:
        state.problems.append(f"rounds with one seed made {len(state.hashes)} "
                              "different reports")
    return state


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in an unsigned 64-bit integer, as verify's does")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "twistorsec", "cli.py")):
        print("perfbench: no src/twistorsec here; run from the root of a "
              "twistorsec checkout", file=sys.stderr)
        return 2
    out_root = os.path.join(root, ".perfbench_out")
    os.makedirs(out_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=out_root)
    try:
        state = run(WORKLOADS[args.workload], args.seed, args.seconds,
                    bool(args.trace), work_dir, src)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(out_root)  # left in place while another run uses it
        except OSError:
            pass

    metrics = state.metrics()
    correct = not state.problems and bool(metrics)
    for line in (state.notes + state.problems)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{len(state.verifies)} rounds, {len(state.setups)} set-ups, "
          f"{state.attempted} records attempted, {state.failed} failed, "
          f"report sha256 {' '.join(sorted(state.hashes)) or '-'}", file=sys.stderr)
    print(f"perfbench: {'traced ' if args.trace else ''}verify_s of each round: "
          + " ".join(f"{v:.3f}" for v in state.verifies), file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": max(state.attempted, 1),
                      "failed": state.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

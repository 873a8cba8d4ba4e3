"""symcart benchmark driver.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 36 --trace 0

Runs one workload (see ``workloads.py``) closed-loop with concurrency 1:
each op goes to a worker interpreter (``worker.py``) only after the
previous op has returned, so at most two processes are busy.  ``scan``
and ``catalog`` start a fresh worker per op, as each ``symcart`` call
does; ``session`` starts one per round, so every round sees the same
cache hits; ``decompose`` keeps one warm worker for the run.  The round
-- the seeded op list -- is repeated until ``--seconds`` have passed
since the run began, set-up included; an untraced run may then stop
mid-round, once every op has run.  Every op's output is checked
(``checks.py``); an op fails if it raises, exceeds its named time bound,
or fails its check.

With ``--trace 0`` the end-to-end metrics are measured.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and the metrics that BENCHMARK.json gates:

* ``setup_s``: median over every fresh worker (and five extra set-up
  probes) of the time from ``import symcart.cli`` to ``load_records()``;
* ``wall_s``: op time of one round, excluding set-up: each op's mean
  time over the run, summed over the round.  A run's length is fixed by
  ``--seconds``, so one round is the unit of work;
* ``op_p50_ms``: median op latency over every op of the run;
* ``peak_rss_mb``: a worker's peak RSS (``ru_maxrss`` after its last
  op), median over the workers that served ops.

The lines before it, prefixed ``#``, add ``op_p90_ms`` (decompose and
session, whose runs have >= 100 ops), ``pairs_per_s`` (scan) and
``fail_ratio``, which not every workload has or which can be 0, and
the workload's descriptor and the environment.

With ``--trace 1`` untraced and traced rounds alternate and the per-layer
metrics are printed instead: calls, self time and counters per round,
cache hit ratios, each layer's share of traced op time, and the tracing
overhead.  ``--smoke`` runs tiny rounds for the benchmark's own tests;
``--corrupt`` makes every expected value wrong, to show failures count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
# Named time bounds, in seconds.  An op that exceeds its bound is killed
# with its worker and counted as failed, so a hang cannot stall a run.
BOUNDS_S = {"setup": 30.0, "stats": 30.0, "scan_op": 60.0, "kp_op": 20.0,
            "enumerate_op": 30.0, "decompose_op": 20.0, "session_op": 5.0}
# No op starts later than this after the run began, and none runs past
# it, so that a run ends within 180 s even if ops hang.
RUN_BUDGET_S = 120.0


class WorkerError(RuntimeError):
    pass


class BoundExceeded(WorkerError):
    pass


class Worker:
    """One worker interpreter, spoken to in JSON lines."""

    def __init__(self, trace: bool, bound_s: float):
        cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else [])
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._buf = b""
        try:
            self.ready = self._receive("setup", bound_s)
        except WorkerError:
            self.kill()
            raise
        self.rss_kb = self.ready["rss_kb"]     # ru_maxrss after the last reply

    def request(self, obj: dict, bound: str, bound_s: float) -> dict:
        try:
            self.proc.stdin.write((json.dumps(obj) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerError(f"worker exited with code {self.proc.poll()}") from exc
        return self._receive(bound, bound_s)

    def _receive(self, bound: str, bound_s: float) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + bound_s
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BoundExceeded(f"exceeded time bound {bound} ({bound_s:.0f} s)")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise WorkerError(f"worker exited with code {self.proc.wait()}")
                self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def close(self):
        """End the worker and wait for it."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.kill()
        self.proc.stdout.close()

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass


class Run:
    """One benchmark run: rounds of a workload and what they measured."""

    def __init__(self, workload, ops, checker, trace, seconds, smoke):
        self.workload = workload
        self.ops = ops
        self.checker = checker
        self.trace = trace
        self.seconds = seconds
        self.smoke = smoke
        self.began = time.monotonic()
        self.deadline = self.began + RUN_BUDGET_S
        self.setup_s = []           # untraced fresh workers
        self.rss_kb = []            # untraced workers that served ops
        self.rounds = []            # dicts: traced, complete, op_s, pairs
        self.stats = []             # traced workers' tracer summaries
        self.attempted = 0
        self.failures = []
        self.workers = {False: None, True: None}   # live worker per tracing mode

    def _bound_s(self, bound):
        return max(0.0, min(BOUNDS_S[bound], self.deadline - time.monotonic()))

    def _start(self, traced):
        worker = Worker(traced, self._bound_s("setup"))
        if not traced:
            self.setup_s.append(worker.ready["setup_s"])
        return worker

    def _finish(self, worker, traced):
        if not traced:
            self.rss_kb.append(worker.rss_kb)
        try:
            if traced:
                self.stats.append(worker.request({"kind": "stats"}, "stats",
                                                 BOUNDS_S["stats"]))
        finally:
            worker.close()

    def probe_setup(self):
        for _ in range(1 if self.smoke else SETUP_PROBES):
            self._start(False).close()

    def _release(self, traced, scope):
        """Finish the worker of this tracing mode if its scope ends."""
        worker = self.workers[traced]
        if worker is not None and scope in (self.workload.worker_scope, "run"):
            self.workers[traced] = None
            self._finish(worker, traced)

    def round(self, traced: bool):
        record = {"traced": traced, "complete": True, "op_s": [], "pairs": 0}
        self.checker.new_round()
        for index, op in enumerate(self.ops):
            if (time.monotonic() >= self.deadline
                    or (not self.trace and self._done())):
                record["complete"] = False
                break
            self.attempted += 1
            error = None
            try:
                if self.workers[traced] is None:
                    self.workers[traced] = self._start(traced)
                started = time.monotonic()
                reply = self.workers[traced].request(op["request"], op["bound"],
                                                     self._bound_s(op["bound"]))
            except WorkerError as exc:     # also BoundExceeded
                worker, self.workers[traced] = self.workers[traced], None
                if worker is not None:
                    worker.kill()
                    if not traced:
                        self.rss_kb.append(worker.rss_kb)
                # a worker that failed to start took no op time
                error = str(exc)
                op_s = time.monotonic() - started if worker is not None else 0.0
            else:
                op_s = reply["op_s"]
                self.workers[traced].rss_kb = reply["rss_kb"]
                if reply["ok"]:
                    error = self.checker.check(op, reply["out"], index)
                    if op["bound"] == "scan_op":
                        out = reply["out"]
                        record["pairs"] += (out["distinguishable"] + out["blind"]
                                            + out["violations"] + out["undetermined"])
                else:
                    error = reply["error"]
            record["op_s"].append(op_s)
            if error:
                self.failures.append(f"op {index} {op['request']}: {error}"[:400])
            self._release(traced, "op")
        self._release(traced, "round")
        self.rounds.append(record)

    def _done(self):
        """--seconds have passed and an untraced round ran every op."""
        return (time.monotonic() - self.began >= self.seconds
                and any(r["complete"] and not r["traced"] for r in self.rounds))

    def execute(self):
        """Rounds until the run is done; traced, untraced and traced
        rounds alternate, and only whole pairs of them run."""
        try:
            while not self._done() and time.monotonic() < self.deadline:
                for traced in ((False, True) if self.trace else (False,)):
                    self.round(traced)
        finally:
            for traced, worker in self.workers.items():
                if worker is not None:
                    self._release(traced, "run")


def _round_s(rounds):
    """Op time of one round: each op's mean over the rounds that ran it,
    summed.

    All rounds run the same ops, so op i of every round is one op timed
    again; the mean per op also counts the ops of a round that the end
    of the run cut short.
    """
    width = max(len(r["op_s"]) for r in rounds)
    return sum(statistics.mean(r["op_s"][i] for r in rounds if i < len(r["op_s"]))
               for i in range(width))


def end_to_end(run: Run):
    rounds = [r for r in run.rounds if not r["traced"]]
    samples = [t for r in rounds for t in r["op_s"]]
    metrics = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "wall_s": (_round_s(rounds), "s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(run.rss_kb) / 1024, "MB"),
    }
    extra = {"fail_ratio": (len(run.failures) / run.attempted, "-")}
    if len(samples) >= 100:
        extra["op_p90_ms"] = (statistics.quantiles(samples, n=10)[8] * 1e3, "ms")
    if run.workload.name == "scan":
        extra["pairs_per_s"] = (sum(r["pairs"] for r in rounds) / sum(samples), "1/s")
    return metrics, extra


# Per-layer metrics.  Calls, self times and counters are per round
# (summed over the traced rounds, divided by their number), so they do
# not depend on how many rounds fit in a run.
_CALLS = ("rootsys.kp_enumerated", "catalog.instantiate", "homotopy.pi",
          "homotopy.profile", "abelian.compatible", "abelian.direct_sum",
          "recognize.distinguish_profiles", "cli.main")
_SELF = ("rootsys.kp_enumerated", "rootsys.positive_roots", "catalog.instantiate",
         "catalog.enumerate_catalog", "homotopy.load_records", "homotopy.pi",
         "homotopy.profile", "homotopy.consistency_violations",
         "abelian.compatible", "abelian.direct_sum", "recognize.corollary1_scan",
         "recognize.distinguish_profiles", "recognize.decompose", "cli.main",
         "cli.parse_space")
_COUNTERS = ("rootsys.roots_materialised", "catalog.spaces_enumerated",
             "homotopy.records_loaded", "recognize.scan.pairs",
             "recognize.decompose.results", "recognize.decompose.exact_checks",
             "cli.bytes_out")
_CACHES = ("rootsys.positive_roots", "catalog.instantiate", "homotopy.pi")
LAYERS = ("rootsys", "catalog", "homotopy", "recognize", "geom", "cli")


def per_layer(run: Run) -> dict:
    traced = [r for r in run.rounds if r["traced"]]
    n = len(traced)
    funcs, layers, counters, caches, absent = {}, {}, {}, {}, set()
    for s in run.stats:
        for name, row in s["funcs"].items():
            acc = funcs.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
        for bucket, src in ((layers, s["layers"]), (counters, s["counters"])):
            for name, v in src.items():
                bucket[name] = bucket.get(name, 0) + v
        for name, (hits, misses) in s["caches"].items():
            h, m = caches.get(name, (0, 0))
            caches[name] = (h + hits, m + misses)
        absent.update(s["absent"])

    m = {}
    for name in _CALLS:
        if name not in absent:
            m[f"{name}.calls"] = (funcs.get(name, [0])[0] / n, "count")
    for name in _SELF:
        if name not in absent:
            m[f"{name}.self_s"] = (funcs.get(name, [0, 0.0])[1] / n, "s")
    for name in _CACHES:
        if name in caches:
            hits, misses = caches[name]
            m[f"{name}.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                            "ratio")
    for name in _COUNTERS:
        m[name] = (counters.get(name, 0) / n, "count" if name != "cli.bytes_out" else "B")
    checks = counters.get("recognize.decompose.exact_checks", 0)
    m["recognize.decompose.yield_ratio"] = (
        counters.get("recognize.decompose.results", 0) / checks if checks else 0.0, "ratio")
    geom = [row for name, row in funcs.items() if name.startswith("geom.")]
    m["geom.calls"] = (sum(r[0] for r in geom) / n, "count")
    m["geom.self_s"] = (sum(r[1] for r in geom) / n, "s")
    op_total = funcs.get("bench.op", [0, 0.0, 0.0])[2]
    for layer in LAYERS + ("bench",):
        share = layers.get(layer, 0.0) / op_total if op_total else 0.0
        m[f"layer.{layer if layer != 'bench' else 'unattributed'}.share"] = (share, "ratio")
    untraced = [r for r in run.rounds if not r["traced"]]
    m["bench.trace_overhead_ratio"] = (_round_s(traced) / _round_s(untraced), "ratio")
    return m, sorted(absent)


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": _commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def _commit() -> str:
    """HEAD of the checkout's git repository, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "catalog", "decompose", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny rounds, for the benchmark's own tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="make every expected value wrong")
    args = parser.parse_args(argv)

    if not (SRC / "symcart" / "__init__.py").is_file():
        print(f"error: no symcart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import Checker, valid_pairs
    from workloads import WORKLOADS, descriptor, make_round

    workload = WORKLOADS[args.workload]
    ops = make_round(args.workload, args.seed, args.smoke)
    checker = Checker(args.corrupt)
    run = Run(workload, ops, checker, bool(args.trace), args.seconds, args.smoke)
    try:
        if not args.trace:
            run.probe_setup()
        run.execute()
    except WorkerError as exc:
        print(f"error: could not run symcart: {exc}", file=sys.stderr)
        return 1
    if not run.setup_s:
        print("error: no worker started", file=sys.stderr)
        return 1

    desc = descriptor(ops)
    if workload.name == "scan":
        desc["pairs"] = sum(valid_pairs(op["meta"]["max_dim"])[1] for op in ops)
    record = {"environment": environment(args), "descriptor": desc, "rounds": len(run.rounds),
              "attempted": run.attempted, "failed": len(run.failures)}
    if args.trace:
        metrics, absent = per_layer(run)
        record["absent"] = absent
    else:
        metrics, extra = end_to_end(run)
        record["extra"] = {k: v for k, (v, _) in extra.items()}
    print("# record " + json.dumps(record, sort_keys=True))
    shown = dict(metrics, **({} if args.trace else extra))
    for name, (value, unit) in shown.items():
        print(f"# {name:<44} {value:>14.6g} {unit}")
    for failure in run.failures[:10]:
        print(f"# FAILED {failure}")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

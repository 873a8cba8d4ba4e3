"""Benchmark worker: runs ops against symcart, one at a time.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It first reports its set-up time -- from ``import symcart.cli``
to ``homotopy.load_records()`` returning, what every CLI call pays --
then reads one JSON request per line on stdin and answers each with one
JSON line on stdout.  Only the call into symcart is timed; turning its
result into JSON happens after the clock stops.  The garbage collector
runs as it does in the CLI, so an op pays for what earlier ops left.
With ``--trace`` the layers are traced (see ``tracer.py``) and a
``stats`` request returns the reduced spans.
"""

import contextlib
import io
import json
import resource
import sys
import time

# A runaway op (say, k_P of a rank-1000 root system) fails with
# MemoryError here instead of exhausting the machine.
ADDRESS_SPACE_LIMIT = 2 << 30


def _rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:          # argparse rejects its input
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def main():
    trace = "--trace" in sys.argv[1:]
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    reply_to = sys.stdout

    def reply(obj):
        reply_to.write(json.dumps(obj) + "\n")
        reply_to.flush()

    start = time.perf_counter()
    import symcart.cli
    tracer = None
    invoke = lambda call: call()
    if trace:
        from tracer import OP, Tracer
        tracer = Tracer()
        tracer.install()
        invoke = tracer.wrap(OP, invoke)      # one root span per op
    from symcart import catalog, homotopy, recognize
    homotopy.load_records()
    reply({"setup_s": time.perf_counter() - start, "rss_kb": _rss_kb()})

    def prepare(request):
        """The call into symcart that a request asks for."""
        kind = request["kind"]
        if kind == "cli":
            return lambda: _cli(symcart.cli.main, request["argv"])
        if kind == "scan":
            return lambda: (recognize.corollary1_scan(request["max_dim"]),
                            homotopy.consistency_violations(request["max_dim"]))
        if kind == "enumerate":
            return lambda: catalog.enumerate_catalog(request["max_dim"])
        if kind == "decompose":
            symbol, params = request["space"]
            return lambda: recognize.decompose(
                catalog.instantiate(symbol, tuple(params)))
        raise ValueError(f"unknown op kind {kind!r}")

    def output(kind, result):
        """A call's result as JSON-able data, for the benchmark's checks."""
        if kind == "cli":
            rc, out, err = result
            if tracer:
                tracer.counters["cli.bytes_out"] += len(out.encode())
            return {"rc": rc, "stdout": out, "stderr": err}
        if kind == "scan":
            report, bad = result
            return {"instances": report.instances,
                    "distinguishable": report.distinguishable_pairs,
                    "blind": len(report.blind_pairs),
                    "violations": len(report.violations),
                    "undetermined": len(report.undetermined),
                    "consistency_violations": len(bad)}
        if kind == "enumerate":
            return [[s.symbol, list(s.params), s.dim, s.kp] for s in result]
        return [[[f.symbol, list(f.params)] for f in r.factors] for r in result]

    for line in sys.stdin:
        request = json.loads(line)
        if request["kind"] == "stats":
            reply(tracer.summary() if tracer else {})
            continue
        call = prepare(request)
        t0 = time.perf_counter()
        try:
            result = invoke(call)
        except Exception as exc:           # the op failed; keep serving
            reply({"ok": False, "op_s": time.perf_counter() - t0,
                   "error": f"{type(exc).__name__}: {exc}", "rss_kb": _rss_kb()})
            continue
        elapsed = time.perf_counter() - t0
        reply({"ok": True, "op_s": elapsed,
               "out": output(request["kind"], result), "rss_kb": _rss_kb()})


if __name__ == "__main__":
    main()

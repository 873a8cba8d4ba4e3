"""Per-op correctness checks, run by the driver after an op returns.

No check repeats the code path it checks:

* ``kp`` rows are compared with ``reference_classical``, the published
  closed forms, and with the benchmark's own dimension formulas;
* ``enumerate_catalog`` rows likewise, plus the sphere count;
* scan counts must add up to the different-symbol pairs among valid
  spaces, which the driver counts itself; at max_dim 300 they must be the
  known counts;
* every ``decompose`` result must fit the ambient's dimension and must
  not be provably distinguishable from it by a separate ``distinguish``
  call in the driver's own process;
* every session call must print one JSON object with ``schema_version``,
  and ``distinguish`` must give the same kind in both argument orders.

With ``corrupt`` every expected value is off by one, so every op fails:
the benchmark's own tests use it to show that failures reach fail_ratio.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from typing import Optional

from symcart.catalog import (ProductSpace, enumerate_catalog, instantiate,
                             reference_classical, reference_exceptional)
from symcart.recognize import DISTINGUISHABLE, distinguish

from workloads import EXCEPTIONAL_DIM, dim_of, label

# corollary1_scan(300) at degree 9: instances, distinguishable, blind,
# violations, undetermined.  The 287 violations and 147 undetermined
# pairs are the shipped tables' standing criterion-4 result, so they are
# the correct output here, not a failed op.
SCAN_300 = (1524, 844668, 20445, 287, 147)


@lru_cache(maxsize=None)
def valid_pairs(max_dim: int):
    """(valid spaces, pairs of valid spaces with different symbols)."""
    spaces = [s for s in enumerate_catalog(max_dim) if s.valid]
    n = len(spaces)
    same = sum(c * (c - 1) // 2 for c in Counter(s.symbol for s in spaces).values())
    return n, n * (n - 1) // 2 - same


class Checker:
    def __init__(self, corrupt: bool = False):
        self.delta = 1 if corrupt else 0
        self._verified = set()        # decompose outputs already checked
        self._kinds = {}              # round op index -> distinguish kind

    def new_round(self):
        self._kinds.clear()

    def check(self, op: dict, out, index: int) -> Optional[str]:
        """None if the op's output is correct, else what is wrong."""
        return getattr(self, "_" + op["bound"])(op, out, index)

    def _scan_op(self, op, out, index):
        max_dim = op["meta"]["max_dim"]
        instances, pairs = valid_pairs(max_dim)
        counts = (out["instances"], out["distinguishable"], out["blind"],
                  out["violations"], out["undetermined"])
        if counts[0] != instances:
            return f"scan({max_dim}): {counts[0]} instances, expected {instances}"
        if sum(counts[1:]) != pairs + self.delta:
            return (f"scan({max_dim}): classified {sum(counts[1:])} pairs, "
                    f"expected {pairs + self.delta}")
        if max_dim == 300 and counts != SCAN_300:
            return f"scan(300): counts {counts}, expected {SCAN_300}"
        if out["consistency_violations"]:
            return f"consistency_violations({max_dim}): {out['consistency_violations']}"
        return None

    def _kp_op(self, op, out, index):
        payload, error = self._json_reply(op, out)
        if error:
            return error
        symbol, params = op["meta"]["spec"]
        d, k, c = reference_classical(symbol, tuple(params))
        want = (dim_of(symbol, params), d, k + self.delta, str(c))
        got = (payload["dim"], payload["d_P"], payload["k_P"], payload["C_P"])
        if got != want:
            return f"kp {label(symbol, params)}: (dim, d_P, k_P, C_P) {got}, published {want}"
        return None

    def _enumerate_op(self, op, out, index):
        max_dim = op["meta"]["max_dim"]
        spheres = 0
        for symbol, params, dim, kp in out:
            name = label(symbol, params)
            if not dim == dim_of(symbol, params) <= max_dim:
                return f"enumerate_catalog({max_dim}): {name} has dim {dim}"
            if symbol == "S":
                spheres += 1
                ref = (dim - 1, 1)
            elif symbol in EXCEPTIONAL_DIM:
                ref = reference_exceptional(symbol)
            else:
                ref = reference_classical(symbol, tuple(params))
            if ref is not None and (dim - kp, kp) != tuple(ref[:2]):
                return f"enumerate_catalog({max_dim}): {name} (d_P, k_P) {(dim - kp, kp)}, published {ref[:2]}"
        if len({(s, tuple(p)) for s, p, _, _ in out}) != len(out):
            return f"enumerate_catalog({max_dim}): repeated spaces"
        if spheres != max_dim - 1 + self.delta:
            return f"enumerate_catalog({max_dim}): {spheres} spheres, expected {max_dim - 1 + self.delta}"
        return None

    def _decompose_op(self, op, out, index):
        symbol, params = op["meta"]["spec"]
        key = (symbol, tuple(params), json.dumps(out))
        if key in self._verified:
            return None
        if not out:
            return f"decompose {label(symbol, params)}: no results"
        ambient = instantiate(symbol, tuple(params))
        limit = dim_of(symbol, params) - self.delta
        for factors in out:
            product = ProductSpace(tuple(instantiate(s, tuple(p)) for s, p in factors))
            if product.dim > limit:
                return f"decompose {ambient.label()}: {product.label()} exceeds dim {limit}"
            if distinguish(product, ambient).kind == DISTINGUISHABLE:
                return f"decompose {ambient.label()}: {product.label()} is distinguishable"
        self._verified.add(key)
        return None

    def _session_op(self, op, out, index):
        payload, error = self._json_reply(op, out)
        if error:
            return error
        if payload["command"] == "distinguish":
            self._kinds[index] = payload["kind"]
            partner = op["meta"].get("reverse_of")
            if partner is not None and self._kinds.get(partner) != payload["kind"]:
                return (f"distinguish {op['request']['argv'][1:3]}: kind {payload['kind']}, "
                        f"reverse order gave {self._kinds.get(partner)}")
        return None

    def _json_reply(self, op, out):
        """The one JSON object a --format json call prints, or an error."""
        argv = op["request"]["argv"]
        if out["rc"] != 0:
            return None, f"{argv}: exit code {out['rc']}: {out['stderr'].strip()}"
        lines = out["stdout"].splitlines()
        if len(lines) != 1 + self.delta:
            return None, f"{argv}: {len(lines)} output lines, expected {1 + self.delta}"
        try:
            payload = json.loads(lines[0])
        except ValueError as exc:
            return None, f"{argv}: output is not JSON: {exc}"
        if "schema_version" not in payload or payload.get("command") != argv[0]:
            return None, f"{argv}: payload lacks schema_version or command"
        return payload, None

"""Seeded inputs of the four benchmark workloads.

A workload is a *round*: a fixed list of ops drawn from the seed.  A run
repeats the same round until its time is used up, so every round of a
run does the same work and averages over rounds are meaningful.

The seed draws the free parameters of every op (ranks, second
Grassmannian parameters, dimensions inside narrow bands, the session's
specs and commands) and the op order.  The *shape* of a round -- how
many ops of which family at which size -- is fixed, because op cost
grows steeply with size (k_P enumeration ~ rank^3, the pair scan ~
max_dim^2, decompose ~ the number of sphere paddings); a round of
uniform draws would make the work per round, and so every timing,
depend more on the seed than on the code.

Nothing here imports symcart: the program sees only the generated
inputs.  Dimensions are the benchmark's own closed forms.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, List

# -- the benchmark's own dimension formulas (presentation -> dim) --------

_DIM = {
    "S": lambda n: n,
    "SU": lambda n: n * n - 1,
    "AI": lambda n: (n - 1) * (n + 2) // 2,
    "AII": lambda n: (n - 1) * (2 * n + 1),
    "AIII": lambda p, q: 2 * p * q,
    "Spin": lambda n: n * (n - 1) // 2,
    "BDI": lambda p, q: p * q,
    "Sp": lambda n: n * (2 * n + 1),
    "CI": lambda n: n * (n + 1),
    "CII": lambda p, q: 4 * p * q,
    "DIII": lambda n: n * (n - 1),
}

EXCEPTIONAL_DIM = {
    "E6": 78, "E7": 133, "E8": 248, "EI": 42, "EII": 40, "EIII": 32,
    "EIV": 26, "EV": 70, "EVI": 64, "EVII": 54, "EVIII": 128, "EIX": 112,
    "F4": 52, "FI": 28, "FII": 16, "G2": 14, "G": 8,
}


def dim_of(symbol: str, params) -> int:
    """Dimension of a presentation, from the benchmark's own formulas."""
    if symbol in EXCEPTIONAL_DIM:
        return EXCEPTIONAL_DIM[symbol]
    return _DIM[symbol](*params)


def label(symbol: str, params) -> str:
    return f"{symbol}({','.join(map(str, params))})" if params else symbol


def _op(request: dict, bound: str, **meta) -> dict:
    """One op: the request the worker sees, its time-bound name, and
    benchmark-side metadata used by the checks and the descriptor."""
    return {"request": request, "bound": bound, "meta": meta}


# -- scan -----------------------------------------------------------------

def scan_round(rng: random.Random, smoke: bool) -> List[dict]:
    """corollary1_scan + consistency_violations, one fresh worker each.

    max_dim 300 is always present (its report counts are known
    exactly); the other two are an antithetic pair d, 700 - d with d in
    [250, 299], so the pairs scanned per round barely depend on d.  300
    runs twice: it is the median op, so a run gets twice the samples of
    the op that op_p50_ms reports.
    """
    if smoke:
        dims = [rng.randint(30, 60)]
    else:
        d = rng.randint(250, 299)
        dims = [300, 300, d, 700 - d]
        rng.shuffle(dims)
    return [_op({"kind": "scan", "max_dim": m}, "scan_op", max_dim=m)
            for m in dims]


# -- catalog --------------------------------------------------------------

def _second(rng, p):
    return p + rng.randint(0, 40)


# family -> (centre rank of its slot, spec builder from (rank, rng)).
# With the two enumerate_catalog ops, a round has four ops above a cluster
# of five that cost about the same (~0.13 s at this writing; AI, being
# type A, sits at a higher rank to match) and four below.  The median op
# is the middle of that cluster, not a single op that host noise moves.
_KP_FAMILIES = {
    "SU": (150, lambda r, rng: ("SU", (r + 1,))),
    "AIII": (137, lambda r, rng: ("AIII", (r, _second(rng, r)))),
    "AI": (115, lambda r, rng: ("AI", (r + 1,))),
    "Spin_even": (90, lambda r, rng: ("Spin", (2 * r,))),
    "BDI": (90, lambda r, rng: ("BDI", (r, _second(rng, r)))),
    "Sp": (88, lambda r, rng: ("Sp", (r,))),
    "CII": (88, lambda r, rng: ("CII", (r, _second(rng, r)))),
    "DIII": (59, lambda r, rng: ("DIII", (2 * r + rng.randint(0, 1),))),
    "AII": (46, lambda r, rng: ("AII", (r + 1,))),
    "CI": (33, lambda r, rng: ("CI", (r,))),
    "Spin_odd": (20, lambda r, rng: ("Spin", (2 * r + 1,))),
}


def catalog_round(rng: random.Random, smoke: bool) -> List[dict]:
    """`symcart kp` on one spec per classical family, plus two
    enumerate_catalog calls, each op in a fresh worker.

    Each family keeps its rank slot (20..150); the seed moves the rank by
    up to 1 and draws the free parameters.  The two enumerate_catalog
    sizes are an antithetic pair d, 2300 - d, so their summed cost barely
    depends on d.
    """
    ops = []
    for family, (centre, build) in _KP_FAMILIES.items():
        rank = rng.randint(4, 8) if smoke else centre + rng.randint(-1, 1)
        symbol, params = build(rank, rng)
        spec = label(symbol, params)
        ops.append(_op({"kind": "cli", "argv": ["kp", spec, "--format", "json"]},
                       "kp_op", family=family, rank=rank, spec=[symbol, list(params)],
                       dim=dim_of(symbol, params)))
    if smoke:
        sizes = [rng.randint(60, 100)]
    else:
        d = rng.randint(800, 850)
        sizes = [d, 2300 - d]
    for m in sizes:
        ops.append(_op({"kind": "enumerate", "max_dim": m}, "enumerate_op",
                       max_dim=m))
    rng.shuffle(ops)
    return ops


# -- decompose ------------------------------------------------------------

_AMBIENT = {
    "S": lambda n: ("S", (n,)),
    "CP": lambda n: ("AIII", (1, n)),
    "HP": lambda n: ("CII", (1, n)),
    "GR2": lambda q: ("BDI", (2, q)),
    "GR3": lambda q: ("BDI", (3, q)),
    "GC2": lambda q: ("AIII", (2, q)),
    "GC3": lambda q: ("AIII", (3, q)),
    "GH2": lambda q: ("CII", (2, q)),
}

# (family, lowest, highest parameter).  Two heavy anchors, whose sphere
# padding dominates a round; one medium slot per family, which the seed
# moves by one step; then light slots at fixed points of each family's
# range.  The median op falls among the light ones, where one step of
# dimension changes an op's cost by ~10%, so the seed leaves them alone.
# Every ambient here is valid and finishes without CandidateOverflow
# (E8 and AI(20) do not).
_DECOMPOSE_SLOTS = (
    ("S", 60, 60),
    ("S", 49, 51), ("CP", 22, 23), ("HP", 11, 12), ("GR2", 21, 22),
    ("GC2", 12, 13), ("GR3", 18, 19), ("GC3", 7, 8), ("GH2", 6, 6),
) + tuple((family, n, n) for family, points in (
    ("S", (12, 16, 20, 24, 28, 32, 36, 40, 44)), ("CP", (7, 10, 13, 16, 19)),
    ("HP", (4, 6, 8, 10)), ("GR2", (11, 14, 17, 20)), ("GR3", (10, 13, 16)),
    ("GC2", (6, 9)), ("GC3", (5,)), ("GH2", (3,))) for n in points)
_DECOMPOSE_SMOKE_SLOTS = (("S", 11, 14), ("CP", 6, 8), ("HP", 3, 4))


def _decompose_op(symbol, params):
    return _op({"kind": "decompose", "space": [symbol, list(params)]},
               "decompose_op", spec=[symbol, list(params)],
               dim=dim_of(symbol, params))


def decompose_round(rng: random.Random, smoke: bool) -> List[dict]:
    """`decompose` on ambients of dimension <= 60, in one warm worker."""
    ops = [] if smoke else [_decompose_op("EVII", ())]
    for family, lo, hi in _DECOMPOSE_SMOKE_SLOTS if smoke else _DECOMPOSE_SLOTS:
        ops.append(_decompose_op(*_AMBIENT[family](rng.randint(lo, hi))))
    rng.shuffle(ops)
    return ops


# -- session --------------------------------------------------------------

SESSION_MAX_DIM = 300
# Calls of each command per round (distinguish counts as one call, asked
# in both orders): 7 commands x 50, with distinguish doubled, is 400 ops.
SESSION_CALLS = 50


def _session_pool() -> List[tuple]:
    """(symbol, params) of every presentation with dim <= 300 that
    parses to one irreducible space."""
    pool = [(s, ()) for s, d in EXCEPTIONAL_DIM.items() if d <= SESSION_MAX_DIM]
    lows = {"S": 2, "SU": 2, "AI": 2, "AII": 2, "Sp": 2, "CI": 2,
            "DIII": 5, "Spin": 5}
    for symbol, lo in lows.items():
        n = lo
        while dim_of(symbol, (n,)) <= SESSION_MAX_DIM:
            pool.append((symbol, (n,)))
            n += 1
    for symbol, plo in (("AIII", 1), ("BDI", 2), ("CII", 1)):
        for p in itertools.count(plo):
            if dim_of(symbol, (p, p)) > SESSION_MAX_DIM:
                break
            q = p
            while dim_of(symbol, (p, q)) <= SESSION_MAX_DIM:
                if (symbol, p, q) != ("BDI", 2, 2):      # S(2) x S(2)
                    pool.append((symbol, (p, q)))
                q += 1
    return pool


# Grassmannian classes -> the field the CLI's Gr(...) and tgeo name them by
_FIELDS = {"BDI": "R", "AIII": "C", "CII": "H"}


def _spellings(symbol, params) -> List[str]:
    """Every way the CLI accepts to type a presentation: class form and,
    for projective spaces and Grassmannians, their aliases."""
    forms = [label(symbol, params)]
    if symbol == "AIII" and params[0] == 1:
        forms.append(f"CP({params[1]})")
    if symbol == "CII" and params[0] == 1:
        forms.append(f"HP({params[1]})")
    if symbol in _FIELDS:
        p, q = params
        forms.append(f"Gr({_FIELDS[symbol]},{p},{p + q})")
    return forms


_SMALL_AMBIENTS = ([f"S({n})" for n in range(11, 25)]
                   + [f"CP({n})" for n in range(6, 13)]
                   + [f"HP({n})" for n in range(3, 7)]
                   + [f"Gr(R,2,{n})" for n in range(12, 15)]
                   + [f"Gr(C,2,{n})" for n in range(7, 9)]
                   + ["Gr(H,2,4)", "Gr(H,2,5)", "G2"])
_ROOT_TYPES = ([("A", r) for r in range(1, 13)] + [("B", r) for r in range(2, 13)]
               + [("C", r) for r in range(2, 13)] + [("D", r) for r in range(4, 13)]
               + [("BC", r) for r in range(1, 13)]
               + [(t, 0) for t in ("E6", "E7", "E8", "F4", "G2")])
# The commands of an interactive session.  No usage data exists for
# symcart, so the mix is assumed, not measured: each command is equally
# frequent, and every free argument is drawn uniformly from its range.
SESSION_COMMANDS = ("kp", "homotopy", "distinguish", "gate", "tgeo",
                    "dump-roots", "decompose")
ZIPF_EXPONENT = 1.0


def session_round(rng: random.Random, smoke: bool) -> List[dict]:
    """Interactive `symcart ... --format json` calls, a fresh worker per round.

    Every command is called equally often, in a seeded order.
    Specs are drawn Zipf-like (exponent 1) from a seeded permutation of
    every presentation up to dimension 300, so popular specs repeat and
    hit the caches while the tail fills them; each is typed in one of its
    accepted spellings, chosen uniformly.  ``gate`` and ``tgeo`` take a
    codimension uniform in 1..dim-1 of their ambient; ``tgeo`` takes its
    Grassmannian from the same Zipf draw, kept only where the command
    applies (3 <= p < n/2).  Each distinguish pair is asked in both
    orders, one call after the other.
    """
    pool = _session_pool()
    rng.shuffle(pool)
    cum = list(itertools.accumulate(1 / (k + 1) ** ZIPF_EXPONENT
                                    for k in range(len(pool))))

    def draw(accept=lambda symbol, params: True):
        while True:
            (symbol, params), = rng.choices(pool, cum_weights=cum)
            if accept(symbol, params):
                drawn.append(label(symbol, params))
                return symbol, params

    def spec(symbol, params):
        return rng.choice(_spellings(symbol, params))

    def codim(symbol, params):
        return str(rng.randint(1, dim_of(symbol, params) - 1))

    ops = []
    drawn = []

    def cli(*argv, **meta):
        ops.append(_op({"kind": "cli", "argv": [*argv, "--format", "json"]},
                       "session_op", max_dim=SESSION_MAX_DIM, specs=drawn[:],
                       **meta))
        drawn.clear()

    commands = list(SESSION_COMMANDS) * (4 if smoke else SESSION_CALLS)
    rng.shuffle(commands)
    for command in commands:
        if command in ("kp", "homotopy"):
            cli(command, spec(*draw()))
        elif command == "distinguish":
            a, b = spec(*draw()), spec(*draw())
            cli("distinguish", a, b)
            cli("distinguish", b, a, reverse_of=len(ops) - 1)   # no new draws
        elif command == "gate":
            space = draw()
            cli("gate", spec(*space), "--codim", codim(*space))
        elif command == "tgeo":
            symbol, (p, q) = draw(lambda symbol, params: symbol in _FIELDS
                                  and 3 <= params[0] < params[1])
            cli("tgeo", _FIELDS[symbol], str(p), str(p + q),
                "--codim", codim(symbol, (p, q)))
        elif command == "dump-roots":
            kind, rank = rng.choice(_ROOT_TYPES)
            cli("dump-roots", kind, *(("--rank", str(rank)) if rank else ()),
                rank=rank or None)
        else:
            cli("decompose", rng.choice(_SMALL_AMBIENTS))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    worker_scope: str          # a fresh worker per "op", per "round" or per "run"
    make_round: Callable[[random.Random, bool], List[dict]]


# Why each workload exists is stated in BENCHMARK.json.  decompose is not
# listed there: its timings spread more than 25% between runs of the same
# code on a shared 2-vCPU host, so it cannot be gated; it is run by name for
# its traced layer shares (the decompose DFS in recognize).
WORKLOADS = {w.name: w for w in (
    Workload("scan", "op", scan_round),
    Workload("catalog", "op", catalog_round),
    Workload("decompose", "run", decompose_round),
    Workload("session", "round", session_round),
)}


def make_round(workload: str, seed: int, smoke: bool) -> List[dict]:
    """The seeded round of a workload; the same seed gives the same ops."""
    return WORKLOADS[workload].make_round(random.Random(f"{workload}:{seed}"), smoke)


def descriptor(ops: List[dict]) -> dict:
    """What a round asks for: size, repetition, and its largest inputs.

    ``repeat_share`` counts ops whose whole request repeats an earlier
    one; ``spec_repeat_share`` counts drawn space specs that repeat an
    earlier draw, which is what the program's caches see.
    """
    distinct = len({repr(op["request"]) for op in ops})
    specs = [s for op in ops for s in op["meta"].get("specs", ())]
    ranks = [op["meta"]["rank"] for op in ops if op["meta"].get("rank")]
    dims = [op["meta"].get("max_dim") or op["meta"].get("dim") or 0 for op in ops]
    out = {"ops": len(ops), "distinct_inputs": distinct,
           "repeat_share": round(1 - distinct / len(ops), 4),
           "max_rank": max(ranks, default=None),
           "max_dim": max(dims) or None}
    if specs:
        out["spec_draws"] = len(specs)
        out["spec_repeat_share"] = round(1 - len(set(specs)) / len(specs), 4)
    return out

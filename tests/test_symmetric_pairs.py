"""Each catalog family's symmetric pair G/K, stated here apart from the
catalog, against the catalog's dimensions and ranks (Helgason,
Differential Geometry, Lie Groups, and Symmetric Spaces, Ch. X,
Table V)."""

from symcart.catalog import FAMILIES, enumerate_catalog

# compact groups as (dim, rank)


def _su(n):
    return n * n - 1, n - 1


def _so(n):                     # Spin(n) too
    return n * (n - 1) // 2, n // 2


def _sp(n):
    return n * (2 * n + 1), n


def _u(n):
    return n * n, n


_E6, _E7, _E8, _F4, _G2 = (78, 6), (133, 7), (248, 8), (52, 4), (14, 2)


def _group(g):
    """A group G as the symmetric space (G x G)/ΔG."""
    return [g, g], [g]


# every family's pair: (the factors of G, the factors of K); a finite
# quotient changes neither dim nor rank
PAIRS = {
    "S": lambda n: ([_so(n + 1)], [_so(n)]),
    "SU": lambda n: _group(_su(n)),
    "Spin": lambda n: _group(_so(n)),
    "Sp": lambda n: _group(_sp(n)),
    "AI": lambda n: ([_su(n)], [_so(n)]),
    "AII": lambda n: ([_su(2 * n)], [_sp(n)]),
    # K = S(U(p) x U(q))
    "AIII": lambda p, q: ([_su(p + q)], [(p * p + q * q - 1, p + q - 1)]),
    "BDI": lambda p, q: ([_so(p + q)], [_so(p), _so(q)]),
    "CII": lambda p, q: ([_sp(p + q)], [_sp(p), _sp(q)]),
    "CI": lambda n: ([_sp(n)], [_u(n)]),
    "DIII": lambda n: ([_so(2 * n)], [_u(n)]),
    "E6": lambda: _group(_E6),
    "E7": lambda: _group(_E7),
    "E8": lambda: _group(_E8),
    "F4": lambda: _group(_F4),
    "G2": lambda: _group(_G2),
    "EI": lambda: ([_E6], [_sp(4)]),
    "EII": lambda: ([_E6], [_su(6), _su(2)]),
    "EIII": lambda: ([_E6], [_so(10), _u(1)]),
    "EIV": lambda: ([_E6], [_F4]),
    "EV": lambda: ([_E7], [_su(8)]),
    "EVI": lambda: ([_E7], [_so(12), _sp(1)]),
    "EVII": lambda: ([_E7], [_E6, _u(1)]),
    "EVIII": lambda: ([_E8], [_so(16)]),
    "EIX": lambda: ([_E8], [_E7, _sp(1)]),
    "FI": lambda: ([_F4], [_sp(3), _sp(1)]),
    "FII": lambda: ([_F4], [_so(9)]),
    "G": lambda: ([_G2], [_so(4)]),
}


def _differences(symbol, params):
    """(dim G - dim K, rank G - rank K) of the family's pair."""
    g, k = PAIRS[symbol](*params)
    return (sum(d for d, _ in g) - sum(d for d, _ in k),
            sum(r for _, r in g) - sum(r for _, r in k))


def test_every_family_has_a_pair():
    assert PAIRS.keys() == FAMILIES.keys()


def test_dim_g_minus_dim_k_is_the_familys_dim():
    """For every admitted tuple to dim 400, canonical or not."""
    swept = 0
    for symbol, family in FAMILIES.items():
        for params in family.sweep(400):
            assert _differences(symbol, params)[0] == \
                family.dim(*params), (symbol, params)
            swept += 1
    assert swept == 2190


def test_rank_g_minus_rank_k_is_at_most_the_rank():
    """A maximal torus of G may be taken through a maximal abelian
    subspace a of the tangent space P: its algebra is a plus a torus of
    K, so rank G - rank K <= dim a = rank P, with equality on the
    groups."""
    spaces = enumerate_catalog(400)
    assert len(spaces) == 2179
    for s in spaces:
        gap = _differences(s.symbol, s.params)[1]
        assert gap <= s.rank, s.label()
        if s.symbol in ("SU", "Spin", "Sp", "E6", "E7", "E8", "F4", "G2"):
            assert gap == s.rank, s.label()

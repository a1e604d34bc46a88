import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hodgeheights.polylog import PolylogContext


@pytest.fixture
def polylog_ctx_factory():
    def make(z, n=6, **kwargs):
        return PolylogContext(z, N=n, **kwargs)
    return make


def count_calls(monkeypatch, owner, name):
    """The list that grows at each call of owner.name by its first argument
    (None for a call without one); a static method stays static."""
    real, calls = getattr(owner, name), []

    def counting(*args, **kwargs):
        calls.append(args[0] if args else None)
        return real(*args, **kwargs)

    static = isinstance(inspect.getattr_static(owner, name), staticmethod)
    monkeypatch.setattr(owner, name, staticmethod(counting) if static else counting)
    return calls


def random_framing(h, rng, a_level=0, b_level=None):
    """A random rational framing of a Hodge--Tate structure.

    a_level/b_level index the weight blocks (0 = top weight); phi gets a
    unit top coordinate in block a plus integer noise in lower weights,
    psi a unit coordinate in block b plus integer noise in higher ones.
    """
    from fractions import Fraction

    from hodgeheights.framed import FramedMHS

    weights = sorted(h.weights_present(), reverse=True)
    if b_level is None:
        b_level = len(weights) - 1
    wa, wb = weights[a_level], weights[b_level]
    n = h.dimension

    def block_range(w):
        lo = h.weight_rank(w - 1)
        hi = h.weight_rank(w)
        return n - hi, n - lo  # std-basis blocks are stacked top weight first

    phi = [Fraction(0)] * n
    lo, hi = block_range(wa)
    phi[int(rng.integers(lo, hi))] = Fraction(1)
    for w in weights[a_level + 1:]:
        l2, h2 = block_range(w)
        for i in range(l2, h2):
            phi[i] += Fraction(int(rng.integers(-3, 4)))

    psi = [Fraction(0)] * n
    lo, hi = block_range(wb)
    psi[int(rng.integers(lo, hi))] = Fraction(1)
    for w in weights[:b_level]:
        l2, h2 = block_range(w)
        for i in range(l2, h2):
            psi[i] += Fraction(int(rng.integers(-3, 4)))

    return FramedMHS(h, wa // 2, wb // 2, phi, psi)

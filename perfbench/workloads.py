"""The benchmark's three workloads: inputs, the timed op and its check.

Every workload draws its inputs from ``(seed, stream)``; the streams
(timed, warm-up, counting block, set-up probes, traced phase) are
disjoint, and no input repeats within a process.  This matters because
``polylog_mhs`` and ``_transport`` are cached by value and ``bigrading``,
``delta_splitting`` and ``_dual`` by identity: a repeated input would
time a cache hit.

Library functions are always looked up on their module at call time
(``framed.height1(...)``), so the tracer's wrappers see every call.

* ``sweep`` (op = one z point, evaluated at N = 4, 6 and 10): the ``mhs
  polylog --sweep`` traffic.  A few large structures, each with four
  framings that reuse one cached bigrading; at N=10 the bigrading's
  subspace work and the revalidation on every height call dominate.
  One op covers all three truncations so that its latency is one
  distribution rather than a mix of three, which keeps its median and
  tail steady; the time of each truncation is reported separately.
* ``height-laws`` (op = one framed random Hodge--Tate structure): the
  height-law recipe of acceptance criterion 6.  Many small derived
  structures with one framing each; validation dominates, and there is
  no Li transport, so it is the bypass for transport changes.
* ``polylog-eval`` (op = one fresh z): Li_1..Li_10, the single-valued
  polylogarithms and the polylog matrices at weight 10, a quarter of the
  ops on an explicit path looping around 1.  Almost all of the work is
  Chebyshev transport; it bypasses ``mhs``/``deligne`` completely.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from hodgeheights import deligne, framed, mhs, polylog
from hodgeheights.linalg import nilpotent_exp

# Stream ids for rng(); distinct streams never share inputs.
TIMED, WARMUP, COUNTING, SETUP, TRACED = range(5)


def rng(seed: int, stream: int, sub: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, sub)))


def _point(g: np.random.Generator, r_lo: float, r_hi: float) -> complex:
    """z with |z| in [r_lo, r_hi] and arg z at least 0.15 from the real axis."""
    r = g.uniform(r_lo, r_hi)
    return _at_radius(g, r)


def _at_radius(g: np.random.Generator, r: float) -> complex:
    theta = g.uniform(0.15, math.pi - 0.15) * (1 if g.random() < 0.5 else -1)
    return complex(r * math.cos(theta), r * math.sin(theta))


def _no_tick(label):
    pass


class Workload:
    """One workload: `inputs` yields payloads, `run` is the timed op and
    `check` compares its result with an independent reference.  Each
    payload's "key" identifies its input, so that none is used twice.

    A long op calls ``tick(label)`` between its steps; the worker samples
    the reference kernel there, so timings are normalised at a finer grain
    than whole ops, and the label names the part of the op that the step
    belonged to.

    Each payload carries a class; throughput is the inverse of the
    class-weighted mean latency, so it does not depend on where in the
    input mix a time-bounded loop happens to stop.
    """

    name = ""
    class_weights: dict = {}
    rss_ops = 0        # peak memory is read after this many timed ops
    warmup_ops = 3
    counting_ops = 3   # fixed-size block whose counts must repeat exactly

    def inputs(self, seed: int, stream: int, sub: int = 0):
        raise NotImplementedError

    def run(self, payload, tick=_no_tick):
        raise NotImplementedError

    def check(self, payload, result) -> tuple[list[str], dict]:
        raise NotImplementedError


# -- sweep ----------------------------------------------------------------


SWEEP_NS = (4, 6, 10)
HEIGHT_TOL = 1e-8


class Sweep(Workload):
    name = "sweep"
    class_weights = {"point": 1.0}
    warmup_ops = 1
    counting_ops = 1
    rss_ops = 12

    def inputs(self, seed, stream, sub=0):
        g = rng(seed, stream, sub)
        while True:
            z = _point(g, 0.1, 4.0)
            framings = {}
            for n in SWEEP_NS:
                b0 = int(g.integers(1, n))                    # a = 0, b < N
                a1 = int(g.integers(1, n - 1))                # interior: b >= a + 2
                b1 = int(g.integers(a1 + 2, n + 1))
                a2 = int(g.integers(1, n))                    # adjacent: b = a + 1
                framings[n] = ((0, n), (0, b0), (a1, b1), (a2, a2 + 1))
            yield {"cls": "point", "key": z, "z": z, "framings": framings}

    def run(self, p, tick=_no_tick):
        parts = []
        for n in SWEEP_NS:
            label = f"N{n}"
            ctx = polylog.PolylogContext(p["z"], N=n)
            h = polylog.polylog_mhs(ctx)
            delta = deligne.delta_splitting(h).delta
            gap = float(np.linalg.norm(delta - polylog.delta_closed_form(ctx)))
            tick(label)
            rows = []
            for a, b in p["framings"][n]:
                fh = polylog.polylog_framed(ctx, a, b)
                ht1, ht2 = framed.height1(fh), framed.height2(fh)
                c1, c2 = polylog.heights_closed_form(ctx, a, b)
                rows.append((a, b, ht1, c1, ht2, c2))
                tick(label)
            parts.append((n, gap, rows))
        return parts

    def check(self, p, result):
        errors, acc = [], {"ht_max_err": 0.0}
        for n, gap, rows in result:
            acc[f"delta_gap.N{n}"] = gap
            for a, b, ht1, c1, ht2, c2 in rows:
                e1 = abs(ht1 - c1)
                # At adjacent framings the pinned closed form is the known-wrong
                # value (README, "Known discrepancy"); the pipeline satisfies
                # the biextension identity ht2 = -ht1/2 there instead.
                e2 = abs(ht2 + ht1 / 2) if a > 0 and b == a + 1 else abs(ht2 - c2)
                acc["ht_max_err"] = max(acc["ht_max_err"], e1, e2)
                if not (e1 <= HEIGHT_TOL and e2 <= HEIGHT_TOL):
                    errors.append(f"z={p['z']!r} N={n} ({a},{b}): "
                                  f"ht1 err {e1:.2e}, ht2 err {e2:.2e}")
        return errors, acc


# -- height-laws ----------------------------------------------------------


# Weight-block sizes, top weight first: n <= 6 with 2-4 weights.  The op
# at position i of each cycle uses entry i, so every run sees the same mix
# whatever its length; position 0 also runs the morphism check.  Op costs
# cluster by entry, so the count is odd: the median then falls inside the
# middle cluster instead of jumping across the gap between two of them.
HT_CATALOGUE = ((1, 2, 1), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2),
                (2, 1, 2), (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 2))
LAW_TOL = 1e-9


def random_framing(h, g, a_level=0, b_level=None):
    """A random rational framing of a Hodge--Tate structure.

    a_level/b_level index the weight blocks (0 = top weight); phi gets a
    unit top coordinate in block a plus integer noise in lower weights,
    psi a unit coordinate in block b plus integer noise in higher ones.
    (Same recipe as the test suite's generator.)
    """
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
    phi[int(g.integers(lo, hi))] = Fraction(1)
    for w in weights[a_level + 1:]:
        l2, h2 = block_range(w)
        for i in range(l2, h2):
            phi[i] += Fraction(int(g.integers(-3, 4)))

    psi = [Fraction(0)] * n
    lo, hi = block_range(wb)
    psi[int(g.integers(lo, hi))] = Fraction(1)
    for w in weights[:b_level]:
        l2, h2 = block_range(w)
        for i in range(l2, h2):
            psi[i] += Fraction(int(g.integers(-3, 4)))

    return framed.FramedMHS(h, wa // 2, wb // 2, phi, psi)


class HeightLaws(Workload):
    name = "height-laws"
    class_weights = {i: 1 / len(HT_CATALOGUE) for i in range(len(HT_CATALOGUE))}
    warmup_ops = 5
    counting_ops = 11  # one full cycle of the catalogue
    rss_ops = 110

    def inputs(self, seed, stream, sub=0):
        g = rng(seed, stream, sub)
        i = 0
        while True:
            pos = i % len(HT_CATALOGUE)
            dims = HT_CATALOGUE[pos]
            struct_seed = int(g.integers(0, 2**62))
            yield {"cls": pos, "key": struct_seed, "dims": dims,
                   "struct_seed": struct_seed,
                   "framing_seed": int(g.integers(0, 2**62)),
                   "b_level": int(g.integers(1, len(dims))),
                   "twist": int(g.integers(-2, 3)),
                   "morphism": pos == 0}
            i += 1

    def run(self, p, tick=_no_tick):
        dims = p["dims"]
        h = mhs.random_hodge_tate(dims, seed=p["struct_seed"], scale=0.9)
        g = np.random.default_rng(p["framing_seed"])
        fh = random_framing(h, g, a_level=0, b_level=p["b_level"])
        ht = (framed.height1(fh), framed.height2(fh))
        via = framed.height1_via_delta(fh)
        fd = framed.dual_framed(fh)
        hd = (framed.height1(fd), framed.height2(fd))
        ft = framed.twist_framed(fh, p["twist"])
        htw = (framed.height1(ft), framed.height2(ft))
        fc = framed.conjugate_framed(fh)
        hc = (framed.height1(fc), framed.height2(fc))
        sign = (-1) ** (fh.a - fh.b + 1)
        report = None
        if p["morphism"]:
            n = h.dimension
            mu = np.zeros((n, n))
            mu[np.tril_indices(n, -1)] = g.integers(-2, 3, size=n * (n - 1) // 2)
            # lowering must drop whole weight blocks, not just matrix rows
            offsets = np.cumsum([0] + list(dims))
            for i in range(len(dims)):
                sl = slice(offsets[i], offsets[i + 1])
                mu[sl, sl] = 0.0
                for j in range(i + 1, len(dims)):
                    mu[sl, offsets[j]:offsets[j + 1]] = 0.0
            gmat = nilpotent_exp(mu)
            target = mhs.MixedHodgeStructure(
                n, h.weight_filtration,
                {q: (gmat @ arr.T).T for q, arr in h.hodge_filtration.items()})
            fh2 = framed.FramedMHS(target, fh.a, fh.b,
                                   tuple(gmat.real @ [float(x) for x in fh.phi_class]),
                                   fh.psi_class)
            report = framed.framed_morphism_check(gmat, fh, fh2)
        return ht, via, hd, htw, hc, sign, report

    def check(self, p, result):
        ht, via, hd, htw, hc, sign, report = result
        laws = {
            "ht1 via delta": abs(ht[0] - via),
            "dual ht1": abs(hd[0] + ht[0]), "dual ht2": abs(hd[1] + ht[1]),
            "twist ht1": abs(htw[0] - ht[0]), "twist ht2": abs(htw[1] - ht[1]),
            "conjugate ht1": abs(hc[0] - sign * ht[0]),
            "conjugate ht2": abs(hc[1] - sign * ht[1]),
        }
        errors = [f"dims={p['dims']} seed={p['struct_seed']}: {law} err {err:.2e}"
                  for law, err in laws.items() if not err <= LAW_TOL]
        worst = max(laws.values())
        if report is not None:
            worst = max(worst, report.height_invariance_error)
            if not (report.is_framed_morphism
                    and report.height_invariance_error <= LAW_TOL):
                errors.append(f"dims={p['dims']} seed={p['struct_seed']}: "
                              "framed morphism check failed")
        return errors, {"ht_max_err": worst}


# -- polylog-eval ---------------------------------------------------------


EVAL_WEIGHT = 10
EVAL_BANDS = 9
LI_TOL = 1e-10
# Loop once counterclockwise around 1 from the basepoint 0.3 (criterion 8).
LOOP = (0.3, 0.3 - 0.9j, 2.3 - 0.9j, 2.3 + 0.9j, 0.3 + 0.9j, 0.3)


def _mp_reference(z: complex, looped: bool):
    """(log z, [Li_1..Li_10], L_10, D_10) at 30 digits with mpmath.

    The loop around 1 adds the monodromy -2 pi i (log z)^(k-1)/(k-1)! to
    Li_k and leaves log z and the single-valued functions unchanged.
    """
    import mpmath  # imported here so that it stays out of the set-up time

    with mpmath.workdps(30):
        zm = mpmath.mpc(z.real, z.imag)
        lg = mpmath.log(zm)
        lis = [mpmath.polylog(k, zm) for k in range(1, EVAL_WEIGHT + 1)]
        lzz = 2 * mpmath.re(lg)
        b = EVAL_WEIGHT
        brown = lis[b - 1] - mpmath.fsum(
            (-1) ** (b - k) * lzz ** k / mpmath.factorial(k) * mpmath.conj(lis[b - k - 1])
            for k in range(b))
        part = mpmath.re if b % 2 else mpmath.im
        bd = mpmath.fsum(mpmath.bernoulli(k) * lzz ** k / mpmath.factorial(k)
                         * part(lis[b - k - 1]) for k in range(b))
        bd = bd if b % 2 else 1j * bd
        if looped:
            lis = [li - 2j * mpmath.pi * lg ** (k - 1) / mpmath.factorial(k - 1)
                   for k, li in enumerate(lis, start=1)]
        return complex(lg), [complex(v) for v in lis], complex(brown), complex(bd)


class PolylogEval(Workload):
    name = "polylog-eval"
    class_weights = {"principal": 0.75, "looped": 0.25}
    warmup_ops = 4
    counting_ops = 4   # one block of four: three principal ops, one looped
    rss_ops = 108

    def inputs(self, seed, stream, sub=0):
        g = rng(seed, stream, sub)
        i = 0
        while True:
            # one looped op per block of four, never the first: the set-up
            # probes time the first op of a stream, which must be one kind
            looped_at = int(g.integers(1, 4))
            for pos in range(4):
                # Transport cost grows in steps with |z| (panel counts), so
                # |z| is stratified: op i draws from band i mod 9 of
                # [0.6, 4], and every run sees the same spread of costs.
                band = i % EVAL_BANDS
                z = _at_radius(g, 0.6 + 3.4 * (band + g.random()) / EVAL_BANDS)
                i += 1
                looped = pos == looped_at
                yield {"cls": "looped" if looped else "principal", "key": z,
                       "z": z, "path": LOOP + (z,) if looped else ()}

    def run(self, p, tick=_no_tick):
        ctx = polylog.PolylogContext(p["z"], N=EVAL_WEIGHT, path=p["path"])
        top = polylog.li(EVAL_WEIGHT, ctx)
        brown = polylog.sv_brown(EVAL_WEIGHT, ctx)
        bd = polylog.sv_bd(EVAL_WEIGHT, ctx)
        mats = polylog.build_matrices(ctx)
        return top, brown, bd, mats.L

    def check(self, p, result):
        top, brown, bd, L = result
        lg, lis, ref_brown, ref_bd = _mp_reference(p["z"], bool(p["path"]))
        pairs = [(top, lis[-1]), (brown, ref_brown), (bd, ref_bd)]
        pairs += [(L[i, 0], -lis[i - 1]) for i in range(1, EVAL_WEIGHT + 1)]
        pairs += [(L[i, 1], lg ** (i - 1) / math.factorial(i - 1))
                  for i in range(1, EVAL_WEIGHT + 1)]
        worst = max(abs(got - want) / max(1.0, abs(want)) for got, want in pairs)
        errors = []
        if not worst <= LI_TOL:
            errors.append(f"z={p['z']!r} looped={bool(p['path'])}: "
                          f"max relative error {worst:.2e} against mpmath")
        return errors, {"li_max_err": worst}


WORKLOADS = {w.name: w for w in (Sweep(), HeightLaws(), PolylogEval())}

"""Constructive inverse solvers: target spectrum -> nonnegative weights.

Each solver follows the constructive existence proof for its topology.
Cycle and kite work under the sum-8 normalization and rescale back; the
path works with the sum 2f.  ``invert_complete`` realizes any
nonnegative tuple on a complete graph through repeated suspensions.

``_inverter`` builds each four-vertex solver of ``INVERTERS``, from which
``invert_star``...``invert_kite`` are unpacked: it validates and scales the
target as ``check_*`` does and lets the topology's mask decide on the same
floats, so a check and an invert cannot disagree.  A solution's ``residual``
and a rejection's ``certificate`` are computed when first read, then cached.
The residual has one route for every graph, LAPACK's spectrum of the weights'
Laplacian, so it moves no more than the weights do (Weyl's inequality).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cubic import NoThreeRealRoots, _roots, cubic_discriminant, cubic_real_roots
from .graphs import CYCLE4, KITE, PATH4, STAR, Topology, build_laplacian, complete
from .graphs import UNIT_HIGH, UNIT_LOW, unit_scaled
from .jacobi import spectrum_numeric
from .realizability import CHECKS, MASKS, Certificate, _validate_eigenvalues, _validate_triple

#: clamp band for roundoff-negative weights and quadratic discriminants
CLAMP_TOL = 1e-9

#: largest accepted ``invert_complete`` residual, relative to max(1, sum of the target)
RESIDUAL_TOL = 1e-8


class NotRealizable(Exception):
    """Target outside the topology's region; ``certificate`` is computed on first read.

    Raised as ``NotRealizable(certificate)``, or as ``NotRealizable(None, kind,
    triple)``, whose certificate is the one ``CHECKS[kind]`` gives for ``triple``.
    There is no ``__init__``: a raise stores its positional ``args`` and nothing else.
    """

    @functools.cached_property
    def certificate(self) -> Certificate | None:
        if len(self.args) == 3:
            _, kind, triple = self.args
            return CHECKS[kind](triple).certificate
        return self.args[0] if self.args else None

    def __str__(self) -> str:
        return self.certificate.detail if self.certificate else "no three real roots"


class InternalInfeasible(RuntimeError):
    """A recovery step failed although the predicate passed (indicates a bug)."""


@dataclass(frozen=True, init=False)
class InverseSolution:
    """Weights for ``target`` on ``topology``; the Laplacian's ``residual`` is read lazily."""

    topology: Topology
    weights: tuple[float, ...]
    target: tuple[float, ...]

    def __init__(self, topology: Topology, weights: tuple[float, ...], target: tuple[float, ...]):
        # straight into the instance dict: the frozen dataclass's own __init__
        # pays one object.__setattr__ call per field
        fields = self.__dict__
        fields["topology"], fields["weights"], fields["target"] = topology, weights, target

    @functools.cached_property
    def residual(self) -> float:
        spec = spectrum_numeric(build_laplacian(self.topology, self.weights))
        return float(np.abs(spec - np.sort((0.0, *self.target))).max())


def _clamp_nonneg(values: tuple[float, ...], scale: float = 1.0) -> tuple[float, ...]:
    """``values`` with roundoff negatives in the clamp band set to 0.0; beyond it raises."""
    if min(values) > 0.0:  # false for any value <= 0 and for a leading NaN
        return values
    out = []
    band = CLAMP_TOL * max(1.0, scale)
    for v in values:
        # <= also turns -0.0 into 0.0, so no weight prints as "-0"
        if v <= 0.0:
            if v < -band:
                raise InternalInfeasible(f"negative weight {v} beyond clamp band")
            v = 0.0
        out.append(v)
    return tuple(out)


def _quad_roots(sigma: float, prod: float) -> tuple[float, float]:
    """Roots of u^2 - sigma*u + prod, larger first; discriminant clamped at 0."""
    disc = sigma * sigma - 4.0 * prod
    if disc < 0.0:
        if disc < -CLAMP_TOL * max(1.0, sigma * sigma):
            raise InternalInfeasible(
                f"quadratic u^2 - {sigma}u + {prod} has negative discriminant {disc}"
            )
        disc = 0.0
    r = math.sqrt(disc)
    return (sigma + r) / 2.0, (sigma - r) / 2.0


def _inverter(topology: Topology, construct):
    """The inverse on ``topology``; ``construct`` gives the weights of a nonzero triple in range."""
    kind, lo, hi = topology.kind, UNIT_LOW, UNIT_HIGH

    def invert(target) -> InverseSolution:
        x, y, z = triple = scaled = _validate_triple(target)
        # the check's total: sum() of floats is compensated on Python >= 3.12
        total, e = x + y + z, 0
        if not lo <= total <= hi:
            scaled, e = unit_scaled(triple)
        if not MASKS[kind](*scaled):  # looked up per call, so a replaced entry decides
            raise NotRealizable(None, kind, triple)
        if not total:
            return InverseSolution(topology, (0.0,) * topology.edge_count, triple)
        weights = construct(scaled)
        if e:
            weights = tuple(math.ldexp(w, e) for w in weights)
        return InverseSolution(topology, weights, triple)

    invert.__name__ = invert.__qualname__ = f"invert_{kind}"
    invert.__doc__ = construct.__doc__
    return invert


def _star_weights(triple) -> tuple[float, ...]:
    """Star weights are the roots of the length cubic

    L^3 - (1/2)(sum)L^2 + (1/3)(sum of pairs)L - (1/4)(product) = 0;
    complex roots mean the target is not realizable.  The star mask decides
    first: near its boundary the cubic's roundoff band accepts targets outside.
    """
    x, y, z = triple
    total = x + y + z
    p2, p1, p0 = -0.5 * total, (x * y + x * z + y * z) / 3.0, -0.25 * x * y * z
    try:
        roots = _roots(p2, p1, p0, clamp=False)
    except NoThreeRealRoots:
        disc = cubic_discriminant(p2, p1, p0)
        cert = Certificate("star-length-cubic", disc, "length cubic has complex roots")
        raise NotRealizable(cert) from None
    return _clamp_nonneg(roots, scale=total)


def _cycle_weights(triple) -> tuple[float, ...]:
    """Cycle construction under the sum-8 normalization.

    With the largest entry written as 4 + s and the smallest as t, the
    parameters are a = 4 - t, d = t^2/4 and
    c = (-(2t+s-4)^2 - (8-3t)(2t+s-4) + t(4-t))/4; the edge weights are
    recovered from the quadratics u^2 - a*u + c and u^2 - (4-a)*u + d.
    The second is (u - t/2)^2, so l2 = l4 = t/2 exactly, as the kite's
    triangle weights are b/2; solving it in floats split the double root
    by ~sqrt(eps).  The proof's second choice of (a, c, d) asks for
    2t + s > 4, that is t > 4 - s - t, the middle entry, which the
    smallest entry never exceeds.
    """
    x, y, z = triple
    factor = 8.0 / (x + y + z)
    t, _, big = sorted((x * factor, y * factor, z * factor))
    s = big - 4.0
    a = 4.0 - t
    c = (-((2 * t + s - 4.0) ** 2) - (8.0 - 3.0 * t) * (2 * t + s - 4.0) + t * (4.0 - t)) / 4.0
    l1, l3 = _quad_roots(a, c)
    l2 = l4 = t / 2.0
    w1, w2, w3, w4 = _clamp_nonneg((l1, l2, l3, l4), scale=8.0)
    return w1 / factor, w2 / factor, w3 / factor, w4 / factor


def _path_weights(triple) -> tuple[float, ...]:
    """Path construction with eigenvalue sum 2f.

    With e2, e3 the target's pair sum and product, the middle weight a is a
    root of a^3 - f*a^2 + (e2/3)*a - e3/3 and the outer weights are the roots
    of u^2 - (f-a)*u + d, d = e3/(4a).  They are real when a lies in the
    window (4a - f)^2 <= 9f^2 - 8*e2, that is h(a) = 2a^2 - f*a + e2 - f^2 <= 0.
    When the target is realizable, the largest root lies in it: at a root a
    the other two roots r, r' have r + r' = f - a and r*r' = e2/3 - a(f - a),
    so h(a) = -(r^2 - r*r' + r'^2).  With three real roots that is <= 0 at
    each of them (and each lies in (0, f), as they are positive and sum to f);
    with one real root it is the only candidate.  The degenerate case with a
    zero entry uses a = 0 directly.
    """
    x, y, z = triple
    f = (x + y + z) / 2.0
    small, mid, big = sorted(triple)
    s = big - f
    t = mid - small  # nonnegative spread of the remaining pair
    band = CLAMP_TOL * f
    if small <= band:
        # target is (f+s, 0, f-s) up to roundoff
        d = (f * f - s * s) / 4.0
        l2, l4 = _quad_roots(f, d)
        return _clamp_nonneg((l2, 0.0, l4), scale=f)
    lin = 4.0 * (f * f - s * s) + (f - s) ** 2 - t * t
    const = (f + s) * ((f - s) ** 2 - t * t)
    roots = cubic_real_roots(-f, lin / 12.0, -const / 12.0)
    window = 6.0 * s * s + 4.0 * s * f + 2.0 * t * t - f * f
    if window < -band * f:
        raise InternalInfeasible(f"empty admissible window ({window}) after predicate passed")
    half = 0.25 * math.sqrt(max(window, 0.0))
    lo = f / 4.0 - half
    hi = min(f / 4.0 + half, f)
    a = roots[-1]  # the roots come ascending
    if not (lo - band <= a <= hi + band and a > band):
        raise InternalInfeasible(
            f"no cubic root in admissible window [{lo}, {hi}] (roots {roots})"
        )
    a = min(a, f)
    d = const / (16.0 * a)
    l2, l4 = _quad_roots(f - a, d)
    return _clamp_nonneg((l2, a, l4), scale=f)


def _kite_weights(triple) -> tuple[float, ...]:
    """Kite construction under the sum-8 normalization.

    Sorting the target descending, the parameters are
    b = ((L1+L3) - R)/3, d = ((L1+L3) + R)/4 with
    R = sqrt((L1-L3)^2 - 2*L1*L3), and c = 4b - bd - (3/4)b^2; then
    l4 = d, l1 = 4 - b - d and l2, l3 solve u^2 - b*u + (c - b*l1).
    """
    x, y, z = triple
    factor = 8.0 / (x + y + z)
    lam3, _, lam1 = sorted((x * factor, y * factor, z * factor))
    rsq = (lam1 - lam3) ** 2 - 2.0 * lam1 * lam3
    if rsq < 0.0:
        if rsq < -CLAMP_TOL * 64.0:
            raise InternalInfeasible(f"negative radicand {rsq} after predicate passed")
        rsq = 0.0
    r = math.sqrt(rsq)
    b = (lam1 + lam3 - r) / 3.0
    d = (lam1 + lam3 + r) / 4.0
    if b + d > 4.0 + CLAMP_TOL * 8.0:
        raise InternalInfeasible(f"b + d = {b + d} exceeds 4")
    l1 = 4.0 - b - d
    # with c = 4b - bd - (3/4)b^2 the product l2*l3 = c - b*l1 collapses to
    # (b/2)^2 exactly, so the two triangle weights are always equal
    l2 = l3 = b / 2.0
    w1, w2, w3, w4 = _clamp_nonneg((l1, l2, l3, d), scale=8.0)
    return w1 / factor, w2 / factor, w3 / factor, w4 / factor


INVERTERS = {
    "star": _inverter(STAR, _star_weights),
    "cycle": _inverter(CYCLE4, _cycle_weights),
    "path": _inverter(PATH4, _path_weights),
    "kite": _inverter(KITE, _kite_weights),
}
invert_star, invert_cycle, invert_path, invert_kite = INVERTERS.values()


def suspend_spectrum(spectrum, c: float) -> np.ndarray:
    """Spectrum of the suspension with uniform new-edge weight ``c``.

    The zero eigenvalue stays, every other eigenvalue shifts by ``c`` and
    one new eigenvalue c*(n+1) appears.  ``spectrum`` must be a Laplacian
    spectrum: finite, with its smallest entry zero within ``CLAMP_TOL`` of
    its largest magnitude (a band that scales with it), and none below.
    """
    spec = np.sort(np.asarray(spectrum, dtype=float))
    if spec.size == 0:
        raise ValueError("empty spectrum")
    if not np.isfinite(spec).all():
        raise ValueError(f"non-finite eigenvalue in {spectrum!r}")
    band = CLAMP_TOL * np.abs(spec).max()
    if spec[0] < -band:
        raise ValueError(f"negative eigenvalue {spec[0]} in a Laplacian spectrum")
    if spec[0] > band:
        raise ValueError(f"smallest entry {spec[0]} is not a zero eigenvalue")
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"suspension weight must be nonnegative and finite, got {c}")
    n = spec.size
    with np.errstate(over="ignore"):
        out = np.concatenate(([0.0], spec[1:] + c, [c * (n + 1)]))
    if not np.isfinite(out).all():
        raise ValueError(f"suspension of {spectrum!r} with weight {c} overflows the float range")
    return np.sort(out)


def invert_complete(target) -> InverseSolution:
    """Realize any nonnegative n-tuple on K_{n+1} by nested suspensions.

    For m = n..2, vertex m joins 0..m-1 with weight c[m], the smallest remaining
    target over m + 1 (0 if zero), and the other targets drop by c[m]; K_2 takes
    half the last target.  So edge (i, j), i < j, weighs c[j].
    """
    vals = _validate_eigenvalues(target)
    if not vals:
        raise ValueError("empty target")
    lams = sorted(vals, reverse=True)
    n1 = len(vals) + 1
    c = [0.0] * n1
    for m in range(n1 - 1, 1, -1):
        smallest = lams.pop()
        if smallest > 0.0:
            c[m] = cm = smallest / (m + 1)
            lams = [max(v - cm, 0.0) for v in lams]
    c[1] = lams[0] / 2.0
    topo = complete(n1)
    solution = InverseSolution(topo, tuple(c[j] for _, j in topo.edges), vals)
    if solution.residual > RESIDUAL_TOL * max(1.0, sum(vals)):
        raise InternalInfeasible(f"residual {solution.residual} above tolerance for K{n1}")
    return solution

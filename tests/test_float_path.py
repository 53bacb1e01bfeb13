"""The scalar check/invert path: golden outputs and Python-float results.

A single ``check_*`` or ``invert_*`` call works on Python floats from
input to result.  The golden digest pins its verdicts, certificates and
weights bit for bit to those of the numpy-scalar path it replaced, and its
residuals to the Laplacian's LAPACK spectrum.
"""

import hashlib
import math

import numpy as np
import pytest

from lapreal.cubic import (
    COEFFS,
    CubicCoeffs,
    NoThreeRealRoots,
    cubic_real_roots,
    laplacian_cubic_roots,
    reduced_cubic,
    solve_cubic_real,
)
from lapreal.graphs import CYCLE4, FOUR_VERTEX_KINDS, KITE, PATH4, STAR, Topology, build_laplacian
from lapreal import inverse
from lapreal.jacobi import spectrum_numeric
from lapreal.inverse import INVERTERS, NotRealizable
from lapreal.oracle import SamplerConfig, roundtrip_suite
from lapreal.realizability import CHECKS

KINDS = FOUR_VERTEX_KINDS
TOPOLOGIES = {kind: Topology(kind) for kind in KINDS}

#: star targets with |f1 f2 f3| / sum^6 below this are left out of the
#: golden set, and star sums stay in [1, 10]: near the star boundary and
#: at other sums the length cubic's discriminant band used to accept
#: targets that the star check rejects, and the star inverse now defers
#: to the star check there
STAR_BAND = 1e-5

GOLDEN_PER_TOPOLOGY = 600

#: sha256 of repr(golden_records()) written at commit 6086437, re-pinned when the
#: path's cubes became products, which moved only the last bits of 45 path
#: certificate values, when every residual came to read the Laplacian's LAPACK
#: spectrum, which moved 1040 of the 1223 residuals and nothing else, and when
#: the cubic became one outlier root plus a deflated pair and the cycle's w2 = w4
#: became t/2, which moved the weights of 106 star, 137 cycle and 114 path
#: records and 264 of their residuals, and when the cubic's Newton guard became
#: relative, which moved the weights of 25 path records and 22 of their residuals;
#: no verdict or certificate changed (CHANGES.md lists them)
GOLDEN_DIGEST = "8ac63dc0d31108a0ae87a15e08feb7a3489906b9e64450f9893b67cad55376e1"

FIXED_TARGETS = (
    (0.0, 0.0, 0.0),
    (5.0, 0.0, 0.0),
    (3.0, 0.0, 3.0),
    (1.0, 1.0, 4.0),
    (4.0, 2.0, 2.0),
    (4.0, 3.0, 1.0),
    (5.0, 2.0, 1.0),
    (2.0 + math.sqrt(2.0), 2.0, 2.0 - math.sqrt(2.0)),
    (1.0, 1.0, 1.0),
)


def star_product(x, y, z):
    f1 = 6 * x * x - 2 * x * y - 2 * x * z + y * z
    f2 = 6 * y * y - 2 * x * y - 2 * y * z + x * z
    f3 = 6 * z * z - 2 * x * z - 2 * y * z + x * y
    return f1 * f2 * f3


def golden_targets(kind):
    """Seeded simplex triples rescaled over six decades (one for star), plus fixed cases."""
    rng = np.random.default_rng([2024, KINDS.index(kind)])
    u = np.sort(rng.random((GOLDEN_PER_TOPOLOGY, 2)), axis=1)
    decades = (0.0, 1.0) if kind == "star" else (-3.0, 3.0)
    scale = 10.0 ** rng.uniform(*decades, GOLDEN_PER_TOPOLOGY)
    rows = np.stack([u[:, 0], u[:, 1] - u[:, 0], 1.0 - u[:, 1]], axis=1) * scale[:, None]
    targets = [tuple(r) for r in rows.tolist()] + list(FIXED_TARGETS)
    if kind == "star":
        targets = [t for t in targets if not abs(star_product(*t)) < STAR_BAND * sum(t) ** 6]
    return targets


def golden_record(kind, target):
    verdict = CHECKS[kind](target)
    cert = verdict.certificate
    record = [kind, [float(v).hex() for v in target], verdict.realizable]
    if cert is not None:
        record += [cert.name, float(cert.value).hex(), cert.detail]
    try:
        sol = INVERTERS[kind](target)
    except NotRealizable:
        record.append(None)
    else:
        record.append([float(w).hex() for w in sol.weights] + [float(sol.residual).hex()])
    return record


def golden_records():
    return [golden_record(kind, t) for kind in KINDS for t in golden_targets(kind)]


def test_golden_digest():
    digest = hashlib.sha256(repr(golden_records()).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST


@pytest.mark.parametrize("kind", KINDS)
def test_check_verdict_is_bool(kind):
    for target in ((1.0, 1.0, 4.0), (1.0, 1.0, 1.0), (4.0, 2.0, 2.0), np.array([3.0, 0.5, 0.25])):
        assert type(CHECKS[kind](target).realizable) is bool


@pytest.mark.parametrize("kind", KINDS)
def test_invert_residual_is_float(kind):
    targets = [t for t in golden_targets(kind)[:40] if CHECKS[kind](t).realizable]
    assert targets
    for target in targets + [np.asarray(targets[0])]:
        sol = INVERTERS[kind](target)
        assert type(sol.residual) is float
        assert all(type(w) is float for w in sol.weights)


@pytest.mark.parametrize(
    "topology, weights",
    [(STAR, (1.0, 2.0, 3.0)), (CYCLE4, [1.0, 2.0, 3.0, 4.0]), (PATH4, np.array([0.5, 1.5, 2.5])),
     (KITE, np.array([1.0, 0.0, 2.0, 3.0]))],
)
def test_reduced_cubic_gives_python_floats(topology, weights):
    c = reduced_cubic(topology, weights)
    assert (type(c.p2), type(c.p1), type(c.p0)) == (float, float, float)


@pytest.mark.parametrize("wrap", [tuple, list, np.array])
def test_reduced_cubic_rejects_bad_weights(wrap):
    with pytest.raises(ValueError, match="expects 3 weights"):
        reduced_cubic(STAR, wrap([1.0, 2.0]))
    with pytest.raises(ValueError, match="expects 4 weights"):
        reduced_cubic(CYCLE4, wrap([1.0, 2.0, 3.0, 4.0, 5.0]))
    with pytest.raises(ValueError, match="negative"):
        reduced_cubic(PATH4, wrap([1.0, -2.0, 3.0]))


@pytest.mark.parametrize("wrap", [tuple, list, np.array])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reduced_cubic_rejects_non_finite_weights(wrap, bad):
    with pytest.raises(ValueError, match=f"non-finite edge weight {bad}"):
        reduced_cubic(KITE, wrap([1.0, 2.0, bad, 3.0]))


#: sha256 of repr(cubic_root_records()) written at commit 88ac83a and re-pinned
#: when the discriminant's cubes became products, which moved only the last
#: digits of 13 NoThreeRealRoots messages, and when the cubic became one outlier
#: root plus a deflated pair, which moved the roots of 1670 of the 1954 records
#: and no NoThreeRealRoots record, and when the Newton guard became relative,
#: which moved the roots of 40 records (CHANGES.md lists them)
CUBIC_ROOTS_DIGEST = "ea1be464990b1f53d2defcc5765ffd75b5f4eeff8198cb31b5dc22b42f32c00a"

#: sha256 of the RoundtripReport lines of roundtrip_reports(), written at commit 88ac83a
#: and re-pinned when the Jacobi step became the symmetric two-sided update, when
#: the cubic became one outlier root plus a deflated pair, and when the roundtrip
#: began to verify on the deflated 3x3 block; each moved only max_residual fields
#: (CHANGES.md lists them)
ROUNDTRIP_DIGEST = "aa8b4166c48be067e0fb5dda9286586f7e4e2333b735736fc99e8b0fc85eeebd"


def cubic_inputs():
    """Seeded Laplacian cubics of every topology over three scales, plus one-real-root cubics."""
    rng = np.random.default_rng(77)
    out = []
    for topology in TOPOLOGIES.values():
        for scale in (1e-3, 1.0, 1e3):
            w = rng.random((150, topology.edge_count)) * scale
            w[rng.random(w.shape) < 0.2] = 0.0
            w[:10] = scale  # equal weights: repeated roots
            out += [COEFFS[topology.kind](*row) for row in w.tolist()]
    out += [tuple(row) for row in rng.standard_normal((150, 3)).tolist()]
    return out + [(0.0, 1.0, 0.0), (-2.0, 1.0, -2.0), (0.0, 0.0, 0.0), (-6.0, 9.0, -4.0)]


def _hex_or_error(fn, *args):
    try:
        return [float(r).hex() for r in fn(*args)]
    except NoThreeRealRoots as exc:
        return ["NoThreeRealRoots", str(exc)]


def cubic_root_records():
    return [
        [_hex_or_error(cubic_real_roots, *c),
         _hex_or_error(solve_cubic_real, CubicCoeffs(*c)),
         _hex_or_error(laplacian_cubic_roots, CubicCoeffs(*c))]
        for c in cubic_inputs()
    ]


def test_cubic_roots_digest():
    records = cubic_root_records()
    assert any(r[1][0] == "NoThreeRealRoots" for r in records)
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == CUBIC_ROOTS_DIGEST


def roundtrip_reports():
    # both sample counts span several max(samples, 1000)-point sampling blocks on
    # every topology: at seeds 1-3 star takes 6, path 3, cycle and kite 2 each
    return [
        line
        for seed in (1, 2, 3)
        for samples in (1000, 15000)
        for topology in TOPOLOGIES.values()
        for line in roundtrip_suite(topology, SamplerConfig(seed=seed, samples=samples)).lines()
    ]


def test_roundtrip_reports_digest():
    digest = hashlib.sha256("\n".join(roundtrip_reports()).encode()).hexdigest()
    assert digest == ROUNDTRIP_DIGEST


@pytest.mark.parametrize("kind", KINDS)
def test_rejected_invert_carries_check_certificate(kind):
    rng = np.random.default_rng([31, KINDS.index(kind)])
    u = np.sort(rng.random((400, 2)), axis=1)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, 400)
    rows = np.stack([u[:, 0], u[:, 1] - u[:, 0], 1.0 - u[:, 1]], axis=1) * scale[:, None]
    names = set()
    for target in rows.tolist():
        verdict = CHECKS[kind](target)
        if verdict.realizable:
            continue
        with pytest.raises(NotRealizable) as info:
            INVERTERS[kind](target)
        assert info.value.certificate == verdict.certificate
        names.add(verdict.certificate.name)
    # the path rejects through both its cycle condition and its own inequality
    assert len(names) == (2 if kind == "path" else 1)


# The evidence of an inverse is computed when it is first read.  The
# rejection digest pins the lazy certificates and messages to those of the
# eager ones; it was computed at commit e427347 and re-pinned when the path's
# cubes became products, which moved only the last bits of 20 path certificate
# values (CHANGES.md lists them).
REJECTION_DIGEST = "d923906ddde6aa93120ea4496c27bc916940fb679d9490dc4bd4ba247ec5e200"

def rejected_targets(kind):
    rng = np.random.default_rng([37, KINDS.index(kind)])
    u = np.sort(rng.random((300, 2)), axis=1)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, 300)
    rows = np.stack([u[:, 0], u[:, 1] - u[:, 0], 1.0 - u[:, 1]], axis=1) * scale[:, None]
    return [t for t in rows.tolist() if not CHECKS[kind](t).realizable]


def rejection_records():
    records = []
    for kind in KINDS:
        for target in rejected_targets(kind):
            with pytest.raises(NotRealizable) as info:
                INVERTERS[kind](target)
            cert = info.value.certificate
            records.append([kind, cert.name, float(cert.value).hex(), cert.detail, str(info.value)])
    return records


def test_rejection_digest():
    digest = hashlib.sha256(repr(rejection_records()).encode()).hexdigest()
    assert digest == REJECTION_DIGEST


def counting(monkeypatch, owner, name):
    """Replace ``owner[name]`` (or ``owner.name``) by a wrapper that counts its calls."""
    calls = []
    original = owner[name] if isinstance(owner, dict) else getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, wrapper)
    else:
        monkeypatch.setattr(owner, name, wrapper)
    return calls


def matrix_residual(sol):
    """The largest distance from the LAPACK spectrum of the weights' Laplacian to (0, *target)."""
    spectrum = spectrum_numeric(build_laplacian(sol.topology, sol.weights))
    return float(np.max(np.abs(spectrum - sorted((0.0, *sol.target)))))


@pytest.mark.parametrize("kind", KINDS)
def test_roundtrip_suite_computes_no_residual(monkeypatch, kind):
    calls = counting(monkeypatch, inverse, "spectrum_numeric")
    report = roundtrip_suite(TOPOLOGIES[kind], SamplerConfig(1, 200))
    assert report.inverted == 200
    assert calls == []


@pytest.mark.parametrize("kind", KINDS)
def test_residual_computed_once_on_first_read(monkeypatch, kind):
    target = next(t for t in golden_targets(kind) if CHECKS[kind](t).realizable)
    calls = counting(monkeypatch, inverse, "spectrum_numeric")
    sol = INVERTERS[kind](target)
    assert calls == []
    first, second = sol.residual, sol.residual
    assert len(calls) == 1
    assert first.hex() == second.hex() == matrix_residual(sol).hex()


@pytest.mark.parametrize("kind", KINDS)
def test_residual_takes_the_matrix_route(kind):
    targets = [t for t in golden_targets(kind)[:100] if CHECKS[kind](t).realizable]
    assert targets
    for target in targets:
        sol = INVERTERS[kind](target)
        assert sol.residual.hex() == matrix_residual(sol).hex()


@pytest.mark.parametrize("kind", ["cycle", "kite"])
@pytest.mark.parametrize("scale", [1e-150, 1e100, 1e150])
def test_residual_at_extreme_scales(kind, scale):
    # the residual solved its own unscaled cubic, which overflowed (1e100,
    # 1e150) or divided by an underflowed zero (1e-150)
    target = (4.0 * scale, 3.0 * scale, 1.0 * scale)
    assert CHECKS[kind](target).realizable
    assert INVERTERS[kind](target).residual <= 1e-8 * sum(target)


@pytest.mark.parametrize("kind", KINDS)
def test_rejection_builds_certificate_on_first_read(monkeypatch, kind):
    targets = rejected_targets(kind)[:5]
    calls = counting(monkeypatch, CHECKS, kind)
    for read in (lambda exc: exc.certificate, str):
        for target in targets:
            with pytest.raises(NotRealizable) as info:
                INVERTERS[kind](target)
            assert calls == []
            read(info.value)
            read(info.value)
            assert len(calls) == 1
            calls.clear()


def certificate_cell(check):
    """The closure cell holding the certificate function that ``check`` defers."""
    return check.__closure__[check.__code__.co_freevars.index("certificate")]


@pytest.mark.parametrize("kind", KINDS)
def test_check_builds_certificate_on_first_read(monkeypatch, kind):
    calls = counting(monkeypatch, certificate_cell(CHECKS[kind]), "cell_contents")
    # in range, and 2**100 and 2**-100 times it, out of range: those certificates carry the scale
    for target in rejected_targets(kind)[:3]:
        for k in (0, 100, -100):
            verdict = CHECKS[kind]([math.ldexp(v, k) for v in target])
            assert not verdict.realizable
            assert calls == []
            first, second = verdict.certificate, verdict.certificate
            assert len(calls) == 1
            assert first is second
            assert ("at scale 2**" in first.detail) == (k != 0)
            calls.clear()


def test_solution_equality_ignores_cached_residual():
    a, b = (INVERTERS["cycle"]((1.0, 2.0, 5.0)) for _ in range(2))
    a.residual
    assert "residual" in vars(a) and "residual" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert a.target == (1.0, 2.0, 5.0)

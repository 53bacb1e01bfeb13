"""Round-robin Jacobi eigensolver."""

import hashlib
import itertools

import numpy as np
import pytest

from lapreal import forward_spectrum, invert_complete
from lapreal.graphs import CYCLE4, FOUR_VERTEX_KINDS, KITE, PATH4, STAR, Topology
from lapreal.graphs import build_laplacian, build_laplacians, complete
from lapreal import jacobi
from lapreal.jacobi import (
    OFFDIAG_TOL,
    JacobiNonConvergence,
    _round_robin,
    jacobi_spectra,
    spectrum_numeric,
)


def relative_error(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), np.finfo(float).tiny)


def symmetric_stack(rng, batch, n):
    a = rng.standard_normal((batch, n, n))
    return a + a.transpose(0, 2, 1)


ROBIN_ORDERS = range(1, 18)


class TestRoundRobin:
    @pytest.mark.parametrize("n", ROBIN_ORDERS)
    def test_every_pair_once_per_sweep(self, n):
        schedule = _round_robin(n)
        # n - 1 steps of n/2 pairs, or n steps of (n - 1)/2 pairs for odd n
        assert len(schedule.layouts) == len(schedule.perms) == n - 1 + n % 2
        pairs = n // 2
        i, j = np.triu_indices(pairs, 1)
        np.testing.assert_array_equal(np.arange(pairs)[schedule.rows], i)
        np.testing.assert_array_equal(np.arange(pairs)[schedule.cols], j)
        seen = []
        for layout in schedule.layouts:
            # each pair's pp, then each pair's qq, then each pair's pq
            p, q = layout[:pairs] // (n + 1), layout[pairs : 2 * pairs] // (n + 1)
            np.testing.assert_array_equal(layout[n : n + pairs], p * n + q)
            assert (p < q).all()
            odd = sorted(set(range(n)) - {*p.tolist(), *q.tolist()})
            assert len(odd) == n % 2  # disjoint, one left over at odd n
            np.testing.assert_array_equal(layout[2 * pairs : n], [o * (n + 1) for o in odd])
            seen += zip(p.tolist(), q.tolist())
            # each block i < j holds (p_i p_j), (p_i q_j), (q_i p_j), (q_i q_j), then
            # each pair j has (o p_j), (o q_j), every entry at its upper-triangle key
            ends = np.stack((p, q), axis=1)
            r, c = ends[i][:, :, None], ends[j][:, None, :]
            block = np.minimum(r, c) * n + np.maximum(r, c)
            end = n + pairs + block.size
            np.testing.assert_array_equal(layout[n + pairs : end], block.ravel())
            segments = [min(o, e) * n + max(o, e) for o in odd for e in ends.ravel().tolist()]
            np.testing.assert_array_equal(layout[end:], np.array(segments, dtype=layout.dtype))
        assert sorted(seen) == list(itertools.combinations(range(n), 2))

    @pytest.mark.parametrize("n", ROBIN_ORDERS)
    def test_each_layout_lists_every_key_once(self, n):
        i, j = np.triu_indices(n)
        for layout in _round_robin(n).layouts:
            np.testing.assert_array_equal(np.sort(layout), i * n + j)

    @pytest.mark.parametrize("n", ROBIN_ORDERS)
    def test_first_n_slots_are_the_diagonal(self, n):
        schedule = _round_robin(n)
        for layout in schedule.layouts:
            np.testing.assert_array_equal(np.sort(layout[:n]), np.arange(n) * (n + 1))
        # the sweep hands back the diagonal in vertex order
        np.testing.assert_array_equal(schedule.layouts[0][schedule.vertex], np.arange(n) * (n + 1))

    @pytest.mark.parametrize("n", ROBIN_ORDERS)
    def test_each_perm_leads_to_the_next_layout(self, n):
        layouts, perms = _round_robin(n)[:2]
        for k, perm in enumerate(perms):
            # u[perm] moves the rows of step k into the order of step k + 1, the
            # last step's back into the first's, which every convergence test reads
            np.testing.assert_array_equal(layouts[k][perm], layouts[(k + 1) % len(layouts)])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_block_pairs_are_a_slice_when_contiguous(self, n):
        # one block at n = 4 and 5, none below: a read by them is a view
        schedule = _round_robin(n)
        assert isinstance(schedule.rows, slice) == isinstance(schedule.cols, slice) == (n < 6)

    def test_schedule_built_once_and_read_only(self):
        schedule = _round_robin(6)
        assert _round_robin(6) is schedule
        arrays = [a for a in schedule if isinstance(a, np.ndarray)]
        assert len(arrays) == 7  # layouts, perms, rows, cols, vertex, upper, lower
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0


class TestSpectrumNumeric:
    def test_unit_star(self):
        spec = spectrum_numeric(build_laplacian(STAR, (1.0, 1.0, 1.0)))
        np.testing.assert_allclose(spec, [0.0, 1.0, 1.0, 4.0], atol=1e-10)

    def test_zero_matrix(self):
        spec = spectrum_numeric(np.zeros((4, 4)))
        np.testing.assert_array_equal(spec, np.zeros(4))

    def test_unit_k4(self):
        # unit K4 Laplacian is 4I - J: spectrum {0, 4, 4, 4}
        spec = spectrum_numeric(build_laplacian(complete(4), [1.0] * 6))
        np.testing.assert_allclose(spec, [0.0, 4.0, 4.0, 4.0], atol=1e-10)

    def test_diagonal_matrix(self):
        spec = spectrum_numeric(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_array_equal(spec, [-1.0, 2.0, 3.0])

    def test_entries_near_the_float_maximum(self):
        # the Frobenius norm overflowed, the convergence threshold became inf
        # and the unrotated diagonal [0, 0] came back
        spec = spectrum_numeric(np.array([[0.0, 1.5e308], [1.5e308, 0.0]]))
        np.testing.assert_allclose(spec, [-1.5e308, 1.5e308], rtol=1e-15)

    def test_eigenvalue_past_the_float_range_raises(self):
        # K3 with weights 8e307 has eigenvalue 2.4e308; the diagonal came back
        with pytest.raises(ValueError, match="overflows the float range"):
            spectrum_numeric(build_laplacian(complete(3), [8e307] * 3))

    @pytest.mark.parametrize("k", [-1000, -500, -100, 100, 500, 1000])
    def test_power_of_two_scale_is_exact(self, k):
        # out of range each matrix is taken at the scale of its largest entry,
        # so 2**k times a matrix gives 2**k times its spectrum, bit for bit
        rng = np.random.default_rng(83)
        for n in (3, 6, 28):
            m = symmetric_stack(rng, 1, n)[0]
            m /= 2.0 * np.abs(m).max()  # largest entry 0.5
            want = np.ldexp(spectrum_numeric(m), k)
            assert spectrum_numeric(np.ldexp(m, k)).tobytes() == want.tobytes()
            stack = jacobi_spectra(np.stack([m, np.ldexp(m, k)]))
            assert np.ldexp(stack[0], k).tobytes() == stack[1].tobytes()

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            spectrum_numeric(m)

    @pytest.mark.parametrize("exponent", range(0, -151, -15))
    def test_rejects_asymmetric_at_any_scale(self, exponent):
        # the tolerance had an absolute floor of 1e-12, so below that scale
        # [[2, 1], [0, 3]] passed and came back as [1.83, 3.17] * scale
        scale = 10.0**exponent
        with pytest.raises(ValueError, match="not symmetric"):
            spectrum_numeric(np.array([[2.0, 1.0], [0.0, 3.0]]) * scale)
        with pytest.raises(ValueError, match="not symmetric"):
            spectrum_numeric(np.array([[0.0, 1.0], [0.0, 0.0]]) * scale)
        # numpy's default rtol=1e-5 let [[2, 1], [1 + 1e-6, 3]] pass, and its
        # spectrum came back as that of the asymmetric matrix
        with pytest.raises(ValueError, match="not symmetric"):
            spectrum_numeric(np.array([[2.0, 1.0], [1.0 + 1e-6, 3.0]]) * scale)
        m = np.array([[2.0, 1.0], [1.0, 3.0]]) * scale
        m[0, 1] *= 1.0 + 1e-14  # roundoff-level asymmetry still passes
        np.testing.assert_allclose(spectrum_numeric(m), np.linalg.eigvalsh(m), rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN used to raise "matrix is not symmetric"
        with pytest.raises(ValueError, match=r"non-finite entry .* in matrix 0 at \[0, 0\]"):
            spectrum_numeric([[bad, 1.0], [1.0, 0.0]])

    def test_matches_numpy_eigvalsh(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4, 6, 9):
            a = rng.standard_normal((n, n))
            m = a + a.T
            got = spectrum_numeric(m)
            want = np.linalg.eigvalsh(m)
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestJacobiSpectra:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(37)
        rows = rng.uniform(0.0, 4.0, (30, 4))
        mats = build_laplacians(CYCLE4, rows)
        batch = jacobi_spectra(mats)
        for k in range(rows.shape[0]):
            np.testing.assert_allclose(
                batch[k], spectrum_numeric(mats[k]), atol=1e-12
            )

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            jacobi_spectra(np.zeros((3, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # [[inf, 1], [1, 0]] used to come back as the spectrum [0, inf]
        mats = np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]])
        mats[1, 1, 0] = mats[1, 0, 1] = bad
        with pytest.raises(ValueError, match=r"non-finite entry .* in matrix 1 at \[0, 1\]"):
            jacobi_spectra(mats)

    def test_laplacian_zero_eigenvalue(self):
        rng = np.random.default_rng(41)
        mats = build_laplacians(STAR, rng.uniform(0.0, 4.0, (100, 3)))
        spectra = jacobi_spectra(mats)
        assert np.abs(spectra[:, 0]).max() < 1e-9
        assert spectra.min() > -1e-9

    @pytest.mark.parametrize("n", range(1, 10))
    def test_batch_matches_eigvalsh(self, n):
        rng = np.random.default_rng(43 + n)
        mats = symmetric_stack(rng, 50, n)
        np.testing.assert_allclose(
            jacobi_spectra(mats), np.linalg.eigvalsh(mats), rtol=0.0, atol=1e-9
        )

    @pytest.mark.parametrize("n", range(2, 10))
    def test_zeroed_weights_repeated_zero_eigenvalues(self, n):
        # dropping edges splits K_n into components, one zero eigenvalue each
        topo = complete(n)
        rng = np.random.default_rng(47 + n)
        weights = rng.uniform(0.0, 4.0, (40, topo.edge_count))
        weights[rng.uniform(size=weights.shape) < 0.6] = 0.0
        mats = build_laplacians(topo, weights)
        np.testing.assert_allclose(
            jacobi_spectra(mats), np.linalg.eigvalsh(mats), rtol=0.0, atol=1e-9
        )

    def test_diagonal_input_bit_for_bit(self):
        rng = np.random.default_rng(53)
        diag = rng.standard_normal((20, 5)) * 10.0 ** rng.integers(-100, 100, (20, 5))
        mats = np.zeros((20, 5, 5))
        mats[:, np.arange(5), np.arange(5)] = diag
        np.testing.assert_array_equal(jacobi_spectra(mats), np.sort(diag, axis=1))

    @pytest.mark.parametrize("topo", [Topology(kind) for kind in FOUR_VERTEX_KINDS] + [complete(6)])
    def test_any_strides_same_bits(self, topo):
        # build_laplacians returns the transposed view of an (n, n, batch) array
        rng = np.random.default_rng([127, topo.edge_count])
        w = rng.uniform(0.0, 4.0, (60, topo.edge_count))
        w[rng.random(w.shape) < 0.2] = 0.0
        mats = build_laplacians(topo, w)
        assert not mats.flags.c_contiguous
        want = jacobi_spectra(np.ascontiguousarray(mats)).tobytes()
        assert jacobi_spectra(mats).tobytes() == jacobi_spectra(np.asfortranarray(mats)).tobytes() == want
        for view in (mats[::3], mats[1::2]):
            assert jacobi_spectra(view).tobytes() == jacobi_spectra(view.copy()).tobytes()

    @pytest.mark.parametrize("n", range(2, 12))
    def test_signed_zeros_sorted_from_vertex_order(self, n):
        # the sweep's rows are in step order, not vertex order, and numpy's sort
        # places 0.0 and -0.0 by their input order: the diagonal goes back to
        # vertex order first, so a diagonal matrix gives np.sort of its diagonal
        rng = np.random.default_rng([137, n])
        diag = rng.choice([0.0, -0.0, 1.0, -1.0], (200, n))
        mats = np.zeros((200, n, n))
        mats[:, np.arange(n), np.arange(n)] = diag
        assert jacobi_spectra(mats).tobytes() == np.sort(diag, axis=1).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 28])
    def test_reads_only_the_upper_triangle(self, n):
        rng = np.random.default_rng(89 + n)
        a = rng.standard_normal((3, n, n))
        upper = np.triu(a) + np.triu(a, 1).transpose(0, 2, 1)
        skewed = upper.copy()
        lower = np.tril_indices(n, -1)
        skewed[:, lower[0], lower[1]] *= 1.0 + 1e-14 * rng.choice([-1.0, 1.0], (3, lower[0].size))
        # a stack of one, a stack of three, and each matrix through LAPACK
        for mats, want in ((skewed[:1], upper[:1]), (skewed, upper)):
            assert jacobi_spectra(mats).tobytes() == jacobi_spectra(want).tobytes()
        for m, want in zip(skewed, upper):
            assert spectrum_numeric(m).tobytes() == spectrum_numeric(want).tobytes()

    def test_sweep_limit_raises(self):
        mats = symmetric_stack(np.random.default_rng(59), 1, 6)
        with pytest.raises(JacobiNonConvergence):
            jacobi_spectra(mats, max_sweeps=1)

    @pytest.mark.parametrize("exponent", range(-150, 151, 25))
    def test_scale_sweep(self, exponent):
        mats = symmetric_stack(np.random.default_rng(61), 20, 5) * 10.0**exponent
        got = jacobi_spectra(mats)
        want = np.linalg.eigvalsh(mats)
        for k in range(mats.shape[0]):
            assert relative_error(got[k], want[k]) <= 1e-12

    def test_k4_laplacian_at_1e160(self):
        # the Frobenius norm overflowed to inf above ~1.3e154, so the
        # unrotated diagonal (the vertex degrees) came back as the spectrum
        lap = build_laplacian(complete(4), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) * 1e160
        assert relative_error(spectrum_numeric(lap), np.linalg.eigvalsh(lap)) <= 1e-12


def assert_same_bits(m):
    # m alone, and m as half of a stack
    single, stacked = jacobi_spectra(m[None])[0], jacobi_spectra(np.stack([m, m]))[0]
    assert single.tobytes() == stacked.tobytes(), (single, stacked)


ORDERS = range(1, 29)


class TestFloatSweepParity:
    """A matrix gets the same bits from the stack sweep alone as in a stack.

    The class is named for the float sweep one small matrix took until one
    matrix went to LAPACK; every stack, of one matrix too, now takes the one sweep.
    """

    def test_every_stack_takes_the_stack_sweep(self, monkeypatch):
        def no_stack_sweep(*args):
            raise AssertionError("array sweep")

        monkeypatch.setattr(jacobi, "_sweep_stack", no_stack_sweep)
        for n in ORDERS:
            for batch in (1, 2):
                with pytest.raises(AssertionError, match="array sweep"):
                    jacobi_spectra(np.ones((batch, n, n)))

    @pytest.mark.parametrize("n", ORDERS)
    def test_random_with_signed_zeros(self, n):
        rng = np.random.default_rng(67 + n)
        for exponent in range(-150, 151, 25):
            a = rng.standard_normal((n, n))
            a[rng.random((n, n)) < 0.3] = 0.0
            a[rng.random((n, n)) < 0.1] = -0.0
            assert_same_bits((np.triu(a) + np.triu(a, 1).T) * 10.0**exponent)

    @pytest.mark.parametrize("n", range(2, 29))
    def test_complete_laplacians(self, n):
        topo = complete(n)
        rng = np.random.default_rng(71 + n)
        assert_same_bits(build_laplacian(topo, np.ones(topo.edge_count)))
        for _ in range(5):
            weights = rng.uniform(0.0, 4.0, topo.edge_count)
            weights[rng.uniform(size=weights.size) < 0.5] = 0.0
            assert_same_bits(build_laplacian(topo, weights))

    @pytest.mark.parametrize("n", ORDERS)
    def test_diagonal_and_zero(self, n):
        rng = np.random.default_rng(73 + n)
        assert_same_bits(np.diag(rng.standard_normal(n) * 10.0 ** rng.integers(-100, 100, n)))
        assert_same_bits(np.zeros((n, n)))
        assert_same_bits(-np.zeros((n, n)))

    @pytest.mark.parametrize("max_sweeps", [1, 2, 3])
    def test_same_sweep_limit(self, max_sweeps):
        def outcome(mats):
            try:
                return jacobi_spectra(mats, max_sweeps=max_sweeps)[0].tobytes()
            except JacobiNonConvergence:
                return None

        rng = np.random.default_rng(79)
        converged = set()
        for n in ORDERS:
            a = rng.standard_normal((n, n))
            m = a + a.T
            single = outcome(m[None])
            assert single == outcome(np.stack([m, m]))
            converged.add(single is not None)
        assert converged == {True, False}

    def test_mixed_stack_gives_each_matrix_its_own_bits(self):
        # a matrix leaves the stack at the first convergence test it passes, so
        # it gets the rotations, and the bits, it gets alone
        rng = np.random.default_rng([1, 1])
        stacks = [build_laplacians(topo, rng.uniform(0.0, 4.0, (400, topo.edge_count)))
                  for topo in map(Topology, FOUR_VERTEX_KINDS)]
        # 25 diagonal matrices retire at the first test, before any sweep, and
        # the 15 dense ones at later tests
        a = rng.standard_normal((40, 6, 6))
        dense = a + a.transpose(0, 2, 1)
        dense[:25] = [np.diag(np.diag(m)) for m in dense[:25]]
        for mats in stacks + [dense[rng.permutation(40)]]:
            alone = np.array([jacobi_spectra(m[None])[0] for m in mats])
            assert jacobi_spectra(mats).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, bad):
        m = np.ones((5, 5))
        m[2, 3] = m[3, 2] = bad
        with pytest.raises(ValueError, match=r"non-finite entry .* in matrix 0 at \[2, 3\]"):
            jacobi_spectra(m[None])


#: sha256 of the spectra, or error text, of jacobi_records(), written at commit 796c363
JACOBI_DIGEST = "425e1a8d1f74156a9fb7222e6c54b6dbbfa16c4dd23f014466d6cebb8a9fdb88"


def spectra_or_error(mats, max_sweeps=jacobi.MAX_SWEEPS):
    try:
        return jacobi_spectra(mats, max_sweeps=max_sweeps).tobytes()
    except (JacobiNonConvergence, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}".encode()


def jacobi_records():
    """The forward stacks, K_n Laplacians, signed-zero stacks at 10**+-150 and sweep-limited runs."""
    rng = np.random.default_rng([1, 1])
    records = [spectra_or_error(build_laplacians(topo, rng.uniform(0.0, 4.0, (2500, topo.edge_count))))
               for topo in map(Topology, FOUR_VERTEX_KINDS)]
    for n in range(2, 13):
        records.append(spectra_or_error(complete_laplacians(complete(n), np.random.default_rng([109, n]))[1]))
    rng = np.random.default_rng(113)
    for n in range(1, 13):
        a = rng.standard_normal((5, n, n))
        a[rng.random(a.shape) < 0.3] = 0.0
        a[rng.random(a.shape) < 0.1] = -0.0
        a *= 10.0 ** np.arange(-150, 151, 75)[:, None, None]
        # the lower triangle is unread: a and its symmetric copy give the same bits
        records += [spectra_or_error(a), spectra_or_error(np.triu(a) + np.triu(a, 1).transpose(0, 2, 1))]
        for max_sweeps in (1, 2, 3):
            records += [spectra_or_error(a[2:3], max_sweeps), spectra_or_error(a, max_sweeps)]
    a[3, 0, -1] = np.inf
    return records + [spectra_or_error(a)]


def test_jacobi_digest():
    records = jacobi_records()
    assert any(r.startswith(b"JacobiNonConvergence") for r in records)
    assert hashlib.sha256(repr(records).encode()).hexdigest() == JACOBI_DIGEST


def stack_sweep(m):
    # m as half of a stack takes the array sweep, the one-matrix route's reference
    return jacobi_spectra(np.stack([m, m]))[0]


def complete_laplacians(topo, rng):
    """Unit weights, then weights with 20% zeros at scales 1, 2**+-100 and 2**+-500."""
    weights = rng.uniform(0.0, 4.0, (5, topo.edge_count))
    weights[rng.random(weights.shape) < 0.2] = 0.0
    weights = np.concatenate(([np.ones(topo.edge_count)], np.ldexp(weights, [[0], [100], [-100], [500], [-500]])))
    return weights, build_laplacians(topo, weights)


class TestSpectrumRows:
    """One matrix through ``spectrum_numeric`` (LAPACK), with the stack sweep as its reference.

    The class is named for the numpy-free route, ``spectrum_rows``, that one
    matrix took until it went to LAPACK.
    """

    @pytest.mark.parametrize("n", range(2, 31))
    def test_complete_spectra_have_the_stack_bits(self, n):
        # each K_n Laplacian of the stack gets the bits it gets alone, and
        # LAPACK agrees with the stack to 1e-12 of the Laplacian's norm
        topo = complete(n)
        weights, laps = complete_laplacians(topo, np.random.default_rng([97, n]))
        stack = jacobi_spectra(laps)
        for w, lap, want in zip(weights, laps, stack):
            assert jacobi_spectra(lap[None])[0].tobytes() == want.tobytes()
            got = spectrum_numeric(lap)
            big = np.abs(lap).max()
            if big:  # else every weight is zero, and so is every eigenvalue
                norm = big * np.linalg.norm(lap / big)  # its square can overflow
                assert np.abs(got - want).max() <= 1e-12 * norm
                # the trace is 2 sum(w), and sum(lambda**2) the squared Frobenius norm
                assert abs(got.sum() - 2.0 * w.sum()) <= 1e-12 * 2.0 * w.sum()
                assert abs(np.sum((got / norm) ** 2) - 1.0) <= 1e-12
            else:
                assert not got.any() and not want.any()
            zeroed = np.where(np.abs(got) <= OFFDIAG_TOL * np.abs(got).max(), 0.0, got)
            assert forward_spectrum(topo, w).tobytes() == zeroed.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 14])
    def test_complete_residual_agrees_with_the_stack(self, n):
        rng = np.random.default_rng([99, n])
        target = rng.uniform(0.0, 5.0, n - 1)
        target[0] = 0.0
        sol = invert_complete(target)
        lap = build_laplacian(sol.topology, sol.weights)
        want = np.sort(np.concatenate(([0.0], target)))
        # LAPACK's residual to the bit, and the stack's to 1e-12 of the norm
        assert sol.residual.hex() == float(np.abs(spectrum_numeric(lap) - want).max()).hex()
        stack_residual = np.abs(stack_sweep(lap) - want).max()
        assert abs(sol.residual - stack_residual) <= 1e-12 * np.linalg.norm(lap)

    def test_rows_unchanged_and_lower_triangle_unread(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 12):
            a = rng.standard_normal((n, n))
            upper = np.triu(a) + np.triu(a, 1).T
            skewed = np.triu(a) + np.tril(a.T * (1.0 + 1e-13), -1)
            before = skewed.copy()
            assert spectrum_numeric(skewed).tobytes() == spectrum_numeric(upper).tobytes()
            assert skewed.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, bad):
        rows = [[1.0] * 5 for _ in range(5)]
        rows[3][2] = bad  # in the lower triangle, which LAPACK never reads
        with pytest.raises(ValueError, match=r"non-finite entry .* in matrix 0 at \[3, 2\]"):
            spectrum_numeric(rows)

    def test_rejects_rows_that_are_not_square(self):
        for rows in ([[1.0, 2.0], [2.0]], [[1.0], [2.0, 3.0]]):
            with pytest.raises(ValueError, match="inhomogeneous shape"):
                spectrum_numeric(rows)
        with pytest.raises(ValueError, match="square matrix"):
            spectrum_numeric([[1.0, 2.0, 3.0]])

    def test_overflowing_laplacian_named(self):
        # K_3 with weights 1e308 has degree 2e308 = inf on its diagonal; the
        # error named "non-finite entry inf in matrix 0 at [0, 0]", an entry
        # that is no weight
        with pytest.raises(ValueError, match=r"^degree of vertex 0 overflows the float range$"):
            forward_spectrum(complete(3), [1e308] * 3)

    @pytest.mark.parametrize("n", range(2, 28))
    def test_mixed_signed_zeros_sorted_as_the_stack(self, n):
        # a diagonal matrix's spectrum is its diagonal, exactly, in the stack's
        # order; -0.0 == 0.0, and LAPACK and numpy's sort place the two their own ways
        rng = np.random.default_rng([103, n])
        for _ in range(10):
            diag = rng.choice([0.0, -0.0, 1.0, -1.0], n)
            diag[:2] = 0.0, -0.0
            m = np.diag(rng.permutation(diag))
            np.testing.assert_array_equal(spectrum_numeric(m), stack_sweep(m))

    @pytest.mark.parametrize("n", range(1, 28))
    def test_norm_has_numpy_bits(self, n):
        # the stack's convergence threshold is OFFDIAG_TOL times numpy's Frobenius
        # norm, to the bit: an off-diagonal entry at it retires the matrix before
        # any sweep, and one ulp above it does not
        def limit(m):  # as the stack computes it
            return OFFDIAG_TOL * np.linalg.norm(m[:, :, None], axis=(0, 1))[0]

        rng = np.random.default_rng([107, n])
        for _ in range(20):
            m = np.diag(rng.uniform(1.0, 2.0, n))
            if n > 1:
                i, j = np.sort(rng.choice(n, 2, replace=False))
                m[i, j] = limit(m)
                assert m[i, j] == limit(m)  # the entry leaves the norm's bits as they are
            want = np.sort(np.diag(m))
            assert jacobi_spectra(m[None], max_sweeps=1)[0].tobytes() == want.tobytes()
            if n > 1:
                m[i, j] = np.nextafter(m[i, j], np.inf)
                with pytest.raises(JacobiNonConvergence):
                    jacobi_spectra(m[None], max_sweeps=1)


#: sweeps needed by each of 40 K_n Laplacians, weights default_rng([2, n]), before
#: the symmetric step; its sweep must converge within them
COMPLETE_SWEEPS = {
    4: "4455545455544545545554444554545454544545",
    5: "5556555655555555555555555555555555556555",
    6: "6555656556666565655666655566555665555666",
    7: "5665666666566666666565565656656666666566",
    8: "6666666665566656666666666666666666666566",
}


class TestConvergenceRate:
    def test_four_vertex_stacks(self):
        # the forward workload's weightings: 2500 of each graph, uniform on [0, 4)
        rng = np.random.default_rng([1, 1])
        for topo, sweeps in ((STAR, 6), (CYCLE4, 5), (PATH4, 5), (KITE, 5)):
            mats = build_laplacians(topo, rng.uniform(0.0, 4.0, (2500, topo.edge_count)))
            jacobi_spectra(mats, max_sweeps=sweeps)

    @pytest.mark.parametrize("n", sorted(COMPLETE_SWEEPS))
    def test_complete_laplacians(self, n):
        topo = complete(n)
        weights = np.random.default_rng([2, n]).uniform(0.0, 4.0, (40, topo.edge_count))
        mats = build_laplacians(topo, weights)
        sweeps = [int(k) for k in COMPLETE_SWEEPS[n]]
        for m, k in zip(mats, sweeps):
            jacobi_spectra(m[None], max_sweeps=k)
        jacobi_spectra(mats, max_sweeps=max(sweeps))


class TestCompleteZeroEigenvalue:
    def test_seeded_set_prints_exact_zero(self):
        # roundoff such as 5.8e-16 used to stand in for the zero eigenvalue
        rng = np.random.default_rng(3)
        for n in range(2, 10):
            topo = complete(n)
            for _ in range(200):
                spec = forward_spectrum(topo, rng.uniform(0.0, 4.0, topo.edge_count))
                assert spec[0] == 0.0

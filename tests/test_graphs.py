"""Topology definitions and Laplacian construction."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from lapreal.graphs import (
    CYCLE4,
    FOUR_VERTEX_KINDS,
    KITE,
    PATH4,
    STAR,
    Topology,
    _deflated_edge,
    build_laplacian,
    build_laplacians,
    complete,
    deflated_laplacians,
    float_weights,
    scale_weights,
    unit_scaled,
)
from lapreal.jacobi import jacobi_spectra

ALL_FOUR = list(map(Topology, FOUR_VERTEX_KINDS))


class TestTopology:
    def test_edge_counts(self):
        assert STAR.edge_count == 3
        assert CYCLE4.edge_count == 4
        assert PATH4.edge_count == 3
        assert KITE.edge_count == 4
        assert complete(4).edge_count == 6
        assert complete(7).edge_count == 21

    def test_edge_conventions(self):
        # center of the star is the last vertex
        assert STAR.edges == ((0, 3), (1, 3), (2, 3))
        assert CYCLE4.edges == ((0, 1), (1, 2), (2, 3), (3, 0))
        assert PATH4.edges == ((0, 1), (1, 2), (2, 3))
        assert KITE.edges == ((0, 1), (1, 2), (0, 2), (2, 3))

    def test_complete_edges_lexicographic(self):
        assert complete(4).edges == (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        )

    def test_four_vertex_order_fixed(self):
        with pytest.raises(ValueError):
            Topology("star", order=5)

    def test_complete_needs_two_vertices(self):
        with pytest.raises(ValueError):
            complete(1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Topology("wheel")


class TestCheckWeights:
    """The weight checks of ``float_weights``, which every weight reader calls."""

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            float_weights(STAR, [1.0, 1.0])

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            float_weights(CYCLE4, [1.0, -0.5, 1.0, 1.0])

    def test_zero_weights_allowed(self):
        assert float_weights(KITE, [0.0, 0.0, 0.0, 0.0]) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # NaN used to pass through into a NaN Laplacian and spectrum
        with pytest.raises(ValueError, match=f"non-finite edge weight {bad}"):
            float_weights(STAR, [1.0, bad, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            build_laplacian(complete(4), [1.0, 1.0, bad, 1.0, 1.0, 1.0])
        rows = np.ones((5, 4))
        rows[3, 2] = bad
        with pytest.raises(ValueError, match=f"non-finite edge weight {bad}"):
            build_laplacians(CYCLE4, rows)


class TestBuildLaplacian:
    def test_unit_star_matrix(self):
        lap = build_laplacian(STAR, (1.0, 1.0, 1.0))
        expected = np.array(
            [
                [1.0, 0.0, 0.0, -1.0],
                [0.0, 1.0, 0.0, -1.0],
                [0.0, 0.0, 1.0, -1.0],
                [-1.0, -1.0, -1.0, 3.0],
            ]
        )
        np.testing.assert_array_equal(lap, expected)

    def test_zero_weights_give_zero_matrix(self):
        for topo in ALL_FOUR + [complete(5)]:
            lap = build_laplacian(topo, [0.0] * topo.edge_count)
            assert not lap.any()

    @pytest.mark.parametrize("topo", ALL_FOUR + [complete(6)])
    def test_row_sums_vanish(self, topo):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = rng.uniform(0.0, 4.0, topo.edge_count)
            lap = build_laplacian(topo, w)
            np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
            np.testing.assert_array_equal(lap, lap.T)

    def test_path_is_cycle_with_deleted_edge(self):
        w = (0.7, 1.3, 2.1)
        lap_p = build_laplacian(PATH4, w)
        lap_c = build_laplacian(CYCLE4, w + (0.0,))
        np.testing.assert_array_equal(lap_p, lap_c)

    @pytest.mark.parametrize(
        "rows, row, vertex",
        [
            ([[1e308] * 3], 0, 0),
            ([[1.0] * 3, [1.0, 1e308, 1e308]], 1, 2),
            ([[1.0] * 3, [1.0, 1e308, 1e308], [1e308, 1e308, 1.0]], 1, 2),
        ],
    )
    def test_batch_degree_overflow_names_row_and_vertex(self, rows, row, vertex):
        # the degree 2e308 came out as inf with two RuntimeWarnings, named later
        # as "non-finite entry inf in matrix 0 at [0, 0]", an entry that is no weight;
        # the first row is named, then its first vertex, whatever the stack's layout
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match=rf"^degree of vertex {vertex} in row {row} overflows the float range$"
            ):
                build_laplacians(complete(3), rows)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(0.0, 4.0, (50, 4))
        stacked = build_laplacians(KITE, rows)
        for row, lap in zip(rows, stacked):
            np.testing.assert_array_equal(lap, build_laplacian(KITE, row))


class TestLaplacianRows:
    """``build_laplacian``, which adds the weights on rows of Python floats.

    The class is named for ``laplacian_rows``, the rows builder folded into it.
    """

    @pytest.mark.parametrize("topo", ALL_FOUR + [complete(n) for n in range(2, 9)])
    def test_rows_of_floats_with_the_batch_bits(self, topo):
        rng = np.random.default_rng(13)
        w = rng.uniform(0.0, 4.0, (20, topo.edge_count))
        w[rng.random(w.shape) < 0.3] = 0.0
        w[0] = 0.0
        # each row of one stack, and a stack of one
        for row, stacked in zip(w, build_laplacians(topo, w)):
            lap = build_laplacian(topo, row)
            assert lap.dtype == float and lap.shape == (topo.order, topo.order)
            assert lap.tobytes() == stacked.tobytes()
            assert lap.tobytes() == build_laplacians(topo, row[None])[0].tobytes()

    def test_validates_like_build_laplacian(self):
        for bad in ([1.0, 1.0], [1.0, -1.0, 1.0], [1.0, math.nan, 1.0]):
            with pytest.raises(ValueError):
                build_laplacian(STAR, bad)

    @pytest.mark.parametrize(
        "topo, weights, vertex",
        [(complete(3), [1e308] * 3, 0), (complete(3), [1.0, 1e308, 1e308], 2), (STAR, [1e308] * 3, 3)],
    )
    def test_degree_overflow_names_the_vertex(self, topo, weights, vertex):
        # the degree 2e308 came out as inf, named later as "non-finite entry inf
        # in matrix 0 at [0, 0]", an entry that is no weight
        with pytest.raises(ValueError, match=rf"^degree of vertex {vertex} overflows the float range$"):
            build_laplacian(topo, weights)


#: the Hadamard matrix whose rows over 2 are the basis of the deflated block
H4 = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])


class TestDeflatedLaplacians:
    @staticmethod
    def weights(topo, rows=300, seed=17):
        rng = np.random.default_rng([seed, FOUR_VERTEX_KINDS.index(topo.kind)])
        w = rng.uniform(0.0, 4.0, (rows, topo.edge_count))
        w[rng.random(w.shape) < 0.2] = 0.0
        return w

    @pytest.mark.parametrize("topo", ALL_FOUR)
    def test_spectra_are_the_laplacians_nonzero_three(self, topo):
        w = self.weights(topo)
        got = jacobi_spectra(deflated_laplacians(topo, w))
        want = np.linalg.eigvalsh(build_laplacians(topo, w))[:, 1:]
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-12 * want[:, -1:]).all()

    @pytest.mark.parametrize("topo", ALL_FOUR)
    def test_integer_weights_give_the_exact_block(self, topo):
        rng = np.random.default_rng(FOUR_VERTEX_KINDS.index(topo.kind))
        w = rng.integers(0, 1000, (200, topo.edge_count)).astype(float)
        block = deflated_laplacians(topo, w)
        full = (H4 @ build_laplacians(topo, w) @ H4.T) / 4
        assert not full[:, 0].any() and not full[:, :, 0].any()
        np.testing.assert_array_equal(block, full[:, 1:, 1:])

    @pytest.mark.parametrize("topo", ALL_FOUR)
    def test_trace_and_norm_are_the_laplacians(self, topo):
        w = self.weights(topo)
        block = deflated_laplacians(topo, w)
        np.testing.assert_allclose(np.trace(block, axis1=1, axis2=2), 2.0 * w.sum(axis=1), rtol=1e-14)
        np.testing.assert_allclose(
            np.linalg.norm(block, axis=(1, 2)),
            np.linalg.norm(build_laplacians(topo, w), axis=(1, 2)),
            rtol=1e-14,
        )

    @pytest.mark.parametrize("topo", ALL_FOUR)
    def test_eigvalsh_reads_the_full_block(self, topo):
        # eigvalsh reads the lower triangle by default; from an upper triangle
        # alone it gives the diagonal, [3, 4, 5] for the star (1, 2, 3)
        w = np.vstack([[1.0, 2.0, 3.0, 4.0][: topo.edge_count], self.weights(topo)])
        block = deflated_laplacians(topo, w)
        assert block.tobytes() == np.ascontiguousarray(block.transpose(0, 2, 1)).tobytes()
        got = np.linalg.eigvalsh(block)
        want = np.linalg.eigvalsh(build_laplacians(topo, w))[:, 1:]
        assert (np.abs(got - want) <= 1e-12 * want[:, -1:]).all()

    def test_the_edges_of_k4_are_the_six_signed_edges(self):
        k4 = complete(4)
        triples = []
        for k, (i, j) in enumerate(k4.edges):
            a, b, sign = _deflated_edge(i, j)
            unit = np.eye(6)[k : k + 1]
            want = np.zeros((3, 3))
            want[[a, b], [a, b]] = 1.0
            want[a, b] = want[b, a] = sign
            got = (H4 @ build_laplacians(k4, unit)[0] @ H4.T)[1:, 1:] / 4
            np.testing.assert_array_equal(got, want)
            triples.append((a, b, sign))
        assert sorted(triples) == [(a, b, s) for a, b in ((0, 1), (0, 2), (1, 2)) for s in (-1, 1)]

    @pytest.mark.parametrize("topo", ALL_FOUR)
    def test_a_row_gets_its_bits_alone(self, topo):
        w = self.weights(topo, rows=50)
        block = deflated_laplacians(topo, w)
        assert block.dtype == float and block.shape == (50, 3, 3)
        for row, b in zip(w, block):
            assert deflated_laplacians(topo, row[None])[0].tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "topo, rows",
        [
            (STAR, np.ones((4, 4))),
            (KITE, np.ones(4)),
            (CYCLE4, [[1.0, math.nan, 1.0, 1.0]]),
            (PATH4, [[1.0, 1.0, 1.0], [1.0, math.inf, 1.0]]),
            (STAR, [[1.0, -math.inf, 1.0]]),
            (KITE, [[1.0, 1.0, -0.5, 1.0]]),
        ],
    )
    def test_rejects_bad_weights_as_build_laplacians(self, topo, rows):
        with pytest.raises(ValueError) as built:
            build_laplacians(topo, rows)
        with pytest.raises(ValueError, match=f"^{re.escape(str(built.value))}$"):
            deflated_laplacians(topo, rows)

    @pytest.mark.parametrize(
        "topo, rows, row, entry",
        [
            (STAR, [[1e308] * 3], 0, (0, 0)),
            (KITE, [[1.0] * 4, [1e308, 1e308, 1.0, 1.0]], 1, (1, 1)),
            # the degrees are 1e308, but the block's entry [1, 1] is 2e308
            (CYCLE4, [[1.0] * 4, [1e308, 0.0, 1e308, 0.0]], 1, (1, 1)),
        ],
    )
    def test_overflow_names_row_and_entry(self, topo, rows, row, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError,
                match=rf"^entry \[{entry[0]}, {entry[1]}\] of the deflated block in row {row} overflows the float range$",
            ):
                deflated_laplacians(topo, rows)

    @pytest.mark.parametrize("topo", ALL_FOUR)
    def test_a_block_that_passes_holds_no_inf(self, topo):
        # only the diagonal is checked: every other entry sums some of its weights
        values = (0.0, 1.0, 5e307, 1e308, 1.7e308)
        for row in itertools.product(values, repeat=topo.edge_count):
            try:
                block = deflated_laplacians(topo, [row])
            except ValueError:
                assert max(row) >= 5e307
                continue
            assert np.isfinite(block).all()

    def test_rejects_complete_graphs(self):
        with pytest.raises(ValueError, match="four-vertex"):
            deflated_laplacians(complete(4), np.ones((2, 6)))


class TestScaleWeights:
    def test_identity(self):
        w = np.array([0.5, 1.5, 2.5])
        np.testing.assert_array_equal(scale_weights(w, 1.0), w)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_weights([1.0], 0.0)
        with pytest.raises(ValueError):
            scale_weights([1.0], -2.0)

    def test_doubling(self):
        np.testing.assert_array_equal(
            scale_weights([1.0, 2.0], 2.0), [2.0, 4.0]
        )


class TestUnitScaled:
    def test_in_range_values_kept(self):
        values = (2.0**-60, 0.0, 3.0)
        assert unit_scaled(values) == (values, 0)
        assert unit_scaled((0.0, 0.0, 0.0)) == ((0.0, 0.0, 0.0), 0)

    @pytest.mark.parametrize("k", [-1000, -61, 61, 1000])
    def test_out_of_range_scaled_exactly_into_half_one(self, k):
        values = tuple(math.ldexp(v, k) for v in (0.75, 0.125, 0.0))
        scaled, e = unit_scaled(values)
        assert scaled == (0.75, 0.125, 0.0) and e == k

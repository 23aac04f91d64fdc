import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox
from scipy.special import ndtri

import oracles
from tcsde import _kernels
from tcsde.brownian import BrownianPath, gaussian_increments, generate_path


def _interp(path, t):
    """The driver's linear interpolant at times t, read the vectorized way."""
    knots = np.arange(path.knot_count) / path.n
    return _kernels.pl_eval_many(knots, path.values, np.asarray(t, dtype=np.float64))


class TestGeneration:
    def test_knot_count(self):
        p = generate_path(4, 1.0, 0.0, 1, 0)
        assert p.knot_count == 5
        assert p.horizon == 1.0

    def test_initial_value_exact(self):
        p = generate_path(8, 1.0, 3.5, 42, 0)
        assert p.values[0] == 3.5
        assert p.x0 == 3.5

    def test_determinism_same_key(self):
        a = generate_path(16, 2.0, 0.0, 7, 3)
        b = generate_path(16, 2.0, 0.0, 7, 3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_distinct_samples_differ(self):
        a = generate_path(16, 1.0, 0.0, 7, 0)
        b = generate_path(16, 1.0, 0.0, 7, 1)
        assert not np.array_equal(a.values, b.values)

    def test_distinct_seeds_differ(self):
        a = generate_path(16, 1.0, 0.0, 7, 0)
        b = generate_path(16, 1.0, 0.0, 8, 0)
        assert not np.array_equal(a.values, b.values)

    def test_purpose_separates_streams(self):
        a = generate_path(16, 1.0, 0.0, 7, 0, purpose=0)
        b = generate_path(16, 1.0, 0.0, 7, 0, purpose=1)
        assert not np.array_equal(a.values, b.values)

    def test_extension_preserves_prefix(self):
        short = generate_path(32, 1.0, 0.5, 99, 4)
        long = short.extended(3.0)
        assert long.knot_count > short.knot_count
        np.testing.assert_array_equal(long.values[: short.knot_count], short.values)

    def test_key_words_keep_every_bit(self):
        # a key word at or above 2^63 must not pass through float64, where a
        # seed near 2^64 rounds to key 0 and 2^63 + 1 rounds to 2^63
        top = 2**64 - 1
        for a, b in [((top, 0), (0, 0)), ((2**63 + 1, 0), (2**63, 0)),
                     ((0, top), (0, 0)), ((0, 2**63 + 1), (0, 2**63))]:
            pa = generate_path(16, 1.0, 0.0, *a)
            pb = generate_path(16, 1.0, 0.0, *b)
            assert not np.array_equal(pa.values, pb.values), (a, b)

    @settings(max_examples=50, deadline=None)
    @given(
        factor=st.sampled_from([1, 2, 4, 8]),
        coarse_n=st.integers(1, 16),
        horizons=st.tuples(st.floats(1e-3, 20.0), st.floats(1e-3, 20.0)).map(sorted),
        x0=st.floats(allow_nan=False, allow_infinity=False),
        master_seed=st.integers(0, 2**64 - 1),
        sample_index=st.integers(0, 2**64 - 1),
        purpose=st.sampled_from([0, 1]),
    )
    def test_longer_path_starts_with_shorter_property(
        self, factor, coarse_n, horizons, x0, master_seed, sample_index, purpose
    ):
        # a driver grows in place only if every knot already read keeps its
        # bits, at the generated resolution and in every subsample of it
        lo, hi = horizons
        n = factor * coarse_n
        short = generate_path(n, lo, x0, master_seed, sample_index, purpose)
        long = generate_path(n, hi, x0, master_seed, sample_index, purpose)
        assert short.extended(hi).values.tobytes() == long.values.tobytes()
        for a, b in ((short, long), (short.subsample(factor), long.subsample(factor))):
            assert b.knot_count >= a.knot_count
            assert b.values[: a.knot_count].tobytes() == a.values.tobytes()

    @pytest.mark.parametrize("seed,index,x0", [(0, 0, 0.0), (7, 3, -1.5), (2**64 - 1, 9, 1e300),
                                               (20260808, 2**63, -0.0)])
    def test_drawn_in_place_with_the_out_of_place_bytes(self, seed, index, x0):
        # the driver is written into its values array: the same bytes as the
        # transform with a temporary per step, and no full-length float
        # temporary beside the raw words (16 bytes a knot; 32 out of place)
        n, horizon = 1024, 40.0
        count = int(n * horizon)
        key = np.array([seed, index], dtype=np.uint64)
        raw = Philox(counter=[0, 0, 0, 1], key=key).random_raw(count)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        want = np.concatenate([[x0], np.cumsum(ndtri(u) * np.sqrt(1.0 / n)) + x0])
        tracemalloc.start()
        try:
            got = generate_path(n, horizon, x0, seed, index, purpose=1).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < 20 * count

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_path(0, 1.0, 0.0, 1, 0)
        with pytest.raises(ValueError):
            generate_path(4, 0.0, 0.0, 1, 0)
        with pytest.raises(ValueError):
            generate_path(4, 1.0, 0.0, -1, 0)

    def test_values_immutable(self):
        p = generate_path(4, 1.0, 0.0, 1, 0)
        with pytest.raises(ValueError):
            p.values[0] = 7.0

    def test_increment_variance_quarter(self):
        # increments of an n=4 path are N(0, 1/4); check the sample variance
        # pooled over many regenerated paths to within 1%
        n, paths = 4, 200_000
        draws = np.empty((paths, 4))
        for i in range(paths):
            draws[i] = gaussian_increments(123, i, 4, n)
        var = draws.var(ddof=1)
        assert abs(var - 0.25) < 0.0025
        assert abs(draws.mean()) < 0.002


class TestInterpolation:
    def test_knot_identity_zero_error(self):
        p = generate_path(7, 1.0, 0.0, 5, 0)
        ks = np.arange(p.knot_count)
        np.testing.assert_array_equal(_interp(p, ks / 7), p.values)

    def test_midpoint(self):
        p = generate_path(4, 1.0, 0.0, 5, 1)
        ks = np.arange(4)
        ts = (ks / 4 + (ks + 1) / 4) / 2
        expected = (p.values[:-1] + p.values[1:]) / 2
        assert _interp(p, ts) == pytest.approx(expected, rel=1e-14, abs=1e-15)

    def test_linearity_unit_path(self):
        p = BrownianPath(n=1, values=np.array([0.0, 1.0]), master_seed=0, sample_index=0)
        np.testing.assert_array_equal(_interp(p, [0.25, 0.5, 1.0]), [0.25, 0.5, 1.0])

    def test_out_of_range(self):
        # the scalar reference refuses times off the stored knots
        p = generate_path(4, 1.0, 0.0, 5, 0)
        with pytest.raises(ValueError):
            oracles.interpolate(p, -0.01)
        with pytest.raises(ValueError):
            oracles.interpolate(p, 1.01)

    def test_random_points_between_knots(self):
        p = generate_path(16, 1.0, 0.0, 5, 2)
        ts = np.random.default_rng(0).uniform(0, 1, 100)
        ks = np.minimum((ts * 16).astype(int), 15)
        lo = np.minimum(p.values[ks], p.values[ks + 1])
        hi = np.maximum(p.values[ks], p.values[ks + 1])
        got = _interp(p, ts)
        assert np.all((lo - 1e-12 <= got) & (got <= hi + 1e-12))
        np.testing.assert_array_equal(got, [oracles.interpolate(p, t) for t in ts])


class TestSubsampling:
    def test_identity_factor(self):
        p = generate_path(8, 1.0, 0.0, 3, 0)
        assert p.subsample(1) is p

    def test_every_other_knot_bit_exact(self):
        p = generate_path(8, 1.0, 0.0, 3, 0)
        q = p.subsample(2)
        assert q.n == 4
        np.testing.assert_array_equal(q.values, p.values[::2])

    def test_composition(self):
        p = generate_path(16, 1.0, 0.0, 3, 1)
        a = p.subsample(2).subsample(2)
        b = p.subsample(4)
        assert a.n == b.n == 4
        np.testing.assert_array_equal(a.values, b.values)

    def test_non_divisor_rejected(self):
        p = generate_path(8, 1.0, 0.0, 3, 0)
        with pytest.raises(ValueError):
            p.subsample(3)

    def test_coupling_interpolation_agrees_at_coarse_knots(self):
        n, m = 16, 4
        p = generate_path(n, 1.0, 0.0, 9, 0)
        q = p.subsample(m)
        ks = np.arange(q.knot_count)
        np.testing.assert_array_equal(_interp(q, ks / (n // m)), _interp(p, ks * m / n))

    def test_subsampled_path_cannot_extend(self):
        p = generate_path(8, 1.0, 0.0, 3, 0)
        with pytest.raises(ValueError):
            p.subsample(2).extended(2.0)


class TestStatisticalSanity:
    def test_terminal_moments(self):
        # terminal value of x0=0, horizon-1 paths is N(0, 1): seeded check
        # over 1e5 paths, mean within 0.02 and variance within [0.97, 1.03]
        n, paths = 16, 100_000
        terminals = np.empty(paths)
        for i in range(paths):
            terminals[i] = gaussian_increments(2024, i, n, n).sum()
        assert abs(terminals.mean()) < 0.02
        assert 0.97 <= terminals.var(ddof=1) <= 1.03


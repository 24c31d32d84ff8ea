"""Tests for the (weighted) MinHash sample compressors.

The load-bearing property is Eq. 2: compression approximately preserves
between-column similarity, i.e. similar columns select overlapping rows.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.minhash import VARIANTS, select_indices, weighted_jaccard


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1500)
    near = x + 0.05 * rng.normal(size=1500)
    far = rng.normal(size=1500)
    return x, near, far


@pytest.mark.parametrize("variant", VARIANTS)
class TestPerVariant:
    def test_output_size(self, variant, columns):
        x, _, _ = columns
        assert x[select_indices(x, d=32, variant=variant)].shape == (32,)

    def test_deterministic(self, variant, columns):
        x, _, _ = columns
        a = x[select_indices(x, 48, variant, seed=1)]
        b = x[select_indices(x, 48, variant, seed=1)]
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_selection(self, variant, columns):
        x, _, _ = columns
        a = select_indices(x, 48, variant, seed=1)
        b = select_indices(x, 48, variant, seed=2)
        assert not np.array_equal(a, b)

    def test_indices_valid(self, variant, columns):
        x, _, _ = columns
        idx = select_indices(x, 64, variant)
        assert idx.min() >= 0 and idx.max() < len(x)

    def test_values_come_from_input(self, variant, columns):
        x, _, _ = columns
        c = x[select_indices(x, 16, variant)]
        assert np.isin(c, x).all()

    def test_similarity_preservation(self, variant, columns):
        """Eq. 2: near columns stay near, far columns stay far."""
        x, near, far = columns
        cx = x[select_indices(x, 64, variant)]
        cn = near[select_indices(near, 64, variant)]
        cf = far[select_indices(far, 64, variant)]
        assert weighted_jaccard(cx, cn) > weighted_jaccard(cx, cf)

    def test_short_input(self, variant):
        x = np.array([1.0, 5.0, 2.0])
        c = x[select_indices(x, 16, variant)]
        assert c.shape == (16,)
        assert np.isin(c, x).all()

    def test_handles_nonfinite(self, variant):
        x = np.array([1.0, np.nan, np.inf, -3.0] * 10)
        c = x[select_indices(x, 8, variant)]
        assert c.shape == (8,)

    def test_constant_column(self, variant):
        x = np.full(100, 7.0)
        c = x[select_indices(x, 8, variant)]
        np.testing.assert_array_equal(c, 7.0)


class TestWeightedVariantsSpecifics:
    def test_weighted_selection_is_scale_invariant(self):
        """Mean-normalization makes weighted selection scale-free."""
        x = np.abs(np.random.default_rng(1).normal(size=500)) + 0.1
        for variant in VARIANTS:
            a = select_indices(x, 32, variant)
            b = select_indices(x * 1000.0, 32, variant)
            np.testing.assert_array_equal(a, b)

    def test_weighted_variants_prefer_heavy_rows(self):
        """A row with overwhelming weight should be selected often."""
        x = np.ones(200)
        x[17] = 1e6
        for variant in VARIANTS:
            idx = select_indices(x, 64, variant)
            assert (idx == 17).mean() > 0.2, variant

    def test_unknown_variant_raises(self):
        """Only the paper's four weighted families; plain MinHash is not one."""
        for variant in ("nope", "minhash"):
            with pytest.raises(ValueError):
                select_indices(np.ones(10), 8, variant)

    def test_variants_differ(self):
        x = np.random.default_rng(3).normal(size=400)
        sels = {v: tuple(select_indices(x, 32, v)) for v in VARIANTS}
        assert len(set(sels.values())) > 1


class TestMatrixAndJaccard:
    def test_jaccard_identical(self):
        x = np.random.default_rng(0).normal(size=100)
        assert weighted_jaccard(x, x) == pytest.approx(1.0)

    def test_jaccard_bounds(self):
        rng = np.random.default_rng(1)
        s = weighted_jaccard(rng.normal(size=50), rng.normal(size=50))
        assert 0.0 <= s <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_jaccard_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=40), rng.normal(size=40)
        assert weighted_jaccard(a, b) == pytest.approx(weighted_jaccard(b, a))


def _reference_select(x, d, variant, seed):
    """The uncached formulas, written out in full: every draw and every
    weight-independent term is recomputed on each call."""
    from repro.hashing.minhash import _normalize_weights

    w = _normalize_weights(x)
    m = len(w)
    g = np.random.default_rng(seed)
    u1, u2, u3, u4 = (g.random((d, m)) for _ in range(4))
    r = -np.log(u1 * u2)
    b = u3
    lw = np.log(w)[None, :]
    if variant in ("icws", "licws", "pcws"):
        t = np.floor(lw / r + b)
        ln_y = r * (t - b)
        if variant == "icws":
            a = np.log(-np.log(u4 * np.roll(u4, 1, axis=1))) - ln_y - r
        elif variant == "licws":
            a = -ln_y - r
        else:
            a = np.log(-np.log(u4)) - ln_y - r
    else:
        t = np.floor(w[None, :] / r + b)
        y = r * (t - b)
        a = -np.log(u4 * np.roll(u4, 1, axis=1)) / (y + r)
    return np.argmin(a, axis=1)


class TestCachedDraws:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equals_uncached_formulas(self, variant):
        rng = np.random.default_rng(5)
        cols = [
            rng.normal(size=700),
            np.abs(rng.standard_cauchy(size=700)),
            np.r_[np.full(350, 2.0), rng.normal(size=350)],
            np.array([1.0, np.nan, np.inf, -3.0] * 50),
        ]
        # Repeated (d, M, seed) keys hit the cache; the 33-row column and
        # the seeds cycle it.
        for seed in (0, 7, 0):
            for x in cols + [rng.normal(size=33)]:
                for d in (16, 48):
                    np.testing.assert_array_equal(
                        select_indices(x, d, variant, seed), _reference_select(x, d, variant, seed)
                    )

    def test_cached_arrays_read_only(self):
        from repro.hashing.minhash import _draws

        for a in _draws(8, 50, 3):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_cache_bounded(self):
        from repro.hashing.minhash import _draws

        for m in range(40, 60):
            _draws(4, m, 0)
        assert _draws.cache_info().currsize <= _draws.cache_info().maxsize

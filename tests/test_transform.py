"""Tests for repro.core.transform: sigmoid link and the Box-Cox pipeline.

Includes hypothesis property tests for the invariants the paper relies on:
Box-Cox is strictly increasing (rank-preserving) and invertible, and the
normalizer maps [value_min, value_max] onto [0, 1] monotonically.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transform import (
    BoxCoxTransform,
    QoSNormalizer,
    logit,
    sigmoid,
)

alphas = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
qos_values = st.floats(min_value=1e-3, max_value=20.0, allow_nan=False)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == pytest.approx(0.5)

    def test_symmetry(self):
        assert sigmoid(2.0) + sigmoid(-2.0) == pytest.approx(1.0)

    def test_extreme_values_do_not_overflow(self):
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0)

    def test_vectorized(self):
        out = sigmoid(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)

    def test_scalar_returns_float(self):
        assert isinstance(sigmoid(0.3), float)

    def test_derivative_matches_finite_difference(self):
        xs = np.linspace(-4, 4, 17)
        h = 1e-6
        numeric = (sigmoid(xs + h) - sigmoid(xs - h)) / (2 * h)
        g = sigmoid(xs)  # the kernels' g' = g (1 - g)
        np.testing.assert_allclose(g * (1.0 - g), numeric, atol=1e-8)

    def test_derivative_peak_at_zero(self):
        g = sigmoid(0.0)
        assert g * (1.0 - g) == pytest.approx(0.25)

    def test_logit_inverts_sigmoid(self):
        xs = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(logit(sigmoid(xs)), xs, atol=1e-9)

    def test_logit_clips_edges(self):
        assert np.isfinite(logit(0.0))
        assert np.isfinite(logit(1.0))


def _inverse(transform, y):
    """Eq. 3 solved for x: what :meth:`BoxCoxTransform.forward` must
    round-trip through."""
    if transform.alpha == 0.0 or abs(transform.alpha) < 1e-8:
        return math.exp(y)
    return max(transform.alpha * y + 1.0, 0.0) ** (1.0 / transform.alpha)


class TestBoxCox:
    def test_alpha_zero_is_log(self):
        transform = BoxCoxTransform(alpha=0.0)
        assert transform.forward(np.e) == pytest.approx(1.0)

    def test_alpha_one_is_shifted_identity(self):
        transform = BoxCoxTransform(alpha=1.0)
        assert transform.forward(3.0) == pytest.approx(2.0)  # (x - 1) / 1

    def test_paper_alpha_rt(self):
        # Spot value: (x^a - 1)/a with a = -0.007, x = 2.
        transform = BoxCoxTransform(alpha=-0.007)
        expected = (2.0**-0.007 - 1.0) / -0.007
        assert transform.forward(2.0) == pytest.approx(expected)

    def test_floor_clamps_zero_input(self):
        transform = BoxCoxTransform(alpha=-0.05, floor=1e-3)
        assert np.isfinite(transform.forward(0.0))
        assert transform.forward(0.0) == transform.forward(1e-3)

    @given(alpha=alphas, x=qos_values)
    @settings(max_examples=200)
    def test_roundtrip(self, alpha, x):
        transform = BoxCoxTransform(alpha=alpha)
        assert _inverse(transform, transform.forward(x)) == pytest.approx(x, rel=1e-6)

    @given(alpha=alphas, x=qos_values, y=qos_values)
    @settings(max_examples=200)
    def test_strictly_increasing(self, alpha, x, y):
        transform = BoxCoxTransform(alpha=alpha)
        if abs(x - y) < 1e-9:
            return
        low, high = sorted((x, y))
        assert transform.forward(low) < transform.forward(high)

    def test_vectorized_matches_scalar(self):
        transform = BoxCoxTransform(alpha=-0.007)
        xs = np.array([0.5, 1.0, 5.0])
        vector = transform.forward(xs)
        for k, x in enumerate(xs):
            assert vector[k] == pytest.approx(transform.forward(float(x)))

    def test_invalid_floor_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            BoxCoxTransform(alpha=0.0, floor=0.0)


class TestQoSNormalizer:
    def test_maps_bounds_to_unit_interval(self):
        normalizer = QoSNormalizer(alpha=-0.007, value_min=0.0, value_max=20.0)
        assert normalizer.normalize(1e-3) == pytest.approx(0.0, abs=1e-9)
        assert normalizer.normalize(20.0) == pytest.approx(1.0)

    def test_out_of_range_clipped(self):
        normalizer = QoSNormalizer(alpha=1.0, value_min=0.0, value_max=10.0)
        assert normalizer.normalize(25.0) == 1.0
        assert normalizer.normalize(-5.0) == 0.0

    def test_linear_factory(self):
        normalizer = QoSNormalizer(alpha=1.0, value_min=0.0, value_max=10.0)
        assert normalizer.alpha == 1.0
        assert normalizer.normalize(5.0) == pytest.approx(0.5, abs=1e-3)

    @given(x=qos_values)
    @settings(max_examples=150)
    def test_roundtrip_rt_config(self, x):
        normalizer = QoSNormalizer(alpha=-0.007, value_min=0.0, value_max=20.0)
        assert normalizer.denormalize(normalizer.normalize(x)) == pytest.approx(
            x, rel=1e-5, abs=1e-5
        )

    @given(x=qos_values, y=qos_values)
    @settings(max_examples=150)
    def test_rank_preserving(self, x, y):
        normalizer = QoSNormalizer(alpha=-0.05, value_min=0.0, value_max=20.0)
        if abs(x - y) < 1e-9:
            return
        low, high = sorted((x, y))
        assert normalizer.normalize(low) <= normalizer.normalize(high)

    def test_transformed_skew_reduced_on_lognormal(self):
        """The point of the transform (Fig. 7 -> Fig. 8): less skew."""
        rng = np.random.default_rng(0)
        raw = np.clip(rng.lognormal(mean=0.0, sigma=1.0, size=5000), 0, 20)
        normalizer = QoSNormalizer(alpha=-0.007, value_min=0.0, value_max=20.0)
        transformed = np.asarray(normalizer.normalize(raw))

        def skew(v):
            return abs(np.mean((v - v.mean()) ** 3) / v.std() ** 3)

        assert skew(transformed) < skew(raw) / 2

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError, match="value_max"):
            QoSNormalizer(alpha=1.0, value_min=5.0, value_max=5.0)

    def test_denormalize_clamps_to_value_max(self):
        normalizer = QoSNormalizer(alpha=-0.007, value_min=0.0, value_max=20.0)
        assert normalizer.denormalize(1.0) <= 20.0
        assert normalizer.denormalize(2.0) <= 20.0  # clipped input


# ---------------------------------------------------------------------------
# Kernel oracle: the textbook numpy formulas, kept here as the reference the
# two shapes of repro.core.transform are held to.
# ---------------------------------------------------------------------------
def ref_sigmoid(x):
    x = np.asarray(x, dtype=float)
    positive_branch = 1.0 / (1.0 + np.exp(-np.clip(x, 0.0, None)))
    exp_x = np.exp(np.clip(x, None, 0.0))
    negative_branch = exp_x / (1.0 + exp_x)
    return np.where(x >= 0, positive_branch, negative_branch)


def ref_forward(x, alpha, floor):
    x = np.maximum(np.asarray(x, dtype=float), floor)
    if abs(alpha) < 1e-8:
        return np.log(x)
    return (np.power(x, alpha) - 1.0) / alpha


def ref_bounds(alpha, value_min, value_max, floor):
    low = float(ref_forward(max(value_min, floor), alpha, floor))
    return low, float(ref_forward(value_max, alpha, floor))


def ref_normalize(values, alpha, value_min, value_max, floor):
    low, high = ref_bounds(alpha, value_min, value_max, floor)
    out = (ref_forward(values, alpha, floor) - low) / (high - low)
    return np.clip(out, 0.0, 1.0)


def ref_denormalize(normalized, alpha, value_min, value_max, floor):
    low, high = ref_bounds(alpha, value_min, value_max, floor)
    normalized = np.clip(np.asarray(normalized, dtype=float), 0.0, 1.0)
    y = normalized * (high - low) + low
    if abs(alpha) < 1e-8:
        out = np.exp(y)
    else:
        base = np.maximum(alpha * y + 1.0, 0.0)
        with np.errstate(divide="ignore"):
            out = np.power(base, 1.0 / alpha)
    return np.minimum(np.maximum(out, floor), value_max)


def ref_normalize_scalar(value, alpha, value_min, value_max, floor):
    """The write path's per-sample arithmetic (what ``observe`` stores)."""
    low, high = ref_bounds(alpha, value_min, value_max, floor)
    value = value if value > floor else floor
    if abs(alpha) < 1e-8:
        transformed = math.log(value)
    else:
        transformed = (value**alpha - 1.0) / alpha
    r = (transformed - low) / (high - low)
    return 0.0 if r < 0.0 else 1.0 if r > 1.0 else r


CONFIGS = [
    (alpha, value_min, value_max, floor)
    for alpha in (-0.007, -0.05, 0.0, 0.5, 1.0)
    for value_min, value_max, floor in (
        (0.0, 20.0, 1e-3),
        (0.0, 1000.0, 1e-3),
        (1.0, 7000.0, 1e-2),
        (0.5, 2.0, 1e-6),
    )
]
configs = st.sampled_from(CONFIGS)
sigmoid_inputs = st.one_of(
    st.floats(min_value=-800.0, max_value=800.0),
    st.floats(min_value=-40.0, max_value=40.0),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
)
lengths = st.sampled_from([0, 1, 20, 4097])


def _array(data, elements, length):
    seed = data.draw(st.lists(elements, min_size=min(length, 8), max_size=8))
    return np.resize(np.asarray(seed, dtype=float), length)


def _within_ulps(value, reference, ulps=2):
    return value == reference or abs(value - reference) <= ulps * math.ulp(reference)


class TestKernelOracle:
    @given(data=st.data(), length=lengths)
    @settings(max_examples=100, deadline=None)
    def test_array_sigmoid_is_bit_equal(self, data, length):
        x = _array(data, sigmoid_inputs, length)
        out = sigmoid(x)
        assert out.shape == x.shape and out.dtype == np.float64
        assert out.tobytes() == ref_sigmoid(x).tobytes()

    @given(data=st.data(), length=lengths, config=configs)
    @settings(max_examples=150, deadline=None)
    def test_array_normalizer_is_bit_equal(self, data, length, config):
        normalizer = QoSNormalizer(*config)
        n = _array(data, st.floats(min_value=-0.5, max_value=1.5), length)
        assert normalizer.denormalize(n).tobytes() == ref_denormalize(n, *config).tobytes()
        g = ref_sigmoid(_array(data, sigmoid_inputs, length))
        assert normalizer.denormalize(g).tobytes() == ref_denormalize(g, *config).tobytes()
        v = _array(data, st.floats(min_value=-1.0, max_value=1e4), length)
        assert normalizer.normalize(v).tobytes() == ref_normalize(v, *config).tobytes()
        assert np.array_equal(v, np.asarray(v))  # inputs are never written

    @given(x=sigmoid_inputs, y=sigmoid_inputs)
    @settings(max_examples=300)
    def test_float_sigmoid(self, x, y):
        gx, gy = sigmoid(x), sigmoid(y)
        assert type(gx) is float
        assert _within_ulps(gx, float(ref_sigmoid(x)))
        low, high = sorted((x, y))
        assert sigmoid(low) <= sigmoid(high)
        assert gy == sigmoid(np.float64(y)) == sigmoid(np.asarray(y))  # 0-d: same branch

    @given(
        n=st.floats(min_value=-0.5, max_value=1.5),
        m=st.floats(min_value=-0.5, max_value=1.5),
        config=configs,
    )
    @settings(max_examples=300)
    def test_float_denormalize(self, n, m, config):
        normalizer = QoSNormalizer(*config)
        out = normalizer.denormalize(n)
        assert type(out) is float
        assert _within_ulps(out, float(ref_denormalize(n, *config)))
        low, high = sorted((n, m))
        assert normalizer.denormalize(low) <= normalizer.denormalize(high)

    @given(
        v=st.floats(min_value=-1.0, max_value=1e4),
        w=st.floats(min_value=-1.0, max_value=1e4),
        config=configs,
    )
    @settings(max_examples=300)
    def test_float_normalize_and_round_trip(self, v, w, config):
        normalizer = QoSNormalizer(*config)
        r = normalizer.normalize(v)
        assert type(r) is float and 0.0 <= r <= 1.0
        # Bit-equal to the per-sample reference; against the array formula
        # ``x**alpha - 1`` cancels, so a last-digit difference in the power
        # is worth ulp(1) / (|alpha| * span), not 2 ulp of the result.
        assert r == ref_normalize_scalar(v, *config)
        assert r == pytest.approx(float(ref_normalize(v, *config)), abs=1e-12)
        low, high = sorted((v, w))
        assert normalizer.normalize(low) <= normalizer.normalize(high)
        __, value_min, value_max, floor = config
        back = normalizer.denormalize(r)
        assert floor <= back <= value_max
        clamped = min(max(v, value_min, floor), value_max)
        assert back == pytest.approx(clamped, rel=1e-6)

    @pytest.mark.parametrize("config", CONFIGS[:4] + CONFIGS[8:12])
    def test_write_path_normalize_is_bit_equal(self, config):
        """``observe`` stores this number and every replay reads it back: it
        is the same double the per-sample code has always produced."""
        normalizer = QoSNormalizer(*config)
        rng = np.random.default_rng(7)
        for value in rng.lognormal(mean=0.0, sigma=2.0, size=10_000).tolist():
            assert normalizer.normalize(value) == ref_normalize_scalar(value, *config)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_nan_in_is_nan_out_and_neighbours_are_intact(self, config):
        normalizer = QoSNormalizer(*config)
        nan = math.nan
        assert math.isnan(sigmoid(nan)) and math.isnan(normalizer.denormalize(nan))
        assert math.isnan(normalizer.normalize(nan))
        mixed = np.array([0.25, nan, 0.75])
        for out, ref in (
            (sigmoid(mixed), ref_sigmoid(mixed)),
            (normalizer.denormalize(mixed), ref_denormalize(mixed, *config)),
            (normalizer.normalize(mixed), ref_normalize(mixed, *config)),
        ):
            assert np.isnan(out).tolist() == [False, True, False]
            assert out[[0, 2]].tobytes() == ref[[0, 2]].tobytes()  # neighbours intact
        top = pytest.approx(config[2], rel=1e-9)  # a saturated link is value_max
        assert normalizer.denormalize(sigmoid(math.inf)) == top
        assert normalizer.denormalize(sigmoid(np.array([math.inf])))[0] == top

    def test_a_vanishing_base_clamps_to_value_max(self):
        """An alpha negative enough that ``x**alpha`` underflows: the base of
        the inverse reaches 0, its power is +inf, and +inf is ``value_max``
        — without a warning in either shape."""
        normalizer = QoSNormalizer(alpha=-300.0, value_min=1.0, value_max=20.0, floor=0.5)
        assert normalizer._base_can_vanish
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalizer.denormalize(1.0) == 20.0
            assert normalizer.denormalize(np.array([1.0, 0.0])).tolist() == [20.0, 1.0]
        assert not QoSNormalizer()._base_can_vanish


class _NoNumpy:
    """Stands in for ``numpy`` inside ``repro.core.transform``: any use of it
    is the 0-d tax coming back."""

    def __getattr__(self, name):
        raise AssertionError(f"a scalar prediction reached numpy.{name}")


class TestOnePairOneFloat:
    """The regression gate for the serve-time kernels (no wall clock)."""

    def test_scalar_paths_never_touch_numpy(self, monkeypatch):
        from repro.core import AdaptiveMatrixFactorization, AMFConfig
        from repro.core import transform
        from repro.datasets.schema import QoSRecord
        from repro.lifecycle import LifecycleConfig, TieredAMF

        flat = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        tiered = TieredAMF(
            AMFConfig.for_response_time(), rng=0,
            lifecycle=LifecycleConfig(hot_users=2, hot_services=2),
        )
        for k in range(40):
            record = QoSRecord(timestamp=float(k), user_id=k % 4,
                               service_id=(k * 3) % 5, value=0.2 + k % 7)
            flat.observe(record)
            tiered.observe_reviving(record)
        hot_user = next(iter(tiered._u_slot_of))
        cold_user = next(iter(tiered._spilled_users))
        hot_service = next(iter(tiered._s_slot_of))
        cold_service = next(iter(tiered._spilled_services))
        expected = (flat.predict(1, 2), tiered.predict(cold_user, cold_service))

        monkeypatch.setattr(transform, "np", _NoNumpy())
        assert flat.predict(1, 2) == expected[0]
        assert type(flat.predict(1, 2)) is float
        assert type(flat.predict_normalized(1, 2)) is float
        assert 0.0 < flat.denormalize_value(0.4) < 20.0
        assert 0.0 < flat.normalize_value(1.5) < 1.0
        for user_id in (hot_user, cold_user):
            for service_id in (hot_service, cold_service):
                assert 0.0 < tiered.predict_normalized(user_id, service_id) < 1.0
        assert tiered.predict(cold_user, cold_service) == expected[1]
        flat.observe(QoSRecord(timestamp=99.0, user_id=1, service_id=2, value=0.7))
        with pytest.raises(AssertionError, match="reached numpy"):
            flat.predict_for_user(1, [0, 1])  # the guard does bite

    def test_batch_kernel_equals_reference_on_a_trained_model(self):
        from repro.core import AdaptiveMatrixFactorization, AMFConfig
        from repro.datasets.schema import QoSRecord

        config = AMFConfig.for_response_time()
        model = AdaptiveMatrixFactorization(config, rng=3)
        rng = np.random.default_rng(3)
        for k in range(600):
            model.observe(QoSRecord(
                timestamp=float(k), user_id=int(rng.integers(0, 12)),
                service_id=int(rng.integers(0, 30)),
                value=float(rng.lognormal(0.0, 1.0)),
            ))
        bounds = (config.alpha, config.value_min, config.value_max, config.value_floor)
        inner = model.user_factors() @ model.service_factors().T
        reference = ref_denormalize(ref_sigmoid(inner), *bounds)
        assert model.predict_matrix().tobytes() == reference.tobytes()
        for user_id in range(12):
            row = model.predict_for_user(user_id, np.arange(30))
            gathered = model.service_factors() @ model.user_factors()[user_id]
            assert row.tobytes() == ref_denormalize(ref_sigmoid(gathered), *bounds).tobytes()
            for service_id in range(30):
                assert _within_ulps(
                    model.predict(user_id, service_id), float(row[service_id]), ulps=16
                )

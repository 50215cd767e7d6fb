import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ratejump.poisson import (
    Constant,
    ExpDecay,
    JumpComponent,
    Polynomial,
    RateSpec,
    Sinusoid,
    eval_rate,
    format_rate_spec,
    load_rate_spec,
    parse_rate_spec,
    preset_rate_spec,
    rate_upper_bound,
    save_rate_spec,
    simulate,
)
from ratejump.seeding import SimSeed


def sin_exp_spec(base=1e6, jump=4e4, onset=9.0):
    return RateSpec(
        components=(
            JumpComponent(base, 0.0, Sinusoid(offset=1.0, omega=1.0)),
            JumpComponent(jump, onset, ExpDecay(rate=1.0)),
        )
    )


def const_spec(rate):
    return RateSpec(components=(JumpComponent(rate, 0.0, Constant()),))


def test_eval_rate_benchmark_values():
    spec = sin_exp_spec()
    assert eval_rate(spec, 0.0) == pytest.approx(1e6)
    assert eval_rate(spec, 9.0) == pytest.approx(1e6 * (1 + math.sin(9)) + 4e4)
    assert eval_rate(spec, 8.999999) == pytest.approx(1e6 * (1 + math.sin(8.999999)), rel=1e-6)
    # before every onset the rate is zero
    late = RateSpec(components=(JumpComponent(5.0, 3.0, Constant()),))
    assert eval_rate(late, 2.9) == 0.0
    assert eval_rate(late, 3.0) == 5.0  # right-continuous at the onset


def test_eval_rate_vectorized():
    spec = const_spec(7.0)
    out = eval_rate(spec, np.array([0.0, 1.0, 2.0]))
    assert out.tolist() == [7.0, 7.0, 7.0]


def test_rate_upper_bound_dominates():
    spec = sin_exp_spec(base=100.0, jump=40.0)
    rng = np.random.default_rng(0)
    for a in rng.uniform(0, 19, size=25):
        b = a + 1.0
        bound = rate_upper_bound(spec, (a, b))
        ts = np.linspace(a, b, 101)
        assert bound >= eval_rate(spec, ts).max() - 1e-9


def test_rate_upper_bound_shapes():
    assert rate_upper_bound(const_spec(50.0), (3.0, 4.0)) == 50.0
    sin = RateSpec(components=(JumpComponent(10.0, 0.0, Sinusoid(offset=2.0, omega=1.0)),))
    assert rate_upper_bound(sin, (0.0, 1.0)) == 10.0 * (2.0 + math.sin(1.0))  # no crest inside
    dec = RateSpec(components=(JumpComponent(10.0, 5.0, ExpDecay(rate=1.0)),))
    assert rate_upper_bound(dec, (5.0, 6.0)) == 10.0  # value at the onset
    assert rate_upper_bound(dec, (4.0, 4.5)) == 0.0  # not yet active
    poly = RateSpec(components=(JumpComponent(1.0, 0.0, Polynomial(coeffs=(1.0, -2.0, 3.0))),))
    assert rate_upper_bound(poly, (0.0, 2.0)) == 9.0  # x(2); the critical point 1/3 is a minimum


def _second_derivative_bound(shape, u):
    """max |x''| over the sample points u."""
    if isinstance(shape, Sinusoid):
        return shape.omega**2
    if isinstance(shape, ExpDecay):
        return shape.rate**2 * math.exp(-shape.rate * u[0])
    if isinstance(shape, Polynomial):
        P = np.polynomial.polynomial
        return float(np.abs(P.polyval(u, P.polyder(shape.coeffs, 2))).max())
    return 0.0


_SHAPES = st.one_of(
    st.just(Constant()),
    st.builds(Sinusoid, offset=st.floats(-2, 2), omega=st.floats(-20, 20),
              phase=st.floats(-10, 10)),
    st.builds(ExpDecay, rate=st.floats(0.01, 10)),
    st.builds(Polynomial, coeffs=st.lists(st.floats(-10, 10), min_size=1, max_size=5).map(tuple)),
)


@given(shape=_SHAPES, u0=st.floats(0, 10), width=st.floats(0, 3))
@settings(max_examples=300, deadline=None)
def test_shape_bounds_are_exact_extrema(shape, u0, width):
    u1 = u0 + width
    n = 20_000
    u = np.linspace(u0, u1, n + 1)
    vals = shape.value(u)
    lower, upper = shape.bounds(u0, u1)
    rounding = 1e-12 * (1.0 + np.abs(vals).max())
    # between grid points an interior extremum exceeds the grid by at most
    # h**2/8 * max|x''|; a looser bound than that fails
    miss = 2 * (width / n) ** 2 / 8 * _second_derivative_bound(shape, u) + rounding
    assert vals.max() - rounding <= upper <= vals.max() + miss
    assert vals.min() - miss <= lower <= vals.min() + rounding


def test_component_validation():
    with pytest.raises(ValueError, match="amplitude"):
        JumpComponent(-1.0, 0.0, Constant())
    with pytest.raises(ValueError, match="onset"):
        JumpComponent(1.0, -0.5, Constant())
    # a delayed component must actually jump at its onset
    with pytest.raises(ValueError, match="must jump"):
        JumpComponent(1.0, 2.0, Sinusoid(offset=0.0, omega=1.0, phase=0.0))
    # same shape is fine when it starts at zero
    JumpComponent(1.0, 0.0, Sinusoid(offset=0.0, omega=1.0, phase=0.5))


def test_simulate_rejects_negative_rate():
    # offset-0 sinusoid from t=0 goes negative after pi
    spec = RateSpec(
        components=(JumpComponent(5.0, 0.0, Sinusoid(offset=0.0, omega=1.0, phase=0.5)),)
    )
    with pytest.raises(ValueError, match="negative"):
        simulate(spec, 10.0, 0)


def test_simulate_certifies_before_any_draw():
    # the rate turns negative only after t = pi - 0.5, about 2.6: every
    # window is certified before the generator is touched
    spec = RateSpec(
        components=(JumpComponent(5.0, 0.0, Sinusoid(offset=0.0, omega=1.0, phase=0.5)),)
    )
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="negative"):
        simulate(spec, 10.0, rng)
    assert rng.bit_generator.state == state


def test_simulate_envelope_consistency_guard():
    class LyingShape:
        name = "constant"

        def value(self, u):
            return np.ones_like(np.asarray(u, dtype=float)) * 5.0

        def bounds(self, u0, u1):
            return 5.0, 1.0  # wrong on purpose: the maximum is below the true value

    spec = RateSpec(components=(JumpComponent(100.0, 0.0, LyingShape()),))
    with pytest.raises(RuntimeError, match="envelope"):
        simulate(spec, 2.0, 0)


def test_simulate_negative_rate_guard_never_clamps():
    class LyingShape:
        name = "constant"

        def value(self, u):
            return -np.ones_like(np.asarray(u, dtype=float))

        def bounds(self, u0, u1):
            return 1.0, 1.0  # wrong on purpose: the minimum certifies a negative shape

    spec = RateSpec(components=(JumpComponent(100.0, 0.0, LyingShape()),))
    with pytest.raises(RuntimeError, match="negative"):
        simulate(spec, 2.0, 0)


def test_simulate_rejects_narrow_negative_dip():
    # 1e4*((u - 10.02)**2 - 1e-8) dips to -1e-4 on |u - 10.02| < 1e-4, far
    # narrower than any fixed sampling grid
    c = 10.02
    spec = RateSpec(components=(JumpComponent(1e4, 0.0, Polynomial((c * c - 1e-8, -2 * c, 1.0))),))
    with pytest.raises(ValueError, match=r"negative on \[10.0, 11.0\): Lambda\(10.02"):
        simulate(spec, 20.0, 0)


def test_simulate_uncertifiable_window_named():
    # u**2 + (1 - 2u) = (u - 1)**2 touches zero at 1 through cancellation
    # between two components, so windows near 1 cannot be certified
    spec = RateSpec(
        components=(
            JumpComponent(1.0, 0.0, Polynomial((0.0, 0.0, 1.0))),
            JumpComponent(1.0, 0.0, Polynomial((1.0, -2.0))),
        )
    )
    with pytest.raises(ValueError, match=r"cannot certify .* on \[0\.99"):
        simulate(spec, 2.0, 0)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: Sinusoid(offset=math.nan, omega=1.0), "offset"),
        (lambda: Sinusoid(offset=1.0, omega=math.inf), "omega"),
        (lambda: Sinusoid(offset=1.0, omega=1.0, phase=-math.inf), "phase"),
        (lambda: ExpDecay(rate=math.inf), "rate"),
        (lambda: Polynomial((1.0, math.nan)), "coefficient 1"),
    ],
)
def test_shape_rejects_non_finite_parameters(make, field):
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        make()


def test_fixed_seed_count_band():
    events = simulate(const_spec(1000.0), 10.0, 12345)
    assert 9500 <= len(events) <= 10500
    assert events.horizon == 10.0
    assert np.all(np.diff(events.times) > 0)  # sorted, duplicate-free


def _compensator(spec, t):
    """int_0^t Lambda, in closed form per shape."""
    t = np.asarray(t, dtype=np.float64)
    total = np.zeros_like(t)
    for comp in spec.components:
        u = np.maximum(t - comp.onset, 0.0)
        shape = comp.shape
        if isinstance(shape, Sinusoid):
            part = shape.offset * u + (
                math.cos(shape.phase) - np.cos(shape.omega * u + shape.phase)
            ) / shape.omega
        elif isinstance(shape, ExpDecay):
            part = (1.0 - np.exp(-shape.rate * u)) / shape.rate
        elif isinstance(shape, Polynomial):
            P = np.polynomial.polynomial
            part = P.polyval(u, P.polyint(shape.coeffs))
        else:
            part = u
        total += comp.amplitude * part
    return total


def test_thinning_law_with_onsets_and_split_windows():
    # a sinusoid with crests inside unit windows, a polynomial whose onset
    # cuts [2, 3) in two and an exponential decay starting at 4.25; the peak
    # rate is about 9.6e4, so windows are split into several pieces
    spec = RateSpec(
        components=(
            JumpComponent(3e4, 0.0, Sinusoid(offset=1.2, omega=2.0, phase=0.3)),
            JumpComponent(2e4, 2.5, Polynomial((1.0, -0.5, 0.1))),
            JumpComponent(1e4, 4.25, ExpDecay(rate=2.0)),
        )
    )
    horizon, runs = 6.0, 8
    assert rate_upper_bound(spec, (4.25, 5.0)) * 0.75 > 2**15
    mean = float(_compensator(spec, horizon))
    rescaled, total = [], 0
    for s in range(runs):
        times = simulate(spec, horizon, SimSeed(11, s)).times
        total += times.size
        rescaled.append(_compensator(spec, times) / mean)
    z = (total - runs * mean) / math.sqrt(runs * mean)
    assert abs(z) <= 4.0
    # given the count, the rescaled times are iid uniform on [0, 1]
    assert stats.kstest(np.concatenate(rescaled), "uniform").pvalue > 1e-3


def test_determinism_and_streams():
    spec = sin_exp_spec(base=200.0, jump=50.0)
    a = simulate(spec, 20.0, SimSeed(7, 3))
    b = simulate(spec, 20.0, SimSeed(7, 3))
    c = simulate(spec, 20.0, SimSeed(7, 4))
    assert np.array_equal(a.times, b.times)
    assert not np.array_equal(a.times, c.times)


def test_expected_count_closed_form():
    # E N(20) = B*(21 - cos 20) + A*(1 - exp(-11)) for the sin+exp family
    base, jump = 1000.0, 40.0
    spec = sin_exp_spec(base=base, jump=jump)
    expected = base * (21 - math.cos(20)) + jump * (1 - math.exp(-11))
    counts = [len(simulate(spec, 20.0, SimSeed(99, s))) for s in range(30)]
    se = math.sqrt(expected / 30)
    assert np.mean(counts) == pytest.approx(expected, abs=4 * se)


def test_superposition():
    # sum of two constant processes matches one process at the summed rate
    n_runs = 200
    merged = [
        len(simulate(const_spec(30.0), 5.0, SimSeed(1, s)))
        + len(simulate(const_spec(20.0), 5.0, SimSeed(2, s)))
        for s in range(n_runs)
    ]
    combined = [len(simulate(const_spec(50.0), 5.0, SimSeed(3, s))) for s in range(n_runs)]
    # same mean (250) and Poisson dispersion; allow 4 sigma on the mean gap
    se = math.sqrt(2 * 250.0 / n_runs)
    assert abs(np.mean(merged) - np.mean(combined)) <= 4 * se


def test_interarrival_distribution():
    events = simulate(const_spec(500.0), 20.0, 2024)
    gaps = np.diff(events.times)
    assert stats.kstest(gaps, "expon", args=(0, 1 / 500.0)).pvalue > 0.01


def test_rate_spec_file_round_trip(tmp_path):
    spec = sin_exp_spec()
    path = tmp_path / "rate.spec"
    save_rate_spec(spec, path)
    back = load_rate_spec(path)
    assert back == spec
    # format is the documented key=value line format
    text = format_rate_spec(spec)
    assert "shape=sinusoid" in text and "shape=expdecay" in text
    # every shape writes its params in the order it reads them
    every = RateSpec(components=(
        JumpComponent(2.0, 0.0, Constant()),
        JumpComponent(3.0, 0.0, Sinusoid(offset=1.5, omega=2.0, phase=0.25)),
        JumpComponent(4.0, 1.0, Polynomial((1.0, -0.5, 0.125))),
    ))
    assert format_rate_spec(every) == (
        "A=2.0 t0=0.0 shape=constant params=\n"
        "A=3.0 t0=0.0 shape=sinusoid params=1.5,2.0,0.25\n"
        "A=4.0 t0=1.0 shape=polynomial params=1.0,-0.5,0.125\n"
    )
    assert parse_rate_spec(format_rate_spec(every)) == every


def test_rate_spec_parse_errors():
    with pytest.raises(ValueError, match="line 1.*shape"):
        parse_rate_spec("A=1 t0=0 shape=mystery params=1")
    with pytest.raises(ValueError, match="missing fields"):
        parse_rate_spec("A=1 params=1")
    with pytest.raises(ValueError, match="no components"):
        parse_rate_spec("# only a comment\n")
    with pytest.raises(ValueError, match="line 1: sinusoid offset must be finite"):
        parse_rate_spec("A=1 t0=0 shape=sinusoid params=nan,1")
    with pytest.raises(ValueError, match="line 2: polynomial coefficient 1 must be finite"):
        parse_rate_spec("# c\nA=1 t0=0 shape=polynomial params=1,inf")
    with pytest.raises(ValueError, match="line 1: could not convert"):
        parse_rate_spec("A=1 t0=0 shape=polynomial params=1,x")
    # a wrong number of params names the line, the shape and its parameters
    with pytest.raises(ValueError, match=r"line 1: constant .*takes no params"):
        parse_rate_spec("A=1 t0=0 shape=constant params=1")
    sinusoid = r"line 1: sinusoid takes params=offset,omega\[,phase\]"
    for params in ("1", "1,2,3,4"):
        with pytest.raises(ValueError, match=sinusoid):
            parse_rate_spec(f"A=1 t0=0 shape=sinusoid params={params}")
    for params in ("", "1,2"):
        with pytest.raises(ValueError, match="line 2: expdecay takes params=rate"):
            parse_rate_spec(f"# c\nA=1 t0=0 shape=expdecay params={params}")
    # comments and blank lines are fine
    spec = parse_rate_spec("# c\n\nA=2 t0=0 shape=constant params=\n")
    assert eval_rate(spec, 1.0) == 2.0


def test_presets():
    spec = preset_rate_spec("sin-plus-exp")
    assert eval_rate(spec, 0.0) == pytest.approx(1e6)
    spec = preset_rate_spec("const-plus-exp", base=100.0, jump=10.0)
    assert eval_rate(spec, 0.5) == pytest.approx(100.0)
    assert eval_rate(spec, 1.0) == pytest.approx(110.0)
    with pytest.raises(ValueError, match="unknown rate preset"):
        preset_rate_spec("nope")

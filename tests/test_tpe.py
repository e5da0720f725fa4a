import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from sampenopt.errors import EmptyHistory
from sampenopt.tpe import (
    _N_CANDIDATES,
    ParamDomain,
    ParamVector,
    Trial,
    _DimMixture,
    _split_indices,
    build_density,
    decay_weights,
    propose,
    scott_bandwidth,
)


def _history(ys, psis=None):
    h = []
    for i, y in enumerate(ys):
        psi = psis[i] if psis else ParamVector(m=1 + i % 3, r=0.1 + 0.8 * (i % 7) / 7, q=0.2 + 0.6 * (i % 5) / 5)
        h.append(Trial(psi=psi, y=y))
    return h


class TestSplit:
    def test_spot_values(self):
        assert len(_split_indices(_history(range(30)))[0]) == 3
        assert len(_split_indices(_history(range(300)))[0]) == 25

    def test_single_trial(self):
        better, worse = _split_indices(_history([0.5]))
        assert better == [0] and worse == []

    def test_partition_properties(self):
        h = _history([5.0, 1.0, 3.0, math.inf, 2.0, 4.0, 0.5, 6.0, 7.0, 8.0])
        better, worse = _split_indices(h)
        assert sorted(better + worse) == list(range(len(h)))
        max_better = max(h[i].y for i in better)
        feasible_worse = [h[i].y for i in worse if h[i].feasible]
        assert max_better <= min(feasible_worse)

    def test_infinite_always_worse(self):
        h = _history([math.inf, math.inf, 0.1])
        better, worse = _split_indices(h)
        assert all(h[i].feasible for i in better)

    def test_all_infinite_gives_empty_better(self):
        better, worse = _split_indices(_history([math.inf] * 4))
        assert better == [] and len(worse) == 4

    def test_empty_history(self):
        with pytest.raises(EmptyHistory):
            _split_indices([])

    def test_ties_keep_insertion_order(self):
        psis = [ParamVector(m=1, r=0.1 * (i + 1), q=0.5) for i in range(4)]
        h = _history([1.0, 1.0, 1.0, 1.0], psis)
        better, _ = _split_indices(h)
        assert h[better[0]].psi.r == pytest.approx(0.1)


class TestScottBandwidth:
    def test_reference_value(self):
        assert scott_bandwidth(100, 3, 0.0, 1.0, 10_000) == pytest.approx(0.5179474679231212, abs=1e-12)

    def test_clip_floor(self):
        # huge group drives the Scott term below the floor (hi-lo)/min(T,100)
        assert scott_bandwidth(10**12, 3, 0.0, 1.0, 50) == pytest.approx(0.02)
        assert scott_bandwidth(10**15, 3, 0.0, 1.0, 400) == pytest.approx(0.01)

    def test_single_observation(self):
        assert scott_bandwidth(1, 3, 0.0, 1.0, 1) == 1.0

    def test_floor_never_exceeded(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t_group = int(rng.integers(1, 500))
            t_total = int(rng.integers(t_group, 600))
            d = int(rng.integers(1, 4))
            lo, hi = sorted(rng.uniform(0, 1, 2))
            if hi - lo < 1e-6:
                continue
            b = scott_bandwidth(t_group, d, lo, hi, t_total)
            assert b >= (hi - lo) / min(t_total, 100) - 1e-15


def _one_component(kind, center, b, lo, hi):
    """A mixture dimension holding the single kernel (center, b) on [lo, hi]."""
    return _DimMixture(kind=kind, lo=lo, hi=hi, centers=np.array([center]), bandwidths=np.array([b]))


class TestKernels:
    """Kernel normalizations, through the log_components that the acquisition scores with."""

    def test_continuous_integrates_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(12):
            center = float(rng.uniform(-0.5, 1.5))
            b = float(rng.uniform(0.02, 0.8))
            mix = _one_component("continuous", center, b, 0.0, 1.0)
            val, _ = quad(lambda v: math.exp(mix.log_components(v)[0]), 0.0, 1.0, limit=200)
            assert abs(val - 1.0) <= 1e-6

    def test_continuous_concentration(self):
        mid, edge = np.exp(_one_component("continuous", 0.5, 0.01, 0.0, 1.0).log_components([0.5, 0.9]))[:, 0]
        assert mid > 10 * max(edge, 1e-12)

    def test_discrete_masses_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = int(rng.integers(1, 8))
            center = float(rng.uniform(0, u + 1))
            b = float(rng.uniform(0.05, 5.0))
            masses = np.exp(_one_component("discrete", center, b, 1.0, float(u)).log_components(np.arange(1, u + 1)))
            assert abs(masses.sum() - 1.0) <= 1e-12

    def test_discrete_small_bandwidth_limit(self):
        mass = math.exp(_one_component("discrete", 2.0, 1e-8, 1.0, 3.0).log_components(2)[0])
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_discrete_single_point_domain(self):
        for b in (0.01, 1.0, 100.0):
            mass = math.exp(_one_component("discrete", 1.0, b, 1.0, 1.0).log_components(1)[0])
            assert mass == pytest.approx(1.0, abs=1e-15)


class TestWeights:
    def test_better_uniform(self):
        better, _ = decay_weights(4, 0)
        assert np.allclose(better, 0.2)

    def test_worse_small_group_uniform(self):
        for t_g in (0, 1, 10, 25):
            _, worse = decay_weights(3, t_g)
            assert worse.size == t_g + 1
            assert np.allclose(worse, 1.0 / (t_g + 1))

    def test_worse_ramp_shape(self):
        _, worse = decay_weights(3, 40)
        raw = worse / worse[-1]
        # oldest component (the prior) carries weight 1/(t_g + 1)
        assert raw[0] == pytest.approx(1.0 / 41.0)
        # last 25 components are flat
        assert np.allclose(raw[-25:], 1.0)
        # ramp is nondecreasing
        assert np.all(np.diff(raw) >= -1e-15)

    def test_sums_to_one_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t_l = int(rng.integers(0, 40))
            t_g = int(rng.integers(0, 200))
            better, worse = decay_weights(t_l, t_g)
            assert abs(better.sum() - 1.0) <= 1e-12
            assert abs(worse.sum() - 1.0) <= 1e-12


class TestDensity:
    def test_prior_only_integrates_to_one(self):
        domain = ParamDomain()
        dens = build_density([], "better", domain, t_total=1)
        r_mix = dens.dims["r"]
        val, _ = quad(
            lambda v: sum(
                w * math.exp(k)
                for w, k in zip(dens.weights, r_mix.log_components(v))
            ),
            domain.r_bounds[0],
            domain.r_bounds[1],
            limit=200,
        )
        assert abs(val - 1.0) <= 1e-6

    def test_mode_at_single_trial_with_tiny_bandwidth(self):
        # force a tiny kernel bandwidth: the mixture mode must sit on the
        # trial's psi despite the broad prior component
        from dataclasses import replace

        trial = Trial(ParamVector(m=2, r=0.37, q=0.5), 0.1)
        dens = build_density([trial], "better", ParamDomain(u=3), t_total=100)
        shrunk = {
            name: replace(mix, bandwidths=np.where(np.arange(mix.centers.size) == 0, mix.bandwidths, 0.01))
            for name, mix in dens.dims.items()
        }
        dens = type(dens)(dims=shrunk, weights=dens.weights)
        grid = np.linspace(0.011, 0.999, 989)
        vals = dens.logpdf_batch({"m": np.full(grid.size, 2.0), "r": grid, "q": np.full(grid.size, 0.5)})
        assert abs(grid[int(np.argmax(vals))] - 0.37) < 0.005

    def test_strictly_positive_everywhere(self):
        dens = build_density([Trial(ParamVector(m=1, r=0.05, q=0.9), 0.2)], "worse", ParamDomain(), t_total=10)
        rng = np.random.default_rng(4)
        points = {"m": [], "r": [], "q": []}
        for _ in range(200):
            points["m"].append(int(rng.integers(1, 4)))
            points["r"].append(float(rng.uniform(0.0100001, 0.9999)))
            points["q"].append(float(rng.uniform(0.0100001, 0.9899)))
        assert np.all(np.isfinite(dens.logpdf_batch({k: np.array(v, np.float64) for k, v in points.items()})))


class TestPropose:
    def test_domain_closure(self):
        domain = ParamDomain()
        h = _history([0.5, 0.2, math.inf, 0.8, 0.1, 0.9, 0.3])
        rng = np.random.default_rng(5)
        for _ in range(500):
            psi = propose(h, domain, rng)
            assert domain.contains(psi)

    def test_candidate_sampling_domain_closure_bulk(self):
        # every proposal is one of the sampled candidates, so candidate-level
        # closure implies proposal closure; 10,000 seeded draws
        domain = ParamDomain()
        h = _history([0.5, 0.2, 0.8, 0.1, 0.9, 0.3, 0.7])
        dens = build_density([h[i] for i in _split_indices(h)[0]], "better", domain, t_total=7)
        draws = dens.sample_batch(np.random.default_rng(55), 10_000)
        for i in range(10_000):
            assert domain.contains(domain.point({name: values[i] for name, values in draws.items()}))

    def test_degenerate_all_infinite(self):
        domain = ParamDomain()
        psi = propose(_history([math.inf] * 6), domain, np.random.default_rng(7))
        assert domain.contains(psi)

    def test_deterministic_given_rng_state(self):
        domain = ParamDomain()
        h = _history([0.5, 0.2, 0.8, 0.1])
        a = propose(h, domain, np.random.default_rng(8))
        b = propose(h, domain, np.random.default_rng(8))
        assert a == b

    def test_concentrates_on_repeated_optimum(self):
        # all finite history at one point: proposals should land within two
        # bandwidths of it in at least 90% of seeds
        domain = ParamDomain(u=3, fixed_q=0.5)
        point = ParamVector(m=1, r=0.3, q=0.5)
        h = [Trial(point, 0.1)] * 12 + [Trial(ParamVector(m=3, r=0.9, q=0.5), 5.0)] * 8
        bw = scott_bandwidth(20, 2, 0.01, 1.0, 20)
        hits = 0
        for seed in range(50):
            psi = propose(h, domain, np.random.default_rng(seed))
            if abs(psi.r - 0.3) <= 2 * bw:
                hits += 1
        assert hits >= 45

    def test_fixed_q_respected(self):
        domain = ParamDomain(fixed_q=0.42)
        h = _history([0.5, 0.1, 0.7])
        for seed in range(20):
            psi = propose(h, domain, np.random.default_rng(seed))
            assert psi.q == 0.42


# Scalar oracle: the acquisition as it stood before candidates were scored as
# one batch. It samples one candidate at a time and one dimension at a time,
# scores each candidate on its own, and keeps the first strict maximum.


def _oracle_log_components(mix, v):
    c, b = mix.centers, mix.bandwidths
    if mix.kind == "discrete":
        u = int(mix.hi)
        cell = ndtr((v + 0.5 - c) / b) - ndtr((v - 0.5 - c) / b)
        total = ndtr((u + 0.5 - c) / b) - ndtr((0.5 - c) / b)
        return np.log(np.maximum(cell, 1e-300)) - np.log(np.maximum(total, 1e-300))
    z = (v - c) / b
    log_norm = -0.5 * z * z - np.log(b) - 0.5 * math.log(2.0 * math.pi)
    mass = ndtr((mix.hi - c) / b) - ndtr((mix.lo - c) / b)
    return log_norm - np.log(np.maximum(mass, 1e-300))


def _oracle_logpdf(dens, psi):
    logw = np.log(dens.weights)
    total = 0.0
    for name, mix in dens.dims.items():
        comp = logw + _oracle_log_components(mix, float(getattr(psi, name)))
        m = comp.max()
        total += m + math.log(np.exp(comp - m).sum())
    return total


def _oracle_sample_component(mix, idx, rng):
    c, b = float(mix.centers[idx]), float(mix.bandwidths[idx])
    if mix.kind == "discrete":
        u = int(mix.hi)
        grid = np.arange(1, u + 1)
        cells = np.maximum(ndtr((grid + 0.5 - c) / b) - ndtr((grid - 0.5 - c) / b), 0.0)
        cdf = np.cumsum(cells / max(cells.sum(), 1e-300))
        return float(grid[int(np.searchsorted(cdf, rng.random(), side="left").clip(0, u - 1))])
    a = ndtr((mix.lo - c) / b)
    z = ndtr((mix.hi - c) / b)
    eps = 1e-9 * (mix.hi - mix.lo)
    return float(min(max(c + b * ndtri(a + (z - a) * rng.random()), mix.lo + eps), mix.hi - eps))


def _oracle_sample(dens, rng, fixed_q):
    cdf = np.cumsum(dens.weights)
    out = {}
    for name, mix in dens.dims.items():
        idx = int(np.searchsorted(cdf, rng.random(), side="left").clip(0, len(dens.weights) - 1))
        out[name] = _oracle_sample_component(mix, idx, rng)
    return ParamVector(m=int(out["m"]), r=out["r"], q=fixed_q if fixed_q is not None else out["q"])


def _oracle_propose(history, domain, rng):
    better_idx, worse_idx = _split_indices(history)
    t_total = len(history)
    p_l = build_density([history[i] for i in better_idx], "better", domain, t_total)
    p_g = build_density([history[i] for i in sorted(worse_idx)], "worse", domain, t_total)
    best_psi, best_score = None, -math.inf
    for _ in range(_N_CANDIDATES):
        cand = _oracle_sample(p_l, rng, domain.fixed_q)
        score = _oracle_logpdf(p_l, cand) - _oracle_logpdf(p_g, cand)
        if score > best_score:
            best_psi, best_score = cand, score
    return best_psi


def _bounds(draw):
    lo = draw(st.floats(0.01, 0.9))
    return lo, min(lo + draw(st.sampled_from([1e-4, 0.01, 0.07, 0.3, 1.0])), 1.0)


@st.composite
def _search_states(draw):
    """A domain and a history over it: infinite and tied y included."""
    u = draw(st.integers(1, 6))
    r_bounds, q_bounds = _bounds(draw), _bounds(draw)
    fixed_q = draw(st.one_of(st.none(), st.floats(0.01, 0.99)))
    domain = ParamDomain(u=u, r_bounds=r_bounds, q_bounds=q_bounds, fixed_q=fixed_q)
    ys = st.one_of(st.just(math.inf), st.sampled_from([0.25, 0.5]), st.floats(0.0, 3.0))
    h = []
    for _ in range(draw(st.integers(1, 120))):
        q = fixed_q if fixed_q is not None else draw(st.floats(*q_bounds))
        h.append(Trial(ParamVector(m=draw(st.integers(1, u)), r=draw(st.floats(*r_bounds)), q=q), draw(ys)))
    return domain, h


def _long_state():
    """300 trials: worse-group rows longer than numpy's 128-element pairwise-summation block."""
    rng = np.random.default_rng(77)
    h = []
    for i in range(300):
        psi = ParamVector(m=int(rng.integers(1, 4)), r=float(rng.uniform(0.01, 1.0)), q=float(rng.uniform(0.01, 0.99)))
        h.append(Trial(psi, math.inf if i % 9 == 0 else float(rng.uniform(0.0, 2.0))))
    return ParamDomain(), h


def _bits(psi):
    return psi.m, psi.r.hex(), psi.q.hex()


class TestBatchMatchesScalarOracle:
    @settings(max_examples=150, deadline=None)
    @given(state=_search_states(), seed=st.integers(0, 2**32 - 1))
    @example(state=_long_state(), seed=5)
    def test_propose_bitwise_and_same_stream(self, state, seed):
        domain, h = state
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        got = propose(h, domain, rng)
        assert _bits(got) == _bits(_oracle_propose(h, domain, rng_oracle))
        assert type(got.r) is float and type(got.q) is float and type(got.m) is int
        assert rng.bit_generator.state == rng_oracle.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(state=_search_states(), seed=st.integers(0, 2**32 - 1))
    def test_densities_bitwise(self, state, seed):
        # one-point batches, then 64-point logpdf batches: enough log calls that
        # a vector log differing from libm's in the last bit would show
        domain, h = state
        better_idx, worse_idx = _split_indices(h)
        densities = [build_density([h[i] for i in better_idx], "better", domain, len(h)),
                     build_density([h[i] for i in worse_idx], "worse", domain, len(h))]
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for dens in densities:
            psi = domain.point({name: values[0] for name, values in dens.sample_batch(rng, 1).items()})
            assert _bits(psi) == _bits(_oracle_sample(dens, rng_oracle, domain.fixed_q))
            row = {name: np.array([getattr(psi, name)], np.float64) for name in dens.dims}
            assert dens.logpdf_batch(row)[0].hex() == _oracle_logpdf(dens, psi).hex()
        assert rng.bit_generator.state == rng_oracle.bit_generator.state
        for dens in densities:
            points = [_oracle_sample(dens, rng, domain.fixed_q) for _ in range(64)]
            batch = {name: np.array([getattr(p, name) for p in points], np.float64) for name in dens.dims}
            got = [v.hex() for v in dens.logpdf_batch(batch).tolist()]
            assert got == [_oracle_logpdf(dens, p).hex() for p in points]

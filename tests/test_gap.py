"""Gap/threshold tests: worked scalar examples, the threshold corridor,
decision scale-invariance, and the degenerate-input policy."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from switchdistill.errors import DomainError, ShapeError
from switchdistill.gap import (
    EXPERT,
    LEARNING,
    GapState,
    batch_gap_state,
    decide_mode,
    mode_stats,
    threshold_from_errors,
)
from switchdistill.losses import one_hot, soften


def random_simplex(rng, n, k):
    """Dirichlet(1) rows: uniform over the simplex."""
    x = rng.standard_exponential((n, k))
    return x / x.sum(axis=1, keepdims=True)


def one_sample(ps, pt, y):
    """The switching rule on a batch of one sample."""
    return batch_gap_state(ps[None], pt[None], y[None], 0)


def epsilon_factor(teacher_err, student_err):
    return threshold_from_errors(student_err, teacher_err)[1]


class TestGap:
    def test_identical_is_zero(self):
        p = soften(np.array([0.5, -0.5, 1.0]), 1.0)
        assert one_sample(p, p, one_hot(0, 3)).G == 0.0

    def test_disjoint_one_hots_hit_the_maximum(self):
        assert one_sample(np.array([1.0, 0.0]), np.array([0.0, 1.0]), one_hot(0, 2)).G == 2.0

    def test_scalar_oracle(self):
        # |0.5-0.8| + |0.3-0.1| + |0.2-0.1| summed by hand
        state = one_sample(np.array([0.5, 0.3, 0.2]), np.array([0.8, 0.1, 0.1]), one_hot(0, 3))
        assert state.G == pytest.approx(0.6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            one_sample(np.array([0.5, 0.5]), np.array([1 / 3] * 3), one_hot(0, 2))

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_range_and_triangle_consistency(self, k, seed):
        rng = np.random.default_rng(seed)
        ps = random_simplex(rng, 1, k)[0]
        pt = random_simplex(rng, 1, k)[0]
        y = one_hot(int(rng.integers(k)), k)
        g = one_sample(ps, pt, y).G
        assert 0.0 <= g <= 2.0
        assert g >= one_sample(ps, y, y).G - one_sample(pt, y, y).G - 1e-12


class TestEpsilonFactor:
    def test_perfect_teacher(self):
        assert epsilon_factor(0.0, 1.0) == pytest.approx(1.0)

    def test_equal_errors(self):
        assert epsilon_factor(0.7, 0.7) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_scalar_oracle(self):
        got = epsilon_factor(0.4, 1.0)
        assert got == pytest.approx(math.exp(-0.4 / 1.4), rel=1e-12)
        assert got == pytest.approx(0.7515, abs=1e-4)

    def test_monotone_decreasing_in_teacher_error(self):
        values = [epsilon_factor(t, 1.0) for t in np.linspace(0.01, 2.0, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(math.exp(-1) < v < 1.0 for v in values)


class TestThreshold:
    def test_equal_distributions_reduce_symmetrically(self):
        p = soften(np.array([1.0, 0.2, -0.3]), 1.0)
        y = one_hot(0, 3)
        info = one_sample(p, p, y)
        err = float(np.abs(p - y).sum())
        assert info.delta == pytest.approx(err * (1.0 - math.exp(-0.5)), rel=1e-12)

    def test_scalar_oracle(self):
        ps = np.array([0.5, 0.3, 0.2])
        pt = np.array([0.8, 0.1, 0.1])
        y = one_hot(0, 3)
        info = one_sample(ps, pt, y)
        eps = math.exp(-0.4 / 1.4)
        assert info.epsilon == pytest.approx(eps, rel=1e-12)
        assert info.delta == pytest.approx(1.0 - eps * 0.4, rel=1e-12)
        assert info.delta == pytest.approx(0.6994, abs=1e-4)
        assert info.r == pytest.approx(0.4 / 1.4, rel=1e-12)

    def test_one_hot_correct_teacher_hits_upper_bound(self):
        ps = np.array([0.5, 0.3, 0.2])
        y = one_hot(0, 3)
        info = one_sample(ps, y, y)
        assert info.epsilon == 1.0
        assert info.delta == pytest.approx(1.0)  # |p_s - y|_1
        # the tie rule still applies: G = delta here -> learning
        assert decide_mode(info.G, info.delta) == LEARNING

    def test_corridor_randomized(self):
        rng = np.random.default_rng(99)
        n, k = 20000, 6
        ps = random_simplex(rng, n, k)
        pt = random_simplex(rng, n, k)
        y = one_hot(rng.integers(k, size=n), k)
        es = np.abs(ps - y).sum(axis=1)
        et = np.abs(pt - y).sum(axis=1)
        keep = et > 1e-6
        delta, eps, r = threshold_from_errors(es[keep], et[keep])
        assert np.all(delta >= es[keep] - et[keep] - 1e-12)
        assert np.all(delta < es[keep])
        assert np.all((eps > math.exp(-1) - 1e-12) & (eps <= 1.0))
        assert np.all((r >= 0) & (r < 1.0 + 1e-12))


class TestDecideMode:
    def test_learning_when_under(self):
        assert decide_mode(0.6, 0.6994) == LEARNING

    def test_tie_goes_to_learning(self):
        assert decide_mode(0.42, 0.42) == LEARNING

    def test_expert_when_over(self):
        assert decide_mode(2.0, 1.3) == EXPERT

    def test_totality_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            g, d = rng.normal(size=2)
            assert decide_mode(g, d) in (LEARNING, EXPERT)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        n, k = 5000, 5
        ps = random_simplex(rng, n, k)
        pt = random_simplex(rng, n, k)
        y = one_hot(rng.integers(k, size=n), k)
        g = np.abs(ps - pt).sum(axis=1)
        es = np.abs(ps - y).sum(axis=1)
        et = np.abs(pt - y).sum(axis=1)
        base_delta, _, _ = threshold_from_errors(es, et)
        base_modes = g <= base_delta
        for c in (1.0 / k, 1.0, 7.3):
            delta_c, _, _ = threshold_from_errors(c * es, c * et)
            modes_c = (c * g) <= delta_c
            np.testing.assert_array_equal(modes_c, base_modes)


class TestBatchGapState:
    def test_single_sample_batch_equals_scalar_path(self):
        ps = np.array([[0.5, 0.3, 0.2]])
        pt = np.array([[0.8, 0.1, 0.1]])
        y = one_hot(np.array([0]), 3)
        state = batch_gap_state(ps, pt, y, iteration=4)
        delta, epsilon, _ = threshold_from_errors(1.0, 0.4)  # |p_s - y|_1, |p_t - y|_1
        assert state.G == pytest.approx(0.6)
        assert state.delta == pytest.approx(delta)
        assert state.epsilon == pytest.approx(epsilon)
        assert state.mode == LEARNING
        assert state.iteration == 4

    def test_identical_rows_match_single(self):
        ps = np.tile(np.array([0.6, 0.4]), (5, 1))
        pt = np.tile(np.array([0.9, 0.1]), (5, 1))
        y = one_hot(np.zeros(5, dtype=int), 2)
        batched = batch_gap_state(ps, pt, y, 0)
        single = batch_gap_state(ps[:1], pt[:1], y[:1], 0)
        assert batched.G == pytest.approx(single.G)
        assert batched.delta == pytest.approx(single.delta)

    def test_mean_gap_arithmetic(self):
        # two samples engineered to G = 0.2 and 0.6
        ps = np.array([[0.5, 0.5], [0.5, 0.5]])
        pt = np.array([[0.6, 0.4], [0.8, 0.2]])
        y = one_hot(np.array([0, 0]), 2)
        state = batch_gap_state(ps, pt, y, 0)
        assert state.G == pytest.approx(0.4)

    def test_brute_force_batch_oracle(self):
        rng = np.random.default_rng(11)
        n, k = 64, 4
        ps = random_simplex(rng, n, k)
        pt = random_simplex(rng, n, k)
        y = one_hot(rng.integers(k, size=n), k)
        state = batch_gap_state(ps, pt, y, 3)
        # oracle: recompute means by explicit per-sample summation
        gs, deltas = [], []
        for i in range(n):
            gs.append(sum(abs(ps[i, j] - pt[i, j]) for j in range(k)))
            es = sum(abs(ps[i, j] - y[i, j]) for j in range(k))
            et = sum(abs(pt[i, j] - y[i, j]) for j in range(k))
            deltas.append(es - math.exp(-et / (es + et)) * et)
        g_mean = sum(gs) / n
        d_mean = sum(deltas) / n
        assert state.G == pytest.approx(g_mean, rel=1e-12)
        assert state.delta == pytest.approx(d_mean, rel=1e-12)
        assert state.mode == (LEARNING if g_mean <= d_mean else EXPERT)

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=2**31),
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
        st.floats(min_value=1e-6, max_value=1.0),  # smaller errors underflow to subnormals
    )
    @settings(max_examples=200, deadline=None)
    def test_teacher_twice_as_wrong_is_always_expert(self, n, k, seed, student_mix, teacher_mix):
        # Learning needs G <= delta < s_err, while the triangle inequality gives
        # G >= t_err - s_err; both bounds hold for batch means too. So once
        # t_err >= 2 * s_err no iteration can learn, and a frozen teacher stays frozen.
        rng = np.random.default_rng(seed)
        y = one_hot(rng.integers(k, size=n), k)
        ps = (1.0 - student_mix) * y + student_mix * random_simplex(rng, n, k)
        pt = (1.0 - teacher_mix) * y + teacher_mix * random_simplex(rng, n, k)
        student_err = float(np.mean(np.abs(ps - y).sum(axis=1)))
        teacher_err = float(np.mean(np.abs(pt - y).sum(axis=1)))
        assume(teacher_err > 0.0 and teacher_err >= 2.0 * student_err)
        state = batch_gap_state(ps, pt, y, 0)
        assert state.mode == EXPERT
        assert state.G > state.delta

    def test_empty_batch(self):
        with pytest.raises(DomainError):
            batch_gap_state(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)), 0)

    def test_fully_degenerate_batch_is_learning_noop(self):
        y = one_hot(np.array([0, 1]), 2)
        state = batch_gap_state(y, y, y, 0)
        assert state.G == 0.0
        assert state.delta == 0.0
        assert state.mode == LEARNING
        assert state.epsilon == 1.0

    def test_gap_state_invariants(self):
        with pytest.raises(DomainError):
            GapState(iteration=0, G=2.5, r=0.1, epsilon=0.5, delta=0.1, mode=LEARNING)
        with pytest.raises(DomainError):
            GapState(iteration=0, G=0.5, r=0.1, epsilon=0.0, delta=0.1, mode=LEARNING)
        with pytest.raises(DomainError):
            GapState(iteration=0, G=0.5, r=0.1, epsilon=0.5, delta=0.1, mode="paused")

    def test_record_field_order(self):
        state = GapState(iteration=2, G=0.5, r=0.3, epsilon=0.74, delta=0.4, mode=EXPERT)
        assert list(state.to_record(LEARNING, {"student_ce": 0.1, "teacher_ce": 0.2}).keys()) == [
            "iteration", "G", "r", "epsilon", "delta", "mode", "student_ce", "teacher_ce",
            "student_err_l1", "teacher_err_l1",
        ]

    def test_record_carries_the_applied_mode_and_round_trips(self):
        state = GapState(2, G=0.5, r=0.3, epsilon=0.74, delta=0.4, mode=EXPERT, student_err=0.9, teacher_err=0.6)
        rec = state.to_record(LEARNING, {"student_ce": 0.1})
        assert rec["mode"] == LEARNING and rec["student_err_l1"] == 0.9 and rec["teacher_err_l1"] == 0.6
        assert GapState.from_record(state.to_record(EXPERT, {})) == state
        with pytest.raises(DomainError, match="unknown mode 'paused'"):
            state.to_record("paused", {})

    def test_from_record_names_the_first_missing_field_and_needs_no_l1_errors(self):
        rec = {"iteration": 0, "G": 0.4, "r": 0.3, "epsilon": 0.7, "delta": 0.5, "mode": EXPERT}
        assert GapState.from_record(rec) == GapState(0, 0.4, 0.3, 0.7, 0.5, EXPERT)
        with pytest.raises(KeyError, match="'r'"):
            GapState.from_record({key: value for key, value in rec.items() if key not in ("r", "delta")})

    @pytest.mark.parametrize("key", ["student_err_l1", "teacher_err_l1"])
    @pytest.mark.parametrize("value", [None, "0.5", float("nan")])
    def test_from_record_refuses_an_l1_error_that_is_not_a_finite_number(self, key, value):
        rec = {"iteration": 0, "G": 0.4, "r": 0.3, "epsilon": 0.7, "delta": 0.5, "mode": EXPERT, key: value}
        with pytest.raises(DomainError, match=f"^{key[:-3]} must be a finite number"):
            GapState.from_record(rec)


class TestModeStats:
    @pytest.mark.parametrize(
        "modes, iterations, switches, expert",
        [
            ([], 0, 0, 0.0),
            ([LEARNING], 1, 0, 0.0),
            ([EXPERT] * 3, 3, 0, 1.0),
            ([LEARNING, EXPERT] * 2, 4, 3, 0.5),
            ([LEARNING, EXPERT, EXPERT, LEARNING], 4, 2, 0.5),
        ],
        ids=["empty", "single", "all-expert", "alternating", "one-frozen-run"],
    )
    def test_counts(self, modes, iterations, switches, expert):
        stats = mode_stats(iter(modes))
        assert stats == {
            "iterations": iterations,
            "switch_count": switches,
            "learning_fraction": 1.0 - expert if modes else 0.0,
            "expert_fraction": expert,
        }

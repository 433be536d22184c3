"""Probability-math tests: closed-form cases, scalar-arithmetic oracles, and
finite-difference checks of every analytic logit gradient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdistill.errors import DomainError, ShapeError
from switchdistill.losses import (
    ce_loss,
    degeneration_curve,
    ensemble_target,
    kd_logit_grad,
    kdcl_logit_grad,
    kl_loss,
    one_hot,
    soften,
    student_logit_grad,
    teacher_logit_grad,
)

finite_logits = st.lists(
    st.floats(min_value=-30, max_value=30, allow_nan=False), min_size=2, max_size=8
)


def entropy(p):
    return -(p * np.log(np.maximum(p, 1e-12))).sum(axis=-1)


def fd_logit_grad(loss_fn, z, h=1e-6):
    """Central finite differences of a scalar loss over a logit vector."""
    out = np.empty_like(z)
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        out[j] = (loss_fn(zp) - loss_fn(zm)) / (2 * h)
    return out


class TestSoften:
    def test_symmetric_logits(self):
        np.testing.assert_allclose(soften(np.array([0.0, 0.0]), 1.0), [0.5, 0.5])

    def test_closed_form_ln2(self):
        np.testing.assert_allclose(
            soften(np.array([math.log(2.0), 0.0]), 1.0), [2 / 3, 1 / 3], rtol=1e-12
        )

    def test_temperature_scaling_identity(self):
        np.testing.assert_allclose(
            soften(np.array([4.0, 0.0]), 2.0), soften(np.array([2.0, 0.0]), 1.0), atol=1e-12
        )

    def test_overflow_safe(self):
        p = soften(np.array([1000.0, 0.0]), 1.0)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    def test_invalid_temperature(self):
        with pytest.raises(DomainError):
            soften(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(DomainError):
            soften(np.array([1.0, 2.0]), -1.0)

    @given(finite_logits, st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=200, deadline=None)
    def test_simplex_closure(self, logits, tau):
        p = soften(np.array(logits), tau)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-9

    @given(finite_logits, st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=200, deadline=None)
    def test_temperature_equals_prescaled_logits(self, logits, tau):
        z = np.array(logits)
        np.testing.assert_allclose(soften(z, tau), soften(z / tau, 1.0), atol=1e-12)


class TestCrossEntropyAndKL:
    def test_ce_one_hot_perfect_prediction(self):
        assert ce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-10)

    def test_ce_uniform_is_ln2(self):
        assert ce_loss(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == pytest.approx(math.log(2))

    def test_ce_scalar_oracle(self):
        # -ln 0.2 computed independently
        got = ce_loss(np.array([0.0, 1.0]), np.array([0.8, 0.2]))
        assert got == pytest.approx(-math.log(0.2), rel=1e-12)

    def test_kl_identical_is_zero(self):
        p = soften(np.array([1.0, -2.0, 0.5]), 1.0)
        assert kl_loss(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_kl_one_hot_reference_equals_ce(self):
        y = np.array([0.0, 1.0, 0.0])
        pred = soften(np.array([0.2, 1.0, -0.4]), 1.0)
        assert kl_loss(y, pred) == pytest.approx(ce_loss(y, pred), rel=1e-12)

    def test_kl_scalar_oracle(self):
        # 0.7*ln(0.7/0.5) + 0.3*ln(0.3/0.5) computed independently
        expected = 0.7 * math.log(0.7 / 0.5) + 0.3 * math.log(0.3 / 0.5)
        got = kl_loss(np.array([0.7, 0.3]), np.array([0.5, 0.5]))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.08228287, abs=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ce_loss(np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]))
        with pytest.raises(ShapeError):
            kl_loss(np.array([0.5, 0.5]), np.array([1 / 3] * 3))

    @given(finite_logits, finite_logits)
    @settings(max_examples=200, deadline=None)
    def test_kl_identity_and_nonnegativity(self, za, zb):
        n = min(len(za), len(zb))
        a = soften(np.array(za[:n]), 1.0)
        b = soften(np.array(zb[:n]), 1.0)
        kl = kl_loss(a, b)
        assert kl >= -1e-12
        assert kl == pytest.approx(ce_loss(a, b) - entropy(a), abs=1e-9)

    def test_batched_rows_match_singles(self):
        za = np.array([[1.0, 0.0, -1.0], [0.3, 0.2, 0.1]])
        zb = np.array([[0.0, 0.5, 0.5], [2.0, -2.0, 0.0]])
        a, b = soften(za, 2.0), soften(zb, 2.0)
        rows = kl_loss(a, b)
        for i in range(2):
            assert rows[i] == pytest.approx(kl_loss(a[i], b[i]), rel=1e-12)


class TestLogitGradients:
    def test_stationary_point_is_zero(self):
        y = np.array([1.0, 0.0])
        g = student_logit_grad(y, y, y, y, alpha=1.0, tau=1.0)
        np.testing.assert_allclose(g, np.zeros(2), atol=1e-15)

    def test_alpha_zero_reduces_to_ce_gradient(self):
        ps1 = soften(np.array([0.7, -0.1]), 1.0)
        pstau = soften(np.array([0.7, -0.1]), 2.0)
        pt = soften(np.array([1.5, 0.0]), 2.0)
        y = np.array([1.0, 0.0])
        g = student_logit_grad(pt, ps1, pstau, y, alpha=0.0, tau=2.0)
        np.testing.assert_allclose(g, ps1 - y, rtol=1e-12)

    def test_teacher_mirror_cases(self):
        y = np.array([0.0, 1.0])
        g = teacher_logit_grad(y, y, y, y, beta=1.0, tau=1.0)
        np.testing.assert_allclose(g, np.zeros(2), atol=1e-15)
        pt1 = soften(np.array([0.5, 0.2]), 1.0)
        pttau = soften(np.array([0.5, 0.2]), 3.0)
        ps = soften(np.array([-0.5, 0.1]), 3.0)
        g = teacher_logit_grad(pt1, pttau, ps, y, beta=0.0, tau=3.0)
        np.testing.assert_allclose(g, pt1 - y, rtol=1e-12)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0])
    def test_student_grad_matches_finite_differences(self, tau):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            z = rng.normal(0, 2, size=k)
            zt = rng.normal(0, 2, size=k)
            y = one_hot(int(rng.integers(k)), k)
            pt = soften(zt, tau)
            alpha = float(rng.uniform(0.2, 2.0))

            def loss(zv):
                return float(
                    ce_loss(y, soften(zv, 1.0)) + alpha * tau * tau * kl_loss(pt, soften(zv, tau))
                )

            analytic = student_logit_grad(pt, soften(z, 1.0), soften(z, tau), y, alpha, tau)
            numeric = fd_logit_grad(loss, z)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-5

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0])
    def test_teacher_grad_matches_finite_differences(self, tau):
        rng = np.random.default_rng(23)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            z = rng.normal(0, 2, size=k)
            zs = rng.normal(0, 2, size=k)
            y = one_hot(int(rng.integers(k)), k)
            ps = soften(zs, tau)
            beta = float(rng.uniform(0.2, 2.0))

            def loss(zv):
                return float(
                    ce_loss(y, soften(zv, 1.0)) + beta * tau * tau * kl_loss(ps, soften(zv, tau))
                )

            analytic = teacher_logit_grad(soften(z, 1.0), soften(z, tau), ps, y, beta, tau)
            numeric = fd_logit_grad(loss, z)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-5

    def test_kd_gradient_half_alpha(self):
        # alpha=0.5, tau=1: 0.5*(p_s - y) + 0.5*(p_s - p_t)
        z = np.array([0.4, -0.2, 0.1])
        zt = np.array([1.0, 0.0, -1.0])
        y = one_hot(0, 3)
        ps = soften(z, 1.0)
        pt = soften(zt, 1.0)
        got = kd_logit_grad(ps, ps, pt, y, alpha=0.5, tau=1.0)
        np.testing.assert_allclose(got, 0.5 * (ps - y) + 0.5 * (ps - pt), rtol=1e-12)

        def loss(zv):
            return float(0.5 * ce_loss(y, soften(zv, 1.0)) + 0.5 * kl_loss(pt, soften(zv, 1.0)))

        numeric = fd_logit_grad(loss, z)
        np.testing.assert_allclose(got, numeric, atol=1e-8)

    def test_kdcl_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        tau = 2.0
        z = rng.normal(0, 2, size=4)
        zo = rng.normal(0, 2, size=4)
        y = one_hot(2, 4)
        pm = ensemble_target(soften(z, tau), soften(zo, tau))

        def loss(zv):
            return float(ce_loss(y, soften(zv, 1.0)) + tau * tau * kl_loss(pm, soften(zv, tau)))

        analytic = kdcl_logit_grad(soften(z, 1.0), soften(z, tau), pm, y, tau)
        numeric = fd_logit_grad(loss, z)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)


class TestEnsembleTarget:
    def test_identical_inputs(self):
        p = soften(np.array([1.0, 0.0, -1.0]), 1.0)
        np.testing.assert_allclose(ensemble_target(p, p), p, rtol=1e-15)

    def test_disjoint_one_hots(self):
        np.testing.assert_allclose(
            ensemble_target(np.array([1.0, 0.0]), np.array([0.0, 1.0])), [0.5, 0.5]
        )

    def test_arithmetic(self):
        np.testing.assert_allclose(
            ensemble_target(np.array([0.6, 0.4]), np.array([0.8, 0.2])), [0.7, 0.3], rtol=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ensemble_target(np.array([0.5, 0.5]), np.array([1 / 3] * 3))


class TestDegenerationCurve:
    def setup_method(self):
        self.ps = soften(np.array([2.0, 1.0, 0.0, -1.0]), 1.0)
        self.y = one_hot(0, 4)

    def test_lambda_one_is_uniform_teacher(self):
        ps2 = soften(np.array([1.0, 0.0]), 1.0)
        y2 = one_hot(0, 2)
        (kl, _), = degeneration_curve(ps2, y2, [1.0])
        # direct evaluation with the uniform teacher
        expected = 0.5 * math.log(0.5 / ps2[0]) + 0.5 * math.log(0.5 / ps2[1])
        assert kl == pytest.approx(expected, rel=1e-12)

    def test_small_lambda_collapses_to_ce(self):
        (kl, ce), = degeneration_curve(self.ps, self.y, [1e-6])
        assert abs(kl - ce) < 1e-4

    def test_gap_strictly_decreasing_in_lambda(self):
        curve = degeneration_curve(self.ps, self.y, [0.5, 0.1, 0.01])
        gaps = [abs(kl - ce) for kl, ce in curve]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_lambda_domain(self):
        with pytest.raises(DomainError):
            degeneration_curve(self.ps, self.y, [0.0])
        with pytest.raises(DomainError):
            degeneration_curve(self.ps, self.y, [1.5])

    def test_requires_one_hot(self):
        with pytest.raises(DomainError):
            degeneration_curve(self.ps, np.array([0.5, 0.5, 0.0, 0.0]), [0.5])


class TestOneHot:
    def test_one_hot_domain(self):
        with pytest.raises(DomainError):
            one_hot(3, 3)

"""Tests for actuator influence coefficients, target subspaces, and criteria."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from subdiff_control.actuators import (
    dead_modes,
    eec_criterion,
    is_strategic,
    make_pointwise,
    make_target,
    make_zone,
)
from subdiff_control.errors import DomainError
from subdiff_control.rhum import Gramian
from subdiff_control.spectral import SQRT2, eigenfunction


class TestZoneActuator:
    def test_full_interval_closed_form(self):
        # integral of sqrt(2) sin(i pi x) over (0,1): 2 sqrt(2)/(i pi) for odd
        # i, zero for even i.
        act = make_zone(0.0, 1.0, 6)
        for i in range(1, 7):
            expect = 2.0 * SQRT2 / (i * math.pi) if i % 2 == 1 else 0.0
            assert act[i - 1] == pytest.approx(expect, abs=1e-14)

    def test_product_of_sines_identity(self):
        # cos(i pi a) - cos(i pi b) = 2 sin(i pi (a+b)/2) sin(i pi (b-a)/2),
        # so b_i = (2 sqrt(2)/(i pi)) sin(i pi (a+b)/2) sin(i pi (b-a)/2).
        a, b = 0.2, 0.5
        act = make_zone(a, b, 8)
        for i in range(1, 9):
            expect = (
                2.0
                * SQRT2
                / (i * math.pi)
                * math.sin(i * math.pi * (a + b) / 2.0)
                * math.sin(i * math.pi * (b - a) / 2.0)
            )
            assert act[i - 1] == pytest.approx(expect, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("zone", [(0.2, 0.5), (0.1, 0.9), (0.0, 0.3)])
    def test_influence_against_quadrature(self, zone):
        a, b = zone
        act = make_zone(a, b, 20)
        for i in range(1, 21):
            val, _ = quad(lambda x: eigenfunction(i, x), a, b, limit=200)
            assert act[i - 1] == pytest.approx(val, abs=1e-10)

    def test_symmetric_zone_kills_even_modes(self):
        # A zone symmetric about 1/2 integrates every even mode to zero.
        act = make_zone(0.25, 0.75, 8)
        assert np.max(np.abs(act[1::2])) <= 1e-14
        assert np.min(np.abs(act[0::2])) > 1e-3

    # a bound must be a real number: a bool would read as 0 or 1
    @pytest.mark.parametrize("bounds", [(0.5, 0.5), (0.6, 0.4), (-0.1, 0.5), (0.5, 1.1),
                                        ("0.2", 0.5), (None, 0.5), (False, 0.5), (0.0, True)])
    def test_invalid_bounds(self, bounds):
        with pytest.raises(DomainError):
            make_zone(bounds[0], bounds[1], 3)


class TestPointwiseActuator:
    def test_matches_eigenfunction_value(self):
        act = make_pointwise(0.3, 10)
        for i in range(1, 11):
            assert act[i - 1] == pytest.approx(
                float(eigenfunction(i, 0.3)), rel=1e-14
            )

    def test_one_third_kills_multiples_of_three(self):
        act = make_pointwise(1.0 / 3.0, 9)
        for i in (3, 6, 9):
            assert abs(act[i - 1]) <= 1e-12
        for i in (1, 2, 4, 5, 7, 8):
            assert abs(act[i - 1]) > 0.5

    def test_midpoint_kills_even_modes(self):
        act = make_pointwise(0.5, 8)
        assert np.max(np.abs(act[1::2])) <= 1e-12
        assert np.allclose(np.abs(act[0::2]), SQRT2)

    @pytest.mark.parametrize("loc", [0.0, 1.0, -0.2, 1.5, "0.2", None, False, True])
    def test_invalid_location(self, loc):
        with pytest.raises(DomainError):
            make_pointwise(loc, 3)


class TestTargetSubspace:
    def test_index_variant_shapes_and_projector(self):
        for selected in ([4, 2], (4, 2), np.array([4, 2]), [np.int64(4), 2]):
            tgt = make_target(selected, 5)
            assert tgt.n_modes == 5
            # the annihilator is the complementary modes, 0-based and ascending
            np.testing.assert_array_equal(tgt.annihilator, [0, 2, 4])
            assert not tgt.annihilator.flags.writeable
        # embed scatters annihilator coordinates and leaves G's modes at zero
        full = tgt.embed(np.array([1.0, -2.0, 3.0]))
        np.testing.assert_array_equal(full, [1.0, 0.0, -2.0, 0.0, 3.0])
        np.testing.assert_array_equal(full[tgt.annihilator], [1.0, -2.0, 3.0])

    def test_projection_picks_out_complement(self):
        tgt = make_target([2, 3, 4, 5], 5)
        v = np.array([1.5, -2.0, 0.3, 0.0, 7.0])
        assert tgt.embed(v[tgt.annihilator]) == pytest.approx([1.5, 0.0, 0.0, 0.0, 0.0])
        assert tgt.distance_to(v) == pytest.approx(1.5)

    def test_empty_target_is_exact_steering(self):
        tgt = make_target([], 4)
        np.testing.assert_array_equal(tgt.annihilator, np.arange(4))
        assert tgt.distance_to(np.array([3.0, 0.0, -4.0, 0.0])) == pytest.approx(5.0)

    def test_full_target_is_no_constraint(self):
        tgt = make_target([1, 2, 3], 3)
        assert tgt.annihilator.size == 0
        np.testing.assert_array_equal(tgt.embed(np.zeros(0)), np.zeros(3))
        assert tgt.distance_to(np.array([9.0, -3.0, 1.0])) == 0.0

    def test_validation_errors(self):
        with pytest.raises(DomainError):
            make_target([0, 2], 4)
        with pytest.raises(DomainError):
            make_target([1, 5], 4)
        with pytest.raises(DomainError):
            make_target([2, 2], 4)

    @pytest.mark.parametrize(
        "selected", [[2.5], [2.0], [True], "12", np.ones((3, 1)), np.array([1.0, 2.0]), 3, None]
    )
    def test_non_integer_indices_rejected(self, selected):
        # only integral, non-bool indices name modes; nothing is rounded or read as digits
        with pytest.raises(DomainError):
            make_target(selected, 4)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=6))
    def test_random_projector_decomposition(self, seed_dim):
        rng = np.random.default_rng(100 + seed_dim)
        n = 6
        modes = (rng.permutation(n)[:seed_dim] + 1).tolist()
        tgt = make_target(modes, n)
        assert sorted(tgt.annihilator + 1) == sorted(set(range(1, n + 1)) - set(modes))
        v = rng.normal(size=n)
        inside = v - tgt.embed(v[tgt.annihilator])
        # decomposition: inside lies in G, the rest in the annihilator
        assert tgt.distance_to(inside) == 0.0
        assert np.all(inside[[i - 1 for i in modes]] == v[[i - 1 for i in modes]])
        assert np.linalg.norm(inside) ** 2 + tgt.distance_to(v) ** 2 == pytest.approx(
            np.linalg.norm(v) ** 2, rel=1e-12
        )


class TestStrategicCriteria:
    def test_pointwise_one_third_dead_mode(self):
        act = make_pointwise(1.0 / 3.0, 5)
        # annihilator of span{e1, e2, e4, e5} touches only mode 3
        tgt = make_target([1, 2, 4, 5], 5)
        assert dead_modes(act, tgt) == [3]
        assert is_strategic(act, tgt) == {"strategic": False, "dead_modes": [3]}

    def test_dead_mode_harmless_when_inside_target(self):
        act = make_pointwise(1.0 / 3.0, 5)
        # mode 3 has zero influence but the annihilator never touches it
        tgt = make_target([3], 5)
        assert dead_modes(act, tgt) == []
        assert is_strategic(act, tgt)["strategic"] is True

    def test_generic_zone_is_strategic(self):
        act = make_zone(0.2, 0.5, 8)
        tgt = make_target([2, 3], 8)
        assert is_strategic(act, tgt)["strategic"] is True

    def test_multiple_dead_modes(self):
        act = make_pointwise(0.5, 6)
        tgt = make_target([], 6)  # exact steering: annihilator touches all
        assert dead_modes(act, tgt) == [2, 4, 6]

    def test_tolerance_is_relative(self):
        tgt = make_target([], 4)
        assert dead_modes(np.array([1e8, 1e-4, 1e8, 1e8]), tgt) == [2]  # tiny relative to 1e8
        assert dead_modes(np.array([1.0, 1e-4, 1.0, 1.0]), tgt) == []


class TestEecCriterion:
    def test_definite_gramian_always_solvable(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4))
        # G = B^T B = m m^T + 0.1 I
        gram = Gramian(np.vstack([m.T, math.sqrt(0.1) * np.eye(4)]))
        assert eec_criterion(gram, rng.normal(size=4), 1e-4) is True

    def test_zero_rhs_trivially_solvable(self):
        assert eec_criterion(Gramian(np.zeros((3, 3))), np.zeros(3), 1e-4) is True

    def test_rank_deficient_gramian_detects_unreachable_rhs(self):
        gram = Gramian(np.diag([1.0, 1.0, 0.0]))  # G = diag(1, 1, 0)
        assert eec_criterion(gram, np.array([1.0, 2.0, 0.0]), 1e-4) is True
        assert eec_criterion(gram, np.array([1.0, 2.0, 0.5]), 1e-4) is False
        # the part of rhs outside G's range is the least-norm miss, held to verify_distance
        assert eec_criterion(gram, np.array([1.0, 2.0, 0.5]), 0.5) is True

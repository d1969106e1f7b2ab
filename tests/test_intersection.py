import math
import random

import pytest

from torusdyn import (
    IntegerMatrix,
    compare_expansion_readings,
    expand_sum_power,
    pullback_degree_check,
    standard_symplectic_form,
)
from torusdyn.linalg import SkewSymmetryError

from oracles import random_matrix


class TestExpandSumPower:
    def test_two_factors_curves(self):
        assert expand_sum_power(2, 1) == 2

    def test_three_factors_curves(self):
        assert expand_sum_power(3, 1) == 6

    def test_two_surfaces(self):
        # direct expansion disagrees with the r!^n closed form here (6 vs 4)
        assert expand_sum_power(2, 2) == 6

    def test_multinomial_identity(self):
        for r in (1, 2, 3, 4):
            for n in (1, 2, 3, 4):
                if r * n > 16:
                    continue
                expected = math.factorial(r * n) // math.factorial(n) ** r
                assert expand_sum_power(r, n) == expected

    def test_factorial_at_n_1(self):
        for r in (1, 2, 3, 4, 5):
            assert expand_sum_power(r, 1) == math.factorial(r)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            expand_sum_power(5, 4)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            expand_sum_power(0, 1)


class TestExpansionComparison:
    def test_readings_agree_for_curves(self):
        comp = compare_expansion_readings(3, 1)
        assert comp.expansion_coefficient == comp.factorial_power == comp.multinomial == 6

    def test_readings_disagree_for_surfaces(self):
        comp = compare_expansion_readings(2, 2)
        assert comp.expansion_coefficient == 6
        assert comp.factorial_power == 4
        assert comp.multinomial == 6


class TestPullbackDegreeCheck:
    def test_identity(self):
        s = standard_symplectic_form(2)
        check = pullback_degree_check(IntegerMatrix.identity(4), s)
        assert check.passed
        assert check.lhs == check.rhs

    def test_doubling_on_curve(self):
        s = standard_symplectic_form(1)
        check = pullback_degree_check(IntegerMatrix.scalar(2, 2), s)
        assert check.passed
        assert check.determinant == 4

    def test_random_matrices(self):
        rng = random.Random(17)
        s = standard_symplectic_form(2)
        for _ in range(30):
            m = random_matrix(rng, 4)
            check = pullback_degree_check(m, s)
            assert check.passed

    def test_malformed_form_rejected(self):
        with pytest.raises(SkewSymmetryError):
            pullback_degree_check(IntegerMatrix.identity(2), IntegerMatrix.identity(2))

    def test_degenerate_form_rejected(self):
        with pytest.raises(ValueError, match="nondegenerate"):
            pullback_degree_check(IntegerMatrix.identity(2), IntegerMatrix.zero(2, 2))

from fractions import Fraction
from math import comb

import pytest

from permrec.formulas import (
    bubble_star_max_overlap,
    bubble_star_sphere_overlaps,
    hamming_max_overlap,
    johnson_max_overlap,
    local_params_formula,
    single_error_upper_bound,
    sphere_comparison_premises,
    transposition_max_overlap,
    transposition_sphere_overlaps,
    two_error_lower_bound,
)
from permrec.perms import cycle_types, parse_cycle_type


class TestHamming:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_length_two(self, q):
        assert hamming_max_overlap(2, q, 1) == q
        assert hamming_max_overlap(2, q, 2) == q * q

    def test_cube(self):
        assert hamming_max_overlap(3, 2, 1) == 2

    def test_domain(self):
        with pytest.raises(ValueError):
            hamming_max_overlap(1, 2, 1)
        with pytest.raises(ValueError):
            hamming_max_overlap(2, 2, 0)


class TestJohnson:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_two_subsets(self, n):
        assert johnson_max_overlap(n, 2, 1) == n
        assert johnson_max_overlap(n, 2, 2) == n * (n - 1) // 2

    def test_three_subsets_of_six(self):
        assert johnson_max_overlap(6, 3, 1) == 6

    def test_integrality_over_grid(self):
        for n in range(2, 11):
            for e in range(1, n):
                for r in (1, 2, 3):
                    assert isinstance(johnson_max_overlap(n, e, r), int)

    def test_domain(self):
        with pytest.raises(ValueError):
            johnson_max_overlap(4, 0, 1)
        with pytest.raises(ValueError):
            johnson_max_overlap(4, 4, 1)


class TestSymmetricGroupForms:
    def test_one_error(self):
        for n in range(3, 13):
            assert transposition_max_overlap(n, 1) == 3

    @pytest.mark.parametrize("n,value", [(3, 6), (4, 15), (5, 27), (6, 42)])
    def test_two_errors(self, n, value):
        assert transposition_max_overlap(n, 2) == value

    def test_below_range_is_no_claim(self):
        assert transposition_max_overlap(2, 1) is None
        assert bubble_star_max_overlap("st", 3, 1) is None

    def test_radius_domain(self):
        with pytest.raises(ValueError):
            transposition_max_overlap(5, 3)

    def test_sphere_table_at_five(self):
        assert transposition_sphere_overlaps(5) == {1: 20, 2: 27, 3: 12, 4: 20}

    def test_sphere_table_at_four(self):
        assert transposition_sphere_overlaps(4) == {1: 12, 2: 15, 3: 12, 4: None}

    def test_sphere_table_at_three(self):
        table = transposition_sphere_overlaps(3)
        assert table[1] == 6 and table[2] == 6
        assert table[3] is None and table[4] is None

    @pytest.mark.parametrize("kind", ["t", "st"])
    def test_bubble_star_values(self, kind):
        lo = 3 if kind == "t" else 4
        for n in range(lo, 9):
            assert bubble_star_max_overlap(kind, n, 1) == 2
            assert bubble_star_max_overlap(kind, n, 2) == 2 * (n - 1)

    def test_bubble_star_tables(self):
        assert bubble_star_sphere_overlaps("t", 5) == {1: 8, 2: 8, 3: 4, 4: 4}
        assert bubble_star_sphere_overlaps("t", 4) == {1: 6, 2: 6, 3: 4, 4: None}
        assert bubble_star_sphere_overlaps("t", 8) == {1: 14, 2: 14, 3: 6, 4: 6}
        assert bubble_star_sphere_overlaps("st", 4) == {1: 6, 2: None, 3: 4, 4: None}
        assert bubble_star_sphere_overlaps("st", 5) == {1: 8, 2: 6, 3: 4, 4: 4}

    def test_kind_domain(self):
        with pytest.raises(ValueError):
            bubble_star_max_overlap("x", 4, 1)


class TestLocalParamsFormula:
    def test_three_cycle(self):
        assert local_params_formula(parse_cycle_type("1^2 3^1"))[0] == 3

    def test_double_swap(self):
        assert local_params_formula(parse_cycle_type("1^1 2^2"))[0] == 2

    def test_identity_class(self):
        c, b = local_params_formula(parse_cycle_type("1^4"))
        assert (c, b) == (0, comb(4, 2))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_partition_valency(self, n):
        for ct in cycle_types(n):
            c, b = local_params_formula(ct)
            assert c + b == comb(n, 2)
            assert c >= 0 and b >= 0


class TestBounds:
    def test_single_error_bound_value(self):
        assert single_error_upper_bound(24, 6, 0) == Fraction(12)

    def test_single_error_domain(self):
        with pytest.raises(ValueError):
            single_error_upper_bound(4, 3, 0)  # k > v-2
        with pytest.raises(ValueError):
            single_error_upper_bound(10, 4, 3)  # lambda > k-2

    def test_two_error_specializations(self):
        for k in range(2, 12):
            assert two_error_lower_bound(k, 1, 5) == k + 1
            assert two_error_lower_bound(k, 2, 2) == 2 * k
        assert two_error_lower_bound(7, 3, 3) == Fraction(2 * 21 - 11, 2)

    def test_two_error_domain(self):
        with pytest.raises(ValueError):
            two_error_lower_bound(1, 1, 2)
        with pytest.raises(ValueError):
            two_error_lower_bound(4, 0, 2)

    def test_premises(self):
        ok = sphere_comparison_premises(4, 2, False, False)
        assert ok.applicable and not ok.reasons
        tri = sphere_comparison_premises(4, 2, True, False)
        assert not tri.applicable and "triangles" in tri.reasons[0]
        small_mu = sphere_comparison_premises(4, 1, False, False)
        assert not small_mu.applicable
        small_k = sphere_comparison_premises(2, 3, False, False)
        assert not small_k.applicable

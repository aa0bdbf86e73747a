import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslen.bounds import dim_forms
from soslen.ring import (
    Form,
    _eval_rows_int,
    form_to_text,
    mono_rank,
    mono_unrank,
    monomials,
    multiply,
    product_index_table,
)

PRIMES = (101, 2147483647, 2**61 - 1)


def enumerate_oracle(n, e):
    """Independent enumeration via stars and bars, then descending lex sort."""
    tuples = []
    for cuts in itertools.combinations(range(e + n - 1), n - 1):
        prev = -1
        expo = []
        for c in cuts:
            expo.append(c - prev - 1)
            prev = c
        expo.append(e + n - 2 - prev)
        tuples.append(tuple(expo))
    return sorted(tuples, reverse=True)


def small_form(n, e, rng_coeffs):
    return Form.from_coeffs(n, e, rng_coeffs[: dim_forms(n, e)])


def form(n, e, terms):
    """The form with coefficients {exponent tuple: coefficient}."""
    return Form.from_coeffs(n, e, [terms.get(m, 0) for m in monomials(n, e)])


def evaluate(f, coords):
    """Value of f at the coordinates, one Python power product per monomial;
    independent of ``_eval_rows_int``."""
    return sum(c * math.prod(x**k for x, k in zip(coords, mono))
               for c, mono in zip(f.coeffs, monomials(f.n, f.degree)))


class TestMonomialIndexing:
    def test_rank_examples(self):
        assert [mono_rank(m) for m in ((2, 0), (1, 1), (0, 2))] == [0, 1, 2]
        assert mono_unrank(3, 1, 1) == (0, 1, 0)

    def test_exhaustive_bijection_up_to_1e4(self):
        checked = 0
        for n in range(1, 11):
            for e in range(0, 41):
                N = dim_forms(n, e)
                if N > 10**4:
                    break
                monos = monomials(n, e)
                assert list(monos) == enumerate_oracle(n, e)
                for idx, m in enumerate(monos):
                    assert mono_rank(m) == idx
                    assert mono_unrank(n, e, idx) == m
                checked += N
        assert checked > 10**5  # the sweep actually covered many monomials

    def test_product_index_table_matches_mono_rank(self):
        for n in range(1, 7):
            for e1 in range(6):
                for e2 in range(6):
                    index = {m: i for i, m in enumerate(enumerate_oracle(n, e1 + e2))}
                    oracle = tuple(
                        tuple(index[tuple(a + b for a, b in zip(u, v))]
                              for v in enumerate_oracle(n, e2))
                        for u in enumerate_oracle(n, e1)
                    )
                    assert product_index_table(n, e1, e2) == oracle, (n, e1, e2)

    def test_product_index_table_keys_match_exponent_sums(self):
        # the table is built from integer keys; the definition it replaced
        # looked up each exponent-vector sum, also for unequal degrees
        for n in range(1, 6):
            for e1 in range(7):
                for e2 in range(7):
                    sums = tuple(
                        tuple(mono_rank(tuple(a + b for a, b in zip(u, v)))
                              for v in monomials(n, e2))
                        for u in monomials(n, e1)
                    )
                    assert product_index_table(n, e1, e2) == sums, (n, e1, e2)

    def test_rank_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mono_rank((1, -1))
        with pytest.raises(ValueError):
            mono_unrank(3, 2, 6)  # N_{3,2} = 6, max index 5


coeff_lists = st.lists(st.integers(-30, 30), min_size=28, max_size=28)


class TestFormArithmetic:
    def test_x_times_x(self):
        x = form(2, 1, {(1, 0): 1})
        assert multiply(x, x).coeffs == form(2, 2, {(2, 0): 1}).coeffs

    def test_square_of_sum(self):
        x = form(2, 1, {(1, 0): 1})
        y = form(2, 1, {(0, 1): 1})
        expect = form(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert multiply(x + y, x + y).coeffs == expect.coeffs

    def test_evaluate_examples(self):
        # x1^2 comes first in index order and is the only monomial nonzero at (2, 0, 0)
        assert _eval_rows_int([(2, 0, 0)], 3, 2) == [[4, 0, 0, 0, 0, 0]]
        assert _eval_rows_int([(1, 2, 3)], 3, 0) == [[1]]
        # x1^3, x1^2 x2, x1 x2^2, x2^3 at (-2, 3) and at (2, -3)
        assert _eval_rows_int([(-2, 3), (2, -3)], 2, 3) == [[-8, 12, -18, 27],
                                                           [8, -12, 18, -27]]

    def test_degree_mismatch_rejected_for_add(self):
        with pytest.raises(ValueError):
            Form.from_coeffs(2, 1, [0] * 2) + Form.from_coeffs(2, 2, [0] * 3)

    @given(coeff_lists, coeff_lists, st.sampled_from(PRIMES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_evaluation_homomorphism_mod_p(self, cf, cg, p, data):
        # residues mod p as coefficients and coordinates, checked exactly over Q
        f = small_form(3, 2, [c % p for c in cf])
        g = small_form(3, 3, [c % p for c in cg])
        fg = multiply(f, g)
        for _ in range(5):
            coords = data.draw(
                st.tuples(st.integers(0, p - 1), st.integers(0, p - 1), st.integers(1, p - 1))
            )
            assert evaluate(fg, coords) == evaluate(f, coords) * evaluate(g, coords)

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=40)
    def test_multiply_commutes_and_distributes(self, cf, cg):
        f = small_form(3, 2, cf)
        g = small_form(3, 2, cg)
        h = small_form(3, 2, list(reversed(cf)))
        assert multiply(f, g).coeffs == multiply(g, f).coeffs
        assert multiply(f, g + h).coeffs == (multiply(f, g) + multiply(f, h)).coeffs


class TestTextFormat:
    def test_zero(self):
        assert form_to_text(Form.from_coeffs(2, 2, [0, 0, 0])) == "0"

    def test_fractions_and_signs(self):
        f = form(2, 2, {(2, 0): Fraction(1, 2), (1, 1): -3, (0, 2): 4})
        assert form_to_text(f) == "1/2 * x1^2 x2^0 + -3 * x1^1 x2^1 + 4 * x1^0 x2^2"

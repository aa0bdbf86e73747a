import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslen.bounds import dim_forms
from soslen.ring import (
    Form,
    Point,
    evaluate,
    form_to_text,
    mono_rank,
    mono_unrank,
    monomials,
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

    def test_rank_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mono_rank((1, -1))
        with pytest.raises(ValueError):
            mono_unrank(3, 2, 6)  # N_{3,2} = 6, max index 5


coeff_lists = st.lists(st.integers(-30, 30), min_size=28, max_size=28)


class TestFormArithmetic:
    def test_x_times_x(self):
        x = Form.from_terms(2, 1, {(1, 0): 1})
        assert (x * x).coeffs == Form.from_terms(2, 2, {(2, 0): 1}).coeffs

    def test_square_of_sum(self):
        x = Form.from_terms(2, 1, {(1, 0): 1})
        y = Form.from_terms(2, 1, {(0, 1): 1})
        expect = Form.from_terms(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert ((x + y) * (x + y)).coeffs == expect.coeffs

    def test_evaluate_examples(self):
        f = Form.from_terms(3, 2, {(2, 0, 0): 1})
        assert f.evaluate(Point((2, 0, 0))) == 4
        zero = Form.zero(3, 4)
        assert zero.evaluate(Point((1, 2, 3))) == 0

    def test_point_needs_nonzero_coordinate(self):
        with pytest.raises(ValueError):
            Point((0, 0, 0))

    def test_degree_mismatch_rejected_for_add(self):
        with pytest.raises(ValueError):
            Form.zero(2, 1) + Form.zero(2, 2)

    @given(coeff_lists, coeff_lists, st.sampled_from(PRIMES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_evaluation_homomorphism_mod_p(self, cf, cg, p, data):
        # residues mod p as coefficients and coordinates, checked exactly over Q
        f = small_form(3, 2, [c % p for c in cf])
        g = small_form(3, 3, [c % p for c in cg])
        fg = f * g
        for _ in range(5):
            coords = data.draw(
                st.tuples(st.integers(0, p - 1), st.integers(0, p - 1), st.integers(1, p - 1))
            )
            P = Point(coords)
            assert fg.evaluate(P) == f.evaluate(P) * g.evaluate(P)

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=40)
    def test_multiply_commutes_and_distributes(self, cf, cg):
        f = small_form(3, 2, cf)
        g = small_form(3, 2, cg)
        h = small_form(3, 2, list(reversed(cf)))
        assert (f * g).coeffs == (g * f).coeffs
        assert (f * (g + h)).coeffs == ((f * g) + (f * h)).coeffs

    @given(coeff_lists, st.integers(1, 40), st.integers(-20, 20))
    @settings(max_examples=40)
    def test_homogeneity(self, cf, cnum, cden_raw):
        c = Fraction(cnum, cden_raw if cden_raw != 0 else 7)
        f = small_form(3, 3, cf)
        P = Point((2, -3, 5))
        scaled = Point(tuple(c * x for x in P.coords)) if c != 0 else None
        if scaled is not None:
            assert f.evaluate(scaled) == c**3 * f.evaluate(P)


class TestTextFormat:
    def test_zero(self):
        assert form_to_text(Form.zero(2, 2)) == "0"

    def test_fractions_and_signs(self):
        f = Form.from_terms(
            2, 2, {(2, 0): Fraction(1, 2), (1, 1): -3, (0, 2): 4}
        )
        assert form_to_text(f) == "1/2 * x1^2 x2^0 + -3 * x1^1 x2^1 + 4 * x1^0 x2^2"

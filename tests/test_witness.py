import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslen import cli, generic, linalg
from soslen.bounds import binomial, dim_forms
from soslen.fileio import canonical_json, canonical_pieces, write_atomic
from soslen.linalg import RationalMatrix, rank_rational
from soslen.ring import Form, monomials, multiply, product_index_table
from soslen.witness import (
    LengthCertificate,
    SosRepresentation,
    _sum_of_squares_int,
    basis_representation,
    build_witness,
    gram_equivalent,
    gram_tensor,
    load_sos_file,
    mix_representation,
    random_mix,
    random_rational_orthogonal,
    representation_to_dict,
)


def x_form(n, i):
    """The linear form x_i."""
    return Form.from_coeffs(n, 1, [int(j == i) for j in range(n)])


# The pairwise loops that the integer Gram kernel replaced, kept as oracles:
# every ordered pair of nonzero entries is multiplied, in the entries' own
# int or Fraction arithmetic.


def reference_sum_of_squares(vectors, n, d):
    table = product_index_table(n, d, d)
    out = [0] * dim_forms(n, 2 * d)
    for v in vectors:
        nz = [(i, c) for i, c in enumerate(v) if c]
        for i, ci in nz:
            row = table[i]
            for j, cj in nz:
                out[row[j]] += ci * cj
    return out


def reference_gram_matrix(rep):
    N = dim_forms(rep.n, rep.d)
    mat = [[Fraction(0)] * N for _ in range(N)]
    for q in rep.summands:
        coeffs = q.coeffs
        for i in range(N):
            ci = coeffs[i]
            if ci:
                row = mat[i]
                for j in range(N):
                    if coeffs[j]:
                        row[j] += ci * coeffs[j]
    return tuple(tuple(row) for row in mat)


def reference_mix(rep, matrix):
    new = []
    for j in range(len(rep.summands)):
        q = Form.from_coeffs(rep.n, rep.d, [0] * dim_forms(rep.n, rep.d))
        for i, p_i in enumerate(rep.summands):
            if matrix[i][j]:
                q = q + p_i.scale(matrix[i][j])
        new.append(q)
    return tuple(new)


def representation(summands):
    """The representation of the summands' sum of squares, with the target
    from the reference loop, so the constructor's own check is tested."""
    n, d = summands[0].n, summands[0].degree
    target = reference_sum_of_squares([q.coeffs for q in summands], n, d)
    return SosRepresentation(summands=tuple(summands), target=Form.from_coeffs(n, 2 * d, target))


def evaluate(f, coords):
    """Value of f at the coordinates, one Python power product per monomial."""
    return sum(c * math.prod(x**k for x, k in zip(coords, mono))
               for c, mono in zip(f.coeffs, monomials(f.n, f.degree)))


_BIG = 2**3999  # entries of about 4000 bits, the size of a (3,10) basis
_INT = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(_BIG, 2 * _BIG),
    st.integers(-2 * _BIG, -_BIG),
)
_FRACTION = st.builds(Fraction, _INT, st.sampled_from([1, 2, 3, 4, 9, 35, 2**61 - 1, 10**40]))


@st.composite
def _vector_sets(draw, fractions=True):
    """(n, d, vectors): all-int or, with ``fractions``, mixed int/Fraction
    entries, with zero vectors and coordinates that are zero in every
    vector."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    N = dim_forms(n, d)
    entry = draw(st.sampled_from([_INT, _INT | _FRACTION])) if fractions else _INT
    zero_cols = draw(st.sets(st.integers(0, N - 1), max_size=N))
    vectors = draw(st.lists(
        st.just([0] * N) | st.lists(entry, min_size=N, max_size=N), min_size=1, max_size=4))
    return n, d, [[0 if i in zero_cols else c for i, c in enumerate(v)] for v in vectors]


class TestIntegerGramKernel:
    """The two sums of squares against the pairwise reference loops: from
    residues for integer vectors, and the integer Gram, the one that takes
    Fractions too."""

    @settings(max_examples=150, deadline=None)
    @given(_vector_sets(fractions=False))
    def test_sum_of_squares_equals_reference(self, case):
        n, d, vectors = case
        got = _sum_of_squares_int(vectors, n, d)
        assert got == reference_sum_of_squares(vectors, n, d)
        assert all(type(c) is int for c in got)  # a certificate writes them as JSON ints

    @settings(max_examples=150, deadline=None)
    @given(_vector_sets())
    def test_gram_tensor_and_target_check_equal_reference(self, case):
        n, d, vectors = case
        forms = tuple(Form.from_coeffs(n, d, v) for v in vectors)
        target = Form.from_coeffs(n, 2 * d, reference_sum_of_squares(vectors, n, d))
        rep = SosRepresentation(summands=forms, target=target)
        assert gram_tensor(rep).matrix == reference_gram_matrix(rep)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    def test_mix_of_a_certificate_equals_reference(self, seed1, seed2):
        rep = basis_representation(build_witness(3, 3, 6, seed=13))
        for _ in range(2):  # the second mix starts from Fraction summands
            matrix = random_rational_orthogonal(len(rep.summands), seed1)
            mixed = mix_representation(rep, matrix)
            assert mixed.summands == reference_mix(rep, matrix)
            assert gram_tensor(mixed).matrix == reference_gram_matrix(mixed)
            rep, seed1 = mixed, seed2

    def test_denominators_far_apart(self):
        # D_1 = 21 and D_2 = 21 * (2^67 + 3): the Gram's weights L / D_k^2
        # differ by a factor above 2^128
        far = 21 * (2**67 + 3)
        vectors = [
            [Fraction(2, 3), Fraction(-5, 7), 0, Fraction(1, 21), 1, Fraction(-2**70, 3)],
            [Fraction(1, far), Fraction(-3, far), Fraction(2**90, far), 0, Fraction(-1, 7), 5],
        ]
        forms = tuple(Form.from_coeffs(3, 2, v) for v in vectors)
        target = reference_sum_of_squares(vectors, 3, 2)
        assert any(type(c) is Fraction and c.denominator > 2**128 for c in target)
        SosRepresentation(summands=forms, target=Form.from_coeffs(3, 4, target))
        target[0] += Fraction(1, far * far)
        with pytest.raises(ValueError, match="do not sum"):
            SosRepresentation(summands=forms, target=Form.from_coeffs(3, 4, target))


class TestResidueSumOfSquares:
    """The sum of squares from residues modulo the kernel's primes and CRT,
    against the pairwise reference loop, at the edges of its bound."""

    @pytest.mark.parametrize("below", [True, False])
    def test_coefficient_equal_to_the_bound(self, below, monkeypatch):
        # one variable: the only coefficient is sum_k c_k^2, the bound B
        # itself; 2 B just below the first stack's modulus Q1 needs that
        # stack alone, just above it needs the second, and one stack less
        # reads B mod Q1 as a negative number
        Q1 = math.prod(linalg._prime_block(0))
        c = math.isqrt(Q1 // 2) + (-1 if below else 1)
        B = c**2 + 2
        assert (2 * B < Q1) == below and B < Q1
        stacks = []
        real = linalg._crt_extend
        monkeypatch.setattr(linalg, "_crt_extend", lambda *a: stacks.append(1) or real(*a))
        assert _sum_of_squares_int([[c], [-1], [1]], 1, 3) == [B]
        assert len(stacks) == (1 if below else 2)

    def test_one_vector_of_large_entries(self):
        rng = random.Random(3)
        vector = [rng.choice([0, 1, -1]) * rng.getrandbits(5000) for _ in range(dim_forms(3, 3))]
        got = _sum_of_squares_int([vector], 3, 3)
        assert got == reference_sum_of_squares([vector], 3, 3)
        assert all(type(c) is int for c in got)


class TestBuildWitness:
    def test_hilbert_case(self):
        cert = build_witness(3, 2, 3, seed=21)
        assert cert.length == 3
        assert cert.injectivity_rank == binomial(4, 2)

    def test_ternary_sextic(self):
        cert = build_witness(3, 3, 6, seed=21)
        assert cert.length == 4 == dim_forms(3, 3) - 6
        assert cert.injectivity_rank == 10

    def test_octics_with_ten_points(self):
        cert = build_witness(3, 4, 10, seed=21)
        assert cert.length == 5
        assert cert.injectivity_rank == binomial(6, 2) == 15

    def test_quaternary_quartic(self):
        cert = build_witness(4, 2, seed=21)
        assert cert.s == 5 and cert.length == 5

    def test_exact_identities(self):
        cert = build_witness(3, 3, 6, seed=33)
        rep = basis_representation(cert)
        # witness == sum of squares re-checked by the representation constructor
        assert len(rep.summands) == cert.length
        witness = Form.from_coeffs(3, 6, cert.witness)
        for coords in cert.points:
            assert evaluate(witness, coords) == 0
            for q in rep.summands:
                assert evaluate(q, coords) == 0

    def test_basis_is_canonical(self):
        cert = build_witness(3, 3, 6, seed=21)
        for v in cert.basis:
            assert all(isinstance(c, int) for c in v)
            assert math.gcd(*v) == 1
            assert next(c for c in v if c) > 0

    def test_s_range_validation(self):
        with pytest.raises(ValueError):
            build_witness(3, 3, 4, seed=1)  # below s_min = 6
        with pytest.raises(ValueError):
            build_witness(3, 3, 10, seed=1)  # s = N_d: empty kernel
        with pytest.raises(ValueError):
            build_witness(2, 3, seed=1)

    def test_kernel_of_4_5_stops_at_its_first_exact_candidate(self, monkeypatch):
        # one stack for the degree-4 gate and four for the degree-5 kernel,
        # whose scaled vectors are exact, and pass the exact check, a stack
        # before they could repeat
        calls = []
        real = linalg._rref_stack
        monkeypatch.setattr(linalg, "_rref_stack", lambda A, P: calls.append(1) or real(A, P))
        build_witness(4, 5)
        assert len(calls) == 1 + 4

    def test_replay_is_deterministic(self):
        a = build_witness(3, 2, 3, seed=5)
        b = build_witness(3, 2, 3, seed=5)
        assert a == b


class TestDegreeBelowGate:
    """The degree-(d-1) gate: full rank of the evaluation matrix over the rationals."""

    def test_gate_is_one_exact_rank_call_whatever_rank_mod_p_returns(self, monkeypatch):
        plain = canonical_json(build_witness(3, 4, seed=21).to_dict())
        exact_calls = []
        real = linalg.rank_rational
        monkeypatch.setattr(linalg, "rank_mod_p", lambda M: 0)
        monkeypatch.setattr(linalg, "rank_rational", lambda M: exact_calls.append(M) or real(M))
        patched = canonical_json(build_witness(3, 4, seed=21).to_dict())
        assert len(exact_calls) == 1
        assert patched == plain

    def test_points_on_a_conic_are_rejected(self, monkeypatch):
        # six points (a^2, ab, b^2) lie on the conic x1 x3 = x2^2, so a
        # quadric vanishes on them; they impose independent conditions on
        # cubics, so only the degree-2 gate can turn them away
        pairs = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, -1))
        conic = [(a * a, a * b, b * b) for a, b in pairs]
        real = generic._raw_points
        draws = []

        def conic_first(*args):
            draws.append(conic if not draws else real(*args))
            return draws[-1]

        monkeypatch.setattr(generic, "_raw_points", conic_first)
        cert = build_witness(3, 3, seed=11)
        assert len(draws) == 2 and cert.points == tuple(draws[1]) != tuple(conic)


class TestGramTensor:
    def test_identity_block(self):
        x, y = x_form(2, 0), x_form(2, 1)
        g = gram_tensor(representation((x, y)))
        assert g.matrix == ((1, 0), (0, 1))

    def test_rotation_has_same_tensor(self):
        x, y = x_form(2, 0), x_form(2, 1)
        rep1 = representation((x, y))
        r1 = x.scale(Fraction(3, 5)) + y.scale(Fraction(4, 5))
        r2 = x.scale(Fraction(4, 5)) + y.scale(Fraction(-3, 5))
        rep2 = representation((r1, r2))
        assert gram_equivalent(rep1, rep2)

    def test_rank_equals_certificate_length(self):
        cert = build_witness(3, 3, 6, seed=21)
        g = gram_tensor(basis_representation(cert))
        assert rank_rational(RationalMatrix(g.matrix)) == cert.length == 4

    def test_different_targets_rejected(self):
        x, y = x_form(2, 0), x_form(2, 1)
        rep1 = representation((x, y))
        rep2 = representation((x + y, x + y.scale(-1)))  # 2x^2 + 2y^2
        with pytest.raises(ValueError):
            gram_equivalent(rep1, rep2)

    def test_same_target_different_tensor_is_not_equivalent(self, tmp_path, capsys):
        x, y = x_form(2, 0), x_form(2, 1)
        xx, yy, xy = multiply(x, x), multiply(y, y), multiply(x, y)
        rep1 = representation((xx + yy,))
        rep2 = representation((xx + yy.scale(-1), xy.scale(2)))  # (x^2+y^2)^2 again
        assert rep1.target == rep2.target
        assert not gram_equivalent(rep1, rep2)
        # the same support on both sides, over the denominators 1 and 25
        rep3 = representation((xx + yy, xy.scale(2)))
        rep4 = representation(
            (xx + yy.scale(-1), xy.scale(Fraction(14, 5)), xy.scale(Fraction(2, 5))))
        assert rep3.target == rep4.target
        assert not gram_equivalent(rep3, rep4)
        assert gram_equivalent(rep4, rep4)

        write_atomic(tmp_path / "a.json", canonical_json(representation_to_dict(rep1)))
        write_atomic(tmp_path / "b.json", canonical_json(representation_to_dict(rep2)))
        assert cli.main(["gramcheck", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
        assert capsys.readouterr().out == "false\n"

    def test_summands_must_square_to_target(self):
        x, y = x_form(2, 0), x_form(2, 1)
        target = multiply(x, x) + multiply(y, y)
        with pytest.raises(ValueError):
            SosRepresentation(summands=(x, x), target=target)


class TestOrthogonalMixes:
    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_matrices_are_orthogonal(self, size):
        for seed in (1, 2, 3):
            U = random_rational_orthogonal(size, seed)
            for i in range(size):
                for j in range(size):
                    dot = sum(U[i][k] * U[j][k] for k in range(size))
                    assert dot == (1 if i == j else 0)

    def test_mix_preserves_target_and_tensor(self):
        cert = build_witness(3, 2, 3, seed=9)
        rep = basis_representation(cert)
        for seed in range(10):
            mixed = random_mix(rep, seed)
            assert mixed.target.coeffs == rep.target.coeffs
            assert gram_equivalent(rep, mixed)

    def test_mix_shape_validation(self):
        cert = build_witness(3, 2, 3, seed=9)
        rep = basis_representation(cert)
        with pytest.raises(ValueError):
            mix_representation(rep, ((1, 0), (0, 1)))  # wrong size


class TestSerialization:
    """Files written and read as the CLI does."""

    def test_certificate_roundtrip(self, tmp_path):
        cert = build_witness(3, 2, 3, seed=17)
        path = tmp_path / "cert.json"
        write_atomic(path, canonical_json(cert.to_dict()))
        assert LengthCertificate.from_dict(json.loads(path.read_text())) == cert

    def test_representation_roundtrip(self, tmp_path):
        cert = build_witness(3, 2, 3, seed=17)
        mixed = random_mix(basis_representation(cert), seed=3)
        path = tmp_path / "rep.json"
        write_atomic(path, canonical_json(representation_to_dict(mixed)))
        loaded = load_sos_file(path)
        assert loaded.target.coeffs == mixed.target.coeffs
        assert gram_equivalent(loaded, mixed)

    def test_certificate_loads_as_representation(self, tmp_path):
        cert = build_witness(3, 2, 3, seed=17)
        path = tmp_path / "cert.json"
        write_atomic(path, canonical_json(cert.to_dict()))
        rep = load_sos_file(path)
        assert len(rep.summands) == cert.length

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        cert = build_witness(3, 2, 3, seed=17)

        def crash(src, dst):
            raise OSError("simulated crash before the rename")

        def torn(record):  # the pieces of a write that fails halfway through its text
            pieces = list(canonical_pieces(record))
            yield from pieces[: len(pieces) // 2]
            raise RuntimeError("simulated failure while encoding")

        path = tmp_path / "old.json"
        for record in (cert.to_dict(), representation_to_dict(basis_representation(cert))):
            path.write_text("old\n")
            with pytest.raises(RuntimeError):
                write_atomic(path, torn(record))
            assert path.read_text() == "old\n"
            assert list(tmp_path.iterdir()) == [path]
            with monkeypatch.context() as m:
                m.setattr(os, "replace", crash)
                for content in (canonical_json(record), canonical_pieces(record)):
                    with pytest.raises(OSError):
                        write_atomic(path, content)
                    assert path.read_text() == "old\n"
                    assert list(tmp_path.iterdir()) == [path]

    def test_unknown_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_sos_file(path)

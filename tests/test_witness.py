import math
from fractions import Fraction

import pytest

from soslen.bounds import binomial, dim_forms
from soslen.ring import Form, Point
from soslen.witness import (
    SosRepresentation,
    basis_representation,
    build_witness,
    certify_unique_representation,
    gram_equivalent,
    gram_tensor,
    load_certificate,
    load_sos_file,
    mix_representation,
    random_mix,
    random_rational_orthogonal,
    save_certificate,
    save_representation,
)


def x_form(n, i, d=1):
    expo = tuple(d if j == i else 0 for j in range(n))
    return Form.from_terms(n, d, {expo: 1})


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
            assert witness.evaluate(Point(coords)) == 0
            for q in rep.summands:
                assert q.evaluate(Point(coords)) == 0

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

    def test_replay_is_deterministic(self):
        a = build_witness(3, 2, 3, seed=5)
        b = build_witness(3, 2, 3, seed=5)
        assert a == b


class TestGramTensor:
    def test_identity_block(self):
        x, y = x_form(2, 0), x_form(2, 1)
        g = gram_tensor(SosRepresentation.from_summands((x, y)))
        assert g.matrix == ((1, 0), (0, 1))

    def test_rotation_has_same_tensor(self):
        x, y = x_form(2, 0), x_form(2, 1)
        rep1 = SosRepresentation.from_summands((x, y))
        r1 = x.scale(Fraction(3, 5)) + y.scale(Fraction(4, 5))
        r2 = x.scale(Fraction(4, 5)) + y.scale(Fraction(-3, 5))
        rep2 = SosRepresentation.from_summands((r1, r2))
        assert gram_equivalent(rep1, rep2)

    def test_rank_equals_certificate_length(self):
        cert = build_witness(3, 3, 6, seed=21)
        g = gram_tensor(basis_representation(cert))
        assert g.rank() == cert.length == 4

    def test_different_targets_rejected(self):
        x, y = x_form(2, 0), x_form(2, 1)
        rep1 = SosRepresentation.from_summands((x, y))
        rep2 = SosRepresentation.from_summands((x + y, x - y))  # 2x^2 + 2y^2
        with pytest.raises(ValueError):
            gram_equivalent(rep1, rep2)

    def test_summands_must_square_to_target(self):
        x, y = x_form(2, 0), x_form(2, 1)
        target = (x * x) + (y * y)
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


class TestCertifyUnique:
    def test_basis_rep_certifies(self):
        cert = build_witness(3, 3, 6, seed=13)
        assert certify_unique_representation(cert, basis_representation(cert))

    def test_mixed_rep_certifies(self):
        cert = build_witness(3, 3, 6, seed=13)
        mixed = random_mix(basis_representation(cert), seed=40)
        assert certify_unique_representation(cert, mixed)

    def test_wrong_target_rejected(self):
        cert = build_witness(3, 2, 3, seed=13)
        x = x_form(3, 0, d=2)
        alt = SosRepresentation.from_summands((x,))
        with pytest.raises(ValueError):
            certify_unique_representation(cert, alt)


class TestSerialization:
    def test_certificate_roundtrip(self, tmp_path):
        cert = build_witness(3, 2, 3, seed=17)
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        assert load_certificate(path) == cert

    def test_representation_roundtrip(self, tmp_path):
        cert = build_witness(3, 2, 3, seed=17)
        mixed = random_mix(basis_representation(cert), seed=3)
        path = tmp_path / "rep.json"
        save_representation(mixed, path)
        loaded = load_sos_file(path)
        assert loaded.target.coeffs == mixed.target.coeffs
        assert gram_equivalent(loaded, mixed)

    def test_certificate_loads_as_representation(self, tmp_path):
        cert = build_witness(3, 2, 3, seed=17)
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        rep = load_sos_file(path)
        assert len(rep.summands) == cert.length

    def test_unknown_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_sos_file(path)

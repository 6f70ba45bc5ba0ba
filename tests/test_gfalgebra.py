"""Finite field tables, matrices, affine and semilinear maps."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcycle.gfalgebra import (
    SUPPORTED_ORDERS,
    AffineMap,
    Matrix,
    SemilinearMap,
    field_ops,
    matrix_rank,
    projective_action,
    projective_points,
)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
class TestFieldAxioms:
    def test_additive_group(self, q):
        f = field_ops(q)
        for a in range(q):
            assert f.add(a, 0) == a
            assert f.add(a, f.neg(a)) == 0
        for a, b in itertools.product(range(q), repeat=2):
            assert f.add(a, b) == f.add(b, a)

    def test_multiplicative_group(self, q):
        f = field_ops(q)
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
            assert f.mul(a, 1) == a

    def test_associativity_and_distributivity(self, q):
        f = field_ops(q)
        for a, b, c in itertools.product(range(q), repeat=3):
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_frobenius_is_field_automorphism_of_order_e(self, q):
        f = field_ops(q)
        for a, b in itertools.product(range(q), repeat=2):
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
        for a in range(q):
            assert f.frobenius(a, f.e) == a
        if f.e > 1:
            assert any(f.frobenius(a) != a for a in range(q))

    def test_no_zero_divisors(self, q):
        f = field_ops(q)
        for a, b in itertools.product(range(1, q), repeat=2):
            assert f.mul(a, b) != 0


def test_unsupported_order_rejected():
    with pytest.raises(ValueError):
        field_ops(6)
    with pytest.raises(ValueError):
        field_ops(16)


def test_gf4_table_values():
    # GF(4) with modulus x^2 + x + 1: elements 0, 1, x=2, x+1=3.
    f = field_ops(4)
    assert f.mul(2, 2) == 3  # x^2 = x + 1
    assert f.mul(2, 3) == 1  # x(x+1) = x^2 + x = 1
    assert f.add(2, 3) == 1


def test_gf9_primitive_element():
    # x has order 4 in GF(9) with modulus x^2 + 1, so x+1 (= 4) is primitive.
    f = field_ops(9)
    assert f.primitive_element() == 4


def test_gf2_primitive_element_is_one():
    assert field_ops(2).primitive_element() == 1


class TestMatrix:
    def test_identity_and_mul(self):
        f = field_ops(5)
        m = Matrix.from_rows(f, [[1, 1], [0, 1]])
        i = Matrix.identity(f, 2)
        assert m * i == m
        assert (m * m).entries == (1, 2, 0, 1)

    def test_inverse(self):
        f = field_ops(7)
        m = Matrix.from_rows(f, [[2, 3], [1, 4]])
        assert m * m.inverse() == Matrix.identity(f, 2)

    def test_singular_rejected(self):
        f = field_ops(3)
        m = Matrix.from_rows(f, [[1, 2], [2, 1]])  # second row = 2 * first
        assert not m.is_invertible()
        with pytest.raises(ValueError):
            m.inverse()

    def test_row_vector_convention(self):
        # w * M uses rows of M indexed by coordinates of w.
        f = field_ops(5)
        m = Matrix.from_rows(f, [[0, 1], [1, 0]])
        assert m.vec_mul((2, 3)) == (3, 2)

    def test_order(self):
        f = field_ops(2)
        m = Matrix.from_rows(f, [[0, 1], [1, 1]])
        # This matrix has order 3 in GL(2, 2).
        assert m.order() == 3

    def test_gl_order_by_enumeration(self):
        # |GL(2, 3)| = (9-1)(9-3) = 48, by brute force over all 2x2 matrices.
        f = field_ops(3)
        count = sum(
            1
            for e in itertools.product(range(3), repeat=4)
            if Matrix(f, 2, 2, e).is_invertible()
        )
        assert count == 48

    def test_rank(self):
        f = field_ops(2)
        assert matrix_rank(f, [(1, 0, 1), (0, 1, 1), (1, 1, 0)]) == 2
        assert matrix_rank(f, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3

    def test_rank_stops_reading_at_full_rank(self):
        f = field_ops(3)

        def vectors():
            yield (1, 0)
            yield (0, 1)
            raise AssertionError("read past a full basis")

        assert matrix_rank(f, vectors()) == 2

    def test_vec_mul_rejects_wrong_length(self):
        f = field_ops(5)
        with pytest.raises(ValueError):
            Matrix.identity(f, 2).vec_mul((1, 2, 3))


# Reference arithmetic written out from the public field operations.


def ref_product(f, a: Matrix, b: Matrix) -> tuple[int, ...]:
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc = f.add(acc, f.mul(a[i, k], b[k, j]))
            out.append(acc)
    return tuple(out)


def ref_determinant(f, m: Matrix) -> int:
    """Leibniz formula: sum over permutations of signed entry products."""
    n = m.rows
    det = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = f.mul(term, m[i, j])
        inversions = sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
        det = f.add(det, f.neg(term) if inversions % 2 else term)
    return det


@st.composite
def matrices(draw, rows=None, cols=None, q=None):
    q = draw(st.sampled_from(SUPPORTED_ORDERS)) if q is None else q
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols))
    return Matrix(field_ops(q), rows, cols, entries)


@st.composite
def matrix_pairs(draw):
    q = draw(st.sampled_from(SUPPORTED_ORDERS))
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(matrices(r, k, q)), draw(matrices(k, c, q))


class TestTableArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(matrix_pairs())
    def test_product_matches_reference(self, pair):
        a, b = pair
        prod = a * b
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
        assert prod.entries == ref_product(a.field, a, b)
        # The internal constructor gives a matrix equal to a validated one.
        assert prod == Matrix(a.field, prod.rows, prod.cols, prod.entries)
        assert hash(prod) == hash(Matrix(a.field, prod.rows, prod.cols, prod.entries))

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_vec_mul_matches_reference(self, m):
        f = m.field
        for w in itertools.islice(itertools.product(range(f.q), repeat=m.rows), 50):
            row = Matrix(f, 1, m.rows, w)
            assert m.vec_mul(w) == ref_product(f, row, m)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)))
    def test_inverse_matches_reference(self, m):
        f, n = m.field, m.rows
        ident = Matrix.identity(f, n)
        if ref_determinant(f, m) == 0:
            assert not m.is_invertible()
            with pytest.raises(ValueError):
                m.inverse()
            return
        inv = m.inverse()
        assert ref_product(f, m, inv) == ident.entries
        assert ref_product(f, inv, m) == ident.entries
        assert inv == Matrix(f, n, n, inv.entries)

    def test_product_rejects_mixed_fields(self):
        with pytest.raises(ValueError):
            Matrix.identity(field_ops(3), 2) * Matrix.identity(field_ops(5), 2)


class TestAffineMap:
    def test_apply(self):
        f = field_ops(3)
        a = AffineMap(Matrix.from_rows(f, [[1, 1], [0, 1]]), (1, 2))
        assert a.apply((0, 0)) == (1, 2)
        assert a.apply((1, 0)) == (2, 0)

    def test_embed_consistent(self):
        f = field_ops(5)
        a = AffineMap(Matrix.from_rows(f, [[2, 0], [1, 3]]), (4, 1))
        g = a.embed()
        for w in itertools.product(range(5), repeat=2):
            assert g.vec_mul(w + (1,)) == a.apply(w) + (1,)

    def test_order_matches_iteration(self):
        f = field_ops(3)
        a = AffineMap(Matrix.identity(f, 2), (1, 0))
        assert a.order() == 3  # pure translation in characteristic 3

    def test_compose(self):
        f = field_ops(5)
        a = AffineMap(Matrix.from_rows(f, [[2, 1], [1, 1]]), (3, 0))
        b = AffineMap(Matrix.from_rows(f, [[1, 4], [2, 4]]), (0, 2))
        ab = a.compose(b)
        for w in itertools.product(range(5), repeat=2):
            assert ab.apply(w) == b.apply(a.apply(w))

    def test_singular_linear_part_rejected(self):
        f = field_ops(2)
        with pytest.raises(ValueError):
            AffineMap(Matrix.from_rows(f, [[1, 1], [1, 1]]), (0, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_compose_equals_validated_construction(self, data):
        q = data.draw(st.sampled_from(SUPPORTED_ORDERS))
        d = data.draw(st.integers(1, 3))
        f = field_ops(q)
        entry = st.integers(0, q - 1)

        def invertible():
            # Unit lower triangular times upper triangular with a nonzero
            # diagonal: invertible, and the identity at the smallest draw.
            lower = [int(i == j) if i <= j else data.draw(entry) for i in range(d) for j in range(d)]
            upper = [
                data.draw(st.integers(1, q - 1)) if i == j else data.draw(entry) if i < j else 0
                for i in range(d)
                for j in range(d)
            ]
            return Matrix(f, d, d, ref_product(f, Matrix(f, d, d, lower), Matrix(f, d, d, upper)))

        a, b = (
            AffineMap(invertible(), tuple(data.draw(entry) for _ in range(d))) for _ in range(2)
        )
        ab = a.compose(b)
        # w*La*Lb + (ta*Lb + tb), each part from the reference arithmetic,
        # through the validating constructor.
        lin = Matrix(f, d, d, ref_product(f, a.linear, b.linear))
        shifted = ref_product(f, Matrix(f, 1, d, a.translation), b.linear)
        tra = tuple(f.add(x, y) for x, y in zip(shifted, b.translation))
        expected = AffineMap(lin, tra)
        assert ab == expected
        assert hash(ab) == hash(expected)
        assert ab.embed() == a.embed() * b.embed()
        for w in itertools.islice(itertools.product(range(q), repeat=d), 30):
            assert ab.apply(w) == b.apply(a.apply(w))


class TestProjective:
    def test_point_list(self):
        f = field_ops(5)
        pts = projective_points(f)
        assert len(pts) == 6
        assert pts[0] == (1, 0)
        assert pts[-1] == (0, 1)

    def test_translation_matrix_action(self):
        # [[1, 1], [0, 1]] maps (1, x) to (1, x+1) and fixes (0, 1).
        f = field_ops(5)
        m = Matrix.from_rows(f, [[1, 1], [0, 1]])
        p = projective_action(m)
        assert p.images[5] == 5
        assert p.images[0] == 1

    def test_action_is_homomorphism(self):
        f = field_ops(7)
        a = Matrix.from_rows(f, [[1, 1], [0, 1]])
        b = Matrix.from_rows(f, [[0, 1], [1, 0]])
        assert projective_action(a) * projective_action(b) == projective_action(a * b)

    def test_scalar_acts_trivially(self):
        f = field_ops(5)
        m = Matrix.from_rows(f, [[2, 0], [0, 2]])
        assert projective_action(m).is_identity()

    def test_semilinear_action(self):
        f = field_ops(9)
        frob = SemilinearMap(Matrix.identity(f, 2), 1)
        p = projective_action(frob)
        assert p.order() == 2
        # (1, x) with x = 2 (the element 2 of GF(3)) is fixed by the cube map.
        assert p.images[2] == 2

    def test_semilinear_composition(self):
        f = field_ops(9)
        m = Matrix.from_rows(f, [[4, 0], [0, 1]])
        s = SemilinearMap(m, 1)
        # Applying s twice equals applying (frob(m) * m) with frobenius power 2 = 0.
        twice = projective_action(s) * projective_action(s)
        fm = Matrix(f, 2, 2, [f.frobenius(v) for v in m.entries])
        assert twice == projective_action(fm * m)

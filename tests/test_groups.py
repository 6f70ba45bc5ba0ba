"""Group closure, conjugacy, named constructions, ambient automorphisms."""

from __future__ import annotations

import math

import pytest

from regcycle.permcore import Permutation, parse_cycles
from regcycle.groups import (
    AmbientAutomorphisms,
    ClosureCapError,
    alternating_group,
    all_permutations,
    closure,
    gl_elements,
    gl_order,
    m10,
    pgammal2_9,
    pgl2,
    point_stabilizer,
    psl2,
    set_stabilizer,
    sylow_normalizer,
    symmetric_group,
)


class TestClosure:
    def test_sym4(self):
        g = symmetric_group(4)
        assert g.order == 24
        assert g.elements[0].is_identity()

    def test_generator_order_independence(self):
        a = parse_cycles("(1 2)", 4)
        b = parse_cycles("(1 2 3 4)", 4)
        assert closure([a, b]).elements == closure([b, a]).elements

    def test_sorted_deterministic(self):
        g = symmetric_group(4)
        assert list(g.elements) == sorted(g.elements)

    def test_membership(self):
        g = alternating_group(5)
        assert parse_cycles("(1 2 3)", 5) in g
        assert parse_cycles("(1 2)", 5) not in g

    def test_cap(self):
        with pytest.raises(ClosureCapError):
            symmetric_group(8, cap=1000)

    def test_alternating_orders(self):
        assert alternating_group(6).order == 360
        assert alternating_group(7).order == 2520
        assert all(g.is_even() for g in alternating_group(5))

    def test_all_permutations(self):
        perms = list(all_permutations(4))
        assert len(perms) == 24
        assert len(set(perms)) == 24


class TestProjectiveGroups:
    def test_pgl2_5(self):
        g = pgl2(5)
        assert g.order == 120  # q(q-1)(q+1)
        # Transitive on the 6 projective points.
        orbit = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for s in g.generators:
                    y = s.images[x]
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        assert orbit == set(range(6))

    def test_psl2_5(self):
        g = psl2(5)
        assert g.order == 60

    def test_psl2_2_is_sym3(self):
        g = psl2(2)
        assert g.order == 6 and g.degree == 3

    def test_psl2_9_and_extensions(self):
        s = psl2(9)
        assert s.order == 360
        full = pgammal2_9()
        assert full.order == 1440
        g720 = pgl2(9)
        assert g720.order == 720
        twisted = m10()
        assert twisted.order == 720
        assert s.is_subgroup_of(full)
        assert s.is_subgroup_of(g720)
        assert s.is_subgroup_of(twisted)
        # The three index-2 overgroups of PSL(2, 9) inside the full group are
        # pairwise different; the field-extension copy is the third one.
        from regcycle.gfalgebra import Matrix, SemilinearMap, field_ops, projective_action

        f = field_ops(9)
        frob = projective_action(SemilinearMap(Matrix.identity(f, 2), 1))
        sigma_copy = closure(list(s.generators) + [frob])
        assert sigma_copy.order == 720
        assert set(g720.elements) != set(twisted.elements)
        assert set(g720.elements) != set(sigma_copy.elements)
        assert set(twisted.elements) != set(sigma_copy.elements)

    def test_m10_has_no_transposition_like_elements(self):
        # The twisted group is sharply 3-transitive of degree 10 and contains
        # elements of order 8, unlike the field-extension copy.
        assert any(g.order() == 8 for g in m10())


class TestSubgroups:
    def test_point_stabilizer_degree10(self):
        full = pgammal2_9()
        stab = point_stabilizer(full, 1)
        assert stab.order == 144
        assert full.order // stab.order == 10

    def test_set_stabilizer_pair(self):
        full = pgammal2_9()
        stab = set_stabilizer(full, [1, 2])
        assert full.order // stab.order == 45

    def test_sylow_normalizer(self):
        g = pgl2(9)
        n = sylow_normalizer(g, 5)
        assert g.order // n.order == 36

    def test_sylow_normalizer_rejects_non_prime(self):
        with pytest.raises(ValueError, match="not a prime"):
            sylow_normalizer(symmetric_group(4), 4)


class TestGL:
    def test_gl_element_counts(self):
        assert len(gl_elements(2, 2)) == gl_order(2, 2) == 6
        assert len(gl_elements(2, 3)) == gl_order(2, 3) == 48
        assert len(gl_elements(3, 2)) == gl_order(3, 2) == 168
        assert len(gl_elements(2, 4)) == gl_order(2, 4) == 180


class TestAmbientAutomorphisms:
    def test_alt5_in_sym5(self):
        target = alternating_group(5)
        ambient = symmetric_group(5)
        amb = AmbientAutomorphisms.build(target, ambient)
        # The centralizer of Alt(5) in Sym(5) is trivial, so all 120 ambient
        # elements induce distinct automorphisms.
        assert amb.count == 120
        images = {tuple(amb.apply(r, t) for t in target.generators) for r in amb.coset_reps}
        assert len(images) == 120

    def test_alt6_autos_realized(self):
        target = psl2(9)
        ambient = pgammal2_9()
        amb = AmbientAutomorphisms.build(target, ambient)
        assert amb.count == 1440

    @pytest.mark.parametrize(
        "build",
        [
            lambda: (alternating_group(5), symmetric_group(5)),
            lambda: (psl2(9), pgammal2_9()),
        ],
        ids=["alt5_in_sym5", "psl2_9_in_pgammal2_9"],
    )
    def test_each_ambient_element_is_one_automorphism(self, build):
        target, ambient = build()
        amb = AmbientAutomorphisms.build(target, ambient)
        assert amb.coset_reps == ambient.elements
        assert amb.coset_reps[0].is_identity()

    def test_nontrivial_centralizer_rejected(self):
        # Alt(3) is abelian, so it centralizes itself inside Sym(3).
        with pytest.raises(ValueError, match="centralizer"):
            AmbientAutomorphisms.build(alternating_group(3), symmetric_group(3))

    def test_target_outside_ambient_rejected(self):
        # The transposition normalizes Alt(5) but does not contain it.
        ambient = closure([parse_cycles("(1 2)", 5)])
        with pytest.raises(ValueError, match="contain"):
            AmbientAutomorphisms.build(alternating_group(5), ambient)

    def test_non_normalizing_rejected(self):
        target = closure([parse_cycles("(1 2)", 4)])
        ambient = symmetric_group(4)
        # Sym(4) does not normalize the subgroup generated by one transposition.
        with pytest.raises(ValueError):
            AmbientAutomorphisms.build(target, ambient)

    def test_automorphisms_preserve_target(self):
        target = alternating_group(5)
        ambient = symmetric_group(5)
        amb = AmbientAutomorphisms.build(target, ambient)
        for rep in amb.coset_reps[:10]:
            for t in target.generators:
                assert amb.apply(rep, t) in target

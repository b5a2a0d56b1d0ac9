"""Cover counting oracles: Hurwitz enumeration, isogeny and pencil counts."""

from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations as orderings, product
from math import factorial

import pytest

from delliptic import covers
from delliptic.covers import (
    SUBGROUP_ENUMERATION_BUDGET,
    Partition,
    compose,
    conjugacy_class,
    conjugacy_class_size,
    count_dd22,
    count_dd2222,
    count_pointed_isogenies,
    count_pointed_isogenies_enumerated,
    count_sublattices,
    cycle_type,
    hurwitz_number,
    identity,
    inverse,
    is_transitive,
)
from delliptic.divisors import sigma


def naive_order_d_subgroups(d):
    """The order-d subgroups of (Z/d)^2 from every cyclic subgroup and every
    pair of them whose sum has order d."""
    cyclic: set[frozenset] = set()
    for gx in range(d):
        for gy in range(d):
            elements = set()
            x, y = 0, 0
            while True:
                elements.add((x, y))
                x, y = (x + gx) % d, (y + gy) % d
                if (x, y) == (0, 0):
                    break
            cyclic.add(frozenset(elements))
    found = {h for h in cyclic if len(h) == d}
    cyclic_list = sorted(cyclic, key=len)
    for i, a in enumerate(cyclic_list):
        for b in cyclic_list[i:]:
            if len(a) * len(b) != d * len(a & b):
                continue
            found.add(frozenset(
                ((x0 + x1) % d, (y0 + y1) % d) for x0, y0 in a for x1, y1 in b
            ))
    return sorted(found, key=sorted)


class TestPartition:
    def test_parse_and_sort(self):
        p = Partition.parse("1,3,1")
        assert p.parts == (3, 1, 1)
        assert p.size == 5
        assert str(p) == "3,1,1"

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Partition([])
        with pytest.raises(ValueError):
            Partition([3, 0])
        with pytest.raises(ValueError):
            Partition.parse("2,x")

    def test_equality_and_hash(self):
        assert Partition([2, 1]) == Partition.parse("1,2")
        assert len({Partition([2, 1]), Partition([1, 2])}) == 1


class TestPermutations:
    def test_composition_convention(self):
        # (s*t)(x) = s(t(x)): with t = (0 1) and s = (1 2) on {0,1,2},
        # s*t sends 0 -> t(0)=1 -> s(1)=2
        t = (1, 0, 2)
        s = (0, 2, 1)
        assert compose(s, t) == (2, 0, 1)

    def test_inverse(self):
        p = (2, 0, 3, 1)
        assert compose(p, inverse(p)) == identity(4)

    def test_cycle_type(self):
        assert cycle_type((1, 2, 0, 3)).parts == (3, 1)
        assert cycle_type(identity(4)).parts == (1, 1, 1, 1)

    def test_transitivity(self):
        assert is_transitive([(1, 2, 0)], 3)
        assert not is_transitive([(1, 0, 3, 2)], 4)

    def test_class_filter_matches_cycle_type(self):
        for d in range(1, 8):
            types = [cycle_type(p) for p in orderings(range(d))]
            for parts in _partitions(d):
                profile = Partition(parts)
                expected = tuple(
                    p for p, t in zip(orderings(range(d)), types) if t == profile
                )
                assert conjugacy_class(profile) == expected

    def test_class_size_matches_enumeration(self):
        for d in range(1, 7):
            for parts in _partitions(d):
                profile = Partition(parts)
                assert len(conjugacy_class(profile)) == conjugacy_class_size(profile)


def _partitions(d, largest=None):
    if largest is None:
        largest = d
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest), 0, -1):
        for rest in _partitions(d - first, first):
            yield (first,) + rest


class TestHurwitzNumber:
    def test_three_cycles_degree3(self):
        value = hurwitz_number(3, [Partition([3])] * 3)
        # brute force finds exactly 2 valid factorizations; weighted by 3!
        assert value == F(2, factorial(3)) == F(1, 3)

    def test_totally_ramified_with_triple_point(self):
        profile = [Partition([4]), Partition([4]), Partition([3, 1])]
        assert hurwitz_number(4, profile) == 1

    def test_two_part_profiles_distinct(self):
        profile = [Partition([2, 3]), Partition([2, 3]), Partition([3, 1, 1])]
        assert hurwitz_number(5, profile) == 1

    def test_two_part_profiles_equal_disconnect(self):
        profile = [Partition([2, 2]), Partition([2, 2]), Partition([3, 1])]
        assert hurwitz_number(4, profile) == 0

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_one_part_closed_form(self, d):
        profiles = [
            Partition([d]),
            Partition([d]),
            Partition([3] + [1] * (d - 3)),
        ]
        assert hurwitz_number(d, profiles) == F((d - 1) * (d - 2), 6)

    def test_brute_force_against_unoptimized_count(self):
        # full tuple enumeration without the class-size shortcut
        d = 4
        profiles = [Partition([2, 2]), Partition([4]), Partition([4])]
        raw = 0
        for s1 in conjugacy_class(profiles[0]):
            for s2 in conjugacy_class(profiles[1]):
                s3 = inverse(compose(s1, s2))
                if cycle_type(s3) == profiles[2] and is_transitive([s1, s2, s3], d):
                    raw += 1
        assert hurwitz_number(d, profiles) == F(raw, factorial(d))

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 3), (3, 3), (4, 3), (3, 4)])
    def test_every_profile_list_against_raw_count(self, d, k):
        # every ordered list of k profiles, counted as given: no pinned class
        # and no rearrangement, all factors but the last listed, the last forced
        classes: dict[Partition, list] = {}
        for p in orderings(range(d)):
            classes.setdefault(cycle_type(p), []).append(p)
        for profiles in product(classes, repeat=k):
            raw = 0
            for head in product(*(classes[p] for p in profiles[:-1])):
                running = identity(d)
                for s in head:
                    running = compose(running, s)
                last = inverse(running)
                if cycle_type(last) == profiles[-1] and is_transitive((*head, last), d):
                    raw += 1
            assert hurwitz_number(d, list(profiles)) == F(raw, factorial(d)), profiles

    def test_profile_order_invariance(self):
        for d in range(2, 6):
            parts = [Partition(p) for p in _partitions(d)]
            for multiset in combinations_with_replacement(parts, 3):
                values = {
                    hurwitz_number(d, list(order))
                    for order in set(orderings(multiset))
                }
                assert len(values) == 1, multiset

    def test_validation(self):
        with pytest.raises(ValueError):
            hurwitz_number(3, [Partition([2]), Partition([3]), Partition([3])])
        with pytest.raises(ValueError):
            hurwitz_number(9, [Partition([9])] * 3)
        with pytest.raises(ValueError):
            hurwitz_number(3, [Partition([3])])
        with pytest.raises(ValueError):
            hurwitz_number(0, [])

    def test_tuple_budget(self, monkeypatch):
        def refuse(profile):
            raise AssertionError("listed a class above the tuple budget")

        monkeypatch.setattr(covers, "conjugacy_class", refuse)
        # ten middle transposition classes: 28^10 tuples, far above 8!
        with pytest.raises(ValueError, match="budget"):
            hurwitz_number(8, [Partition([2, 1, 1, 1, 1, 1, 1])] * 12)

    def test_pinned_and_forced_classes_never_listed(self, monkeypatch):
        listed = covers.conjugacy_class

        def refuse_one_part(profile):
            if len(profile) == 1:
                raise AssertionError(f"listed the one-part class {profile}")
            return listed(profile)

        monkeypatch.setattr(covers, "conjugacy_class", refuse_one_part)
        cycle = Partition([8])
        transposition = Partition([2, 1, 1, 1, 1, 1, 1])
        assert hurwitz_number(8, [cycle, cycle, Partition([3, 1, 1, 1, 1, 1])]) == 7
        # d(d^2 - 1)/12 at d = 8; taken in the given order, the middle 8-cycle
        # and transposition would make 5040 * 28 tuples, above the budget
        assert hurwitz_number(8, [cycle, cycle, transposition, transposition]) == 42
        assert hurwitz_number(8, [transposition, cycle, cycle, transposition]) == 42

    def test_three_profiles_at_the_degree_budget(self):
        d = covers.ENUMERATION_BUDGET
        profiles = [Partition([d]), Partition([d]), Partition([3] + [1] * (d - 3))]
        assert hurwitz_number(d, profiles) == F((d - 1) * (d - 2), 6)


class TestCountingOracles:
    def test_sublattices_small(self):
        assert count_sublattices(1) == 1
        # (a, c, b): a=1 gives 1, a=2 gives 2, a=4 gives 4
        assert count_sublattices(4) == 7
        assert count_sublattices(6) == 12 == sigma(1, 6)

    def test_sublattices_closed_form(self):
        for d in range(1, 51):
            assert count_sublattices(d) == sigma(1, d)

    def test_pointed_isogenies_small(self):
        assert count_pointed_isogenies(1) == 0
        assert count_pointed_isogenies(2) == 3
        assert count_pointed_isogenies(4) == 21 == 3 * sigma(1, 4)

    def test_pointed_isogenies_closed_form(self):
        for d in range(1, 201):
            assert count_pointed_isogenies(d) == (d - 1) * sigma(1, d)

    def test_structural_route_equals_brute_force(self):
        for d in range(1, SUBGROUP_ENUMERATION_BUDGET + 1):
            assert count_pointed_isogenies(d) == count_pointed_isogenies_enumerated(d)

    def test_subgroups_match_pair_enumeration(self):
        for d in range(1, SUBGROUP_ENUMERATION_BUDGET + 1):
            assert set(covers._order_d_subgroups(d)) == set(naive_order_d_subgroups(d))

    def test_subgroups_are_order_d_subgroups(self):
        for d in range(1, SUBGROUP_ENUMERATION_BUDGET + 1):
            subgroups = covers._order_d_subgroups(d)
            assert len(set(subgroups)) == len(subgroups)
            for h in subgroups:
                assert len(h) == d
                assert (0, 0) in h
                assert all(((x0 + x1) % d, (y0 + y1) % d) in h
                           for x0, y0 in h for x1, y1 in h)

    def test_brute_force_budget(self, monkeypatch):
        def refuse(d):
            raise AssertionError("enumerated above the budget")

        monkeypatch.setattr(covers, "_order_d_subgroups", refuse)
        with pytest.raises(ValueError, match="budget"):
            count_pointed_isogenies_enumerated(SUBGROUP_ENUMERATION_BUDGET + 1)

    def test_pointed_isogenies_against_exhaustive_subgroups(self):
        # independent oracle: close every generating pair of the full group
        for d in range(1, 7):
            elements = [(x, y) for x in range(d) for y in range(d)]
            subgroups = set()
            for g in elements:
                for h in elements:
                    members = {(0, 0)}
                    frontier = [(0, 0)]
                    while frontier:
                        x, y = frontier.pop()
                        for gx, gy in (g, h):
                            nxt = ((x + gx) % d, (y + gy) % d)
                            if nxt not in members:
                                members.add(nxt)
                                frontier.append(nxt)
                    subgroups.add(frozenset(members))
            expected = sum(len(h) - 1 for h in subgroups if len(h) == d)
            assert count_pointed_isogenies(d) == expected
            assert count_pointed_isogenies_enumerated(d) == expected

    def test_dd22(self):
        assert count_dd22(1) == 0
        assert count_dd22(2) == 6
        assert count_dd22(3) == 2 * (9 - 1) == 16

    def test_dd2222(self):
        assert count_dd2222(1) == 0
        assert count_dd2222(2) == 48 * 15 == 720
        # degeneration identity spelled out at d = 3
        assert 12 * 16**2 + 8 * 6 * 16 == 3840 == 48 * (3**4 - 1)
        assert count_dd2222(3) == 3840

    def test_validation(self):
        for fn in (
            count_sublattices,
            count_pointed_isogenies,
            count_pointed_isogenies_enumerated,
            count_dd22,
            count_dd2222,
        ):
            with pytest.raises(ValueError):
                fn(0)

"""Brute-force counting oracles for branched covers and isogenies.

Hurwitz numbers are computed from first principles: a degree-d cover of a
genus-0 curve branched over k points with ramification profiles
lambda_1..lambda_k corresponds to a tuple of permutations (s_1..s_k) in S_d
with cycle_type(s_i) = lambda_i, s_1 * ... * s_k = identity, and the
generated subgroup transitive on the d sheets (connectedness). The Hurwitz
number is the number of such tuples divided by d!, which is the standard
automorphism weighting.

The count depends only on the cyclic order of the profiles up to reversal,
by two bijections that keep every cycle type, the product 1 and
transitivity: rotation, (s_1..s_k) -> (s_2..s_k, s_1), whose product is
s_1^-1 (s_1..s_k) s_1 = 1; and reversal, (s_1..s_k) -> (s_k^-1..s_1^-1),
which has the same cycle types and generates the same group. So
hurwitz_number enumerates the cheapest of the 2k rotations and reversals of
its profile list: the one whose enumerated factors (all but the first and
the last) have the smallest product of class sizes, ties going to the
larger first class, which is pinned to one representative; the last factor
is forced by the product condition. The pinned and the forced classes are
never listed.

Conventions fixed here (validated against the closed forms in the tests
before freezing):
  * composition is (s*t)(x) = s(t(x));
  * "connected" means exactly: the subgroup generated by the tuple acts
    transitively on {1..d}.

The isogeny counts come from lattices: degree-d isogenies onto a fixed
elliptic curve correspond to index-d sublattices of Z^2, each with a unique
Hermite normal form basis (a, 0), (b, c) with ac = d and 0 <= b < a, and the
order-d subgroups of the d-torsion (Z/d)^2 are their images mod d. There are
a such forms for each divisor a of d, so count_sublattices is sigma_1(d),
and each subgroup has d - 1 nonzero elements, so count_pointed_isogenies is
(d - 1) * sigma_1(d). The brute-force enumeration of all order-d subgroups
is kept as an independent reference, count_pointed_isogenies_enumerated,
within SUBGROUP_ENUMERATION_BUDGET. It reads no divisor sum and no Hermite
normal form: it builds every cyclic subgroup of (Z/d)^2 once, and by the
invariant-factor theorem each non-cyclic order-d subgroup is Z/m + Z/n with
n | m, n > 1 and mn = d, the direct sum of a cyclic subgroup of order m and
one of order n that meet only in 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, gcd, isqrt, prod
from typing import Iterable, Sequence

from .divisors import divisors, require_positive

__all__ = [
    "Partition",
    "ENUMERATION_BUDGET",
    "ISOGENY_DEGREE_CEILING",
    "SUBGROUP_ENUMERATION_BUDGET",
    "cycle_type",
    "compose",
    "inverse",
    "identity",
    "is_transitive",
    "conjugacy_class",
    "conjugacy_class_size",
    "hurwitz_number",
    "count_sublattices",
    "count_pointed_isogenies",
    "count_pointed_isogenies_enumerated",
    "count_dd22",
    "count_dd2222",
]

#: largest cover degree hurwitz_number will enumerate (8! permutations per
#: class); it also enumerates at most 8! tuples, counted in the arrangement
#: it chooses (all factors but the pinned first and the forced last)
ENUMERATION_BUDGET = 8

#: largest d count_sublattices and count_pointed_isogenies accept; their
#: work is one divisor sum (trial division up to sqrt(d)), instant at the
#: ceiling
ISOGENY_DEGREE_CEILING = 1000

#: largest d whose order-d subgroups of (Z/d)^2 are enumerated by brute force
#: (each cyclic subgroup once, plus the direct sums Z/m + Z/n with n | m of
#: the non-cyclic ones), the range verify checks
SUBGROUP_ENUMERATION_BUDGET = 30


class Partition:
    """Ramification profile: a non-increasing tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        normalized = tuple(sorted((int(p) for p in parts), reverse=True))
        if not normalized:
            raise ValueError("a partition needs at least one part")
        if normalized[-1] <= 0:
            raise ValueError(f"parts must be positive, got {normalized}")
        object.__setattr__(self, "parts", normalized)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @classmethod
    def parse(cls, text: str) -> Partition:
        """Parse a comma-separated part list such as "3,1,1"."""
        try:
            return cls(int(p) for p in text.split(","))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"cannot parse partition from {text!r}") from exc

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts})"


# -- permutations as tuples of 0-based images --------------------------------


def identity(d: int) -> tuple[int, ...]:
    return tuple(range(d))


def compose(s: Sequence[int], t: Sequence[int]) -> tuple[int, ...]:
    """(s*t)(x) = s(t(x))."""
    return tuple(s[t[x]] for x in range(len(s)))


def inverse(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def cycle_type(p: Sequence[int]) -> Partition:
    return Partition(_cycle_lengths(p))


def _cycle_lengths(p: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of p, non-increasing: the parts of cycle_type(p)."""
    d = len(p)
    seen = [False] * d
    lengths = []
    for start in range(d):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def is_transitive(perms: Sequence[Sequence[int]], d: int) -> bool:
    """Does the subgroup generated by `perms` act transitively on {0..d-1}?"""
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return len(reached) == d


@lru_cache(maxsize=None)
def conjugacy_class(profile: Partition) -> tuple[tuple[int, ...], ...]:
    """All permutations of S_d with the given cycle type, in lexicographic
    order.

    The cycles are placed directly: the smallest unplaced point starts a
    cycle of each distinct remaining length, followed by each ordering of
    that many other unplaced points, so each member is built exactly once.
    """
    images = [0] * profile.size
    members = []

    def place(free: tuple[int, ...], lengths: tuple[int, ...]) -> None:
        if not free:
            members.append(tuple(images))
            return
        start, rest = free[0], free[1:]
        for i, length in enumerate(lengths):
            if i and lengths[i - 1] == length:
                continue
            for others in permutations(rest, length - 1):
                cycle = (start, *others)
                for x, y in zip(cycle, cycle[1:] + (start,)):
                    images[x] = y
                place(tuple(x for x in rest if x not in others), lengths[:i] + lengths[i + 1:])

    place(tuple(range(profile.size)), profile.parts)
    return tuple(sorted(members))


def conjugacy_class_size(profile: Partition) -> int:
    """|class| = d! / (prod parts * prod multiplicity!)."""
    denom = 1
    for part in profile.parts:
        denom *= part
    for part in set(profile.parts):
        denom *= factorial(profile.parts.count(part))
    return factorial(profile.size) // denom


def _class_representative(profile: Partition) -> tuple[int, ...]:
    images = []
    start = 0
    for part in profile.parts:
        images.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(images)


def _cheapest_arrangement(profiles: Sequence[Partition]) -> list[Partition]:
    """The rotation or reversal of `profiles` that hurwitz_number enumerates."""
    forward = list(profiles)
    arrangements = [
        order[i:] + order[:i]
        for order in (forward, forward[::-1])
        for i in range(len(order))
    ]
    return min(
        arrangements,
        key=lambda order: (
            prod(conjugacy_class_size(p) for p in order[1:-1]),
            -conjugacy_class_size(order[0]),
        ),
    )


def hurwitz_number(d: int, profiles: Sequence[Partition]) -> Fraction:
    """Count of transitive identity-product tuples with given cycle types, over d!.

    Rotating the profile list, or reversing it (each s_i replaced by its
    inverse), maps the counted tuples one to one onto those of the new list,
    so the count is taken in the cheapest of these 2k arrangements: the one
    whose enumerated factors, all but the first and the last, have the
    smallest product of class sizes, ties going to the larger first class.
    There the first factor is pinned to one representative of its conjugacy
    class and the total scaled by the class size; the factors between are
    enumerated exhaustively and the last is forced by the product condition,
    so neither the first class nor the last is listed. More than
    ENUMERATION_BUDGET! enumerated tuples in that arrangement is refused
    before any class is listed.
    """
    require_positive(d)
    if d > ENUMERATION_BUDGET:
        raise ValueError(
            f"degree {d} exceeds the enumeration budget {ENUMERATION_BUDGET}"
        )
    if len(profiles) < 2:
        raise ValueError("need at least two ramification profiles")
    for i, profile in enumerate(profiles):
        if profile.size != d:
            raise ValueError(
                f"profile {i} has size {profile.size}, expected degree {d}"
            )
    order = _cheapest_arrangement(profiles)
    tuples = prod(conjugacy_class_size(p) for p in order[1:-1])
    if tuples > factorial(ENUMERATION_BUDGET):
        raise ValueError(
            f"{tuples} enumerated tuples, in the cheapest rotation or reversal "
            f"of the profiles, exceed the enumeration budget "
            f"{ENUMERATION_BUDGET}! = {factorial(ENUMERATION_BUDGET)}"
        )
    first = _class_representative(order[0])
    last_type = order[-1].parts
    count = 0
    middle_classes = [conjugacy_class(p) for p in order[1:-1]]
    for middle in product(*middle_classes):
        running = first
        for p in middle:
            running = compose(running, p)
        closer = inverse(running)
        if _cycle_lengths(closer) != last_type:
            continue
        if is_transitive((first, *middle, closer), d):
            count += 1
    total = conjugacy_class_size(order[0]) * count
    return Fraction(total, factorial(d))


def count_sublattices(d: int) -> int:
    """Index-d sublattices of Z^2, counted by Hermite normal form.

    A sublattice has a unique basis (a, 0), (b, c) with a, c > 0, ac = d and
    0 <= b < a: a forms for each divisor a of d, sigma_1(d) in all, for
    d <= ISOGENY_DEGREE_CEILING.
    """
    _check_isogeny_degree(d, ISOGENY_DEGREE_CEILING, "structural isogeny ceiling")
    return sum(divisors(d))


def _order_d_subgroups(d: int) -> list[frozenset]:
    """All subgroups of (Z/d)^2 of order d, as frozen element sets.

    Each cyclic subgroup is built once, from the first of its generators met:
    once <g> of order m is walked, its generators k*g with gcd(k, m) = 1 are
    skipped. By the invariant-factor theorem a non-cyclic subgroup of
    (Z/d)^2 is Z/m + Z/n with n | m and n > 1, the direct sum A + B of
    cyclic subgroups with |A| = m, |B| = n and A & B = {0}; so the non-cyclic
    order-d subgroups are the sums of such pairs with mn = d, that is with
    n^2 | d.
    """
    cyclic: dict[int, list[frozenset]] = {}
    seen: set[tuple[int, int]] = set()
    for g in product(range(d), repeat=2):
        if g in seen:
            continue
        gx, gy = g
        multiples = [(0, 0)]
        x, y = gx, gy
        while (x, y) != (0, 0):
            multiples.append((x, y))
            x, y = (x + gx) % d, (y + gy) % d
        m = len(multiples)
        seen.update(multiples[k] for k in range(1, m) if gcd(k, m) == 1)
        cyclic.setdefault(m, []).append(frozenset(multiples))
    found = set(cyclic[d])
    for n in range(2, isqrt(d) + 1):
        if d % (n * n):
            continue
        for a in cyclic[d // n]:
            for b in cyclic[n]:
                if len(a & b) == 1:
                    found.add(frozenset(
                        ((x0 + x1) % d, (y0 + y1) % d) for x0, y0 in a for x1, y1 in b
                    ))
    return sorted(found, key=sorted)


def _check_isogeny_degree(d: int, limit: int, name: str) -> None:
    require_positive(d)
    if d > limit:
        raise ValueError(f"d = {d} exceeds the {name} {limit}")


def count_pointed_isogenies(d: int) -> int:
    """Pairs (order-d subgroup G of (Z/d)^2, nonzero element of G).

    The order-d subgroups are the images mod d of the index-d sublattices of
    Z^2, one per Hermite normal form, and each has d - 1 nonzero elements:
    (d - 1) * count_sublattices(d), for d <= ISOGENY_DEGREE_CEILING.
    """
    _check_isogeny_degree(d, ISOGENY_DEGREE_CEILING, "structural isogeny ceiling")
    return (d - 1) * count_sublattices(d)


def count_pointed_isogenies_enumerated(d: int) -> int:
    """count_pointed_isogenies by enumerating every order-d subgroup of
    (Z/d)^2; the reference route, for d <= SUBGROUP_ENUMERATION_BUDGET."""
    _check_isogeny_degree(d, SUBGROUP_ENUMERATION_BUDGET, "subgroup enumeration budget")
    return sum(len(g) - 1 for g in _order_d_subgroups(d))


def count_dd22(d: int) -> int:
    """Degree-d genus-1 covers of P^1 totally ramified at two marked points
    and simply ramified at two more: 2(d^2 - 1), twice the number of nonzero
    d-torsion points (the second total ramification point), for the two ways
    of labelling the simple ramification points.

    `verify` relates it to count_dd2222 through the degeneration identity.
    """
    require_positive(d)
    return 2 * (d * d - 1)


def count_dd2222(d: int) -> int:
    """Degree-d genus-2 covers of P^1 totally ramified at two points and
    simply ramified at four: 48(d^4 - 1).

    `verify` checks it against count_dd22 through the degeneration identity
    12 * (2(d^2-1))^2 + 8 * 6 * 2(d^2-1) = 48(d^4-1).
    """
    require_positive(d)
    return 48 * (d**4 - 1)

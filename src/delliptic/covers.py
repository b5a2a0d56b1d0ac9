"""Brute-force counting oracles for branched covers and isogenies.

Hurwitz numbers are computed from first principles: a degree-d cover of a
genus-0 curve branched over k points with ramification profiles
lambda_1..lambda_k corresponds to a tuple of permutations (s_1..s_k) in S_d
with cycle_type(s_i) = lambda_i, s_1 * ... * s_k = identity, and the
generated subgroup transitive on the d sheets (connectedness). The Hurwitz
number is the number of such tuples divided by d!, which is the standard
automorphism weighting.

The count does not depend on the order of the profiles: the Hurwitz move
(s_i, s_{i+1}) -> (s_i s_{i+1} s_i^-1, s_i) swaps the cycle types of two
neighbours, keeps the product (s_i s_{i+1}) and the generated group, and is
invertible, so it maps the tuples counted for one order one to one onto
those for the order with the two profiles swapped; adjacent swaps reach
every order. So hurwitz_number sorts its profiles by class size: the
largest class is pinned to one representative, the second largest is
forced by the product condition, and only the others are enumerated. The
pinned and the forced classes are never listed, nor is the forced factor
built: it is the inverse of the others' product, so it has that product's
cycle type and lies in the group the others generate.

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
(d - 1) * sigma_1(d). Both accept d up to divisors.TABLE_ORDER_CEILING, the
order of the largest table that reads them. The brute-force enumeration of
all order-d subgroups is kept as an independent reference,
count_pointed_isogenies_enumerated, within SUBGROUP_ENUMERATION_BUDGET. It
reads no divisor sum and no Hermite normal form: it codes each element
(x, y) of (Z/d)^2 as the int x*d + y, walks every cyclic subgroup once,
skipping the generators already met with a bytearray of marks, and by the
invariant-factor theorem each non-cyclic order-d subgroup is Z/m + Z/n with
n | m, n > 1 and mn = d, the direct sum of a cyclic subgroup of order m and
one of order n that meet only in 0; only the cyclic subgroups whose order
a needed order (d, m or n) divides are walked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, gcd, isqrt, prod
from operator import add, index, itemgetter
from typing import Iterable, Mapping, Sequence

from .divisors import divisors, require_positive, require_within_ceiling, rows

__all__ = [
    "Partition",
    "ENUMERATION_BUDGET",
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
    "CLOSED_FORMS",
    "count_dd3",
    "count_dd22",
    "count_dd2222",
]

#: largest cover degree hurwitz_number will enumerate (8! permutations per
#: class); it also enumerates at most 8! tuples, counted with the two
#: largest classes pinned and forced
ENUMERATION_BUDGET = 8

#: count -> its closed form, a read-only sigma polynomial row {(j, k): c}
#: (divisors.rows), which verify's pointed-isogeny-count check reads as its
#: closed-form route
CLOSED_FORMS: Mapping[str, Mapping[tuple[int, int], int]] = rows({
    "count_pointed_isogenies": {(1, 1): 1, (0, 1): -1},  # (d - 1) sigma_1(d)
})

#: largest d whose order-d subgroups of (Z/d)^2 are enumerated by brute force
#: (each cyclic subgroup once, plus the direct sums Z/m + Z/n with n | m of
#: the non-cyclic ones), the range verify checks
SUBGROUP_ENUMERATION_BUDGET = 30


class Partition:
    """Ramification profile: a non-increasing tuple of positive parts. Each
    part must be an integer (operator.index), so a float raises TypeError."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        normalized = tuple(sorted(map(index, parts), reverse=True))
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
    """The order of `profiles` that hurwitz_number enumerates: the largest
    class first (pinned), the second largest last (forced), the others
    between, so the enumerated classes have the smallest product of sizes."""
    largest, forced, *between = sorted(profiles, key=conjugacy_class_size, reverse=True)
    return [largest, *between, forced]


def hurwitz_number(d: int, profiles: Sequence[Partition]) -> Fraction:
    """Count of transitive identity-product tuples with given cycle types, over d!.

    Hurwitz moves map the counted tuples of one order of the profiles one to
    one onto those of any other, so the count is taken in the cheapest order:
    the largest class first, pinned to one representative of its conjugacy
    class with the total scaled by the class size; the second largest last,
    forced by the product condition; the others between, enumerated
    exhaustively. Neither the pinned class nor the forced one is listed, nor
    is the forced factor built: it is the inverse of the others' product P,
    so the class test reads P's cycle type, and it lies in the group the
    others generate, so transitivity is tested on them alone. More than
    ENUMERATION_BUDGET! enumerated tuples in that order is refused before
    any class is listed.
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
            f"{tuples} enumerated tuples, with the two largest classes pinned "
            f"and forced, exceed the enumeration budget "
            f"{ENUMERATION_BUDGET}! = {factorial(ENUMERATION_BUDGET)}"
        )
    if d == 1:
        # one tuple of identities; itemgetter(0) would return an entry
        return Fraction(1)
    first = _class_representative(order[0])
    last_type = order[-1].parts
    count = 0
    middle_classes = [conjugacy_class(p) for p in order[1:-1]]
    for middle in product(*middle_classes):
        running = first
        for p in middle:
            running = itemgetter(*p)(running)  # compose(running, p)
        if _cycle_lengths(running) != last_type:
            continue
        if is_transitive((first, *middle), d):
            count += 1
    total = conjugacy_class_size(order[0]) * count
    return Fraction(total, factorial(d))


def count_sublattices(d: int) -> int:
    """Index-d sublattices of Z^2, counted by Hermite normal form.

    A sublattice has a unique basis (a, 0), (b, c) with a, c > 0, ac = d and
    0 <= b < a: a forms for each divisor a of d, sigma_1(d) in all, for
    d <= TABLE_ORDER_CEILING (d < 1 fails in divisors).
    """
    require_within_ceiling(d)
    return sum(divisors(d))


def _order_d_subgroups(d: int) -> list[frozenset[int]]:
    """All subgroups of (Z/d)^2 of order d, as frozen sets of element codes,
    in no particular order; the element (x, y) has the code x*d + y.

    Each cyclic subgroup is built once, from the first of its generators met:
    once <g> of order m is walked, its generators k*g with gcd(k, m) = 1 are
    marked in a bytearray, and bytearray.find jumps to the next unmarked
    code, so the walk runs once per cyclic subgroup. The multiples k*g,
    k < m, are read at once: k*gx mod d is residues[k*gx], so the codes'
    two parts are one slice of step gx and one of step gy. By the invariant-factor theorem a non-cyclic
    subgroup of (Z/d)^2 is Z/m + Z/n with n | m and n > 1, the direct sum
    A + B of cyclic subgroups with |A| = m, |B| = n and A & B = {0}; so the
    non-cyclic order-d subgroups are the sums of such pairs with mn = d,
    that is with n^2 | d. A B inside a sum already built with the same A
    gives that sum again (A + B lies in it, as large), so it is skipped.

    Only the cyclic subgroups of the needed orders d, m and n are used: for
    each e | d that no needed order divides, the grid of step d/e (the
    elements of order dividing e) is marked before the walk. An element of
    an unneeded order that a needed order divides is still walked (order 4
    at d = 24, whose needed orders are 24, 12 and 2).
    """
    residues = list(range(d)) * d  # residues[i] = i mod d for i < d^2
    x_codes = list(range(0, d * d, d)) * d  # x_codes[i] = (i mod d) * d
    marks = bytearray(d * d)
    pairs = [(n, d // n) for n in range(2, isqrt(d) + 1) if d % (n * n) == 0]
    needed = {d, *(order for pair in pairs for order in pair)}
    for e in divisors(d):
        if all(e % f for f in needed):
            step = d // e  # the elements of order dividing e: x, y in step * Z
            for row in range(0, d * d, step * d):
                marks[row : row + d : step] = b"\x01" * e
    units: dict[int, list[int]] = {}
    cyclic: dict[int, list[tuple[frozenset[int], int, int]]] = {}
    g = marks.find(0)
    while g >= 0:
        gx, gy = divmod(g, d)
        m = d // gcd(gx, gy, d)
        multiples = list(map(add, x_codes[: m * gx : gx] if gx else [0] * m,
                             residues[: m * gy : gy] if gy else [0] * m))
        if m not in units:
            units[m] = [k for k in range(m) if gcd(k, m) == 1]
        for k in units[m]:
            marks[multiples[k]] = 1
        cyclic.setdefault(m, []).append((frozenset(multiples), gx, gy))
        g = marks.find(0, g + 1)
    found = {h for h, _, _ in cyclic[d]}
    for n, m in pairs:
        for a, ax, ay in cyclic[m]:
            sums: list[frozenset[int]] = []
            for b, bx, by in cyclic[n]:
                if len(a & b) == 1 and not any(b <= h for h in sums):
                    sums.append(frozenset(
                        (i * ax + j * bx) % d * d + (i * ay + j * by) % d
                        for i in range(m) for j in range(n)
                    ))
            found.update(sums)
    return list(found)


def count_pointed_isogenies(d: int) -> int:
    """Pairs (order-d subgroup G of (Z/d)^2, nonzero element of G).

    The order-d subgroups are the images mod d of the index-d sublattices of
    Z^2, one per Hermite normal form, and each has d - 1 nonzero elements:
    (d - 1) * count_sublattices(d), for d <= TABLE_ORDER_CEILING.
    """
    require_within_ceiling(d)
    return (d - 1) * count_sublattices(d)


def count_pointed_isogenies_enumerated(d: int) -> int:
    """count_pointed_isogenies by enumerating every order-d subgroup of
    (Z/d)^2; the reference route, for d <= SUBGROUP_ENUMERATION_BUDGET."""
    require_positive(d)
    if d > SUBGROUP_ENUMERATION_BUDGET:
        raise ValueError(f"d = {d} exceeds the subgroup enumeration budget "
                         f"{SUBGROUP_ENUMERATION_BUDGET}")
    return sum(len(g) - 1 for g in _order_d_subgroups(d))


def count_dd3(d: int) -> Fraction:
    """Degree-d genus-1 covers of P^1 with profiles (d), (d) and
    (3, 1^{d-3}), totally ramified at two points and with one triple point:
    the one-part Hurwitz number (d-1)(d-2)/6, 0 at d = 1 and 2.

    `verify` checks it against hurwitz_number for d = 3..7; the triple-branch
    chain sum reads it at every winding.
    """
    require_positive(d)
    return Fraction((d - 1) * (d - 2), 6)


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

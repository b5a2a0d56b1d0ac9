"""Shared exception types and the one cross-check every route comparison uses."""

from __future__ import annotations


class CrossCheckError(Exception):
    """Two independent computations of the same quantity disagree.

    Raised by every dual-route assembly and closed-form comparison; a cross
    check failure means transcribed data or a formula is wrong, never that an
    input was invalid.
    """


def crosscheck(name: str, d: int, /, **routes):
    """The value every route computed for `name` at `d` (the first route's).

    Values are compared with ==. On disagreement raises CrossCheckError
    naming the outvoted routes, those whose value fewer routes share than the
    best-supported value; when every value has equal support (two routes that
    differ, or three that all differ) it names every route.
    """
    if len(routes) < 2:
        raise ValueError(f"{name}: a cross-check needs two routes, got {len(routes)}")
    values = list(routes.values())
    if values.count(values[0]) == len(values):
        return values[0]
    counts = [values.count(value) for value in values]
    odd = [route for route, n in zip(routes, counts) if n < max(counts)] or list(routes)
    verb = "disagrees" if len(odd) == 1 else "disagree"
    raise CrossCheckError(
        f"{name}(d={d}): {', '.join(odd)} {verb} "
        f"({', '.join(f'{route} {value}' for route, value in routes.items())})"
    )


def crosscheck_series(name: str, /, **routes):
    """The series every route built for `name` (the first route's), the q^d
    coefficient of each being its value at d: a QSeries, or a chow.ClassSeries
    whose coefficient is a whole class. Unless all are equal, crosscheck runs
    at the first d where they differ, raising what a sweep over d would;
    routes that agree up to the shortest order but end at different orders
    raise CrossCheckError naming each route's order.
    """
    series = list(routes.values())
    if len(series) > 1 and series.count(series[0]) == len(series):
        return series[0]
    shortest = min((s.order for s in series), default=0)
    d = next((d for d in range(shortest + 1) if len({s.coefficient(d) for s in series}) > 1), 0)
    if len(series) > 1 and len({s.coefficient(d) for s in series}) == 1:
        orders = ", ".join(f"{route} order {s.order}" for route, s in routes.items())
        raise CrossCheckError(f"{name}: routes agree to q^{shortest} but end at "
                              f"different orders ({orders})")
    return crosscheck(name, d, **{route: s.coefficient(d) for route, s in routes.items()})

"""The scalar-sweep workload: library calls on the Fraction path.

Imported only inside a worker process, after speclab.  Each request is
a (key, call, check) triple: ``call()`` is the timed library work and
``check(result)`` returns ``(error or None, digest)`` outside the timed
region.  The digest is compared with the same request in other passes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from clireq import digest
from speclab.polynomial import (
    SpherePoly,
    harmonic_decompose,
    integrate,
    normal_monomials,
)
from speclab.scalar_ops import (
    build_eigenspace,
    laplacian,
    laplacian_via_conformal_fields,
    verify_scalar_identities,
)

# Eight requests: the identity suite for each n, then the two-route sweep,
# the eigenspaces and the random polynomials as one request each.  The
# median falls between the three requests of about 0.3 s (two-route
# sweep, eigenspaces, identity suite for n = 2), whose cost does not
# depend on the seed and which are long enough to average over short
# stalls of the host.
NS = (2, 3, 4, 5)
EIGEN_LEVELS = 5
# The random polynomials (POLYS_PER_N for each n = 2, 3, 4) are decomposed
# in one request and integrated in another, and all share one shape of
# term degrees, so the seed picks only exponents and coefficients and
# both requests stay well below the median.
POLYS_PER_N = 6
TERM_DEGREES = (0, 1, 2, 3, 4, 5, 6, 6, 5, 4)


def _moment(exps, n: int) -> Fraction:
    """Normalized-measure integral of x^exps over S^n, from the closed form
    prod (a_i - 1)!! / prod_{s < |a|/2} (n + 1 + 2s)."""
    if any(a % 2 for a in exps):
        return Fraction(0)
    num, den = 1, 1
    for a in exps:
        for odd in range(1, a, 2):
            num *= odd
    for s in range(sum(exps) // 2):
        den *= n + 1 + 2 * s
    return Fraction(num, den)


def _random_terms(rng: random.Random, n: int) -> dict:
    terms = {}
    for degree in TERM_DEGREES:
        exps = None
        while exps is None or exps in terms:
            exps = [0] * (n + 1)
            for _ in range(degree):
                exps[rng.randrange(n + 1)] += 1
            exps = tuple(exps)
        num = rng.choice([k for k in range(-9, 10) if k])
        terms[exps] = Fraction(num, rng.randint(1, 6))
    return terms


def _vsi(n):
    def check(rep):
        return (None if rep.all_passed else "identity failed"), digest(rep.to_json())

    return (f"verify_scalar_identities({n},6)", lambda: verify_scalar_identities(n, 6), check)


def _two_routes():
    """The criterion-02 sweep: both Laplacian routes on every monomial."""

    def call():
        bad = 0
        for n in NS:
            for e in normal_monomials(n, 6):
                p = SpherePoly(n, {e: Fraction(1)}, reduced=True)
                bad += not (laplacian(p) - laplacian_via_conformal_fields(p)).is_zero
        return bad

    def check(bad):
        return (f"{bad} monomials differ" if bad else None), str(bad)

    return ("laplacian_two_routes(n=2..5, degree<=6)", call, check)


def _eigenspaces():
    def call():
        return [[build_eigenspace(n, j) for j in range(EIGEN_LEVELS)] for n in NS]

    def check(levels):
        for n, pairs in zip(NS, levels):
            for j, pair in enumerate(pairs):
                want = comb(n + j, n) - (comb(n + j - 2, n) if j >= 2 else 0)
                if len(pair.funcs) != want:
                    return f"n={n} level {j}: dimension {len(pair.funcs)} != {want}", ""
        funcs = (f.canonical_str() for pairs in levels for pair in pairs for f in pair.funcs)
        return None, digest("|".join(funcs))

    return (f"build_eigenspace(n=2..5, j<={EIGEN_LEVELS - 1})", call, check)


def _harmonic_batch(polys):
    def call():
        return [harmonic_decompose(p) for p, _ in polys]

    def check(parts):
        for (p, terms), hd in zip(polys, parts):
            if hd.reassemble() != p:
                return "parts do not reassemble", ""
            const = hd.restricted(0).terms.get((0,) * (p.n + 1), Fraction(0))
            if const != _integral_of(terms, p.n):
                return f"mean {const} is not the integral", ""
        return None, digest(repr([hd.parts for hd in parts]))

    return (f"harmonic_decompose({len(polys)} random polynomials)", call, check)


def _integrate_batch(polys):
    def check(values):
        want = [_integral_of(terms, p.n) for p, terms in polys]
        return (None if values == want else "integral differs from the closed form"), str(values)

    return (
        f"integrate({len(polys)} random polynomials)",
        lambda: [integrate(p) for p, _ in polys],
        check,
    )


def _integral_of(terms: dict, n: int) -> Fraction:
    return sum((c * _moment(e, n) for e, c in terms.items()), Fraction(0))


def requests(seed: int) -> list:
    """The fixed request list of one pass; the random polynomials come
    from the seed."""
    rng = random.Random(seed)
    reqs = [_vsi(n) for n in NS]
    reqs += [_two_routes(), _eigenspaces()]
    polys = []
    for n in NS[:3]:
        for _ in range(POLYS_PER_N):
            terms = _random_terms(rng, n)
            polys.append((SpherePoly(n, dict(terms)), terms))
    return reqs + [_harmonic_batch(polys), _integrate_batch(polys)]

"""CLI requests of the benchmark and the checks on their answers.

Pure Python: the harness parent imports this module, and it must never
import speclab.  Every check here is independent of speclab's own code;
it recomputes the answer from a closed form or re-checks a certificate.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

VERIFY_COLD_ARGV = ["--jobs", "1", "verify", "all", "--n", "2", "--cap", "4", "--N", "2"]

# The cache-warm repeats of the session: the same suites as verify-cold,
# small enough that a warm run is well under a second.
SESSION_VERIFY = [
    ["verify", "spinor", "--n", "2", "--N", "1"],
    ["verify", "scalar", "--n", "3", "--cap", "4"],
]


def digest(data) -> str:
    """Short fingerprint of an answer, to compare repeats of a request."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def scalar_eigenvalue(n: int, j: int) -> Fraction:
    """Conformal Laplacian eigenvalue (j + (n-2)/2)(j + n/2)."""
    return (j + Fraction(n - 2, 2)) * (j + Fraction(n, 2))


def _on_scalar_spectrum(n: int, lam: Fraction) -> bool:
    j = 0
    while scalar_eigenvalue(n, j) <= lam:
        if scalar_eigenvalue(n, j) == lam:
            return True
        j += 1
    return False


def _order(rng: random.Random, kind: str):
    """An intertwinor order: integer, non-integer p/q, or float (mpmath path)."""
    if kind == "int":
        return str(rng.randint(1, 3))
    if kind == "rat":
        q = rng.choice((3, 5, 7))
        p = rng.randint(1, 3 * q - 1)
        if p % q == 0:
            p += 1
        return f"{p}/{q}"
    # never a multiple of 1/2, where the normalized family divides by zero
    frac = rng.choice((rng.uniform(0.05, 0.45), rng.uniform(0.55, 0.95)))
    return f"{rng.randint(0, 2) + frac:.3f}"


def _spinor_k(rng: random.Random, kind: str):
    """A Dirac family parameter with k + n/2 never an integer or half-integer."""
    if kind == "float":
        return f"{rng.choice((0.1, 0.2, 0.3, 0.4)) + rng.randint(0, 2):.1f}"
    q = rng.choice((3, 5))
    p = rng.randint(1, 3 * q - 1)
    while p % q == 0:
        p += 1
    return f"{p}/{q}"


def _intertwinor(rng: random.Random, family: str, kind: str) -> list:
    n = rng.randint(2, 5)
    jmax = str(rng.randint(6, 10))
    head = ["intertwinor", family, "--n", str(n)]
    if family in ("scalar", "scalar-normalized"):
        return head + ["--r", _order(rng, kind), "--jmax", jmax]
    if family == "product":
        return head + ["--r", str(rng.randint(1, 3)), "--jmax", jmax]
    if family == "residue":
        return head + ["--j0", str(rng.randint(0, 3)), "--jmax", jmax]
    if family in ("entropy-derivative", "first-order"):
        return head + ["--jmax", jmax]
    lam_max = str(n // 2 + rng.randint(3, 6))
    if family == "dirac":
        return head + ["--k", _spinor_k(rng, kind), "--lambda-max", lam_max]
    if family == "dirac-odd":
        return head + ["--k", str(rng.randint(1, 4)), "--lambda-max", lam_max]
    # adjacent: a point of the Dirac lattice, +-(n/2 + j)
    lam = Fraction(n, 2) + rng.randint(0, 5)
    return head + [f"--lambda={lam * rng.choice((1, -1))}"]


def _refute(rng: random.Random) -> list:
    n = rng.randint(2, 5)
    bound = Fraction(n * (n - 2), 4)
    while True:
        q = rng.choice((3, 5, 7, 11))
        lam = bound + Fraction(rng.randint(1, 40 * q), q)
        if not _on_scalar_spectrum(n, lam):
            return ["refute", "--n", str(n), "--lambda", str(lam)]


def session_requests(seed: int) -> list:
    """One pass of the session stream: a fixed mix of request kinds whose
    parameters and order come from the seed."""
    rng = random.Random(seed)
    reqs = []
    for _ in range(16):
        n = rng.randint(2, 6)
        reqs.append(["spectrum", "scalar", "--n", str(n), "--count", str(rng.randint(4, 12))])
    for _ in range(16):
        n = rng.randint(2, 6)
        reqs.append(["spectrum", "dirac", "--n", str(n), "--count", str(rng.randint(3, 10))])
    families = [
        ("scalar", "int"),
        ("scalar", "rat"),
        ("scalar", "float"),
        ("scalar-normalized", "rat"),
        ("scalar-normalized", "float"),
        ("product", None),
        ("residue", None),
        ("entropy-derivative", None),
        ("first-order", None),
        ("dirac", "rat"),
        ("dirac", "float"),
        ("dirac-odd", None),
        ("adjacent", None),
    ]
    for i in range(39):
        family, kind = families[i % len(families)]
        reqs.append(_intertwinor(rng, family, kind))
    for _ in range(20):
        reqs.append(_refute(rng))
    for _ in range(5):
        reqs.append(["entropy", "--quick"])
    for argv in SESSION_VERIFY:
        reqs += [list(argv), list(argv)]
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------


def _arg(argv: list, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d), d > 0."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # opposite signs: compare a^2 with b^2 d
    lhs, rhs = a * a, b * b * d
    return sa if lhs > rhs else (sb if lhs < rhs else 0)


def _quad(value):
    if isinstance(value, dict):
        return Fraction(value["a"]), Fraction(value["b"]), int(value["d"])
    return Fraction(value), Fraction(0), 1


def _less(x, y) -> bool:
    (a1, b1, d1), (a2, b2, d2) = _quad(x), _quad(y)
    d = d1 if b1 else d2
    if b1 and b2 and d1 != d2:
        raise ValueError("steps from different quadratic fields")
    return _sign(a2 - a1, b2 - b1, d) > 0


def _check_refute(argv, doc) -> str | None:
    n = int(_arg(argv, "--n"))
    bound = Fraction(n * (n - 2), 4)
    if Fraction(doc["violated_bound"]) != bound:
        return f"bound {doc['violated_bound']} != n(n-2)/4 = {bound}"
    prev = doc["start"]
    if Fraction(prev) != Fraction(_arg(argv, "--lambda")):
        return "chain does not start at the candidate"
    for step in doc["steps"]:
        if not _less(step, prev):
            return f"step {step} does not decrease from {prev}"
        prev = step
    if not doc["steps"] or not _less(prev, str(bound)):
        return "last step is not below n(n-2)/4"
    return None


def _check_spectrum(argv, doc) -> str | None:
    n = int(_arg(argv, "--n"))
    count = int(_arg(argv, "--count"))
    got = [(int(r["level"]), Fraction(r["value"])) for r in doc["rows"]]
    if argv[1] == "scalar":
        want = [(j, scalar_eigenvalue(n, j)) for j in range(count)]
    else:
        want = []
        for j in range(count):
            lam = Fraction(n, 2) + j
            want += [(j, lam), (j, -lam)]
    return None if got == want else f"spectrum {got} != closed form {want}"


def check_answer(argv: list, rc: int, out: str) -> str | None:
    """None when the answer to ``argv`` is right, else what is wrong."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    command = next(a for a in argv if a in ("spectrum", "intertwinor", "verify", "refute", "entropy"))
    args = argv[argv.index(command):]
    if command in ("verify", "entropy"):
        return None if doc.get("all_passed") is True else "all_passed is not true"
    if command == "refute":
        return _check_refute(args, doc)
    if command == "spectrum":
        return _check_spectrum(args, doc)
    return None if doc.get("rows") else "empty table"

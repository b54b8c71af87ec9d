"""Structured pass/fail records for identity verification suites.

``VerificationReport.check_laws`` checks a table of operator laws on a
basis, memoizing per basis vector the images of the law words and a pass
mark for each law row that holds on the vector.  A suite requested more
than once in a process keeps those memos across its requests in one
table shared by the scalar and the spinor suite (``_suite_memos``): from
its second request on, each basis vector's memo is kept under the
suite's operator callables and the vector's key, so a third request
applies no operator and tests no law difference.  Nothing is kept on a
suite's first request (a CLI process, the criterion-03 grid), the table
is a ``Memo`` of 512 vectors, emptied when full like every memo table of
the package, and a basis larger than that is never stored.  Only the
suite's own operators are in the key: a change to anything they call
must go through ``_clear_suite_memos``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ._kernel import Memo

# (operator callables, key of a basis vector) -> that vector's kept
# ``check_laws`` memo; and the suites (suite, operator callables)
# requested so far, as keys.
_SUITE_MEMOS = Memo(512)
_SEEN_SUITES = Memo(64)


def _clear_suite_memos() -> None:
    """Empty the kept memos and the seen suites, so the next request of
    every suite runs as in a fresh process."""
    _SUITE_MEMOS.clear()
    _SEEN_SUITES.clear()


def _suite_memos(suite, keys: list, operators: tuple):
    """The ``check_laws`` memos of a suite's basis vectors, one per key in
    ``keys``, kept in ``_SUITE_MEMOS`` under ``operators``; or None (fresh
    memos, nothing kept) on the first request of ``(suite, operators)``
    and for a basis larger than the table, which would empty it on every
    request and keep nothing."""
    if (suite, operators) not in _SEEN_SUITES:
        _SEEN_SUITES.store((suite, operators), None)
        return None
    if len(keys) > _SUITE_MEMOS.limit:
        return None
    memos = []
    for key in keys:
        memo = _SUITE_MEMOS.get((operators, key))
        if memo is None:
            memo = _SUITE_MEMOS.store((operators, key), {})
        memos.append(memo)
    return memos


@dataclass
class CheckResult:
    identity_id: str
    law: str  # the identity as a human-readable formula
    dimension: int
    degree_cap: int
    status: str  # "pass" | "fail"
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        d = {
            "identity_id": self.identity_id,
            "law": self.law,
            "dimension": self.dimension,
            "degree_cap": self.degree_cap,
            "status": self.status,
        }
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        return d


@dataclass
class VerificationReport:
    scope: str  # "scalar" | "spinor" | "entropy"
    n: int
    degree_cap: int
    checks: list = field(default_factory=list)

    def add(self, identity_id: str, law: str, ok: bool, counterexample=None):
        self.checks.append(
            CheckResult(
                identity_id=identity_id,
                law=law,
                dimension=self.n,
                degree_cap=self.degree_cap,
                status="pass" if ok else "fail",
                counterexample=None if ok else counterexample,
            )
        )

    @property
    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if c.status != "pass"]

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "dimension": self.n,
            "degree_cap": self.degree_cap,
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)

    def check_laws(self, basis: list, laws: list, ops: dict, indexed_ops: dict, memos=None):
        """Check a table of linear operator laws exactly on every basis vector
        and add one result per law, in table order.

        A law is a row ``(identity_id, law_text, per_index, terms)`` whose
        ``(coefficient, word)`` terms must sum to zero.  A word is a string
        of symbols applied right to left ("" is the identity); ``ops`` maps
        a symbol to a callable on a vector, ``indexed_ops`` to one on
        ``(i, vector)``.  A word holding an indexed symbol is evaluated at
        the law's own i when ``per_index`` (one check per i = 0..n) and
        summed over i = 0..n otherwise.

        Word images are memoized per basis vector by (word, i), index-free
        words without i, so laws share subwords; the i-sum of an indexed
        word is memoized too, by (word, "sum"), so every summed law holding
        that word reuses it.  Whether a word is indexed is decided once per
        word.  A law's terms are merged per word first, and a word whose
        coefficients cancel is not evaluated: its images would cancel
        exactly.  A law whose coefficients all cancel would hold for any
        operators, so it raises ``AssertionError``.  Each i-sum is one
        linear combination, ``type(vector).combination(pairs)`` over
        ``(coefficient, image)`` pairs, and each law's difference is tested
        with ``type(vector).combination_is_zero(pairs)``, so vectors need
        both classmethods.  The difference itself is built only for the
        first failing vector of a law, which becomes its counterexample
        ``{"basis_vector", "index", "difference"}``.

        A law that holds on a vector for every i leaves a pass mark in the
        vector's memo, keyed by the text of its ``(per_index, merged
        nonzero terms)``, and a law whose mark is present is skipped: no
        image, no zero test.  The verdict depends only on the operators,
        the vector and those terms, as the images do.  The identity_id is
        not in the key, and a failing law leaves no mark, so it is checked
        again on every call and its counterexample is rebuilt the same.

        ``memos`` gives the memo dict of each basis vector, in basis order,
        and the images and marks this call makes are added to it; by
        default each vector starts from an empty dict.  The caller must
        pass memos made under these same operators.  On memos that hold
        every law's mark, a call costs the merge of the table's terms and
        one dict probe per law and vector.
        """
        indexed = {"": False}

        def mark(word):
            if word not in indexed:
                head, _, rest = word.partition(" ")
                indexed[word] = mark(rest) or head in indexed_ops
            return indexed[word]

        # (identity_id, per_index, nonzero (coefficient, word) terms, pass mark)
        merged = []
        for identity_id, _, per_index, terms in laws:
            coeffs = {}
            for c, word in terms:
                coeffs[word] = coeffs.get(word, 0) + c
                mark(word)
            nonzero = [(c, w) for w, c in coeffs.items() if c]
            if not nonzero:
                raise AssertionError(f"law {identity_id} merges to no terms: it tests nothing")
            # the mark is the text, hashed once and cached, where a tuple
            # would hash its Fractions again on every probe
            merged.append((identity_id, per_index, nonzero, repr((per_index, nonzero))))

        indices = range(self.n + 1)
        failed = {}
        for k, vector in enumerate(basis):
            memo = {} if memos is None else memos[k]
            combination = type(vector).combination
            is_zero = type(vector).combination_is_zero

            def image(word, i):
                if not word:
                    return vector
                key = (word, i if indexed[word] else None)
                hit = memo.get(key)
                if hit is None:
                    head, _, rest = word.partition(" ")
                    inner = image(rest, i)
                    if head in indexed_ops:
                        hit = indexed_ops[head](i, inner)
                    else:
                        hit = ops[head](inner)
                    memo[key] = hit
                return hit

            def summed(word):
                key = (word, "sum")
                hit = memo.get(key)
                if hit is None:
                    hit = combination((1, image(word, i)) for i in indices)
                    memo[key] = hit
                return hit

            for identity_id, per_index, terms, passed in merged:
                if identity_id in failed or passed in memo:
                    continue
                for i in indices if per_index else (None,):
                    pairs = [
                        (c, image(w, i) if per_index or not indexed[w] else summed(w))
                        for c, w in terms
                    ]
                    if not is_zero(pairs):
                        failed[identity_id] = {
                            "basis_vector": str(vector),
                            "index": i,
                            "difference": str(combination(pairs)),
                        }
                        break
                else:
                    memo[passed] = True
        for identity_id, law, _, _ in laws:
            self.add(identity_id, law, identity_id not in failed, failed.get(identity_id))


def compose(a: list, b: list) -> list:
    """Terms of the product A B of two ``(coefficient, word)`` lists: B is
    applied first, so each word of A is written left of each word of B."""
    return [(c * d, f"{v} {w}".strip()) for c, v in a for d, w in b]


def covariance_terms(polynomial: list, s) -> list:
    """Terms of Q (U_i - s x_i) - (U_i + s x_i) Q, for Q given as
    ``(coefficient, word)`` pairs."""
    return compose(polynomial, [(1, "U"), (-s, "x")]) + compose([(-1, "U"), (-s, "x")], polynomial)


def shifted_square_terms(a) -> list:
    """Terms of sum_i (U_i + a x_i)^2 - a^2."""
    shifted = [(1, "U"), (a, "x")]
    return compose(shifted, shifted) + [(-a * a, "")]

"""Structured pass/fail records for identity verification suites."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def _store(table: dict, key, value, limit: int):
    """value, stored at ``key`` in ``table``, which is emptied first when
    it holds ``limit`` entries: the bounded memo tables of the suites."""
    if len(table) >= limit:
        table.clear()
    table[key] = value
    return value


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
        that word reuses it.  ``memos`` gives the memo dict of each basis
        vector, in basis order, and the images this call makes are added to
        it; by default each vector starts from an empty dict.  The caller
        must pass memos made under these same operators.  Whether a word
        is indexed is decided once per word.  A law's terms are merged per
        word first, and a word whose coefficients cancel is not evaluated:
        its images would cancel exactly.  A law whose coefficients all
        cancel would hold for any operators, so it raises
        ``AssertionError``.  Each i-sum is one linear combination,
        ``type(vector).combination(pairs)`` over ``(coefficient, image)``
        pairs, and each law's difference is tested with
        ``type(vector).combination_is_zero(pairs)``, so vectors need both
        classmethods.  The difference itself is built only for the first
        failing vector of a law, which becomes its counterexample
        ``{"basis_vector", "index", "difference"}``.
        """
        indexed = {"": False}

        def mark(word):
            if word not in indexed:
                head, _, rest = word.partition(" ")
                indexed[word] = mark(rest) or head in indexed_ops
            return indexed[word]

        merged = []  # (identity_id, per_index, nonzero (coefficient, word) terms)
        for identity_id, _, per_index, terms in laws:
            coeffs = {}
            for c, word in terms:
                coeffs[word] = coeffs.get(word, 0) + c
                mark(word)
            nonzero = [(c, w) for w, c in coeffs.items() if c]
            if not nonzero:
                raise AssertionError(f"law {identity_id} merges to no terms: it tests nothing")
            merged.append((identity_id, per_index, nonzero))

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

            for identity_id, per_index, terms in merged:
                if identity_id in failed:
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

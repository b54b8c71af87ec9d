"""The bounded memo table, and a census that every cache the package keeps
at module level is bounded."""

import importlib
import pkgutil

import speclab
from speclab._kernel import Memo

# module-level dicts that are constant lookup tables, not caches
CONSTANT_TABLES = {("speclab.clifford", "_PAULI")}


def test_memo_empties_when_full_and_reads_as_a_dict():
    memo = Memo(3)
    value = object()
    assert memo.store("a", value) is value
    assert memo.store("b", None) is None
    assert memo.get("a") is value and memo.get("z") is None
    assert "b" in memo and "z" not in memo
    assert len(memo) == 2
    memo.store("c", 3)
    assert memo == {"a": value, "b": None, "c": 3}
    assert memo.store("d", 4) == 4  # full: emptied, then stored
    assert memo == {"d": 4}
    for k in range(10):
        memo.store(k, k)
        assert len(memo) <= 3
    assert memo == {8: 8, 9: 9}
    memo.clear()
    assert not memo and memo.limit == 3


def test_every_module_level_cache_is_bounded():
    # every module-level dict that is not a listed constant is a cache: it
    # must be a Memo with a positive limit, and every lru_cache needs a
    # finite maxsize
    tables, lru = set(), set()
    for info in pkgutil.iter_modules(speclab.__path__):
        module = importlib.import_module(f"speclab.{info.name}")
        for name, value in vars(module).items():
            where = f"{module.__name__}.{name}"
            if name.startswith("__") or (module.__name__, name) in CONSTANT_TABLES:
                continue
            if isinstance(value, dict):
                assert isinstance(value, Memo), f"{where} is a dict without a bound"
                assert isinstance(value.limit, int) and value.limit > 0, where
                tables.add(id(value))
            if hasattr(value, "cache_info") and hasattr(value, "cache_parameters"):
                maxsize = value.cache_parameters()["maxsize"]
                assert maxsize is not None and maxsize > 0, f"{where} is an unbounded lru_cache"
                lru.add(id(value))
    assert (len(tables), len(lru)) == (14, 5)

import sys
from collections import Counter
from pathlib import Path

import hypothesis
import pytest

try:
    import loopkit  # noqa: F401
except ImportError:  # running from a checkout without an editable install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from loopkit import enumerate_loops, validate_table
from loopkit.fixtures import bol16, cyclic_group, moufang12

hypothesis.settings.register_profile("suite", deadline=None, max_examples=60)
hypothesis.settings.load_profile("suite")


def _collect_corpus(orders):
    loops = []
    for n in orders:
        enumerate_loops(n, loops.append)
    return tuple(loops)


# every normalized loop of orders 2..5 (1 + 1 + 4 + 56); cheap to build once
CORPUS5 = _collect_corpus((2, 3, 4, 5))

# first order-5 loop in enumeration order that is not right Bol
# (frozen from an independent permutation-based enumeration)
NON_BOL_5_RAW = (
    (1, 2, 3, 4, 5),
    (2, 1, 4, 5, 3),
    (3, 4, 5, 1, 2),
    (4, 5, 2, 3, 1),
    (5, 3, 1, 2, 4),
)


@pytest.fixture(scope="session")
def t1():
    return bol16()


@pytest.fixture(scope="session")
def t2():
    return moufang12()


@pytest.fixture(scope="session")
def non_bol5():
    return validate_table(NON_BOL_5_RAW)


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def z5():
    return cyclic_group(5)


@pytest.fixture(scope="session")
def z6():
    return cyclic_group(6)


@pytest.fixture
def scan_counts(monkeypatch):
    """A Counter of every identity scan, triple-product build and quadruple scan.

    Identity scans are counted per IdentityId value whether they are
    reached through identities._CHECKS or, inside identities.py, by their
    module-level name; triple-product builds as "triple_products"
    (conditions._triple_values) and quadruple scans as "quad_scans"
    (conditions._first_quad).
    """
    import loopkit.conditions as conditions
    import loopkit.identities as identities
    from loopkit import IdentityId

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for ident in IdentityId:
        scan = counted(ident.value, identities._CHECKS[ident])
        monkeypatch.setitem(identities._CHECKS, ident, scan)
        monkeypatch.setattr(identities, f"_{ident.value}", scan)
    for attr, name in (("_triple_values", "triple_products"), ("_first_quad", "quad_scans")):
        monkeypatch.setattr(conditions, attr, counted(name, getattr(conditions, attr)))
    return calls

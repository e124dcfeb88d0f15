import itertools
import random
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

def relabelled(L, seed):
    """L conjugated by a seeded permutation of all labels, identity included."""
    sigma = list(range(L.order))
    random.Random(seed).shuffle(sigma)
    raw = [[0] * L.order for _ in range(L.order)]
    for i, j in itertools.product(range(L.order), repeat=2):
        raw[sigma[i]][sigma[j]] = sigma[L.table[i][j]] + 1
    return validate_table(raw)


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
    """A Counter of every identity scan, condition build and ring oracle stage.

    Identity scans are counted per IdentityId value whether they are
    reached through identities._CHECKS or, inside identities.py, by their
    module-level name; numpy tails of the three-variable scans as
    "identity_tails" (identities._tail); triple-product builds as
    "triple_products" (conditions._triple_values), quadruple scans as
    "quad_scans" (conditions._first_quad, one per scan whatever its
    number of x-blocks), and the ring oracle's basis scans and weight-2
    runs as "ring_basis_scans" and "ring_weight_two_runs"
    (gf2ring._basis_failure and gf2ring._weight_two_failure).
    """
    import loopkit.conditions as conditions
    import loopkit.gf2ring as gf2ring
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
    for module, attr, name in (
        (identities, "_tail", "identity_tails"),
        (conditions, "_triple_values", "triple_products"),
        (conditions, "_first_quad", "quad_scans"),
        (gf2ring, "_basis_failure", "ring_basis_scans"),
        (gf2ring, "_weight_two_failure", "ring_weight_two_runs"),
    ):
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    return calls

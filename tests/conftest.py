import pathlib

import pytest

from polydouble.catalog import built_in_catalog
from polydouble.complexes import full_subcomplex
from polydouble.moment_angle import reduced_homology_ranks

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def catalog():
    """The verification catalog, built once per test session."""
    return built_in_catalog()


@pytest.fixture(scope="session")
def pentagon_hrep_path():
    return str(DATA / "pentagon_hrep.json")


@pytest.fixture(scope="session")
def c5_complex_path():
    return str(DATA / "c5_complex.json")


def _plain_hochster(K, field_tag):
    """Hochster sums over all 2^m full subcomplexes, one at a time.

    The reference for the union sweep in `hochster_betti`: it visits every
    subset, cone or not, and builds each K_J with `full_subcomplex`.
    Returns the (Z ranks, R ranks) dicts.
    """
    z: dict[int, int] = {}
    r: dict[int, int] = {}
    for J in range(1 << K.vertex_count):
        ranks = reduced_homology_ranks(full_subcomplex(K, J), field_tag)
        for d, rank in enumerate(ranks, start=-1):
            if rank:
                k = d + J.bit_count() + 1
                z[k] = z.get(k, 0) + rank
                r[d + 1] = r.get(d + 1, 0) + rank
    return z, r


@pytest.fixture(scope="session")
def plain_hochster():
    return _plain_hochster

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


def _submask_faces(K):
    """Every face of K as the union of the submasks of its maximal faces.

    The reference for `SimplicialComplex.faces_by_size`: it visits each
    face once per maximal face that contains it and never groups by size.
    """
    faces = set()
    for f in K.maximal_faces:
        sub = f
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    return faces


def _check_face_levels(K):
    """faces_by_size partitions the faces of K by size, and its faces are
    exactly those of the submask union."""
    levels = K.faces_by_size()
    assert levels[0] == [0]
    for s, level in enumerate(levels):
        assert level, s
        assert all(f.bit_count() == s for f in level), s
    flat = [f for level in levels for f in level]
    assert len(flat) == len(set(flat))
    assert set(flat) == _submask_faces(K) == K.all_faces()


@pytest.fixture(scope="session")
def check_face_levels():
    return _check_face_levels

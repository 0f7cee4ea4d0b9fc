import functools

import pytest

from fforge import build_dodecahedron
from fforge.engine import EnumerationJob, enumerate_closure, oracle_generate
from fforge.growth import Regime

import helpers


@pytest.fixture(scope="session")
def dodeca():
    return build_dodecahedron()


@pytest.fixture(scope="session")
def oracle5():
    return oracle_generate(5)


@pytest.fixture(scope="session")
def oracle10():
    return oracle_generate(10)


@pytest.fixture(scope="session")
def gen_seven():
    return enumerate_closure(EnumerationJob(Regime.SEVEN, 5, collect_traces=True))


@pytest.fixture(scope="session")
def gen_a():
    return enumerate_closure(EnumerationJob(Regime.A_OPS, 5, collect_traces=True))


@pytest.fixture(scope="session")
def gen_ab():
    return enumerate_closure(EnumerationJob(Regime.AB_OPS, 5, collect_traces=True))


@pytest.fixture(scope="session")
def c60():
    return helpers.ipr_c60()


@pytest.fixture(scope="session")
def family_maps(gen_seven):
    """Canonical maps of every class reached by the truncation closure."""
    return [e.map for e in gen_seven.entries.values()]


@pytest.fixture(scope="session")
def closure():
    """``closure(regime, max_p6, include_reflection)``: that closure, run
    once per session."""
    return functools.cache(
        lambda regime, max_p6, refl: enumerate_closure(EnumerationJob(regime, max_p6, include_reflection=refl))
    )


@pytest.fixture(scope="session")
def rewrite_maps(gen_seven, gen_a, gen_ab, c60):
    """The closure fixtures' maps, then five helper maps: the cube, a C24
    barrel, C60 and two cubic maps that are not 3-connected."""
    maps = [e.map for gen in (gen_seven, gen_a, gen_ab) for e in gen.entries.values()]
    return maps + [
        helpers.cube_map(),
        helpers.barrel_c24(),
        c60,
        helpers.two_edge_connected_cubic(),
        helpers.bridged_cubic(),
    ]

"""Combinatorial kernel for fullerene-type simple 3-polytopes."""

from .planar_map import (
    PlanarMap,
    PVector,
    check_polytopal,
    decode_planar_code,
    encode_planar_code,
    map_from_faces,
    p_vector,
    read_planar_code,
    write_planar_code,
)
from .transform import (
    EdgeRef,
    TruncationSite,
    enumerate_sites,
    straighten,
    truncate,
)
from .structure import (
    Belt,
    FamilyClass,
    Fragment,
    check_131313,
    classify,
    classify_shape,
    find_belts,
    find_fragments,
    five_belt_census,
    is_flag,
)
from .growth import (
    DerivationTrace,
    GrowthOpKind,
    GrowthStep,
    Regime,
    apply_growth,
    build_D5k,
    build_F3k,
    build_dodecahedron,
    read_traces,
    recognize_nanotube,
    reduce_once,
    reduce_to_dodecahedron,
    replay_trace,
)
from .engine import (
    CrossCheckReport,
    EnumerationJob,
    GeneratedSet,
    cross_check,
    enumerate_closure,
    oracle_generate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Correctness checks that share no code with the timed paths.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

# Fullerene isomers C20, C22, ..., C60 (mirror images identified), from
# Fowler & Manolopoulos, "An Atlas of Fullerenes" (1995); OEIS A007894.
A007894 = (1, 0, 1, 1, 2, 3, 6, 6, 15, 17, 40, 45, 89, 116, 199, 271, 437, 580, 924, 1205, 1812)

# Faces a nanotube cap insertion adds: a D5 belt is five hexagons, F3 three.
_CAP_FACES = {"D5": 5, "F3": 3}


def check_counts(counts: list[int], complete: bool, what: str) -> list[str]:
    """Per-p6 fullerene counts against A007894, and the completion flag."""
    errors = []
    if not complete:
        errors.append(f"{what}: generated set is marked incomplete")
    if len(counts) > len(A007894):
        errors.append(f"{what}: no published count past p6 = {len(A007894) - 1}")
    want = list(A007894[: len(counts)])
    if counts != want:
        errors.append(f"{what}: per-p6 counts {counts} differ from A007894 {want}")
    return errors


def faces_added(step) -> int:
    """Faces one recorded growth step adds: one per truncation, or a belt."""
    if step.site[0] == "cap":
        return _CAP_FACES[step.site[1]]
    return len(step.site[1])


def check_trace(trace, regime: str, p6: int, code: bytes, start_code: bytes, what: str) -> list[str]:
    """A derivation trace of a fullerene with ``p6`` hexagons and code ``code``.

    The trace starts at the dodecahedron, ends at the input's class, and adds
    exactly ``p6`` faces; in the seven regime every step is one truncation,
    so it has exactly ``p6`` steps (the identity p6 + 2 p7 - p4 at p4 = p7 = 0).
    """
    errors = []
    if trace.start_code != start_code:
        errors.append(f"{what}: trace does not start at the dodecahedron")
    end = trace.steps[-1].code if trace.steps else trace.start_code
    if end != code:
        errors.append(f"{what}: trace does not end at the input's canonical code")
    added = sum(faces_added(s) for s in trace.steps)
    if added != p6:
        errors.append(f"{what}: trace adds {added} faces, expected p6 = {p6}")
    if regime == "seven" and len(trace.steps) != p6:
        errors.append(f"{what}: seven-regime trace has {len(trace.steps)} steps, expected p6 = {p6}")
    return errors

"""Reproducers for library defects that the benchmark corpus steers around.

    python3 bench/defects.py

Each case prints ``reproduces`` or ``fixed``; the exit status is the number
of cases that still reproduce.  The corpus notes in NOTES.md say which
workload restriction each case explains.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

F = Fraction
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from annuli import PolyFunc, TRPSet, multidim_profile, reconstruct_polyhedral, synthetic_oracle  # noqa: E402
from annuli.serialize import module_from_obj  # noqa: E402

import corpus  # noqa: E402
import reference as ref  # noqa: E402


def reconstruct_raises(constraints, functionals) -> bool:
    """A valid convex max-of-affines on a compact domain must reconstruct."""
    C = TRPSet.make([(s, F(c)) for s, c in constraints], 2)
    g = PolyFunc.make([(s, F(c)) for s, c in functionals])
    try:
        reconstruct_polyhedral(C, synthetic_oracle(g, C))
    except ValueError as e:
        print(f"    {type(e).__name__}: {e}")
        return True
    return False


def box(x0, x1, y0, y1):
    return [((1, 0), -x0), ((-1, 0), x1), ((0, 1), -y0), ((0, -1), y1)]


def intrinsic_slice_differs() -> bool:
    """Two single-axis potential twists: the per-summand closed form has two
    visible values along the chord, the index-by-index combination one."""
    spec = {"p": 2, "potentials": [(F(-1, 8), (-1, 0)), (F(-1, 2), (0, -1))],
            "box": ((F(1), F(4)), (F(1), F(4)))}
    M = module_from_obj(corpus.potential_module(2, spec["potentials"]))
    C = TRPSet.box(spec["box"])
    point, direction = (F(1), F(1)), (0, 1)
    s = multidim_profile(M, C, [(point, direction)]).slices[0]
    t = F(1)
    got = s.profile.eval_visible(s.profile.window[0] + t)
    want = ref.visible_potentials(spec, (F(1), F(2)))
    print(f"    library {[str(v) for v in got]}, closed form {[str(v) for v in want]}")
    return got != want


CASES = (
    ("reconstruct_polyhedral on a box, four functionals",
     lambda: reconstruct_raises(box(0, 3, -2, 2), [((-2, -3), F(-8, 3)), ((1, 1), F(-5, 4)),
                                                   ((3, 3), F(-4)), ((-3, -2), F(3, 2))])),
    ("reconstruct_polyhedral on a box cut by a half-plane",
     lambda: reconstruct_raises(box(-1, 3, 0, 2) + [((2, 1), F(-1))],
                                [((0, 0), F(-1, 2)), ((1, 1), F(-1, 4)), ((0, -3), F(1, 2)),
                                 ((-3, 3), F(5, 2))])),
    ("multi-axis intrinsic profile of single-axis summands", intrinsic_slice_differs),
)


def main() -> int:
    still = 0
    for name, case in CASES:
        print(f"{name}:")
        bad = case()
        print(f"    {'reproduces' if bad else 'fixed'}")
        still += bad
    return still


if __name__ == "__main__":
    sys.exit(main())

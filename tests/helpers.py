"""Small readers that only the tests use, kept out of the library's surface."""


def by_name(report, name: str) -> list:
    """The results of ``report`` under one clause name, in order."""
    return [r for r in report.results if r.name == name]


def classical_slope_list(np_) -> list:
    """The classical slopes of a Newton polygon, with multiplicity, ascending."""
    return [s for s, m in np_.classical_slopes() for _ in range(m)]


def eval_slopes(sf, r) -> list:
    """The classical slope multiset of slope functions at one fiber, ascending."""
    return sorted(f(r) for f in sf.fs)


def gauge(M, g):
    """``M`` in the basis given by the columns of ``g``: each ``N`` becomes ``g^-1 (N g + dg)``.

    ``g`` is unipotent upper triangular with Laurent entries, so ``g^-1`` is the
    finite sum ``sum_k (I - g)^k`` and every entry stays Laurent.
    """
    from annuli import DiffModule
    from annuli.modules import mat_add, mat_derive, mat_mul

    cfg, d = M.config, M.rank
    eye = [[cfg.one() if i == j else cfg.zero() for j in range(d)] for i in range(d)]
    x = [[e - y for e, y in zip(er, gr)] for er, gr in zip(eye, g)]  # I - g, nilpotent
    inv, power = eye, eye
    for _ in range(d - 1):
        power = mat_mul(power, x)
        inv = mat_add(inv, power)
    return DiffModule(cfg, d, {a: mat_mul(inv, mat_add(mat_mul(N, g), mat_derive(g, a)))
                               for a, N in M.matrices.items()})


def fiber_to_source(A, r) -> tuple:
    """The substituted-side fiber ``A^-T r`` matching the original fiber ``r``."""
    return A.transpose().inverse().apply(r)


def fiber_to_target(A, rho) -> tuple:
    """The original fiber ``A^T rho`` matching the substituted-side fiber ``rho``."""
    return A.transpose().apply(rho)


def fully_capped(profile) -> bool:
    """True when no cell of the profile has a definite value."""
    return all(c.m == 0 for c in profile.cells)


def is_affine(f) -> bool:
    """True when a piecewise-affine function has a single piece."""
    return len(f.knots) == 2


def roots(f) -> list:
    """Zeros of a piecewise-affine function, as points and closed intervals.

    Returns a list of ``(a, b)`` pairs with ``a <= b``; a pair with ``a == b``
    is an isolated zero, otherwise the function vanishes on ``[a, b]``.
    """
    out = []
    for lo, hi, slope, v0 in f.pieces():
        if slope == 0:
            if v0 == 0:
                out.append((lo, hi))
            continue
        x = lo - v0 / slope
        if lo <= x <= hi:
            out.append((x, x))
    merged: list = []
    for a, b in sorted(out):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged

"""Closed-form expectations for the benchmark corpus, computed without annuli.

Every expected value here comes from the planted structure of an input, never
from the library under test:

* a one-variable summand ``d/dt v = (sum_j c_j t^-k_j) v`` has hull slope
  ``sigma(r) = max_j (k_j r - ord_p c_j)`` at log-radius ``r``; it is visible
  iff ``sigma > r``, with extrinsic value ``omega + sigma`` and intrinsic value
  ``omega + sigma - r``.  A base-axis summand ``d/du v = c u^-1 t^-k v`` with
  ``v(u) = w`` has ``sigma = k r - ord_p c + w``, visible iff ``sigma > w``.
* a two-variable potential twist ``exp(c t1^m t2^n)`` with p-adic unit
  exponents has intrinsic value ``omega - ord_p c - (m r1 + n r2)``, visible
  iff above ``omega``.
* slopes of planted first-order factors ``T - c t^-k`` are ``k r - ord_p c``.
* the Frobenius pushforward follows the two-case formula.

Inspection helpers read returned objects through their public attributes
(``terms``, ``num``/``den``, ``cells``, ``functionals``) and compute Gauss
valuations and lower hulls here, so a check never asks the library to grade
itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

F = Fraction
INF = float("inf")


def ordp(c, p: int):
    """p-adic order of a nonzero rational; zero for ``p == 0``."""
    c = F(c)
    if c == 0:
        return INF
    if p == 0:
        return F(0)
    v = 0
    n, d = c.numerator, c.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return F(v)


def omega(p: int) -> Fraction:
    return F(1, p - 1) if p else F(0)


# -- Gauss valuations and hulls on returned objects ------------------------------


def laurent_valuation(terms, p: int, weights, r):
    """``min ord_p(c) + e.w + i.r`` over a ``{(e, i): c}`` term map; INF if empty."""
    best = INF
    for (e, i), c in terms.items():
        if c == 0:
            continue
        v = ordp(c, p) + sum((a * F(w) for a, w in zip(e, weights)), F(0))
        v += sum((a * F(x) for a, x in zip(i, r)), F(0))
        best = min(best, v)
    return best


def coeff_valuation(c, p: int, weights, r):
    """Gauss valuation of a Laurent or fraction coefficient object."""
    if hasattr(c, "num"):
        num = laurent_valuation(c.num.terms, p, weights, r)
        if num == INF:
            return INF
        return num - laurent_valuation(c.den.terms, p, weights, r)
    return laurent_valuation(c.terms, p, weights, r)


def lower_hull_slopes(points) -> list:
    """Ascending slopes, with multiplicity, of the lower hull of ``(i, v)`` points."""
    pts = sorted((x, y) for x, y in points if y != INF)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (pt[0] - x0) >= (pt[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        out.extend([F(y1 - y0) / (x1 - x0)] * (x1 - x0))
    return out


def poly_slopes(coeffs, p: int, weights, r) -> list:
    """Newton slopes of a twisted polynomial given its coefficient objects."""
    return lower_hull_slopes(
        [(i, coeff_valuation(c, p, weights, r)) for i, c in enumerate(coeffs)]
    )


# -- one-variable profiles ---------------------------------------------------------


def summand_lines(spec) -> list:
    """Per summand, the affine lines ``(slope, const)`` whose max is sigma(r)."""
    p = spec["p"]
    w = F(spec.get("w", 0))
    out = []
    for terms in spec["summands"]:
        out.append([(F(k), w - ordp(F(c), p)) for c, k in terms])
    return out


def sigma(lines, r):
    return max(s * r + c for s, c in lines)


def expected_radii(spec, r):
    """Visible values (nonincreasing) and capped count of a profile at ``r``."""
    p = spec["p"]
    om = omega(p)
    intrinsic = spec["axis"] == "intrinsic"
    base = spec.get("base", False)
    tau = -F(spec.get("w", 0)) if base else -F(r)
    vis = []
    for lines in summand_lines(spec):
        s = sigma(lines, r)
        if s > -tau:
            vis.append(om + s + (tau if intrinsic else 0))
    vis.sort(reverse=True)
    return vis, len(spec["summands"]) - len(vis)


def cap_line(spec) -> tuple:
    """The visibility bound of the profile as a line ``(slope, const)`` in r."""
    om = omega(spec["p"])
    if spec["axis"] == "intrinsic":
        return (F(0), om)
    if spec.get("base", False):
        return (F(0), om + F(spec.get("w", 0)))
    return (F(1), om)


def value_lines(spec) -> list:
    """Per summand, lines whose max is the summand's profile value (before capping)."""
    om = omega(spec["p"])
    intrinsic = spec["axis"] == "intrinsic"
    base = spec.get("base", False)
    w = F(spec.get("w", 0))
    out = []
    for lines in summand_lines(spec):
        shifted = []
        for s, c in lines:
            if intrinsic:
                shifted.append((s - (0 if base else 1), c + om - (w if base else 0)))
            else:
                shifted.append((s, c + om))
        out.append(shifted)
    return out


def profile_at(cells, x):
    """Visible values and capped count of plain cells ``(lo, hi, [(s, v)], capped)``."""
    for lo, hi, vis, capped in cells:
        if lo <= x <= hi:
            return sorted((v + s * (x - lo) for s, v in vis), reverse=True), capped
    raise ValueError(f"{x} outside the profile")


def check_profile(spec, cells) -> str:
    """Empty string when the cells match the planted radii at the sample fibers
    and at one point inside every cell (denominator 997 again, so never a
    breakpoint): a wrong cell is caught even when no sample falls in it."""
    lo, hi = (F(x) for x in spec["window"])
    if not cells or cells[0][0] != lo or cells[-1][1] != hi:
        return "profile does not cover the window"
    inner = [F(a) + (F(b) - F(a)) * F(499, 997) for a, b, *_ in cells]
    for x in [F(x) for x in spec["samples"]] + inner:
        got = profile_at(cells, x)
        want = expected_radii(spec, x)
        if got != want:
            return f"radii at r={x}: got {got}, want {want}"
    return ""


def _crossings(lines, lo, hi) -> list:
    pts = {lo, hi}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (s1, c1), (s2, c2) = lines[i], lines[j]
            if s1 != s2:
                x = (c2 - c1) / (s1 - s2)
                if lo < x < hi:
                    pts.add(x)
    return sorted(pts)


def loci_from_values(value_fns, cap_fn, all_lines, lo, hi, rank) -> list:
    """``[(i, (a, b))]``: maximal open intervals where ``f_i > max(f_{i+1}, cap)``.

    ``value_fns`` evaluate each summand's (uncapped) value; the condition is
    constant between consecutive crossings of ``all_lines``.
    """
    xs = _crossings(all_lines, lo, hi)

    def holds(i, x):
        vals = sorted((f(x) for f in value_fns), reverse=True)
        return vals[i - 1] > max(vals[i], cap_fn(x))

    out = []
    for i in range(1, rank):
        runs = []
        for a, b in zip(xs, xs[1:]):
            if not holds(i, (a + b) / 2):
                continue
            if runs and runs[-1][1] == a and holds(i, a):
                runs[-1] = (runs[-1][0], b)
            else:
                runs.append((a, b))
        out.extend((i, iv) for iv in runs)
    return out


def expected_loci(spec) -> list:
    lo, hi = (F(x) for x in spec["window"])
    vlines = value_lines(spec)
    cs, cc = cap_line(spec)
    fns = [lambda x, ls=ls: max(s * x + c for s, c in ls) for ls in vlines]
    all_lines = [ln for ls in vlines for ln in ls] + [(cs, cc)]
    return loci_from_values(fns, lambda x: cs * x + cc, all_lines, lo, hi, len(vlines))


# -- factor slopes, spectral values, fiber parts -----------------------------------


def factor_slopes(spec) -> list:
    """Planted slopes ``k r - ord_p c`` of the first-order factors, ascending."""
    r = F(spec["r"])
    return sorted(F(k) * r - ordp(F(c), spec["p"]) for c, k in spec["factors"])


def spectral_target(spec) -> Fraction:
    """``omega - top`` for a sum of visible twists: minus the largest slope."""
    r = F(spec["r"])
    return -max(F(k) * r - ordp(F(c), spec["p"]) for c, k in spec["twists"])


def expected_parts(spec) -> list:
    """Sorted ``(value, multiplicity, capped)`` entries of a fiber decomposition."""
    p = spec["p"]
    r = F(spec["r"])
    om = omega(p)
    parts = []
    hidden = 0
    for term in spec["twists"]:
        if term is None:
            hidden += 1
            continue
        c, k = term
        sigma = F(k) * r - ordp(F(c), p)
        if sigma > r:
            parts.append((om + sigma, 1, False))
        else:
            hidden += 1
    if hidden:
        parts.append((om + r, hidden, True))
    return sorted(parts)


# -- two-variable potential twists --------------------------------------------------


def potential_values(spec, x) -> list:
    """Intrinsic values of each potential-twist summand at the fiber ``x``."""
    p = spec["p"]
    om = omega(p)
    return [
        om - ordp(F(c), p) - (m * F(x[0]) + n * F(x[1]))
        for c, (m, n) in spec["potentials"]
    ]


def visible_potentials(spec, x) -> list:
    om = omega(spec["p"])
    return sorted((v for v in potential_values(spec, x) if v > om), reverse=True)


def level_value(spec, x, level) -> Fraction:
    """``scale * F_level`` with ``scale = rank!`` below the top level, else 1."""
    rank = len(spec["potentials"])
    scale = factorial(rank) if level < rank else 1
    return scale * sum(visible_potentials(spec, x)[:level])


def box_chord(box, point, direction):
    """Parameter range of ``point + t * direction`` inside an axis box."""
    lo_t, hi_t = None, None
    for (a, b), x, d in zip(box, point, direction):
        if d == 0:
            continue
        t1, t2 = (F(a) - x) / d, (F(b) - x) / d
        t1, t2 = min(t1, t2), max(t1, t2)
        lo_t = t1 if lo_t is None else max(lo_t, t1)
        hi_t = t2 if hi_t is None else min(hi_t, t2)
    return lo_t, hi_t


def slice_lines(spec, point, direction) -> list:
    """Each summand's intrinsic value along a chord, as a line in the parameter t."""
    p = spec["p"]
    om = omega(p)
    out = []
    for c, (m, n) in spec["potentials"]:
        const = om - ordp(F(c), p) - (m * F(point[0]) + n * F(point[1]))
        out.append((F(-(m * direction[0] + n * direction[1])), const))
    return out


def expected_slice_loci(spec, point, direction) -> list:
    t0, t1 = box_chord(spec["box"], point, direction)
    lines = slice_lines(spec, point, direction)
    om = omega(spec["p"])
    fns = [lambda t, ln=ln: ln[0] * t + ln[1] for ln in lines]
    return loci_from_values(fns, lambda t: om, lines + [(F(0), om)], t0, t1, len(lines))


def expected_multidim_loci(spec) -> list:
    """The ``multidim_loci`` structure implied by the planted slice values."""
    rank = len(spec["potentials"])
    per = []
    for point, direction in spec["slices"]:
        point = [F(v) for v in point]
        per.append((box_chord(spec["box"], point, direction),
                    expected_slice_loci(spec, point, direction)))
    out = []
    for level in range(1, rank):
        slices, complete, found = [], True, False
        for idx, (rng, loci) in enumerate(per):
            ivs = [iv for i, iv in loci if i == level]
            slices.append((idx, ivs))
            found = found or bool(ivs)
            if len(ivs) != 1 or ivs[0] != rng:
                complete = False
        if found:
            out.append((level, complete, slices))
    return out


# -- polyhedral functions ------------------------------------------------------------


def max_affine(functionals, x) -> Fraction:
    return max(sum((a * F(v) for a, v in zip(s, x)), F(c)) for s, c in functionals)


# -- Frobenius ------------------------------------------------------------------------


def frob_push(entries, p: int) -> dict:
    """Two-case pushforward of ``{value: multiplicity}`` intrinsic entries."""
    thr, pure = F(1, p - 1), F(p, p - 1)
    out: dict = {}
    for f, m in entries:
        f = F(f)
        if f < thr:
            pairs = [(p * f, m), (pure, m * (p - 1))]
        else:
            pairs = [(f + 1, m * p)]
        for v, k in pairs:
            out[v] = out.get(v, 0) + k
    return out

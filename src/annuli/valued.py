"""Exact model of the coefficient ring K[u_J^{+-1}][t_I^{+-1}] with Gauss valuations.

Conventions (fixed here once, used everywhere):

* Norms are written as log-valuations: ``v(x) = -log_p|x|`` for residual
  characteristic ``p > 0`` and ``v(x) = -log|x|`` (natural log) for ``p = 0``.
  Radii enter as valuations too, ``r = -log|t|``.
* ``omega_val(p)`` is the valuation of the constant omega: ``1/(p-1)`` for
  ``p > 0`` and ``0`` for ``p = 0``.
* Each base derivation d/du_j is of rational type with parameter ``u_j`` of
  weight ``w_j = v(u_j)``; its operator valuation on the base field is
  ``-w_j``.  The geometric derivation d/dt_k has operator valuation ``-r_k``
  at the fiber of log-radius ``r``.
* The valuation of the zero element is the explicit :data:`INF` singleton,
  never a sentinel rational.

Elements are finite sums of monomials ``c * u^e * t^i`` with exact rational
``c``, stored as an ``int`` when integral and as a ``Fraction`` otherwise; all
operations are pure and values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, isqrt, lcm, prod
from operator import add, itemgetter, mul, sub
from typing import Mapping, Sequence, Union

from .pwaffine import PiecewiseAffine, min_of_lines

__all__ = [
    "INF",
    "Infinity",
    "ValuationValue",
    "ValuationConfig",
    "LaurentElement",
    "FracElement",
    "gauss_valuation",
    "solve_fraction_free",
    "valuation_function",
    "is_unit_on_annulus",
    "omega_val",
]


class Infinity:
    """The valuation of zero.  Compares above every rational in either operand
    order: a rational's comparison with it returns ``NotImplemented`` and Python
    asks this class, so ``min(vals, default=INF)`` is the least valuation."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("annuli.INF")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate INF")


INF = Infinity()

ValuationValue = Union[Fraction, Infinity]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _ord_int(n: int, p: int) -> int:
    """Exponent of ``p`` in a nonzero integer of either sign: the lowest set bit at
    ``p = 2``, otherwise powers stripped in doubling chunks."""
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        pw, k = p, 1
        sq = pw * pw
        while n % sq == 0:
            pw, k = sq, k * 2
            sq = pw * pw
        n //= pw
        v += k
    return v


def omega_val(p: int) -> Fraction:
    return Fraction(1, p - 1) if p > 0 else Fraction(0)


class ValuationConfig:
    """Ground data: the prime ``p``, base parameter weights and variable counts.

    ``u_weights[j] = w_j = v(u_j)`` fixes the Gauss valuation on the base
    parameters; ``n_geom`` geometric variables ``t_1..t_n`` carry the varying
    log-radii.  Axes are named ``"u1".."um"`` and ``"t1".."tn"``.
    """

    __slots__ = ("p", "u_weights", "n_geom")

    def __init__(self, p: int, u_weights: Sequence = (), n_geom: int = 1):
        if p != 0 and not _is_prime(p):
            raise ValueError(f"p must be 0 or prime, got {p}")
        self.p = int(p)
        self.u_weights = tuple(Fraction(w) for w in u_weights)
        self.n_geom = int(n_geom)
        if self.n_geom < 0:
            raise ValueError("n_geom must be nonnegative")

    @property
    def m_base(self) -> int:
        return len(self.u_weights)

    @property
    def omega(self) -> Fraction:
        return omega_val(self.p)

    def axes(self) -> list:
        return [f"u{j + 1}" for j in range(self.m_base)] + [
            f"t{k + 1}" for k in range(self.n_geom)
        ]

    def axis_kind(self, axis: str) -> tuple:
        """Parse an axis name into ``("u"|"t", zero_based_index)``."""
        if len(axis) >= 2 and axis[0] in "ut" and axis[1:].isdigit():
            kind, idx = axis[0], int(axis[1:]) - 1
            bound = self.m_base if kind == "u" else self.n_geom
            if 0 <= idx < bound:
                return kind, idx
        raise ValueError(f"unknown axis {axis!r} for this configuration")

    def operator_valuation(self, axis: str, r: Sequence) -> Fraction:
        """Valuation of the named derivation's operator norm at fiber ``r``."""
        kind, idx = self.axis_kind(axis)
        if kind == "u":
            return -self.u_weights[idx]
        return -Fraction(r[idx])

    def spectral_base_valuation(self, axis: str, r: Sequence) -> Fraction:
        """Valuation of the derivation's spectral norm on the fiber field."""
        return self.omega + self.operator_valuation(axis, r)

    # -- element constructors ----------------------------------------------

    def zero(self) -> "LaurentElement":
        return LaurentElement(self, {})

    def one(self) -> "LaurentElement":
        unit = ((0,) * self.m_base, (0,) * self.n_geom)
        return LaurentElement._trusted(self, {unit: 1})

    def scalar(self, c) -> "LaurentElement":
        return self.monomial(c)

    def monomial(self, c, u: Sequence = None, t: Sequence = None) -> "LaurentElement":
        u = tuple(int(x) for x in (u or (0,) * self.m_base))
        t = tuple(int(x) for x in (t or (0,) * self.n_geom))
        return LaurentElement(self, {(u, t): Fraction(c)})

    def t(self, k: int = 1, power: int = 1) -> "LaurentElement":
        """The monomial ``t_k ** power`` (1-based k)."""
        t = [0] * self.n_geom
        t[k - 1] = power
        return self.monomial(1, t=t)

    def u(self, j: int = 1, power: int = 1) -> "LaurentElement":
        u = [0] * self.m_base
        u[j - 1] = power
        return self.monomial(1, u=u)

    def __eq__(self, other):
        return (
            isinstance(other, ValuationConfig)
            and self.p == other.p
            and self.u_weights == other.u_weights
            and self.n_geom == other.n_geom
        )

    def __hash__(self):
        return hash((self.p, self.u_weights, self.n_geom))

    def __repr__(self):
        return f"ValuationConfig(p={self.p}, u_weights={self.u_weights}, n_geom={self.n_geom})"


class LaurentElement:
    """A finite sum of monomials ``c * u^e * t^i`` with rational coefficients.

    ``terms`` maps exponent pairs ``(e, i)`` (tuples of ints) to nonzero
    coefficients: an ``int`` when integral, otherwise a ``Fraction``.  This
    constructor and products store them so; sums and derivatives may leave an
    integral ``Fraction``, which agrees with the ``int`` on ``==``, ``hash``
    and ``str``.  Instances are immutable.
    """

    __slots__ = ("config", "terms", "_key_cache")

    def __init__(self, config: ValuationConfig, terms: Mapping):
        self.config = config
        clean = {}
        for (e, i), c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            e, i = tuple(int(x) for x in e), tuple(int(x) for x in i)
            if len(e) != config.m_base or len(i) != config.n_geom:
                raise ValueError("exponent vector length mismatch")
            clean[(e, i)] = c.numerator if c.denominator == 1 else c
        self.terms = clean
        self._key_cache = None

    @classmethod
    def _trusted(cls, config: ValuationConfig, terms: dict) -> "LaurentElement":
        """Wrap ``terms`` without re-validation: int-tuple keys, nonzero coefficients."""
        self = object.__new__(cls)
        self.config, self.terms, self._key_cache = config, terms, None
        return self

    @property
    def _key(self):
        if self._key_cache is None:
            self._key_cache = tuple(sorted(self.terms.items()))
        return self._key_cache

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, LaurentElement):
            return self.config == other.config and self._key == other._key
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._key == o._key

    def __hash__(self):
        return hash(self._key)

    def _coerce(self, other):
        """``other`` as a Laurent element; None for a fraction, whose reflected method answers.
        ``ValueError`` for a Laurent element of another configuration."""
        if isinstance(other, LaurentElement):
            if other.config is not self.config and other.config != self.config:
                raise ValueError("Laurent elements of different configurations")
            return other
        if isinstance(other, (int, Fraction)):
            return self.config.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            out[k] = out[k] + c if k in out else c
        return LaurentElement._trusted(self.config, {k: c for k, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return LaurentElement._trusted(self.config, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Exact product over integer numerators: each factor is scaled once by the
        lcm ``L`` of its denominators, term pairs accumulate as ints in schoolbook
        order, and each output coefficient is built once from ``n / (L1 * L2)``.
        Cost: one int multiply-add per pair of terms, one gcd per output term
        when ``L1 * L2 > 1``.  A zero factor returns zero at once.
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return LaurentElement._trusted(self.config, {})
        L1, xs = _int_terms(self.terms)
        L2, ys = _int_terms(o.terms)
        acc: dict = {}
        get = acc.get
        for (e1, i1), n1 in xs:
            for (e2, i2), n2 in ys:
                k = (tuple(map(add, e1, e2)), tuple(map(add, i1, i2)))
                acc[k] = get(k, 0) + n1 * n2
        L = L1 * L2
        if L == 1:
            return LaurentElement._trusted(self.config, {k: n for k, n in acc.items() if n})
        return LaurentElement._trusted(self.config, {k: _ratio(n, L) for k, n in acc.items() if n})

    __rmul__ = __mul__

    def exact_div(self, other) -> "LaurentElement":
        """The quotient ``self / other``, which must lie in the Laurent ring.

        Long division by the lex-leading term of the keys ``(e, i)``, so it divides
        in every ``u_j`` and ``t_k`` at once.  Newton polytopes add under products,
        so each exponent of an exact quotient lies between those of
        ``min(self) - min(other)`` and ``max(self) - max(other)``.  A key outside
        that finite box raises ``ValueError("not an exact divisor")``; the keys fall
        strictly, so the division ends.  ``ZeroDivisionError`` if ``other`` is zero.
        """
        o = self._coerce(other)
        if o is None:
            raise TypeError("exact_div needs a Laurent or rational divisor")
        if not o.terms:
            raise ZeroDivisionError("exact_div by zero")
        (be, bi), bc = lead = max(o.terms.items())
        rest = [kc for kc in o.terms.items() if kc != lead]
        box = [(min(x) - min(y), max(x) - max(y)) for x, y in
               zip(zip(*(e + i for e, i in self.terms)), zip(*(e + i for e, i in o.terms)))]
        rem, q = dict(self.terms), {}
        while rem:
            top = max(rem)
            ke, ki = key = (tuple(map(sub, top[0], be)), tuple(map(sub, top[1], bi)))
            if any(not lo <= x <= hi for x, (lo, hi) in zip(ke + ki, box)):
                raise ValueError("not an exact divisor")
            c = q[key] = _ratio(rem.pop(top), bc)
            for (e, i), b in rest:
                k = (tuple(map(add, ke, e)), tuple(map(add, ki, i)))
                v = rem.get(k, 0) - c * b
                if v:
                    rem[k] = v
                else:
                    del rem[k]
        return LaurentElement._trusted(self.config, q)

    def __pow__(self, n: int):
        if n < 0:  # the units of the Laurent ring are its monomials
            return self.config.one().exact_div(self) ** -n
        result = self.config.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derive(self, axis: str) -> "LaurentElement":
        """Exact formal partial derivative along the named axis.

        Lowering one exponent is injective on keys and ``c * exp`` is nonzero,
        so no terms collide or cancel and the result skips re-validation.
        """
        kind, idx = self.config.axis_kind(axis)
        out: dict = {}
        for (e, i), c in self.terms.items():
            exp = e[idx] if kind == "u" else i[idx]
            if exp == 0:
                continue
            if kind == "u":
                k = (e[:idx] + (exp - 1,) + e[idx + 1 :], i)
            else:
                k = (e, i[:idx] + (exp - 1,) + i[idx + 1 :])
            out[k] = c * exp
        return LaurentElement._trusted(self.config, out)

    def substitute_geom(self, matrix: Sequence) -> "LaurentElement":
        """Monomial substitution ``t_i -> s^(column i of matrix)`` on exponents."""
        n = self.config.n_geom
        out: dict = {}
        for (e, i), c in self.terms.items():
            new_i = tuple(
                sum(matrix[row][col] * i[col] for col in range(n)) for row in range(n)
            )
            k = (e, new_i)
            out[k] = out.get(k, Fraction(0)) + c
        return LaurentElement(self.config, out)

    def gauss_valuation(self, r: Sequence) -> ValuationValue:
        """Least ``ord_p(c) + e.w + i.r`` over the terms; INF iff zero.

        With ``D`` the lcm of the denominators of ``r`` and the u-weights, ``D`` times
        a term's valuation is the integer ``x + D ord_p(c)``, ``x = e.(D w) + i.(D r)``
        (:func:`_valued_terms`).  Terms are visited by increasing ``x`` until
        ``x - D ord_p(L)`` reaches the least value so far, ``L`` the lcm of the
        coefficient denominators.  The bound is exact: ``c L`` is an integer, so
        ``ord_p(c) >= -ord_p(L)``.  ``ValueError`` unless ``r`` has one entry per
        geometric variable (:func:`_fiber_scale`).
        """
        D, vals = _valued_terms(self.config, self.terms, r, least=True)
        return Fraction(vals[-1][0], D) if vals else INF

    def truncate(self, r: Sequence, cut) -> "LaurentElement":
        """The terms of valuation ``<= cut`` at the fiber ``r``, integral coefficients as ints."""
        _, vals = _valued_terms(self.config, self.terms, r, cut)
        return LaurentElement._trusted(
            self.config, {k: c.numerator if c.denominator == 1 else c for _, k, c in vals})

    def truncated_mul(self, other: "LaurentElement", r: Sequence, cut) -> "LaurentElement":
        """``(self * other).truncate(r, cut)``, without forming the pairs beyond ``cut``.

        Both factors are scaled to integer numerators as in ``__mul__`` and sorted by
        exponent part ``x`` at ``r`` (:func:`_fiber_scale`).  A pair with
        ``x1 + x2 - D ord_p(L1 L2) > cut D`` is skipped: every pair landing on its key
        has the same exponent part, and the sum there is an integer over ``L1 L2``,
        so the key's valuation exceeds ``cut`` and no kept coefficient changes.
        """
        cfg = self.config
        if not self.terms or not other.terms:
            return LaurentElement._trusted(cfg, {})
        D, part = _fiber_scale(cfg, tuple(r))
        (L1, xs), (L2, ys) = (_int_terms(x.terms) for x in (self, other))
        xs, ys = (sorted(((part(k), k, n) for k, n in zs), key=itemgetter(0)) for zs in (xs, ys))
        L = L1 * L2
        top = floor(cut * D) + (D * _ord_int(L, cfg.p) if cfg.p else 0)
        acc: dict = {}
        get = acc.get
        for x1, (e1, i1), n1 in xs:
            for x2, (e2, i2), n2 in ys:
                if x1 + x2 > top:
                    break
                k = (tuple(map(add, e1, e2)), tuple(map(add, i1, i2)))
                acc[k] = get(k, 0) + n1 * n2
        return LaurentElement._trusted(cfg, {k: _ratio(n, L) for k, n in acc.items() if n}
                                       ).truncate(r, cut)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (e, i), c in sorted(self.terms.items()):
            part = [str(c)]
            part += [f"u{j+1}^{x}" for j, x in enumerate(e) if x]
            part += [f"t{k+1}^{x}" for k, x in enumerate(i) if x]
            bits.append("*".join(part))
        return " + ".join(bits)


def _int_terms(terms: dict):
    """``(L, [(key, c * L)])`` with ``L`` the lcm of the coefficient denominators."""
    L = lcm(*(c.denominator for c in terms.values()))
    return L, [(k, c.numerator * (L // c.denominator)) for k, c in terms.items()]


@lru_cache(maxsize=256)
def _fiber_scale(cfg: ValuationConfig, r: tuple):
    """``(D, part)``, built once per configuration and fiber (a tuple): ``D`` the lcm of the
    denominators of ``r`` and the u-weights, ``part((e, i))`` the integer ``e.(D w) + i.(D r)``.
    ``ValueError`` unless ``r`` has one entry per geometric variable."""
    if len(r) != cfg.n_geom:
        raise ValueError(f"fiber vector has length {len(r)}, expected {cfg.n_geom}")
    r = [Fraction(q) for q in r]
    D = lcm(*(q.denominator for q in (*cfg.u_weights, *r)))
    dw, dr = ([q.numerator * (D // q.denominator) for q in qs] for qs in (cfg.u_weights, r))
    return D, lambda key: sum(map(mul, key[0], dw), sum(map(mul, key[1], dr)))


def _valued_terms(cfg: ValuationConfig, terms: dict, r: Sequence, cut=None, least=False):
    """``(D, [(v, key, c)])``: the terms valued at the fiber ``r`` on one integer scale.

    The library's one term valuation: ``v``, ``D`` (:func:`_fiber_scale`) times that
    of ``c u^e t^i``, is the integer ``x + D ord_p(c)``.  Terms are visited by
    increasing exponent part ``x``, with ``v >= x - D ord_p(L)``, ``L`` the lcm of
    the coefficient denominators.  Given a rational ``cut``, only terms of valuation
    ``<= cut`` come back and the visit stops once that bound passes ``cut``;
    ``least`` lowers the cut below each value kept, so the last is the least.
    """
    p = cfg.p
    D, part = _fiber_scale(cfg, tuple(r))
    low = D * _ord_int(lcm(*(c.denominator for c in terms.values())), p) if p else 0
    cut = None if cut is None else floor(cut * D)
    out = []
    for x, key, c in sorted(((part(k), k, c) for k, c in terms.items()), key=itemgetter(0)):
        if cut is not None and x - low > cut:
            break
        v = x + D * (_ord_int(c.numerator, p) - _ord_int(c.denominator, p)) if p else x
        if cut is None or v <= cut:
            out.append((v, key, c))
            if least:
                cut = v - 1
    return D, out


def _ratio(n: int, d) -> Union[int, Fraction]:
    """The coefficient ``n / d``: an ``int`` when integral, else a ``Fraction``."""
    c = Fraction(n, d)
    return c.numerator if c.denominator == 1 else c


class FracElement:
    """A quotient ``num/den`` of Laurent elements; the computable fraction field.

    Gauss valuations extend multiplicatively: ``v(num/den) = v(num) - v(den)``.
    ``num`` and ``den`` are stored as given, with no normalization (a zero
    numerator gets denominator 1), so the results ``n_i / delta`` of one
    fraction-free solve (:func:`solve_fraction_free`) keep the one ``delta``.
    Equal elements may store different ``num``/``den``, so the class is unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentElement, den: LaurentElement = None):
        if den is None:
            den = num.config.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = num.config.one()
        self.num = num
        self.den = den

    @property
    def config(self) -> ValuationConfig:
        return self.num.config

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    @staticmethod
    def lift(x) -> "FracElement":
        """``x`` as a fraction: a fraction as it is, a Laurent element over 1."""
        return x if isinstance(x, FracElement) else FracElement(x)

    def _coerce(self, other) -> "FracElement":
        if isinstance(other, (int, Fraction)):
            other = self.config.scalar(other)
        if isinstance(other, (FracElement, LaurentElement)):
            return FracElement.lift(other)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den)._key == (o.num * self.den)._key

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FracElement(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return FracElement(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FracElement(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError
        return FracElement(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def derive(self, axis: str) -> "FracElement":
        n, d = self.num, self.den
        return FracElement(n.derive(axis) * d - n * d.derive(axis), d * d)

    def gauss_valuation(self, r: Sequence) -> ValuationValue:
        if self.is_zero():
            return INF
        return self.num.gauss_valuation(r) - self.den.gauss_valuation(r)

    def __repr__(self):
        if self.den == self.config.one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def gauss_valuation(x, r: Sequence) -> ValuationValue:
    """The Gauss valuation of a Laurent or fraction element at the fiber ``r``.

    Minimum over monomials of ``ord_p(c) + e.w + i.r``, and ``v(num) - v(den)``
    for a fraction; INF iff ``x == 0``.  For ``p = 0`` the coefficient
    valuation is the zero map and the u-weights carry the valuation.
    """
    return x.gauss_valuation(r)


def solve_fraction_free(A, B):
    """Bareiss solution ``(N, delta)`` of ``A X = B`` over the Laurent ring: ``X = N / delta``.

    A row of ``[A | B]`` holding ``FracElement`` entries is cleared first: each entry
    (a fraction by its numerator) times the denominators of the row's other fractions,
    so a 1x1 system costs two cross products.  Each column takes the first nonzero
    pivot, swapping rows, and each update ``pivot * M_ij - M_ik * M_kj`` is divided
    exactly by the previous pivot (Sylvester's identity), so entries stay minors and
    ``delta``, the last pivot, is ``det A`` of the cleared rows up to sign.  It heads
    the last row, whose right-hand side is the last numerator; back substitution
    ``N_i = (delta B_i - sum_{j>i} U_ij N_j) / U_ii`` is exact for the others, Cramer
    minors too.  ``n = 0`` gives ``([], 1)``; ``ZeroDivisionError`` iff ``det A = 0``.
    """
    n = len(A)
    M = [list(a) + list(b) for a, b in zip(A, B)]
    for row in M:
        dens = [x.den if isinstance(x, FracElement) else None for x in row]
        row[:] = [prod((d for j, d in enumerate(dens) if d is not None and j != i),
                       start=x if d is None else x.num) for i, (x, d) in enumerate(zip(row, dens))]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[k], M[piv] = M[piv], M[k]
        for row in M[k + 1:]:
            row[k + 1:] = [(M[k][k] * x - row[k] * y).exact_div(prev)
                           for x, y in zip(row[k + 1:], M[k][k + 1:])]
        prev = M[k][k]
    N = [None] * n
    for i in reversed(range(n)):
        row = M[i]
        N[i] = row[n:] if i == n - 1 else [
            (prev * b - sum((row[j] * N[j][c] for j in range(i + 1, n)), 0)).exact_div(row[i])
            for c, b in enumerate(row[n:])]
    return N, prev


def valuation_function(
    x, axis: str, window, frozen: Sequence = ()
) -> PiecewiseAffine:
    """The exact function ``r_k -> gauss_valuation(x, r)`` along one geometric axis.

    ``frozen`` supplies the full fiber vector; the coordinate for ``axis`` is
    overwritten by the variable.  The result is the lower envelope of one line
    per monomial (slope = that monomial's exponent on the axis), a concave
    piecewise-affine function.  For fraction elements it is the exact
    difference of the two envelopes.
    """
    lo, hi = window
    if isinstance(x, FracElement):
        f = valuation_function(x.num, axis, window, frozen)
        g = valuation_function(x.den, axis, window, frozen)
        return f - g
    cfg = x.config
    kind, idx = cfg.axis_kind(axis)
    if kind != "t":
        raise ValueError("valuation_function varies a geometric axis")
    if x.is_zero():
        raise ValueError("valuation_function of the zero element")
    frozen = list(frozen) if frozen else [Fraction(0)] * cfg.n_geom
    if len(frozen) != cfg.n_geom:
        raise ValueError("frozen vector length mismatch")
    rest = [Fraction(v) for v in frozen]
    rest[idx] = Fraction(0)
    D, vals = _valued_terms(cfg, x.terms, rest)
    return min_of_lines([(Fraction(key[1][idx]), Fraction(v, D)) for v, key, _ in vals], lo, hi)


def is_unit_on_annulus(x, axis: str, window, frozen: Sequence = ()) -> bool:
    """True iff the valuation function is affine on the open window.

    Equivalently, the element has no slope of its Newton polygon (in the axis
    variable) strictly inside the window, so it inverts on the open annulus.
    """
    if x.is_zero():
        raise ValueError("zero element is not a unit")
    lo, hi = window
    f = valuation_function(x, axis, window, frozen)
    return f.is_affine_on_open(lo, hi)

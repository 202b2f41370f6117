"""Finitely supported weight functions, multiplicative functions under the
divisor-sum constraint (1*f)(n) <= n, pair systems, and their exact measures.

All values are exact rationals; a weight's support is exactly its key set
(zero-valued entries are dropped on construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Optional

from .arith import Rational, factorize, fraction_str, is_prime, prime_divisors
from .errors import IncompleteDefinition, InvalidParameter

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_PRECISION_CAP = 1 << 14


def _rational(value) -> Fraction:
    """value as a Fraction; a float or a bool is no exact rational input.

    An exact Fraction comes back as it is (it is immutable, so a copy would
    gain nothing) and an exact int is converted directly, both before the
    bool/float test; anything else goes through that test, then Fraction().
    """
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, (bool, float)):
        raise InvalidParameter(f"{value!r} is not an exact rational")
    return Fraction(value)


def _check_precision(bits, name: str) -> None:
    """InvalidParameter, led by name, unless bits is an int (not a bool) in
    [16, DEFAULT_PRECISION_CAP]."""
    if type(bits) is not int:
        raise InvalidParameter(f"{name} must be an integer, got {bits!r}")
    if not 16 <= bits <= DEFAULT_PRECISION_CAP:
        raise InvalidParameter(f"{name} outside [16, 2^14]: {bits}")


def _numeral(text: str) -> int:
    """The int that text spells as str(n); InvalidParameter for any other
    spelling, such as "1_0", " 3 ", "+4" or "03"."""
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or str(n) != text:
        raise InvalidParameter(f"{text!r} is not an integer numeral")
    return n


class WeightFunction:
    """Finite map from positive integers to strictly positive rationals."""

    __slots__ = ("_table", "_support")

    def __init__(self, table: Optional[Mapping[int, Rational]] = None):
        tbl: dict[int, Fraction] = {}
        for k, val in (table or {}).items():
            if type(k) is not int:
                raise InvalidParameter(f"weight support element {k!r} is not an integer")
            if k < 1:
                raise InvalidParameter(f"weight support element {k} < 1")
            v = _rational(val)
            if v.numerator < 0:
                raise InvalidParameter(f"negative weight at {k}: {v}")
            if not v.numerator:
                continue  # zero means "not in support"
            tbl[k] = v
        object.__setattr__(self, "_table", tbl)
        object.__setattr__(self, "_support", tuple(sorted(tbl)))

    @classmethod
    def _scaled(cls, items: Iterable[tuple[int, Fraction]], scale: int) -> "WeightFunction":
        """x -> scale * value over the (x, value) items of a validated weight,
        scale a positive integer: no entry is checked again."""
        tbl = {x: val * scale if scale != 1 else val for x, val in items}
        wf = object.__new__(cls)
        object.__setattr__(wf, "_table", tbl)
        object.__setattr__(wf, "_support", tuple(sorted(tbl)))
        return wf

    def __setattr__(self, *args):
        raise AttributeError("WeightFunction is immutable")

    def value(self, v: int) -> Fraction:
        return self._table.get(v, _ZERO)

    def support(self) -> tuple[int, ...]:
        return self._support

    def items(self):
        for k in self._support:
            yield k, self._table[k]

    def __contains__(self, v: int) -> bool:
        return v in self._table

    def __len__(self) -> int:
        return len(self._table)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightFunction) and self._table == other._table

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        entries = ", ".join(f"{k}: {v}" for k, v in list(self.items())[:6])
        more = "" if len(self) <= 6 else f", ... ({len(self)} entries)"
        return f"WeightFunction({{{entries}{more}}})"

    def to_json(self) -> dict[str, str]:
        return {str(k): str(v) for k, v in self.items()}

    @classmethod
    def from_json(cls, doc: Mapping[str, str]) -> "WeightFunction":
        return cls({_numeral(k): v for k, v in doc.items()})


class MultiplicativeFunction:
    """A multiplicative f given by its values on prime powers (f(1) = 1).

    Evaluation at n multiplies the table entries along factorize(n); a
    consulted prime power missing from the table raises
    IncompleteDefinition.  The Euler totient is available as a closed-form
    preset.
    """

    __slots__ = ("_table", "_name")

    def __init__(
        self,
        prime_power_table: Optional[Mapping[tuple[int, int], Rational]] = None,
        name: Optional[str] = None,
    ):
        table = None
        if prime_power_table is not None:
            table = {}
            for (p, a), val in prime_power_table.items():
                if type(p) is not int or type(a) is not int:
                    raise InvalidParameter(f"prime power {p!r}^{a!r} is not of integers")
                if a < 1:
                    raise InvalidParameter(f"prime-power exponent {a} < 1")
                if not is_prime(p):
                    raise InvalidParameter(f"prime-power base {p} is not prime")
                v = _rational(val)
                if v.numerator < 0:
                    raise InvalidParameter(f"negative value at {p}^{a}: {v}")
                table[(p, a)] = v
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_name", name)

    def __setattr__(self, *args):
        raise AttributeError("MultiplicativeFunction is immutable")

    @classmethod
    def totient(cls) -> "MultiplicativeFunction":
        return cls(None, name="totient")

    @property
    def name(self) -> Optional[str]:
        return self._name

    def is_totient(self) -> bool:
        return self._name == "totient"

    def prime_power(self, p: int, a: int) -> Fraction:
        if a == 0:
            return _ONE
        if self.is_totient():
            return Fraction(p**a - p ** (a - 1))
        try:
            return self._table[(p, a)]
        except (KeyError, TypeError) as exc:
            raise IncompleteDefinition(
                f"{self!r} is undefined at {p}^{a}"
            ) from exc

    def __call__(self, n: int) -> Fraction:
        out = _ONE
        for p, e in factorize(n):
            out *= self.prime_power(p, e)
        return out

    def one_star_prime_power(self, p: int, a: int) -> Fraction:
        """(1*f)(p^a) = sum_{b<=a} f(p^b)."""
        total = _ONE
        for b in range(1, a + 1):
            total += self.prime_power(p, b)
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiplicativeFunction):
            return NotImplemented
        return self._name == other._name and self._table == other._table

    def __hash__(self):
        tbl = None if self._table is None else tuple(sorted(self._table.items()))
        return hash((self._name, tbl))

    def __repr__(self):
        if self.is_totient():
            return "MultiplicativeFunction.totient()"
        n = len(self._table or {})
        return f"MultiplicativeFunction(<{n} prime powers>)"

    def to_json(self):
        if self.is_totient():
            return "totient"
        return {f"{p}^{a}": str(v) for (p, a), v in sorted((self._table or {}).items())}

    @classmethod
    def from_json(cls, doc) -> "MultiplicativeFunction":
        if doc == "totient":
            return cls.totient()
        table = {}
        for key, v in doc.items():
            p_str, a_str = key.split("^")
            table[(_numeral(p_str), _numeral(a_str))] = v
        return cls(table)


def check_fields(config) -> None:
    """Validate a frozen config dataclass in place by its (string) field
    annotations: a Fraction field goes through _rational, so a float or a
    bool raises InvalidParameter, as does an int field holding a non-int (a
    bool, a float, a numeral string)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "Fraction":
            object.__setattr__(config, f.name, _rational(value))
        elif f.type == "int" and type(value) is not int:
            raise InvalidParameter(f"{f.name} must be an integer, got {value!r}")


def fields_to_json(config) -> dict:
    """A config dataclass as a JSON object in field order: a Fraction as
    "p/q", a nested config through its own to_json, a None field left out."""
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, Fraction):
            value = fraction_str(value)
        elif hasattr(value, "to_json"):
            value = value.to_json()
        if value is not None:
            doc[f.name] = value
    return doc


@dataclass(frozen=True)
class MultiplicativeValidation:
    accepted: bool
    failures: tuple[tuple[int, int, Fraction], ...]  # (p, a, (1*f)(p^a))


def validate_multiplicative(
    f: MultiplicativeFunction, prime_powers: Iterable[tuple[int, int]]
) -> MultiplicativeValidation:
    """Accept iff (1*f)(p^a) <= p^a for each listed prime power.

    By multiplicativity of 1*f this certifies (1*f)(n) <= n for every n
    composed of the listed prime powers.
    """
    failures = []
    for p, a in prime_powers:
        val = f.one_star_prime_power(p, a)
        if val > p**a:
            failures.append((p, a, val))
    return MultiplicativeValidation(not failures, tuple(failures))


@dataclass(frozen=True)
class PairSystem:
    """(psi, theta, f, g) with an edge set inside supp(psi) x supp(theta).

    masses is the vertex-mass view vertex_masses(self): every vertex mass
    as an integer over its side's common denominator, plus every vertex's
    factorization. primes is prime_support(psi, theta). Both are built on
    first use and kept on the instance for its lifetime; the fields are
    immutable, so they never go stale, and a new system
    (dataclasses.replace, a slice) builds its own.
    """

    psi: WeightFunction
    theta: WeightFunction
    f: MultiplicativeFunction
    g: MultiplicativeFunction
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        norm = frozenset((v, w) for v, w in self.edges)
        object.__setattr__(self, "edges", norm)
        for v, w in norm:
            if type(v) is not int or type(w) is not int:
                raise InvalidParameter(f"edge ({v!r}, {w!r}) has a non-integer vertex")
            if v not in self.psi or w not in self.theta:
                raise InvalidParameter(f"edge ({v},{w}) leaves the supports")

    def canonical_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    @cached_property
    def masses(self) -> tuple["SideMasses", "SideMasses"]:
        return vertex_masses(self)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        return prime_support(self.psi, self.theta)


def prime_support(psi: WeightFunction, theta: WeightFunction) -> tuple[int, ...]:
    """Primes dividing vw for some (v,w) in supp(psi) x supp(theta)."""
    if not psi.support() or not theta.support():
        return ()
    ps: set[int] = set()
    for v in psi.support():
        ps.update(prime_divisors(v))
    for w in theta.support():
        ps.update(prime_divisors(w))
    return tuple(sorted(ps))


def mu_point(f: MultiplicativeFunction, psi: WeightFunction, v: int) -> Fraction:
    """mu_psi^f(v) = f(v) psi(v) / v (zero off the support)."""
    w = psi.value(v)
    if w == 0:
        return _ZERO
    return f(v) * w / v


def mu_set(f: MultiplicativeFunction, psi: WeightFunction, S: Iterable[int]) -> Fraction:
    total = _ZERO
    for v in S:
        total += mu_point(f, psi, v)
    return total


def mu_pairs(system: PairSystem, edges: Optional[Iterable[tuple[int, int]]] = None) -> Fraction:
    """mu_{psi,theta}^{f,g}(E) = sum over E of mu(v) mu(w), exactly, as an
    integer sum over the system's vertex-mass view (not built for an empty
    E)."""
    E = system.edges if edges is None else edges
    if not E:
        return _ZERO
    V, W = system.masses
    return Fraction(edge_mass(V, W, E), V.den * W.den)


@dataclass(frozen=True)
class SideMasses:
    """The vertex masses of one side over one common denominator.

    mu(x) = num[x] / den for every x in the support, den being the lcm of
    the masses' denominators, so a sum of masses is an integer sum; nu[x]
    is the factorization {p: nu_p(x)}.
    """

    num: dict[int, int]
    den: int
    nu: dict[int, dict[int, int]]

    def exponents(self, x: int) -> dict[int, int]:
        """{p: nu_p(x)}, also off the support."""
        nu = self.nu.get(x)
        return dict(factorize(x)) if nu is None else nu

    def measure(self) -> Fraction:
        """mu of the whole support."""
        return Fraction(sum(self.num.values()), self.den)


def edge_mass(V: SideMasses, W: SideMasses, E: Iterable[tuple[int, int]]) -> int:
    """mu(E) * V.den * W.den."""
    return sum(V.num.get(v, 0) * W.num.get(w, 0) for v, w in E)


def _f_ratio(f: MultiplicativeFunction, fac: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """f(x) as a (numerator, positive denominator) pair, not reduced, from
    the factorization fac of x; the totient's p^a - p^(a-1) as integers."""
    if f.is_totient():
        n = 1
        for p, e in fac:
            n *= (p - 1) * p ** (e - 1)
        return n, 1
    n = d = 1
    for p, e in fac:
        val = f.prime_power(p, e)
        n *= val.numerator
        d *= val.denominator
    return n, d


def _side_masses(f: MultiplicativeFunction, weight: WeightFunction) -> SideMasses:
    """mu(x) = f(x) weight(x) / x in lowest terms from plain integers along
    factorize(x), one gcd per vertex, then over the lcm of the denominators."""
    reduced, nu = {}, {}
    for x, wx in weight.items():
        fac = factorize(x)
        fn, fd = _f_ratio(f, fac)
        n, d = wx.numerator * fn, wx.denominator * x * fd
        g = gcd(n, d)
        reduced[x] = (n // g, d // g)
        nu[x] = dict(fac)
    den = lcm(*(d for _, d in reduced.values()))
    return SideMasses({x: n * (den // d) for x, (n, d) in reduced.items()}, den, nu)


def vertex_masses(system: PairSystem) -> tuple[SideMasses, SideMasses]:
    """mu_psi^f over supp(psi) and mu_theta^g over supp(theta), computed once."""
    return _side_masses(system.f, system.psi), _side_masses(system.g, system.theta)


TOTIENT = MultiplicativeFunction.totient()

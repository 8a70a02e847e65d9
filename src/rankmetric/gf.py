"""Exact arithmetic in small finite fields GF(p^k).

Elements are represented in the polynomial basis: a length-k vector of
residues mod p, reduced modulo a fixed monic irreducible polynomial.
Every element has exactly one encoding, so equality is bitwise and
values are safe to hash, serialize, and share across threads (specs and
elements are immutable after construction).

A ``FieldSpec`` precomputes full addition/multiplication tables over the
integer encoding ``sum(coeffs[i] * p**i)``; the dense linear algebra in
:mod:`rankmetric.matrix` runs on those tables. Irreducibility of the
modulus is verified at construction by trial division, so a spec that
constructs is a field, not a hope.
"""

from __future__ import annotations

from .errors import (
    FormatError,
    NoBuiltinModulus,
    NonPrime,
    ReducibleModulus,
    SpecMismatch,
    TooLarge,
    ZeroInverse,
)

# Default moduli (constant term first) for the extension fields with
# q = p^k <= 64. Prime fields use the degree-1 modulus x.
_BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
}

# Largest order field_for_order accepts: the add and mul tables hold q^2
# entries each, and factoring q is trial division.
_MAX_ORDER = 256

_SPEC_CACHE: dict[tuple, "FieldSpec"] = {}


def _least_factor(n: int) -> int:
    """Smallest prime factor of n >= 2 (n itself when n is prime)."""
    p = 2
    while p * p <= n and n % p:
        p += 1
    return p if p * p <= n else n


def _is_prime(n: int) -> bool:
    return n >= 2 and _least_factor(n) == n


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of polynomials over GF(p); den must be monic-led."""
    num = list(num)
    dn = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = (num[i] * lead_inv) % p
        if c:
            quot[i - dn] = c
            for j, d in enumerate(den):
                num[i - dn + j] = (num[i - dn + j] - c * d) % p
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    k = len(modulus) - 1
    if k == 1:
        return True
    # Trial division by every monic polynomial of degree 1 .. k//2.
    for deg in range(1, k // 2 + 1):
        for tail in range(p ** deg):
            cand = []
            t = tail
            for _ in range(deg):
                cand.append(t % p)
                t //= p
            cand.append(1)
            _, rem = _poly_divmod(list(modulus), cand, p)
            if not rem:
                return False
    return True


class FieldSpec:
    """An exact finite field GF(p^k) with precomputed operation tables."""

    __slots__ = ("p", "k", "modulus", "q", "_add", "_mul", "_neg", "_inv", "_hash")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        if not _is_prime(p):
            raise NonPrime(f"{p} is not prime")
        if k < 1:
            raise FormatError("degree must be at least 1")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise FormatError("modulus must be monic of degree exactly k")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"modulus {list(modulus)} factors over GF({p})")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.q = p ** k
        self._hash = hash((p, k, modulus))  # specs key every per-field cache
        self._build_tables()

    # integer encoding: value = sum(coeffs[i] * p**i), coeffs[i] in [0, p)

    def coeffs_of(self, value: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(value % self.p)
            value //= self.p
        return tuple(out)

    def value_of(self, coeffs) -> int:
        v = 0
        for c in reversed(list(coeffs)):
            v = v * self.p + (c % self.p)
        return v

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        mod = self.modulus
        add = []
        mul = []
        all_coeffs = [self.coeffs_of(v) for v in range(q)]
        for a in range(q):
            ca = all_coeffs[a]
            for b in range(q):
                cb = all_coeffs[b]
                add.append(self.value_of((x + y) % p for x, y in zip(ca, cb)))
        for a in range(q):
            ca = all_coeffs[a]
            for b in range(q):
                cb = all_coeffs[b]
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(ca):
                    if x:
                        for j, y in enumerate(cb):
                            prod[i + j] = (prod[i + j] + x * y) % p
                _, rem = _poly_divmod(prod, list(mod), p)
                rem += [0] * (k - len(rem))
                mul.append(self.value_of(rem))
        self._add = tuple(add)
        self._mul = tuple(mul)
        self._neg = tuple(self.value_of((-c) % p for c in all_coeffs[a]) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    inv[a] = b
                    break
        self._inv = tuple(inv)

    # int-level arithmetic used by the matrix kernels

    def add_v(self, a: int, b: int) -> int:
        return self._add[a * self.q + b]

    def sub_v(self, a: int, b: int) -> int:
        return self._add[a * self.q + self._neg[b]]

    def mul_v(self, a: int, b: int) -> int:
        return self._mul[a * self.q + b]

    def neg_v(self, a: int) -> int:
        return self._neg[a]

    def inv_v(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("zero has no multiplicative inverse")
        return self._inv[a]

    def element(self, value) -> "FieldElement":
        """Coerce an int encoding, coefficient sequence, or element."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise SpecMismatch("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, value % self.q)
        return FieldElement(self, self.value_of(value))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.q})"


class FieldElement:
    """A single field value in canonical polynomial-basis form."""

    __slots__ = ("spec", "val")

    def __init__(self, spec: FieldSpec, val: int):
        if not 0 <= val < spec.q:
            raise FormatError(f"encoding {val} out of range for {spec!r}")
        self.spec = spec
        self.val = val

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.coeffs_of(self.val)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise SpecMismatch("operands from different fields")
            return other
        if isinstance(other, int):
            return FieldElement(self.spec, other % self.spec.q)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.spec, self.spec.add_v(self.val, o.val))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.spec, self.spec.sub_v(self.val, o.val))

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.spec, self.spec.mul_v(self.val, o.val))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_v(self.val))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv_v(self.val))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = FieldElement(self.spec, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.spec.q
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.val))

    def __repr__(self):
        return f"{self.val}:{self.spec!r}"


def field_make(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Build (and cache) a validated field GF(p^k).

    Without an explicit modulus the built-in table supplies one for
    q <= 64; prime fields always use the modulus x.
    """
    if not _is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if modulus is None:
        if k == 1:
            modulus = (0, 1)
        elif (p, k) in _BUILTIN_MODULI:
            modulus = _BUILTIN_MODULI[(p, k)]
        else:
            raise NoBuiltinModulus(f"no built-in modulus for GF({p}^{k})")
    modulus = tuple(int(c) % p for c in modulus)
    key = (p, k, modulus)
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, k, modulus)
        _SPEC_CACHE[key] = spec
    return spec


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k; ``NonPrime`` if none, ``TooLarge`` above 2^32."""
    if q > 1 << 32:  # so that trial division takes at most 2^16 steps
        raise TooLarge(f"order {q} exceeds 2^32, the limit for factoring")
    if q >= 2:
        p = _least_factor(q)
        k = 0
        m = q
        while m % p == 0:
            m //= p
            k += 1
        if m == 1:
            return p, k
    raise NonPrime(f"{q} is not a prime power")


def field_for_order(q: int) -> FieldSpec:
    """The built-in field with exactly q elements (q a prime power; extension
    fields up to 64, prime fields up to 256)."""
    if q > _MAX_ORDER:
        raise TooLarge(f"field order {q} exceeds {_MAX_ORDER}")
    return field_make(*prime_power(q))

"""Dense truth tables packed into one Python int.

A :class:`TruthTable` over ``r`` variables stores the function value for all
``2**r`` input vectors.  Minterm *i* encodes the assignment where bit *j* of
*i* is the value of variable *j* (variable 0 is the least significant bit).

The table is the int :attr:`TruthTable.bits`, where bit *m* is the value at
minterm *m*.  Every benchmark function in the paper has at most 11 inputs,
so a table is at most 2048 bits and arbitrary-precision AND/OR/XOR on that
one int does the work of a vectorized array pass.  Operations that move
minterms around (cofactor, input polarity flips, lift) are a few
shifts and masks per variable — O(n) big-int operations, never a loop
over the ``2**n`` minterms.  ``bits.to_bytes(..., "little")`` is the packed
little-endian rendering that cache keys and wire payloads store.

Nothing here imports numpy: :meth:`TruthTable.random` takes the caller's
``numpy.random.Generator`` and only calls methods on what it returns.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import DimensionError
from repro.boolf.cube import Cube

__all__ = ["TruthTable", "interval_upper"]

_MAX_VARS = 24  # 16M entries; a deliberate guard against accidental blowups

# ------------------------------------------------------------- mask kernels
_VAR_PATTERN_CACHE: dict[tuple[int, int], int] = {}


def _full(num_vars: int) -> int:
    """The constant-1 table over ``num_vars`` variables."""
    return (1 << (1 << num_vars)) - 1


def _var_pattern(var: int, num_vars: int) -> int:
    """The projection ``x_var`` as a 2**num_vars-bit mask (bit m set iff
    bit ``var`` of m is set) — 0xAAAA.., 0xCCCC.., 0xF0F0.. patterns,
    built by doubling instead of a per-minterm loop."""
    key = (var, num_vars)
    cached = _VAR_PATTERN_CACHE.get(key)
    if cached is not None:
        return cached
    block = 1 << var
    pattern = ((1 << block) - 1) << block  # [block zeros][block ones]
    span = block << 1
    total = 1 << num_vars
    while span < total:
        pattern |= pattern << span
        span <<= 1
    _VAR_PATTERN_CACHE[key] = pattern
    return pattern


def _cube_bits(pos: int, neg: int, num_vars: int) -> int:
    """Characteristic mask of the cube ``(pos, neg)`` over ``num_vars``."""
    acc = _full(num_vars)
    lits = pos | neg
    var = 0
    while lits:
        if lits & 1:
            pattern = _var_pattern(var, num_vars)
            acc = acc & pattern if pos >> var & 1 else acc & ~pattern
        lits >>= 1
        var += 1
    return acc


def _flip(bits: int, var: int, num_vars: int) -> int:
    """``g(x) = f(x ^ (1 << var))``: swap the two halves of every block."""
    block = 1 << var
    high = _var_pattern(var, num_vars)
    return (bits & high) >> block | (bits & ~high) << block


def _cofactor_bits(bits: int, var: int, value: bool, num_vars: int) -> int:
    """The cofactor ``f|x_var=value`` over ``num_vars - 1`` variables."""
    block = 1 << var
    if value:
        bits >>= block
    full = _full(num_vars)
    bits &= full ^ _var_pattern(var, num_vars)
    # The kept blocks sit at every other slot; halve the gaps one level
    # at a time until they are contiguous.
    for level in range(var + 1, num_vars):
        bits = (bits | bits >> block) & (full ^ _var_pattern(level, num_vars))
        block <<= 1
    return bits


def _check_vars(num_vars: int) -> None:
    if num_vars < 0 or num_vars > _MAX_VARS:
        raise DimensionError(f"num_vars out of range: {num_vars}")


def _set_bits(bits: int) -> list[int]:
    """Positions of the set bits, ascending."""
    digits = bin(bits)[:1:-1]  # least significant digit first
    return [i for i, d in enumerate(digits) if d == "1"]


def interval_upper(
    on: "TruthTable",
    dc: Optional["TruthTable"],
    error: type[Exception] = ValueError,
) -> "TruthTable":
    """``on | dc``, the largest admissible function of the incompletely
    specified function ``(on, dc)``; raises ``error`` when the two sets
    overlap."""
    if dc is None:
        return on
    if on.overlaps(dc):
        raise error("onset and don't-care set overlap")
    return on | dc


class TruthTable:
    """A completely specified Boolean function of ``num_vars`` inputs."""

    __slots__ = ("bits", "num_vars")

    def __init__(self, bits: int, num_vars: int) -> None:
        _check_vars(num_vars)
        if not isinstance(bits, int):
            raise TypeError(
                "TruthTable takes the packed table as an int; use "
                "TruthTable.from_values for a sequence of values"
            )
        if bits < 0 or bits >> (1 << num_vars):
            raise DimensionError(
                f"table bits exceed {1 << num_vars} entries: {bits:#x}"
            )
        self.bits = bits
        self.num_vars = num_vars

    # ------------------------------------------------------------- builders
    @classmethod
    def zeros(cls, num_vars: int) -> "TruthTable":
        return cls(0, num_vars)

    @classmethod
    def ones(cls, num_vars: int) -> "TruthTable":
        _check_vars(num_vars)
        return cls(_full(num_vars), num_vars)

    @classmethod
    def variable(cls, var: int, num_vars: int) -> "TruthTable":
        """The projection function ``f(x) = x_var``."""
        if not 0 <= var < num_vars:
            raise DimensionError(f"variable {var} out of range")
        return cls(_var_pattern(var, num_vars), num_vars)

    @classmethod
    def from_minterms(cls, minterms: Iterable[int], num_vars: int) -> "TruthTable":
        _check_vars(num_vars)
        size = 1 << num_vars
        # One binary digit per minterm, most significant first: linear in
        # the table size, where OR-ing in 1 << m would copy the int each time.
        digits = bytearray(b"0") * size
        for m in minterms:
            if not 0 <= m < size:
                raise DimensionError(f"minterm {m} out of range")
            digits[size - 1 - m] = ord("1")
        return cls(int(digits, 2), num_vars)

    @classmethod
    def from_values(cls, values: Iterable[object], num_vars: int) -> "TruthTable":
        """Tabulate a sequence of ``2**num_vars`` truthy values, minterm 0
        first (a list, a tuple or a numpy bool array)."""
        digits = "".join("1" if v else "0" for v in values)
        if len(digits) != 1 << num_vars:
            raise DimensionError(
                f"expected {1 << num_vars} entries, got {len(digits)}"
            )
        return cls(int(digits[::-1], 2), num_vars)

    @classmethod
    def from_cube(cls, cube: Cube) -> "TruthTable":
        return cls(_cube_bits(cube.pos, cube.neg, cube.num_vars), cube.num_vars)

    @classmethod
    def from_cubes(cls, cubes: Sequence[Cube], num_vars: int) -> "TruthTable":
        acc = 0
        for cube in cubes:
            if cube.num_vars != num_vars:
                raise DimensionError("cube universe mismatch")
            acc |= _cube_bits(cube.pos, cube.neg, num_vars)
        return cls(acc, num_vars)

    @classmethod
    def from_function(
        cls, fn: Callable[[tuple[int, ...]], object], num_vars: int
    ) -> "TruthTable":
        """Tabulate ``fn`` which receives a tuple of 0/1 variable values."""
        return cls.from_values(
            (
                fn(tuple(m >> j & 1 for j in range(num_vars)))
                for m in range(1 << num_vars)
            ),
            num_vars,
        )

    @classmethod
    def random(cls, num_vars: int, rng, density: float = 0.5) -> "TruthTable":
        """Each entry is 1 with probability ``density``, drawn from the
        caller's ``numpy.random.Generator`` (one ``rng.random`` call)."""
        return cls.from_values(rng.random(1 << num_vars) < density, num_vars)

    # ------------------------------------------------------------ accessors
    def evaluate(self, minterm: int) -> bool:
        return bool(self.bits >> minterm & 1)

    def onset(self) -> list[int]:
        """Minterms where the function is 1."""
        return _set_bits(self.bits)

    def offset(self) -> list[int]:
        """Minterms where the function is 0."""
        return _set_bits(_full(self.num_vars) ^ self.bits)

    def count_ones(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return not self.bits

    def is_one(self) -> bool:
        return self.bits == _full(self.num_vars)

    def depends_on(self, var: int) -> bool:
        """True iff the function value changes with variable ``var``."""
        if not 0 <= var < self.num_vars:
            raise DimensionError(f"variable {var} out of range")
        low = _full(self.num_vars) ^ _var_pattern(var, self.num_vars)
        return bool((self.bits ^ self.bits >> (1 << var)) & low)

    def support(self) -> list[int]:
        """Variables the function actually depends on."""
        return [v for v in range(self.num_vars) if self.depends_on(v)]

    # ----------------------------------------------------------- operations
    def cofactor(self, var: int, value: bool) -> "TruthTable":
        """Shannon cofactor; the result has ``num_vars - 1`` variables.

        Remaining variables keep their relative order: former variable *w*
        becomes *w* if ``w < var`` else ``w - 1``.
        """
        if not 0 <= var < self.num_vars:
            raise DimensionError(f"variable {var} out of range")
        return TruthTable(
            _cofactor_bits(self.bits, var, value, self.num_vars),
            self.num_vars - 1,
        )

    def restrict(self, var: int, value: bool) -> "TruthTable":
        """Like :meth:`cofactor` but keeps the variable universe unchanged."""
        if not 0 <= var < self.num_vars:
            raise DimensionError(f"variable {var} out of range")
        block = 1 << var
        high = _var_pattern(var, self.num_vars)
        if value:
            half = self.bits & high
            return TruthTable(half | half >> block, self.num_vars)
        half = self.bits & ~high
        return TruthTable(half | half << block, self.num_vars)

    def flip_inputs(self, mask: int) -> "TruthTable":
        """``g(x) = f(x ^ mask)``: negate every input whose bit is set."""
        bits, var = self.bits, 0
        while mask:
            if mask & 1:
                bits = _flip(bits, var, self.num_vars)
            mask >>= 1
            var += 1
        return TruthTable(bits, self.num_vars)

    def compose_complement_inputs(self) -> "TruthTable":
        """``g(x) = f(~x)``: reverse the table (index complement)."""
        return self.flip_inputs((1 << self.num_vars) - 1)

    def dual(self) -> "TruthTable":
        """The dual function ``f^D(x) = ~f(~x)``."""
        return ~self.compose_complement_inputs()

    def lift(self, num_vars: int) -> "TruthTable":
        """Extend to a larger universe; new variables are don't-cares."""
        if num_vars < self.num_vars:
            raise DimensionError("cannot drop variables with lift()")
        bits, size = self.bits, 1 << self.num_vars
        while size < 1 << num_vars:
            bits |= bits << size
            size <<= 1
        return TruthTable(bits, num_vars)

    def cube_is_implicant(self, cube: Cube) -> bool:
        """True iff every minterm of ``cube`` is in the onset."""
        hit = _cube_bits(cube.pos, cube.neg, self.num_vars)
        return hit & self.bits == hit

    # -------------------------------------------------------------- algebra
    def _check(self, other: "TruthTable") -> None:
        if self.num_vars != other.num_vars:
            raise DimensionError(
                f"truth table universes differ: {self.num_vars} vs {other.num_vars}"
            )

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits & other.bits, self.num_vars)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits | other.bits, self.num_vars)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits ^ other.bits, self.num_vars)

    def __invert__(self) -> "TruthTable":
        return TruthTable(_full(self.num_vars) ^ self.bits, self.num_vars)

    def __sub__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits & ~other.bits, self.num_vars)

    def implies(self, other: "TruthTable") -> bool:
        self._check(other)
        return not self.bits & ~other.bits

    def overlaps(self, other: "TruthTable") -> bool:
        """True iff some minterm is in both onsets."""
        self._check(other)
        return bool(self.bits & other.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.num_vars == other.num_vars and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.num_vars, self.bits))

    def __iter__(self) -> Iterator[bool]:
        digits = bin(self.bits)[:1:-1].ljust(1 << self.num_vars, "0")
        return (d == "1" for d in digits)

    def to_bytes(self) -> bytes:
        """The table as packed little-endian bytes (bit m = minterm m),
        zero-padded to whole bytes."""
        return self.bits.to_bytes(((1 << self.num_vars) + 7) // 8, "little")

    def key(self) -> bytes:
        """Canonical bytes key (universe size, then packed bits) for
        memoization: tables over different universes never collide."""
        return bytes([self.num_vars]) + self.to_bytes()

    def __repr__(self) -> str:
        if self.num_vars <= 6:
            bits = "".join("1" if v else "0" for v in self)
            return f"TruthTable({bits!r}, num_vars={self.num_vars})"
        return (
            f"TruthTable(num_vars={self.num_vars}, ones={self.count_ones()}"
            f"/{1 << self.num_vars})"
        )

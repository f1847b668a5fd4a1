"""Symbolic 256-bit expressions with provenance tags.

A symbol is identified by its value, never by its printed form: a ``Var``'s
name is for reading, and a storage symbol's kind is ``Storage(slot)`` for a
plain slot and a mapping entry (named ``<mapping>[...]``) alike."""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass, field

from sleepscan.keccak import keccak256

MASK256 = (1 << 256) - 1
MASK160 = (1 << 160) - 1
SIGN_BIT = 1 << 255


# --------------------------------------------------------------------------
# provenance

@dataclass(frozen=True)
class Parameter:
    index: int


@dataclass(frozen=True)
class Storage:
    slot: "SymValue"


@dataclass(frozen=True)
class Environment:
    which: str  # caller | callvalue | address | timestamp | number | origin


@dataclass(frozen=True)
class FreshExternal:
    origin: str  # e.g. "call", "returndata", "calldata-symbolic-offset"


Provenance = Parameter | Storage | Environment | FreshExternal


# --------------------------------------------------------------------------
# expression nodes

@dataclass(frozen=True)
class Const:
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value & MASK256)

    def __repr__(self):
        return f"0x{self.value:x}" if self.value > 9 else str(self.value)


@dataclass(frozen=True)
class Var:
    name: str
    kind: Provenance
    is_address: bool = False

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Op:
    op: str
    args: tuple["SymValue", ...]
    # the most Ops on a path down to a leaf, set by make_op; not compared
    depth: int = field(default=1, compare=False)

    def __repr__(self):
        return f"{self.op}({', '.join(map(repr, self.args))})"


SymValue = Const | Var | Op


def const_value(value: SymValue) -> int | None:
    return value.value if isinstance(value, Const) else None


def mapping_base(slot: SymValue) -> int | None:
    """The declared slot of a (possibly nested) mapping entry's ``slot``;
    None for any other slot."""
    while isinstance(slot, Op) and slot.op == "sha3":
        slot = slot.args[-1]
        if isinstance(slot, Const):
            return slot.value
    return None


def free_vars(value: SymValue) -> KeysView[Var]:
    """The variables of ``value``, set-like, in order of first occurrence."""
    out: dict[Var, None] = {}
    stack = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out[node] = None
        elif isinstance(node, Op):
            stack.extend(reversed(node.args))
    return out.keys()


# --------------------------------------------------------------------------
# concrete evaluation (used by the solver's witness search and the
# interpreter's constant folding)

def _to_signed(x: int) -> int:
    return x - (1 << 256) if x & SIGN_BIT else x


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = _to_signed(a), _to_signed(b)
    return (abs(sa) // abs(sb) * (1 if (sa < 0) == (sb < 0) else -1)) & MASK256


def _smod(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = _to_signed(a), _to_signed(b)
    return ((abs(sa) % abs(sb)) * (1 if sa >= 0 else -1)) & MASK256


def _signextend(a: int, b: int) -> int:
    if a >= 32:
        return b
    bit = 8 * a + 7
    if b & (1 << bit):
        return (b | (MASK256 - ((1 << (bit + 1)) - 1))) & MASK256
    return b & ((1 << (bit + 1)) - 1)


def _sar(a: int, b: int) -> int:
    if a >= 256:
        return MASK256 if b & SIGN_BIT else 0
    return (_to_signed(b) >> a) & MASK256


def _sha3(*words: int) -> int:
    payload = b"".join(word.to_bytes(32, "big") for word in words)
    return int.from_bytes(keccak256(payload), "big")


# operator -> its concrete 256-bit semantics, operands in stack order
_SEMANTICS = {
    "add": lambda a, b: (a + b) & MASK256,
    "mul": lambda a, b: (a * b) & MASK256,
    "sub": lambda a, b: (a - b) & MASK256,
    "div": lambda a, b: a // b if b else 0,
    "sdiv": _sdiv,
    "mod": lambda a, b: a % b if b else 0,
    "smod": _smod,
    "addmod": lambda a, b, n: (a + b) % n if n else 0,
    "mulmod": lambda a, b, n: (a * b) % n if n else 0,
    "exp": lambda a, b: pow(a, b, 1 << 256),
    "signextend": _signextend,
    "lt": lambda a, b: int(a < b),
    "gt": lambda a, b: int(a > b),
    "slt": lambda a, b: int(_to_signed(a) < _to_signed(b)),
    "sgt": lambda a, b: int(_to_signed(a) > _to_signed(b)),
    "eq": lambda a, b: int(a == b),
    "iszero": lambda a: int(a == 0),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "not": lambda a: a ^ MASK256,
    "byte": lambda a, b: (b >> (8 * (31 - a))) & 0xFF if a < 32 else 0,
    "shl": lambda a, b: (b << a) & MASK256 if a < 256 else 0,
    "shr": lambda a, b: b >> a if a < 256 else 0,
    "sar": _sar,
    "sha3": _sha3,
}

# a hash is never folded: mapping slots keep their structure
FOLDABLE = frozenset(_SEMANTICS) - {"sha3"}


def eval_op(op: str, args: tuple[int, ...]) -> int:
    """Concrete 256-bit semantics for the modeled operator set."""
    return _SEMANTICS[op](*args)


def make_op(op: str, *args: SymValue) -> SymValue:
    """Build an Op node, folding to a Const when every operand is concrete."""
    if op in FOLDABLE and all(isinstance(a, Const) for a in args):
        return Const(eval_op(op, tuple(a.value for a in args)))
    return Op(op, args, 1 + max((a.depth for a in args if isinstance(a, Op)), default=0))


def evaluate(value: SymValue, env: dict[Var, int]) -> int:
    """Evaluate under a concrete assignment; sha3 is computed for real, so
    distinct keys hash apart (the injectivity the mapping model needs)."""
    if isinstance(value, Const):
        return value.value
    if isinstance(value, Var):
        return env[value]
    return eval_op(value.op, tuple(evaluate(a, env) for a in value.args))

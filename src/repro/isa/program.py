"""The assembled program image.

A program is Harvard-style: instructions live in their own instruction
memory addressed by index (the program counter is an instruction index),
while data lives in the byte-addressable physical memory starting at
``data_base``. Code labels therefore resolve to instruction indices and data
labels to byte addresses; both are plain integers by execution time.

Programs serialize to JSON-compatible dicts so a recording bundle can embed
the exact program it recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import LogFormatError
from .instructions import Instr
from .operands import VALID_SCALES, Imm, Mem, Operand, Reg
from .registers import NUM_REGS

DEFAULT_DATA_BASE = 0x1000
_REGS = range(NUM_REGS)


@dataclass(frozen=True)
class DataItem:
    """A named, typed blob in the data segment (for introspection)."""

    name: str
    address: int
    size: int


@dataclass(frozen=True)
class Program:
    """An executable image: code, initialized data, and symbols."""

    instructions: tuple[Instr, ...]
    data: bytes = b""
    data_base: int = DEFAULT_DATA_BASE
    symbols: dict[str, int] = field(default_factory=dict)
    code_symbols: dict[str, int] = field(default_factory=dict)
    entry: int = 0
    name: str = "program"

    def __post_init__(self) -> None:
        if not 0 <= self.entry <= len(self.instructions):
            raise ValueError(f"entry {self.entry} outside code of "
                             f"{len(self.instructions)} instructions")

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def data_end(self) -> int:
        """First byte address past the initialized data segment."""
        return self.data_base + len(self.data)

    def symbol(self, name: str) -> int:
        """Address of a data symbol or index of a code symbol."""
        if name in self.symbols:
            return self.symbols[name]
        if name in self.code_symbols:
            return self.code_symbols[name]
        raise KeyError(f"unknown symbol {name!r}")

    def listing(self) -> str:
        """A human-readable disassembly listing."""
        index_of_label = {idx: lbl for lbl, idx in self.code_symbols.items()}
        lines = []
        for idx, instr in enumerate(self.instructions):
            label = index_of_label.get(idx)
            if label is not None:
                lines.append(f"{label}:")
            lines.append(f"  {idx:5d}  {instr}")
        return "\n".join(lines)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "entry": self.entry,
            "data_base": self.data_base,
            "data_hex": self.data.hex(),
            "symbols": dict(self.symbols),
            "code_symbols": dict(self.code_symbols),
            "instructions": [_instr_to_dict(i) for i in self.instructions],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Program":
        try:
            return cls(
                instructions=tuple(_instr_from_dict(d) for d in payload["instructions"]),
                data=bytes.fromhex(payload["data_hex"]),
                data_base=_field(payload, "data_base"),
                symbols=dict(payload["symbols"]),
                code_symbols=dict(payload["code_symbols"]),
                entry=_field(payload, "entry"),
                name=payload.get("name", "program"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise LogFormatError(f"malformed program payload: {exc}") from exc


def _operand_to_dict(op: Operand) -> dict[str, Any]:
    if isinstance(op, Reg):
        return {"k": "r", "n": op.number}
    if isinstance(op, Imm):
        return {"k": "i", "v": op.value}
    if isinstance(op, Mem):
        return {"k": "m", "b": op.base, "x": op.index, "s": op.scale,
                "d": op.disp, "sym": op.symbol}
    raise TypeError(f"unknown operand type {type(op)!r}")


def _field(payload: dict[str, Any], key: str, valid=None,
           optional: bool = False):
    """An int field of a program image, in ``valid`` if given. Operands
    are pasted into generated code, so nothing but an int passes."""
    value = payload[key]
    if optional and value is None:
        return None
    if type(value) is not int or (valid is not None and value not in valid):
        raise LogFormatError(f"malformed program field {key!r}: {value!r}")
    return value


def _operand_from_dict(payload: dict[str, Any]) -> Operand:
    if not isinstance(payload, dict):
        raise LogFormatError(f"malformed operand {payload!r}")
    kind = payload.get("k")
    if kind == "r":
        return Reg(_field(payload, "n", _REGS))
    if kind == "i":
        return Imm(_field(payload, "v"))
    if kind == "m":
        return Mem(base=_field(payload, "b", _REGS, optional=True),
                   index=_field(payload, "x", _REGS, optional=True),
                   scale=_field(payload, "s", VALID_SCALES),
                   disp=_field(payload, "d"), symbol=payload.get("sym"))
    raise LogFormatError(f"unknown operand kind {kind!r}")


def _instr_to_dict(instr: Instr) -> dict[str, Any]:
    return {"m": instr.mnemonic, "ops": [_operand_to_dict(op) for op in instr.ops]}


def _instr_from_dict(payload: dict[str, Any]) -> Instr:
    return Instr(payload["m"], tuple(_operand_from_dict(d) for d in payload["ops"]))

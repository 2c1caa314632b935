"""The IA-lite execution engine.

:class:`Engine` interprets instructions one *unit* at a time against a
:class:`MemoryPort`. A unit is a whole instruction, except for ``rep_*``
string instructions where a unit is one iteration — exactly like x86, the
architectural registers (``rcx``/``rsi``/``rdi``) advance per iteration and
the program counter stays put, so a partially executed string instruction
is resumable from architectural state alone. Chunks can therefore terminate
mid-instruction, which is the situation QuickRec's sub-instruction
memory-operation count exists for.

The engine is memory-system-agnostic: the recording machine plugs in a port
backed by a store buffer, cache and bus, while the replayer plugs in a port
backed by its withheld-store FIFO. Both see identical semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from ..errors import IllegalInstructionError, MachineFault
from ..isa.instructions import Instr
from ..isa.operands import Imm, Mem, Reg
from ..isa.program import Program
from ..isa.registers import NUM_REGS, RAX, RCX, RDI, RSI, SP

MASK32 = 0xFFFFFFFF
_HASH_MASK = (1 << 64) - 1
_FNV_PRIME = 0x100000001B3

OUTCOME_OK = "ok"
OUTCOME_SYSCALL = "syscall"
OUTCOME_NONDET = "nondet"


class MemoryPort(Protocol):
    """The engine's window onto memory. All addresses are byte addresses;
    ``size`` is 1 or 4 and word accesses are aligned (the engine checks)."""

    def load(self, addr: int, size: int) -> int: ...
    def store(self, addr: int, size: int, value: int) -> None: ...
    def fence(self) -> None: ...
    def atomic_load(self, addr: int, size: int) -> int: ...
    def atomic_store(self, addr: int, size: int, value: int) -> None: ...


@dataclass(slots=True)
class EngineContext:
    """Per-thread architectural state saved across context switches.

    Treated as immutable (nothing assigns a field or hashes one); not
    ``frozen`` because every context switch and signal delivery builds
    one, and frozen dataclasses pay ``object.__setattr__`` per field.
    """

    regs: tuple[int, ...]
    pc: int
    zf: int
    sf: int
    cf: int
    of: int
    cur_memops: int

    def to_dict(self) -> dict:
        return {"regs": list(self.regs), "pc": self.pc, "zf": self.zf,
                "sf": self.sf, "cf": self.cf, "of": self.of,
                "cur_memops": self.cur_memops}

    @classmethod
    def from_dict(cls, data: dict) -> "EngineContext":
        return cls(regs=tuple(data["regs"]), pc=data["pc"], zf=data["zf"],
                   sf=data["sf"], cf=data["cf"], of=data["of"],
                   cur_memops=data["cur_memops"])


def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


class Engine:
    """Architectural state plus the instruction interpreter.

    ``decode_cache`` runs the unit functions that
    :mod:`repro.machine.decode` generates from its instruction templates
    (the same templates build replay's translation blocks); without it
    the engine interprets each instruction, the reference path the
    equivalence suites run in lockstep with the generated one.
    """

    def __init__(self, program: Program, decode_cache: bool = True):
        self._decode_cache = decode_cache
        self.program = program  # property: also binds the dispatch table
        self.regs: list[int] = [0] * NUM_REGS
        self.pc = program.entry
        self.zf = 0
        self.sf = 0
        self.cf = 0
        self.of = 0
        # Monotonic count of completed (retired) instructions.
        self.retired = 0
        # Memory operations completed by the in-flight rep instruction;
        # zero whenever no instruction is partially executed.
        self.cur_memops = 0
        # Rolling hash over loaded values, reset per chunk by the recorder;
        # lets the replayer pinpoint divergence to a chunk.
        self.load_hash = 0
        self.loads = 0
        self.stores = 0

    @property
    def program(self) -> Program:
        return self._program

    @property
    def decode_cache(self) -> bool:
        """Does this engine run generated unit functions (and, in
        replay, translation blocks) rather than the interpretive
        handlers?"""
        return self._decode_cache

    @program.setter
    def program(self, program: Program) -> None:
        """Point the engine at ``program`` and rebind the unit table.

        The kernel reassigns this on every task dispatch, so the unit
        table must follow the program; :func:`decoded_program` memoizes per
        program object, making the common same-program case a dict hit.
        """
        self._program = program
        if self._decode_cache:
            from .decode import decoded_program
            self._dispatch = decoded_program(program)
        else:
            self._dispatch = None

    # -- context save/restore ------------------------------------------------

    def snapshot_arch(self) -> dict:
        """Complete architectural state as a JSON-able dict.

        Unlike :meth:`save_context` (the signal-delivery subset), this is
        the *full* deterministic engine state: retirement and memop
        counters, the per-chunk load hash, and the load/store totals.
        ``restore_arch`` of this dict onto a fresh engine for the same
        program reproduces execution bit-for-bit — the per-core half of
        the checkpoint protocol.
        """
        return {
            "regs": list(self.regs),
            "pc": self.pc,
            "zf": self.zf, "sf": self.sf, "cf": self.cf, "of": self.of,
            "retired": self.retired,
            "cur_memops": self.cur_memops,
            "load_hash": self.load_hash,
            "loads": self.loads,
            "stores": self.stores,
        }

    def restore_arch(self, state: dict) -> None:
        self.regs = [value & MASK32 for value in state["regs"]]
        self.pc = state["pc"]
        self.zf, self.sf = state["zf"], state["sf"]
        self.cf, self.of = state["cf"], state["of"]
        self.retired = state["retired"]
        self.cur_memops = state["cur_memops"]
        self.load_hash = state["load_hash"]
        self.loads = state["loads"]
        self.stores = state["stores"]

    def save_context(self) -> EngineContext:
        return EngineContext(regs=tuple(self.regs), pc=self.pc, zf=self.zf,
                             sf=self.sf, cf=self.cf, of=self.of,
                             cur_memops=self.cur_memops)

    def restore_context(self, ctx: EngineContext) -> None:
        self.regs = list(ctx.regs)
        self.pc = ctx.pc
        self.zf, self.sf, self.cf, self.of = ctx.zf, ctx.sf, ctx.cf, ctx.of
        self.cur_memops = ctx.cur_memops

    # -- operand helpers -----------------------------------------------------

    def value_of(self, op) -> int:
        if isinstance(op, Reg):
            return self.regs[op.number]
        if isinstance(op, Imm):
            return op.value
        raise IllegalInstructionError(f"operand {op!r} is not a value")

    def ea(self, op: Mem) -> int:
        return op.effective_address(self.regs)

    def _set_reg(self, op: Reg, value: int) -> None:
        self.regs[op.number] = value & MASK32

    # -- memory helpers (route through the port, keep counters) ---------------

    def _load(self, port: MemoryPort, addr: int, size: int) -> int:
        if size == 4 and addr & 3:
            raise MachineFault(f"misaligned word load at {addr:#x}", pc=self.pc)
        value = port.load(addr, size)
        self.loads += 1
        self.load_hash = ((self.load_hash * _FNV_PRIME) + value + 1) & _HASH_MASK
        return value

    def _store(self, port: MemoryPort, addr: int, size: int, value: int) -> None:
        if size == 4 and addr & 3:
            raise MachineFault(f"misaligned word store at {addr:#x}", pc=self.pc)
        port.store(addr, size, value & MASK32)
        self.stores += 1

    # -- flag helpers ----------------------------------------------------------

    def _flags_logic(self, result: int) -> int:
        result &= MASK32
        self.zf = 1 if result == 0 else 0
        self.sf = (result >> 31) & 1
        self.cf = 0
        self.of = 0
        return result

    def _flags_add(self, a: int, b: int) -> int:
        raw = a + b
        result = raw & MASK32
        self.zf = 1 if result == 0 else 0
        self.sf = (result >> 31) & 1
        self.cf = 1 if raw > MASK32 else 0
        self.of = 1 if (_signed(a) + _signed(b)) != _signed(result) else 0
        return result

    def _flags_sub(self, a: int, b: int) -> int:
        result = (a - b) & MASK32
        self.zf = 1 if result == 0 else 0
        self.sf = (result >> 31) & 1
        self.cf = 1 if a < b else 0
        self.of = 1 if (_signed(a) - _signed(b)) != _signed(result) else 0
        return result

    # -- retirement -------------------------------------------------------------

    def _retire(self) -> None:
        self.pc += 1
        self.retired += 1
        self.cur_memops = 0

    def complete_trap(self, dest: Reg | None = None, value: int = 0) -> None:
        """Finish a trapped instruction (syscall/nondet) from outside.

        The kernel (or replayer) supplies the result; the instruction then
        retires into whatever chunk is current — which, because the trap
        terminated the previous chunk first, is always the *next* chunk.
        """
        if dest is not None:
            self._set_reg(dest, value)
        self._retire()

    # -- the interpreter ----------------------------------------------------------

    def step(self, port: MemoryPort) -> str:
        """Execute one unit. Returns an OUTCOME_* constant.

        With the decode cache this calls the generated unit function at
        ``pc`` (compiled on its first run); without it, the interpretive
        handler of the instruction. Trap outcomes (syscall, nondet) leave
        all architectural state untouched; the caller processes the trap
        and calls :meth:`complete_trap`.
        """
        dispatch = self._dispatch
        if dispatch is not None:
            pc = self.pc
            if not 0 <= pc < len(dispatch):
                raise MachineFault(f"pc {pc} outside code", pc=pc)
            outcome = dispatch[pc](self, port)
            return OUTCOME_OK if outcome is None else outcome
        if not 0 <= self.pc < len(self.program.instructions):
            raise MachineFault(f"pc {self.pc} outside code", pc=self.pc)
        instr = self.program.instructions[self.pc]
        handler = _DISPATCH.get(instr.mnemonic)
        if handler is None:
            raise IllegalInstructionError(f"no handler for {instr.mnemonic}",
                                          pc=self.pc)
        outcome = handler(self, port, instr)
        return OUTCOME_OK if outcome is None else outcome

    def current_instr(self) -> Instr:
        return self.program.instructions[self.pc]


# -- instruction handlers ----------------------------------------------------
# Each handler takes (engine, port, instr); returning None means OUTCOME_OK.

def _h_mov(e: Engine, port, i: Instr):
    e._set_reg(i.ops[0], e.value_of(i.ops[1]))
    e._retire()


def _h_lea(e: Engine, port, i: Instr):
    e._set_reg(i.ops[0], e.ea(i.ops[1]))
    e._retire()


def _h_load(e: Engine, port, i: Instr):
    e._set_reg(i.ops[0], e._load(port, e.ea(i.ops[1]), 4))
    e._retire()


def _h_loadb(e: Engine, port, i: Instr):
    e._set_reg(i.ops[0], e._load(port, e.ea(i.ops[1]), 1))
    e._retire()


def _h_store(e: Engine, port, i: Instr):
    e._store(port, e.ea(i.ops[0]), 4, e.value_of(i.ops[1]))
    e._retire()


def _h_storeb(e: Engine, port, i: Instr):
    e._store(port, e.ea(i.ops[0]), 1, e.value_of(i.ops[1]) & 0xFF)
    e._retire()


def _h_push(e: Engine, port, i: Instr):
    sp = (e.regs[SP] - 4) & MASK32
    e._store(port, sp, 4, e.value_of(i.ops[0]))
    e.regs[SP] = sp
    e._retire()


def _h_pop(e: Engine, port, i: Instr):
    value = e._load(port, e.regs[SP], 4)
    e.regs[SP] = (e.regs[SP] + 4) & MASK32
    e._set_reg(i.ops[0], value)
    e._retire()


def _alu3(flag_fn_name: str, compute: Callable[[Engine, int, int], int]):
    def handler(e: Engine, port, i: Instr):
        a = e.value_of(i.ops[1])
        b = e.value_of(i.ops[2])
        result = compute(e, a, b)
        e._set_reg(i.ops[0], result)
        e._retire()
    return handler


def _c_add(e, a, b): return e._flags_add(a, b)
def _c_sub(e, a, b): return e._flags_sub(a, b)
def _c_and(e, a, b): return e._flags_logic(a & b)
def _c_or(e, a, b): return e._flags_logic(a | b)
def _c_xor(e, a, b): return e._flags_logic(a ^ b)
def _c_shl(e, a, b): return e._flags_logic(a << (b & 31))
def _c_shr(e, a, b): return e._flags_logic(a >> (b & 31))
def _c_sar(e, a, b): return e._flags_logic(_signed(a) >> (b & 31))
def _c_mul(e, a, b): return e._flags_logic(a * b)


def _c_div(e, a, b):
    if b == 0:
        raise MachineFault("division by zero", pc=e.pc)
    return e._flags_logic(a // b)


def _c_mod(e, a, b):
    if b == 0:
        raise MachineFault("division by zero", pc=e.pc)
    return e._flags_logic(a % b)


def _h_neg(e: Engine, port, i: Instr):
    e._set_reg(i.ops[0], e._flags_sub(0, e.value_of(i.ops[1])))
    e._retire()


def _h_not(e: Engine, port, i: Instr):
    e._set_reg(i.ops[0], e._flags_logic(~e.value_of(i.ops[1])))
    e._retire()


def _h_cmp(e: Engine, port, i: Instr):
    e._flags_sub(e.value_of(i.ops[0]), e.value_of(i.ops[1]))
    e._retire()


def _h_test(e: Engine, port, i: Instr):
    e._flags_logic(e.value_of(i.ops[0]) & e.value_of(i.ops[1]))
    e._retire()


def _branch(predicate: Callable[[Engine], bool]):
    def handler(e: Engine, port, i: Instr):
        target = e.value_of(i.ops[0])
        if predicate(e):
            e.pc = target
            e.retired += 1
            e.cur_memops = 0
        else:
            e._retire()
    return handler


def _h_jmp(e: Engine, port, i: Instr):
    e.pc = e.value_of(i.ops[0])
    e.retired += 1
    e.cur_memops = 0


def _h_call(e: Engine, port, i: Instr):
    target = e.value_of(i.ops[0])
    sp = (e.regs[SP] - 4) & MASK32
    e._store(port, sp, 4, e.pc + 1)
    e.regs[SP] = sp
    e.pc = target
    e.retired += 1
    e.cur_memops = 0


def _h_ret(e: Engine, port, i: Instr):
    target = e._load(port, e.regs[SP], 4)
    e.regs[SP] = (e.regs[SP] + 4) & MASK32
    e.pc = target
    e.retired += 1
    e.cur_memops = 0


def _h_xadd(e: Engine, port, i: Instr):
    addr = e.ea(i.ops[0])
    if addr & 3:
        raise MachineFault(f"misaligned xadd at {addr:#x}", pc=e.pc)
    port.fence()
    old = port.atomic_load(addr, 4)
    e.loads += 1
    e.load_hash = ((e.load_hash * _FNV_PRIME) + old + 1) & _HASH_MASK
    addend = e.regs[i.ops[1].number]
    port.atomic_store(addr, 4, e._flags_add(old, addend))
    e.stores += 1
    e._set_reg(i.ops[1], old)
    e._retire()


def _h_xchg(e: Engine, port, i: Instr):
    addr = e.ea(i.ops[0])
    if addr & 3:
        raise MachineFault(f"misaligned xchg at {addr:#x}", pc=e.pc)
    port.fence()
    old = port.atomic_load(addr, 4)
    e.loads += 1
    e.load_hash = ((e.load_hash * _FNV_PRIME) + old + 1) & _HASH_MASK
    port.atomic_store(addr, 4, e.regs[i.ops[1].number])
    e.stores += 1
    e._set_reg(i.ops[1], old)
    e._retire()


def _h_cmpxchg(e: Engine, port, i: Instr):
    addr = e.ea(i.ops[0])
    if addr & 3:
        raise MachineFault(f"misaligned cmpxchg at {addr:#x}", pc=e.pc)
    port.fence()
    old = port.atomic_load(addr, 4)
    e.loads += 1
    e.load_hash = ((e.load_hash * _FNV_PRIME) + old + 1) & _HASH_MASK
    if old == e.regs[RAX]:
        port.atomic_store(addr, 4, e.regs[i.ops[1].number])
        e.stores += 1
        e.zf = 1
    else:
        e.regs[RAX] = old
        e.zf = 0
    e._retire()


def _h_mfence(e: Engine, port, i: Instr):
    port.fence()
    e._retire()


def _h_nop(e: Engine, port, i: Instr):
    e._retire()


def _h_rep_movs(e: Engine, port, i: Instr):
    if e.regs[RCX] == 0:
        e._retire()
        return
    value = e._load(port, e.regs[RSI], 4)
    e._store(port, e.regs[RDI], 4, value)
    e.regs[RSI] = (e.regs[RSI] + 4) & MASK32
    e.regs[RDI] = (e.regs[RDI] + 4) & MASK32
    e.regs[RCX] = (e.regs[RCX] - 1) & MASK32
    e.cur_memops += 2
    if e.regs[RCX] == 0:
        e._retire()


def _h_rep_stos(e: Engine, port, i: Instr):
    if e.regs[RCX] == 0:
        e._retire()
        return
    e._store(port, e.regs[RDI], 4, e.regs[RAX])
    e.regs[RDI] = (e.regs[RDI] + 4) & MASK32
    e.regs[RCX] = (e.regs[RCX] - 1) & MASK32
    e.cur_memops += 1
    if e.regs[RCX] == 0:
        e._retire()


def _h_syscall(e: Engine, port, i: Instr):
    return OUTCOME_SYSCALL


def _h_nondet(e: Engine, port, i: Instr):
    return OUTCOME_NONDET


_DISPATCH: dict[str, Callable] = {
    "mov": _h_mov,
    "lea": _h_lea,
    "load": _h_load,
    "loadb": _h_loadb,
    "store": _h_store,
    "storeb": _h_storeb,
    "push": _h_push,
    "pop": _h_pop,
    "add": _alu3("add", _c_add),
    "sub": _alu3("sub", _c_sub),
    "and": _alu3("and", _c_and),
    "or": _alu3("or", _c_or),
    "xor": _alu3("xor", _c_xor),
    "shl": _alu3("shl", _c_shl),
    "shr": _alu3("shr", _c_shr),
    "sar": _alu3("sar", _c_sar),
    "mul": _alu3("mul", _c_mul),
    "div": _alu3("div", _c_div),
    "mod": _alu3("mod", _c_mod),
    "neg": _h_neg,
    "not": _h_not,
    "cmp": _h_cmp,
    "test": _h_test,
    "jmp": _h_jmp,
    "je": _branch(lambda e: e.zf == 1),
    "jne": _branch(lambda e: e.zf == 0),
    "jl": _branch(lambda e: e.sf != e.of),
    "jge": _branch(lambda e: e.sf == e.of),
    "jle": _branch(lambda e: e.zf == 1 or e.sf != e.of),
    "jg": _branch(lambda e: e.zf == 0 and e.sf == e.of),
    "jb": _branch(lambda e: e.cf == 1),
    "jae": _branch(lambda e: e.cf == 0),
    "jbe": _branch(lambda e: e.cf == 1 or e.zf == 1),
    "ja": _branch(lambda e: e.cf == 0 and e.zf == 0),
    "js": _branch(lambda e: e.sf == 1),
    "jns": _branch(lambda e: e.sf == 0),
    "call": _h_call,
    "ret": _h_ret,
    "xadd": _h_xadd,
    "xchg": _h_xchg,
    "cmpxchg": _h_cmpxchg,
    "mfence": _h_mfence,
    "pause": _h_nop,
    "nop": _h_nop,
    "rep_movs": _h_rep_movs,
    "rep_stos": _h_rep_stos,
    "rdtsc": _h_nondet,
    "rdrand": _h_nondet,
    "cpuid": _h_nondet,
    "syscall": _h_syscall,
}

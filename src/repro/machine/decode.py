"""The decode cache: pre-resolved dispatch closures for the engine.

The interpretive path in :mod:`repro.machine.core` re-inspects ``Instr``
metadata on every unit — isinstance checks on operands, a dict lookup on the
mnemonic, several helper-method calls. All of that is static per
instruction, so at :class:`~repro.isa.program.Program` load time this module
compiles each instruction once into a *dispatch closure*: a single callable
``fn(engine, port) -> outcome | None`` with the operand fields (register
numbers, immediate values, effective-address shapes, branch targets) already
extracted into its cells. ``Engine.step`` then executes one unit with one
list index and one call.

Equivalence contract (pinned by ``tests/property/test_property_decode.py``):
a compiled closure performs *bit-identical* state transitions to the
interpretive handler for the same instruction — registers, pc, flags,
``retired``/``cur_memops``, the load/store counters, the rolling
``load_hash``, fault messages, and trap outcomes all match, including
mid-``rep`` save/restore resumability.

Compiled programs are memoized per ``Program`` object (replay spawns one
engine per thread over the same program; they share one compiled table).
"""

from __future__ import annotations

import weakref
from typing import Callable

from ..errors import IllegalInstructionError, MachineFault
from ..isa.instructions import Instr
from ..isa.operands import Mem, Reg
from ..isa.program import Program
from ..isa.registers import NUM_REGS, RAX, RCX, RDI, RSI, SP

MASK32 = 0xFFFFFFFF
_HASH_MASK = (1 << 64) - 1
_FNV_PRIME = 0x100000001B3

# Outcome literals (values shared with repro.machine.core, which this module
# must not import at top level: core imports us).
_OUTCOME_SYSCALL = "syscall"
_OUTCOME_NONDET = "nondet"

#: A compiled unit: returns None for OK or an OUTCOME_* string for a trap.
DispatchFn = Callable[[object, object], str | None]


def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


# -- operand pre-extraction ---------------------------------------------------

def _compile_ea(mem: Mem) -> Callable[[list[int]], int]:
    """Close over the addressing-mode fields; identical arithmetic to
    :meth:`repro.isa.operands.Mem.effective_address`."""
    base, index, scale, disp = mem.base, mem.index, mem.scale, mem.disp
    if base is None and index is None:
        return lambda regs: disp
    if index is None:
        return lambda regs: (regs[base] + disp) & MASK32
    if base is None:
        return lambda regs: (regs[index] * scale + disp) & MASK32
    return lambda regs: (regs[base] + regs[index] * scale + disp) & MASK32


def _compile_val(op) -> Callable[[list[int]], int]:
    """A reader for a 'v' operand (register or immediate)."""
    if type(op) is Reg:
        number = op.number
        return lambda regs: regs[number]
    value = op.value
    return lambda regs: value


# -- per-mnemonic compilers ---------------------------------------------------
# Each mirrors the interpretive handler of the same mnemonic exactly,
# including side-effect ordering and fault messages.

def _c_mov(i: Instr) -> DispatchFn:
    dest = i.ops[0].number
    read = _compile_val(i.ops[1])

    def fn(e, port):
        e.regs[dest] = read(e.regs) & MASK32
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_lea(i: Instr) -> DispatchFn:
    dest = i.ops[0].number
    ea = _compile_ea(i.ops[1])

    def fn(e, port):
        e.regs[dest] = ea(e.regs)
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_load(i: Instr) -> DispatchFn:
    dest = i.ops[0].number
    ea = _compile_ea(i.ops[1])

    def fn(e, port):
        addr = ea(e.regs)
        if addr & 3:
            raise MachineFault(f"misaligned word load at {addr:#x}", pc=e.pc)
        value = port.load(addr, 4)
        e.loads += 1
        e.load_hash = ((e.load_hash * _FNV_PRIME) + value + 1) & _HASH_MASK
        e.regs[dest] = value & MASK32
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_loadb(i: Instr) -> DispatchFn:
    dest = i.ops[0].number
    ea = _compile_ea(i.ops[1])

    def fn(e, port):
        value = port.load(ea(e.regs), 1)
        e.loads += 1
        e.load_hash = ((e.load_hash * _FNV_PRIME) + value + 1) & _HASH_MASK
        e.regs[dest] = value & MASK32
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_store(i: Instr) -> DispatchFn:
    ea = _compile_ea(i.ops[0])
    read = _compile_val(i.ops[1])

    def fn(e, port):
        addr = ea(e.regs)
        if addr & 3:
            raise MachineFault(f"misaligned word store at {addr:#x}", pc=e.pc)
        port.store(addr, 4, read(e.regs) & MASK32)
        e.stores += 1
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_storeb(i: Instr) -> DispatchFn:
    ea = _compile_ea(i.ops[0])
    read = _compile_val(i.ops[1])

    def fn(e, port):
        port.store(ea(e.regs), 1, read(e.regs) & 0xFF)
        e.stores += 1
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_push(i: Instr) -> DispatchFn:
    read = _compile_val(i.ops[0])

    def fn(e, port):
        sp = (e.regs[SP] - 4) & MASK32
        if sp & 3:
            raise MachineFault(f"misaligned word store at {sp:#x}", pc=e.pc)
        port.store(sp, 4, read(e.regs) & MASK32)
        e.stores += 1
        e.regs[SP] = sp
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_pop(i: Instr) -> DispatchFn:
    dest = i.ops[0].number

    def fn(e, port):
        addr = e.regs[SP]
        if addr & 3:
            raise MachineFault(f"misaligned word load at {addr:#x}", pc=e.pc)
        value = port.load(addr, 4)
        e.loads += 1
        e.load_hash = ((e.load_hash * _FNV_PRIME) + value + 1) & _HASH_MASK
        e.regs[SP] = (addr + 4) & MASK32
        e.regs[dest] = value & MASK32
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _alu_compiler(compute: Callable) -> Callable[[Instr], DispatchFn]:
    def compiler(i: Instr) -> DispatchFn:
        dest = i.ops[0].number
        read_a = _compile_val(i.ops[1])
        read_b = _compile_val(i.ops[2])

        def fn(e, port):
            e.regs[dest] = compute(e, read_a(e.regs), read_b(e.regs))
            e.pc += 1
            e.retired += 1
            e.cur_memops = 0
        return fn
    return compiler


def _c_add(i: Instr) -> DispatchFn:
    """add with Engine._flags_add inlined (same arithmetic, flag for flag)."""
    dest = i.ops[0].number
    read_a = _compile_val(i.ops[1])
    read_b = _compile_val(i.ops[2])

    def fn(e, port):
        regs = e.regs
        a = read_a(regs)
        b = read_b(regs)
        raw = a + b
        result = raw & MASK32
        e.zf = 1 if result == 0 else 0
        e.sf = (result >> 31) & 1
        e.cf = 1 if raw > MASK32 else 0
        sa = a - 0x100000000 if a & 0x80000000 else a
        sb = b - 0x100000000 if b & 0x80000000 else b
        sr = result - 0x100000000 if result & 0x80000000 else result
        e.of = 1 if sa + sb != sr else 0
        regs[dest] = result
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_sub(i: Instr) -> DispatchFn:
    """sub with Engine._flags_sub inlined."""
    dest = i.ops[0].number
    read_a = _compile_val(i.ops[1])
    read_b = _compile_val(i.ops[2])

    def fn(e, port):
        regs = e.regs
        a = read_a(regs)
        b = read_b(regs)
        result = (a - b) & MASK32
        e.zf = 1 if result == 0 else 0
        e.sf = (result >> 31) & 1
        e.cf = 1 if a < b else 0
        sa = a - 0x100000000 if a & 0x80000000 else a
        sb = b - 0x100000000 if b & 0x80000000 else b
        sr = result - 0x100000000 if result & 0x80000000 else result
        e.of = 1 if sa - sb != sr else 0
        regs[dest] = result
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _logic_alu_compiler(compute: Callable) -> Callable[[Instr], DispatchFn]:
    """ALU ops with logic-style flags (zf/sf from result, cf=of=0):
    Engine._flags_logic inlined into the closure."""
    def compiler(i: Instr) -> DispatchFn:
        dest = i.ops[0].number
        read_a = _compile_val(i.ops[1])
        read_b = _compile_val(i.ops[2])

        def fn(e, port):
            regs = e.regs
            result = compute(read_a(regs), read_b(regs)) & MASK32
            e.zf = 1 if result == 0 else 0
            e.sf = (result >> 31) & 1
            e.cf = 0
            e.of = 0
            regs[dest] = result
            e.pc += 1
            e.retired += 1
            e.cur_memops = 0
        return fn
    return compiler


def _k_div(e, a, b):
    if b == 0:
        raise MachineFault("division by zero", pc=e.pc)
    return e._flags_logic(a // b)


def _k_mod(e, a, b):
    if b == 0:
        raise MachineFault("division by zero", pc=e.pc)
    return e._flags_logic(a % b)


def _c_neg(i: Instr) -> DispatchFn:
    dest = i.ops[0].number
    src = i.ops[1].number

    def fn(e, port):
        e.regs[dest] = e._flags_sub(0, e.regs[src])
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_not(i: Instr) -> DispatchFn:
    dest = i.ops[0].number
    src = i.ops[1].number

    def fn(e, port):
        e.regs[dest] = e._flags_logic(~e.regs[src])
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_cmp(i: Instr) -> DispatchFn:
    src = i.ops[0].number
    read = _compile_val(i.ops[1])

    def fn(e, port):
        regs = e.regs
        a = regs[src]
        b = read(regs)
        result = (a - b) & MASK32
        e.zf = 1 if result == 0 else 0
        e.sf = (result >> 31) & 1
        e.cf = 1 if a < b else 0
        sa = a - 0x100000000 if a & 0x80000000 else a
        sb = b - 0x100000000 if b & 0x80000000 else b
        sr = result - 0x100000000 if result & 0x80000000 else result
        e.of = 1 if sa - sb != sr else 0
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_test(i: Instr) -> DispatchFn:
    src = i.ops[0].number
    read = _compile_val(i.ops[1])

    def fn(e, port):
        regs = e.regs
        result = regs[src] & read(regs)
        e.zf = 1 if result == 0 else 0
        e.sf = (result >> 31) & 1
        e.cf = 0
        e.of = 0
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_jmp(i: Instr) -> DispatchFn:
    target = i.ops[0].value

    def fn(e, port):
        e.pc = target
        e.retired += 1
        e.cur_memops = 0
    return fn


def _branch_compiler(pred: Callable) -> Callable[[Instr], DispatchFn]:
    def compiler(i: Instr) -> DispatchFn:
        target = i.ops[0].value

        def fn(e, port):
            if pred(e):
                e.pc = target
            else:
                e.pc += 1
            e.retired += 1
            e.cur_memops = 0
        return fn
    return compiler


def _c_call(i: Instr) -> DispatchFn:
    target = i.ops[0].value

    def fn(e, port):
        sp = (e.regs[SP] - 4) & MASK32
        if sp & 3:
            raise MachineFault(f"misaligned word store at {sp:#x}", pc=e.pc)
        port.store(sp, 4, (e.pc + 1) & MASK32)
        e.stores += 1
        e.regs[SP] = sp
        e.pc = target
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_ret(i: Instr) -> DispatchFn:
    def fn(e, port):
        addr = e.regs[SP]
        if addr & 3:
            raise MachineFault(f"misaligned word load at {addr:#x}", pc=e.pc)
        target = port.load(addr, 4)
        e.loads += 1
        e.load_hash = ((e.load_hash * _FNV_PRIME) + target + 1) & _HASH_MASK
        e.regs[SP] = (addr + 4) & MASK32
        e.pc = target
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_xadd(i: Instr) -> DispatchFn:
    ea = _compile_ea(i.ops[0])
    reg = i.ops[1].number

    def fn(e, port):
        addr = ea(e.regs)
        if addr & 3:
            raise MachineFault(f"misaligned xadd at {addr:#x}", pc=e.pc)
        port.fence()
        old = port.atomic_load(addr, 4)
        e.loads += 1
        e.load_hash = ((e.load_hash * _FNV_PRIME) + old + 1) & _HASH_MASK
        b = e.regs[reg]
        raw = old + b
        result = raw & MASK32
        e.zf = 1 if result == 0 else 0
        e.sf = (result >> 31) & 1
        e.cf = 1 if raw > MASK32 else 0
        sa = old - 0x100000000 if old & 0x80000000 else old
        sb = b - 0x100000000 if b & 0x80000000 else b
        sr = result - 0x100000000 if result & 0x80000000 else result
        e.of = 1 if sa + sb != sr else 0
        port.atomic_store(addr, 4, result)
        e.stores += 1
        e.regs[reg] = old & MASK32
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_xchg(i: Instr) -> DispatchFn:
    ea = _compile_ea(i.ops[0])
    reg = i.ops[1].number

    def fn(e, port):
        addr = ea(e.regs)
        if addr & 3:
            raise MachineFault(f"misaligned xchg at {addr:#x}", pc=e.pc)
        port.fence()
        old = port.atomic_load(addr, 4)
        e.loads += 1
        e.load_hash = ((e.load_hash * _FNV_PRIME) + old + 1) & _HASH_MASK
        port.atomic_store(addr, 4, e.regs[reg])
        e.stores += 1
        e.regs[reg] = old & MASK32
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_cmpxchg(i: Instr) -> DispatchFn:
    ea = _compile_ea(i.ops[0])
    reg = i.ops[1].number

    def fn(e, port):
        addr = ea(e.regs)
        if addr & 3:
            raise MachineFault(f"misaligned cmpxchg at {addr:#x}", pc=e.pc)
        port.fence()
        old = port.atomic_load(addr, 4)
        e.loads += 1
        e.load_hash = ((e.load_hash * _FNV_PRIME) + old + 1) & _HASH_MASK
        if old == e.regs[RAX]:
            port.atomic_store(addr, 4, e.regs[reg])
            e.stores += 1
            e.zf = 1
        else:
            e.regs[RAX] = old
            e.zf = 0
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_mfence(i: Instr) -> DispatchFn:
    def fn(e, port):
        port.fence()
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_nop(i: Instr) -> DispatchFn:
    def fn(e, port):
        e.pc += 1
        e.retired += 1
        e.cur_memops = 0
    return fn


def _c_rep_movs(i: Instr) -> DispatchFn:
    def fn(e, port):
        regs = e.regs
        if regs[RCX] == 0:
            e.pc += 1
            e.retired += 1
            e.cur_memops = 0
            return
        src = regs[RSI]
        if src & 3:
            raise MachineFault(f"misaligned word load at {src:#x}", pc=e.pc)
        value = port.load(src, 4)
        e.loads += 1
        e.load_hash = ((e.load_hash * _FNV_PRIME) + value + 1) & _HASH_MASK
        dst = regs[RDI]
        if dst & 3:
            raise MachineFault(f"misaligned word store at {dst:#x}", pc=e.pc)
        port.store(dst, 4, value & MASK32)
        e.stores += 1
        regs[RSI] = (src + 4) & MASK32
        regs[RDI] = (dst + 4) & MASK32
        regs[RCX] = (regs[RCX] - 1) & MASK32
        e.cur_memops += 2
        if regs[RCX] == 0:
            e.pc += 1
            e.retired += 1
            e.cur_memops = 0
    return fn


def _c_rep_stos(i: Instr) -> DispatchFn:
    def fn(e, port):
        regs = e.regs
        if regs[RCX] == 0:
            e.pc += 1
            e.retired += 1
            e.cur_memops = 0
            return
        dst = regs[RDI]
        if dst & 3:
            raise MachineFault(f"misaligned word store at {dst:#x}", pc=e.pc)
        port.store(dst, 4, regs[RAX] & MASK32)
        e.stores += 1
        regs[RDI] = (dst + 4) & MASK32
        regs[RCX] = (regs[RCX] - 1) & MASK32
        e.cur_memops += 1
        if regs[RCX] == 0:
            e.pc += 1
            e.retired += 1
            e.cur_memops = 0
    return fn


def _c_syscall(i: Instr) -> DispatchFn:
    def fn(e, port):
        return _OUTCOME_SYSCALL
    return fn


def _c_nondet(i: Instr) -> DispatchFn:
    def fn(e, port):
        return _OUTCOME_NONDET
    return fn


def _c_fallback(i: Instr) -> DispatchFn:
    """Uncompiled mnemonic: defer to the interpretive handler (safety net
    for mnemonics added to core without a fast compiler)."""
    def fn(e, port):
        from .core import _DISPATCH
        handler = _DISPATCH.get(i.mnemonic)
        if handler is None:
            raise IllegalInstructionError(f"no handler for {i.mnemonic}",
                                          pc=e.pc)
        return handler(e, port, i)
    return fn


_COMPILERS: dict[str, Callable[[Instr], DispatchFn]] = {
    "mov": _c_mov,
    "lea": _c_lea,
    "load": _c_load,
    "loadb": _c_loadb,
    "store": _c_store,
    "storeb": _c_storeb,
    "push": _c_push,
    "pop": _c_pop,
    "add": _c_add,
    "sub": _c_sub,
    "and": _logic_alu_compiler(lambda a, b: a & b),
    "or": _logic_alu_compiler(lambda a, b: a | b),
    "xor": _logic_alu_compiler(lambda a, b: a ^ b),
    "shl": _logic_alu_compiler(lambda a, b: a << (b & 31)),
    "shr": _logic_alu_compiler(lambda a, b: a >> (b & 31)),
    "sar": _logic_alu_compiler(lambda a, b: _signed(a) >> (b & 31)),
    "mul": _logic_alu_compiler(lambda a, b: a * b),
    "div": _alu_compiler(_k_div),
    "mod": _alu_compiler(_k_mod),
    "neg": _c_neg,
    "not": _c_not,
    "cmp": _c_cmp,
    "test": _c_test,
    "jmp": _c_jmp,
    "je": _branch_compiler(lambda e: e.zf == 1),
    "jne": _branch_compiler(lambda e: e.zf == 0),
    "jl": _branch_compiler(lambda e: e.sf != e.of),
    "jge": _branch_compiler(lambda e: e.sf == e.of),
    "jle": _branch_compiler(lambda e: e.zf == 1 or e.sf != e.of),
    "jg": _branch_compiler(lambda e: e.zf == 0 and e.sf == e.of),
    "jb": _branch_compiler(lambda e: e.cf == 1),
    "jae": _branch_compiler(lambda e: e.cf == 0),
    "jbe": _branch_compiler(lambda e: e.cf == 1 or e.zf == 1),
    "ja": _branch_compiler(lambda e: e.cf == 0 and e.zf == 0),
    "js": _branch_compiler(lambda e: e.sf == 1),
    "jns": _branch_compiler(lambda e: e.sf == 0),
    "call": _c_call,
    "ret": _c_ret,
    "xadd": _c_xadd,
    "xchg": _c_xchg,
    "cmpxchg": _c_cmpxchg,
    "mfence": _c_mfence,
    "pause": _c_nop,
    "nop": _c_nop,
    "rep_movs": _c_rep_movs,
    "rep_stos": _c_rep_stos,
    "rdtsc": _c_nondet,
    "rdrand": _c_nondet,
    "cpuid": _c_nondet,
    "syscall": _c_syscall,
}


def compile_instr(instr: Instr) -> DispatchFn:
    """Compile one instruction into its dispatch closure."""
    compiler = _COMPILERS.get(instr.mnemonic, _c_fallback)
    return compiler(instr)


# -- per-program memoization --------------------------------------------------

_COMPILED: dict[int, list[DispatchFn]] = {}


def decoded_program(program: Program) -> list[DispatchFn]:
    """The compiled dispatch table for ``program``, built once per program
    object (keyed by identity; evicted when the program is collected)."""
    key = id(program)
    table = _COMPILED.get(key)
    if table is None:
        table = [compile_instr(instr) for instr in program.instructions]
        _COMPILED[key] = table
        weakref.finalize(program, _COMPILED.pop, key, None)
    return table



# -- translation blocks -------------------------------------------------------
# A translation block is a basic block compiled into one generated Python
# function ``fn(engine, port) -> units``: a straight run of units that ends
# at ``jmp``, a conditional jump, ``call`` or ``ret``, and stops before any
# mnemonic without a template below (``rep_*``, atomics, fences, traps,
# ``div``/``mod``). The function runs the units back to back, with no
# per-unit dispatch, and leaves exactly the state that stepping them would.
# Only replay runs blocks: a replayed chunk has its thread to itself, so
# nothing interleaves inside a block (see ``Replayer._run_blocks``).
#
# Registers stay in ``regs[...]``; flags, ``load_hash`` and the load/store
# counters live in locals and are committed when the block exits, also when
# a memory access raises. Only memory instructions can raise in a block,
# and each sets ``engine.pc`` to its own pc before touching the port, so
# the fault (and a port that reads ``engine.pc``) sees the faulting pc and
# the units retired before it are ``engine.pc - leader``. The flag
# arithmetic relies on every register holding a 32-bit unsigned value,
# which every writer of ``regs`` guarantees by masking.

#: Condition of each conditional jump over the flag locals (the predicates
#: of the closures above).
_JCC = {
    "je": ("zf == 1", ("zf",)),
    "jne": ("zf == 0", ("zf",)),
    "jl": ("sf != of", ("sf", "of")),
    "jge": ("sf == of", ("sf", "of")),
    "jle": ("zf == 1 or sf != of", ("zf", "sf", "of")),
    "jg": ("zf == 0 and sf == of", ("zf", "sf", "of")),
    "jb": ("cf == 1", ("cf",)),
    "jae": ("cf == 0", ("cf",)),
    "jbe": ("cf == 1 or zf == 1", ("cf", "zf")),
    "ja": ("cf == 0 and zf == 0", ("cf", "zf")),
    "js": ("sf == 1", ("sf",)),
    "jns": ("sf == 0", ("sf",)),
}

#: Mnemonics that end a block; the block includes them as its last unit.
_BLOCK_ENDS = frozenset({"jmp", "call", "ret", *_JCC})

_M = str(MASK32)
_FLAGS = ("zf", "sf", "cf", "of")


def _val(op) -> str:
    """Source text reading a 'v' operand (register or immediate)."""
    return f"regs[{op.number}]" if type(op) is Reg else str(op.value)


def _ea(mem: Mem) -> str:
    """Source text of :func:`_compile_ea`'s arithmetic."""
    base, index, scale, disp = mem.base, mem.index, mem.scale, mem.disp
    if base is None and index is None:
        return str(disp)
    if index is None:
        return f"(regs[{base}] + {disp}) & {_M}"
    if base is None:
        return f"(regs[{index}] * {scale} + {disp}) & {_M}"
    return f"(regs[{base}] + regs[{index}] * {scale} + {disp}) & {_M}"


def _aligned(mem: Mem) -> bool:
    """Is every effective address of ``mem`` word aligned, whatever the
    registers hold? (Masking to 32 bits keeps the low two bits.)"""
    return (mem.base is None and (mem.index is None or mem.scale % 4 == 0)
            and mem.disp % 4 == 0)


class _BlockWriter:
    """The body of one block function, and which state it touches."""

    def __init__(self):
        self.lines: list[str] = []
        self.loads = False
        self.stores = False
        self.flags_written: set[str] = set()
        self._assigned: set[str] = set()
        self._read_first: set[str] = set()
        # Flags still unassigned at each point that can raise: the exit
        # commit reaches them there, so they must hold the entry value.
        self._unassigned_at_raise: set[str] = set()

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def flags_loaded(self) -> set[str]:
        """Flags the function reads from the engine on entry."""
        return self._read_first | (self.flags_written
                                   & self._unassigned_at_raise)

    def read_flags(self, flags) -> None:
        self._read_first.update(set(flags) - self._assigned)

    def set_flags(self, zf: str, sf: str, cf: str, of: str) -> None:
        for name, expr in zip(_FLAGS, (zf, sf, cf, of)):
            self.emit(f"{name} = {expr}")
        self._assigned.update(_FLAGS)
        self.flags_written.update(_FLAGS)

    def logic_flags(self) -> None:
        """Engine._flags_logic over the local ``r``."""
        self.set_flags("0 if r else 1", "r >> 31", "0", "0")

    def access(self, pc: int, addr: str, kind: str | None) -> None:
        """Start the memory access of the unit at ``pc``: publish the pc,
        then fault unless ``addr`` is word aligned (``kind`` None: no
        alignment rule, or statically aligned)."""
        self._unassigned_at_raise.update(set(_FLAGS) - self._assigned)
        self.emit(f"e.pc = {pc}")
        if kind is not None:
            self.emit(f"if {addr} & 3:")
            self.emit(f"    raise MachineFault(f\"misaligned word {kind} at "
                      f"{{{addr}:#x}}\", pc={pc})")

    def load(self, dest: str, addr: str, size: int) -> None:
        self.loads = True
        self.emit(f"{dest} = port.load({addr}, {size})")
        self.emit("ld += 1")
        self.emit(f"h = ((h * {_FNV_PRIME}) + {dest} + 1) & {_HASH_MASK}")

    def store(self, addr: str, size: int, value: str) -> None:
        self.stores = True
        self.emit(f"port.store({addr}, {size}, {value})")
        self.emit("st += 1")


def _mem_addr(w: _BlockWriter, mem: Mem) -> str:
    """Bind the effective address of ``mem``; returns the name to use."""
    text = _ea(mem)
    if text.isdigit():
        return text
    w.emit(f"addr = {text}")
    return "addr"


def _t_mov(w, i, pc):
    w.emit(f"regs[{i.ops[0].number}] = {_val(i.ops[1])}")


def _t_lea(w, i, pc):
    w.emit(f"regs[{i.ops[0].number}] = {_ea(i.ops[1])}")


def _t_load(w, i, pc):
    mem = i.ops[1]
    addr = _mem_addr(w, mem)
    w.access(pc, addr, None if _aligned(mem) else "load")
    w.load("v", addr, 4)
    w.emit(f"regs[{i.ops[0].number}] = v & {_M}")


def _t_loadb(w, i, pc):
    addr = _mem_addr(w, i.ops[1])
    w.access(pc, addr, None)
    w.load("v", addr, 1)
    w.emit(f"regs[{i.ops[0].number}] = v & {_M}")


def _t_store(w, i, pc):
    mem = i.ops[0]
    addr = _mem_addr(w, mem)
    w.access(pc, addr, None if _aligned(mem) else "store")
    w.store(addr, 4, _val(i.ops[1]))


def _t_storeb(w, i, pc):
    addr = _mem_addr(w, i.ops[0])
    w.access(pc, addr, None)
    w.store(addr, 1, f"{_val(i.ops[1])} & 255")


def _t_push(w, i, pc):
    w.emit(f"sp = (regs[{SP}] - 4) & {_M}")
    w.access(pc, "sp", "store")
    w.store("sp", 4, _val(i.ops[0]))
    w.emit(f"regs[{SP}] = sp")


def _t_pop(w, i, pc):
    w.emit(f"addr = regs[{SP}]")
    w.access(pc, "addr", "load")
    w.load("v", "addr", 4)
    w.emit(f"regs[{SP}] = (addr + 4) & {_M}")
    w.emit(f"regs[{i.ops[0].number}] = v & {_M}")


def _t_add(w, i, pc):
    w.emit(f"a = {_val(i.ops[1])}")
    w.emit(f"b = {_val(i.ops[2])}")
    w.emit("raw = a + b")
    w.emit(f"r = raw & {_M}")
    w.set_flags("0 if r else 1", "r >> 31", "raw >> 32",
                "((a ^ r) & (b ^ r)) >> 31")
    w.emit(f"regs[{i.ops[0].number}] = r")


def _sub_flags(w: _BlockWriter) -> None:
    """Engine._flags_sub over the locals ``a``, ``b``; result in ``r``."""
    w.emit(f"r = (a - b) & {_M}")
    w.set_flags("0 if r else 1", "r >> 31", "1 if a < b else 0",
                "((a ^ b) & (a ^ r)) >> 31")


def _t_sub(w, i, pc):
    w.emit(f"a = {_val(i.ops[1])}")
    w.emit(f"b = {_val(i.ops[2])}")
    _sub_flags(w)
    w.emit(f"regs[{i.ops[0].number}] = r")


def _t_cmp(w, i, pc):
    w.emit(f"a = regs[{i.ops[0].number}]")
    w.emit(f"b = {_val(i.ops[1])}")
    _sub_flags(w)


def _t_neg(w, i, pc):
    w.emit(f"b = regs[{i.ops[1].number}]")
    w.emit(f"r = -b & {_M}")
    w.set_flags("0 if r else 1", "r >> 31", "1 if b else 0",
                "(b & r) >> 31")
    w.emit(f"regs[{i.ops[0].number}] = r")


def _t_not(w, i, pc):
    w.emit(f"r = regs[{i.ops[1].number}] ^ {_M}")
    w.logic_flags()
    w.emit(f"regs[{i.ops[0].number}] = r")


def _t_test(w, i, pc):
    w.emit(f"r = regs[{i.ops[0].number}] & {_val(i.ops[1])}")
    w.logic_flags()


def _logic_template(expr: str):
    """A logic-flag ALU op whose result is ``expr`` over locals a, b."""
    def template(w, i, pc):
        w.emit(f"a = {_val(i.ops[1])}")
        w.emit(f"b = {_val(i.ops[2])}")
        w.emit(f"r = {expr}")
        w.logic_flags()
        w.emit(f"regs[{i.ops[0].number}] = r")
    return template


def _t_nop(w, i, pc):
    pass


def _t_jmp(w, i, pc):
    w.emit(f"e.pc = {i.ops[0].value}")


def _jcc_template(mnemonic: str):
    condition, flags = _JCC[mnemonic]

    def template(w, i, pc):
        w.read_flags(flags)
        w.emit(f"e.pc = {i.ops[0].value} if {condition} else {pc + 1}")
    return template


def _t_call(w, i, pc):
    w.emit(f"sp = (regs[{SP}] - 4) & {_M}")
    w.access(pc, "sp", "store")
    w.store("sp", 4, str((pc + 1) & MASK32))
    w.emit(f"regs[{SP}] = sp")
    w.emit(f"e.pc = {i.ops[0].value}")


def _t_ret(w, i, pc):
    w.emit(f"addr = regs[{SP}]")
    w.access(pc, "addr", "load")
    w.load("t", "addr", 4)
    w.emit(f"regs[{SP}] = (addr + 4) & {_M}")
    w.emit("e.pc = t")


_TEMPLATES: dict[str, Callable] = {
    "mov": _t_mov,
    "lea": _t_lea,
    "load": _t_load,
    "loadb": _t_loadb,
    "store": _t_store,
    "storeb": _t_storeb,
    "push": _t_push,
    "pop": _t_pop,
    "add": _t_add,
    "sub": _t_sub,
    "and": _logic_template("a & b"),
    "or": _logic_template("a | b"),
    "xor": _logic_template("a ^ b"),
    "shl": _logic_template(f"(a << (b & 31)) & {_M}"),
    "shr": _logic_template("a >> (b & 31)"),
    "sar": _logic_template(
        f"((a - 4294967296 if a & 2147483648 else a) >> (b & 31)) & {_M}"),
    "mul": _logic_template(f"(a * b) & {_M}"),
    "neg": _t_neg,
    "not": _t_not,
    "cmp": _t_cmp,
    "test": _t_test,
    "nop": _t_nop,
    "pause": _t_nop,
    "jmp": _t_jmp,
    **{mnemonic: _jcc_template(mnemonic) for mnemonic in _JCC},
    "call": _t_call,
    "ret": _t_ret,
}


def _is_reg(number) -> bool:
    return type(number) is int and 0 <= number < NUM_REGS


def _in_block(instr: Instr) -> bool:
    """Can ``instr`` run inside a block? Its mnemonic needs a template, and
    every register number must be a valid int: operands come from the
    bundle's program image and are pasted into generated source, so
    anything else steps through the closures instead."""
    if instr.mnemonic not in _TEMPLATES:
        return False
    for op in instr.ops:
        if type(op) is Reg and not _is_reg(op.number):
            return False
        if type(op) is Mem and not all(
                reg is None or _is_reg(reg) for reg in (op.base, op.index)):
            return False
    return True


def _block_units(instructions, leader: int) -> int:
    """Units in the block at ``leader`` (0: its first unit cannot run in
    a block)."""
    pc = leader
    while pc < len(instructions):
        instr = instructions[pc]
        if not _in_block(instr):
            break
        pc += 1
        if instr.mnemonic in _BLOCK_ENDS:
            break
    return pc - leader


def _block_leaders(program: Program) -> list[int]:
    """Sorted block leaders of ``program``: the entry, every branch target,
    and the pc after each branch or instruction that cannot run in a
    block."""
    instructions = program.instructions
    leaders = {program.entry}
    for pc, instr in enumerate(instructions):
        mnemonic = instr.mnemonic
        if mnemonic in _BLOCK_ENDS:
            leaders.add(pc + 1)
            if mnemonic != "ret":
                leaders.add(instr.ops[0].value)
        elif not _in_block(instr):
            leaders.add(pc + 1)
    return sorted(pc for pc in leaders if 0 <= pc < len(instructions))


def block_source(instructions, leader: int, units: int) -> str:
    """Python source of the block function for ``units`` units at
    ``leader``."""
    w = _BlockWriter()
    for pc in range(leader, leader + units):
        instr = instructions[pc]
        _TEMPLATES[instr.mnemonic](w, instr, pc)
    if instructions[leader + units - 1].mnemonic not in _BLOCK_ENDS:
        w.emit(f"e.pc = {leader + units}")
    loaded = w.flags_loaded()
    prologue = ["regs = e.regs"]
    prologue += [f"{flag} = e.{flag}" for flag in _FLAGS if flag in loaded]
    commit = [f"e.{flag} = {flag}" for flag in _FLAGS
              if flag in w.flags_written]
    if w.loads:
        prologue += ["h = e.load_hash", "ld = e.loads"]
        commit += ["e.load_hash = h", "e.loads = ld"]
    if w.stores:
        prologue.append("st = e.stores")
        commit.append("e.stores = st")
    body = [f"def block_{leader}(e, port):"]
    body += ["    " + line for line in prologue]
    if w.loads or w.stores:
        body.append("    try:")
        body += ["        " + line for line in w.lines]
        body += ["    except BaseException:",
                 f"        e.retired += e.pc - {leader}",
                 "        raise",
                 "    finally:"]
        body += ["        " + line for line in commit]
    else:
        body += ["    " + line for line in w.lines + commit]
    body += [f"    e.retired += {units}", f"    return {units}"]
    return "\n".join(body) + "\n"


def _compile_block(instructions, leader: int, units: int,
                   name: str = "program") -> Callable[[object, object], int]:
    """Compile the block of ``units`` units at ``leader`` into its
    function."""
    source = block_source(instructions, leader, units)
    namespace = {"MachineFault": MachineFault}
    exec(compile(source, f"<block {name}@{leader}>", "exec"), namespace)
    return namespace[f"block_{leader}"]


#: A block-table entry: ``(units, fn)`` at a block leader, None elsewhere.
BlockEntry = tuple[int, Callable[[object, object], int]] | None

_BLOCKS: dict[int, list[BlockEntry]] = {}


def _compile_on_entry(entries: list, instructions, leader: int, units: int,
                      name: str) -> Callable[[object, object], int]:
    """A stand-in that compiles the block on its first run, replaces its
    own table entry with the compiled function, and runs it."""
    def first_entry(e, port):
        fn = _compile_block(instructions, leader, units, name)
        entries[leader] = (units, fn)
        return fn(e, port)
    return first_entry


def block_table(program: Program) -> list[BlockEntry]:
    """The translation-block table of ``program``, indexed by pc.

    Built once per program object (keyed by identity, evicted when the
    program is collected, like :func:`decoded_program`). Every leader gets
    its entry up front; its function compiles on the block's first run.
    """
    key = id(program)
    entries = _BLOCKS.get(key)
    if entries is None:
        instructions = program.instructions
        entries = [None] * len(instructions)
        for leader in _block_leaders(program):
            units = _block_units(instructions, leader)
            if units:
                entries[leader] = (units, _compile_on_entry(
                    entries, instructions, leader, units, program.name))
        _BLOCKS[key] = entries
        weakref.finalize(program, _BLOCKS.pop, key, None)
    return entries

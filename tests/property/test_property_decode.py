"""Decode-cache equivalence: generated unit functions vs the interpretive path.

The decode cache (``repro.machine.decode``) compiles every instruction into
a generated unit function from the same templates that build replay's
compiled regions. These tests pin the contract that the compiled path is
*bit-identical* to the interpretive reference — same architectural state
after every unit, same faults with the same messages, same trap behaviour,
and resumability from an :class:`EngineContext` alone, including
mid-``rep_*`` — and what the generator may emit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import session, workloads
from repro.isa.assembler import assemble
from repro.isa.operands import Reg
from repro.machine.core import Engine, OUTCOME_OK, OUTCOME_SYSCALL
from repro.machine.memory import PhysicalMemory
from repro.session import digest_of

from tests.conftest import DirectPort

_MEMORY_BYTES = 1 << 16
_REGS = ("r1", "r2", "r3", "r4", "r5", "r6")
_ALU3 = ("add", "sub", "and", "or", "xor", "shl", "shr", "sar", "mul")
_BRANCHES = ("je", "jne", "jl", "jle", "jg", "jge",
             "jb", "jbe", "ja", "jae", "js", "jns")

_reg = st.sampled_from(_REGS)
_imm = st.integers(min_value=0, max_value=0xFFFFFFFF)
_word_off = st.sampled_from(range(0, 64, 4))
_byte_off = st.integers(min_value=0, max_value=63)


@st.composite
def _block(draw):
    """One small instruction block; ``{n}`` placeholders make labels unique
    once the program template numbers its blocks."""
    kind = draw(st.sampled_from([
        "mov_imm", "mov_reg", "alu", "divmod", "negnot", "branch",
        "load", "store", "bytes", "lea", "stack", "atomic", "rep",
    ]))
    rd, ra, rb = draw(_reg), draw(_reg), draw(_reg)
    if kind == "mov_imm":
        return [f"mov {rd}, {draw(_imm)}"]
    if kind == "mov_reg":
        return [f"mov {rd}, {ra}"]
    if kind == "alu":
        return [f"{draw(st.sampled_from(_ALU3))} {rd}, {ra}, {rb}"]
    if kind == "divmod":
        # Force the divisor odd so the (deterministic) fault path does not
        # cut the run short; faults get their own dedicated test below.
        return [f"or {rb}, {rb}, 1",
                f"{draw(st.sampled_from(('div', 'mod')))} {rd}, {ra}, {rb}"]
    if kind == "negnot":
        return [f"{draw(st.sampled_from(('neg', 'not')))} {rd}, {ra}"]
    if kind == "branch":
        flag_op = draw(st.sampled_from(("cmp", "test")))
        cond = draw(st.sampled_from(_BRANCHES))
        return [f"{flag_op} {ra}, {rb}", f"{cond} skip_{{n}}",
                f"mov {rd}, {draw(_imm)}", "skip_{n}:"]
    if kind == "load":
        return [f"load {rd}, [buf + {draw(_word_off)}]"]
    if kind == "store":
        return [f"store [buf + {draw(_word_off)}], {ra}"]
    if kind == "bytes":
        return [f"storeb [buf2 + {draw(_byte_off)}], {ra}",
                f"loadb {rd}, [buf2 + {draw(_byte_off)}]"]
    if kind == "lea":
        return [f"lea {rd}, [buf + {ra}*4 + {draw(_word_off)}]"]
    if kind == "stack":
        return [f"push {ra}", f"push {rb}", f"pop {rd}"]
    if kind == "atomic":
        atomic = draw(st.sampled_from(("xadd", "xchg", "cmpxchg")))
        off = draw(_word_off)
        if atomic == "cmpxchg":
            return [f"mov rax, {draw(_imm)}", f"cmpxchg [buf + {off}], {ra}"]
        return [f"{atomic} [buf + {off}], {ra}"]
    # rep: bounded string copy/fill between the two data regions.
    count = draw(st.integers(min_value=0, max_value=6))
    if draw(st.booleans()):
        return [f"mov rcx, {count}", "mov rsi, buf", "mov rdi, buf2",
                "rep_movs"]
    return [f"mov rcx, {count}", f"mov rax, {draw(_imm)}", "mov rdi, buf2",
            "rep_stos"]


@st.composite
def _programs(draw):
    blocks = draw(st.lists(_block(), min_size=1, max_size=25))
    lines = []
    for n, block in enumerate(blocks):
        lines.extend(line.format(n=n) for line in block)
    body = "\n".join(line if line.endswith(":") else "    " + line
                     for line in lines)
    source = (".data\nbuf:\n"
              + "".join(f"    .word {17 * (i + 1)}\n" for i in range(16))
              + "buf2: .space 64\n"
              + ".text\nmain:\n" + body + "\n    syscall\n")
    return assemble(source, name="fuzz")


def _make(program, decode_cache):
    memory = PhysicalMemory(_MEMORY_BYTES)
    memory.load_blob(program.data_base, program.data)
    engine = Engine(program, decode_cache=decode_cache)
    engine.regs[15] = _MEMORY_BYTES - 16
    return engine, DirectPort(memory)


def _state(engine):
    return (engine.pc, tuple(engine.regs), engine.zf, engine.sf, engine.cf,
            engine.of, engine.retired, engine.cur_memops, engine.loads,
            engine.stores, engine.load_hash)


def _lockstep(program, max_units=5000):
    """Step both paths side by side, asserting identical state per unit.

    Returns the (compiled, interpretive) engine/port pairs at the stop
    point for follow-on assertions.
    """
    fast, fast_port = _make(program, decode_cache=True)
    slow, slow_port = _make(program, decode_cache=False)
    for _ in range(max_units):
        fast_exc = slow_exc = fast_out = slow_out = None
        try:
            fast_out = fast.step(fast_port)
        except Exception as exc:  # noqa: BLE001 — fault identity is the point
            fast_exc = exc
        try:
            slow_out = slow.step(slow_port)
        except Exception as exc:  # noqa: BLE001
            slow_exc = exc
        assert type(fast_exc) is type(slow_exc), (fast_exc, slow_exc)
        if fast_exc is not None:
            assert str(fast_exc) == str(slow_exc)
            assert _state(fast) == _state(slow)
            break
        assert fast_out == slow_out
        assert _state(fast) == _state(slow)
        if fast_out != OUTCOME_OK:
            break
    else:
        raise AssertionError("program did not stop within the unit budget")
    assert (fast_port.memory.read(0, _MEMORY_BYTES)
            == slow_port.memory.read(0, _MEMORY_BYTES))
    return (fast, fast_port), (slow, slow_port)


@given(program=_programs())
@settings(max_examples=50, deadline=None)
def test_compiled_and_interpretive_paths_agree(program):
    _lockstep(program)


def test_fault_messages_identical_across_paths():
    for body in ("    mov r1, 5\n    mov r2, 0\n    div r3, r1, r2\n",
                 "    lea r1, [buf + 2]\n    load r2, [r1]\n",
                 "    lea r1, [buf + 3]\n    store [r1], r2\n",
                 "    lea r1, [buf + 1]\n    xadd [r1], r2\n",
                 "    mov r2, 0\n    mod r3, r1, r2\n",
                 "    lea r1, [buf + 2]\n    xchg [r1], r2\n",
                 "    lea r1, [buf + 3]\n    cmpxchg [r1], r2\n",
                 # a faulting rep iteration advances no register
                 "    mov rcx, 2\n    mov rsi, buf\n    lea rdi, [buf + 1]\n"
                 "    rep_movs\n",
                 "    mov rcx, 2\n    lea rdi, [buf + 2]\n    rep_stos\n"):
        source = (".data\nbuf: .word 1\n.text\nmain:\n"
                  + body + "    syscall\n")
        _lockstep(assemble(source, name="faulty"))


def test_atomics_agree_on_both_cmpxchg_outcomes():
    """Random comparands almost never match, so pin the swap too."""
    source = (".data\nbuf: .word 1\n.text\nmain:\n"
              "    mov rax, 1\n    mov r2, 9\n"
              "    cmpxchg [buf], r2\n    cmpxchg [buf], r2\n"
              "    xchg [buf], r3\n    xadd [buf], r2\n    syscall\n")
    (fast, _), _ = _lockstep(assemble(source, name="atomics"))
    assert fast.regs[0] == 9 and fast.regs[2] == 0


def test_trap_leaves_state_untouched_and_complete_trap_agrees():
    source = (".data\nv: .word 9\n.text\nmain:\n"
              "    mov r1, 3\n    rdtsc r4\n    add r2, r1, r1\n"
              "    load r3, [v]\n    syscall\n")
    program = assemble(source, name="trap")
    fast, fast_port = _make(program, decode_cache=True)
    slow, slow_port = _make(program, decode_cache=False)
    for engine, port in ((fast, fast_port), (slow, slow_port)):
        assert engine.step(port) == OUTCOME_OK
        outcome = engine.step(port)
        assert outcome == "nondet"
        # The trap retires nothing: pc still points at the rdtsc.
        assert engine.pc == 1
        assert engine.retired == 1
        engine.complete_trap(Reg(4), 0xDEAD)
    assert _state(fast) == _state(slow)
    while fast.step(fast_port) == OUTCOME_OK:
        pass
    while slow.step(slow_port) == OUTCOME_OK:
        pass
    assert _state(fast) == _state(slow)
    assert fast.regs[4] == 0xDEAD


def test_mid_rep_context_roundtrip_resumes_identically():
    source = (".data\nsrc:\n"
              + "".join(f"    .word {100 + i}\n" for i in range(8))
              + "dst: .space 32\n"
              ".text\nmain:\n"
              "    mov rcx, 8\n    mov rsi, src\n    mov rdi, dst\n"
              "    rep_movs\n    syscall\n")
    program = assemble(source, name="midrep")
    reference, ref_port = _make(program, decode_cache=False)
    while reference.step(ref_port) == OUTCOME_OK:
        pass

    fast, fast_port = _make(program, decode_cache=True)
    for _ in range(6):  # 3 movs + 3 rep iterations: parked mid-instruction
        assert fast.step(fast_port) == OUTCOME_OK
    assert fast.cur_memops == 6  # one load + one store per iteration
    context = fast.save_context()

    # A fresh engine resumes the string instruction from architectural
    # state alone — the QuickRec resumability requirement.
    resumed = Engine(program, decode_cache=True)
    resumed.restore_context(context)
    assert resumed.cur_memops == 6
    while resumed.step(fast_port) == OUTCOME_OK:
        pass
    assert resumed.pc == reference.pc
    assert resumed.regs == reference.regs
    assert (resumed.zf, resumed.sf, resumed.cf, resumed.of) == (
        reference.zf, reference.sf, reference.cf, reference.of)
    assert (fast_port.memory.read(0, _MEMORY_BYTES)
            == ref_port.memory.read(0, _MEMORY_BYTES))


def test_full_session_digest_identical_without_decode_cache():
    """End to end: a recorded run with the interpretive debug path produces
    the same determinism digest as the compiled default."""
    program, inputs = workloads.build("counter", scale=1)
    compiled = session.record(program, seed=3, input_files=inputs)
    interpreted = session.record(program, seed=3, input_files=inputs,
                                 decode_cache=False)
    assert digest_of(compiled) == digest_of(interpreted)
    assert compiled.total_cycles == interpreted.total_cycles
    assert compiled.units == interpreted.units


# -- the instruction compiler --------------------------------------------------

def test_every_mnemonic_has_a_template():
    """Every mnemonic compiles to a generated unit function: only the
    operand guard sends an instruction to its interpretive handler."""
    from repro.isa.instructions import MNEMONICS, Instr
    from repro.isa.operands import Imm, Mem
    from repro.isa.program import Program
    from repro.machine.decode import _TEMPLATES, decoded_program

    assert set(_TEMPLATES) == set(MNEMONICS)
    operand = {"r": Reg(1), "v": Imm(3), "m": Mem(base=2, disp=4),
               "t": Imm(0)}
    program = Program(instructions=tuple(
        Instr(mnemonic, tuple(operand[code] for code in spec.signature))
        for mnemonic, spec in MNEMONICS.items()))
    engine = Engine(program)
    port = DirectPort(PhysicalMemory(_MEMORY_BYTES))
    table = decoded_program(program)
    for pc in range(len(program.instructions)):
        engine.pc = pc
        engine.regs[1] = 1  # nonzero divisor and rep count
        engine.regs[2] = engine.regs[3] = 0x100  # aligned addresses
        engine.regs[15] = 0x200
        engine.step(port)
        assert table[pc].__name__ == f"unit_{pc}"


_ALLOWED_NAMES = frozenset({
    "e", "port", "regs", "MachineFault", "BaseException",
    "a", "b", "r", "raw", "v", "t", "c", "addr", "sp", "src", "dst",
    "h", "ld", "st", "zf", "sf", "cf", "of", "budget", "n", "lead"})
_PORT_CALLS = frozenset({"load", "store", "fence", "atomic_load",
                         "atomic_store"})
_ENGINE_FIELDS = frozenset({"regs", "pc", "retired", "cur_memops",
                            "load_hash", "loads", "stores",
                            "zf", "sf", "cf", "of"})


def _check_generated(source: str) -> None:
    import ast

    tree = ast.parse(source)
    [function] = tree.body
    assert isinstance(function, ast.FunctionDef)
    args = ["e", "port"] if function.name.startswith("unit_") \
        else ["e", "port", "budget"]
    assert [arg.arg for arg in function.args.args] == args
    for node in ast.walk(function):
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.Lambda,
                             ast.Global, ast.Nonlocal, ast.Delete,
                             ast.comprehension, ast.ClassDef)) or (
                isinstance(node, ast.FunctionDef) and node is not function):
            raise AssertionError(f"{type(node).__name__} in {source}")
        if isinstance(node, ast.Name):
            assert node.id in _ALLOWED_NAMES, (node.id, source)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            assert isinstance(owner, ast.Name), source
            allowed = {"e": _ENGINE_FIELDS, "port": _PORT_CALLS}
            assert node.attr in allowed[owner.id], (node.attr, source)
        elif isinstance(node, ast.Call):
            func = node.func
            assert (isinstance(func, ast.Attribute) and func.value.id == "port"
                    or isinstance(func, ast.Name)
                    and func.id == "MachineFault"), source
            assert all(keyword.arg == "pc" for keyword in node.keywords)
        elif isinstance(node, ast.Subscript):
            assert isinstance(node.value, ast.Name) \
                and node.value.id == "regs", source
        elif isinstance(node, ast.Constant):
            assert type(node.value) in (int, str) or node.value is True, \
                (node.value, source)


def test_generated_source_uses_only_allowed_names():
    """Every unit and region source the workloads compile to reads only
    the engine, its registers, the port and ``MachineFault``."""
    from repro.machine.decode import (
        _compilable,
        _regions,
        block_source,
        region_source,
        unit_source,
    )

    looping = 0
    for name in workloads.all_names():
        program, _ = workloads.build(name, scale=1)
        instructions = program.instructions
        for pc, instr in enumerate(instructions):
            assert _compilable(instr)
            _check_generated(unit_source(instructions, pc))
        for blocks, loops in _regions(program):
            if loops:
                looping += 1
                _check_generated(region_source(instructions, blocks))
            else:
                [(leader, units)] = blocks
                _check_generated(block_source(instructions, leader, units))
    assert looping


def _rep_signal_program():
    """sigping whose worker spins through ``rep_movs``/``rep_stos`` copies:
    with a short quantum on one core, the worker is preempted and signalled
    while parked mid-``rep``."""
    from repro.isa.builder import (
        KernelBuilder,
        SYS_KILL,
        SYS_SIGACTION,
        SYS_SIGRETURN,
        SYS_YIELD,
    )

    pings = 12
    b = KernelBuilder()
    b.word("acks", 0)
    b.word("ready", 0)
    b.space("src", 128)
    b.space("dst", 128)
    b.space("stack", 2048)
    b.label("main")
    b.ins("mov", "r9", "stack")
    b.ins("add", "r9", "r9", 2032)
    b.spawn("worker", "r9", 0)
    b.label("wait_ready")
    b.ins("pause")
    b.ins("load", "r7", "[ready]")
    b.ins("test", "r7", "r7")
    b.ins("je", "wait_ready")
    with b.for_range("r6", 0, pings):
        b.ins("push", "r6")
        b.syscall(SYS_KILL, 2, 10)
        b.syscall(SYS_YIELD)
        b.ins("pop", "r6")
    b.label("wait_acks")
    b.syscall(SYS_YIELD)
    b.ins("load", "r7", "[acks]")
    b.ins("cmp", "r7", pings)
    b.ins("jl", "wait_acks")
    b.exit(0)
    b.label("worker")
    b.syscall(SYS_SIGACTION, 10, "handler")
    b.ins("store", "[ready]", 1)
    b.label("spin")
    b.ins("mov", "rcx", 32)
    b.ins("mov", "rsi", "src")
    b.ins("mov", "rdi", "dst")
    b.ins("rep_movs")
    b.ins("mov", "rcx", 32)
    b.ins("mov", "rax", 7)
    b.ins("mov", "rdi", "src")
    b.ins("rep_stos")
    b.ins("load", "r7", "[acks]")
    b.ins("cmp", "r7", pings)
    b.ins("jl", "spin")
    b.exit(0)
    b.label("handler")
    b.ins("load", "r7", "[acks]")
    b.ins("add", "r7", "r7", 1)
    b.ins("store", "[acks]", "r7")
    b.syscall(SYS_SIGRETURN)
    return b.build("rep-signals"), {}


def test_cur_memops_is_nonzero_only_parked_on_a_rep(monkeypatch):
    """Generated code other than ``rep_*`` never writes ``cur_memops``:
    that is sound because it is nonzero only while the engine is parked on
    a ``rep_*`` instruction. Pinned at every unit of recordings through
    the stepped reference loop, across preemption and signal delivery
    mid-``rep``."""
    from repro.config import KernelConfig, MachineConfig, SimConfig
    from repro.kernel.kernel import Kernel
    from repro.machine.machine import Machine
    from tests.reference import install_run_reference

    seen = {"parked": 0, "preempted": 0, "signalled": 0}

    def check(engine):
        if engine.cur_memops:
            assert engine.program.instructions[engine.pc].mnemonic \
                in ("rep_movs", "rep_stos")
            seen["parked"] += 1

    step_core = Machine.step_core

    def checked_step(machine, core_id):
        engine = machine.cores[core_id].engine
        check(engine)
        outcome = step_core(machine, core_id)
        check(engine)
        return outcome

    dispatch = Kernel._dispatch

    def checked_dispatch(kernel, core, task):
        # A context saved mid-rep is one saved at preemption (syscalls and
        # spawns never park on a rep); it is consumed here.
        seen["preempted"] += task.context.cur_memops != 0
        dispatch(kernel, core, task)
        check(core.engine)

    deliver = Kernel._deliver_signal

    def checked_deliver(kernel, core, task):
        saved = len(task.sig_saved)
        deliver(kernel, core, task)
        check(core.engine)
        if len(task.sig_saved) > saved:
            seen["signalled"] += task.sig_saved[-1].cur_memops != 0

    install_run_reference(monkeypatch)
    monkeypatch.setattr(Machine, "step_core", checked_step)
    monkeypatch.setattr(Kernel, "_dispatch", checked_dispatch)
    monkeypatch.setattr(Kernel, "_deliver_signal", checked_deliver)
    for name in ("locks", "fft", "sigping", "radix"):
        program, inputs = workloads.build(name, scale=1)
        session.record(program, seed=1, policy="rr", input_files=inputs)
    assert seen["parked"] == 0  # none of them runs a rep_* instruction
    program, inputs = _rep_signal_program()
    config = SimConfig(machine=MachineConfig(num_cores=1),
                       kernel=KernelConfig(quantum_instructions=10))
    outcome = session.record(program, config=config, seed=1, policy="rr",
                             input_files=inputs)
    assert outcome.kernel_stats["signals_delivered"] == 12
    assert seen["parked"] and seen["preempted"] and seen["signalled"]

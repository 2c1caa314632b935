"""Region discovery and the region table (``repro.machine.decode``).

A region is one strongly connected component of the block graph; replay
runs it as one compiled function under a chunk's unit budget. These tests
pin which blocks form a region, and that a hostile program image (branch
targets come from the bundle) cannot make discovery or compilation blow
up.
"""

import time

from repro import workloads
from repro.isa.instructions import Instr
from repro.isa.operands import Imm, Reg
from repro.isa.program import Program
from repro.machine.core import Engine
from repro.machine.decode import _regions, region_table
from repro.machine.memory import PhysicalMemory

from tests.conftest import DirectPort


def _program(*instructions):
    return Program(instructions=tuple(Instr(m, ops) for m, ops in instructions))


def _add(reg=1):
    return ("add", (Reg(reg), Reg(reg), Imm(1)))


def test_fft_inner_loop_is_one_region():
    program, _ = workloads.build("fft", scale=1)
    looping = [[leader for leader, _ in blocks]
               for blocks, loops in _regions(program) if loops]
    assert [87, 89, 91, 98] in looping


def test_call_and_ret_add_no_edge_back():
    """A call's edge runs to its target only and a ret has none, so a loop
    that calls a function is no region, and neither is the function."""
    program = _program(
        ("mov", (Reg(1), Imm(0))),          # 0
        _add(),                             # 1  loop head
        ("call", (Imm(6),)),                # 2
        ("cmp", (Reg(1), Imm(5))),          # 3  return point
        ("jl", (Imm(1),)),                  # 4
        ("syscall", ()),                    # 5
        _add(2),                            # 6  callee
        ("ret", ()),                        # 7
    )
    assert all(not loops for _, loops in _regions(program))


def test_self_loop_is_a_region_and_stops_at_the_budget():
    program = _program(_add(), ("cmp", (Reg(1), Imm(100))),
                       ("jl", (Imm(0),)), ("syscall", ()))
    [(blocks, loops)] = _regions(program)
    assert blocks == [(0, 3)] and loops
    engine = Engine(program)
    port = DirectPort(PhysicalMemory(1 << 12))
    fn = region_table(program)[0][1]
    assert fn(engine, port, 3 * 7 + 2) == 3 * 7
    assert (engine.pc, engine.retired, engine.regs[1]) == (0, 21, 7)
    assert region_table(program)[0][1].__name__ == "region_0"


def test_region_runs_the_longest_run_of_blocks_that_fits():
    """Blocks of 2 and 3 units alternate around the loop: at every budget
    the region runs exactly the blocks whose total fits, no unit more."""
    program = _program(_add(), ("jmp", (Imm(2),)),
                       _add(2), ("cmp", (Reg(2), Imm(100))),
                       ("jl", (Imm(0),)), ("syscall", ()))
    port = DirectPort(PhysicalMemory(1 << 12))
    for budget in range(2, 40):
        engine = Engine(program)
        blocks, units = 0, 0
        while units + (2, 3)[blocks % 2] <= budget:
            units += (2, 3)[blocks % 2]
            blocks += 1
        assert region_table(program)[0][1](engine, port, budget) == units
        assert (engine.pc, engine.retired) == ((0, 2)[blocks % 2], units)


def test_a_cycle_of_5000_blocks_builds_and_runs_as_one_region():
    """One cycle through 5,000 blocks, half closed by ``jmp`` and half by a
    ``je`` whose fall-through goes on: discovery is iterative (no
    RecursionError at a DFS depth of 5,000) and the generated dispatch is
    a binary tree (nesting grows with log2 of the block count, so no
    SyntaxError). Building, compiling and one lap take well under the
    10 s budget (about 2 s on a 2-vCPU x86 host)."""
    count = 5000
    exit_pc = 3 * count
    instructions = []
    for block in range(count):
        pc = 3 * block
        instructions += [_add(), ("cmp", (Reg(1), Imm(0)))]
        if block == count - 1:
            instructions.append(("jmp", (Imm(0),)))
        elif block % 2:
            instructions.append(("je", (Imm(exit_pc),)))
        else:
            instructions.append(("jmp", (Imm(pc + 3),)))
    instructions.append(("syscall", ()))
    program = _program(*instructions)
    start = time.perf_counter()
    table = region_table(program)
    [(blocks, loops)] = _regions(program)
    assert loops and len(blocks) == count
    assert len({id(entry[1]) for entry in table if entry is not None}) == 1
    engine = Engine(program)
    port = DirectPort(PhysicalMemory(1 << 12))
    assert table[0][1](engine, port, 3 * count + 2) == 3 * count
    assert (engine.pc, engine.retired, engine.regs[1]) == (0, 3 * count,
                                                           count)
    assert table[0][1].__name__ == "region_0"
    assert time.perf_counter() - start < 10


"""The walker entry point of the study pipeline.

:func:`record_trace` records one benchmark run with a compiled walk loop
(``walk.c``) that follows :meth:`~repro.stochastic.walker.CFGWalker.run`
step for step.  The loop draws its branch outcomes from
:func:`numpy_uniform_stream`, which yields exactly the uniforms the
scalar walker's ``random.Random`` does, so the two produce byte-identical
traces for the same seed.  :class:`~repro.stochastic.walker.CFGWalker`
is kept as the oracle the differential tests and
``benchmarks/bench_kernel.py`` measure the kernel against, and never runs
in a study.

The loop is built on first use, never at import, by the system ``gcc``
into ``_CACHE_DIR`` under a name keyed by the hash of its source, the
compiler flags and the platform, and loaded with :mod:`ctypes`.  There is
no fallback engine: a missing or failing compiler is an error
(DESIGN.md §8).
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
import shutil
import subprocess
import sysconfig
import tempfile
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from ..cfg.graph import ControlFlowGraph
from ..obs import inc
from ..obs.spans import span
from .behavior import ProgramBehavior
from .trace import ExecutionTrace

#: Uniforms drawn per refill of the kernel's uniform block.
_UNIFORM_BLOCK = 1 << 16
#: Steps the kernel writes per call before it hands the block back.
_OUT_BLOCK = 1 << 16
#: Where built kernels are kept, one file per source, flags and platform.
_CACHE_DIR = Path.home() / ".cache" / "repro"
_CC = "gcc"
_CFLAGS = ("-O2", "-shared", "-fPIC")


def numpy_uniform_stream(seed: int) -> np.random.RandomState:
    """A ``RandomState`` producing exactly ``random.Random(seed)``'s stream.

    Both generators are MT19937 and both derive doubles as
    ``(a >> 5) * 2^26 + (b >> 6)) / 2^53`` from consecutive 32-bit
    outputs, so seeding is the only difference — which this removes by
    transplanting the Python generator's initialised state.  Successive
    ``random_sample(n)`` calls therefore continue the stream exactly like
    successive ``random.Random.random()`` calls, across any chunking.
    """
    state = random.Random(seed).getstate()[1]
    rs = np.random.RandomState()
    rs.set_state(("MT19937", np.asarray(state[:-1], dtype=np.uint32),
                  int(state[-1])))
    return rs


def _build(source: bytes, path: Path) -> None:
    """Compile ``source`` to ``path``, published atomically: concurrent
    builders each write a private temp file and ``os.replace`` it, so no
    process ever loads a half-written library."""
    command = " ".join((_CC, *_CFLAGS))
    cc = shutil.which(_CC)
    if cc is None:
        raise RuntimeError(f"cannot build the walk kernel {path}: C compiler "
                           f"{_CC!r} not found on PATH (command: {command})")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_CFLAGS, "-x", "c", "-", "-o", tmp],
                              input=source, capture_output=True)
        if proc.returncode:
            raise RuntimeError(
                f"cannot build the walk kernel {path}: {command} exited "
                f"{proc.returncode}:\n{proc.stderr.decode(errors='replace')}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.lru_cache(maxsize=None)
def _load(cache_dir: Path):
    """The ``walk`` entry point of the kernel built into ``cache_dir``."""
    import ctypes

    source = resources.files(__package__).joinpath("walk.c").read_bytes()
    tag = " ".join((sysconfig.get_platform(), _CC, *_CFLAGS)).encode()
    key = hashlib.sha256(source + b"\0" + tag).hexdigest()[:16]
    path = cache_dir / f"walk-{key}.so"
    if not path.exists():
        _build(source, path)
    fn = ctypes.CDLL(str(path)).walk
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    fn.argtypes = [ptr, i64] + [ptr] * 10 + [i64, ptr, i64, ptr, ptr, i64]
    fn.restype = i64
    return fn


def _walk(cfg: ControlFlowGraph, behavior: ProgramBehavior, max_steps: int,
          seed: int = 0, start: Optional[int] = None) -> ExecutionTrace:
    """``CFGWalker(cfg, behavior, seed).run(max_steps, start)``, compiled."""
    kernel = _load(_CACHE_DIR)
    n = cfg.num_nodes
    taken_succ = np.full(n, -1, dtype=np.int32)
    fall_succ = np.full(n, -1, dtype=np.int32)
    single_succ = np.full(n, -1, dtype=np.int32)
    is_branch = np.zeros(n, dtype=np.int8)
    cur_p = np.full(n, 0.5)
    warm_left = np.zeros(n, dtype=np.int64)
    warm_p = np.zeros(n)
    changes = []
    for v in range(n):
        succ = cfg.successors(v)
        if len(succ) == 2:
            is_branch[v] = 1
            taken_succ[v], fall_succ[v] = succ
            b = behavior.behavior_of(v)
            cur_p[v] = b.phases[0].p
            changes += [(ph.until, v, nxt.p)
                        for ph, nxt in zip(b.phases, b.phases[1:])]
            warm_left[v] = b.warmup_uses
            warm_p[v] = b.warmup_p
        elif len(succ) == 1:
            single_succ[v] = succ[0]
    # The scalar walker applies tied changes in this same sorted order.
    changes.sort()
    ch_until = np.array([c[0] for c in changes], dtype=float)
    ch_node = np.array([c[1] for c in changes], dtype=np.int32)
    ch_p = np.array([c[2] for c in changes], dtype=float)

    v = cfg.entry if start is None else start
    if not 0 <= v < n:  # the kernel indexes its tables with it unchecked
        raise IndexError(f"start node {v} outside a {n}-node CFG")
    max_steps = int(max_steps)
    # {node, step, next phase change, next uniform, done}, as in walk.c.
    state = np.array([v, 0, 0, 0, 0], dtype=np.int64)
    fixed = (state.ctypes.data, max_steps, taken_succ.ctypes.data,
             fall_succ.ctypes.data, single_succ.ctypes.data,
             is_branch.ctypes.data, cur_p.ctypes.data, warm_left.ctypes.data,
             warm_p.ctypes.data, ch_until.ctypes.data, ch_node.ctypes.data,
             ch_p.ctypes.data, len(changes))
    cap = max(1, min(_OUT_BLOCK, max_steps))
    rs = numpy_uniform_stream(seed)
    u = np.empty(0)  # drawn on the first branch, not before
    decisions = 0
    blocks, taken = [], []
    while True:
        out_b = np.empty(cap, dtype=np.int32)
        out_t = np.empty(cap, dtype=np.int8)
        written = kernel(*fixed, u.ctypes.data, len(u), out_b.ctypes.data,
                         out_t.ctypes.data, cap)
        blocks.append(out_b[:written])
        taken.append(out_t[:written])
        if state[4]:
            break
        if state[3] == len(u):
            # No walk decides more often than it has steps left.
            decisions += len(u)
            u = rs.random_sample(min(_UNIFORM_BLOCK,
                                     max_steps - int(state[1])))
            state[3] = 0
    decisions += int(state[3])

    inc("kernel.vector.runs")
    inc("kernel.vector.steps", int(state[1]))
    inc("kernel.vector.decisions", decisions)
    # ``concatenate`` copies, so no output block outlives the walk.
    return ExecutionTrace(np.concatenate(blocks), np.concatenate(taken), n)


def record_trace(cfg: ControlFlowGraph, behavior: ProgramBehavior,
                 max_steps: int, seed: int = 0) -> ExecutionTrace:
    """Record one run of ``cfg`` under ``behavior``.

    The per-block event index stays lazy: the replay builds it on first
    use, and a training trace, of which a study reads only the whole-run
    counters, never pays for it.
    """
    with span("kernel.record_trace", steps=int(max_steps)):
        return _walk(cfg, behavior, max_steps, seed)

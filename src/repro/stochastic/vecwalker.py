"""Vectorized event kernel for the walker hot path.

:class:`VecWalker` produces **bit-identical** traces to
:class:`~repro.stochastic.walker.CFGWalker` — same seed ⇒ same event
stream, counter tables, and regions — while replacing the per-step Python
loop with chunked numpy evaluation.  Three layers make that possible:

1. **Exact RNG equivalence.**  CPython's ``random.Random`` and numpy's
   legacy ``RandomState`` share the same MT19937 generator *and* the same
   53-bit double derivation, so transplanting the seeded Python state into
   a ``RandomState`` (:func:`numpy_uniform_stream`) yields the very
   uniform stream the scalar walker consumes — only drawn in bulk.

2. **Run-length-encoded segments.**  At compile time every block is
   mapped to its straight-line *segment*: the chain of single-successor
   blocks up to and including the next conditional branch (or an exit /
   a branch-free cycle).  A run is then a sequence of *decisions* — one
   uniform draw per branch execution — and each chunk's block stream is
   reconstructed with one vectorized ragged gather over the decided
   segment starts.

3. **Loop-pattern windows.**  For a loop latch whose body executes a
   fixed branch sequence (every intermediate two-way split reconverges
   before the next branch — which all generated workload diamonds do),
   the kernel speculates ``K`` iterations at once: one ``(K, plen)``
   comparison of pre-drawn uniforms against the per-column probabilities
   (with warm-up overrides patched into the leading rows) decides every
   branch of the window; the first latch fall-through, the next phase
   boundary, and the step budget clip how much is accepted, and uniforms
   beyond the accepted prefix are simply not consumed — so speculation
   depth never affects the event stream.

Behaviour semantics mirror the scalar walker exactly: phase changes apply
to any decision at global step ``>= until``; warm-up counts down per
branch execution; one uniform is consumed per decision in execution
order; a trace truncated mid-segment never records an outcome for the
segment's terminal branch.  The differential suite
(``tests/stochastic/test_vecwalker_diff.py``) pins all of this.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..cfg.graph import ControlFlowGraph
from ..interp.events import EventBatch
from ..obs import inc
from .behavior import BranchBehavior, ProgramBehavior
from .trace import NO_BRANCH, ExecutionTrace

#: ``seg_branch`` sentinel: the segment ends at an exit block.
SEG_EXIT = -1
#: ``seg_branch`` sentinel: the segment enters a branch-free cycle.
SEG_CYCLE = -2

#: Default chunk granularity (steps per emitted :class:`EventBatch`).
DEFAULT_CHUNK_STEPS = 1 << 16

#: Uniform-draw granularity for the bulk RNG stream.
_DRAW = 1 << 14

#: Upper bound on loop-pattern length; longer bodies use the slow path.
_MAX_PATTERN = 64

#: Speculation-window bounds (iterations per vectorized window).
_WIN_MIN = 8
_WIN_MAX = 4096

#: A pattern is only worth a numpy round-trip when one loop *visit* is
#: expected to decide at least this many branches (``plen / (1 - p)`` for
#: the latch's current phase); shorter-lived loops run faster on the
#: per-decision path.
_MIN_WINDOW_DECISIONS = 64

#: Break-even for the specialized self-loop window (``plen == 1``): its
#: constant iteration length removes the reshape / arm gathers /
#: searchsorted of the general window, so much shorter trips still pay.
_MIN_SIMPLE_DECISIONS = 16


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


class _LoopPattern:
    """Compile-time description of one vectorizable loop body.

    ``branches`` is the fixed sequence of branch ids executed per
    iteration starting from the latch's taken successor; the last entry
    is the latch itself.  ``warm_slots`` lists the pattern positions whose
    branch has a warm-up phase (so the run-time window knows which columns
    may need patching).  ``min_iter_steps`` lower-bounds the steps one
    iteration emits (used to size speculation windows).
    """

    __slots__ = ("start", "latch", "branches", "plen", "warm_slots",
                 "min_iter_steps", "max_iter_steps", "base", "arm_start",
                 "arm_len", "max_win", "p_gate")

    def __init__(self, start: int, latch: int, branches: List[int],
                 warm_slots: List[Tuple[int, int]], min_iter_steps: int,
                 max_iter_steps: int, succ2: List[Tuple[int, int]],
                 seg_len: List[int]):
        self.start = start
        self.latch = latch
        self.branches = branches
        self.plen = len(branches)
        self.warm_slots = warm_slots
        self.min_iter_steps = min_iter_steps
        self.max_iter_steps = max_iter_steps
        self.max_win = max(1, min(_WIN_MAX, (1 << 16) // self.plen))
        # Flat per-(position, outcome) successor tables: one gather per
        # window resolves decision k to `arm_*[base[k] + outcome_k]`.
        self.arm_start = np.empty(2 * self.plen, dtype=np.int64)
        self.arm_len = np.empty(2 * self.plen, dtype=np.int64)
        for j, b in enumerate(branches):
            for o in (0, 1):
                nxt = succ2[b][o]
                self.arm_start[2 * j + o] = nxt
                self.arm_len[2 * j + o] = seg_len[nxt]
        self.base = np.tile(np.arange(self.plen, dtype=np.int64) * 2,
                            self.max_win)
        # Minimum latch probability for a window to be worth its numpy
        # round-trip: a visit decides ~plen/(1-p) branches, so require
        # p >= 1 - plen/break_even (checked against the latch's
        # *current* phase at run time).
        break_even = (_MIN_SIMPLE_DECISIONS if self.plen == 1
                      else _MIN_WINDOW_DECISIONS)
        self.p_gate = 1.0 - self.plen / break_even


class VecWalker:
    """Chunked numpy executor, event-for-event equal to the scalar walker.

    Args:
        cfg: the benchmark CFG (branch nodes have taken successor first).
        behavior: per-branch taken-probability models.
        seed: RNG seed — the same seed as :class:`CFGWalker` produces the
            same trace, by construction.
        chunk_steps: approximate steps per emitted batch (chunks may
            overshoot by one speculation window; boundaries never affect
            event content).
    """

    def __init__(self, cfg: ControlFlowGraph, behavior: ProgramBehavior,
                 seed: int = 0, chunk_steps: int = DEFAULT_CHUNK_STEPS):
        if chunk_steps < 1:
            raise ValueError(f"chunk_steps must be >= 1, got {chunk_steps}")
        self.cfg = cfg
        self.behavior = behavior
        self.seed = seed
        self.chunk_steps = int(chunk_steps)
        self._compile()

    # -- compilation -----------------------------------------------------------

    def _compile(self) -> None:
        cfg = self.cfg
        n = cfg.num_nodes
        taken_succ = [-1] * n
        fall_succ = [-1] * n
        single_succ = [-1] * n
        is_branch = [False] * n
        for v in range(n):
            succ = cfg.successors(v)
            if len(succ) == 2:
                is_branch[v] = True
                taken_succ[v] = succ[0]
                fall_succ[v] = succ[1]
            elif len(succ) == 1:
                single_succ[v] = succ[0]
        self._is_branch = is_branch
        self._taken_succ = taken_succ
        self._fall_succ = fall_succ

        # Branch behaviours, flattened exactly like the scalar walker.
        cur_p0 = [0.5] * n
        warm0 = [0] * n
        warm_p = [0.5] * n
        changes: List[Tuple[float, int, float]] = []
        for v in range(n):
            if not is_branch[v]:
                continue
            b: BranchBehavior = self.behavior.behavior_of(v)
            cur_p0[v] = b.phases[0].p
            for i, phase in enumerate(b.phases[:-1]):
                changes.append((phase.until, v, b.phases[i + 1].p))
            warm0[v] = b.warmup_uses
            warm_p[v] = b.warmup_p
        changes.sort()
        self._cur_p0 = cur_p0
        self._warm0 = warm0
        self._warm_p = warm_p
        self._changes = changes

        # Straight-line segments: from every block, the chain through
        # single-successor blocks up to and including its terminal branch.
        seg_blocks: List[np.ndarray] = []
        seg_branch: List[int] = []
        seg_len: List[int] = []
        seg_cycle_at: List[int] = []
        for v in range(n):
            chain: List[int] = []
            seen: Dict[int, int] = {}
            x = v
            branch = SEG_EXIT
            cycle_at = -1
            while True:
                if x in seen:
                    branch = SEG_CYCLE
                    cycle_at = seen[x]
                    break
                seen[x] = len(chain)
                chain.append(x)
                if is_branch[x]:
                    branch = x
                    break
                nxt = single_succ[x]
                if nxt < 0:
                    branch = SEG_EXIT
                    break
                x = nxt
            seg_blocks.append(np.asarray(chain, dtype=np.int32))
            seg_branch.append(branch)
            seg_len.append(len(chain))
            seg_cycle_at.append(cycle_at)
        self._seg_blocks = seg_blocks
        self._seg_branch = seg_branch
        self._seg_len = seg_len
        self._seg_cycle_at = seg_cycle_at
        self._seg_len_np = np.asarray(seg_len, dtype=np.int64)
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(self._seg_len_np[:-1], out=offsets[1:])
        self._seg_off_np = offsets
        self._flat_blocks = (np.concatenate(seg_blocks) if seg_blocks
                             else np.zeros(0, dtype=np.int32))

        # Decision successor table: succ2[b][outcome] = next segment start.
        self._succ2 = [(fall_succ[v], taken_succ[v]) for v in range(n)]
        self._patterns = self._find_patterns()
        # Fused per-node tuple for the decision loop: one list index
        # yields (segment length, terminal branch, the branch's fall /
        # taken successors — i.e. the next segment start per outcome —
        # and the loop pattern rooted at this node, if any).
        self._seg_info = [
            (seg_len[v], seg_branch[v],
             fall_succ[seg_branch[v]] if seg_branch[v] >= 0 else -1,
             taken_succ[seg_branch[v]] if seg_branch[v] >= 0 else -1,
             self._patterns.get(v))
            for v in range(n)]

    def _find_patterns(self) -> Dict[int, _LoopPattern]:
        """Discover vectorizable loop bodies (fixed branch sequences).

        A latch ``l`` qualifies when the chain of segments from its taken
        successor executes the same branches every iteration: each
        intermediate branch's two arms must *reconverge* — both arm
        segments end at the same next branch — and the chain must return
        to ``l``.  Nested latches break reconvergence for their outer
        loop (the inner trip count varies), so inner loops vectorize and
        outer levels fall back to the per-decision path.
        """
        patterns: Dict[int, _LoopPattern] = {}
        seg_branch = self._seg_branch
        seg_len = self._seg_len
        for latch in range(self.cfg.num_nodes):
            if not self._is_branch[latch]:
                continue
            start = self._taken_succ[latch]
            x = seg_branch[start]
            chain: List[int] = []
            min_steps = seg_len[start]
            max_steps_i = seg_len[start]
            ok = True
            while True:
                if x < 0:
                    ok = False
                    break
                chain.append(x)
                if x == latch:
                    break
                if len(chain) > _MAX_PATTERN or x in chain[:-1]:
                    ok = False
                    break
                t_arm = self._taken_succ[x]
                f_arm = self._fall_succ[x]
                nt = seg_branch[t_arm]
                if nt < 0 or nt != seg_branch[f_arm]:
                    ok = False
                    break
                min_steps += min(seg_len[t_arm], seg_len[f_arm])
                max_steps_i += max(seg_len[t_arm], seg_len[f_arm])
                x = nt
            if not ok or start in patterns:
                continue
            warm_slots = [(j, b) for j, b in enumerate(chain)
                          if self._warm0[b] > 0]
            patterns[start] = _LoopPattern(start, latch, chain, warm_slots,
                                           max(min_steps, 1), max_steps_i,
                                           self._succ2, seg_len)
        return patterns

    # -- execution -------------------------------------------------------------

    def run(self, max_steps: int,
            start: Optional[int] = None) -> ExecutionTrace:
        """Walk the CFG for up to ``max_steps`` block executions.

        The per-block event index stays lazy (as with the scalar walker);
        streaming consumers that want counter tables per chunk should
        iterate :meth:`run_batches` into an
        :class:`~repro.stochastic.trace.EventIndexBuilder` instead —
        that is what :func:`~repro.stochastic.kernel.record_trace` does.
        """
        chunks_blocks: List[np.ndarray] = []
        chunks_taken: List[np.ndarray] = []
        for batch in self.run_batches(max_steps, start=start):
            chunks_blocks.append(batch.blocks)
            chunks_taken.append(batch.taken)
        if chunks_blocks:
            blocks = np.concatenate(chunks_blocks)
            taken = np.concatenate(chunks_taken)
        else:
            blocks = np.zeros(0, dtype=np.int32)
            taken = np.zeros(0, dtype=np.int8)
        return ExecutionTrace(blocks, taken, self.cfg.num_nodes)

    def run_batches(self, max_steps: int,
                    start: Optional[int] = None) -> Iterator[EventBatch]:
        """Generate the event stream as :class:`EventBatch` chunks.

        Concatenating the chunks yields exactly the scalar walker's
        arrays; chunk boundaries are a delivery detail.
        """
        max_steps = int(max_steps)
        seg_len = self._seg_len
        seg_len_np = self._seg_len_np
        seg_off_np = self._seg_off_np
        flat_blocks = self._flat_blocks
        seg_info = self._seg_info
        chunk_steps = self.chunk_steps

        # Per-run mutable behaviour state (compile state is never touched).
        cur_p = list(self._cur_p0)
        warm_left = list(self._warm0)
        warm_p = self._warm_p
        changes = self._changes
        change_idx = 0
        num_changes = len(changes)
        next_change = changes[0][0] if changes else math.inf
        limit = next_change if next_change < max_steps else max_steps
        p_version = 0
        prob_rows: Dict[int, Tuple[int, np.ndarray]] = {}
        win_iters: Dict[int, int] = {}
        # One loop *visit* may span several windows (clipped by phase
        # boundaries or undersized speculation); adapt the window depth to
        # the visit-cumulative trip length, not the last partial window.
        visit_start = -1
        visit_iters = 0

        rs = numpy_uniform_stream(self.seed)
        U = rs.random_sample(_DRAW)
        u_list = U.tolist()  # plain-float view for the per-decision path
        ulen = _DRAW
        ci = 0

        v = self.cfg.entry if start is None else start
        g = 0
        chunk_start = 0
        # Decided segments accumulate as (starts, outcomes) array pieces,
        # interleaved with (lo, hi) index markers into ``slow_t`` for the
        # slow-path token runs (decoded in one pass per chunk).
        pieces: List[Tuple] = []
        slow_t: List[int] = []  # packed (start << 1) | outcome tokens
        slow_append = slow_t.append
        slow_lo = 0  # tokens below this index are already sealed
        tail_node = -1
        tail_len = 0
        tail_raw: Optional[np.ndarray] = None
        done = False
        slow_decisions = 0
        window_decisions = 0
        num_chunks = 0

        def build_batch() -> Optional[EventBatch]:
            # Slow-path tokens accumulate per chunk in one flat list;
            # sealing a run (window commit) only records an (lo, hi)
            # marker in ``pieces`` and the whole chunk is decoded here in
            # a single numpy pass, with the markers resolved as views.
            nonlocal slow_decisions, slow_lo
            ns = len(slow_t)
            if ns > slow_lo:
                pieces.append((slow_lo, ns))
            if not pieces and tail_node < 0 and tail_raw is None:
                return None
            if ns:
                slow_decisions += ns
                arr = np.asarray(slow_t, dtype=np.int64)
                sv = arr >> 1
                so = arr & 1
                resolved = [(sv[p0:p1], so[p0:p1]) if type(p0) is int
                            else (p0, p1) for p0, p1 in pieces]
                slow_t.clear()
            else:
                resolved = pieces
            slow_lo = 0
            if resolved:
                starts = (resolved[0][0] if len(resolved) == 1 else
                          np.concatenate([p[0] for p in resolved]))
                outcomes = (resolved[0][1] if len(resolved) == 1 else
                            np.concatenate([p[1] for p in resolved]))
            else:
                starts = np.zeros(0, dtype=np.int64)
                outcomes = np.zeros(0, dtype=np.int8)
            n_dec = len(outcomes)
            if tail_node >= 0:
                starts = np.append(starts, tail_node)
            lens = seg_len_np[starts]
            if tail_node >= 0:
                lens[-1] = tail_len  # truncated final segment (a prefix)
            ends = np.cumsum(lens)
            total = int(ends[-1]) if len(ends) else 0
            idx = np.repeat(seg_off_np[starts] - (ends - lens), lens)
            idx += np.arange(total, dtype=np.int64)
            blocks = flat_blocks[idx]
            taken = np.full(total, NO_BRANCH, dtype=np.int8)
            if n_dec:
                taken[ends[:n_dec] - 1] = outcomes
            if tail_raw is not None:
                blocks = np.concatenate([blocks, tail_raw])
                taken = np.concatenate([
                    taken, np.full(len(tail_raw), NO_BRANCH, dtype=np.int8)])
            pieces.clear()
            return EventBatch(blocks=blocks, taken=taken)

        chunk_limit = chunk_steps
        while not done and g < max_steps:
            L, b, nf, nt, pat = seg_info[v]
            if pat is not None:
                latch = pat.latch
                lp = warm_p[latch] if warm_left[latch] > 0 else cur_p[latch]
                if lp < pat.p_gate:
                    # The latch's current phase exits too quickly for a
                    # window to beat the per-decision path.
                    pass
                elif pat.plen == 1:
                    # ---- specialized self-loop window ----
                    # The latch is the only branch and every iteration emits
                    # exactly ``L`` steps, so decision ``k`` sits at global
                    # step ``g - 1 + (k+1)*L``: clipping against the next
                    # phase boundary / step budget is pure arithmetic, the
                    # accepted starts are one broadcast store, and no arm
                    # gathers are needed (taken returns to ``v``, fall
                    # leaves).
                    K = win_iters.get(v, _WIN_MIN)
                    if ulen - ci < K:
                        fresh = rs.random_sample(
                            -(-(K - (ulen - ci)) // _DRAW) * _DRAW)
                        U = np.concatenate([U[ci:], fresh])
                        u_list = U.tolist()
                        ulen = len(U)
                        ci = 0
                    u = U[ci:ci + K]
                    O1 = u < cur_p[b]
                    w = warm_left[b]
                    if w > 0:
                        wk = w if w < K else K
                        O1[:wk] = u[:wk] < warm_p[b]
                    fi = int(O1.argmin())
                    a = K if O1[fi] else fi + 1
                    avail = (limit - g) // L
                    acc = a if a <= avail else int(avail)
                    if acc > 0:
                        if w > 0:
                            warm_left[b] = w - acc if acc < w else 0
                        ns = len(slow_t)
                        if ns > slow_lo:
                            pieces.append((slow_lo, ns))
                            slow_lo = ns
                        starts_run = np.empty(acc, dtype=np.int64)
                        starts_run[:] = v
                        pieces.append((starts_run, O1[:acc].view(np.int8)))
                        ci += acc
                        g += acc * L
                        if v != visit_start:
                            visit_start = v
                            visit_iters = 0
                        visit_iters += acc
                        exited = acc == a and not O1[acc - 1]
                        grow = (4 * visit_iters if exited
                                else 2 * max(visit_iters, K))
                        win_iters[v] = min(max(_WIN_MIN, grow), pat.max_win)
                        if exited:
                            visit_start = -1
                            v = nf
                        window_decisions += acc
                        if g >= chunk_limit:
                            batch = build_batch()
                            if batch is not None:
                                num_chunks += 1
                                yield batch
                            chunk_limit = g + chunk_steps
                        continue
                else:
                    # ---- vectorized loop window ----
                    plen = pat.plen
                    K = win_iters.get(v, _WIN_MIN)
                    if K > pat.max_win:
                        K = pat.max_win
                    need = K * plen
                    if ulen - ci < need:
                        fresh = rs.random_sample(
                            -(-(need - (ulen - ci)) // _DRAW) * _DRAW)
                        U = np.concatenate([U[ci:], fresh])
                        u_list = U.tolist()
                        ulen = len(U)
                        ci = 0
                    Uf = U[ci:ci + need]
                    cached = prob_rows.get(v)
                    if cached is None or cached[0] != p_version:
                        row_flat = np.tile(
                            np.array([cur_p[pb] for pb in pat.branches]),
                            pat.max_win)
                        prob_rows[v] = (p_version, row_flat)
                    else:
                        row_flat = cached[1]
                    O = (Uf < row_flat[:need]).view(np.int8)
                    for j, wb in pat.warm_slots:
                        w = warm_left[wb]
                        if w > 0:
                            w = min(w, K)
                            O[j::plen][:w] = (
                                Uf[j::plen][:w] < warm_p[wb]).view(np.int8)
                    latch_col = O[plen - 1::plen]
                    fi = int(latch_col.argmin())  # first fall-through, if any
                    a_iters = K if latch_col[fi] else fi + 1
                    m = a_iters * plen
                    o_flat = O[:m]
                    arm_idx = pat.base[:m] + o_flat
                    starts_flat = pat.arm_start[arm_idx]
                    # Common case: even the longest possible window stays clear
                    # of the next phase boundary and the step budget, so every
                    # decision is accepted without materialising positions.
                    if g + a_iters * pat.max_iter_steps < limit:
                        acc = m
                        g = g + seg_len[v] + int(
                            pat.arm_len[arm_idx[:m - 1]].sum())
                    else:
                        # Decision k's branch ends segment k, so its global
                        # step is a shifted running sum of segment lengths.
                        pos = np.empty(m, dtype=np.int64)
                        pos[0] = seg_len[v]
                        pos[1:] = pat.arm_len[arm_idx[:m - 1]]
                        np.cumsum(pos, out=pos)
                        pos += g - 1
                        if pos[m - 1] < limit:
                            acc = m
                        else:
                            acc = int(np.searchsorted(pos, limit, side="left"))
                        if acc == 0:
                            # A phase boundary or the step budget precedes the
                            # first decision — the slow path resolves it.
                            pat = None
                        else:
                            g = int(pos[acc - 1]) + 1
                    if pat is not None:
                        for j, wb in pat.warm_slots:
                            w = warm_left[wb]
                            if w > 0:
                                used = acc // plen + (1 if j < acc % plen else 0)
                                warm_left[wb] = w - used if used < w else 0
                        starts_piece = np.empty(acc, dtype=np.int64)
                        starts_piece[0] = v
                        starts_piece[1:] = starts_flat[:acc - 1]
                        ns = len(slow_t)
                        if ns > slow_lo:
                            pieces.append((slow_lo, ns))
                            slow_lo = ns
                        pieces.append((starts_piece, o_flat[:acc]))
                        ci += acc
                        if v != visit_start:
                            visit_start = v
                            visit_iters = 0
                        visit_iters += acc // plen
                        # Size the next window off the cumulative trip length
                        # of the whole visit, so a typical visit is decided in
                        # one numpy round-trip next time around.
                        exited = acc == m and not latch_col[a_iters - 1]
                        grow = (4 * visit_iters if exited
                                else 2 * max(visit_iters, K))
                        win_iters[v] = min(max(_WIN_MIN, grow), pat.max_win)
                        if exited:
                            visit_start = -1
                        v = int(starts_flat[acc - 1])
                        window_decisions += acc
                        if g >= chunk_limit:
                            batch = build_batch()
                            if batch is not None:
                                num_chunks += 1
                                yield batch
                            chunk_limit = g + chunk_steps
                        continue

            # ---- per-decision slow path ----
            end = g + L
            if b >= 0 and end <= max_steps:
                if end > next_change:
                    pos_d = end - 1
                    while change_idx < num_changes and \
                            changes[change_idx][0] <= pos_d:
                        _, node, new_p = changes[change_idx]
                        cur_p[node] = new_p
                        change_idx += 1
                    next_change = changes[change_idx][0] \
                        if change_idx < num_changes else math.inf
                    limit = (next_change if next_change < max_steps
                             else max_steps)
                    p_version += 1
                w = warm_left[b]
                if w > 0:
                    warm_left[b] = w - 1
                    p = warm_p[b]
                else:
                    p = cur_p[b]
                if ci == ulen:
                    U = rs.random_sample(_DRAW)
                    u_list = U.tolist()
                    ulen = _DRAW
                    ci = 0
                if u_list[ci] < p:
                    slow_append((v << 1) | 1)
                    v = nt
                else:
                    slow_append(v << 1)
                    v = nf
                ci += 1
                g = end
                if g >= chunk_limit:
                    batch = build_batch()
                    if batch is not None:
                        num_chunks += 1
                        yield batch
                    chunk_limit = g + chunk_steps
                continue

            # ---- terminal: exit, branch-free cycle, or step budget ----
            remaining = max_steps - g
            if b == SEG_CYCLE and remaining > L:
                path = self._seg_blocks[v]
                cyc = path[self._seg_cycle_at[v]:]
                reps, rest = divmod(remaining - L, len(cyc))
                tail_raw = np.concatenate([path, np.tile(cyc, reps),
                                           cyc[:rest]])
            else:
                # Ends at an exit, or truncated mid-segment: emit the
                # prefix; a cut terminal branch records no outcome, like
                # the scalar walker that never reaches its step.
                tail_node = v
                tail_len = min(L, remaining)
            g += min(L, remaining) if tail_raw is None else remaining
            done = True

        batch = build_batch()
        if batch is not None:
            num_chunks += 1
            yield batch

        inc("kernel.vector.runs")
        inc("kernel.vector.steps", g)
        inc("kernel.vector.chunks", num_chunks)
        inc("kernel.vector.decisions", slow_decisions + window_decisions)
        inc("kernel.vector.decisions.window", window_decisions)
        inc("kernel.vector.decisions.slow", slow_decisions)


def vec_walk(cfg: ControlFlowGraph, behavior: ProgramBehavior,
             max_steps: int, seed: int = 0) -> ExecutionTrace:
    """One-shot convenience wrapper around :class:`VecWalker`."""
    return VecWalker(cfg, behavior, seed=seed).run(max_steps)

"""The in-order 4-wide scoreboard pipeline (detailed timing model).

Timing semantics, per instruction, in program order:

* an instruction issues at the earliest cycle that satisfies (a) program
  order, (b) source operands ready, (c) an issue slot free this cycle within
  the machine width, (d) a functional-unit slot free for its class,
  (e) instruction fetch not stalled (I-cache miss or branch redirect);
* loads pay the full cache-hierarchy latency before their destination is
  ready; stores retire through a store buffer (no dependent latency);
* divides occupy their unpipelined unit until completion;
* a mispredicted branch stalls fetch for the machine's redirect penalty.

Register ready-times are absolute cycle numbers that persist across sample
windows; the detailed warm-up window preceding each measured sample (the
SMARTS/PGSS methodology) is what re-establishes them after a long
fast-forward, exactly as in the paper.

The timing core (:meth:`_issue_timing`) issues one block execution from
its architectural outcomes.  :meth:`replay` drives it as the timing half
of the batched detailed modes.  The architectural pass
(:meth:`~repro.cpu.functional.FunctionalWarmer.execute_batch`) has already
applied a slice's cache and predictor transitions, which never read the
clock, and recorded the outcomes the scoreboard needs: misses,
mispredictions and fetch stalls.  Timing is a pure function of those
outcomes and of the time-like state expressed relative to the current
cycle.  Relative contexts are interned to small integer ids and the
transition for (context, latencies, prediction outcome) is memoized, so
repeated block executions walk an integer chain instead of running the
scoreboard, and stretches of all-hit, correctly predicted iterations
collapse into closed form (see DESIGN.md §15).

Cycle counts and scoreboard state end byte-identical to issuing every
expanded event through the scoreboard one at a time, with its cache and
predictor accesses in program order; ``tests/scalar_reference.py`` keeps
that event loop as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..branch import BranchPredictor
from ..config import MachineConfig
from ..isa import FU_CLASS, FU_LIMITS, N_REGS, Op
from ..isa.instructions import FuClass
from ..memory import CacheHierarchy
from ..program.stream import BlockRun
from .functional import Outcomes

__all__ = ["InOrderPipeline", "WindowMarks"]

_OP_LOAD = int(Op.LOAD)
_OP_STORE = int(Op.STORE)
_OP_BRANCH = int(Op.BRANCH)
_OP_IDIV = int(Op.IDIV)
_OP_FDIV = int(Op.FDIV)

_FU_OF_OP: List[int] = [int(FU_CLASS[Op(i)]) for i in range(len(Op))]
_N_FU = len(FuClass)

#: Per-class issue limits as a list indexed by FuClass value.
_FU_LIMIT_LIST: List[int] = [FU_LIMITS[FuClass(i)] for i in range(_N_FU)]

#: Transition-memo size cap; distinct contexts per block are few, so this
#: is a backstop against pathological key churn, not a working-set tuner.
_MEMO_CAP = 65_536


@dataclass
class WindowMarks:
    """Window ends inside one detailed pass, and the cycles they end at.

    One architectural pass can cover several consecutive windows
    (:meth:`~repro.cpu.SimulationEngine.run_windows`).  Every window ends
    on a run boundary, so :meth:`InOrderPipeline.replay` can note the
    cycle there: when the ops replayed since the pass began reach the
    next entry of :attr:`ends`, the current cycle is appended to
    :attr:`cycles`.  The marks carry over from one slice to the next.

    Attributes:
        ends: ascending op offsets, from the pass's first op, at which a
            window ends.
        cycles: the cycle reached at each end so far.
        ops: ops replayed so far in the pass.
    """

    ends: List[int]
    cycles: List[int] = field(default_factory=list)
    ops: int = 0


class InOrderPipeline:
    """Cycle-accurate in-order superscalar timing model.

    Args:
        machine: machine configuration (width, penalties).
        hierarchy: the cache hierarchy shared with the functional modes.
        predictor: the branch predictor shared with the functional modes.
    """

    def __init__(
        self,
        machine: MachineConfig,
        hierarchy: CacheHierarchy,
        predictor: BranchPredictor,
    ) -> None:
        self.machine = machine
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.cycle = 0
        self._reg_ready: List[int] = [0] * N_REGS
        self._fu_busy: List[int] = [0] * _N_FU  # unpipelined-unit next-free
        self._fetch_ready = 0
        self._width_used = 0
        self._class_used: List[int] = [0] * _N_FU
        self._l1d_hit_latency = hierarchy.l1d.hit_latency
        #: Completion-cycle min-heap of in-flight L1 misses (<= n_mshrs
        #: live entries; completed ones are drained lazily).
        self._mshrs: List[int] = []
        # Timing-replay memoization (see replay).  Relative timing
        # contexts are interned: _ctx_ids maps the full context tuple to a
        # small id, _ctx_states holds the tuple for materialization, and
        # _chain maps (context id, latencies, prediction outcome) to the
        # scoreboard transition it produces.  All of it is expressed
        # relative to the current cycle, so entries stay valid across
        # windows, timing resets and checkpoint restores.
        self._ctx_ids: Dict[Tuple[Any, ...], int] = {}
        self._ctx_states: List[Tuple[Any, ...]] = []
        self._chain: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        self._paths: Dict[int, Any] = {}
        self._plans: Dict[int, Tuple[Any, ...]] = {}

    def reset_timing(self) -> None:
        """Clear all timing state (cycle counter, scoreboards, stalls).

        The transition memo survives: its entries relate relative contexts
        and are independent of any absolute cycle numbers.
        """
        self.cycle = 0
        self._reg_ready = [0] * N_REGS
        self._fu_busy = [0] * _N_FU
        self._fetch_ready = 0
        self._width_used = 0
        self._class_used = [0] * _N_FU
        self._mshrs = []

    def timing_snapshot(self) -> Dict[str, Any]:
        """The scoreboard state, relative to the current cycle.

        Same form as :meth:`_intern_context`: every ready time is an
        offset from :attr:`cycle`, and times in the past clamp to zero,
        because every consumer compares them against times at or beyond
        the current cycle.  The relative form is also what the timing
        replay and an event-at-a-time walk of the scoreboard agree on, so
        a snapshot of either restores the same timing.
        """
        cycle = self.cycle
        return {
            "width_used": self._width_used,
            "class_used": list(self._class_used),
            "fetch_ready": max(self._fetch_ready - cycle, 0),
            "fu_busy": [max(v - cycle, 0) for v in self._fu_busy],
            "reg_ready": [max(v - cycle, 0) for v in self._reg_ready],
            "mshrs": sorted(t - cycle for t in self._mshrs if t > cycle),
        }

    def restore_timing(self, cycle: int, timing: Dict[str, Any]) -> None:
        """Re-anchor a :meth:`timing_snapshot` on *cycle*."""
        self.cycle = cycle
        self._width_used = timing["width_used"]
        self._class_used = list(timing["class_used"])
        self._fetch_ready = cycle + timing["fetch_ready"]
        self._fu_busy = [cycle + rel for rel in timing["fu_busy"]]
        self._reg_ready = [cycle + rel for rel in timing["reg_ready"]]
        # A sorted ascending list is already a valid heap.
        self._mshrs = [cycle + rel for rel in timing["mshrs"]]

    def _issue_timing(
        self,
        block: Any,
        lats: Any,
        fetch_stall: int,
        correct: bool,
    ) -> None:
        """Scoreboard-issue one block execution (the shared timing core).

        Pure timing: the architectural phase has already happened and its
        outcomes arrive as arguments — per-memory-access latencies (in
        program order), the accumulated I-fetch stall beyond the pipelined
        L1 hit time, and the branch-prediction outcome.
        """
        reg_ready = self._reg_ready
        fu_busy = self._fu_busy
        class_used = self._class_used
        width = self.machine.issue_width
        limits = _FU_LIMIT_LIST
        cycle = self.cycle
        width_used = self._width_used
        fetch_ready = self._fetch_ready
        mshrs = self._mshrs
        n_mshrs = self.machine.n_mshrs
        l1d_hit = self._l1d_hit_latency

        if fetch_stall > 0:
            if fetch_ready < cycle:
                fetch_ready = cycle
            fetch_ready += fetch_stall

        mem_i = 0
        for op, fu, dst, src1, src2, lat, _mi in block.rows:
            # Earliest cycle satisfying dependences, order, and fetch.
            t = cycle
            if src1 > 0 and reg_ready[src1] > t:
                t = reg_ready[src1]
            if src2 > 0 and reg_ready[src2] > t:
                t = reg_ready[src2]
            if fetch_ready > t:
                t = fetch_ready
            if op == _OP_IDIV or op == _OP_FDIV:
                if fu_busy[fu] > t:
                    t = fu_busy[fu]
            if t > cycle:
                cycle = t
                width_used = 0
                class_used[0] = class_used[1] = class_used[2] = class_used[3] = 0
            # Structural hazards: machine width and per-class slots.
            while width_used >= width or class_used[fu] >= limits[fu]:
                cycle += 1
                width_used = 0
                class_used[0] = class_used[1] = class_used[2] = class_used[3] = 0
            width_used += 1
            class_used[fu] += 1

            if op == _OP_LOAD or op == _OP_STORE:
                mlat = lats[mem_i]
                mem_i += 1
                if mlat > l1d_hit:
                    # L1 miss: needs a free miss-status register; a full
                    # MSHR file stalls the in-order pipe until one drains.
                    while mshrs and mshrs[0] <= cycle:
                        heappop(mshrs)
                    if len(mshrs) >= n_mshrs:
                        earliest = heappop(mshrs)
                        if earliest > cycle:
                            cycle = earliest
                            width_used = 0
                            class_used[0] = class_used[1] = 0
                            class_used[2] = class_used[3] = 0
                    heappush(mshrs, cycle + mlat)
                if op == _OP_LOAD and dst > 0:
                    reg_ready[dst] = cycle + mlat
            elif op == _OP_BRANCH:
                if not correct:
                    stall = cycle + self.machine.mispredict_penalty
                    if stall > fetch_ready:
                        fetch_ready = stall
            else:
                if dst > 0:
                    reg_ready[dst] = cycle + lat
                if op == _OP_IDIV or op == _OP_FDIV:
                    fu_busy[fu] = cycle + lat

        self.cycle = cycle
        self._width_used = width_used
        self._fetch_ready = fetch_ready

    def _plan(self, block: Any) -> Tuple[Any, ...]:
        """The per-block constants of :meth:`replay`, built once per block.

        ``(width, int_keys, hit_lats, lat_of_code, weights)``: one- and
        two-access blocks (and blocks without data accesses) key the chain
        by one int whose low bits hold a base-3 level code (0 L1 hit, 1 L2,
        2 memory; first access most significant), ``lat_of_code`` maps a
        code to its latencies and ``weights`` gives each access's digit.
        Wider blocks key the chain by their latency tuple.
        """
        width = len(block.mem_patterns)
        l1 = self._l1d_hit_latency
        l2 = l1 + self.hierarchy.l2.hit_latency
        levels = (l1, l2, l2 + self.machine.memory_latency)
        hit_lats = (l1,) * width
        int_keys = width <= 2
        if width == 2:
            lat_of_code: Tuple[Tuple[int, ...], ...] = tuple(
                (a, b) for a in levels for b in levels
            )
        else:
            lat_of_code = tuple((lat,) * width for lat in levels)
        weights = (3, 1) if width == 2 else (1,) * width
        return width, int_keys, hit_lats, lat_of_code, weights

    def _intern_context(
        self, bid: int, live_in: Tuple[int, ...], div_fus: Tuple[int, ...]
    ) -> int:
        """Intern the current relative timing context; return its id.

        The context is everything the scoreboard can read, expressed
        relative to the current cycle: issue-slot fill, per-class fill,
        fetch stall, unpipelined-unit occupancy, the block's live-in
        register ready offsets, and in-flight miss completions.  Offsets
        in the past clamp to zero — every consumer compares them against
        times at or beyond the current cycle, so the clamped context is
        behaviourally exact while maximising reuse.
        """
        cycle = self.cycle
        reg_ready = self._reg_ready
        fu_busy = self._fu_busy
        cu = self._class_used
        mshrs = self._mshrs
        if mshrs:
            mshr_rel = tuple(sorted(t - cycle for t in mshrs if t > cycle))
        else:
            mshr_rel = ()
        fr = self._fetch_ready - cycle
        state = (
            self._width_used,
            cu[0],
            cu[1],
            cu[2],
            cu[3],
            fr if fr > 0 else 0,
            tuple(
                [(v - cycle) if (v := fu_busy[f]) > cycle else 0 for f in div_fus]
            ),
            tuple(
                [(v - cycle) if (v := reg_ready[r]) > cycle else 0 for r in live_in]
            ),
            mshr_rel,
        )
        key = (bid,) + state
        sid = self._ctx_ids.get(key)
        if sid is None:
            sid = len(self._ctx_states)
            self._ctx_ids[key] = sid
            self._ctx_states.append(state)
        return sid

    def _materialize(
        self,
        sid: int,
        written_rels: Tuple[int, ...],
        live_in: Tuple[int, ...],
        written: Tuple[int, ...],
        div_fus: Tuple[int, ...],
    ) -> None:
        """Re-anchor absolute timing state from an interned context.

        While the batched path walks memoized transitions it tracks state
        only as a context id; this writes the absolute fields back (at the
        current cycle) so the scoreboard — or any later run — can read
        them.  *written_rels* carries the block's written-register offsets
        from the last applied transition (they are not part of the context
        because their stale inbound values are dead).
        """
        st = self._ctx_states[sid]
        cycle = self.cycle
        self._width_used = st[0]
        cu = self._class_used
        cu[0] = st[1]
        cu[1] = st[2]
        cu[2] = st[3]
        cu[3] = st[4]
        self._fetch_ready = cycle + st[5]
        fu_busy = self._fu_busy
        for f, rel in zip(div_fus, st[6]):
            fu_busy[f] = cycle + rel
        reg_ready = self._reg_ready
        for r, rel in zip(live_in, st[7]):
            reg_ready[r] = cycle + rel
        for r, rel in zip(written, written_rels):
            reg_ready[r] = cycle + rel
        # A sorted ascending list is already a valid heap; entries at or
        # before the current cycle were drained lazily anyway.
        self._mshrs = [cycle + t for t in st[8]]

    def _build_path(
        self, sid0: int, hit_lats: Tuple[int, ...], need: int, int_keys: bool
    ) -> Any:
        """Unroll the memoized transition chain from *sid0* under constant
        stretch inputs (all-hit latencies, correct prediction).

        After an L1 miss the live-in register offsets decay over a dozen
        iterations before the context repeats — without this, every
        stretch walks that decay one chain hit at a time.  The returned
        path ``(cums, sids, wrels, loop_d, complete)`` lets a stretch apply
        in O(1): ``cums[j]`` is the cycle delta after j steps, ``sids[j]``
        the context after j steps, ``wrels`` each step's written-register
        offsets.  When *complete*, the walk reached a self-loop fixed
        point and ``loop_d`` extends it to any length in closed form;
        otherwise the path is a prefix (the chain had no entry yet for the
        next step: the caller applies what exists and steps on, learning
        further edges for the next build).

        Walks at least *need* steps when it can; returns None when not
        even two steps are known.  *int_keys* selects the integer
        chain-key encoding used for one- and two-access blocks.  The
        final element records the chain size at build time so callers can
        skip re-walking an incomplete path until new transitions exist.
        """
        chain = self._chain
        cums = [0]
        sids = [sid0]
        wrels: List[Tuple[int, ...]] = []
        s = sid0
        d = 0
        bound = need if need > 32 else 32
        if bound > 96:
            bound = 96
        complete = False
        loop_d = 0
        while len(wrels) < bound:
            t = chain.get((s << 6) | 32 if int_keys else (s, True) + hit_lats)
            if t is None:
                break
            d += t[0]
            cums.append(d)
            ns = t[1]
            sids.append(ns)
            wrels.append(t[2])
            if ns == s:
                complete = True
                loop_d = t[0]
                break
            s = ns
        # A one-step incomplete walk is not worth caching, but a one-step
        # complete walk is the common warm case: the stretch starts at the
        # fixed point itself.
        if not complete and len(wrels) < 2:
            return None
        return tuple(cums), tuple(sids), tuple(wrels), loop_d, complete, len(chain)

    def _learn(
        self,
        block: Any,
        sid: int,
        pending: Any,
        key: Any,
        lats: Any,
        correct: bool,
        cycle: int,
    ) -> int:
        """Issue one unmemoized step from context *sid* through the real
        scoreboard, record its chain edge under *key*, and return the
        context it leads to.  On return the absolute state is current
        and :attr:`cycle` holds the new cycle."""
        live_in = block.live_in_regs
        written = block.written_regs
        div_fus = block.div_fus
        self.cycle = cycle
        if pending is not None:
            self._materialize(sid, pending, live_in, written, div_fus)
        self._issue_timing(block, lats, 0, correct)
        after = self.cycle
        nsid = self._intern_context(block.bid, live_in, div_fus)
        reg_ready = self._reg_ready
        self._chain[key] = (
            after - cycle,
            nsid,
            tuple([(v - after) if (v := reg_ready[r]) > after else 0 for r in written]),
        )
        return nsid

    def replay(
        self,
        runs: Sequence[BlockRun],
        outcomes: Outcomes,
        marks: Optional[WindowMarks] = None,
    ) -> None:
        """Replay the timing of one slice of runs from its recorded
        architectural outcomes.

        :meth:`~repro.cpu.functional.FunctionalWarmer.execute_batch` has
        already applied the slice's cache and predictor transitions and
        recorded *outcomes*: the mispredicted iterations, the fetch stalls
        and the L1D misses, all relative to the slice.  Every other
        iteration was all L1 hits, correctly predicted.  Timing is a pure
        function of those inputs, so the cycle count and scoreboard end
        exactly as issuing each expanded event through
        :meth:`_issue_timing` leaves them.

        Each run is walked as stretches of constant input between
        *special* iterations (a miss, a misprediction or a fetch stall).
        A stretch applies through the memoized chain: the pre-walked path
        from its context (:meth:`_build_path`), closed form past a fixed
        point.  A special iteration takes one chain step keyed by its
        inputs; one with a fetch stall, and every iteration of an
        ``n == 1`` run, goes straight to :meth:`_issue_timing`.  An
        unmemoized step runs the real scoreboard and is recorded for next
        time (:meth:`_learn`).

        With *marks*, the cycle at the end of every run that closes a
        window is appended to ``marks.cycles``.
        """
        mispredicts, stalls, misses = outcomes
        l2_extra = self.hierarchy.l2.hit_latency
        mem_extra = l2_extra + self.machine.memory_latency
        l1 = self._l1d_hit_latency
        miss_lat = (l1 + l2_extra, l1 + mem_extra)  # by went_to_memory
        end = 1 << 62
        b_iter = iter(mispredicts)
        next_b = next(b_iter, end)
        s_iter = iter(stalls)
        next_s, s_l2, s_mem = next(s_iter, (end, 0, 0))
        m_iter = iter(misses)
        next_m = next(m_iter, end)  # access << 1 | went_to_memory

        chain = self._chain
        chain_get = chain.get
        paths = self._paths
        paths_get = paths.get
        plans = self._plans
        it0 = 0  # slice iteration of the run's iteration 0
        at0 = 0  # slice access index of the run's first access
        if marks is not None:
            marked = marks.ops
            mark_iter = iter(marks.ends[len(marks.cycles) :])
            next_mark = next(mark_iter, end)
        # A run of the same block as the run before it (a run cut at a
        # window or budget end) continues from that run's context; any
        # other run starts from absolute state, written back here.
        last_block: Any = None
        sid = -1  # no context interned: the absolute state is current
        pending = None  # written-reg offsets of the last walked step
        for run in runs:
            block = run.block
            n = run.n
            if block is not last_block or len(chain) >= _MEMO_CAP:
                if pending is not None:
                    self._materialize(
                        sid,
                        pending,
                        last_block.live_in_regs,
                        last_block.written_regs,
                        last_block.div_fus,
                    )
                sid = -1
                pending = None
            plan = plans.get(block.bid)
            if plan is None:
                plan = plans[block.bid] = self._plan(block)
            width, int_keys, hit_lats, lat_of_code, weights = plan
            if len(chain) >= _MEMO_CAP:
                chain.clear()
                self._ctx_ids.clear()
                self._ctx_states.clear()
                paths.clear()
            bid = block.bid
            live_in = block.live_in_regs
            div_fus = block.div_fus
            hit_key = None if int_keys else (True,) + hit_lats
            end_m = (at0 + n * width) << 1
            cycle = self.cycle
            i = 0
            while i < n:
                # The next special iteration, relative to the run.
                s = n if n > 1 else 0  # a lone iteration is special
                if next_b - it0 < s:
                    s = next_b - it0
                if next_s - it0 < s:
                    s = next_s - it0
                if next_m < end_m:
                    sm = ((next_m >> 1) - at0) // width
                    if sm < s:
                        s = sm

                m = s - i  # the stretch before it: all hits, predicted
                if m and sid < 0:
                    # Completed misses would linger in the heap and tax
                    # every context; draining them is invisible (the
                    # scoreboard drains lazily, to the same effect).
                    mshrs = self._mshrs
                    while mshrs and mshrs[0] <= cycle:
                        heappop(mshrs)
                    sid = self._intern_context(bid, live_in, div_fus)
                while m:
                    path = paths_get(sid)
                    if path is None or (
                        not path[4] and m > len(path[2]) and len(chain) != path[5]
                    ):
                        built = self._build_path(sid, hit_lats, m, int_keys)
                        if built is not None:
                            path = paths[sid] = built
                    if path is not None:
                        cums, sids, wrels, loop_d, complete, _ = path
                        last = len(wrels)
                        if m <= last:
                            cycle += cums[m]
                            sid = sids[m]
                            pending = wrels[m - 1]
                            break
                        cycle += cums[last]
                        sid = sids[last]
                        pending = wrels[last - 1]
                        if complete:
                            # Past the fixed point: closed form.
                            cycle += (m - last) * loop_d
                            break
                        m -= last
                        continue
                    key = (sid << 6) | 32 if int_keys else (sid,) + hit_key
                    t = chain_get(key)
                    if t is None:
                        sid = self._learn(
                            block, sid, pending, key, hit_lats, True, cycle
                        )
                        cycle = self.cycle
                        pending = None
                    elif t[1] == sid:
                        cycle += m * t[0]
                        pending = t[2]
                        break
                    else:
                        cycle += t[0]
                        sid = t[1]
                        pending = t[2]
                    m -= 1
                if s == n:
                    break

                # The special iteration's inputs.
                base = at0 + s * width
                lim = (base + width) << 1
                code = 0
                lats = hit_lats
                if next_m < lim:
                    if int_keys:
                        while next_m < lim:
                            code += (1 + (next_m & 1)) * weights[(next_m >> 1) - base]
                            next_m = next(m_iter, end)
                        lats = lat_of_code[code]
                    else:
                        lats = list(hit_lats)
                        while next_m < lim:
                            lats[(next_m >> 1) - base] = miss_lat[next_m & 1]
                            next_m = next(m_iter, end)
                        lats = tuple(lats)
                correct = next_b - it0 != s
                if not correct:
                    next_b = next(b_iter, end)
                if n == 1 or next_s - it0 == s:
                    # Straight to the scoreboard: a lone iteration gains
                    # nothing from the chain, and a fetch stall is outside
                    # its inputs.
                    stall = 0
                    if next_s - it0 == s:
                        stall = s_l2 * l2_extra + s_mem * mem_extra
                        next_s, s_l2, s_mem = next(s_iter, (end, 0, 0))
                    self.cycle = cycle
                    if pending is not None:
                        self._materialize(
                            sid, pending, live_in, block.written_regs, div_fus
                        )
                        pending = None
                    self._issue_timing(block, lats, stall, correct)
                    cycle = self.cycle
                    sid = -1
                else:
                    if sid < 0:
                        sid = self._intern_context(bid, live_in, div_fus)
                    if int_keys:
                        key = (sid << 6) | (32 if correct else 0) | code
                    else:
                        key = (sid, correct) + lats
                    t = chain_get(key)
                    if t is None:
                        sid = self._learn(
                            block, sid, pending, key, lats, correct, cycle
                        )
                        cycle = self.cycle
                        pending = None
                    else:
                        cycle += t[0]
                        sid = t[1]
                        pending = t[2]
                i = s + 1

            self.cycle = cycle
            last_block = block
            it0 += n
            at0 += n * width
            if marks is not None:
                marked += n * block.n_ops
                if marked == next_mark:
                    marks.cycles.append(cycle)
                    next_mark = next(mark_iter, end)
        if pending is not None:
            self._materialize(
                sid,
                pending,
                last_block.live_in_regs,
                last_block.written_regs,
                last_block.div_fus,
            )
        if marks is not None:
            marks.ops = marked

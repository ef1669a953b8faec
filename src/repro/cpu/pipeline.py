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

Two execution entry points share one timing core (:meth:`_issue_timing`):

* :meth:`execute_event` — the scalar reference path, one dynamic block at
  a time;
* :meth:`execute_run` — the batched path over run-length
  :class:`~repro.program.stream.BlockRun` records.  It splits every block
  execution into an *architectural phase* (cache accesses, predictor
  update — none of which read the clock) and a *timing phase* (the
  scoreboard — a pure function of the architectural outcomes and the
  time-like state expressed relative to the current cycle).  Relative
  timing contexts are interned to small integer ids and the timing
  transition for (context, latencies, prediction outcome) is memoized,
  so repeated block executions walk an integer chain instead of running
  the scoreboard; steady spans collapse further into closed form (see
  DESIGN.md §15).

Both paths leave every observable byte identical: cycle counts, cache
tag/dirty/stat state, predictor tables and stats, and op accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, Tuple

from ..branch import BranchPredictor
from ..config import MachineConfig
from ..isa import FU_CLASS, FU_LIMITS, N_REGS, Op
from ..isa.instructions import FuClass
from ..memory import CacheHierarchy
from ..program.stream import BlockEvent, BlockRun

__all__ = ["InOrderPipeline", "WindowResult"]

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


@dataclass(frozen=True)
class WindowResult:
    """Timing outcome of one detailed window.

    Attributes:
        ops: operations executed.
        cycles: cycles elapsed.
    """

    ops: int
    cycles: int

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the window (0.0 for empty windows)."""
        return self.ops / self.cycles if self.cycles else 0.0


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
        self._l1i_hit_latency = hierarchy.l1i.hit_latency
        self._l1d_hit_latency = hierarchy.l1d.hit_latency
        #: Completion-cycle min-heap of in-flight L1 misses (<= n_mshrs
        #: live entries; completed ones are drained lazily).
        self._mshrs: List[int] = []
        # Batched-path memoization (see execute_run).  Relative timing
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
        the current cycle.  The relative form is also what the scalar and
        batched paths agree on, so a snapshot of either restores the same
        timing.
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

    def execute_event(self, event: BlockEvent) -> None:
        """Run one dynamic basic-block execution through the pipeline."""
        block, taken, k = event
        hierarchy = self.hierarchy

        # Architectural phase.  Cache and predictor transitions never read
        # the clock, so running them up front (in program order: fetch,
        # data accesses, terminating branch) leaves state byte-identical
        # to issue-time interleaving while decoupling timing from them.
        fetch_stall = 0
        l1i_hit = self._l1i_hit_latency
        for line in block.inst_lines:
            extra = hierarchy.inst_latency(line) - l1i_hit
            if extra > 0:
                fetch_stall += extra

        lats: List[int] = []
        if block.mem_positions:
            patterns = block.mem_patterns
            mem_idx = block.mem_idx
            data_latency = hierarchy.data_latency
            for pos in block.mem_positions:
                pat = patterns[mem_idx[pos]]
                lats.append(data_latency(pat.address(k), pat.is_write))

        correct = self.predictor.predict_update(block.branch_address, taken)

        self._issue_timing(block, lats, fetch_stall, correct)

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
                class_used[0] = 0
                class_used[1] = 0
                class_used[2] = 0
                class_used[3] = 0
            # Structural hazards: machine width and per-class slots.
            while width_used >= width or class_used[fu] >= limits[fu]:
                cycle += 1
                width_used = 0
                class_used[0] = 0
                class_used[1] = 0
                class_used[2] = 0
                class_used[3] = 0
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
                            class_used[0] = 0
                            class_used[1] = 0
                            class_used[2] = 0
                            class_used[3] = 0
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

    def _build_plan(self, block: Any) -> Tuple[Any, ...]:
        """Precompute the per-block constants of the batched path."""
        from ..program.mem_patterns import PatternKind

        patterns = [block.mem_patterns[j] for j in (block.mem_idx[p] for p in block.mem_positions)]
        paw = tuple((pat.address, pat.is_write) for pat in patterns)
        # Probe the most restrictive (largest-footprint) patterns first so
        # a zero span is discovered before any fine-grained line walking.
        probe_pats = tuple(sorted(patterns, key=lambda p: p.span, reverse=True))
        l1d_size = self.hierarchy.l1d.config.size_bytes
        never_silent = any(
            pat.kind in (PatternKind.RANDOM, PatternKind.CHASE)
            and pat.span > l1d_size
            for pat in patterns
        )
        # All-strided blocks take the bound L1D net-silence probe (the
        # joint walk also covers patterns that share cache sets); blocks
        # with a hashed pattern probe per pattern below.
        probe = self.hierarchy.data_silence_probe(patterns)
        # Every pattern's address generator is unpacked so the hot loop
        # computes addresses inline instead of calling into it: strided
        # patterns carry (True, base, stride, span, is_write), hashed ones
        # (False, base, seed, span, is_write) — see MemPattern.address.
        pinfo = tuple(
            (True, pat.base, pat.stride, pat.span, pat.is_write)
            if pat.kind in (PatternKind.STREAM, PatternKind.REUSE)
            else (False, pat.base, pat.seed, pat.span, pat.is_write)
            for pat in patterns
        )
        p0 = pinfo[0][:4] if len(patterns) == 1 else None
        n_pat = len(patterns)
        # Two-access blocks get every latency pair precomputed so the hot
        # loop indexes by a 0..8 level code instead of building tuples.
        if n_pat == 2:
            l1 = self._l1d_hit_latency
            l2 = l1 + self.hierarchy.l2.hit_latency
            mem = l2 + self.machine.memory_latency
            levels = (l1, l2, mem)
            lat_pairs = tuple((a, b) for a in levels for b in levels)
        else:
            lat_pairs = None
        return (
            paw,
            probe_pats,
            probe,
            pinfo,
            lat_pairs,
            p0,
            (self._l1d_hit_latency,) * n_pat,
            never_silent,
            n_pat,
            block.live_in_regs,
            block.written_regs,
            block.div_fus,
            block.branch_address,
            len(block.inst_lines),
            self.hierarchy.inst_lines_pinned(block.inst_lines),
        )

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
        steady-span inputs (all-hit latencies, correct taken prediction).

        After an L1 miss the live-in register offsets decay over a dozen
        iterations before the context repeats — without this, every silent
        span walks that decay one chain hit at a time.  The returned path
        ``(cums, sids, wrels, loop_d, complete)`` lets a span apply in
        O(1): ``cums[j]`` is the cycle delta after j steps, ``sids[j]``
        the context after j steps, ``wrels`` each step's written-register
        offsets.  When *complete*, the walk reached a self-loop fixed
        point and ``loop_d`` extends it to any length in closed form;
        otherwise the path is a prefix (the chain had no entry yet for
        the next step — the caller applies what exists and trickles on,
        which memoizes further steps for the next build).

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
        # A one-step incomplete walk is not worth caching — but a one-step
        # *complete* walk is the common warm case: the span starts at the
        # fixed point itself.
        if not complete and len(wrels) < 2:
            return None
        return (
            tuple(cums),
            tuple(sids),
            tuple(wrels),
            loop_d,
            complete,
            len(chain),
        )

    def execute_run(self, run: BlockRun) -> None:
        """Run a whole run-length record through the pipeline, batched.

        Byte-identical in every observable (cycle count, cache and
        predictor state including stats, memory-access counters) to
        :meth:`execute_event` over ``run.events()``, but built to spend
        far fewer Python operations per block execution:

        * the first iteration performs the real I-fetch accesses (with
          deferred counters) — afterwards every instruction line of the
          block is resident at the MRU slot of its own L1I set and stays
          there for the rest of the run (nothing else touches the L1I),
          so later iterations fetch with zero stall and their I-cache hit
          counters are applied arithmetically at the end.  When iteration
          0 itself fetches entirely from the L1I (no stall), it enters
          the memoized loop like any other iteration — a warm run can
          then collapse into a single closed-form span;
        * data accesses are probed for *silent* spans — stretches of
          iterations whose accesses would all hit L1 at the MRU slot
          without flipping a dirty bit.  Silent accesses change nothing
          but the hit counters, so the whole span's cache work collapses
          to one arithmetic bump and its latencies are known constants;
        * once the uniformly-taken middle of a loop-controlled run finds
          the branch predictor at a fixed point
          (:meth:`~repro.branch.BranchPredictor.is_steady`), remaining
          predictions are bulk-counted and skipped;
        * the scoreboard itself is memoized: the relative timing context
          is interned to an integer id and each (context, latencies,
          outcome) transition is recorded once, so repeats walk
          ``cycle += delta; context = next`` without touching the
          scoreboard arrays (absolute state is re-anchored on exit); a
          self-loop transition inside a silent + predictor-steady span
          finishes the span in closed form.

        Any condition that cannot be proven cheaply falls back to the
        memoized per-iteration path, and from there to the real scalar
        scoreboard — never to an approximation.
        """
        block = run.block
        n = run.n
        if n == 1:
            self.execute_event(BlockEvent(block, run.taken_at(0), run.k_start))
            return
        hierarchy = self.hierarchy

        if len(self._chain) >= _MEMO_CAP:
            self._chain.clear()
            self._ctx_ids.clear()
            self._ctx_states.clear()
            self._paths.clear()

        bid = block.bid
        plan = self._plans.get(bid)
        if plan is None:
            plan = self._build_plan(block)
            self._plans[bid] = plan
        (
            paw,
            probe_pats,
            probe,
            pinfo,
            lat_pairs,
            p0,
            hit_lats,
            never_silent,
            n_pat,
            live_in,
            written,
            div_fus,
            branch_address,
            n_lines,
            inst_pinned,
        ) = plan
        if not inst_pinned:
            # Degenerate geometry: the block's own fetch lines collide
            # within a set, so iteration 0 does not pin them all at MRU.
            for event in run.events():
                self.execute_event(event)
            return

        predictor = self.predictor
        predict_update = predictor.predict_update
        taken_streak = predictor.taken_streak
        l1d = hierarchy.l1d
        l1d_access = l1d.access_quiet
        l2_access = hierarchy.l2.access_quiet
        salt = hierarchy.address_salt
        l1_hit = self._l1d_hit_latency
        l2_lat = l1_hit + hierarchy.l2.hit_latency
        mem_lat = l2_lat + self.machine.memory_latency
        silent_span = hierarchy.silent_data_span
        span_hashed = l1d.silent_span_hashed
        chain = self._chain
        chain_get = chain.get
        paths = self._paths
        paths_get = paths.get
        reg_ready = self._reg_ready
        if n_pat == 1:
            f0, w0 = paw[0]
            l2_lats = (l2_lat,)
            mem_lats = (mem_lat,)
            strided0, b0, x0, sp0 = p0
        else:
            f0 = None
        single = f0 is not None
        pair2 = n_pat == 2
        if single or pair2:
            # One- and two-access blocks run the access_quiet state
            # transition inline (see Cache.hot_refs) — the L1D-miss/L2
            # walk is the hottest sequence of the whole mode.
            d_tags, d_dirty, d_shift, d_assoc, d_pow2, d_mask, d_nsets = (
                l1d.hot_refs()
            )
            u_tags, u_dirty, u_shift, u_assoc, u_pow2, u_mask, u_nsets = (
                hierarchy.l2.hot_refs()
            )
        int_keys = single or pair2  # integer chain keys for these blocks
        d_wb = u_wb = 0  # deferred writeback counts from inlined accesses

        takens = run.takens
        last_i = n - 1
        if takens is None:
            uniform_until = last_i - 1 if run.ends_entry else last_i
        else:
            uniform_until = -1

        # Completed misses from earlier runs would otherwise linger in the
        # heap and tax every context build; draining them is invisible
        # (the scalar path drains lazily, to the same effect).
        mshrs = self._mshrs
        c0 = self.cycle
        while mshrs and mshrs[0] <= c0:
            heappop(mshrs)

        pending = None  # written-reg offsets of the last walked transition
        mem_extra = 0  # deferred hierarchy.memory_accesses increments
        l1d_n = l1d_h = l2_n = l2_h = 0  # deferred cache access/hit counts
        pred_left = 0  # taken predictions already applied in bulk
        silent_left = 0
        probe_skip = False  # span ended at a known non-silent iteration
        span_hint = -1  # probe-free silent span proven by a line fill
        line_mask = (1 << d_shift) - 1 if single else 0

        # Iteration 0's I-fetch is always real — the accesses pin every
        # instruction line at the MRU slot of its L1I set for the rest of
        # the run (and their MRU rotations are observable state).
        l1i_access = hierarchy.l1i.access_quiet
        l2_hit_extra = hierarchy.l2.hit_latency
        memory_latency = self.machine.memory_latency
        fetch_stall = 0
        l1i_h0 = 0
        for line in block.inst_lines:
            a = line ^ salt
            if l1i_access(a):
                l1i_h0 += 1
            else:
                l2_n += 1
                if l2_access(a):
                    l2_h += 1
                    fetch_stall += l2_hit_extra
                else:
                    mem_extra += 1
                    fetch_stall += l2_hit_extra + memory_latency

        if fetch_stall:
            # Rare cold fetch: run iteration 0 through the real scoreboard
            # (the memo chain assumes stall-free fetch) and rejoin at 1.
            k = run.k_start
            buf = []
            for f, w in paw:
                a = f(k) ^ salt
                l1d_n += 1
                if l1d_access(a, w):
                    l1d_h += 1
                    buf.append(l1_hit)
                else:
                    l2_n += 1
                    if l2_access(a, w):
                        l2_h += 1
                        buf.append(l2_lat)
                    else:
                        mem_extra += 1
                        buf.append(mem_lat)
            correct = predict_update(branch_address, run.taken_at(0))
            self._issue_timing(block, buf, fetch_stall, correct)
            i = 1
            k += 1
        else:
            i = 0
            k = run.k_start

        sid = self._intern_context(bid, live_in, div_fus)
        cycle = self.cycle  # local through the loop; synced around calls
        while i <= last_i:
            if never_silent and single and pred_left > 0:
                # Never-silent single-access blocks (a cache-thrashing
                # loop) spend the uniformly-predicted middle of the run
                # here: address, inline access, memoized timing step —
                # none of the span/branch bookkeeping of the general
                # path, which cannot apply to them.  The access body is
                # the same inline access_quiet transition as below.
                stop = i + pred_left
                if d_assoc == 4:
                    # 4-way L1D (the default geometry): the recency
                    # rotation is unrolled into element moves — no range
                    # object, no slice allocations — while remaining the
                    # exact access_quiet transition.  A thrashing block
                    # rotates or evicts on nearly every access, so this
                    # is the hottest store sequence of the whole mode.
                    while i < stop:
                        if strided0:
                            a = (b0 + (k * x0) % sp0) ^ salt
                        else:
                            h = ((k + x0) * 2654435761) & 0xFFFFFFFF
                            h ^= h >> 16
                            h = (h * 0x45D9F3B) & 0xFFFFFFFF
                            h ^= h >> 16
                            a = (b0 + ((h % sp0) & -8)) ^ salt
                        l1d_n += 1
                        code = 0
                        line = a >> d_shift
                        b = (line & d_mask if d_pow2 else line % d_nsets) * 4
                        if d_tags[b] == line:
                            if w0:
                                d_dirty[b] = True
                            l1d_h += 1
                        elif d_tags[b + 1] == line:
                            dd = d_dirty[b + 1]
                            d_tags[b + 1] = d_tags[b]
                            d_tags[b] = line
                            d_dirty[b + 1] = d_dirty[b]
                            d_dirty[b] = dd or w0
                            l1d_h += 1
                        elif d_tags[b + 2] == line:
                            dd = d_dirty[b + 2]
                            d_tags[b + 2] = d_tags[b + 1]
                            d_tags[b + 1] = d_tags[b]
                            d_tags[b] = line
                            d_dirty[b + 2] = d_dirty[b + 1]
                            d_dirty[b + 1] = d_dirty[b]
                            d_dirty[b] = dd or w0
                            l1d_h += 1
                        elif d_tags[b + 3] == line:
                            dd = d_dirty[b + 3]
                            d_tags[b + 3] = d_tags[b + 2]
                            d_tags[b + 2] = d_tags[b + 1]
                            d_tags[b + 1] = d_tags[b]
                            d_tags[b] = line
                            d_dirty[b + 3] = d_dirty[b + 2]
                            d_dirty[b + 2] = d_dirty[b + 1]
                            d_dirty[b + 1] = d_dirty[b]
                            d_dirty[b] = dd or w0
                            l1d_h += 1
                        else:
                            if d_dirty[b + 3] and d_tags[b + 3] != -1:
                                d_wb += 1
                            d_tags[b + 3] = d_tags[b + 2]
                            d_tags[b + 2] = d_tags[b + 1]
                            d_tags[b + 1] = d_tags[b]
                            d_tags[b] = line
                            d_dirty[b + 3] = d_dirty[b + 2]
                            d_dirty[b + 2] = d_dirty[b + 1]
                            d_dirty[b + 1] = d_dirty[b]
                            d_dirty[b] = w0
                            l2_n += 1
                            line = a >> u_shift
                            b = (
                                line & u_mask if u_pow2 else line % u_nsets
                            ) * u_assoc
                            if u_tags[b] == line:
                                if w0:
                                    u_dirty[b] = True
                                l2_h += 1
                                code = 1
                            else:
                                bend = b + u_assoc
                                for j in range(b + 1, bend):
                                    if u_tags[j] == line:
                                        dd = u_dirty[j]
                                        u_tags[b + 1 : j + 1] = u_tags[b:j]
                                        u_dirty[b + 1 : j + 1] = u_dirty[b:j]
                                        u_tags[b] = line
                                        u_dirty[b] = dd or w0
                                        l2_h += 1
                                        code = 1
                                        break
                                else:
                                    if (
                                        u_dirty[bend - 1]
                                        and u_tags[bend - 1] != -1
                                    ):
                                        u_wb += 1
                                    u_tags[b + 1 : bend] = u_tags[b : bend - 1]
                                    u_dirty[b + 1 : bend] = u_dirty[
                                        b : bend - 1
                                    ]
                                    u_tags[b] = line
                                    u_dirty[b] = w0
                                    mem_extra += 1
                                    code = 2
                        t = chain_get((sid << 6) | 32 | code)
                        if t is None:
                            break
                        cycle += t[0]
                        sid = t[1]
                        pending = t[2]
                        i += 1
                        k += 1
                else:
                    while i < stop:
                        if strided0:
                            a = (b0 + (k * x0) % sp0) ^ salt
                        else:
                            h = ((k + x0) * 2654435761) & 0xFFFFFFFF
                            h ^= h >> 16
                            h = (h * 0x45D9F3B) & 0xFFFFFFFF
                            h ^= h >> 16
                            a = (b0 + ((h % sp0) & -8)) ^ salt
                        l1d_n += 1
                        code = 0
                        line = a >> d_shift
                        b = (line & d_mask if d_pow2 else line % d_nsets) * d_assoc
                        if d_tags[b] == line:
                            if w0:
                                d_dirty[b] = True
                            l1d_h += 1
                        else:
                            bend = b + d_assoc
                            for j in range(b + 1, bend):
                                if d_tags[j] == line:
                                    dd = d_dirty[j]
                                    d_tags[b + 1 : j + 1] = d_tags[b:j]
                                    d_dirty[b + 1 : j + 1] = d_dirty[b:j]
                                    d_tags[b] = line
                                    d_dirty[b] = dd or w0
                                    l1d_h += 1
                                    break
                            else:
                                if d_dirty[bend - 1] and d_tags[bend - 1] != -1:
                                    d_wb += 1
                                d_tags[b + 1 : bend] = d_tags[b : bend - 1]
                                d_dirty[b + 1 : bend] = d_dirty[b : bend - 1]
                                d_tags[b] = line
                                d_dirty[b] = w0
                                l2_n += 1
                                line = a >> u_shift
                                b = (
                                    line & u_mask if u_pow2 else line % u_nsets
                                ) * u_assoc
                                if u_tags[b] == line:
                                    if w0:
                                        u_dirty[b] = True
                                    l2_h += 1
                                    code = 1
                                else:
                                    bend = b + u_assoc
                                    for j in range(b + 1, bend):
                                        if u_tags[j] == line:
                                            dd = u_dirty[j]
                                            u_tags[b + 1 : j + 1] = u_tags[b:j]
                                            u_dirty[b + 1 : j + 1] = u_dirty[b:j]
                                            u_tags[b] = line
                                            u_dirty[b] = dd or w0
                                            l2_h += 1
                                            code = 1
                                            break
                                    else:
                                        if (
                                            u_dirty[bend - 1]
                                            and u_tags[bend - 1] != -1
                                        ):
                                            u_wb += 1
                                        u_tags[b + 1 : bend] = u_tags[
                                            b : bend - 1
                                        ]
                                        u_dirty[b + 1 : bend] = u_dirty[
                                            b : bend - 1
                                        ]
                                        u_tags[b] = line
                                        u_dirty[b] = w0
                                        mem_extra += 1
                                        code = 2
                        t = chain_get((sid << 6) | 32 | code)
                        if t is None:
                            break
                        cycle += t[0]
                        sid = t[1]
                        pending = t[2]
                        i += 1
                        k += 1
                pred_left = stop - i
                if i < stop:
                    # Unmemoized transition: finish this iteration through
                    # the real scoreboard and record it for next time.
                    lats = (hit_lats, l2_lats, mem_lats)[code]
                    pred_left -= 1
                    self.cycle = cycle
                    if pending is not None:
                        self._materialize(sid, pending, live_in, written, div_fus)
                        pending = None
                    self._issue_timing(block, lats, 0, True)
                    after = self.cycle
                    nsid = self._intern_context(bid, live_in, div_fus)
                    chain[(sid << 6) | 32 | code] = (
                        after - cycle,
                        nsid,
                        tuple(
                            [
                                (v - after) if (v := reg_ready[r]) > after else 0
                                for r in written
                            ]
                        ),
                    )
                    cycle = after
                    sid = nsid
                    i += 1
                    k += 1
                continue
            # Data side: inside a proven-silent span the latencies are the
            # L1 hit constant and no cache state moves; otherwise probe
            # for a new span, and failing that do the real accesses.
            if silent_left > 0:
                lats = hit_lats
                code = 0
                silent_left -= 1
            else:
                lats = None
                if never_silent or probe_skip:
                    probe_skip = False
                else:
                    lim = last_i - i + 1
                    if span_hint >= 0:
                        m = span_hint if span_hint < lim else lim
                        span_hint = -1
                    elif probe is not None:
                        m = probe(k, lim)
                    elif single:
                        m = span_hashed(f0, k, lim, w0, salt)
                    else:
                        m = lim
                        for pat in probe_pats:
                            m = silent_span(pat, k, m)
                            if m == 0:
                                break
                    if m > 0:
                        l1d_n += m * n_pat
                        l1d_h += m * n_pat
                        # A span cut short (not by the run end) ended at a
                        # provably non-silent iteration — skip re-probing
                        # it and go straight to the real accesses.
                        probe_skip = m < lim
                        if m > 1 and takens is None and i <= uniform_until:
                            # Whole-span fast-forward: bulk-predict as much
                            # of the span as the predictor stays quiet for,
                            # then apply the precomputed chain unroll from
                            # this context in closed form.
                            cover = pred_left
                            if cover < m:
                                # Ask for the whole remaining uniform
                                # stretch at once — the surplus carries to
                                # the next span via pred_left, so a steady
                                # predictor is consulted once per run.
                                want = uniform_until - i + 1 - cover
                                if want > 0:
                                    cover += taken_streak(branch_address, want)
                            mm = m if m < cover else cover
                            if mm > 1:
                                path = paths_get(sid)
                                if path is None or (
                                    not path[4]
                                    and mm > len(path[2])
                                    and len(chain) != path[5]
                                ):
                                    np = self._build_path(
                                        sid, hit_lats, mm, int_keys
                                    )
                                    if np is not None:
                                        path = np
                                        paths[sid] = np
                                if path is not None:
                                    cums = path[0]
                                    pwrels = path[2]
                                    last = len(pwrels)
                                    if mm > last:
                                        if path[4]:
                                            # Past the fixed point: extend
                                            # the walk in closed form.
                                            cycle += (mm - last) * path[3]
                                        else:
                                            # Prefix only: apply what the
                                            # chain knows, trickle the rest
                                            # (memoizing missing steps).
                                            mm = last
                                    cycle += cums[mm if mm < last else last]
                                    sid = path[1][mm if mm < last else last]
                                    pending = pwrels[
                                        (mm if mm < last else last) - 1
                                    ]
                                    pred_left = cover - mm
                                    silent_left = m - mm
                                    i += mm
                                    k += mm
                                    continue
                            # Streak already applied; the per-iteration
                            # branch side below consumes it via pred_left.
                            pred_left = cover
                        lats = hit_lats
                        code = 0
                        silent_left = m - 1
                if lats is None:
                    if single:
                        l1d_n += 1
                        if strided0:
                            off = (k * x0) % sp0
                            a = (b0 + off) ^ salt
                        else:
                            h = ((k + x0) * 2654435761) & 0xFFFFFFFF
                            h ^= h >> 16
                            h = (h * 0x45D9F3B) & 0xFFFFFFFF
                            h ^= h >> 16
                            a = (b0 + ((h % sp0) & -8)) ^ salt
                        # Inlined Cache.access_quiet on the L1D, falling
                        # through to the L2 on a miss — byte-for-byte the
                        # same state transition as the method calls.
                        line = a >> d_shift
                        b = (line & d_mask if d_pow2 else line % d_nsets) * d_assoc
                        if d_tags[b] == line:
                            if w0:
                                d_dirty[b] = True
                            l1d_h += 1
                            lats = hit_lats
                            code = 0
                        else:
                            bend = b + d_assoc
                            for j in range(b + 1, bend):
                                if d_tags[j] == line:
                                    dd = d_dirty[j]
                                    d_tags[b + 1 : j + 1] = d_tags[b:j]
                                    d_dirty[b + 1 : j + 1] = d_dirty[b:j]
                                    d_tags[b] = line
                                    d_dirty[b] = dd or w0
                                    l1d_h += 1
                                    lats = hit_lats
                                    code = 0
                                    break
                            else:
                                if d_dirty[bend - 1] and d_tags[bend - 1] != -1:
                                    d_wb += 1
                                d_tags[b + 1 : bend] = d_tags[b : bend - 1]
                                d_dirty[b + 1 : bend] = d_dirty[b : bend - 1]
                                d_tags[b] = line
                                d_dirty[b] = w0
                                if strided0:
                                    # The fill just placed this line at MRU
                                    # (dirty when writing), so the rest of
                                    # its line group is silent by
                                    # construction — no probe needed.
                                    g = ((off | line_mask) - off) // x0
                                    gw = (sp0 - off + x0 - 1) // x0 - 1
                                    if gw < g:
                                        g = gw
                                    if g > 0:
                                        span_hint = g
                                l2_n += 1
                                line = a >> u_shift
                                b = (
                                    line & u_mask if u_pow2 else line % u_nsets
                                ) * u_assoc
                                if u_tags[b] == line:
                                    if w0:
                                        u_dirty[b] = True
                                    l2_h += 1
                                    lats = l2_lats
                                    code = 1
                                else:
                                    bend = b + u_assoc
                                    for j in range(b + 1, bend):
                                        if u_tags[j] == line:
                                            dd = u_dirty[j]
                                            u_tags[b + 1 : j + 1] = u_tags[b:j]
                                            u_dirty[b + 1 : j + 1] = u_dirty[b:j]
                                            u_tags[b] = line
                                            u_dirty[b] = dd or w0
                                            l2_h += 1
                                            lats = l2_lats
                                            code = 1
                                            break
                                    else:
                                        if (
                                            u_dirty[bend - 1]
                                            and u_tags[bend - 1] != -1
                                        ):
                                            u_wb += 1
                                        u_tags[b + 1 : bend] = u_tags[b : bend - 1]
                                        u_dirty[b + 1 : bend] = u_dirty[
                                            b : bend - 1
                                        ]
                                        u_tags[b] = line
                                        u_dirty[b] = w0
                                        mem_extra += 1
                                        lats = mem_lats
                                        code = 2
                    elif pair2:
                        # Two-access blocks: both accesses inline (same
                        # transition as Cache.access_quiet), the latency
                        # pair looked up by base-3 level code.
                        code = 0
                        for st, bb, xx, spn, w in pinfo:
                            if st:
                                a = (bb + (k * xx) % spn) ^ salt
                            else:
                                h = ((k + xx) * 2654435761) & 0xFFFFFFFF
                                h ^= h >> 16
                                h = (h * 0x45D9F3B) & 0xFFFFFFFF
                                h ^= h >> 16
                                a = (bb + ((h % spn) & -8)) ^ salt
                            l1d_n += 1
                            c = 0
                            line = a >> d_shift
                            b = (
                                line & d_mask if d_pow2 else line % d_nsets
                            ) * d_assoc
                            if d_tags[b] == line:
                                if w:
                                    d_dirty[b] = True
                                l1d_h += 1
                            else:
                                bend = b + d_assoc
                                for j in range(b + 1, bend):
                                    if d_tags[j] == line:
                                        dd = d_dirty[j]
                                        d_tags[b + 1 : j + 1] = d_tags[b:j]
                                        d_dirty[b + 1 : j + 1] = d_dirty[b:j]
                                        d_tags[b] = line
                                        d_dirty[b] = dd or w
                                        l1d_h += 1
                                        break
                                else:
                                    if (
                                        d_dirty[bend - 1]
                                        and d_tags[bend - 1] != -1
                                    ):
                                        d_wb += 1
                                    d_tags[b + 1 : bend] = d_tags[b : bend - 1]
                                    d_dirty[b + 1 : bend] = d_dirty[
                                        b : bend - 1
                                    ]
                                    d_tags[b] = line
                                    d_dirty[b] = w
                                    l2_n += 1
                                    line = a >> u_shift
                                    b = (
                                        line & u_mask
                                        if u_pow2
                                        else line % u_nsets
                                    ) * u_assoc
                                    if u_tags[b] == line:
                                        if w:
                                            u_dirty[b] = True
                                        l2_h += 1
                                        c = 1
                                    else:
                                        bend = b + u_assoc
                                        for j in range(b + 1, bend):
                                            if u_tags[j] == line:
                                                dd = u_dirty[j]
                                                u_tags[b + 1 : j + 1] = u_tags[
                                                    b:j
                                                ]
                                                u_dirty[b + 1 : j + 1] = (
                                                    u_dirty[b:j]
                                                )
                                                u_tags[b] = line
                                                u_dirty[b] = dd or w
                                                l2_h += 1
                                                c = 1
                                                break
                                        else:
                                            if (
                                                u_dirty[bend - 1]
                                                and u_tags[bend - 1] != -1
                                            ):
                                                u_wb += 1
                                            u_tags[b + 1 : bend] = u_tags[
                                                b : bend - 1
                                            ]
                                            u_dirty[b + 1 : bend] = u_dirty[
                                                b : bend - 1
                                            ]
                                            u_tags[b] = line
                                            u_dirty[b] = w
                                            mem_extra += 1
                                            c = 2
                            code = code * 3 + c
                        lats = lat_pairs[code]
                    else:
                        buf = []
                        for st, bb, xx, spn, w in pinfo:
                            if st:
                                a = (bb + (k * xx) % spn) ^ salt
                            else:
                                h = ((k + xx) * 2654435761) & 0xFFFFFFFF
                                h ^= h >> 16
                                h = (h * 0x45D9F3B) & 0xFFFFFFFF
                                h ^= h >> 16
                                a = (bb + ((h % spn) & -8)) ^ salt
                            l1d_n += 1
                            if l1d_access(a, w):
                                l1d_h += 1
                                buf.append(l1_hit)
                            else:
                                l2_n += 1
                                if l2_access(a, w):
                                    l2_h += 1
                                    buf.append(l2_lat)
                                else:
                                    mem_extra += 1
                                    buf.append(mem_lat)
                        lats = tuple(buf)

            # Branch side: the uniformly-taken middle is applied through
            # the predictor's bulk fast path — every bulk-applied step is
            # byte-identical to a real predict_update(addr, True).
            if pred_left > 0:
                correct = True
                pred_left -= 1
            elif takens is None and i <= uniform_until:
                streak = taken_streak(branch_address, uniform_until - i + 1)
                if streak:
                    pred_left = streak - 1
                    correct = True
                else:
                    correct = predict_update(branch_address, True)
            else:
                taken = i <= uniform_until if takens is None else takens[i]
                correct = predict_update(branch_address, taken)

            # Timing side: walk the memoized transition if known.
            if int_keys:
                ckey = (sid << 6) | (32 if correct else 0) | code
            else:
                ckey = (sid, correct) + lats
            t = chain_get(ckey)
            if t is not None:
                cycle += t[0]
                nsid = t[1]
                pending = t[2]
                if nsid == sid and silent_left > 0 and pred_left > 0:
                    # Fixed point with constant inputs: every further
                    # iteration of the silent + predictor-bulk span
                    # repeats this transition.  Apply it in closed form.
                    mm = silent_left if silent_left < pred_left else pred_left
                    cycle += mm * t[0]
                    silent_left -= mm
                    pred_left -= mm
                    i += mm
                    k += mm
                sid = nsid
            else:
                self.cycle = cycle
                if pending is not None:
                    self._materialize(sid, pending, live_in, written, div_fus)
                    pending = None
                self._issue_timing(block, lats, 0, correct)
                after = self.cycle
                nsid = self._intern_context(bid, live_in, div_fus)
                chain[ckey] = (
                    after - cycle,
                    nsid,
                    tuple(
                        [
                            (v - after) if (v := reg_ready[r]) > after else 0
                            for r in written
                        ]
                    ),
                )
                cycle = after
                sid = nsid
            i += 1
            k += 1

        self.cycle = cycle
        if pending is not None:
            self._materialize(sid, pending, live_in, written, div_fus)
        if mem_extra:
            hierarchy.memory_accesses += mem_extra
        if l1d_n:
            l1d_stats = l1d.stats
            l1d_stats.accesses += l1d_n
            l1d_stats.hits += l1d_h
        if d_wb:
            l1d.stats.writebacks += d_wb
        if l2_n:
            l2_stats = hierarchy.l2.stats
            l2_stats.accesses += l2_n
            l2_stats.hits += l2_h
        if u_wb:
            hierarchy.l2.stats.writebacks += u_wb
        # Iteration 0 fetched for real (hits counted above); iterations
        # 1..n-1 fetched every instruction line from warm, MRU-resident
        # L1I sets: pure hits, applied arithmetically.
        l1i_stats = hierarchy.l1i.stats
        l1i_stats.accesses += n * n_lines
        l1i_stats.hits += last_i * n_lines + l1i_h0

    def run_window(self, events: List[BlockEvent]) -> WindowResult:
        """Execute a list of events and report ops/cycles for the window."""
        start = self.cycle
        ops = 0
        for event in events:
            self.execute_event(event)
            ops += event.block.n_ops
        # The final instructions issue at self.cycle; they complete a cycle
        # later at minimum.
        return WindowResult(ops=ops, cycles=self.cycle - start + 1)

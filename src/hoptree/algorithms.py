"""The five randomized search heuristics and their run loop.

Algorithm ids:
  ea-edge    (1+1) EA on edge bit strings, scalar penalised fitness
  gsemo      two-objective (weight, penalised cost) population search
  gsemo1     variant keeping only the weight-n / weight-(n+1) slots
  gsemo2     variant ordered by deficiency first, penalised cost second
  ea-vertex  (1+1) EA on root-children bit strings, plain tree cost

Counting: one fitness evaluation for the initial solution plus one per
offspring; `budget` bounds the total.  Milestones (first feasible /
ratio-3/2 / optimal evaluation index) are recorded at the moment a
qualifying solution enters the population.

Randomness: a run owns one numpy PCG64 generator seeded at init.  Draws, in
order: `rng.bytes` for the initial bit string; per step a parent index via
`rng.integers` (only when the population holds more than one member), the
flip count via `rng.binomial`, then rejection-sampled flip positions via
`rng.integers`.  Identical seeds therefore replay identical runs.

Populations are stored as raw bitmask ints plus per-member adjacency masks
so that one mutation costs O(flips) updates (`edge_repr.toggle_edges`);
second-objective values are filled in lazily where a comparison or
milestone does not need them.  Graph quantities come from `edge_repr`,
fitness values from `fitness` and the child-set cost from `vertex_repr`;
this module holds only population and search logic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_model import Instance
from .edge_repr import (
    EdgeSolution,
    adjacency,
    deficiency_set_size,
    flip_mask,
    toggle_edges,
)
from .vertex_repr import VertexSolution, child_set_cost
from .fitness import (
    Dominance,
    deficiency_value,
    depth_value,
    dominates_gsemo1,
    dominates_gsemo2,
    scalar_value,
    surplus_value,
)

ALGO_IDS = ("ea-edge", "gsemo", "gsemo1", "gsemo2", "ea-vertex")
RNG_ID = "numpy:PCG64"
MAX_BUDGET = 100_000_000
TARGET_NAMES = ("feasible", "ratio32", "opt")


class RunState:
    """Mutable state of one in-flight run.

    The population layout depends on the algorithm:
      ea-edge / ea-vertex: `bits`, `adj` (edge only), scalar `f`
      gsemo: `slots` maps weight -> [bits, adj, f|None] for weights <= n,
             `slot_keys` lists occupied weights, `over` holds the single
             above-n member [weight, bits, adj, f|None] (never both)
      gsemo1: `members`, entries [weight, f, bits, adj]
      gsemo2: `members`, entries [deficiency-value, penalised cost, bits, adj]
    Use `population_view` / `best_feasible_cost` rather than poking fields.
    """

    __slots__ = (
        "algo",
        "inst",
        "rng",
        "evaluations",
        "milestones",
        "opt_cost",
        "node_budget",
        "m2",
        "bits",
        "adj",
        "f",
        "slots",
        "slot_keys",
        "over",
        "members",
    )


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one completed run."""

    algo: str
    n: int
    m: int
    seed: int
    budget: int
    evaluations: int
    eval_feasible: int | None
    eval_ratio32: int | None
    eval_opt: int | None
    final_cost: int | None
    opt_cost: int | None
    rng_id: str = RNG_ID
    trace: tuple = ()


# --- shared helpers ------------------------------------------------------------


def _random_bits(rng, length: int) -> int:
    raw = rng.bytes((length + 7) // 8)
    return int.from_bytes(raw, "little") & ((1 << length) - 1)


def _exact_deficiency(state: RunState, bits: int, adj: list[int]) -> int:
    inst, node_budget = state.inst, state.node_budget
    return deficiency_value(inst, bits, adj, lambda x: deficiency_set_size(inst, x, node_budget))


def _note_feasible(state: RunState, cost: int) -> None:
    ms = state.milestones
    if ms["feasible"] is None:
        ms["feasible"] = state.evaluations
    oc = state.opt_cost
    if oc is not None:
        if ms["ratio32"] is None and 2 * cost <= 3 * oc:
            ms["ratio32"] = state.evaluations
        if ms["opt"] is None and cost == oc:
            ms["opt"] = state.evaluations


# --- initialisation -----------------------------------------------------------


def init_state(
    algo: str,
    inst: Instance,
    seed: int,
    opt_cost: int | None = None,
    node_budget: int = 1_000_000,
) -> RunState:
    """Fresh run state with a uniform random initial solution (1 evaluation)."""
    if algo not in ALGO_IDS:
        raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGO_IDS}")
    if inst.n < 2:
        raise ValueError("runs need n >= 2")
    state = RunState()
    state.algo = algo
    state.inst = inst
    state.rng = np.random.Generator(np.random.PCG64(seed))
    state.evaluations = 1
    state.milestones = {"feasible": None, "ratio32": None, "opt": None}
    state.opt_cost = opt_cost
    state.node_budget = node_budget
    state.m2 = inst.m * inst.m

    if algo == "ea-vertex":
        bits = _random_bits(state.rng, inst.n)
        state.bits = bits
        state.f = child_set_cost(inst, bits)
        if bits:
            _note_feasible(state, state.f)
        return state

    bits = _random_bits(state.rng, inst.m)
    adj = adjacency(inst, EdgeSolution(bits, inst.m))
    h = bits.bit_count()
    n = inst.n
    if algo == "ea-edge":
        state.bits, state.adj = bits, adj
        state.f = scalar_value(inst, bits, adj)
        if state.f < state.m2:
            _note_feasible(state, state.f)
    elif algo == "gsemo":
        state.slots = {}
        state.slot_keys = []
        state.over = None
        f = depth_value(inst, bits, adj) if h == n else None
        if h <= n:
            state.slots[h] = [bits, adj, f]
            state.slot_keys.append(h)
        else:
            state.over = [h, bits, adj, None]
        if f is not None and f < state.m2:
            _note_feasible(state, f)
    elif algo == "gsemo1":
        f = depth_value(inst, bits, adj)
        state.members = [[h, f, bits, adj]]
        if h == n and f < state.m2:
            _note_feasible(state, f)
    else:  # gsemo2
        a = _exact_deficiency(state, bits, adj)
        f2 = surplus_value(inst, bits)
        state.members = [[a, f2, bits, adj]]
        if a == 0 and f2 < state.m2:
            _note_feasible(state, f2)
    return state


# --- one-offspring steps ------------------------------------------------------


def _step_ea_edge(state: RunState) -> bool:
    inst = state.inst
    fm = flip_mask(inst.m, state.rng)
    state.evaluations += 1
    if fm == 0:
        return False
    bits = state.bits ^ fm
    adj = state.adj.copy()
    toggle_edges(inst, adj, fm)
    f = scalar_value(inst, bits, adj)
    if f > state.f:
        return False
    state.bits, state.adj, state.f = bits, adj, f
    if f < state.m2:
        _note_feasible(state, f)
    return True


def _step_ea_vertex(state: RunState) -> bool:
    inst = state.inst
    fm = flip_mask(inst.n, state.rng)
    state.evaluations += 1
    if fm == 0:
        return False
    bits = state.bits ^ fm
    f = child_set_cost(inst, bits)
    if f > state.f:
        return False
    state.bits, state.f = bits, f
    if bits:
        _note_feasible(state, f)
    return True


def _step_gsemo(state: RunState) -> bool:
    inst = state.inst
    rng = state.rng
    n = inst.n
    if state.over is not None:
        src_bits, src_adj = state.over[1], state.over[2]
    else:
        keys = state.slot_keys
        k = keys[0] if len(keys) == 1 else keys[rng.integers(len(keys))]
        entry = state.slots[k]
        src_bits, src_adj = entry[0], entry[1]
    fm = flip_mask(inst.m, rng)
    state.evaluations += 1
    if fm == 0:
        return False
    bits = src_bits ^ fm
    adj = src_adj.copy()
    toggle_edges(inst, adj, fm)
    h = bits.bit_count()

    if h > n:
        z = state.over
        if z is None or h > z[0]:
            return False
        if h == z[0]:
            if z[3] is None:
                z[3] = depth_value(inst, z[1], z[2])
            f = depth_value(inst, bits, adj)
            if f > z[3]:
                return False
            state.over = [h, bits, adj, f]
        else:
            state.over = [h, bits, adj, None]
        return True

    f = depth_value(inst, bits, adj) if h == n else None
    if state.over is not None:
        state.over = None
        state.slots[h] = [bits, adj, f]
        state.slot_keys.append(h)
    else:
        entry = state.slots.get(h)
        if entry is None:
            state.slots[h] = [bits, adj, f]
            state.slot_keys.append(h)
        else:
            if entry[2] is None:
                entry[2] = depth_value(inst, entry[0], entry[1])
            if f is None:
                f = depth_value(inst, bits, adj)
            if f > entry[2]:
                return False
            entry[0], entry[1], entry[2] = bits, adj, f
    if f is not None and f < state.m2:
        _note_feasible(state, f)
    return True


def _step_gsemo1(state: RunState) -> bool:
    inst = state.inst
    rng = state.rng
    n = inst.n
    members = state.members
    entry = members[0] if len(members) == 1 else members[rng.integers(len(members))]
    fm = flip_mask(inst.m, rng)
    state.evaluations += 1
    if fm == 0:
        return False
    bits = entry[2] ^ fm
    adj = entry[3].copy()
    toggle_edges(inst, adj, fm)
    h = bits.bit_count()
    if h != n and h != n + 1:
        # outside the slot pair a strictly smaller distance to n wins outright
        dy = h - n if h > n else n - h
        for z in members:
            hz = z[0]
            if (hz - n if hz >= n else n - hz) < dy:
                return False
    f = depth_value(inst, bits, adj)
    y = (h, f)
    verdicts = [dominates_gsemo1(y, (z[0], z[1]), n) for z in members]
    if any(v is Dominance.DOMINATED for v in verdicts):
        return False
    kept = [z for z, v in zip(members, verdicts) if not v.weak]
    kept.append([h, f, bits, adj])
    state.members = kept
    if h == n and f < state.m2:
        _note_feasible(state, f)
    return True


def _step_gsemo2(state: RunState) -> bool:
    inst = state.inst
    rng = state.rng
    members = state.members
    entry = members[0] if len(members) == 1 else members[rng.integers(len(members))]
    fm = flip_mask(inst.m, rng)
    state.evaluations += 1
    if fm == 0:
        return False
    bits = entry[2] ^ fm
    adj = entry[3].copy()
    toggle_edges(inst, adj, fm)
    a = deficiency_value(inst, bits, adj)
    if a is None:
        if all(z[0] <= 1 for z in members):
            return False
        a = _exact_deficiency(state, bits, adj)
    f2 = surplus_value(inst, bits)
    y = (a, f2)
    verdicts = [dominates_gsemo2(y, (z[0], z[1])) for z in members]
    if any(v is Dominance.DOMINATED for v in verdicts):
        return False
    kept = [z for z, v in zip(members, verdicts) if not v.weak]
    kept.append([a, f2, bits, adj])
    state.members = kept
    if a == 0 and f2 < state.m2:
        _note_feasible(state, f2)
    return True


_STEPPERS = {
    "ea-edge": _step_ea_edge,
    "gsemo": _step_gsemo,
    "gsemo1": _step_gsemo1,
    "gsemo2": _step_gsemo2,
    "ea-vertex": _step_ea_vertex,
}


def step(state: RunState) -> bool:
    """Evaluate one offspring; True iff the population changed."""
    return _STEPPERS[state.algo](state)


# --- inspection ---------------------------------------------------------------


def population_view(state: RunState) -> tuple:
    """Snapshot of (solution, fitness) pairs, filling lazy fitness parts.

    Fitness is the scalar penalised value for the (1+1) EAs, (weight,
    penalised cost) for gsemo/gsemo1, and (deficiency value, penalised cost)
    for gsemo2.
    """
    inst = state.inst
    algo = state.algo
    if algo == "ea-edge":
        return ((EdgeSolution(state.bits, inst.m), state.f),)
    if algo == "ea-vertex":
        return ((VertexSolution(state.bits, inst.n), state.f),)
    if algo == "gsemo":
        if state.over is not None:
            z = state.over
            if z[3] is None:
                z[3] = depth_value(inst, z[1], z[2])
            return ((EdgeSolution(z[1], inst.m), (z[0], z[3])),)
        out = []
        for h in state.slot_keys:
            entry = state.slots[h]
            if entry[2] is None:
                entry[2] = depth_value(inst, entry[0], entry[1])
            out.append((EdgeSolution(entry[0], inst.m), (h, entry[2])))
        return tuple(out)
    return tuple((EdgeSolution(z[2], inst.m), (z[0], z[1])) for z in state.members)


def best_feasible_cost(state: RunState) -> int | None:
    """Cost of the population's feasible member, if any."""
    m2 = state.m2
    algo = state.algo
    if algo == "ea-edge":
        return state.f if state.f < m2 else None
    if algo == "ea-vertex":
        return state.f if state.bits else None
    if algo == "gsemo":
        if state.over is not None:
            return None
        entry = state.slots.get(state.inst.n)
        if entry is None:
            return None
        if entry[2] is None:
            entry[2] = depth_value(state.inst, entry[0], entry[1])
        return entry[2] if entry[2] < m2 else None
    if algo == "gsemo1":
        for z in state.members:
            if z[0] == state.inst.n and z[1] < m2:
                return z[1]
        return None
    for z in state.members:
        if z[0] == 0 and z[1] < m2:
            return z[1]
    return None


def potential(state: RunState) -> int | None:
    """Penalty level of the population's best member: the scaled violation
    multiplier for the edge algorithms (0 once feasible), the deficiency
    value for gsemo2, 0/None for the always-feasible/empty vertex encoding."""
    m2 = state.m2
    algo = state.algo
    if algo == "ea-edge":
        return state.f // m2
    if algo == "ea-vertex":
        return 0 if state.bits else None
    if algo == "gsemo2":
        return min(z[0] for z in state.members)
    if algo == "gsemo1":
        return min(z[1] // m2 for z in state.members)
    return min(f // m2 for _, (h, f) in population_view(state))


# --- the run loop -------------------------------------------------------------


def run(
    algo: str,
    inst: Instance,
    seed: int,
    budget: int,
    targets: tuple[str, ...] = (),
    opt_cost: int | None = None,
    trace_every: int = 0,
    node_budget: int = 1_000_000,
) -> RunRecord:
    """Run `algo` on `inst` for at most `budget` evaluations.

    `targets` names milestones ("feasible", "ratio32", "opt") after whose
    joint attainment the run stops early; the latter two need `opt_cost`.
    `trace_every` > 0 records (evaluations, best feasible cost, penalty
    level) every that many evaluations.
    """
    if not 1 <= budget <= MAX_BUDGET:
        raise ValueError(f"budget must lie in [1, {MAX_BUDGET}], got {budget}")
    unknown = [t for t in targets if t not in TARGET_NAMES]
    if unknown:
        raise ValueError(f"unknown targets {unknown}; choose from {TARGET_NAMES}")
    if opt_cost is None and any(t in ("ratio32", "opt") for t in targets):
        raise ValueError("targets 'ratio32' and 'opt' need opt_cost")

    state = init_state(algo, inst, seed, opt_cost=opt_cost, node_budget=node_budget)
    stepf = _STEPPERS[algo]
    ms = state.milestones
    trace: list[tuple] = []

    def met() -> bool:
        return all(ms[t] is not None for t in targets)

    if trace_every:
        trace.append((state.evaluations, best_feasible_cost(state), potential(state)))
    if not (targets and met()):
        while state.evaluations < budget:
            changed = stepf(state)
            if trace_every and state.evaluations % trace_every == 0:
                trace.append((state.evaluations, best_feasible_cost(state), potential(state)))
            if changed and targets and met():
                break

    return RunRecord(
        algo=algo,
        n=inst.n,
        m=inst.m,
        seed=seed,
        budget=budget,
        evaluations=state.evaluations,
        eval_feasible=ms["feasible"],
        eval_ratio32=ms["ratio32"],
        eval_opt=ms["opt"],
        final_cost=best_feasible_cost(state),
        opt_cost=opt_cost,
        trace=tuple(trace),
    )

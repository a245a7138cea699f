"""The five randomized search heuristics and their run loop.

Algorithm ids:
  ea-edge    (1+1) EA on edge bit strings, scalar penalised fitness
  gsemo      two-objective (weight, penalised cost) population search
  gsemo1     variant keeping only the weight-n / weight-(n+1) slots
  gsemo2     variant ordered by deficiency first, penalised cost second
  ea-vertex  (1+1) EA on root-children bit strings, plain tree cost

Each algorithm is one `Run` subclass (`EaEdge`, `Gsemo`, `Gsemo1`,
`Gsemo2`, `EaVertex`).  The base class owns the generator, the evaluation
count, the milestones and the one `step()`: pick a parent, draw the flip
mask, update the offspring's adjacency and `offer` it.  A subclass supplies
the representation (`parent`), the fitness and acceptance rule (`offer`)
and the inspection methods.  The constructor offers the uniform random
initial solution to the empty population, so the initial solution and every
offspring pass through the same acceptance code.  The module functions
`init_state`, `step`, `population_view`, `best_feasible_cost` and
`potential` delegate to a run.

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

import math
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


def _random_bits(rng, length: int) -> int:
    raw = rng.bytes((length + 7) // 8)
    return int.from_bytes(raw, "little") & ((1 << length) - 1)


# --- one run ------------------------------------------------------------------


class Run:
    """Mutable state of one in-flight run: the loop every algorithm shares.

    A subclass holds the population and supplies `parent()` (the bits and
    adjacency to mutate), `offer(bits, adj)` (value an offspring, accept or
    reject it, note milestones; True iff the population changed), `view()`,
    `best_feasible_cost()` and `potential()`.  The constructor offers the
    initial solution to the empty population, so it takes the same
    acceptance path as every offspring.
    """

    algo = ""
    vertex = False

    def __init__(self, inst: Instance, seed: int, opt_cost: int | None, node_budget: int):
        if inst.n < 2:
            raise ValueError("runs need n >= 2")
        self.inst = inst
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.evaluations = 1
        self.milestones = {"feasible": None, "ratio32": None, "opt": None}
        self.opt_cost = opt_cost
        self.node_budget = node_budget
        self.m2 = inst.m * inst.m
        self.length = inst.n if self.vertex else inst.m
        bits = _random_bits(self.rng, self.length)
        self.offer(bits, None if self.vertex else adjacency(inst, EdgeSolution(bits, inst.m)))

    def step(self) -> bool:
        """Evaluate one offspring; True iff the population changed."""
        bits, adj = self.parent()
        fm = flip_mask(self.length, self.rng)
        self.evaluations += 1
        if fm == 0:
            return False
        if adj is not None:
            adj = adj.copy()
            toggle_edges(self.inst, adj, fm)
        return self.offer(bits ^ fm, adj)

    def note_feasible(self, cost: int) -> None:
        ms = self.milestones
        if ms["feasible"] is None:
            ms["feasible"] = self.evaluations
        oc = self.opt_cost
        if oc is not None:
            if ms["ratio32"] is None and 2 * cost <= 3 * oc:
                ms["ratio32"] = self.evaluations
            if ms["opt"] is None and cost == oc:
                ms["opt"] = self.evaluations


class EaEdge(Run):
    """`bits`, `adj` and the scalar penalised value `f`."""

    algo = "ea-edge"
    f = math.inf  # no member yet: the first offer is accepted

    def parent(self):
        return self.bits, self.adj

    def offer(self, bits: int, adj: list[int]) -> bool:
        f = scalar_value(self.inst, bits, adj)
        if f > self.f:
            return False
        self.bits, self.adj, self.f = bits, adj, f
        if f < self.m2:
            self.note_feasible(f)
        return True

    def view(self) -> tuple:
        return ((EdgeSolution(self.bits, self.inst.m), self.f),)

    def best_feasible_cost(self) -> int | None:
        return self.f if self.f < self.m2 else None

    def potential(self) -> int | None:
        return self.f // self.m2


class EaVertex(Run):
    """Root-children `bits` and their plain tree cost `f`."""

    algo = "ea-vertex"
    vertex = True
    f = math.inf

    def parent(self):
        return self.bits, None

    def offer(self, bits: int, adj: None) -> bool:
        f = child_set_cost(self.inst, bits)
        if f > self.f:
            return False
        self.bits, self.f = bits, f
        if bits:
            self.note_feasible(f)
        return True

    def view(self) -> tuple:
        return ((VertexSolution(self.bits, self.inst.n), self.f),)

    def best_feasible_cost(self) -> int | None:
        return self.f if self.bits else None

    def potential(self) -> int | None:
        return 0 if self.bits else None


class Gsemo(Run):
    """Weight slots: `slots` maps weight -> [bits, adj, f|None] for weights
    <= n, `slot_keys` lists occupied weights in arrival order, and `over`
    holds the single above-n member [weight, bits, adj, f|None] (never both).
    Costs are filled in lazily: only weight-n members need them at once."""

    algo = "gsemo"

    def __init__(self, *args):
        self.slots: dict[int, list] = {}
        self.slot_keys: list[int] = []
        self.over: list | None = None
        super().__init__(*args)

    def parent(self):
        if self.over is not None:
            return self.over[1], self.over[2]
        keys = self.slot_keys
        k = keys[0] if len(keys) == 1 else keys[self.rng.integers(len(keys))]
        entry = self.slots[k]
        return entry[0], entry[1]

    def _cost(self, entry: list) -> int:
        """Fill in and return the lazy cost that ends a slot or `over` entry."""
        if entry[-1] is None:
            entry[-1] = depth_value(self.inst, entry[-3], entry[-2])
        return entry[-1]

    def offer(self, bits: int, adj: list[int]) -> bool:
        inst = self.inst
        n = inst.n
        h = bits.bit_count()
        z = self.over
        if h > n:
            if z is None:
                if self.slots:
                    return False
                self.over = [h, bits, adj, None]
            elif h > z[0]:
                return False
            elif h == z[0]:
                f = depth_value(inst, bits, adj)
                if f > self._cost(z):
                    return False
                self.over = [h, bits, adj, f]
            else:
                self.over = [h, bits, adj, None]
            return True

        f = depth_value(inst, bits, adj) if h == n else None
        entry = None if z is not None else self.slots.get(h)
        if entry is None:
            self.over = None
            self.slots[h] = [bits, adj, f]
            self.slot_keys.append(h)
        else:
            if f is None:
                f = depth_value(inst, bits, adj)
            if f > self._cost(entry):
                return False
            entry[0], entry[1], entry[2] = bits, adj, f
        if f is not None and f < self.m2:
            self.note_feasible(f)
        return True

    def view(self) -> tuple:
        m = self.inst.m
        z = self.over
        if z is not None:
            return ((EdgeSolution(z[1], m), (z[0], self._cost(z))),)
        entries = [(h, self.slots[h]) for h in self.slot_keys]
        return tuple((EdgeSolution(e[0], m), (h, self._cost(e))) for h, e in entries)

    def best_feasible_cost(self) -> int | None:
        entry = self.slots.get(self.inst.n) if self.over is None else None
        if entry is None:
            return None
        f = self._cost(entry)
        return f if f < self.m2 else None

    def potential(self) -> int | None:
        return min(f // self.m2 for _, (h, f) in self.view())


class _Archive(Run):
    """`members`, entries [first objective, second objective, bits, adj].

    An offspring whose `value` is None is rejected without evaluating it.
    Otherwise it is rejected when a member dominates it, and else it drops
    the members it weakly dominates and joins the archive."""

    members: list | tuple = ()  # the empty archive; `offer` builds a new list

    def parent(self):
        members = self.members
        entry = members[0] if len(members) == 1 else members[self.rng.integers(len(members))]
        return entry[2], entry[3]

    def offer(self, bits: int, adj: list[int]) -> bool:
        y = self.value(bits, adj)
        if y is None:
            return False
        members = self.members
        verdicts = [self.dominates(y, (z[0], z[1])) for z in members]
        if any(v is Dominance.DOMINATED for v in verdicts):
            return False
        kept = [z for z, v in zip(members, verdicts) if not v.weak]
        kept.append([y[0], y[1], bits, adj])
        self.members = kept
        cost = self.feasible_cost(y)
        if cost is not None:
            self.note_feasible(cost)
        return True

    def view(self) -> tuple:
        m = self.inst.m
        return tuple((EdgeSolution(z[2], m), (z[0], z[1])) for z in self.members)

    def best_feasible_cost(self) -> int | None:
        for z in self.members:
            cost = self.feasible_cost(z)
            if cost is not None:
                return cost
        return None


class Gsemo1(_Archive):
    """Members valued (weight, penalised cost); at most the weight-n and
    weight-(n+1) slots survive together."""

    algo = "gsemo1"

    def value(self, bits: int, adj: list[int]) -> tuple[int, int] | None:
        n = self.inst.n
        h = bits.bit_count()
        if h != n and h != n + 1:
            # outside the slot pair a strictly smaller distance to n wins outright
            dy = h - n if h > n else n - h
            for z in self.members:
                hz = z[0]
                if (hz - n if hz >= n else n - hz) < dy:
                    return None
        return h, depth_value(self.inst, bits, adj)

    def dominates(self, y, z) -> Dominance:
        return dominates_gsemo1(y, z, self.inst.n)

    def feasible_cost(self, y) -> int | None:
        return y[1] if y[0] == self.inst.n and y[1] < self.m2 else None

    def potential(self) -> int | None:
        return min(z[1] // self.m2 for z in self.members)


class Gsemo2(_Archive):
    """Members valued (deficiency value, penalised cost); the exact
    deficiency search runs only when a member could still lose to the
    offspring, i.e. some member sits above deficiency value 1."""

    algo = "gsemo2"

    def value(self, bits: int, adj: list[int]) -> tuple[int, int] | None:
        inst = self.inst
        a = deficiency_value(inst, bits, adj)
        if a is None:
            if self.members and all(z[0] <= 1 for z in self.members):
                return None
            budget = self.node_budget
            a = deficiency_value(inst, bits, adj, lambda x: deficiency_set_size(inst, x, budget))
        return a, surplus_value(inst, bits)

    def dominates(self, y, z) -> Dominance:
        return dominates_gsemo2(y, z)

    def feasible_cost(self, y) -> int | None:
        return y[1] if y[0] == 0 and y[1] < self.m2 else None

    def potential(self) -> int | None:
        return min(z[0] for z in self.members)


_RUNS = {cls.algo: cls for cls in (EaEdge, Gsemo, Gsemo1, Gsemo2, EaVertex)}


# --- module entry points --------------------------------------------------------


def init_state(
    algo: str,
    inst: Instance,
    seed: int,
    opt_cost: int | None = None,
    node_budget: int = 1_000_000,
) -> Run:
    """Fresh run with a uniform random initial solution (1 evaluation)."""
    if algo not in _RUNS:
        raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGO_IDS}")
    return _RUNS[algo](inst, seed, opt_cost, node_budget)


def step(state: Run) -> bool:
    """Evaluate one offspring; True iff the population changed."""
    return state.step()


def population_view(state: Run) -> tuple:
    """Snapshot of (solution, fitness) pairs, filling lazy fitness parts.

    Fitness is the scalar penalised value for the (1+1) EAs, (weight,
    penalised cost) for gsemo/gsemo1, and (deficiency value, penalised cost)
    for gsemo2.
    """
    return state.view()


def best_feasible_cost(state: Run) -> int | None:
    """Cost of the population's feasible member, if any."""
    return state.best_feasible_cost()


def potential(state: Run) -> int | None:
    """Penalty level of the population's best member: the scaled violation
    multiplier for the edge algorithms (0 once feasible), the deficiency
    value for gsemo2, 0/None for the always-feasible/empty vertex encoding."""
    return state.potential()


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
    stepf = state.step
    ms = state.milestones
    trace: list[tuple] = []

    def met() -> bool:
        return all(ms[t] is not None for t in targets)

    if trace_every:
        trace.append((state.evaluations, state.best_feasible_cost(), state.potential()))
    if not (targets and met()):
        while state.evaluations < budget:
            changed = stepf()
            if trace_every and state.evaluations % trace_every == 0:
                trace.append((state.evaluations, state.best_feasible_cost(), state.potential()))
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
        final_cost=state.best_feasible_cost(),
        opt_cost=opt_cost,
        trace=tuple(trace),
    )

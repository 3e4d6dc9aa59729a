"""Scalar reference implementations of the hot kernels (a test oracle).

Each vectorized kernel in ``repro`` is the array form of one of the
plain loops below and must stay bit-identical to it: the quadratic
placement assembly, spreading and median sweep, the Kahn levelizer and
STA propagation, the global router, and the MNA characterization
sweep.  The loops live here, outside the product, as the oracle that
``tests/test_kernel_equivalence.py`` (per kernel, seeded inputs) and
``tests/test_backend_parity.py`` (whole flows) compare against.

:func:`reference_kernels` swaps the reference in where the flow looks
each kernel up.  Run as a module, this file is the ``repro`` CLI under
that swap — handy for debugging a suspected vectorization bug::

    PYTHONPATH=src:. python -m tests.reference_kernels goldens table2
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import Counter, deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from repro.characterize.charlib import (
    _SEQ_SIDE_VALUES,
    CharacterizationSetup,
    _build_circuit,
    _leakage_mw,
    _window_ns,
)
from repro.cells.logic import sensitizing_vector
from repro.cells.netlist import CellNetlist
from repro.characterize.mna import MNACircuit
from repro.characterize.waveforms import (
    RampStimulus,
    constant,
    measure_delay_slew,
)
from repro.circuits.netlist import Module, PIN_DRIVER, PO_SINK
from repro.errors import TimingError
from repro.extraction.rc import CellParasitics
from repro.obs import metrics as obs_metrics
from repro.obs.trace import kernel
from repro.place.floorplan import Floorplan
from repro.place.quadratic import (
    ANCHOR_WEIGHT,
    HOLD_WEIGHTS,
    MEDIAN_ROUNDS,
    MEDIAN_SWEEPS_PER_ROUND,
    _cell_pin_adjacency,
    quadratic_solve,
)
from repro.place.quadratic_numpy import LEAF_CELLS, MEDIAN_STEP
from repro.route.grid import RoutingGrid
from repro.route.router import (
    MB1_LENGTH_SHARE,
    MB1_NET_FRACTION,
    RoutingResult,
)
from repro.route.steiner import MAX_EXACT_PINS, rsmt_edges, rsmt_length_um
from repro.tech.metal import LayerClass
from repro.timing.sta import DEFAULT_CLOCK_SLEW_PS, LN2, TimingReport


# -- placement --------------------------------------------------------------


def _build_system(module: Module, floorplan: Floorplan,
                  anchor_x: Optional[np.ndarray] = None,
                  anchor_y: Optional[np.ndarray] = None,
                  anchor_weight: float = ANCHOR_WEIGHT
                  ) -> Tuple[csr_matrix, np.ndarray, np.ndarray]:
    """Laplacian and pad/hold-anchor right-hand sides for x and y.

    When ``anchor_x``/``anchor_y`` are given, every cell is pulled toward
    its anchor with ``anchor_weight`` — the hold force that alternates with
    spreading in the placement loop.
    """
    n = len(module.instances)
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    diag = np.full(n, anchor_weight)
    if anchor_x is not None and anchor_y is not None:
        bx = anchor_weight * anchor_x.copy()
        by = anchor_weight * anchor_y.copy()
    else:
        bx = np.full(n, anchor_weight * floorplan.width_um / 2.0)
        by = np.full(n, anchor_weight * floorplan.height_um / 2.0)

    for net in module.nets:
        if net.is_clock:
            continue
        members: List[int] = []
        pads: List[Tuple[float, float]] = []
        if net.driver is not None:
            if net.driver[0] >= 0:
                members.append(net.driver[0])
            elif net.driver[0] == PIN_DRIVER:
                pos = floorplan.io_positions.get(net.index)
                if pos is not None:
                    pads.append(pos)
        for inst_idx, _pin in net.sinks:
            if inst_idx >= 0:
                members.append(inst_idx)
            elif inst_idx == PO_SINK:
                pos = floorplan.io_positions.get(net.index)
                if pos is not None:
                    pads.append(pos)
        k = len(members) + len(pads)
        if k < 2:
            continue
        w = 1.0 / (k - 1)
        # Clique over movable members (star collapsed for small nets).
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                diag[a] += w
                diag[b] += w
                rows.append(a)
                cols.append(b)
                vals.append(-w)
                rows.append(b)
                cols.append(a)
                vals.append(-w)
        for (px, py) in pads:
            for a in members:
                diag[a] += w
                bx[a] += w * px
                by[a] += w * py

    lap = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    lap = lap + csr_matrix(
        (diag, (np.arange(n), np.arange(n))), shape=(n, n))
    return lap, bx, by


class ScalarPlacementSystem:
    """``PlacementSystem`` stand-in assembling with :func:`_build_system`."""

    def __init__(self, module: Module, floorplan: Floorplan) -> None:
        self.module = module
        self.floorplan = floorplan

    def build(self, anchor_x: Optional[np.ndarray],
              anchor_y: Optional[np.ndarray], anchor_weight: float
              ) -> Tuple[csr_matrix, np.ndarray, np.ndarray]:
        return _build_system(self.module, self.floorplan, anchor_x,
                             anchor_y, anchor_weight)


def spread(module: Module, library, floorplan: Floorplan,
           x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Recursive area bisection: distribute cells uniformly, keep order."""
    n = len(module.instances)
    areas = np.array([library.cell(i.cell_name).area_um2
                      for i in module.instances])
    order = np.arange(n)
    out_x = np.empty(n)
    out_y = np.empty(n)

    def recurse(idx: np.ndarray, x0: float, y0: float,
                x1: float, y1: float, vertical_cut: bool) -> None:
        if idx.size == 0:
            return
        if idx.size <= LEAF_CELLS:
            # Scatter within the leaf region, ordered by the QP solution.
            xs = x[idx]
            sub = idx[np.argsort(xs, kind="stable")]
            for k, cell_idx in enumerate(sub):
                frac = (k + 0.5) / sub.size
                out_x[cell_idx] = x0 + frac * (x1 - x0)
                out_y[cell_idx] = (y0 + y1) / 2.0
            return
        if vertical_cut:
            keys = x[idx]
        else:
            keys = y[idx]
        sorted_idx = idx[np.argsort(keys, kind="stable")]
        csum = np.cumsum(areas[sorted_idx])
        half = csum[-1] / 2.0
        split = int(np.searchsorted(csum, half))
        split = min(max(split, 1), sorted_idx.size - 1)
        left = sorted_idx[:split]
        right = sorted_idx[split:]
        frac = csum[split - 1] / csum[-1]
        if vertical_cut:
            xm = x0 + frac * (x1 - x0)
            recurse(left, x0, y0, xm, y1, False)
            recurse(right, xm, y0, x1, y1, False)
        else:
            ym = y0 + frac * (y1 - y0)
            recurse(left, x0, y0, x1, ym, True)
            recurse(right, x0, ym, x1, y1, True)

    recurse(order, 0.0, 0.0, floorplan.width_um, floorplan.height_um,
            floorplan.width_um >= floorplan.height_um)
    return out_x, out_y


def median_sweep(module: Module, floorplan: Floorplan,
                 x: np.ndarray, y: np.ndarray,
                 adjacency, sweeps: int) -> None:
    """Move each cell toward the median of its connected pins, in place.

    The half-step damping plus the interleaved spreading keeps density
    under control (GordianL-style linearization of the objective).
    """
    n = len(module.instances)
    for _ in range(sweeps):
        for i in range(n):
            neigh = adjacency[i]
            if not neigh:
                continue
            xs = [x[j] if j >= 0 else px for (j, px, _py) in neigh]
            ys = [y[j] if j >= 0 else py for (j, _px, py) in neigh]
            xs.sort()
            ys.sort()
            mx = xs[len(xs) // 2]
            my = ys[len(ys) // 2]
            x[i] += MEDIAN_STEP * (mx - x[i])
            y[i] += MEDIAN_STEP * (my - y[i])


def place_global(module: Module, library, floorplan: Floorplan
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`repro.place.quadratic.place_global` on the scalar kernels:
    the same schedule, spans and counters."""
    iterations = obs_metrics.counter("placer.iterations")
    system = ScalarPlacementSystem(module, floorplan)
    with kernel("place.quadratic_solve"):
        x, y = quadratic_solve(module, floorplan, system=system)
    with kernel("place.spread"):
        x, y = spread(module, library, floorplan, x, y)
    iterations.inc()
    for hold in HOLD_WEIGHTS:
        with kernel("place.quadratic_solve", hold=hold):
            x, y = quadratic_solve(module, floorplan, anchor_x=x,
                                   anchor_y=y, anchor_weight=hold,
                                   system=system)
        with kernel("place.spread"):
            x, y = spread(module, library, floorplan, x, y)
        iterations.inc()
    adjacency = _cell_pin_adjacency(module, floorplan)
    for _ in range(MEDIAN_ROUNDS):
        with kernel("place.median_sweep"):
            median_sweep(module, floorplan, x, y, adjacency,
                         MEDIAN_SWEEPS_PER_ROUND)
        with kernel("place.spread"):
            x, y = spread(module, library, floorplan, x, y)
        iterations.inc()
    # One final gentle median pass; the closing spread restores the
    # uniform density the Tetris legalizer needs.
    with kernel("place.median_sweep"):
        median_sweep(module, floorplan, x, y, adjacency, 1)
    with kernel("place.spread"):
        x, y = spread(module, library, floorplan, x, y)
    iterations.inc()
    return x, y


# -- timing -----------------------------------------------------------------


def levelize(module: Module, library) -> List[int]:
    """Topological order (instance indices) of combinational cells.

    Sequential cells are excluded: their Q pins act as sources with known
    availability, their D pins as sinks.
    """
    obs_metrics.counter("sta.levelization_passes").inc()
    is_seq = [library.cell(inst.cell_name).is_sequential
              for inst in module.instances]
    # In-degree = number of input nets driven by combinational cells.
    indegree = [0] * len(module.instances)
    ready = deque()
    net_ready: Set[int] = set()
    for net in module.nets:
        if net.is_clock:
            net_ready.add(net.index)
            continue
        drv = net.driver
        if drv is None:
            raise TimingError(f"net {net.name!r} has no driver")
        if drv[0] == PIN_DRIVER or (drv[0] >= 0 and is_seq[drv[0]]):
            net_ready.add(net.index)

    comb_count = 0
    for inst in module.instances:
        if is_seq[inst.index]:
            continue
        comb_count += 1
        cell = library.cell(inst.cell_name)
        pending = 0
        for pin_name, net_idx in inst.pin_nets.items():
            pin = cell.pin(pin_name)
            if pin.direction.value != "input":
                continue
            if net_idx not in net_ready:
                pending += 1
        indegree[inst.index] = pending
        if pending == 0:
            ready.append(inst.index)

    order: List[int] = []
    produced: Set[int] = set(net_ready)
    while ready:
        idx = ready.popleft()
        order.append(idx)
        inst = module.instances[idx]
        cell = library.cell(inst.cell_name)
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value != "output":
                continue
            if net_idx in produced:
                continue
            produced.add(net_idx)
            for sink_idx, _sink_pin in module.nets[net_idx].sinks:
                if sink_idx < 0 or is_seq[sink_idx]:
                    continue
                indegree[sink_idx] -= 1
                if indegree[sink_idx] == 0:
                    ready.append(sink_idx)
    if len(order) != comb_count:
        stuck = [module.instances[i].name
                 for i in range(len(module.instances))
                 if not is_seq[i] and indegree[i] > 0][:5]
        raise TimingError(
            f"combinational loop detected; unresolved instances include "
            f"{stuck}")
    return order


def _wire_delay_slew(self, net: Net, slew_in: float
                     ) -> Tuple[float, float]:
    r, c_wire = self.net_model.net_rc(net)
    c_pins = self._sink_pin_cap_ff(net)
    delay = LN2 * r * (c_wire / 2.0 + c_pins)
    degraded = math.sqrt(slew_in * slew_in
                         + (2.2 * r * (c_wire / 2.0 + c_pins)) ** 2)
    return delay, degraded


def sta_run(self) -> TimingReport:
    """Scalar :meth:`TimingAnalyzer.run` over the Kahn order."""
    module = self.module
    library = self.library
    with kernel("sta.levelize"):
        order = levelize(module, library)
    is_seq = [library.cell(i.cell_name).is_sequential
              for i in module.instances]

    arrival: Dict[int, float] = {}
    slew: Dict[int, float] = {}
    loads: Dict[int, float] = {}

    # Start points: primary inputs.
    for net_idx in module.primary_inputs:
        net = module.nets[net_idx]
        if net.is_clock:
            continue
        wire_d, wire_s = _wire_delay_slew(self, net, self.input_slew_ps)
        arrival[net_idx] = wire_d
        slew[net_idx] = wire_s

    # Start points: sequential outputs (clk -> Q).
    for inst in module.instances:
        if not is_seq[inst.index]:
            continue
        cell = library.cell(inst.cell_name)
        for pin_name, net_idx in inst.pin_nets.items():
            if cell.pin(pin_name).direction.value != "output":
                continue
            net = module.nets[net_idx]
            load = self.net_load_ff(net)
            loads[net_idx] = load
            d = cell.delay_ps(DEFAULT_CLOCK_SLEW_PS, load)
            s = cell.output_slew_ps(DEFAULT_CLOCK_SLEW_PS, load)
            wire_d, wire_s = _wire_delay_slew(self, net, s)
            prev = arrival.get(net_idx, -1.0)
            if d + wire_d > prev:
                arrival[net_idx] = d + wire_d
                slew[net_idx] = wire_s

    # Combinational propagation.
    with kernel("sta.propagate", instances=len(order)):
        for inst_idx in order:
            inst = module.instances[inst_idx]
            cell = library.cell(inst.cell_name)
            in_arrival = 0.0
            in_slew = self.input_slew_ps
            for pin_name, net_idx in inst.pin_nets.items():
                if cell.pin(pin_name).direction.value != "input":
                    continue
                a = arrival.get(net_idx, 0.0)
                if a >= in_arrival:
                    in_arrival = a
                    in_slew = slew.get(net_idx, self.input_slew_ps)
            for pin_name, net_idx in inst.pin_nets.items():
                if cell.pin(pin_name).direction.value != "output":
                    continue
                net = module.nets[net_idx]
                load = self.net_load_ff(net)
                loads[net_idx] = load
                d = cell.delay_ps(in_slew, load)
                s = cell.output_slew_ps(in_slew, load)
                wire_d, wire_s = _wire_delay_slew(self, net, s)
                a = in_arrival + d + wire_d
                if a > arrival.get(net_idx, -1.0):
                    arrival[net_idx] = a
                    slew[net_idx] = wire_s

    return self._finish_report(arrival, slew, loads)


# -- routing ----------------------------------------------------------------


def _preferred_class(self, length_um: float) -> LayerClass:
    if length_um <= self._xover_local:
        return LayerClass.LOCAL
    if length_um <= self._xover_intermediate:
        return LayerClass.INTERMEDIATE
    return LayerClass.GLOBAL


def router_run(self, module: Module,
               include_clock: bool = True) -> RoutingResult:
    """Scalar :meth:`GlobalRouter.run`: one net at a time."""
    grid = RoutingGrid.for_core(self.floorplan.width_um,
                                self.floorplan.height_um,
                                self.interconnect.stack,
                                self.capacity_scale)
    # Pass 1: topologies and preferred classes.
    net_length: Dict[int, float] = {}
    net_points: Dict[int, List[Tuple[float, float]]] = {}
    with kernel("route.topology"):
        for net in module.nets:
            if net.is_clock and not include_clock:
                continue
            points = self._net_points(module, net)
            length = rsmt_length_um(points)
            net_length[net.index] = length
            net_points[net.index] = points

    # Layer assignment: each net first tries the class its length
    # prefers (long nets avoid the resistive local layers — the
    # Section 6 router preference), then spills along a class-specific
    # order while classes are under the fill target; once everything
    # is full, overflow is balanced by fill ratio.  Shortest nets go
    # first, as in track-assignment order.
    class_cap_total = {
        cls: cap * grid.n_x * grid.n_y
        for cls, cap in grid.tile_capacity_um.items()
    }
    class_used = {cls: 0.0 for cls in class_cap_total}
    assignment: Dict[int, LayerClass] = {}
    fill_order = [cls for cls in (LayerClass.LOCAL,
                                  LayerClass.INTERMEDIATE,
                                  LayerClass.GLOBAL)
                  if cls in class_cap_total]
    spill = {
        LayerClass.LOCAL: (LayerClass.LOCAL, LayerClass.INTERMEDIATE,
                           LayerClass.GLOBAL),
        LayerClass.INTERMEDIATE: (LayerClass.INTERMEDIATE,
                                  LayerClass.LOCAL,
                                  LayerClass.GLOBAL),
        LayerClass.GLOBAL: (LayerClass.GLOBAL,
                            LayerClass.INTERMEDIATE,
                            LayerClass.LOCAL),
    }
    fill_target = 0.85
    spills = obs_metrics.counter("router.spills")
    ripups = obs_metrics.counter("router.ripups")
    with kernel("route.layer_assign"):
        for net_idx in sorted(net_length, key=net_length.get):
            length = net_length[net_idx]
            preferred = _preferred_class(self, length)
            chosen = None
            for cls in spill.get(preferred, tuple(fill_order)):
                if cls not in class_cap_total:
                    continue
                if (class_used[cls] + length
                        <= class_cap_total[cls] * fill_target):
                    chosen = cls
                    break
            if chosen is None:
                # Everything is at the fill target: balance the
                # overflow across classes by current fill ratio.
                chosen = min(fill_order,
                             key=lambda c: class_used[c]
                             / class_cap_total[c])
                ripups.inc()
            elif chosen is not preferred:
                spills.inc()
            assignment[net_idx] = chosen
            class_used[chosen] += length

    # Pass 2: book tile demand along L-routed tree edges.
    with kernel("route.tile_demand"):
        for net_idx, points in net_points.items():
            if len(points) < 2:
                continue
            cls = assignment[net_idx]
            if cls not in grid.tile_capacity_um:
                continue
            if len(points) <= MAX_EXACT_PINS:
                for a, b in rsmt_edges(points):
                    grid.add_edge_demand(cls, points[a][0],
                                         points[a][1],
                                         points[b][0], points[b][1])
            else:
                xs = [p[0] for p in points]
                ys = [p[1] for p in points]
                grid.add_edge_demand(cls, min(xs), min(ys),
                                     max(xs), max(ys))

    # Per-class detour factors from that class's peak overflow.
    detour_by_class: Dict[LayerClass, float] = {}
    for cls in class_cap_total:
        over = max(0.0, grid.peak_overflow_ratio(cls) - 1.0)
        detour_by_class[cls] = min(1.0 + self.detour_coeff * over, 1.35)
    detour = max(detour_by_class.values()) if detour_by_class else 1.0

    lengths: Dict[int, float] = {}
    res: Dict[int, float] = {}
    cap: Dict[int, float] = {}
    by_class: Dict[LayerClass, float] = {
        cls: 0.0 for cls in class_cap_total}
    total = 0.0
    with kernel("route.rc_annotate"):
        for net_idx, base_len in net_length.items():
            cls = assignment[net_idx]
            length = base_len * detour_by_class.get(cls, 1.0)
            rc = self.interconnect.class_rc(cls) \
                if cls in grid.tile_capacity_um \
                else self.interconnect.class_rc(LayerClass.LOCAL)
            lengths[net_idx] = length
            res[net_idx] = length * rc.resistance_kohm_per_um
            cap[net_idx] = length * rc.capacitance_ff_per_um
            by_class[cls] = by_class.get(cls, 0.0) + length
            total += length

    # MB1 usage for T-MI: the shortest nets dip to the bottom tier.
    mb1_len = 0.0
    if self.interconnect.stack.is_3d and net_length:
        ordered = sorted(net_length, key=net_length.get)
        take = max(1, int(len(ordered) * MB1_NET_FRACTION))
        for net_idx in ordered[:take]:
            mb1_len += lengths.get(net_idx, 0.0) * MB1_LENGTH_SHARE

    return RoutingResult(
        lengths_um=lengths,
        resistances_kohm=res,
        capacitances_ff=cap,
        layer_class=assignment,
        grid=grid,
        total_wirelength_um=total,
        wirelength_by_class=by_class,
        mb1_wirelength_um=mb1_len,
        detour_factor=detour,
    )


# -- characterization -------------------------------------------------------


def _settle(circuit: MNACircuit, setup: CharacterizationSetup,
            initial: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Run the settling phase; returns final node voltages."""
    result = circuit.transient(setup.settle_ns, setup.settle_dt_ns,
                               initial=initial)
    return {name: float(wave[-1]) for name, wave in result.voltages.items()}


def _measure_combinational(netlist: CellNetlist,
                           parasitics: Optional[CellParasitics],
                           cell_type: str, in_pin: str, out_pin: str,
                           slew_ps: float, load_ff: float,
                           setup: CharacterizationSetup
                           ) -> Tuple[float, float, float]:
    """(delay_ps, slew_ps, energy_fj) averaged over rise and fall."""
    node = setup.node
    vdd = node.vdd
    side = sensitizing_vector(cell_type, in_pin, out_pin)
    delays, slews, energies = [], [], []
    for input_rising in (True, False):
        circuit, far = _build_circuit(netlist, parasitics, node, load_ff,
                                      out_pin)
        v0 = 0.0 if input_rising else vdd
        for pin, value in side.items():
            circuit.drive(pin, constant(vdd if value else 0.0))
        circuit.drive(in_pin, constant(v0))
        initial = _settle(circuit, setup)
        out_start = initial.get(far[out_pin], 0.0)
        output_rising = out_start < vdd / 2.0

        circuit2, far2 = _build_circuit(netlist, parasitics, node, load_ff,
                                        out_pin)
        for pin, value in side.items():
            circuit2.drive(pin, constant(vdd if value else 0.0))
        start_ns = 0.02
        stim = RampStimulus(v0=v0, v1=vdd - v0, start_ns=start_ns,
                            slew_ps=slew_ps)
        circuit2.drive(in_pin, stim)
        t_stop, dt = _window_ns(node, slew_ps, load_ff, setup)
        result = circuit2.transient(t_stop + start_ns, dt,
                                    record=[far2[out_pin]],
                                    initial=initial)
        out_wave = result.voltage(far2[out_pin])
        delay_ps, out_slew_ps = measure_delay_slew(
            result.times_ns, out_wave, vdd, stim.mid_crossing_ns,
            output_rising)
        e_supply = result.supply_energy_fj
        # Subtract leakage baseline and, for a rising output, the energy
        # delivered into the external load (Liberty internal-power
        # convention).
        leak_fj = (_leakage_mw(netlist, node) * 1.0e3) * (t_stop + start_ns)
        e_int = e_supply - leak_fj
        if output_rising:
            e_int -= load_ff * vdd * vdd
        energies.append(max(e_int, 0.0))
        delays.append(delay_ps)
        slews.append(out_slew_ps)
    return (float(np.mean(delays)), float(np.mean(slews)),
            float(np.mean(energies)))


def _measure_sequential(netlist: CellNetlist,
                        parasitics: Optional[CellParasitics],
                        clk_pin: str, out_pin: str,
                        slew_ps: float, load_ff: float,
                        setup: CharacterizationSetup
                        ) -> Tuple[float, float, float]:
    """Clock->Q measurement, averaged over Q rising and falling."""
    node = setup.node
    vdd = node.vdd
    data_pin = netlist.input_pins[0]
    delays, slews, energies = [], [], []
    for q_rising in (True, False):
        d_value = vdd if q_rising else 0.0
        circuit, far = _build_circuit(netlist, parasitics, node, load_ff,
                                      out_pin)
        circuit.drive(data_pin, constant(d_value))
        for pin in netlist.input_pins[1:]:
            held = _SEQ_SIDE_VALUES.get(pin, False)
            circuit.drive(pin, constant(vdd if held else 0.0))
        circuit.drive(clk_pin, constant(0.0))
        # Seed the slave latch in the *pre-edge* state (Q at the opposite
        # rail of its post-edge value) so the clock edge produces a
        # measurable output transition.  The feedback keeper then holds the
        # state through the settle phase.
        seed_s_in = vdd if q_rising else 0.0
        seed = {"s_in": seed_s_in, "s_in__w": seed_s_in,
                "s_fb": seed_s_in, "s_fb__w": seed_s_in,
                "s_out": vdd - seed_s_in, "s_out__w": vdd - seed_s_in}
        initial = _settle(circuit, setup, initial=seed)

        circuit2, far2 = _build_circuit(netlist, parasitics, node, load_ff,
                                        out_pin)
        circuit2.drive(data_pin, constant(d_value))
        for pin in netlist.input_pins[1:]:
            held = _SEQ_SIDE_VALUES.get(pin, False)
            circuit2.drive(pin, constant(vdd if held else 0.0))
        start_ns = 0.02
        stim = RampStimulus(v0=0.0, v1=vdd, start_ns=start_ns,
                            slew_ps=slew_ps)
        circuit2.drive(clk_pin, stim)
        t_stop, dt = _window_ns(node, slew_ps, load_ff + 6.0, setup)
        result = circuit2.transient(t_stop + start_ns, dt,
                                    record=[far2[out_pin]],
                                    initial=initial)
        out_wave = result.voltage(far2[out_pin])
        delay_ps, out_slew_ps = measure_delay_slew(
            result.times_ns, out_wave, vdd, stim.mid_crossing_ns, q_rising)
        leak_fj = (_leakage_mw(netlist, node) * 1.0e3) * (t_stop + start_ns)
        e_int = result.supply_energy_fj - leak_fj
        if q_rising:
            e_int -= load_ff * vdd * vdd
        energies.append(max(e_int, 0.0))
        delays.append(delay_ps)
        slews.append(out_slew_ps)
    return (float(np.mean(delays)), float(np.mean(slews)),
            float(np.mean(energies)))


def sweep_grid(netlist: CellNetlist,
               parasitics: Optional[CellParasitics],
               cell_type: str, in_pin: str, out_pin: str,
               slews: Sequence[float], loads: Sequence[float],
               setup: CharacterizationSetup, sequential: bool,
               delay: np.ndarray, oslew: np.ndarray,
               energy: np.ndarray) -> None:
    """Scalar ``charlib._sweep_grid_batch``: one grid point at a time."""
    for i, slew_ps in enumerate(slews):
        for j, load_ff in enumerate(loads):
            if sequential:
                d, s, e = _measure_sequential(
                    netlist, parasitics, in_pin, out_pin, slew_ps,
                    load_ff, setup)
            else:
                d, s, e = _measure_combinational(
                    netlist, parasitics, cell_type, in_pin, out_pin,
                    slew_ps, load_ff, setup)
            delay[i, j] = d
            oslew[i, j] = s
            energy[i, j] = e


# -- the swap ---------------------------------------------------------------

# (module, attribute path, reference): every place the flow looks a
# kernel up.  ``place_global`` is bound by name in two modules.
TARGETS = (
    ("repro.place.placer", "place_global", place_global),
    ("repro.flow.gmi", "place_global", place_global),
    ("repro.timing.sta", "TimingAnalyzer.run", sta_run),
    ("repro.route.router", "GlobalRouter.run", router_run),
    ("repro.characterize.charlib", "_sweep_grid_batch", sweep_grid),
)


def _counted(reference, calls: Counter):
    @functools.wraps(reference)
    def wrapper(*args, **kwargs):
        calls[reference.__name__] += 1
        return reference(*args, **kwargs)
    return wrapper


@contextmanager
def reference_kernels() -> Iterator[Counter]:
    """Run the reference kernels in place of the vectorized ones.

    Yields a :class:`~collections.Counter` of calls per reference
    kernel name (``place_global``, ``sta_run``, ``router_run``,
    ``sweep_grid``), so a test can prove each one ran.  Raises
    :class:`LookupError` when a target no longer resolves: a renamed
    kernel must fail loudly, not silently compare numpy with numpy.
    """
    calls: Counter = Counter()
    patches = []
    for module_name, path, reference in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, name):
            raise LookupError(
                f"reference target {module_name}.{path} does not resolve")
        patches.append((owner, name, getattr(owner, name),
                        _counted(reference, calls)))
    for owner, name, _original, replacement in patches:
        setattr(owner, name, replacement)
    try:
        yield calls
    finally:
        for owner, name, original, _replacement in reversed(patches):
            setattr(owner, name, original)


def main(argv: Sequence[str]) -> int:
    """The ``repro`` CLI on the reference kernels.

    Refuses ``--resume`` (a checkpoint store would serve stages the
    vectorized kernels computed) and worker processes (``-j``: workers
    import ``repro`` afresh, without the swap).
    """
    from repro.cli import build_parser
    from repro.cli import main as repro_main

    args = build_parser().parse_args(argv)
    if args.resume or args.jobs > 1:
        print("error: the reference CLI runs in one process without a "
              "checkpoint store; drop --resume and -j",
              file=sys.stderr)
        return 2
    with reference_kernels():
        return repro_main(list(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

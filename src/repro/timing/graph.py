"""Combinational levelization of a gate-level netlist.

Produces a topological order of combinational instances: sequential cell
outputs and primary inputs are timing start points, sequential data pins
and primary outputs are endpoints.  Raises on combinational loops.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import TimingError
from repro.circuits.netlist import Module, PIN_DRIVER
from repro.kernels.arrays import as_index, ranges
from repro.obs import metrics as obs_metrics


def _gather_ragged(offsets: np.ndarray, flat: np.ndarray,
                   ids: np.ndarray) -> np.ndarray:
    """Concatenate the CSR-style segments ``offsets[id]:offsets[id+1]``."""
    counts = offsets[ids + 1] - offsets[ids]
    if int(counts.sum()) == 0:
        return np.zeros(0, dtype=flat.dtype)
    starts = np.repeat(offsets[ids], counts)
    return flat[starts + ranges(counts)]


class CombGraph:
    """Flat-array view of one module's combinational timing graph.

    Built in a single netlist scan from the library's interned per-cell
    metadata (:meth:`CellLibrary.timing_meta`): instance -> input/output
    net CSR maps in pin-declaration order, net -> combinational-sink
    CSR, start-point readiness, and initial in-degrees.  :meth:`levels`
    runs the level-synchronous Kahn walk over these arrays; the
    vectorized STA engine reuses the same maps for its batching plans,
    so the netlist's pins are visited once per run instead of once per
    consumer.
    """

    def __init__(self, module: Module, library) -> None:
        n_inst = len(module.instances)
        n_nets = len(module.nets)
        self.module = module
        self.n_inst = n_inst
        self.n_nets = n_nets

        meta_of = library.timing_meta
        cell_names = [inst.cell_name for inst in module.instances]
        metas = [meta_of(name) for name in cell_names]
        is_seq_l = [m.is_sequential for m in metas]
        self.cell_names = cell_names
        self.is_seq = np.array(is_seq_l, dtype=bool) if n_inst \
            else np.zeros(0, dtype=bool)
        self.comb = ~self.is_seq

        ready = np.zeros(n_nets, dtype=bool)
        for net in module.nets:
            if net.is_clock:
                ready[net.index] = True
                continue
            drv = net.driver
            if drv is None:
                raise TimingError(f"net {net.name!r} has no driver")
            d0 = drv[0]
            if d0 == PIN_DRIVER or (d0 >= 0 and is_seq_l[d0]):
                ready[net.index] = True
        self.net_ready = ready

        in_counts = [0] * n_inst
        in_flat: List[int] = []
        out_counts = [0] * n_inst
        out_flat: List[int] = []
        seq_out_cells: List[str] = []
        seq_out_nets: List[int] = []
        comb_count = 0
        for inst in module.instances:
            idx = inst.index
            meta = metas[idx]
            outs = meta.output_pins
            if meta.is_sequential:
                for pin_name, net_idx in inst.pin_nets.items():
                    if pin_name in outs:
                        seq_out_cells.append(cell_names[idx])
                        seq_out_nets.append(net_idx)
                continue
            comb_count += 1
            ins = meta.input_pins
            ic = oc = 0
            for pin_name, net_idx in inst.pin_nets.items():
                if pin_name in ins:
                    in_flat.append(net_idx)
                    ic += 1
                elif pin_name in outs:
                    out_flat.append(net_idx)
                    oc += 1
            in_counts[idx] = ic
            out_counts[idx] = oc
        self.comb_count = comb_count
        self.in_counts = as_index(in_counts)
        self.in_arr = as_index(in_flat)
        self.in_off = np.concatenate(
            ([0], np.cumsum(self.in_counts)))
        self.out_counts = as_index(out_counts)
        self.out_arr = as_index(out_flat)
        self.out_off = np.concatenate(
            ([0], np.cumsum(self.out_counts)))
        self.seq_out_cells = seq_out_cells
        self.seq_out_nets = seq_out_nets

        # Net -> combinational sink instances (the Kahn successors).
        sink_counts = [0] * n_nets
        sink_flat: List[int] = []
        for net in module.nets:
            c = 0
            for sink_idx, _sink_pin in net.sinks:
                if sink_idx >= 0 and not is_seq_l[sink_idx]:
                    sink_flat.append(sink_idx)
                    c += 1
            sink_counts[net.index] = c
        self.sink_arr = as_index(sink_flat)
        self.sink_off = np.concatenate(
            ([0], np.cumsum(as_index(sink_counts))))

        # Initial in-degree: input nets not sourced by a start point.
        if self.in_arr.size:
            inst_of_in = np.repeat(
                np.arange(n_inst, dtype=np.intp), self.in_counts)
            pending = inst_of_in[~ready[self.in_arr]]
            self.indegree0 = np.bincount(
                pending, minlength=n_inst).astype(np.intp)
        else:
            self.indegree0 = np.zeros(n_inst, dtype=np.intp)

    def levels(self) -> List[np.ndarray]:
        """Instances grouped by topological depth (see module doc)."""
        obs_metrics.counter("sta.levelization_passes").inc()
        indegree = self.indegree0.copy()
        produced = self.net_ready.copy()
        levels: List[np.ndarray] = []
        done_count = 0
        frontier = np.flatnonzero(self.comb & (indegree == 0))
        empty = np.zeros(0, dtype=np.intp)
        while frontier.size:
            levels.append(frontier)
            done_count += int(frontier.size)
            # Each net has exactly one driver, so the frontier's driven
            # nets are already duplicate-free; only the ready-seeded
            # ones need filtering.  The next frontier is exactly the
            # sinks whose in-degree just hit zero — touching only them
            # keeps a level's cost proportional to its fan-out, not to
            # the whole netlist.
            nets = _gather_ragged(self.out_off, self.out_arr, frontier)
            frontier = empty
            if nets.size:
                nets = nets[~produced[nets]]
                produced[nets] = True
                sinks = _gather_ragged(self.sink_off, self.sink_arr, nets)
                if sinks.size:
                    np.subtract.at(indegree, sinks, 1)
                    touched = np.unique(sinks)
                    frontier = touched[indegree[touched] == 0]
        if done_count != self.comb_count:
            module = self.module
            stuck = [module.instances[i].name
                     for i in range(len(module.instances))
                     if self.comb[i] and indegree[i] > 0][:5]
            raise TimingError(
                f"combinational loop detected; unresolved instances "
                f"include {stuck}")
        return levels


def levelize(module: Module, library) -> List[int]:
    """Topological order (instance indices) of combinational cells.

    Sequential cells are excluded: their Q pins act as sources with known
    availability, their D pins as sinks.  The order is
    :meth:`CombGraph.levels` flattened, level by level.
    """
    return [i for level in CombGraph(module, library).levels()
            for i in level.tolist()]

"""Level-batched STA propagation (:meth:`TimingAnalyzer.run`).

Propagates arrival/slew one topological level at a time: within a level
the worst input arrival (and the slew of the pin that set it, with the
reference engine's last-max-wins tie-break) is found by a padded-row
max, and the NLDM lookups run as one batched bilinear interpolation per
(level, cell name) group.  Every arithmetic expression mirrors the
scalar reference engine in ``tests/reference_kernels.py`` term for
term, so arrivals, slews, and loads come out bit-identical to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.netlist import PO_SINK
from repro.errors import LibraryError
from repro.kernels.arrays import as_f64, as_index, ranges
from repro.obs.trace import kernel
from repro.timing.graph import CombGraph, _gather_ragged


def _worst_tables(cell) -> Tuple[object, object]:
    """The worst arc's (delay, output slew) tables, as ``delay_ps`` picks."""
    if cell.characterization is None:
        raise LibraryError(f"cell {cell.name!r} is not characterized")
    arc = cell.characterization.worst_arc()
    return arc.delay, arc.output_slew


def run_numpy(analyzer) -> "TimingReport":
    """Vectorized :meth:`TimingAnalyzer.run` (max-delay propagation)."""
    from repro.timing.sta import DEFAULT_CLOCK_SLEW_PS, LN2

    module = analyzer.module
    library = analyzer.library
    n_nets = len(module.nets)
    n_inst = len(module.instances)
    input_slew = float(analyzer.input_slew_ps)

    tables: Dict[str, Tuple[object, object]] = {}

    def worst_tables(cell_name: str) -> Tuple[object, object]:
        tabs = tables.get(cell_name)
        if tabs is None:
            tabs = tables[cell_name] = _worst_tables(library.cell(cell_name))
        return tabs

    with kernel("sta.levelize"):
        graph = CombGraph(module, library)
        levels = graph.levels()

    # Everything the scalar engine pays per-instance inside its
    # propagate loop — wire RC, sink pin caps, NLDM table picks, level
    # batching plans — is hoisted here, charged to the same
    # ``sta.propagate`` span so the per-kernel accounting stays
    # comparable with the reference.
    order_len = int(sum(lvl.size for lvl in levels))
    with kernel("sta.propagate", instances=order_len):
        cell_names = graph.cell_names

        # Per-net wire parasitics, batched once for all nets.
        r_net, c_wire = analyzer.net_model.net_rc_bulk(module.nets, n_nets)

        # Sink pin caps: one (net, cap) pair per counted sink, emitted
        # in the reference's exact iteration order.  ``bincount``
        # accumulates each bin sequentially in input order, so every
        # net's sum replays ``_sink_pin_cap_ff``'s additions bit for
        # bit (the differential tests pin this down).
        caps_of = {name: library.timing_meta(name).pin_caps
                   for name in set(cell_names)}
        output_load = float(analyzer.output_load_ff)
        cap_net: List[int] = []
        cap_val: List[float] = []
        for net in module.nets:
            ni = net.index
            for inst_idx, pin in net.sinks:
                if inst_idx >= 0:
                    cap_net.append(ni)
                    cap_val.append(caps_of[cell_names[inst_idx]][pin])
                elif inst_idx == PO_SINK:
                    cap_net.append(ni)
                    cap_val.append(output_load)
        if cap_net:
            c_pins = np.bincount(as_index(cap_net),
                                 weights=as_f64(cap_val),
                                 minlength=n_nets)
        else:
            c_pins = np.zeros(n_nets)
        cc = c_wire / 2.0 + c_pins
        wire_delay = LN2 * r_net * cc
        wire_term = 2.2 * r_net * cc
        load_net = c_wire + c_pins

        # Input nets per instance (pin-declaration order), dense with
        # -1 padding, scattered straight from the graph's CSR map.
        width = int(graph.in_counts.max()) if n_inst else 0
        inmat = np.full((n_inst, max(width, 1)) if n_inst else (0, 1),
                        -1, dtype=np.intp)
        if graph.in_arr.size:
            row_of_in = np.repeat(np.arange(n_inst, dtype=np.intp),
                                  graph.in_counts)
            inmat[row_of_in, ranges(graph.in_counts)] = graph.in_arr
        width = inmat.shape[1]

        # (delay table, slew table, level rows, output nets) per
        # (level, cell name) group, carved out of the CSR output map
        # with one stable argsort per level.  Group order differs from
        # the reference's first-appearance order, but a net has exactly
        # one driver, so the groups of a level write disjoint nets and
        # the order is immaterial.
        cid_of: Dict[str, int] = {}
        id_names: List[str] = []
        cids_l = []
        for name in cell_names:
            cid = cid_of.get(name)
            if cid is None:
                cid = cid_of[name] = len(id_names)
                id_names.append(name)
            cids_l.append(cid)
        cids = as_index(cids_l)
        tabs_by_cid: List[Optional[Tuple[object, object]]] = \
            [None] * len(id_names)
        level_plans = []
        for lvl in levels:
            counts = graph.out_counts[lvl]
            if int(counts.sum()) == 0:
                level_plans.append([])
                continue
            onets = _gather_ragged(graph.out_off, graph.out_arr, lvl)
            rows = np.repeat(np.arange(lvl.size, dtype=np.intp), counts)
            gcid = cids[np.repeat(lvl, counts)]
            order = np.argsort(gcid, kind="stable")
            onets = onets[order]
            rows = rows[order]
            gcid = gcid[order]
            cuts = np.flatnonzero(np.diff(gcid)) + 1
            starts = np.concatenate(([0], cuts))
            ends = np.concatenate((cuts, [gcid.size]))
            plan = []
            for s, e in zip(starts.tolist(), ends.tolist()):
                cid = int(gcid[s])
                tabs = tabs_by_cid[cid]
                if tabs is None:
                    tabs = tabs_by_cid[cid] = worst_tables(id_names[cid])
                plan.append((tabs[0], tabs[1], rows[s:e], onets[s:e]))
            level_plans.append(plan)

        arrival = np.zeros(n_nets)
        slew = np.full(n_nets, input_slew)
        written = np.zeros(n_nets, dtype=bool)
        loads_arr = np.zeros(n_nets)
        loads_written = np.zeros(n_nets, dtype=bool)

        # Start points: primary inputs.
        pi = [idx for idx in module.primary_inputs
              if not module.nets[idx].is_clock]
        if pi:
            pia = as_index(pi)
            arrival[pia] = wire_delay[pia]
            slew[pia] = np.sqrt(input_slew * input_slew
                                + wire_term[pia] ** 2)
            written[pia] = True

        # Start points: sequential outputs (clk -> Q), batched per cell.
        seq_groups: Dict[str, List[int]] = {}
        for cell_name, net_idx in zip(graph.seq_out_cells,
                                      graph.seq_out_nets):
            seq_groups.setdefault(cell_name, []).append(net_idx)
        for cell_name, net_list in seq_groups.items():
            dtab, stab = worst_tables(cell_name)
            nets = as_index(net_list)
            load = load_net[nets]
            loads_arr[nets] = load
            loads_written[nets] = True
            clk_slew = np.full(nets.size, float(DEFAULT_CLOCK_SLEW_PS))
            d = dtab.lookup_batch(clk_slew, load)
            s = stab.lookup_batch(clk_slew, load)
            a = d + wire_delay[nets]
            ws = np.sqrt(s * s + wire_term[nets] ** 2)
            m = a > -1.0
            sel = nets[m]
            arrival[sel] = a[m]
            slew[sel] = ws[m]
            written[sel] = True

        # Combinational propagation, one level per batch.
        row_ids = np.arange(0, dtype=np.intp)
        for lvl, plans in zip(levels, level_plans):
            sub = inmat[lvl]
            valid = sub >= 0
            subc = np.where(valid, sub, 0)
            av = np.where(valid, arrival[subc], -np.inf)
            row_max = av.max(axis=1)
            has_inputs = row_max >= 0.0
            in_arr = np.where(has_inputs, row_max, 0.0)
            # The scalar engine updates on ties (`a >= in_arrival`), so
            # the LAST pin achieving the max supplies the slew.
            last_max = (width - 1) - np.argmax(av[:, ::-1], axis=1)
            if row_ids.size != lvl.size:
                row_ids = np.arange(lvl.size, dtype=np.intp)
            src = subc[row_ids, last_max]
            in_sl = np.where(has_inputs, slew[src], input_slew)
            for dtab, stab, rows, onets in plans:
                load = load_net[onets]
                loads_arr[onets] = load
                loads_written[onets] = True
                d = dtab.lookup_batch(in_sl[rows], load)
                s = stab.lookup_batch(in_sl[rows], load)
                a = in_arr[rows] + d + wire_delay[onets]
                ws = np.sqrt(s * s + wire_term[onets] ** 2)
                m = a > -1.0
                sel = onets[m]
                arrival[sel] = a[m]
                slew[sel] = ws[m]
                written[sel] = True

    arrival_d = {int(i): float(arrival[i]) for i in np.flatnonzero(written)}
    slew_d = {int(i): float(slew[i]) for i in np.flatnonzero(written)}
    loads_d = {int(i): float(loads_arr[i])
               for i in np.flatnonzero(loads_written)}
    return analyzer._finish_report(arrival_d, slew_d, loads_d)

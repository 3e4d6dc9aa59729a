"""Full-flow parity between the vectorized kernels and the reference.

The vectorized kernels are only trusted because a whole flow run is
observably indistinguishable from one on the scalar reference kernels
(``tests/reference_kernels.py``): the same measured rows (and therefore
the same golden row digests), the same audit findings, and the same
structural trace shape.  These tests run one configuration both ways
and require byte-identical observables.
"""

from __future__ import annotations

import pytest

from repro.check.goldens import row_digest
from repro.flow.design_flow import FlowConfig, run_flow
from repro.obs.trace import Tracer, use_tracer
from repro.session import current
from tests.reference_kernels import TARGETS, reference_kernels

# The kernels a flow run reaches (characterization is cached with the
# library; tests/test_kernel_equivalence.py covers that sweep).
FLOW_KERNELS = ("place_global", "sta_run", "router_run")


def _observe(config: FlowConfig):
    # A bound stage store would serve one run's stages to the other.
    assert current().store is None
    tracer = Tracer()
    with use_tracer(tracer):
        result = run_flow(config)
    return result, tracer


def _assert_parity(circuit: str, scale: float, seed: int,
                   is_3d: bool = False) -> None:
    config = FlowConfig(circuit=circuit, scale=scale, seed=seed,
                        is_3d=is_3d)
    with reference_kernels() as calls:
        rp, tp = _observe(config)
    # Each flow kernel really ran on the reference, so the comparison
    # below is never numpy against numpy.
    assert all(calls[name] > 0 for name in FLOW_KERNELS), calls
    rn, tn = _observe(config)

    # Measured rows and their canonical digest (the goldens gate).
    assert rp.summary_row() == rn.summary_row()
    assert row_digest([rp.summary_row()]) == row_digest([rn.summary_row()])

    # Exact internals, not just the rounded row.
    assert rp.clock_ns == rn.clock_ns
    assert rp.wns_ps == rn.wns_ps
    assert rp.total_wirelength_um == rn.total_wirelength_um
    assert rp.utilization == rn.utilization
    assert rp.power.total_mw == rn.power.total_mw
    assert rp.power.cell_mw == rn.power.cell_mw
    assert rp.power.net_mw == rn.power.net_mw
    assert rp.power.leakage_mw == rn.power.leakage_mw
    assert rp.n_cells == rn.n_cells and rp.n_buffers == rn.n_buffers

    # Invariant-audit findings (dataclass equality covers every field).
    assert rp.audit is not None and rn.audit is not None
    assert rp.audit.findings == rn.audit.findings
    assert rp.audit.n_checks == rn.audit.n_checks

    # Structural trace digest: same span forest, names, and attrs.
    assert tp.digest() == tn.digest()


def test_flow_parity_aes_2d():
    _assert_parity("aes", scale=0.06, seed=1)


@pytest.mark.slow
def test_flow_parity_aes_2d_scaled_up():
    _assert_parity("aes", scale=0.2, seed=7)


@pytest.mark.slow
def test_flow_parity_des_3d():
    _assert_parity("des", scale=0.06, seed=2, is_3d=True)


def test_reference_swap_restores_the_vectorized_kernels():
    from repro.route.router import GlobalRouter
    from repro.timing.sta import TimingAnalyzer

    before = (GlobalRouter.run, TimingAnalyzer.run)
    with reference_kernels():
        assert GlobalRouter.run is not before[0]
        assert TimingAnalyzer.run is not before[1]
    assert (GlobalRouter.run, TimingAnalyzer.run) == before


def test_reference_swap_fails_on_a_stale_target(monkeypatch):
    import tests.reference_kernels as ref

    monkeypatch.setattr(ref, "TARGETS", TARGETS + (
        ("repro.timing.sta", "TimingAnalyzer.run_vectorized",
         ref.sta_run),))
    with pytest.raises(LookupError, match="run_vectorized"):
        with ref.reference_kernels():
            pass

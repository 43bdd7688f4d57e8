"""Multi-rail end-to-end: a 2-port NIC runs the fig. 7 sweep.

Turning on a second NIC port is a one-line ``ClusterConfig`` change;
the native module then builds one rail per port and stripes transport
groups across them.  The baseline's p2p path stays on port 0, so for
wire-limited sizes the native speedup roughly doubles — the
network-native headroom a software transport cannot reach.
"""

from dataclasses import replace

from benchmarks.bench_fig07_qp_count import run_fig7
from benchmarks.common import FAST_PTP
from repro.config import NIAGARA
from repro.units import KiB, MiB

SIZES = [64 * KiB, 4 * MiB]


def _series(n_ports):
    cfg = replace(NIAGARA, nic=replace(NIAGARA.nic, n_ports=n_ports))
    cfg.validate()
    return run_fig7(SIZES, FAST_PTP, config=cfg)


def test_two_rail_fig07_end_to_end():
    single = _series(1)
    double = _series(2)
    for series in (single, double):
        for points in series.values():
            assert set(points) == set(SIZES)
            assert all(v > 0 for v in points.values())
    # Wire-limited large messages: the second rail buys real speedup.
    big = 4 * MiB
    assert double["QP=4"][big] > 1.5 * single["QP=4"][big]
    # With one QP there is one rail in use per group; still no slower.
    assert double["QP=1"][big] >= single["QP=1"][big]

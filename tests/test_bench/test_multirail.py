"""Multi-rail end-to-end: a 2-port NIC runs the fig. 7 sweep.

Turning on a second NIC port is a one-line ``ClusterConfig`` change;
the native module then builds one rail per port and stripes transport
groups across them.  The baseline's p2p path stays on port 0, so for
wire-limited sizes the native speedup roughly doubles — the
network-native headroom a software transport cannot reach.
"""

from dataclasses import asdict, replace

from repro.config import NIAGARA
from repro.exp import FAST, Runner, get_experiment
from repro.units import KiB, MiB

SIZES = [64 * KiB, 4 * MiB]


def _series(n_ports):
    cfg = replace(NIAGARA, nic=replace(NIAGARA.nic, n_ports=n_ports))
    cfg.validate()
    spec = get_experiment("fig07").spec(SIZES, FAST.ptp_iter,
                                        config=asdict(cfg))
    return spec.collect(Runner().run(spec.points))["series"]


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

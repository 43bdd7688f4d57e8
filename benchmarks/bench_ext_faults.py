"""Extension: perceived bandwidth under deterministic chunk loss.

The paper evaluates on a healthy EDR fabric; this extension arms the
``repro.faults`` subsystem and sweeps per-chunk loss probabilities over
the three designs of Fig. 9.  Lost chunks are recovered by the RC
retransmission machinery (``retry_cnt`` / ACK-timeout), so the question
is how gracefully each design's perceived bandwidth degrades: the
aggregating designs put more bytes behind each WR, so one lost chunk
stalls a larger in-order window than the per-partition baseline.
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.common import run_fast
from repro.exp import script_main
from repro.units import fmt_rate


def run_ext_faults():
    """{loss: {design: (perceived bw, retransmits)}} at the fast profile."""
    table = {}
    for loss, name, bw, rexmt in run_fast("ext_faults")["rows"]:
        table.setdefault(loss, {})[name] = (bw, rexmt)
    return table


def test_ext_faults(benchmark):
    table = benchmark.pedantic(run_ext_faults, rounds=1, iterations=1)
    clean = table[0.0]
    lossy = table[1e-3]
    # The off path stays off: a loss-free sweep never retransmits.
    assert all(rexmt == 0 for _, rexmt in clean.values())
    # Every design completes under loss (recovery, not hangs).
    assert all(bw > 0 for bw, _ in lossy.values())
    benchmark.extra_info["persist_bw_loss1e3"] = fmt_rate(
        lossy["persist"][0])


if __name__ == "__main__":
    sys.exit(script_main("ext_faults", __doc__))

"""The kernel profiling hook: histograms without semantic drift."""

from __future__ import annotations

import pytest

from repro.sim.core import Environment
from repro.sim.profile import KernelProfile


def _workload(env, ticks):
    def worker(env):
        for _ in range(5):
            yield env.timeout(1e-6)
            ticks.append(env.now)

    for _ in range(4):
        env.process(worker(env))


def test_profile_counts_events_by_type():
    env = Environment()
    ticks = []
    _workload(env, ticks)
    prof = KernelProfile.attach(env)
    env.run()
    assert prof.events > 0
    assert prof.stats["Timeout"].count == 20
    # 4 bootstrap wakes.  This used to pin 4 process-completion events
    # as well: a process nobody waits on now finishes in place, so its
    # completion is no longer dispatched (and one somebody does wait on
    # still is — see the site-census test).
    assert prof.stats["_Wake"].count == 4
    assert "Process" not in prof.stats
    assert prof.events == 24
    data = prof.as_dict()
    assert data["events"] == prof.events
    assert data["virtual_span"] >= 0
    report = prof.report()
    assert "Timeout" in report and "total" in report


def test_site_census_names_the_line_that_parked():
    env = Environment()

    def inner(env):
        yield env.timeout(1e-6)               # resumes here, via yield from
        return 7

    def outer(env):
        value = yield from inner(env)
        yield 2e-6                            # the sleep protocol
        return value

    def joiner(env, child):
        return (yield child)                  # waits on the completion

    ghost = env.timeout(5e-6)                 # nobody observes this one
    seen = []
    observed = env.timeout(6e-6)
    observed.callbacks.append(seen.append)
    child = env.process(outer(env))
    env.process(joiner(env, child))
    prof = KernelProfile.attach(env)
    env.run()
    assert ghost.processed and seen == [observed]

    def site(func, marker):
        import inspect

        lines, first = inspect.getsourcelines(func)
        lineno = first + next(
            i for i, text in enumerate(lines) if marker in text)
        code = func.__code__
        # co_qualname is 3.11+; older interpreters fall back to co_name.
        return f"{getattr(code, 'co_qualname', code.co_name)}:{lineno}"

    assert site(inner, "yield env.timeout").startswith(
        ("test_site_census_names_the_line_that_parked.<locals>.inner:",
         "inner:"))
    assert prof.sites == {
        # Bootstraps: the generator has not started, so its def line.
        site(outer, "def outer"): 1,
        site(joiner, "def joiner"): 1,
        # A resume is named by the innermost suspended frame.
        site(inner, "yield env.timeout"): 1,
        site(outer, "yield 2e-6"): 1,
        # The child's completion is dispatched because joiner waits on it.
        site(joiner, "yield child"): 1,
        "(no callbacks)": 1,
        "list.append": 1,
    }
    assert sum(prof.sites.values()) == prof.events
    assert prof.as_dict()["by_site"] == prof.sites
    report = prof.report(by="site")
    assert "(no callbacks)" in report and report.splitlines()[-1].endswith("total")
    with pytest.raises(ValueError):
        prof.report(by="origin")


def test_profile_does_not_change_virtual_time():
    plain_env = Environment()
    plain_ticks = []
    _workload(plain_env, plain_ticks)
    plain_env.run()

    prof_env = Environment()
    prof_ticks = []
    _workload(prof_env, prof_ticks)
    KernelProfile.attach(prof_env)
    prof_env.run()

    assert prof_ticks == plain_ticks
    assert prof_env.now == plain_env.now

"""Every experiment's scenario list, pinned.

A scenario's ``(kind, key)`` is also its result-cache key, so a change
that reorders, renames or re-spells any point of any experiment shows
up here before it shows up as a cold cache or a moved golden.  Each
row is the point count and the sha256 over the ordered
``kind NUL key LF`` lines of ``get_experiment(name).build(profile)``;
the ``bench list --points`` table is pinned byte for byte beside it.
To accept a deliberate change, print the new digests with
``scenario_digest`` and say why in the commit.
"""

import hashlib
import pathlib

import pytest

from repro.cli import main
from repro.exp import all_experiments, get_experiment, get_profile

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "bench_list_points.txt"

PINS = {
    ("ext_ablations", "fast"): (
        6, "fdc4b05ebd9b8980f213e25a9d7bb6cd79d743dc4876bedc570e94a542fc8979"),
    ("ext_ablations", "paper"): (
        8, "d22a5dcec23d5dbc90116dc3ea0dbc0b4a697afd9e8c9ed2e0c417131a3fb61a"),
    ("ext_autotune", "fast"): (
        5, "151daa45700dda1d7546a3c878da874c8a6fa16762990e547202c819cf55029b"),
    ("ext_autotune", "paper"): (
        5, "d7687efd6223f99e8a4b82ca43613f2d7afe534c3090d675473ce37261f0eb78"),
    ("ext_faults", "fast"): (
        6, "1b6a1faa065daece2cc4125eb813deb96c687d03d8e7fe296bdfc42fbbca2745"),
    ("ext_faults", "paper"): (
        12, "e32200264495574170db3ba5ec85e7be653fda4763676c92eb3591b0cc2ca827"),
    ("ext_fleet", "fast"): (
        16, "6cdda5409687038bc3f2230291f4a7dba4b6084cf435cd033900f7b96b7b4e57"),
    ("ext_fleet", "paper"): (
        16, "f39ebd90449b3b4f94b88431ce901255920ecb714dbc03a837c443d2d0e76aa4"),
    ("ext_halo", "fast"): (
        6, "95fc9fe2c28405bac26d42fae9d08e7ac6c1dddd96ab78c041446ff9054406a2"),
    ("ext_halo", "paper"): (
        12, "8e92a076a14d3f8c33a8dd579c1dcf0f937b2b651a78cf31e450b5d66dd5bcf1"),
    ("ext_model_vs_sim", "fast"): (
        8, "260afbe6d8a38a7a26abcd6abbca0e358885f5b784615343b15d949e5b9e6df5"),
    ("ext_model_vs_sim", "paper"): (
        16, "3432b3939ad97bc5c48b6d4071fcb04bea84d159c15372a8114336f59bb16b90"),
    ("ext_serve", "fast"): (
        5, "ae624ceaa2c2b2713ccddf5d9eb027c424b2fb17634600f101347bc99b75748f"),
    ("ext_serve", "paper"): (
        5, "91046b2c0b277d63503028258a005d1ab1a84b87d505fdbc4ffa31e6de496d51"),
    ("ext_stencil", "fast"): (
        7, "f0b4a5c35092bc3f5cafdd3ee2dbf26a2b0a1e45dc24befad6deef33b3c3c276"),
    ("ext_stencil", "paper"): (
        13, "862da4d0d65555ea8d0efc64aad729543eeaac63f4c675d2572f5c7975e54d2e"),
    ("fig03", "fast"): (
        6, "f1490badac4a1aca075d9faad3c7c5777175771718fc25878a0052a61af9ccf8"),
    ("fig03", "paper"): (
        6, "f1490badac4a1aca075d9faad3c7c5777175771718fc25878a0052a61af9ccf8"),
    ("fig06", "fast"): (
        16, "0a71c56921a804585eefe774531c5287927937ccb235d8b740f625c3263ec771"),
    ("fig06", "paper"): (
        36, "2c7ca0237bf82ba9f954e5eeab56c32afc021ad6395ca52af3fc0f8f0baccfb2"),
    ("fig07", "fast"): (
        20, "bf4d612ff9579058f2754efbb3b33f81b447972f754984b6695828df21233964"),
    ("fig07", "paper"): (
        36, "ef9ad33562635ce46396cb3eadc276f1475b8d949454256c5e2a6fe6c40168b6"),
    ("fig08", "fast"): (
        18, "e06abe52082a6eec3da6132526390905eae211fb8b2be71845b4f32868d75b0d"),
    ("fig08", "paper"): (
        63, "1b00fd8ebb8f84dc3482020bfb807ca4ff640dd95a34af8ea2123337b6ed0727"),
    ("fig09", "fast"): (
        9, "03d82771134b9fb186dde47ff5efecb35cfc2fa572b27d23923b6d765987f2a3"),
    ("fig09", "paper"): (
        30, "7f0f753db9a8cf2aeef8641b02f497fe4c62fdefcf438ebd49c68bcba23a01fe"),
    ("fig10", "fast"): (
        1, "7556a52bc8f86c0f0badbd21e964920e9d74735546fd1c1fa5cf7af7338c188f"),
    ("fig10", "paper"): (
        1, "28de7f3a7893eb4b3cc1972152992b9ab03250ae33e7bc3253e457ff89303d71"),
    ("fig11", "fast"): (
        1, "cfcad4612b316c2164ac294191e3f3a7b97a3cc3d1c783e52b516dccf2ca46e0"),
    ("fig11", "paper"): (
        1, "2e938923c8cf5f0d8c1b7b8a003d2a47e844e09a8831cb9720ae2f835c4e899a"),
    ("fig12", "fast"): (
        3, "0bc454f1ae900f6a7146961a9fe5f0ec4a67f8c1693465e15d550b589c1a3063"),
    ("fig12", "paper"): (
        15, "567b9b30dc01d482f845ec60e493e18cdbb0abc2ef8a506c12f08a6bc4aa3d62"),
    ("fig13", "fast"): (
        9, "10da6ac1ad954c856175a18136bd1b9be320603a46e4543b09f389bd5508b9e1"),
    ("fig13", "paper"): (
        15, "082be07d9e341aff40557e58254a6aac8acfd2e111fddf85ffea0d45c3443c04"),
    ("fig14", "fast"): (
        12, "84d632632b7261184e1f3c133b8db641f8da8b2ff918d584b4487d27957bba0e"),
    ("fig14", "paper"): (
        45, "4d39d1349323d3ce48e66111c516bc0ba775114a5d6697085ac35ad11b8fe76b"),
    ("table1", "fast"): (
        1, "8f89db9f8e846561534c9e0ec5f1eb0edb9626e08480666df516f9ed374c1801"),
    ("table1", "paper"): (
        1, "8f89db9f8e846561534c9e0ec5f1eb0edb9626e08480666df516f9ed374c1801"),
}


def scenario_digest(points) -> str:
    h = hashlib.sha256()
    for point in points:
        h.update(f"{point.kind}\0{point.key}\n".encode())
    return h.hexdigest()


def test_every_experiment_and_profile_is_pinned():
    names = {experiment.name for experiment in all_experiments()}
    assert set(PINS) == {(name, profile) for name in names
                         for profile in ("fast", "paper")}


@pytest.mark.parametrize("name, profile", sorted(PINS),
                         ids=[f"{n}-{p}" for n, p in sorted(PINS)])
def test_scenario_list_is_pinned(name, profile):
    points = get_experiment(name).build(get_profile(profile)).points
    assert (len(points), scenario_digest(points)) == PINS[(name, profile)]


def test_bench_list_points_is_pinned(capsys):
    assert main(["bench", "list", "--points"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")

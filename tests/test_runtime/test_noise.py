"""Tests for noise models."""

import numpy as np
import pytest

from repro.runtime import NoNoise, SingleThreadDelay, UniformNoise


def rng():
    """A team's / model's ``rng``: a callable over one generator."""
    generator = np.random.Generator(np.random.PCG64(7))
    return lambda: generator


def test_no_noise_is_zero():
    d = NoNoise().delays(8, 0.1, 0, rng())
    assert np.all(d == 0)
    assert d.shape == (8,)


def test_single_thread_delay_one_victim():
    d = SingleThreadDelay(0.04).delays(16, 0.1, 0, rng())
    assert np.count_nonzero(d) == 1
    assert d.max() == pytest.approx(0.004)


def test_single_thread_delay_fixed_victim():
    model = SingleThreadDelay(0.01, fixed_victim=3)
    for round_index in range(5):
        d = model.delays(8, 1.0, round_index, rng())
        assert d[3] == pytest.approx(0.01)
        assert np.count_nonzero(d) == 1


def test_single_thread_delay_victim_rotates():
    model = SingleThreadDelay(0.04)
    stream = rng()
    victims = {int(np.argmax(model.delays(16, 0.1, r, stream)))
               for r in range(50)}
    assert len(victims) > 3


def test_single_thread_delay_zero_fraction():
    d = SingleThreadDelay(0.0).delays(8, 0.1, 0, rng())
    assert np.all(d == 0)


def test_negative_fraction_rejected():
    for cls in (SingleThreadDelay, UniformNoise):
        with pytest.raises(ValueError):
            cls(-0.1)


@pytest.mark.parametrize("cls", [SingleThreadDelay, UniformNoise])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_fraction_rejected(cls, value):
    with pytest.raises(ValueError, match="finite"):
        cls(value)


def _no_draw():
    raise AssertionError("a model that does not draw called rng()")


@pytest.mark.parametrize("model", [
    NoNoise(), SingleThreadDelay(0.0), SingleThreadDelay(0.04, fixed_victim=2),
    UniformNoise(0.0)])
def test_models_that_do_not_draw_never_ask_for_the_stream(model):
    assert model.delays(8, 0.1, 0, _no_draw).shape == (8,)


def test_uniform_noise_bounded():
    d = UniformNoise(0.04).delays(64, 0.1, 0, rng())
    assert np.all(d >= 0)
    assert np.all(d <= 0.004)


def test_describe_strings():
    assert "4%" in SingleThreadDelay(0.04).describe()
    assert NoNoise().describe() == "none"

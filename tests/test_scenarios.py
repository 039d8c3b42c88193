"""The graph builders of ``densetrack.scenarios`` draw in batches; the
per-draw builders in ``support`` are their reference.  For every seed both
must give the same adjacency, in the same set iteration order, the same
protected edges and diameter hint, and leave the generator in the same
state."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import support
from densetrack import scenarios
from densetrack.errors import ConfigError


def assert_same_build(name: str, seed: int, *args, skip: int = 0):
    """Build with ``scenarios.<name>`` and ``support.<name>`` from one seed,
    after ``skip`` bounded 32-bit draws (an odd count leaves half a word
    buffered), and compare the results and the generators' end states."""
    rngs = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        rng.integers(1 << 20, size=skip)
        rngs.append(rng)
    got = getattr(scenarios, name)(rngs[0], *args)
    want = getattr(support, name)(rngs[1], *args)
    assert [list(s) for s in got.graph.adj] == \
        [list(s) for s in want.graph.adj]
    assert got.graph.edge_count == want.graph.edge_count
    assert got.protected == want.protected
    assert got.diameter_hint == want.diameter_hint
    # the PCG64 state, and the buffered half-word (has_uint32, uinteger)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def regular_sizes():
    """(n, d) with n*d even and d < n."""
    return st.integers(1, 60).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n - 1).filter(lambda d: n * d % 2 == 0)))


def planted_sizes():
    return st.integers(1, 60).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n)))


probabilities = st.one_of(st.sampled_from([0, 1, 0.0, 1.0]),
                          st.floats(0.0, 1.0))
seeds = st.integers(0, 2 ** 32 - 1)
skips = st.integers(0, 3)


@given(st.integers(1, 60), probabilities, seeds, skips)
@settings(max_examples=150, deadline=None)
def test_gnp_matches_the_per_draw_builder(n, p, seed, skip):
    assert_same_build("build_gnp", seed, n, p, skip=skip)


@given(regular_sizes(), st.sampled_from([1, 2, 7, scenarios.SWAP_BLOCK]),
       seeds, skips)
@settings(max_examples=150, deadline=None)
def test_regular_matches_the_per_draw_builder(size, block, seed, skip):
    # small blocks put many block boundaries inside one build
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "SWAP_BLOCK", block)
        assert_same_build("build_regular", seed, *size, skip=skip)


@given(planted_sizes(), probabilities, st.booleans(), seeds, skips)
@settings(max_examples=150, deadline=None)
def test_planted_matches_the_per_draw_builder(size, noise_p, hub_star, seed,
                                              skip):
    assert_same_build("build_planted", seed, *size, noise_p, hub_star,
                      skip=skip)


@pytest.mark.parametrize("n,p", [(1, 0.5), (2, 0.5), (8, 0), (8, 1),
                                 (8, 0.0), (8, 1.0), (105, 8 / 105)])
def test_gnp_edge_cases(n, p):
    assert_same_build("build_gnp", 5, n, p)


@pytest.mark.parametrize("n,d", [(1, 0), (2, 0), (2, 1), (7, 0), (8, 1),
                                 (7, 6), (8, 7), (9, 2),
                                 # 10*m past one block: 8,000 and 4,200
                                 (200, 8), (120, 7)])
def test_regular_edge_cases(n, d):
    assert_same_build("build_regular", 5, n, d)
    assert_same_build("build_regular", 6, n, d, skip=1)


@pytest.mark.parametrize("hub_star", [True, False])
@pytest.mark.parametrize("n,clique,noise_p", [
    (1, 1, 0.5), (9, 1, 0.3), (9, 9, 0.3), (9, 3, 0), (9, 3, 1),
    (200, 50, 3 / 200)])
def test_planted_edge_cases(n, clique, noise_p, hub_star):
    assert_same_build("build_planted", 5, n, clique, noise_p, hub_star)


@pytest.mark.parametrize("name,args", [("build_regular", (5, 3)),
                                       ("build_regular", (4, 4)),
                                       ("build_planted", (5, 0, 0.1)),
                                       ("build_planted", (5, 6, 0.1))])
def test_bad_sizes_raise_in_both(name, args):
    for module in (scenarios, support):
        with pytest.raises(ConfigError):
            getattr(module, name)(np.random.default_rng(0), *args)


@pytest.mark.parametrize("clique", [-2, 0, 7])
def test_clique_plus_noise_refuses_clique_outside_one_to_n(clique):
    with pytest.raises(ConfigError, match="clique size out of range"):
        scenarios.build_clique_plus_noise(np.random.default_rng(0), 5,
                                          clique, 0)

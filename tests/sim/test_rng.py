"""Tests for deterministic RNG sub-streams."""

from repro.sim import DeterministicRNG


def test_same_seed_same_draws():
    a, b = DeterministicRNG(7), DeterministicRNG(7)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


def test_different_seeds_differ():
    a, b = DeterministicRNG(1), DeterministicRNG(2)
    assert a.uniform() != b.uniform()


def test_named_streams_are_independent():
    rng = DeterministicRNG(3)
    s1_first = rng.stream("io").random()
    rng2 = DeterministicRNG(3)
    # Drawing from another stream first must not perturb "io".
    rng2.stream("net").random()
    assert rng2.stream("io").random() == s1_first


def test_streams_cached():
    rng = DeterministicRNG(0)
    assert rng.stream("x") is rng.stream("x")


def test_choice_and_integers_in_range():
    rng = DeterministicRNG(5)
    assert rng.choice(["a", "b", "c"]) in {"a", "b", "c"}
    assert 0 <= rng.integers(0, 10) < 10

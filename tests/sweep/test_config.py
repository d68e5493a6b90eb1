"""Tests for sweep configs: fingerprints, seeds, grids, problems."""

import dataclasses
import hashlib
import json
import pickle
import re

import pytest

from repro.graph.generators import COST_MODELS, GENERATORS
from repro.partition import HEURISTICS
from repro.sweep import (
    SweepConfig,
    expand_grid,
    graph_signature,
    parse_seed_spec,
)


class TestFingerprint:
    def test_stable_across_instances(self):
        a = SweepConfig(generator="layered", seed=3, heuristic="kl")
        b = SweepConfig(generator="layered", seed=3, heuristic="kl")
        assert a.fingerprint == b.fingerprint
        assert a.canonical_json() == b.canonical_json()

    def test_every_field_changes_it(self):
        base = SweepConfig()
        variants = [
            SweepConfig(generator="pipeline"),
            SweepConfig(n_tasks=13),
            SweepConfig(cost_model="comm_heavy"),
            SweepConfig(heuristic="kl"),
            SweepConfig(seed=1),
            SweepConfig(comm="tight"),
            SweepConfig(deadline_factor=0.8),
            SweepConfig(deadline_factor=None),
            SweepConfig(area_budget_factor=None),
            SweepConfig(hw_parallelism=2),
        ]
        prints = {v.fingerprint for v in variants}
        assert base.fingerprint not in prints
        assert len(prints) == len(variants)

    def test_fingerprint_is_hex_sha256(self):
        fp = SweepConfig().fingerprint
        assert len(fp) == 64
        int(fp, 16)  # parses as hex

    def test_problem_key_ignores_heuristic(self):
        a = SweepConfig(heuristic="greedy", seed=7)
        b = SweepConfig(heuristic="annealing", seed=7)
        assert a.problem_key() == b.problem_key()
        assert a.fingerprint != b.fingerprint

    def test_roundtrip_dict(self):
        config = SweepConfig(generator="tree", n_tasks=9, seed=5,
                             heuristic="cosyma", deadline_factor=None)
        clone = SweepConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.fingerprint == config.fingerprint

    def test_cached_fingerprint_is_the_digest(self):
        """The fingerprint is computed once per instance; the cached
        value is the SHA-256 of the canonical form, travels with a
        pickled config, and a ``replace``d config computes its own."""
        config = SweepConfig(generator="pipeline", seed=4, heuristic="kl")

        def digest(c):
            return hashlib.sha256(
                c.canonical_json().encode("utf-8")).hexdigest()

        assert "fingerprint" not in vars(config)
        first = config.fingerprint
        assert first == digest(config)
        assert config.fingerprint is first  # served from the cache
        assert vars(config)["fingerprint"] == first

        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.fingerprint == first == digest(clone)

        changed = dataclasses.replace(config, seed=5)
        assert "fingerprint" not in vars(changed)
        assert changed.fingerprint == digest(changed) != first
        same = dataclasses.replace(config)
        assert same.fingerprint == first

    def test_cache_leaves_identity_alone(self):
        cached, fresh = SweepConfig(seed=2), SweepConfig(seed=2)
        cached.fingerprint
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh)
        assert cached.to_dict() == fresh.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(KeyError):
            SweepConfig.from_dict({"generator": "layered", "bogus": 1})

    def test_canonical_json_is_sorted(self):
        doc = json.loads(SweepConfig().canonical_json())
        assert list(doc) == sorted(doc)

    def test_validation(self):
        with pytest.raises(KeyError):
            SweepConfig(generator="nope")
        with pytest.raises(KeyError):
            SweepConfig(heuristic="nope")
        with pytest.raises(KeyError):
            SweepConfig(cost_model="nope")
        with pytest.raises(KeyError):
            SweepConfig(comm="nope")
        with pytest.raises(ValueError):
            SweepConfig(n_tasks=0)
        with pytest.raises(ValueError):
            SweepConfig(deadline_factor=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("deadline_factor", float("nan")),
        ("deadline_factor", float("inf")),
        ("deadline_factor", True),
        ("deadline_factor", "0.7"),
        ("area_budget_factor", float("nan")),
        ("area_budget_factor", 0),
        ("hw_parallelism", 0),
        ("hw_parallelism", True),
        ("hw_parallelism", 2.0),
        ("n_tasks", 2.5),
        ("n_tasks", True),
        ("n_tasks", "12"),
        ("seed", 1.5),
        ("seed", None),
    ])
    def test_bad_value_is_named_at_construction(self, field, value):
        """Config values come from CLI flags, genomes and store
        payloads: each bad one fails when the config is built, naming
        the field and the value, not later in build_problem()."""
        pattern = rf"^{field} must .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=pattern):
            SweepConfig(**{field: value})
        with pytest.raises(ValueError, match=pattern):
            SweepConfig.from_dict({**SweepConfig().to_dict(),
                                   field: value})

    def test_integral_factors_are_accepted_as_given(self):
        config = SweepConfig(deadline_factor=1, area_budget_factor=2)
        assert '"deadline_factor":1,' in config.canonical_json()
        config.build_problem()


class TestSeedDerivation:
    def test_graph_seed_independent_of_heuristic(self):
        seeds = {
            SweepConfig(heuristic=h, seed=11).graph_seed()
            for h in HEURISTICS
        }
        assert len(seeds) == 1

    def test_graph_seed_varies_with_cell_seed(self):
        assert SweepConfig(seed=0).graph_seed() \
            != SweepConfig(seed=1).graph_seed()

    def test_heuristic_seed_varies_with_heuristic(self):
        a = SweepConfig(heuristic="annealing", seed=2).heuristic_seed()
        b = SweepConfig(heuristic="greedy", seed=2).heuristic_seed()
        assert a != b

    def test_derivation_is_pure(self):
        config = SweepConfig(seed=9)
        assert config.graph_seed() == config.graph_seed()
        assert config.heuristic_seed() == config.heuristic_seed()


class TestBuildProblem:
    def test_same_graph_for_every_heuristic(self):
        signatures = {
            graph_signature(
                SweepConfig(heuristic=h, seed=4).build_problem().graph
            )
            for h in HEURISTICS
        }
        assert len(signatures) == 1

    def test_deadline_and_budget_factors(self):
        problem = SweepConfig(
            seed=2, deadline_factor=0.5, area_budget_factor=0.25
        ).build_problem()
        all_sw, _path = problem.graph.critical_path("sw")
        assert problem.deadline_ns == pytest.approx(all_sw * 0.5)
        total = sum(
            problem.graph.task(n).hw_area
            for n in problem.graph.task_names
        )
        assert problem.hw_area_budget == pytest.approx(total * 0.25)

    def test_none_factors_mean_unconstrained(self):
        problem = SweepConfig(
            deadline_factor=None, area_budget_factor=None
        ).build_problem()
        assert problem.deadline_ns is None
        assert problem.hw_area_budget is None

    def test_every_generator_builds(self):
        for generator in GENERATORS:
            problem = SweepConfig(
                generator=generator, n_tasks=8, seed=1
            ).build_problem()
            assert len(problem.graph) >= 1

    def test_every_cost_model_builds(self):
        for cost_model in COST_MODELS:
            problem = SweepConfig(
                cost_model=cost_model, n_tasks=6, seed=1
            ).build_problem()
            assert len(problem.graph) >= 1


class TestGrid:
    def test_cartesian_count_and_order(self):
        grid = expand_grid(
            generators=("layered", "pipeline"),
            cost_models=("default", "comm_heavy"),
            heuristics=("greedy", "vulcan"),
            seeds=range(4),
        )
        assert len(grid) == 2 * 2 * 2 * 4
        # deterministic order: same call, same sequence
        again = expand_grid(
            generators=("layered", "pipeline"),
            cost_models=("default", "comm_heavy"),
            heuristics=("greedy", "vulcan"),
            seeds=range(4),
        )
        assert grid == again
        # all cells distinct
        assert len({c.fingerprint for c in grid}) == len(grid)

    def test_heuristics_adjacent_within_problem(self):
        grid = expand_grid(heuristics=("greedy", "kl"), seeds=range(2))
        # heuristic is an outer axis relative to seed
        assert [c.heuristic for c in grid] == \
            ["greedy", "greedy", "kl", "kl"]


class TestSeedSpec:
    def test_ranges_and_lists(self):
        assert parse_seed_spec("0-3,7,10-11") == [0, 1, 2, 3, 7, 10, 11]
        assert parse_seed_spec("5") == [5]
        assert parse_seed_spec("-3") == [-3]

    def test_rejects_empty_and_backward(self):
        with pytest.raises(ValueError):
            parse_seed_spec("")
        with pytest.raises(ValueError):
            parse_seed_spec("5-2")

"""Read parallelism follows the cluster's CPUs: 2 blocks per CPU, with a
floor of 1 CPU, not 4."""

import pytest


@pytest.mark.parametrize("resources, blocks", [
    ({"CPU": 1}, 2),
    ({"CPU": 4}, 8),
    ({"CPU": 0.5}, 2),
    ({}, 2),
])
def test_auto_parallelism_two_blocks_per_cpu(monkeypatch, resources, blocks):
    import ray

    from web_based_search_engine_ray.util import auto_parallelism

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", lambda: resources)
    assert auto_parallelism() == blocks


def test_auto_parallelism_without_ray(monkeypatch):
    import ray

    from web_based_search_engine_ray.util import auto_parallelism

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert auto_parallelism() == 8

import pytest

from cxlsim.config import build_system, check_config, merge_config, preset


def patched_preset(name: str, patch: dict | None = None) -> dict:
    cfg = preset(name)
    if patch:
        cfg = merge_config(cfg, patch)
    check_config(cfg)
    return cfg


@pytest.fixture
def asic_cfg():
    return preset("cxl-dmsim-a")


@pytest.fixture
def local_cfg():
    return preset("local-ddr")


def tiny_cache_patch() -> dict:
    """Shrunken hierarchy for capacity-behavior tests."""
    return {"host": {"caches": {
        "l1": {"capacity_kb": 4, "assoc": 4, "hit_latency_ns": 1.0},
        "l2": {"capacity_kb": 16, "assoc": 8, "hit_latency_ns": 4.0},
        "l3": {"capacity_kb": 64, "assoc": 16, "hit_latency_ns": 10.0},
    }}}


def build(cfg: dict):
    return build_system(check_config(cfg))

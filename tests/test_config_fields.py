"""No config field is accepted and then silently ignored.

Each golden case (tests/test_golden_reports.py) runs through the
``cxlsim run`` path with config.check_config patched to hand the run a
copy of the checked view that records each field read.  The rules of
check_config read the view before the copy exists, so validation is not
use.  Every leaf of the view that the run never reads (None leaves
aside: a left-out bridge or cache block) must be on ALLOWED with the
reason it stays.  The next schema version removes or refuses each entry
but schema_version.
"""

import copy
from types import SimpleNamespace

import pytest

from test_golden_reports import CASES

from cxlsim import cli, config

# A device field is named by the device's medium, and an SSD's by
# whether its cache is on: `devices[ssd, uncached].x`.
ALLOWED = {
    "schema_version": "checked, then only hashed into the config digest",
    "host.injectors.count": "build_system reads workload.injectors",
    "host.injectors.lsq_depth": "build_system reads workload.lsq_depth",
    "host.injectors.think_time_ns": "must be 0: the model has no think time",
    "host.local_medium.queue_capacity": "QueuedDdr is an unbounded FIFO",
    "devices[queued_ddr].ddr.queue_capacity": "QueuedDdr is an unbounded "
                                              "FIFO",
    "devices[ssd, uncached].medium_access_lat_ns": "the device cache's hit "
                                                   "latency, and no cache",
    "devices[ssd, uncached].cache.capacity_kb": "the cache is disabled",
    "devices[ssd, uncached].cache.policy": "the cache is disabled",
    "devices[ssd, uncached].cache.prefetch": "the cache is disabled",
}


class Recorded(SimpleNamespace):
    """A block of a checked view that adds the label of each of its
    fields read to `_reads`; `_labels` maps a field to its label."""

    __slots__ = ("_labels", "_reads")

    def __getattribute__(self, name):
        labels = object.__getattribute__(self, "_labels")
        if name in labels:
            object.__getattribute__(self, "_reads").add(labels[name])
        return object.__getattribute__(self, name)


def device_label(dev) -> str:
    if dev.medium == "ssd" and not (dev.cache and dev.cache.enabled):
        return "ssd, uncached"
    return dev.medium


def recording(value, label: str, reads: set, leaves: set):
    """A copy of the checked view `value`, labelled `label`, whose blocks
    add the label of each field read to `reads`; adds the label of each
    of its leaves but None to `leaves`.  The one list of blocks is
    `devices`."""
    if isinstance(value, list) and value and isinstance(value[0],
                                                        SimpleNamespace):
        return [recording(dev, f"{label}[{device_label(dev)}]", reads, leaves)
                for dev in value]
    if not isinstance(value, SimpleNamespace):
        if value is not None:
            leaves.add(label)
        return value
    labels = {name: f"{label}.{name}" if label else name
              for name in vars(value)}
    block = Recorded(**{name: recording(field, labels[name], reads, leaves)
                        for name, field in vars(value).items()})
    block._labels = labels
    block._reads = reads
    return block


@pytest.fixture(scope="module")
def unread(tmp_path_factory):
    """{case: labels of the leaves its run never reads}."""
    check = config.check_config
    found = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, (cfg, *_) in CASES.items():
            reads, leaves = set(), set()
            mp.setattr(config, "check_config", lambda cfg: recording(
                check(cfg), "", reads, leaves))
            cli.run_one(copy.deepcopy(cfg), str(tmp_path_factory.mktemp(name)))
            found[name] = leaves - reads
    return found


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_field_reaches_the_run_or_is_allowed(unread, name):
    assert sorted(unread[name] - set(ALLOWED)) == []


def test_every_allowed_field_is_flagged_without_its_entry(unread):
    # An entry whose field a run now reads goes.
    flagged = set().union(*unread.values())
    assert sorted(set(ALLOWED) - flagged) == []


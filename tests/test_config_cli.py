import json
import math
import os
import re
import subprocess
import sys

import pytest

from conftest import coarse_device, ssd_device

import cxlsim
from cxlsim import cli
from cxlsim.config import (ConfigError, build_system, check_config,
                           PRESETS, merge_config, preset)
from cxlsim.host import Target
from cxlsim.media import CoarseDram
from cxlsim.ssd import SsdCachedMedium


class TestValidation:
    def test_negative_fifo_depth_names_field(self):
        cfg = preset("cxl-dmsim-a")
        cfg["bridge"]["req_fifo_depth"] = -1
        with pytest.raises(ConfigError, match="bridge.req_fifo_depth"):
            check_config(cfg)

    def test_unknown_key_rejected(self):
        cfg = preset("local-ddr")
        cfg["host"]["turbo"] = True
        with pytest.raises(ConfigError, match="host.turbo"):
            check_config(cfg)

    def test_unknown_workload_field_rejected(self):
        cfg = preset("local-ddr")
        cfg["workload"]["bogus"] = 1
        with pytest.raises(ConfigError, match="workload.bogus"):
            check_config(cfg)

    def test_write_service_below_read_rejected(self):
        cfg = preset("local-ddr")
        cfg["host"]["local_medium"]["write_service_ns"] = 1.0
        with pytest.raises(ConfigError, match="write_service_ns"):
            check_config(cfg)

    @pytest.mark.parametrize("coarse,field", [
        ({"width": 0}, "width"),
        ({"width": "x"}, "width"),
        ({"widht": 4}, "widht"),
        ({"access_lat_ns": 30.0}, "access_lat_ns"),
    ])
    def test_bad_coarse_block_names_field(self, coarse, field):
        cfg = preset("cxl-dmsim-a")
        cfg["devices"] = [coarse_device(coarse)]
        with pytest.raises(ConfigError,
                           match=re.escape(f"config.devices[0].coarse.{field}")):
            check_config(cfg)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_rejected(self, value):
        cfg = preset("cxl-dmsim-a")
        cfg["bridge"]["bridge_lat_ns"] = value
        with pytest.raises(ConfigError,
                           match="bridge.bridge_lat_ns: must be finite"):
            check_config(cfg)

    def test_last_window_may_end_at_2_64_and_no_further(self):
        # The check carves the map as the build does, so both put the
        # edge in the same place.
        cfg = preset("cxl-dmsim-a")
        dev = cfg["devices"][0]
        cfg["devices"] = [dict(dev, hdm_size_mb=2**43)]
        system = build_system(check_config(cfg))
        assert system.devices[0].bar.base == 2**63
        assert system.membus.addr_map.ranges[-1].limit == 2**64
        cfg["devices"].append(dict(dev, hdm_size_mb=1))
        with pytest.raises(ConfigError, match=re.escape(
                "config.devices[1].hdm_size_mb")):
            check_config(cfg)

    def test_coarse_block_defaults_width(self):
        cfg = preset("cxl-dmsim-a")
        cfg["devices"] = [coarse_device()]
        assert check_config(cfg).devices[0].medium == "coarse_dram"

    def test_cache_block_without_enabled_builds_cached_medium(self):
        cfg = preset("cxl-ssd")
        cfg["devices"][0]["cache"] = {"capacity_kb": 1024, "policy": "lru"}
        medium = build_system(check_config(cfg)).devices[0].medium
        assert isinstance(medium, SsdCachedMedium)
        assert medium.capacity_pages * medium.page_size == 1024 * 1024
        assert medium.prefetcher is not None

    def test_fractional_query_count_rejected(self):
        # A fractional count never equals the completed-query count, so a
        # run that accepted it would never finish.
        cfg = preset("cxl-dmsim-a")
        cfg["workload"] = {"kind": "dlrm_proxy", "queries_per_injector": 2.5}
        with pytest.raises(ConfigError,
                           match="config.workload.queries_per_injector"):
            check_config(cfg)

    def test_all_presets_validate(self):
        for name in PRESETS:
            check_config(preset(name))

    def test_round_trip_is_identity(self):
        cfg = preset("cxl-dmsim-a")
        again = check_config(json.loads(json.dumps(cfg)))
        assert again == check_config(cfg)

    def test_merge_replaces_workload_of_other_kind(self):
        cfg = merge_config(preset("local-ddr"),
                           {"workload": {"kind": "kv_proxy", "ops": 10}})
        assert cfg["workload"] == {"kind": "kv_proxy", "ops": 10}

    def test_merge_patches_same_kind_workload(self):
        cfg = merge_config(preset("local-ddr"),
                           {"workload": {"samples": 5}})
        assert cfg["workload"]["samples"] == 5
        assert cfg["workload"]["kind"] == "latency_sweep"

    def test_merge_patches_same_kind_local_medium(self):
        base = preset("local-ddr")
        cfg = merge_config(base, {"host": {"local_medium": {
            "kind": "queued_ddr", "access_lat_ns": 40.0}}})
        assert cfg["host"]["local_medium"] == dict(
            base["host"]["local_medium"], access_lat_ns=40.0)

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_misplaced_field_rejected_naming_its_path(self, name):
        # An unknown key in every object of the preset.
        for i, (_, path) in enumerate(objects(preset(name), "config")):
            cfg = preset(name)
            objects(cfg, "config")[i][0]["bogus"] = 1
            with pytest.raises(ConfigError, match=re.escape(
                    f"{path}.bogus: unknown field")):
                check_config(cfg)
        # On each device, the blocks of the other media.
        for d, dev in enumerate(preset(name)["devices"]):
            others = MEDIUM_BLOCKS.keys() - OWN_BLOCKS[dev["medium"]]
            for block in sorted(others):
                cfg = preset(name)
                cfg["devices"][d][block] = MEDIUM_BLOCKS[block]()
                with pytest.raises(ConfigError, match=re.escape(
                        f"config.devices[{d}].{block}: unknown field")):
                    check_config(cfg)


def objects(node, path):
    """Every object in the JSON value `node`, with its dotted path."""
    if isinstance(node, list):
        return [found for i, item in enumerate(node)
                for found in objects(item, f"{path}[{i}]")]
    if not isinstance(node, dict):
        return []
    return [(node, path)] + [found for key, value in node.items()
                             for found in objects(value, f"{path}.{key}")]


# A valid block of each medium's own device fields.
MEDIUM_BLOCKS = {
    "ddr": lambda: preset("cxl-dmsim-a")["devices"][0]["ddr"],
    "coarse": lambda: {"width": 16},
    "ssd": lambda: preset("cxl-ssd")["devices"][0]["ssd"],
    "cache": lambda: preset("cxl-ssd")["devices"][0]["cache"],
}
OWN_BLOCKS = {"queued_ddr": {"ddr"}, "coarse_dram": {"coarse"},
              "ssd": {"ssd", "cache"}}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TINY_WORKLOAD = {"workload": {"kind": "latency_sweep", "array_kb": [16],
                              "samples": 50, "placement": "local"}}

# Values within each field's own range that used to end in an
# OverflowError traceback, a NaN or Infinity in report.json or exit 3 once
# the engine was built: each must give finite ticks and a latency whose
# square is a finite float, and the address map must fit.
UNRUNNABLE = [
    ({"host": {"host_path_lat_ns": 1e306}}, "config.host.host_path_lat_ns"),
    ({"host": {"caches": {"l1": {"hit_latency_ns": 1e306}}}},
     "config.host.caches.l1.hit_latency_ns"),
    ({"host": {"injectors": {"think_time_ns": 1e306}}},
     "config.host.injectors.think_time_ns"),
    ({"devices": [dict(preset("cxl-dmsim-a")["devices"][0],
                       device_proto_proc_lat_ns=1e306)]},
     "config.devices[0].device_proto_proc_lat_ns"),
    ({"devices": [ssd_device(ssd={"read_latency_us": 1e304})]},
     "config.devices[0].ssd.read_latency_us"),
    ({"bridge": {"link_bytes_per_ns_tx": 5e-324}},
     "config.bridge.link_bytes_per_ns_tx"),
    ({"workload": {"kind": "rdwr_sweep", "read_fractions": [1.0],
                   "rates_bytes_per_ns": [5e-324], "ops": 600,
                   "warm_ops": 100, "placement": "hdm"}},
     "config.workload.rates_bytes_per_ns"),
    ({"bridge": {"msg_header_bytes": 10**400}},
     "config.bridge.msg_header_bytes"),
    ({"host": {"core_freq_ghz": 1e308}}, "config.host.core_freq_ghz"),
    ({"devices": [dict(preset("cxl-dmsim-a")["devices"][0],
                       hdm_size_mb=2**44)]},
     "config.devices[0].hdm_size_mb"),
    ({"host": {"local_dram_mb": 2**45}}, "config.host.local_dram_mb"),
    # Each of these wrote core.loadToUse::stdev as Infinity.
    ({"host": {"host_path_lat_ns": 1e200}}, "config.host.host_path_lat_ns"),
    ({"bridge": {"msg_header_bytes": 10**100}},
     "config.bridge.msg_header_bytes"),
    ({"bridge": {"link_bytes_per_ns_rx": 1e-200}},
     "config.bridge.link_bytes_per_ns_rx"),
    ({"devices": [ssd_device(ssd={"write_latency_us": 1e200})]},
     "config.devices[0].ssd.write_latency_us"),
    # Each of these sizes a structure built before the first event.
    ({"devices": [coarse_device({"width": 4097})]},
     "config.devices[0].coarse.width"),
    ({"devices": [ssd_device(ssd={"channels": 4097})]},
     "config.devices[0].ssd.channels"),
    ({"host": {"caches": {"l3": {"capacity_kb": 2**19 + 1}}}},
     "config.host.caches.l3.capacity_kb"),
]


class TestCli:
    def test_run_writes_report_and_curve(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_WORKLOAD)
        out = str(tmp_path / "out")
        rc = cli.main(["run", "--preset", "local-ddr", "--config", cfg,
                       "--out", out])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == 7
        assert report["workload"]["plateau_ns"] == 1.0
        lines = (tmp_path / "out" / "curve.csv").read_text().splitlines()
        assert lines[0] == "array_bytes,mean_load_to_use_ns"

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_WORKLOAD)
        out = str(tmp_path / "out")
        cli.main(["run", "--preset", "local-ddr", "--config", cfg,
                  "--out", out, "--seed", "99"])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == 99

    @pytest.mark.parametrize("preset_name", [None, "local-ddr"])
    def test_run_walks_the_schema_once(self, tmp_path, monkeypatch,
                                       preset_name):
        walks = []
        real_check = cli.cfgmod.check_config

        def counting_check(cfg):
            walks.append(cfg["label"])
            return real_check(cfg)

        monkeypatch.setattr(cli.cfgmod, "check_config", counting_check)
        if preset_name is None:    # a whole config file
            cfg = write_cfg(tmp_path, merge_config(preset("local-ddr"),
                                                   TINY_WORKLOAD))
            source = ["--config", cfg]
        else:
            source = ["--preset", preset_name,
                      "--config", write_cfg(tmp_path, TINY_WORKLOAD)]
        rc = cli.main(["run", *source, "--seed", "3",
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        assert walks == ["local-ddr"]

    def test_config_file_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, [1])
        rc = cli.main(["run", "--config", cfg, "--seed", "3",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config: expected dict" in capsys.readouterr().err

    def test_invalid_config_exits_nonzero_naming_field(self, tmp_path, capsys):
        bad = preset("cxl-dmsim-a")
        bad["bridge"]["req_fifo_depth"] = -5
        cfg = write_cfg(tmp_path, bad)
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bridge.req_fifo_depth" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"schema_version\": 1,\n  oops\n}")
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ":3:" in capsys.readouterr().err

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}: not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, key", [
        ('{"schema_version": 1, "seed": 3, "seed": 5}', "seed"),
        ('{"host": {"caches": {"l1": {"assoc": 8, "assoc": 4}}}}', "assoc"),
    ])
    def test_config_file_repeating_a_key_exits_2(self, tmp_path, capsys,
                                                 text, key):
        # json.load keeps the last value, so the first would be dropped.
        path = tmp_path / "dup.json"
        path.write_text(text)
        rc = cli.main(["run", "--preset", "local-ddr", "--config", str(path),
                       "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}: key {key!r} appears twice" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_config_and_preset(self, capsys):
        rc = cli.main(["run", "--out", "/tmp/nowhere"])
        assert rc == 2

    def test_determinism_byte_identical_reports(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_WORKLOAD)
        cli.main(["run", "--preset", "local-ddr", "--config", cfg,
                  "--out", str(tmp_path / "r1")])
        cli.main(["run", "--preset", "local-ddr", "--config", cfg,
                  "--out", str(tmp_path / "r2")])
        assert ((tmp_path / "r1" / "report.json").read_bytes()
                == (tmp_path / "r2" / "report.json").read_bytes())

    def test_sweep_rows_and_determinism(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CXLSIM_THREADS", "2")
        cfg = write_cfg(tmp_path, {
            "workload": {"kind": "rdwr_sweep", "read_fractions": [1.0],
                         "ops": 600, "warm_ops": 100, "placement": "hdm"}})
        args = ["sweep", "--preset", "cxl-dmsim-a", "--config", cfg,
                "--param", "bridge.req_fifo_depth", "--grid", "13,26"]
        assert cli.main(args + ["--out", str(tmp_path / "s1")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "s2")]) == 0
        s1 = (tmp_path / "s1" / "sweep.csv").read_bytes()
        assert s1 == (tmp_path / "s2" / "sweep.csv").read_bytes()
        rows = s1.decode().splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("bridge.req_fifo_depth,13")
        assert rows[2].startswith("bridge.req_fifo_depth,26")

    def test_sweep_same_bytes_on_one_and_two_workers(self, tmp_path,
                                                     monkeypatch):
        cfg = write_cfg(tmp_path, {
            "workload": {"kind": "dlrm_proxy", "queries_per_injector": 4,
                         "footprint_mb": 2, "placement": "interleave"}})
        outs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("CXLSIM_THREADS", threads)
            out = tmp_path / f"t{threads}"
            assert cli.main(["sweep", "--preset", "cxl-dmsim-a", "--config",
                             cfg, "--param", "bridge.req_fifo_depth",
                             "--grid", "13,26", "--out", str(out)]) == 0
            outs[threads] = {str(f.relative_to(out)): f.read_bytes()
                             for f in sorted(out.rglob("*")) if f.is_file()}
        assert len(outs["1"]) == 7      # sweep.csv and three files a point
        assert outs["1"] == outs["2"]

    def test_run_same_bytes_under_two_hash_seeds(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "workload": {"kind": "stream", "kernel": "add", "array_mb": 64,
                         "groups": 400, "warm_groups": 40,
                         "placement": "interleave"}})
        src = os.path.dirname(os.path.dirname(cxlsim.__file__))
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"h{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "cxlsim.cli", "run",
                            "--preset", "cxl-dmsim-a", "--config", cfg,
                            "--out", str(out)], env=env, check=True,
                           capture_output=True)
            outs.append([(out / name).read_bytes()
                         for name in ("report.json", "curve.csv")])
        assert outs[0] == outs[1]

    def test_sweep_non_numeric_param_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_WORKLOAD)
        rc = cli.main(["sweep", "--preset", "local-ddr", "--config", cfg,
                       "--param", "label", "--grid", "1,2",
                       "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "not numeric" in capsys.readouterr().err

    def test_sweep_bad_grid_value(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_WORKLOAD)
        rc = cli.main(["sweep", "--preset", "local-ddr", "--config", cfg,
                       "--param", "seed", "--grid", "1,x",
                       "--out", str(tmp_path / "s")])
        assert rc == 2

    def test_report_latency_join(self, tmp_path):
        for label, preset_name in (("loc", "local-ddr"), ("asic", "cxl-dmsim-a")):
            cfg = write_cfg(tmp_path, {
                "label": label,
                "workload": {"kind": "latency_sweep", "array_kb": [16],
                             "samples": 50,
                             "placement": "local" if label == "loc" else "hdm"}},
                name=f"{label}.json")
            cli.main(["run", "--preset", preset_name, "--config", cfg,
                      "--out", str(tmp_path / label)])
        out = tmp_path / "fig.csv"
        rc = cli.main(["report", str(tmp_path / "loc"), str(tmp_path / "asic"),
                       "--figure", "latency", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "array_bytes,loc_ns,asic_ns"
        assert len(lines) == 2

    @pytest.mark.parametrize("figure,workloads,message", [
        ("latency", [{"kind": "latency_sweep", "array_kb": [kb],
                      "samples": 20, "placement": "local"} for kb in (16, 32)],
         "latency runs cover different array sizes"),
        ("rdwr", [{"kind": "rdwr_sweep", "read_fractions": [r],
                   "footprint_mb": 1, "ops": 60, "warm_ops": 10,
                   "placement": "local"} for r in (0.5, 1.0)],
         "rdwr runs cover different read fractions"),
    ])
    def test_report_rejects_runs_over_different_x_values(
            self, tmp_path, capsys, figure, workloads, message):
        dirs = []
        for i, workload in enumerate(workloads):
            cfg = write_cfg(tmp_path, {"workload": workload}, name=f"{i}.json")
            dirs.append(str(tmp_path / f"run{i}"))
            assert cli.main(["run", "--preset", "local-ddr", "--config", cfg,
                             "--out", dirs[-1]]) == 0
        capsys.readouterr()
        rc = cli.main(["report", *dirs, "--figure", figure,
                       "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_report_rejects_mixed_workloads(self, tmp_path, capsys):
        cfg1 = write_cfg(tmp_path, TINY_WORKLOAD, name="a.json")
        cli.main(["run", "--preset", "local-ddr", "--config", cfg1,
                  "--out", str(tmp_path / "a")])
        cfg2 = write_cfg(tmp_path, {
            "workload": {"kind": "kv_proxy", "ops": 200, "warm_ops": 20,
                         "footprint_mb": 1}}, name="b.json")
        cli.main(["run", "--preset", "cxl-dmsim-a", "--config", cfg2,
                  "--out", str(tmp_path / "b")])
        rc = cli.main(["report", str(tmp_path / "a"), str(tmp_path / "b"),
                       "--figure", "latency", "--out", str(tmp_path / "f.csv")])
        assert rc == 2

    @pytest.mark.parametrize("content,figure", [
        ("{not json", "latency"),
        ("[1]", "latency"),
        (json.dumps({"seed": 1, "stats": {},
                     "workload": {"kind": "latency_sweep", "curve": []}}),
         "latency"),
        (json.dumps({"config_digest": "0", "seed": 1, "stats": {},
                     "workload": {"kind": "latency_sweep"}}), "latency"),
        (json.dumps({"config_digest": "0", "seed": 1, "stats": {},
                     "workload": {"kind": "latency_sweep", "curve": 5}}),
         "latency"),
        (json.dumps({"config_digest": "0", "seed": 1, "stats": {},
                     "workload": {"kind": "latency_sweep", "curve": [[1]]}}),
         "latency"),
        (json.dumps({"config_digest": "0", "seed": 1, "stats": {},
                     "workload": {"kind": "stream", "kernel": "copy",
                                  "bytes_per_sec": "x"}}), "stream"),
    ], ids=["not_json", "not_an_object", "no_config_digest", "no_curve",
            "curve_int", "curve_short_row", "bytes_per_sec_str"])
    def test_report_rejects_malformed_report_with_exit_2(self, tmp_path,
                                                         capsys, content,
                                                         figure):
        run = tmp_path / "r"
        run.mkdir()
        (run / "report.json").write_text(content)
        rc = cli.main(["report", str(run), "--figure", figure,
                       "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        assert str(run / "report.json") in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("overlay,field", [
        ({"devices": [coarse_device({"width": 0})]},
         "config.devices[0].coarse.width"),
        ({"devices": [coarse_device({"width": "x"})]},
         "config.devices[0].coarse.width"),
        ({"devices": [coarse_device({"widht": 4})]},
         "config.devices[0].coarse.widht"),
        ({"workload": {"kind": "stream", "kernel": "copy", "groups": 100,
                       "warm_groups": 100, "placement": "hdm"}},
         "config.workload.warm_groups"),
        ({"workload": {"kind": "kv_proxy", "ops": 100, "warm_ops": 200,
                       "footprint_mb": 1}},
         "config.workload.warm_ops"),
        ({"workload": {"kind": "rdwr_sweep", "read_fractions": [1.0],
                       "rates_bytes_per_ns": [0], "ops": 600,
                       "warm_ops": 100, "placement": "hdm"}},
         "config.workload.rates_bytes_per_ns"),
        ({"workload": {"kind": "dlrm_proxy", "queries_per_injector": 0,
                       "placement": "hdm"}},
         "config.workload.queries_per_injector"),
        # wrong type
        ({"workload": {"kind": "latency_sweep", "array_kb": [16],
                       "samples": "x"}}, "config.workload.samples"),
        ({"workload": {"kind": "stream", "array_mb": 1500.0, "groups": 100,
                       "warm_groups": 10}}, "config.workload.array_mb"),
        # out of range
        ({"workload": {"kind": "latency_sweep", "array_kb": [16],
                       "samples": -5}}, "config.workload.samples"),
        ({"workload": {"kind": "kv_proxy", "ops": 100, "warm_ops": -10,
                       "footprint_mb": 1}}, "config.workload.warm_ops"),
        ({"workload": {"kind": "kv_proxy", "ops": 100, "warm_ops": 10,
                       "put_fraction": 2.0, "footprint_mb": 1}},
         "config.workload.put_fraction"),
        # empty list
        ({"workload": {"kind": "rdwr_sweep", "read_fractions": [],
                       "ops": 600, "warm_ops": 100}},
         "config.workload.read_fractions"),
        ({"workload": {"kind": "latency_sweep", "array_kb": [16],
                       "stride": 100, "samples": 10}},
         "config.workload.stride"),
        # STREAM groups beyond the 64 MB array's lines
        ({"workload": {"kind": "stream", "array_mb": 64, "groups": 2000000,
                       "warm_groups": 10}}, "config.workload.groups"),
        # fields that would be ignored
        ({"workload": {"kind": "kv_proxy", "ops": 100, "warm_ops": 10,
                       "footprint_mb": 1, "placement": "local"}},
         "config.workload.placement"),
        ({"workload": {"kind": "latency_sweep", "array_kb": [16],
                       "samples": 10, "injectors": 2}},
         "config.workload.injectors"),
        # a workload that needs a device on a config without one
        ({"devices": [], "workload": {"kind": "kv_proxy", "ops": 100,
                                      "warm_ops": 10, "footprint_mb": 1}},
         "config.workload.kind"),
        ({"devices": [], "workload": {"kind": "latency_sweep",
                                      "array_kb": [16], "samples": 10,
                                      "placement": "interleave"}},
         "config.workload.placement"),
        # formerly a ValueError while building the system
        ({"host": {"host_path_lat_ns": 5}}, "config.host.host_path_lat_ns"),
        ({"devices": [dict(preset("cxl-dmsim-a")["devices"][0],
                           hdm_size_mb=3)]},
         "config.devices[0].hdm_size_mb"),
        # a footprint that does not fit, found when it is placed
        ({"workload": {"kind": "dlrm_proxy", "queries_per_injector": 2,
                       "footprint_mb": 1000000000}}, "config.workload"),
        ({"workload": {"kind": "kv_proxy", "ops": 100, "warm_ops": 10,
                       "footprint_mb": 1000000}}, "config.workload"),
        # geometry the component constructors would reject
        ({"host": {"caches": {"l1": {"capacity_kb": 1, "assoc": 32}}}},
         "config.host.caches.l1.capacity_kb"),
        ({"devices": [dict(preset("cxl-ssd")["devices"][0],
                           cache={"enabled": True, "capacity_kb": 6,
                                  "policy": "lru", "prefetch": True})]},
         "config.devices[0].cache.capacity_kb"),
        # JSON Infinity
        ({"host": {"core_freq_ghz": math.inf}}, "config.host.core_freq_ghz"),
        ({"bridge": {"bridge_lat_ns": math.inf}}, "config.bridge.bridge_lat_ns"),
        ({"devices": [dict(preset("cxl-dmsim-a")["devices"][0],
                           medium_access_lat_ns=math.inf)]},
         "config.devices[0].medium_access_lat_ns"),
        ({"workload": {"kind": "rdwr_sweep", "read_fractions": [1.0],
                       "rates_bytes_per_ns": [math.inf], "ops": 600,
                       "warm_ops": 100, "placement": "hdm"}},
         "config.workload.rates_bytes_per_ns"),
        # cache hit latency that rounds to 0 ps
        ({"host": {"caches": {"l1": {"hit_latency_ns": 0.0001}}}},
         "config.host.caches.l1.hit_latency_ns"),
        # cache block and flags of the wrong type
        ({"devices": [dict(preset("cxl-ssd")["devices"][0], cache=5)]},
         "config.devices[0].cache"),
        ({"devices": [dict(preset("cxl-ssd")["devices"][0],
                           cache={"enabled": "no", "capacity_kb": 1024,
                                  "policy": "lru"})]},
         "config.devices[0].cache.enabled"),
        ({"devices": [dict(preset("cxl-ssd")["devices"][0],
                           cache={"capacity_kb": 1024, "policy": "lru",
                                  "prefetch": "no"})]},
         "config.devices[0].cache.prefetch"),
        # a disabled cache block still checks the fields it carries
        ({"devices": [dict(preset("cxl-ssd")["devices"][0],
                           cache={"enabled": False, "capacity_kb": 6,
                                  "policy": "lru"})]},
         "config.devices[0].cache.capacity_kb"),
        ({"devices": [dict(preset("cxl-ssd")["devices"][0],
                           cache={"enabled": False, "capacity_kb": 1024,
                                  "policy": "bogus"})]},
         "config.devices[0].cache.policy"),
        ({"devices": [dict(preset("cxl-ssd")["devices"][0],
                           cache={"enabled": False, "capacity_kb": "1024"})]},
         "config.devices[0].cache.capacity_kb"),
        # malformed blocks that used to raise a TypeError or AttributeError
        pytest.param({"devices": 5}, "config.devices: expected list",
                     id="devices_int"),
        pytest.param({"devices": None}, "config.devices: expected list",
                     id="devices_null"),
        pytest.param({"devices": [5]}, "config.devices[0]: expected dict",
                     id="devices_item_int"),
        pytest.param({"devices": "x"}, "config.devices: expected list",
                     id="devices_str"),
        pytest.param([1], "config: top level must be an object",
                     id="overlay_list"),
        ({"label": 5}, "config.label"),
        # rules the component constructors used to check a second time
        ({"devices": [ssd_device(ssd={"page_bytes": 96})]},
         "config.devices[0].ssd.page_bytes"),
        ({"devices": [ssd_device(ssd={"channels": 0})]},
         "config.devices[0].ssd.channels"),
        ({"devices": [ssd_device(cache={"enabled": True, "policy": "mru"})]},
         "config.devices[0].cache.policy"),
        ({"bridge": {"resp_fifo_depth": 0}}, "config.bridge.resp_fifo_depth"),
        ({"bridge": {"link_bytes_per_ns_rx": 0}},
         "config.bridge.link_bytes_per_ns_rx"),
        ({"host": {"local_medium": {"turnaround_penalty_ns": -1}}},
         "config.host.local_medium.turnaround_penalty_ns"),
        ({"devices": [dict(preset("cxl-dmsim-a")["devices"][0],
                           device_proto_proc_lat_ns=-1)]},
         "config.devices[0].device_proto_proc_lat_ns"),
        ({"bridge": {"host_proto_proc_lat_ns": -1}},
         "config.bridge.host_proto_proc_lat_ns"),
        # a block of another medium, or a field the medium does not take
        ({"devices": [dict(preset("cxl-dmsim-a")["devices"][0],
                           cache=MEDIUM_BLOCKS["cache"]())]},
         "config.devices[0].cache"),
        ({"devices": [dict(preset("cxl-dmsim-a")["devices"][0],
                           ssd=MEDIUM_BLOCKS["ssd"]())]},
         "config.devices[0].ssd"),
        ({"devices": [dict(preset("cxl-dmsim-a")["devices"][0],
                           coarse={"width": 16})]},
         "config.devices[0].coarse"),
        ({"devices": [dict(coarse_device(), ddr=MEDIUM_BLOCKS["ddr"]())]},
         "config.devices[0].ddr"),
        ({"devices": [dict(preset("cxl-ssd")["devices"][0],
                           ddr=MEDIUM_BLOCKS["ddr"]())]},
         "config.devices[0].ddr"),
        ({"devices": [dict(preset("cxl-ssd")["devices"][0],
                           coarse={"width": 16})]},
         "config.devices[0].coarse"),
        ({"devices": [dict(preset("cxl-dmsim-a")["devices"][0],
                           ddr=dict(MEDIUM_BLOCKS["ddr"](),
                                    kind="queued_ddr"))]},
         "config.devices[0].ddr.kind"),
        ({"devices": [dict(preset("cxl-dmsim-a")["devices"][0],
                           ddr=dict(MEDIUM_BLOCKS["ddr"](),
                                    access_lat_ns=30.0))]},
         "config.devices[0].ddr.access_lat_ns"),
        # a bridge block with no device behind it would be ignored
        ({"devices": [], "workload": {"kind": "latency_sweep",
                                      "array_kb": [16], "samples": 10,
                                      "placement": "local"}},
         "config.bridge"),
        # the SSD stats have one name each, so a second SSD device would
        # end in a StatError traceback
        ({"devices": [ssd_device(), ssd_device()]},
         "config.devices[1].medium"),
        *UNRUNNABLE,
    ])
    def test_run_rejects_bad_field_with_exit_2(self, tmp_path, capsys,
                                               overlay, field):
        cfg = write_cfg(tmp_path, overlay)
        rc = cli.main(["run", "--preset", "cxl-dmsim-a", "--config", cfg,
                       "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert field in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("overlay, field", UNRUNNABLE)
    def test_unrunnable_value_is_rejected_by_the_check(self, overlay, field):
        # check_config builds no engine.
        with pytest.raises(ConfigError, match=re.escape(field)):
            check_config(merge_config(preset("cxl-dmsim-a"), overlay))

    def test_overlay_switches_local_medium_kind(self, tmp_path):
        coarse = {"kind": "coarse_dram", "access_lat_ns": 50.0, "width": 4}
        overlay = dict(TINY_WORKLOAD, host={"local_medium": coarse})
        rc = cli.main(["run", "--preset", "local-ddr",
                       "--config", write_cfg(tmp_path, overlay),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        cfg = json.loads((tmp_path / "o" / "config.json").read_text())
        assert cfg["host"]["local_medium"] == coarse
        system = build_system(check_config(cfg))
        medium = system.membus.targets[Target.LOCAL_DRAM].medium
        assert isinstance(medium, CoarseDram)
        # Four servers: of five accesses at tick 0, the fifth waits.
        lat = medium.access_lat
        assert [medium.submit("r") for _ in range(5)] == [lat] * 4 + [2 * lat]

    def test_local_coarse_width_above_its_bound_exits_2(self, tmp_path,
                                                        capsys):
        cfg = preset("cxl-dmsim-a")
        cfg["host"]["local_medium"] = {"kind": "coarse_dram",
                                       "access_lat_ns": 50.0, "width": 4097}
        rc = cli.main(["run", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config.host.local_medium.width" in err
        cfg["host"]["local_medium"]["width"] = 4096
        check_config(cfg)

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--param", "seed", "--grid", "1"]],
        ids=["run", "sweep"])
    def test_out_path_that_is_a_file_exits_2_before_the_run(
            self, tmp_path, capsys, monkeypatch, command):
        def no_run(cfg):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli.cfgmod, "run_workload", no_run)
        afile = tmp_path / "afile"
        afile.touch()
        cfg = write_cfg(tmp_path, TINY_WORKLOAD)
        rc = cli.main([command[0], "--preset", "local-ddr", "--config", cfg,
                       *command[1:], "--out", str(afile)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(afile) in err
        assert "Traceback" not in err

    def test_sweep_bad_index_path_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_WORKLOAD)
        rc = cli.main(["sweep", "--preset", "local-ddr", "--config", cfg,
                       "--param", "devices[0].hdm_size_mb", "--grid", "1,2",
                       "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "devices[0]" in capsys.readouterr().err

    def test_sweep_bad_thread_count_exits_2(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv("CXLSIM_THREADS", "x")
        cfg = write_cfg(tmp_path, TINY_WORKLOAD)
        rc = cli.main(["sweep", "--preset", "local-ddr", "--config", cfg,
                       "--param", "seed", "--grid", "1,2",
                       "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "CXLSIM_THREADS" in capsys.readouterr().err

    def test_sweep_validates_every_point_before_running(self, tmp_path,
                                                         capsys):
        cfg = write_cfg(tmp_path, TINY_WORKLOAD)
        rc = cli.main(["sweep", "--preset", "local-ddr", "--config", cfg,
                       "--param", "workload.samples", "--grid", "5,0",
                       "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "config.workload.samples" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_sweep_sets_indexed_field(self, tmp_path):
        cfg = write_cfg(tmp_path, {"workload": {
            "kind": "latency_sweep", "array_kb": [16], "samples": 20,
            "placement": "hdm"}})
        rc = cli.main(["sweep", "--preset", "cxl-dmsim-a", "--config", cfg,
                       "--param", "devices[0].device_proto_proc_lat_ns",
                       "--grid", "20", "--out", str(tmp_path / "s")])
        assert rc == 0
        point = json.loads(next((tmp_path / "s").glob("point_*"))
                           .joinpath("config.json").read_text())
        assert point["devices"][0]["device_proto_proc_lat_ns"] == 20

    def test_presets_listing(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["local-ddr", "cxl-dmsim-f", "cxl-dmsim-a", "cxl-ssd"]

    def test_presets_dump_is_valid_json(self, capsys):
        cli.main(["presets", "cxl-dmsim-a"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["bridge"]["req_fifo_depth"] == 52
        assert payload["devices"][0]["device_proto_proc_lat_ns"] == 15.0

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "x" / "file.txt"
        cli.atomic_write(str(target), "hello")
        assert target.read_text() == "hello"
        assert [p.name for p in (tmp_path / "x").iterdir()] == ["file.txt"]

    def test_asic_preset_plateau_row_via_cli(self, tmp_path):
        cfg = write_cfg(tmp_path, {"workload": {
            "kind": "latency_sweep", "array_kb": [49152], "samples": 1200,
            "placement": "hdm"}})
        out = tmp_path / "asic"
        assert cli.main(["run", "--preset", "cxl-dmsim-a", "--config", cfg,
                         "--out", str(out)]) == 0
        header, row = (out / "curve.csv").read_text().splitlines()
        size, plateau = row.split(",")
        assert abs(float(plateau) - 284.0) <= 14.2


class TestReportFigures:
    @pytest.fixture()
    def dlrm_dirs(self, tmp_path):
        dirs = []
        for injectors in (2, 4):
            cfg = write_cfg(tmp_path, {
                "label": f"proxy{injectors}",
                "workload": {"kind": "dlrm_proxy", "injectors": injectors,
                             "queries_per_injector": 6, "lookups_per_query": 4,
                             "footprint_mb": 1, "placement": "hdm"}},
                name=f"dlrm{injectors}.json")
            out = tmp_path / f"dlrm{injectors}"
            cli.main(["run", "--preset", "cxl-dmsim-a", "--config", cfg,
                      "--out", str(out)])
            dirs.append(str(out))
        return dirs

    def test_table5_contains_all_ten_rows(self, tmp_path, dlrm_dirs):
        out = tmp_path / "table5.csv"
        rc = cli.main(["report", *dlrm_dirs, "--figure", "table5",
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "statistic,proxy2,proxy4"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["Aggregate QPS", "core.loadToUse::mean",
                         "core.loadToUse::stdev", "core.loadToUse::0-9",
                         "core.loadToUse::min_value",
                         "core.loadToUse::max_value", "core.lsqFullEvents",
                         "l3.overallAvgMissLat", "bridge.reqRetryCounts",
                         "cxl.rsp::mean"]
        for line in lines[1:]:
            assert all(cell for cell in line.split(","))

    def test_rdwr_figure_projects_peaks(self, tmp_path):
        cfg = write_cfg(tmp_path, {"workload": {
            "kind": "rdwr_sweep", "read_fractions": [0.5, 1.0], "ops": 600,
            "warm_ops": 100, "placement": "hdm"}})
        out = tmp_path / "r"
        cli.main(["run", "--preset", "cxl-dmsim-a", "--config", cfg,
                  "--out", str(out)])
        fig = tmp_path / "rdwr.csv"
        assert cli.main(["report", str(out), "--figure", "rdwr",
                         "--out", str(fig)]) == 0
        lines = fig.read_text().splitlines()
        assert lines[0] == "read_fraction,cxl-dmsim-a_peak_bytes_per_sec"
        assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "1"]

    def test_stream_and_ssd_figures(self, tmp_path):
        cfg = write_cfg(tmp_path, {"workload": {
            "kind": "stream", "kernel": "copy", "groups": 900,
            "warm_groups": 100, "placement": "local"}}, name="st.json")
        out = tmp_path / "st"
        cli.main(["run", "--preset", "local-ddr", "--config", cfg,
                  "--out", str(out)])
        fig = tmp_path / "stream.csv"
        assert cli.main(["report", str(out), "--figure", "stream",
                         "--out", str(fig)]) == 0
        assert fig.read_text().splitlines()[1].startswith("copy,")

        kv = write_cfg(tmp_path, {"workload": {
            "kind": "kv_proxy", "ops": 300, "warm_ops": 30,
            "footprint_mb": 1}}, name="kv.json")
        out2 = tmp_path / "kv"
        cli.main(["run", "--preset", "cxl-dmsim-a", "--config", kv,
                  "--out", str(out2)])
        fig2 = tmp_path / "ssd.csv"
        assert cli.main(["report", str(out2), "--figure", "ssd",
                         "--out", str(fig2)]) == 0
        assert fig2.read_text().startswith("label,throughput_ops_per_sec")

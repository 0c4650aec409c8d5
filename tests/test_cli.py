import hashlib
import json

import pytest

from cfmimo.cli import main

TINY = {"total_antennas": 24, "antennas_per_ap": 2, "num_users": 3,
        "drops": 4, "chi_samples": 40, "master_seed": 11}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def test_sweep_writes_csv_and_sidecar(tmp_path, tiny_config, capsys):
    out = tmp_path / "result.csv"
    code = main(["sweep", "--config", tiny_config, "--nt", "1,2",
                 "--ratios", "0.1", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("scheme,n_t,n_ap,k,drops,sum_rate_mean,se_p05,"
                        "se_p50,cv_cf_ratio,cost_total,gamma_ce,master_seed")
    assert len(lines) == 1 + 3 * 2 * 1
    meta = json.loads((tmp_path / "result.csv.meta.json").read_text())
    assert meta["config"]["total_antennas"] == 24
    assert "wrote 6 records" in capsys.readouterr().out


def test_sweep_cli_flags_override_config(tmp_path, tiny_config):
    out = tmp_path / "result.csv"
    code = main(["sweep", "--config", tiny_config, "--nt", "2",
                 "--ratios", "0.1", "--seed", "99", "--drops", "2",
                 "--output", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[4] == "2"          # drops
    assert row[11] == "99"        # master seed


def test_sweep_sidecar_is_strict_json_at_the_fewest_zf_draws(tmp_path,
                                                             capsys):
    # one ZF draw has no standard error: it is rejected, not written as NaN
    def strict(constant):
        raise ValueError(f"{constant} is not JSON")

    for n, code in ((1, 1), (2, 0)):
        path = tmp_path / f"chi{n}.json"
        path.write_text(json.dumps({"total_antennas": 24, "num_users": 3,
                                    "chi_samples": n}))
        assert main(["sweep", "--config", str(path), "--drops", "2",
                     "--nt", "1,4", "--output",
                     str(tmp_path / f"chi{n}.csv")]) == code
    assert "chi_samples must be >= 2, got 1" in capsys.readouterr().err
    assert not (tmp_path / "chi1.csv").exists()
    meta = json.loads((tmp_path / "chi2.csv.meta.json").read_text(),
                      parse_constant=strict)
    assert set(meta["zf_peak_load_rel_se"]) == {"1", "4"}


def test_sweep_deterministic_across_worker_counts(tmp_path, tiny_config):
    digests = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.csv"
        code = main(["sweep", "--config", tiny_config, "--nt", "1,3",
                     "--ratios", "0.05,0.25", "--jobs", jobs,
                     "--output", str(out)])
        assert code == 0
        digests[jobs] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests["1"] == digests["2"]


def test_sweep_rerun_is_byte_identical(tmp_path, tiny_config):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["sweep", "--config", tiny_config, "--nt", "2",
                     "--ratios", "0.1", "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_quick_scales_drops(tmp_path):
    cfg = dict(TINY, drops=40)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "q.csv"
    code = main(["sweep", "--config", str(path), "--nt", "2", "--ratios",
                 "0.1", "--quick", "--output", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[4] == "4"          # 40 drops scaled down 10x
    meta = json.loads((tmp_path / "q.csv.meta.json").read_text())
    assert meta["quick"] is True


def test_sweep_invalid_nt_exits_1(tmp_path, tiny_config, capsys):
    code = main(["sweep", "--config", tiny_config, "--nt", "5",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_missing_config_exits_1(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "absent.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "absent.json" in err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"antennas": 30}))
    assert main(["show-config", "--config", str(path)]) == 1
    assert "antennas" in capsys.readouterr().err


def test_bad_usage_exits_1(capsys):
    assert main(["sweep", "--bogus-flag"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert main(["frobnicate"]) == 1


def test_drop_prints_all_schemes(tiny_config, capsys):
    code = main(["drop", "--config", tiny_config, "--index", "1"])
    assert code == 0
    out = capsys.readouterr().out
    for scheme in ("mrc-ul", "cbf-dl", "zfp-dl"):
        assert scheme in out
    assert "drop 1" in out


def test_drop_index_out_of_range(tiny_config, capsys):
    assert main(["drop", "--config", tiny_config, "--index", "100"]) == 1


def test_show_config_resolves_overrides(tiny_config, capsys):
    code = main(["show-config", "--config", tiny_config, "--seed", "123"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["master_seed"] == 123
    assert printed["total_antennas"] == 24
    assert printed["bandwidth_hz"] == 5e6


def test_show_config_defaults(capsys):
    assert main(["show-config"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["total_antennas"] == 300
    assert printed["num_users"] == 16


def test_validate_quick_passes(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["validate", "--quick", "--output", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "all checks pass" in printed
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == ("term,closed_form,empirical,rel_error,tolerance,"
                      "samples,passed")


def test_validate_custom_samples(capsys):
    code = main(["validate", "--samples", "4000"])
    assert code == 0
    assert "4000" in capsys.readouterr().out


@pytest.mark.parametrize("quick", [[], ["--quick"]])
def test_validate_rejects_zero_samples(capsys, quick):
    # an explicit 0 is a request, not "use the default"
    assert main(["validate", "--samples", "0"] + quick) == 1
    assert "at least 2 samples, got 0" in capsys.readouterr().err


def test_validate_takes_zf_draws_from_the_config(tmp_path, capsys):
    # the ZF closed form's moment draws come from the config's chi_samples
    closed = {}
    for n in (50, 5000):
        path = tmp_path / f"chi{n}.json"
        path.write_text(json.dumps({"total_antennas": 40,
                                    "antennas_per_ap": 2, "num_users": 4,
                                    "chi_samples": n}))
        code = main(["validate", "--config", str(path), "--samples", "2000"])
        assert code in (0, 2)
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        closed[n] = [r[1] for r in rows if r and r[0] == "zfp_sinr"]
    assert len(closed[50]) == 1 and closed[50] != closed[5000]


def test_validate_rejects_drops(capsys):
    # validate inspects drop 0 only, so a drop count is a usage error
    assert main(["validate", "--quick", "--drops", "3"]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["sweep", "--nt", "2"], ["drop"],
                                     ["show-config"], ["validate"]])
def test_cost_section_is_rejected(tmp_path, capsys, command):
    # costs come from --ratios alone; a cost section is an unknown key
    path = tmp_path / "cost.json"
    path.write_text(json.dumps(dict(TINY, cost={"fixed_per_site": 7,
                                                "per_antenna": 3})))
    argv = command + ["--config", str(path)]
    if command[0] == "sweep":
        argv += ["--output", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error: unknown config keys: cost" in err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_sidecar_carries_zf_diagnostics_for_any_worker_count(
        tmp_path, tiny_config):
    metas = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["sweep", "--config", tiny_config, "--nt", "1,2,3",
                     "--ratios", "0.1", "--jobs", jobs,
                     "--output", str(out)]) == 0
        metas.append(json.loads((tmp_path / f"jobs{jobs}.csv.meta.json")
                                .read_text()))
    for key in ("zf_redraws", "zf_peak_load_rel_se"):
        assert set(metas[0][key]) == {"1", "2", "3"}
        assert metas[0][key] == metas[1][key]
    assert all(v == 0 for v in metas[0]["zf_redraws"].values())
    assert all(0 < v < 1 for v in metas[0]["zf_peak_load_rel_se"].values())

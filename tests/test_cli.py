import json

import pytest

from cfmimo import experiment, oracle
from cfmimo.channel import NumericalError
from cfmimo.cli import main
from cfmimo.experiment import DEFAULT_COST_RATIOS, DEFAULT_NT_SWEEP

TINY = {"total_antennas": 24, "num_users": 3, "drops": 4, "chi_samples": 40,
        "master_seed": 11}


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
    # the CSV and its sidecar both
    outputs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.csv"
        code = main(["sweep", "--config", tiny_config, "--nt", "1,3",
                     "--ratios", "0.05,0.25", "--jobs", jobs,
                     "--output", str(out)])
        assert code == 0
        outputs[jobs] = (out.read_bytes(),
                         (tmp_path / f"j{jobs}.csv.meta.json").read_bytes())
    assert outputs["1"] == outputs["2"]


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
    assert meta["config"]["drops"] == 4


def test_sweep_invalid_nt_exits_1(tmp_path, tiny_config, capsys,
                                  monkeypatch):
    # a bad antenna count, a non-finite cost ratio, a repeated entry in
    # either grid, an empty grid, a non-number or a config antennas_per_ap
    # that --nt would overwrite stops the run before any drop runs or
    # anything is written; a repeated entry would run its drops twice and
    # write each row twice, and an empty flag is not an absent one
    def no_drop(*args):
        raise AssertionError("a drop ran")

    monkeypatch.setattr(experiment, "run_drop", no_drop)
    split = tmp_path / "split.json"
    split.write_text(json.dumps(dict(TINY, antennas_per_ap=2)))
    for grid, why in ((["--nt", "5"], "must divide"),
                      (["--nt", "0"], "must be >= 1"),
                      (["--nt", "2", "--ratios", "0.1,inf"], "finite"),
                      (["--nt", "2,2"], "repeated antenna counts"),
                      (["--nt", "2", "--ratios", "0.1,0.1"],
                       "repeated cost ratios"),
                      (["--nt", ""], "empty antenna sweep"),
                      (["--nt", "2", "--ratios", ""], "empty cost-ratio list"),
                      (["--nt", "2,x"], "expects comma-separated integers"),
                      (["--nt", "2", "--config", str(split)],
                       "antennas_per_ap must be 1 under sweep, which takes "
                       "it from --nt")):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--config", tiny_config, *grid,
                     "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and why in err
        assert not out.exists()



def test_sweep_numerical_failure_exits_2(tmp_path, tiny_config, capsys,
                                         monkeypatch):
    def singular(cfg, index):
        raise NumericalError(f"drop {index}: singular Gram matrices")

    monkeypatch.setattr(experiment, "run_drop", singular)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", tiny_config, "--nt", "2",
                 "--output", str(out)]) == 2
    assert "numerical failure: drop 0: singular" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_sidecar_lists_the_default_grids(tmp_path):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"total_antennas": 300, "num_users": 3,
                                "drops": 1}))
    out = tmp_path / "default.csv"
    assert main(["sweep", "--config", str(path), "--output", str(out)]) == 0
    meta = json.loads((tmp_path / "default.csv.meta.json").read_text())
    assert meta["nt_list"] == list(DEFAULT_NT_SWEEP)
    assert meta["cv_cf_ratios"] == list(DEFAULT_COST_RATIOS)


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


def test_validate_quick_never_raises_an_explicit_sample_count(capsys):
    # the quick floor of 1000 applies only where it stays at or below n
    assert main(["validate", "--samples", "500", "--quick"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert {r[5] for r in rows[1:-1]} == {"500"}


def test_validate_report_shape(capsys):
    # the rows, fields and verdict line that the benchmark harness parses
    assert main(["validate", "--samples", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    assert [r[0] for r in rows] == [
        f"{prefix}_{label}" for prefix in ("ul", "cbf")
        for label in ("desired", "uncertainty", "est_error", "inter_user",
                      "noise", "sinr")] + ["zfp_sinr", "zfp_est_iui"]
    assert all(len(r) == 7 for r in rows)
    assert lines[-1] == "all checks pass"


@pytest.mark.parametrize("quick", [[], ["--quick"]])
def test_validate_rejects_zero_samples(capsys, quick):
    # an explicit 0 is a request, not "use the default"; at 250 samples the
    # ZF SINR tolerance has widened to 100%, so no estimate could fail it
    for n in ("0", "250"):
        assert main(["validate", "--samples", n] + quick) == 1
        err = capsys.readouterr().err
        assert "needs more than 250 samples" in err and f"got {n}" in err


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


def test_validate_failing_row_exits_2(monkeypatch, capsys):
    # the report is printed whole, then a failing row is a numerical failure;
    # the stock run checks the reference instance at the reference count
    seen = []

    def failing(cfg, n):
        seen.append((cfg, n))
        return [oracle.ValidationRow("ul_sinr", 1.0, 2.0, 1.0, 0.03, n,
                                     False)]

    monkeypatch.setattr(oracle, "validate_instance", failing)
    assert main(["validate", "--seed", "4"]) == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "SOME CHECKS FAILED" in captured.out
    assert "numerical failure" in captured.err
    assert seen == [(oracle.reference_config(4), oracle.REFERENCE_SAMPLES)]


def test_validate_rejects_drops(capsys):
    # validate inspects drop 0 only, so a drop count is a usage error
    assert main(["validate", "--quick", "--drops", "3"]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("quick", [[], ["--quick"]], ids=["full", "quick"])
def test_validate_rejects_a_config_drop_count(tmp_path, capsys, monkeypatch,
                                              quick):
    # nor may a config set the drop count validate ignores; it is rejected
    # before the drop is drawn
    monkeypatch.setattr(oracle, "draw_drop", None)
    path = tmp_path / "drops.json"
    path.write_text(json.dumps({"drops": 4}))
    assert main(["validate", "--config", str(path)] + quick) == 1
    err = capsys.readouterr().err
    assert "validate inspects drop 0 only, so drops must be 200, got 4" in err


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
    def strict(constant):
        raise ValueError(f"{constant} is not JSON")

    metas = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["sweep", "--config", tiny_config, "--nt", "1,2,3,6",
                     "--ratios", "0.1", "--jobs", jobs,
                     "--output", str(out)]) == 0
        metas.append(json.loads((tmp_path / f"jobs{jobs}.csv.meta.json")
                                .read_text(), parse_constant=strict))
    assert metas[0] == metas[1]
    for key in ("zf_redraws", "zf_draws", "zf_equivalent_drops",
                "zf_sampled_drops", "zf_max_antenna_share",
                "zf_peak_load_rel_se", "zf_chi_rel_se"):
        assert set(metas[0][key]) == {"1", "2", "3", "6"}
    # draws are counted over the sampled drops, each within the cap, and
    # both standard errors are null exactly where no drop sampled
    for n_t, sampled in metas[0]["zf_sampled_drops"].items():
        draws = metas[0]["zf_draws"][n_t]
        assert (draws > 0) == (sampled > 0)
        assert draws <= sampled * TINY["chi_samples"]
        for key in ("zf_peak_load_rel_se", "zf_chi_rel_se"):
            assert (metas[0][key][n_t] is None) == (sampled == 0)
    assert metas[0]["config"]["chi_rel_se"] == 0.05
    meta = metas[0]
    assert all(v == 0 for v in meta["zf_redraws"].values())
    # n_t = 3 has shares 0.97, 0.48, 0.49 and 0.73; n_t = 6 is bounded by
    # 1 / (6 - 3) and never samples
    assert meta["zf_sampled_drops"] == {"1": 4, "2": 4, "3": 2, "6": 0}
    assert meta["zf_equivalent_drops"] == {"1": 0, "2": 0, "3": 2, "6": 4}
    shares = meta["zf_max_antenna_share"]
    assert shares["3"] == pytest.approx(0.974, abs=1e-3)
    assert 0 < shares["6"] <= 1 / 3
    rel_se = meta["zf_peak_load_rel_se"]
    assert rel_se["6"] is None
    assert all(0 < rel_se[n] < 1 for n in ("1", "2", "3"))


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf"), -0.01, True])
def test_bad_chi_rel_se_exits_1(tmp_path, capsys, value):
    # json.dumps writes NaN and Infinity, which the config loader reads
    path = tmp_path / "target.json"
    path.write_text(json.dumps(dict(TINY, chi_rel_se=value)))
    assert main(["show-config", "--config", str(path)]) == 1
    assert "chi_rel_se must be" in capsys.readouterr().err


def test_show_config_echoes_chi_rel_se(tmp_path, capsys):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(dict(TINY, chi_rel_se=0.0)))
    assert main(["show-config", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["chi_rel_se"] == 0.0
    assert main(["show-config"]) == 0
    assert json.loads(capsys.readouterr().out)["chi_rel_se"] == 0.05

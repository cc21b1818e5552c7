"""End-to-end CLI: construct, verify, emit, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lcaframes
from lcaframes import chains, verify
from lcaframes.cli import main
from lcaframes.verify import ALL_CONDITIONS

Z8_SHANNON = {
    "group": {"variant": "cyclic", "params": {"modulus": 8}},
    "chain": {"M": 3},
    "family": {"charfun": {"mode": "shannon"}},
}
Z_BSPLINE = {
    "group": {"variant": "integers", "params": {}},
    "chain": {"M": 3},
    "family": {"bspline": {"order": 2}},
}
EUCLID_BOXES = {
    "group": {"variant": "euclidean", "params": {"dimension": 2}},
    "chain": {"M_table": [[2, 2], [2, 2]]},
    "family": {"charfun": {"mode": "proper", "L": [["3/4", "3/2"], ["3/4", "3/2"]], "shape": "boxes"}},
}
Z16_BAND = {
    "group": {"variant": "cyclic", "params": {"modulus": 16}},
    "chain": {"M": 4},
    "family": {"charfun": {"mode": "proper", "L": [0, 1, 2, 3, 15]}},
    "k0": 2,
}
T_BAND = {
    "group": {"variant": "torus", "params": {}},
    "chain": {"M_seq": [2, 2, 2]},
    "family": {"charfun": {"mode": "proper", "L": [0, 1, 3]}},
}


def _band_bounds(desc, bounds):
    return dict(desc, family={"charfun": dict(desc["family"]["charfun"], L=bounds)})


def write_descriptor(tmp_path, desc, name="desc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(desc))
    return str(path)


def construct(tmp_path, desc, out="system.json"):
    dpath = write_descriptor(tmp_path, desc)
    spath = tmp_path / out
    assert main(["construct", "--descriptor", dpath, "--out", str(spath)]) == 0
    return spath


def test_construct_and_verify_all_cyclic(tmp_path, capsys):
    spath = construct(tmp_path, Z8_SHANNON)
    rpath = tmp_path / "report.json"
    code = main(["verify", str(spath), "--suite", "all", "--report", str(rpath)])
    assert code == 0
    report = json.loads(rpath.read_text())
    assert report["status"] == "pass"
    named = {e["condition"] for e in report["checks"]}
    assert named == set(ALL_CONDITIONS)
    assert all(e["status"] == "pass" for e in report["checks"])


def test_verify_names_full_condition_set_per_group(tmp_path):
    for desc in (Z8_SHANNON, Z_BSPLINE, EUCLID_BOXES):
        spath = construct(tmp_path, desc, out=f"sys{len(desc)}.json")
        rpath = tmp_path / "r.json"
        main(["verify", str(spath), "--suite", "all", "--samples", "256", "--trials", "5", "--report", str(rpath)])
        report = json.loads(rpath.read_text())
        assert {e["condition"] for e in report["checks"]} == set(ALL_CONDITIONS)


def test_verify_skips_are_not_failures(tmp_path):
    spath = construct(tmp_path, EUCLID_BOXES)
    rpath = tmp_path / "report.json"
    code = main(["verify", str(spath), "--suite", "parseval", "--report", str(rpath)])
    assert code == 0
    report = json.loads(rpath.read_text())
    assert report["checks"][0]["status"] == "skip"
    assert "scope" in report["checks"][0]["detail"]


def test_construct_counts_bspline(tmp_path, capsys):
    desc = dict(Z_BSPLINE, chain={"M": 10})
    spath = construct(tmp_path, desc)
    data = json.loads(spath.read_text())
    assert data["k1"] == 10
    assert len(data["filters"]) == 10
    assert all(len(entry["g"]) == 2 for entry in data["filters"])


def test_construct_names_zero_generators_without_a_cause(tmp_path, capsys):
    # the order-4 mask (1 - z^2)^2 vanishes at z = (-1)^gamma: no band is involved
    desc = {"group": {"variant": "cyclic", "params": {"modulus": 16}}, "family": {"bspline": {"order": 4}}}
    construct(tmp_path, desc)
    assert "  psi[0][2]: identically zero\n" in capsys.readouterr().out


def test_verify_skips_telescope_and_parseval_without_a_finite_side(tmp_path):
    # a Shannon system on Z has generators with no finite values on either side
    spath = construct(tmp_path, dict(Z_BSPLINE, family={"charfun": {"mode": "shannon"}}))
    rpath = tmp_path / "report.json"
    assert main(["verify", str(spath), "--suite", "all", "--samples", "256", "--report", str(rpath)]) == 0
    checks = {e["condition"]: e for e in json.loads(rpath.read_text())["checks"]}
    for cond in ("level-telescoping", "parseval-bound-one"):
        assert checks[cond]["status"] == "skip"
        assert checks[cond]["detail"] == "out of desk-scale scope: no side where every generator is finite"


def test_translate_disjointness_fails_when_the_target_leaves_v_k(tmp_path):
    # with k1 = 2 the deep level is 2, and the Shannon target V_3 is not inside V_2
    rpath = tmp_path / "report.json"
    spath = construct(tmp_path, dict(Z8_SHANNON, k1=2))
    assert main(["verify", str(spath), "--suite", "all", "--report", str(rpath)]) == 1
    [entry] = [e for e in json.loads(rpath.read_text())["checks"] if e["condition"] == "translate-disjointness"]
    assert (entry["status"], entry["level"]) == ("fail", 2)


def test_limit_normalization_fails_when_the_target_leaves_omega_k(tmp_path):
    # the Shannon target V_3 is not inside Omega_2 = V_2, so Phi_2 vanishes on part of it
    rpath = tmp_path / "report.json"
    spath = construct(tmp_path, dict(Z8_SHANNON, k1=2))
    assert main(["verify", str(spath), "--suite", "all", "--report", str(rpath)]) == 1
    [entry] = [e for e in json.loads(rpath.read_text())["checks"] if e["condition"] == "limit-normalization"]
    assert (entry["status"], entry["level"]) == ("fail", 2)
    assert entry["detail"] == "target inside Omega_K: False; mu(V_K) scale_K^2 = 1: True"


def test_construct_shannon_family_count(tmp_path):
    spath = construct(tmp_path, Z8_SHANNON)
    data = json.loads(spath.read_text())
    # one wavelet family per level: 1 + sum_k (d_k - 1) = 4 generator families
    assert sum(len(e["g"]) for e in data["filters"]) == 3


def test_malformed_descriptor_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["construct", "--descriptor", str(bad), "--out", str(tmp_path / "x.json")]) == 2


def test_schema_violation_names_field(tmp_path, capsys):
    desc = {"group": {"variant": "integers", "params": {}}, "chain": {}, "family": {"bspline": {"order": 2}}}
    dpath = write_descriptor(tmp_path, desc)
    assert main(["construct", "--descriptor", dpath, "--out", str(tmp_path / "x.json")]) == 2
    assert "chain.M" in capsys.readouterr().err


def test_precondition_violation_exit_3(tmp_path, capsys):
    desc = {
        "group": {"variant": "torus", "params": {}},
        "chain": {"M_seq": [2, 3]},
        "family": {"bspline": {"order": 1}},
    }
    dpath = write_descriptor(tmp_path, desc)
    assert main(["construct", "--descriptor", dpath, "--out", str(tmp_path / "x.json")]) == 3
    assert "index-2" in capsys.readouterr().err


def test_corrupted_system_fails_verification(tmp_path):
    spath = construct(tmp_path, Z8_SHANNON)
    data = json.loads(spath.read_text())
    for piece in data["filters"][1]["g"][0]["pieces"]:
        piece["value"] = {"re": 0.0, "im": 0.0}
    cpath = tmp_path / "corrupt.json"
    cpath.write_text(json.dumps(data))
    rpath = tmp_path / "report.json"
    assert main(["verify", str(cpath), "--suite", "uep", "--report", str(rpath)]) == 1
    report = json.loads(rpath.read_text())
    failed = [e for e in report["checks"] if e["status"] == "fail"]
    assert failed and failed[0]["residual"] >= 1.0
    assert main(["verify", str(cpath), "--suite", "parseval"]) == 1


def _zero_level_1_wavelet(data):
    for piece in data["filters"][1]["g"][0]["pieces"]:
        piece["value"] = {"re": 0.0, "im": 0.0}


def _nan_level_1_lowpass(data):
    h = data["filters"][1]["h"]
    del h["coeffs_exact"]
    h["coeffs"][0] = [float("nan"), 0.0]


@pytest.mark.parametrize("suite", ["telescope", "all"])
@pytest.mark.parametrize(
    "desc, corrupt, shown",
    [(Z8_SHANNON, _zero_level_1_wavelet, "residual 2.000e+00"), (Z_BSPLINE, _nan_level_1_lowpass, "residual nan")],
    ids=["zeroed-wavelet", "nan-lowpass"],
)
def test_uncertified_level_fails_telescope_entry(tmp_path, suite, desc, corrupt, shown):
    # the telescope entry certifies each level from the run's own UEP reports
    data = json.loads(construct(tmp_path, desc).read_text())
    corrupt(data)
    cpath = tmp_path / "corrupt.json"
    cpath.write_text(json.dumps(data))
    rpath = tmp_path / "report.json"
    assert main(["verify", str(cpath), "--suite", suite, "--samples", "256", "--report", str(rpath)]) == 1
    [entry] = [e for e in json.loads(rpath.read_text())["checks"] if e["condition"] == "level-telescoping"]
    assert entry["status"] == "fail" and "residual" not in entry
    assert entry["detail"].startswith(f"level 1 matrix identity fails ({shown}")


def test_telescope_certifies_levels_at_the_run_tolerance(tmp_path):
    # a level-1 wavelet off by a relative 1e-7 passes every UEP entry at --tolerance 1e-6,
    # so the telescope entry certifies its levels at that tolerance too
    desc = dict(Z8_SHANNON, group={"variant": "cyclic", "params": {"modulus": 16}}, chain={"M": 4},
                family={"bspline": {"order": 2}})
    data = json.loads(construct(tmp_path, desc).read_text())
    g = data["filters"][1]["g"][0]
    del g["coeffs_exact"]
    g["coeffs"][0] = [c * (1 + 1e-7) for c in g["coeffs"][0]]
    cpath = tmp_path / "perturbed.json"
    cpath.write_text(json.dumps(data))
    rpath = tmp_path / "report.json"
    assert main(["verify", str(cpath), "--suite", "all", "--tolerance", "1e-6", "--report", str(rpath)]) == 0
    checks = json.loads(rpath.read_text())["checks"]
    [uep1] = [e for e in checks if e["condition"] == "uep-gram-identity" and e["level"] == 1]
    [telescope] = [e for e in checks if e["condition"] == "level-telescoping"]
    assert 1e-8 < uep1["residual"] <= 1e-6
    assert telescope["status"] == "pass"


def test_skipped_telescope_runs_no_uep_check(tmp_path, monkeypatch):
    import lcaframes.verify

    def no_uep(*args):
        raise AssertionError("a skipped telescope entry needs no UEP report")

    monkeypatch.setattr(lcaframes.verify, "verify_uep", no_uep)
    rpath = tmp_path / "report.json"
    assert main(["verify", str(construct(tmp_path, EUCLID_BOXES)), "--suite", "telescope", "--report", str(rpath)]) == 0
    assert [e["status"] for e in json.loads(rpath.read_text())["checks"]] == ["skip"]


def test_determinism_byte_identical(tmp_path):
    d1 = construct(tmp_path, Z_BSPLINE, out="a.json")
    d2 = construct(tmp_path, Z_BSPLINE, out="b.json")
    assert d1.read_bytes() == d2.read_bytes()
    for sub in ("e1", "e2"):
        out = tmp_path / sub
        assert main(["emit", str(d1), "--what", "generators", "--out", str(out)]) == 0
    files1 = sorted((tmp_path / "e1").iterdir())
    files2 = sorted((tmp_path / "e2").iterdir())
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()


def test_emit_generators_cyclic(tmp_path):
    spath = construct(tmp_path, Z8_SHANNON)
    out = tmp_path / "gen"
    assert main(["emit", str(spath), "--what", "generators", "--out", str(out)]) == 0
    files = sorted(out.iterdir())
    assert len(files) == 4
    for f in files:
        rows = f.read_text().strip().splitlines()
        assert rows[1] == "index,re,im"
        assert len(rows) == 2 + 8  # header comment, column names, 8 samples


def test_emit_figure_requires_matching_system(tmp_path):
    spath = construct(tmp_path, Z_BSPLINE)  # depth 3, not the depth-10 artifact
    assert main(["emit", str(spath), "--what", "figure1", "--out", str(tmp_path / "f")]) == 3


def test_emit_figure_outputs(tmp_path):
    desc = dict(Z_BSPLINE, chain={"M": 10})
    spath = construct(tmp_path, desc)
    out = tmp_path / "fig"
    assert main(["emit", str(spath), "--what", "figure1", "--out", str(out)]) == 0
    d1 = np.loadtxt(out / "psi_5_1.csv", delimiter=",", skiprows=2)
    d2 = np.loadtxt(out / "psi_5_2.csv", delimiter=",", skiprows=2)
    assert d1[0, 0] == 0 and d1[-1, 0] == 62
    assert abs(d1[:, 1].sum()) <= 1e-12
    assert abs(d2[:, 1].sum()) <= 1e-12


def test_emit_tile(tmp_path):
    out = tmp_path / "tile"
    code = main(
        ["emit", "--what", "tile", "--matrix", "1,-1,1,1", "--eta", "1,0", "--r", "12", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "tile.csv").read_text().strip().splitlines()
    assert len(rows) == 2 + 4096
    digest = hashlib.sha256((out / "tile.csv").read_bytes()).hexdigest()
    assert digest == "494574fa0763800148898c6e4b923ee7c2e04c6f36cb6bc92d69b3f73bbfab8d"


def test_emit_tile_bad_params(tmp_path):
    assert main(["emit", "--what", "tile", "--matrix", "1,0,0,1", "--eta", "1,0", "--out", str(tmp_path)]) == 3
    assert main(["emit", "--what", "tile", "--matrix", "nope", "--eta", "1,0", "--out", str(tmp_path)]) == 2


def test_emit_generators_needs_system(tmp_path):
    assert main(["emit", "--what", "generators", "--out", str(tmp_path)]) == 2


def test_verify_custom_seed_and_trials(tmp_path):
    spath = construct(tmp_path, Z8_SHANNON)
    assert main(["verify", str(spath), "--suite", "parseval", "--trials", "5", "--seed", "0xABC"]) == 0


def test_torus_descriptor_round_trip(tmp_path):
    desc = {
        "group": {"variant": "torus", "params": {}},
        "chain": {"M_seq": [2, 3, 2]},
        "family": {"charfun": {"mode": "proper", "L": [0, 1, 3]}},
    }
    spath = construct(tmp_path, desc)
    assert main(["verify", str(spath), "--suite", "all"]) == 0


def test_report_byte_identical(tmp_path):
    spath = construct(tmp_path, Z8_SHANNON)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", str(spath), "--suite", "all", "--report", str(r1)]) == 0
    assert main(["verify", str(spath), "--suite", "all", "--report", str(r2)]) == 0
    blob1, blob2 = r1.read_bytes(), r2.read_bytes()
    assert blob1.replace(b"r1", b"") == blob2.replace(b"r2", b"")


def test_verify_reports_exactness_flag(tmp_path):
    spath = construct(tmp_path, Z8_SHANNON)
    rpath = tmp_path / "rep.json"
    main(["verify", str(spath), "--suite", "uep", "--report", str(rpath)])
    report = json.loads(rpath.read_text())
    assert all(e["exact"] for e in report["checks"])
    # each UEP entry names its sampling plan: exhaustive, or grid plus seeded random points
    assert [e["sampling"] for e in report["checks"]] == [f"exhaustive V_{k} ({2**k} points)" for k in range(3)]
    zpath = construct(tmp_path, Z_BSPLINE, out="zs.json")
    main(["verify", str(zpath), "--suite", "uep", "--samples", "256", "--seed", "0x2a", "--report", str(rpath)])
    report = json.loads(rpath.read_text())
    assert not any(e["exact"] for e in report["checks"])
    assert [e["sampling"] for e in report["checks"]] == [f"grid+random V_{k} (320 points, seed 0x2a)" for k in range(3)]


def test_verify_bad_seed_exit_2(tmp_path, capsys):
    spath = construct(tmp_path, Z8_SHANNON)
    assert main(["verify", str(spath), "--suite", "uep", "--seed", "zz"]) == 2
    assert "seed" in capsys.readouterr().err


def test_descriptor_bad_seed_exit_2(tmp_path, capsys):
    dpath = write_descriptor(tmp_path, dict(Z8_SHANNON, seed="xyz"))
    assert main(["construct", "--descriptor", dpath, "--out", str(tmp_path / "x.json")]) == 2
    assert "seed" in capsys.readouterr().err


def test_verify_nonpositive_samples_exit_2(tmp_path):
    spath = construct(tmp_path, Z_BSPLINE)
    for samples in ("0", "-16"):
        assert main(["verify", str(spath), "--suite", "uep", "--samples", samples]) == 2


@pytest.mark.parametrize("flag", ["--samples", "--trials"])
def test_verify_counts_above_desk_scale_exit_2_before_any_plan(tmp_path, monkeypatch, capsys, flag):
    # nothing may be sampled or stacked for a count that large
    spath = construct(tmp_path, EUCLID_BOXES)

    def refuse(*args, **kwargs):
        raise AssertionError("a plan or test-function stack was built")

    monkeypatch.setattr(verify, "dual_sampling_plan", refuse)
    monkeypatch.setattr(verify, "_test_functions", refuse)
    assert main(["verify", str(spath), "--suite", "all", flag, str(10**9)]) == 2
    assert flag in capsys.readouterr().err


def test_verify_zero_trials_exit_2(tmp_path):
    spath = construct(tmp_path, Z8_SHANNON)
    assert main(["verify", str(spath), "--suite", "parseval", "--trials", "0"]) == 2


def test_construct_above_desk_scale_exit_3(tmp_path, capsys):
    desc = dict(Z_BSPLINE, chain={"M": 200})
    dpath = write_descriptor(tmp_path, desc)
    t0 = time.monotonic()
    assert main(["construct", "--descriptor", dpath, "--out", str(tmp_path / "x.json")]) == 3
    assert time.monotonic() - t0 < 1.0
    assert "desk-scale" in capsys.readouterr().err


def test_construct_depth_beyond_ssize_exit_3(tmp_path, capsys):
    dpath = write_descriptor(tmp_path, dict(Z_BSPLINE, chain={"M": 2**70}))
    assert main(["construct", "--descriptor", dpath, "--out", str(tmp_path / "x.json")]) == 3
    assert "desk-scale" in capsys.readouterr().err


def test_verify_euclidean_factor_beyond_int64_exit_3(tmp_path, monkeypatch, capsys):
    # an artifact written without the per-axis cap is refused on load, before any grid is built
    with monkeypatch.context() as m:
        m.setattr(chains, "MAX_POINTS", 2**80)
        spath = construct(tmp_path, dict(EUCLID_BOXES, chain={"M_table": [[2**70, 2], [2, 2]]}))
    assert main(["verify", str(spath), "--suite", "uep"]) == 3
    assert "desk-scale" in capsys.readouterr().err


def test_exact_residual_beyond_float_range_fails(tmp_path):
    desc = dict(Z16_BAND, family={"bspline": {"order": 2}}, k0=0)
    data = json.loads(construct(tmp_path, desc).read_text())
    data["filters"][0]["h"]["coeffs_exact"][0]["exact"]["im"] = "1e200"
    cpath, rpath = tmp_path / "huge.json", tmp_path / "report.json"
    cpath.write_text(json.dumps(data))
    assert main(["verify", str(cpath), "--suite", "uep", "--report", str(rpath)]) == 1
    failed = [e for e in json.loads(rpath.read_text())["checks"] if e["status"] == "fail"]
    assert [(e["level"], e["exact"], e["residual"]) for e in failed] == [(0, True, float("inf"))]


def test_ball_radius_beyond_float_square_fails(tmp_path):
    desc = {
        "group": {"variant": "euclidean", "params": {"dimension": 2}},
        "chain": {"M_table": [[2, 2, 2], [2, 3, 2]]},
        "family": {"charfun": {"mode": "proper", "L": ["1/4", "1/2", "1"], "shape": "balls"}},
    }
    data = json.loads(construct(tmp_path, desc).read_text())
    data["filters"][0]["h"]["pieces"][0]["domain"]["radius"] = "1e308"
    cpath, rpath = tmp_path / "huge.json", tmp_path / "report.json"
    cpath.write_text(json.dumps(data))
    assert main(["verify", str(cpath), "--suite", "uep", "--samples", "256", "--report", str(rpath)]) == 1
    failed = [e for e in json.loads(rpath.read_text())["checks"] if e["status"] == "fail"]
    assert [e["level"] for e in failed] == [0] and math.isfinite(failed[0]["residual"])


def test_nan_filter_fails_verification(tmp_path):
    spath = construct(tmp_path, Z_BSPLINE)
    data = json.loads(spath.read_text())
    h = data["filters"][1]["h"]
    del h["coeffs_exact"]
    h["coeffs"][0] = [float("nan"), 0.0]
    cpath = tmp_path / "nan.json"
    cpath.write_text(json.dumps(data))
    rpath = tmp_path / "report.json"
    assert main(["verify", str(cpath), "--suite", "uep", "--samples", "256", "--report", str(rpath)]) == 1
    failed = [e for e in json.loads(rpath.read_text())["checks"] if e["status"] == "fail"]
    assert [e["level"] for e in failed] == [1]


def test_piecewise_domain_not_a_lattice_box_exit_2(tmp_path):
    spath = construct(tmp_path, Z8_SHANNON)
    data = json.loads(spath.read_text())
    data["filters"][1]["h"]["domain"] = {"kind": "integer_interval", "lo": 0, "hi": 2}
    cpath = tmp_path / "narrow.json"
    cpath.write_text(json.dumps(data))
    assert main(["verify", str(cpath), "--suite", "uep"]) == 2


@pytest.mark.parametrize("where", ["filter-domain", "piece-domain"])
def test_unknown_domain_kind_exit_2(tmp_path, capsys, where):
    spath = construct(tmp_path, Z8_SHANNON)
    data = json.loads(spath.read_text())
    h = data["filters"][1]["h"]
    (h if where == "filter-domain" else h["pieces"][0])["domain"] = {"kind": "nope"}
    spath.write_text(json.dumps(data))
    assert main(["verify", str(spath), "--suite", "uep"]) == 2
    assert "malformed system artifact" in capsys.readouterr().err


def test_verify_artifact_above_desk_scale_exit_3(tmp_path, capsys):
    spath = construct(tmp_path, Z_BSPLINE)
    data = json.loads(spath.read_text())
    data["chain"]["params"]["M"] = 200
    spath.write_text(json.dumps(data))
    t0 = time.monotonic()
    assert main(["verify", str(spath), "--suite", "uep"]) == 3
    assert time.monotonic() - t0 < 1.0
    assert "desk-scale" in capsys.readouterr().err


def test_verify_order_8_spline_beyond_int64_passes(tmp_path):
    # the order-8 generator on Z, M=10 has values past 2^63 before scaling
    spath = construct(tmp_path, dict(Z_BSPLINE, chain={"M": 10}, family={"bspline": {"order": 8}}))
    rpath = tmp_path / "report.json"
    assert main(["verify", str(spath), "--suite", "all", "--report", str(rpath)]) == 0
    assert json.loads(rpath.read_text())["status"] == "pass"


@pytest.mark.parametrize(
    "desc, corrupt",
    [
        (
            dict(Z8_SHANNON, group={"variant": "cyclic", "params": {"modulus": 16}}, chain={"M": 4},
                 family={"bspline": {"order": 1}}),
            lambda data: data["filters"][0]["h"]["coeffs_exact"][0]["exact"].update(rad=str(10**18 + 3)),
        ),
        (Z_BSPLINE, lambda data: data["filters"][0]["g"][0]["shifts"].__setitem__(1, 10**6)),
    ],
    ids=["radicand-1e18", "shift-1e6"],
)
def test_verify_artifact_values_above_desk_scale_exit_3(tmp_path, capsys, desc, corrupt):
    spath = construct(tmp_path, desc)
    data = json.loads(spath.read_text())
    corrupt(data)
    spath.write_text(json.dumps(data))
    t0 = time.monotonic()
    assert main(["verify", str(spath), "--suite", "all"]) == 3
    assert time.monotonic() - t0 < 1.0
    assert "desk-scale" in capsys.readouterr().err


@pytest.mark.parametrize(
    "desc, shift",
    [(Z8_SHANNON, None), (EUCLID_BOXES, [0, 0, 0]), (Z8_SHANNON, "1/2")],
    ids=["wrong-type", "wrong-dimension", "not-a-dual-element"],
)
def test_verify_bad_coset_shift_exit_2(tmp_path, capsys, desc, shift):
    spath = construct(tmp_path, desc)
    data = json.loads(spath.read_text())
    data["filters"][0]["g"][0]["pieces"][0]["domain"]["shifts"] = [shift]
    spath.write_text(json.dumps(data))
    assert main(["verify", str(spath), "--suite", "all", "--samples", "256", "--trials", "2"]) == 2
    assert "coset shift" in capsys.readouterr().err


def test_construct_order_above_desk_scale_exit_3(tmp_path, capsys):
    dpath = write_descriptor(tmp_path, dict(Z_BSPLINE, family={"bspline": {"order": 100000}}))
    t0 = time.monotonic()
    assert main(["construct", "--descriptor", dpath, "--out", str(tmp_path / "x.json")]) == 3
    assert time.monotonic() - t0 < 1.0
    assert "desk-scale" in capsys.readouterr().err


@pytest.mark.parametrize(
    "desc",
    [
        dict(Z_BSPLINE, family={"bspline": 2}),
        dict(Z8_SHANNON, family={"charfun": "proper"}),
        dict(Z8_SHANNON, group={"variant": "cyclic", "params": [8]}),
        dict(Z8_SHANNON, family={"charfun": {"mode": "proper", "L": 5}}),
        dict(EUCLID_BOXES, chain={"M_table": [3]}),
        dict(EUCLID_BOXES, family={"charfun": {"mode": "proper", "L": ["x", "1"], "shape": "balls"}}),
        dict(EUCLID_BOXES, group={"variant": "euclidean", "params": {"dimension": 3}}),
        dict(EUCLID_BOXES, group={"variant": "euclidean", "params": {"dimension": "banana"}}),
        dict(Z_BSPLINE, chain={"M": True}),
        dict(Z_BSPLINE, family={"bspline": {"order": True}}),
        dict(Z_BSPLINE, k0=True),
        _band_bounds(Z16_BAND, [False, 1, 2, 3, 15]),
        _band_bounds(T_BAND, [False, 1, 3]),
        dict(T_BAND, chain={"M_seq": ["a"]}),
        dict(EUCLID_BOXES, group={"variant": "euclidean", "params": {}}, chain={"M_table": [["a"]]}),
        _band_bounds(Z16_BAND, [0, 1, 2, 3, "15"]),
    ],
    ids=[
        "bspline-not-object", "charfun-not-object", "params-not-object", "L-not-list", "M_table-row",
        "L-not-rational", "dimension-not-M_table-rows", "dimension-not-int", "M-bool", "order-bool",
        "k0-bool", "Z16-L-bool", "T-L-bool", "M_seq-str", "M_table-str", "Z16-L-str",
    ],
)
def test_construct_malformed_descriptor_exit_2(tmp_path, capsys, desc):
    dpath = write_descriptor(tmp_path, desc)
    assert main(["construct", "--descriptor", dpath, "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda data: data["family"].pop("order"),
        lambda data: data.update(family="x"),
        lambda data: data["filters"][0]["h"]["coeffs_exact"][0]["exact"].update(re="1/x"),
        lambda data: data["filters"][0]["h"]["coeffs_exact"][0]["exact"].update(rad="-2"),
        lambda data: data["filters"][0]["g"][0].update(shifts=[[0], 1, 2]),
        lambda data: data["filters"][0]["g"][0].update(shifts=[]),
        lambda data: data["filters"][1]["g"][0].update(coeffs=[]),
        lambda data: data["filters"][0]["h"].update(eta="1/3"),
        lambda data: data["filters"].pop(),
        lambda data: data["filters"][0].update(k=5),
        lambda data: data["chain"].update(kind="nope"),
        lambda data: data.update(k0=False),
        lambda data: data["filters"][0].update(k=False),
        lambda data: data["family"].update(order=True),
        lambda data: data["chain"]["params"].update(M=4.0),
        lambda data: data["filters"][0]["h"]["coeffs_exact"][0]["exact"].update(rad=2.7),
        lambda data: data["filters"][0]["h"]["coeffs_exact"][0]["exact"].update(re="1e400"),
    ],
    ids=[
        "family-without-order",
        "family-not-object",
        "bad-fraction",
        "negative-radicand",
        "shift-not-integer",
        "no-shifts",
        "no-coeffs",
        "step-off-lattice",
        "truncated-filters",
        "wrong-level",
        "unknown-chain-kind",
        "k0-bool",
        "filter-k-bool",
        "order-bool",
        "M-float",
        "radicand-float",
        "coefficient-beyond-float",
    ],
)
def test_verify_malformed_artifact_exit_2(tmp_path, capsys, corrupt):
    spath = construct(tmp_path, Z_BSPLINE)
    data = json.loads(spath.read_text())
    corrupt(data)
    spath.write_text(json.dumps(data))
    assert main(["verify", str(spath), "--suite", "uep", "--samples", "256"]) == 2
    assert "malformed system artifact" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1e-10"])
def test_verify_bad_tolerance_exit_2(tmp_path, capsys, tolerance):
    spath = construct(tmp_path, Z8_SHANNON)
    data = json.loads(spath.read_text())
    for piece in data["filters"][1]["g"][0]["pieces"]:
        piece["value"] = {"re": 0.0, "im": 0.0}
    spath.write_text(json.dumps(data))
    assert main(["verify", str(spath), "--suite", "uep", f"--tolerance={tolerance}"]) == 2
    assert "--tolerance" in capsys.readouterr().err


def test_unwritable_outputs_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing"
    dpath = write_descriptor(tmp_path, Z8_SHANNON)
    assert main(["construct", "--descriptor", dpath, "--out", str(missing / "x.json")]) == 2
    spath = construct(tmp_path, Z8_SHANNON)
    # a passing verification whose report cannot be written is not a failed one
    assert main(["verify", str(spath), "--suite", "uep", "--report", str(missing / "r.json")]) == 2
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["emit", str(spath), "--what", "generators", "--out", str(blocker / "out")]) == 2
    assert capsys.readouterr().err.count("error: cannot write output") == 3


def test_entry_point_exit_code_without_traceback(tmp_path):
    spath = construct(tmp_path, Z8_SHANNON)
    env = dict(os.environ, PYTHONPATH=str(Path(lcaframes.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-m", "lcaframes.cli", "verify", str(spath), "--suite", "uep"]
    done = subprocess.run([*cmd, "--report", str(tmp_path / "missing" / "r.json")], env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert subprocess.run(cmd, env=env, capture_output=True).returncode == 0


def test_undecodable_input_files_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["construct", "--descriptor", str(bad), "--out", str(tmp_path / "x.json")]) == 2
    assert main(["verify", str(bad), "--suite", "uep"]) == 2


def _negate_value(v):
    v["re"], v["im"] = -v["re"], -v["im"]
    if "exact" in v:
        v["exact"]["re"], v["exact"]["im"] = (str(-Fraction(v["exact"][c])) for c in ("re", "im"))


def _negate_level_3_lowpass(data):
    [h] = [entry["h"] for entry in data["filters"] if entry["k"] == 3]
    if h["kind"] == "trig":
        h["coeffs"] = [[-re, -im] for re, im in h["coeffs"]]
        for v in h["coeffs_exact"]:
            _negate_value(v)
    else:
        for piece in h["pieces"]:
            _negate_value(piece["value"])


@pytest.mark.parametrize(
    "desc",
    [
        dict(Z8_SHANNON, group={"variant": "cyclic", "params": {"modulus": 256}}, chain={"M": 8},
             family={"bspline": {"order": 4}}),
        dict(Z_BSPLINE, chain={"M": 10}),
        {**Z8_SHANNON, "group": {"variant": "cyclic", "params": {"modulus": 64}}, "chain": {"M": 6},
         "family": {"charfun": {"mode": "proper", "L": [0, 1, 2, 3, 4, 5, 63]}}, "k0": 2},
    ],
    ids=["z256-spline", "z10-spline", "z64-band"],
)
def test_negated_lowpass_fails_refinement_transfer(tmp_path, desc):
    # |-h|^2 = |h|^2 keeps the UEP identity, so only the artifact's own h shows it
    data = json.loads(construct(tmp_path, desc).read_text())
    _negate_level_3_lowpass(data)
    cpath = tmp_path / "negated.json"
    cpath.write_text(json.dumps(data))
    rpath = tmp_path / "report.json"
    assert main(["verify", str(cpath), "--suite", "all", "--report", str(rpath)]) == 1
    failed = [(e["condition"], e.get("level")) for e in json.loads(rpath.read_text())["checks"] if e["status"] == "fail"]
    assert failed == [("refinement-transfer", 3)]

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
from lcaframes import chains, frame, verify
from lcaframes.cli import build_from_descriptor, main
from lcaframes.exact import radical
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
R2_BALLS = {
    "group": {"variant": "euclidean", "params": {"dimension": 2}},
    "chain": {"M_table": [[2, 2, 2], [2, 3, 2]]},
    "family": {"charfun": {"mode": "proper", "L": ["1/4", "1/2", "1"], "shape": "balls"}},
}


def _band_bounds(desc, bounds):
    return dict(desc, family={"charfun": dict(desc["family"]["charfun"], L=bounds)})


def _level_entry(data, k):
    """The filter entry of level k in an artifact: its entries are the levels k0..k1-1 in order."""
    return data["filters"][k - data["descriptor"]["k0"]]


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
    assert data["descriptor"]["k1"] == 10
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
    data["filters"][1]["h"]["coeffs"][0] = {"re": float("nan"), "im": 0.0}


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
    c = complex(radical(**g["coeffs"][0]["exact"]))
    g["coeffs"][0] = {"re": c.real * (1 + 1e-7), "im": c.imag * (1 + 1e-7)}
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


def test_empty_wavelet_list_exit_2_with_its_path(tmp_path, capsys):
    # refused at load, by every command that reads the artifact, not only by the suites that assemble the UEP
    spath = construct(tmp_path, Z_BSPLINE)
    data = json.loads(spath.read_text())
    data["filters"][1]["g"] = []
    spath.write_text(json.dumps(data))
    out = tmp_path / "gen"
    for argv in (["emit", str(spath), "--what", "generators", "--out", str(out)], ["verify", str(spath), "--suite", "parseval"]):
        assert main(argv) == 2
        assert "malformed system artifact: filters[1].g: need a nonempty list" in capsys.readouterr().err
    assert list(out.glob("*")) == []  # emit wrote no generator file


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


@pytest.mark.parametrize(
    "matrix, eta, r",
    [("1,-1,1,1", "99999999999999999999,0", "12"), ("1,1,-1,1", "4611686018427387905,0", "3")],
    ids=["digit-beyond-int64", "points-beyond-int64"],
)
def test_emit_tile_beyond_int64_exit_3(tmp_path, capsys, matrix, eta, r):
    # the first overflowed converting the digit, the second wrapped its points and exited 0
    argv = ["emit", "--what", "tile", "--matrix", matrix, "--eta", eta, "--r", r, "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "int64" in err and "Traceback" not in err
    assert not (tmp_path / "tile.csv").exists()


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
    bpath = construct(tmp_path, EUCLID_BOXES, out="boxes.json")
    main(["verify", str(bpath), "--suite", "uep", "--samples", "256", "--seed", "0x2a", "--report", str(rpath)])
    report = json.loads(rpath.read_text())
    assert not any(e["exact"] for e in report["checks"])
    assert [e["sampling"] for e in report["checks"]] == ["grid+random V_0 (320 points, seed 0x2a)"]
    # trig levels are bounded from their coefficients over the whole dual: a method, no plan
    zpath = construct(tmp_path, Z_BSPLINE, out="zs.json")
    main(["verify", str(zpath), "--suite", "uep", "--samples", "256", "--seed", "0x2a", "--report", str(rpath)])
    report = json.loads(rpath.read_text())
    assert not any(e["exact"] for e in report["checks"])
    assert [e["method"] for e in report["checks"]] == ["coefficients"] * 3
    assert not any({"samples", "sampling", "worst_point"} & set(e) for e in report["checks"])


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
    data["filters"][0]["h"]["coeffs"][0]["exact"]["im"] = "1e200"
    cpath, rpath = tmp_path / "huge.json", tmp_path / "report.json"
    cpath.write_text(json.dumps(data))
    assert main(["verify", str(cpath), "--suite", "uep", "--report", str(rpath)]) == 1
    failed = [e for e in json.loads(rpath.read_text())["checks"] if e["status"] == "fail"]
    assert [(e["level"], e["exact"], e["residual"]) for e in failed] == [(0, True, float("inf"))]


def test_non_finite_coefficient_fails_without_a_warning(tmp_path):
    # JSON's Infinity loads as a float coefficient; the float paths see it and say nothing on stderr
    data = json.loads(construct(tmp_path, dict(Z16_BAND, family={"bspline": {"order": 2}}, k0=0)).read_text())
    h = _level_entry(data, 2)["h"]
    h["coeffs"][0] = {"re": math.inf, "im": 0.0}
    cpath, rpath = tmp_path / "infinite.json", tmp_path / "report.json"
    cpath.write_text(json.dumps(data))
    # a process of its own, since pytest would capture a numpy RuntimeWarning before it reached stderr
    env = dict(os.environ, PYTHONPATH=str(Path(lcaframes.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-m", "lcaframes.cli", "verify", str(cpath), "--suite", "all", "--report", str(rpath)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (1, "")
    checks = json.loads(rpath.read_text())["checks"]
    failed = [(e["condition"], e.get("level")) for e in checks if e["status"] == "fail"]
    assert failed == [("uep-gram-identity", 2), ("refinement-transfer", 2), ("level-telescoping", None)]


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
    data["filters"][1]["h"]["coeffs"][0] = {"re": float("nan"), "im": 0.0}
    cpath = tmp_path / "nan.json"
    cpath.write_text(json.dumps(data))
    rpath = tmp_path / "report.json"
    assert main(["verify", str(cpath), "--suite", "uep", "--samples", "256", "--report", str(rpath)]) == 1
    failed = [e for e in json.loads(rpath.read_text())["checks"] if e["status"] == "fail"]
    assert [e["level"] for e in failed] == [1]


def test_stored_piecewise_domain_exit_2(tmp_path, capsys):
    # a piecewise filter's fundamental domain is the chain's, so an artifact that states one, even the
    # chain's own as lcaframes/3 stored it, is refused
    spath = construct(tmp_path, Z8_SHANNON)
    data = json.loads(spath.read_text())
    stored = {"kind": "coset_union", "base": {"kind": "integer_interval", "lo": 0, "hi": 1}, "shifts": [0, 2]}
    data["filters"][1]["h"]["domain"] = stored
    cpath = tmp_path / "stored.json"
    cpath.write_text(json.dumps(data))
    assert main(["verify", str(cpath), "--suite", "uep"]) == 2
    assert "filters[1].h.domain: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["filter-domain", "piece-domain"])
def test_unknown_domain_kind_exit_2(tmp_path, capsys, where):
    spath = construct(tmp_path, Z8_SHANNON)
    data = json.loads(spath.read_text())
    h = data["filters"][1]["h"]
    (h if where == "filter-domain" else h["pieces"][0])["domain"] = {"kind": "nope"}
    spath.write_text(json.dumps(data))
    assert main(["verify", str(spath), "--suite", "uep"]) == 2
    assert "malformed system artifact" in capsys.readouterr().err


@pytest.mark.parametrize(
    "desc, path",
    [
        (Z_BSPLINE, "filters[0]"),
        (Z_BSPLINE, "filters[0].h"),
        (Z8_SHANNON, "filters[0].g[0]"),
        (Z8_SHANNON, "filters[0].h.pieces[0]"),
        (Z8_SHANNON, "filters[0].h.pieces[0].domain"),
        (EUCLID_BOXES, "filters[0].h.pieces[0].domain"),
        (R2_BALLS, "filters[0].h.pieces[0].domain"),
        (Z8_SHANNON, "filters[0].g[0].pieces[0].domain"),
    ],
    ids=["level-entry", "trig-filter", "piecewise-filter", "piece", "integer_interval", "box", "ball", "coset_union"],
)
def test_unread_key_below_filters_exit_2(tmp_path, capsys, desc, path):
    data = json.loads(construct(tmp_path, desc).read_text())
    node = data
    for part in path.replace("]", "").replace("[", ".").split("."):
        node = node[int(part)] if part.isdigit() else node[part]
    node["junk"] = 1
    cpath = tmp_path / "junk.json"
    cpath.write_text(json.dumps(data))
    assert main(["verify", str(cpath), "--suite", "uep", "--samples", "256"]) == 2
    assert f"{path}.junk: unknown key" in capsys.readouterr().err


def test_verify_artifact_above_desk_scale_exit_3(tmp_path, capsys):
    spath = construct(tmp_path, Z_BSPLINE)
    data = json.loads(spath.read_text())
    data["descriptor"]["chain"]["M"] = 200
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


MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "manifest.json").read_text())


@pytest.mark.parametrize(
    "desc",
    [MANIFEST["z64-band"]["descriptor"], MANIFEST["r2-balls"]["descriptor"], T_BAND, EUCLID_BOXES],
    ids=["z64-band", "r2-balls", "T-band", "R2-boxes"],
)
def test_band_system_builds_its_chain_once_per_construct_and_load(monkeypatch, desc):
    # the band is built on the chain the descriptor or artifact gives, never on a second copy of it
    calls = []
    with_cosets = chains._with_cosets
    monkeypatch.setattr(chains, "_with_cosets", lambda levels: calls.append(len(levels)) or with_cosets(levels))
    system = build_from_descriptor(desc)
    assert len(calls) == 1
    frame.system_from_json(frame.system_to_json(system))
    assert len(calls) == 2


# a leaf edit: a number plus one, a rational string plus one, a name swapped for another of its kind
OTHER_NAME = {
    "integers": "cyclic", "cyclic": "torus", "torus": "euclidean", "euclidean": "integers",
    "proper": "shannon", "shannon": "proper", "boxes": "balls", "balls": "boxes",
}


def _descriptor_leaves(node):
    """(container, key) of every number or string of a descriptor."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from _descriptor_leaves(child) if isinstance(child, (dict, list)) else [(node, key)]


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_every_descriptor_part_is_read(tmp_path, name):
    # each leaf of the embedded descriptor changed alone: the load refuses the artifact (exit 2 or 3) or gives
    # another system, and the seed, which the system does not hold, is the one verify reports
    system = build_from_descriptor(MANIFEST[name]["descriptor"])
    data = frame.system_to_json(system, 7)
    assert frame.system_from_json(data) == system
    leaves = list(_descriptor_leaves(data["descriptor"]))
    assert {key for _, key in leaves} >= {"variant", "k0", "k1", "seed"}
    for container, key in leaves:
        old = container[key]
        container[key] = OTHER_NAME.get(old) or str(Fraction(old) + 1) if isinstance(old, str) else old + 1
        if key == "seed":
            spath, rpath = tmp_path / "seeded.json", tmp_path / "report.json"
            spath.write_text(json.dumps(data))
            assert main(["verify", str(spath), "--suite", "fiber", "--report", str(rpath)]) in (0, 1)
            assert json.loads(rpath.read_text())["seed"] == 8
        else:
            try:
                loaded = frame.system_from_json(data)
            except lcaframes.LcaError:
                loaded = None
            assert loaded != system, f"{key}: {old!r} changed, and the loaded system is the same"
        container[key] = old


@pytest.mark.parametrize(
    "edit",
    [
        {"family": {"bspline": {"order": 2}}},
        # edited into a torus spline system, which verified PASS while the artifact's own chain and family fields
        # decided the load
        {
            "group": {"variant": "torus", "params": {}}, "chain": {"M_seq": [2, 2, 2, 2, 2]},
            "family": {"bspline": {"order": 2}},
        },
    ],
    ids=["spline-family", "torus-spline"],
)
def test_spline_descriptor_over_band_filters_exit_2(tmp_path, capsys, edit):
    # a spline family reads its filters' steps: piecewise band filters under it are refused, not a traceback
    spath = construct(tmp_path, Z16_BAND)
    data = json.loads(spath.read_text())
    data["descriptor"].update(edit)
    spath.write_text(json.dumps(data))
    assert main(["verify", str(spath), "--suite", "all"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed system artifact: ") and "Traceback" not in err


def test_z256_builds_a_plan_only_on_levels_that_key(tmp_path, monkeypatch):
    # from level 2 on, a trig step's character has order 8 or more, so some point of V_{k+1} has no
    # quarter-turn key: those levels are bounded from coefficients, with no plan and no key table
    from lcaframes import filters

    spath, built = construct(tmp_path, dict(Z_BSPLINE, group={"variant": "cyclic", "params": {"modulus": 256}},
                                            chain={"M": 8}, family={"bspline": {"order": 4}})), []
    plan = filters.dual_sampling_plan

    def counted(*args, **kwargs):
        built.append(args[1])
        return plan(*args, **kwargs)

    monkeypatch.setattr(verify, "dual_sampling_plan", counted)
    rpath = tmp_path / "report.json"
    assert main(["verify", str(spath), "--suite", "all", "--report", str(rpath)]) == 0
    assert built == [0, 1]
    uep = [e for e in json.loads(rpath.read_text())["checks"] if e["condition"] == "uep-gram-identity"]
    assert [e["exact"] for e in uep] == [True, True] + [False] * 6
    assert [e.get("method") for e in uep] == [None, None] + ["coefficients"] * 6
    # a band system on a discrete dual builds one plan a level k0..k1: refinement on level k reads the run's plan
    # of level k+1, all of V_{k+1}, which the UEP entry of level k+1 reads too
    spath, built[:] = construct(tmp_path, Z16_BAND, out="band.json"), []
    assert main(["verify", str(spath), "--suite", "all"]) == 0
    assert built == [2, 3, 4]


@pytest.mark.parametrize(
    "desc, corrupt",
    [
        (
            dict(Z8_SHANNON, group={"variant": "cyclic", "params": {"modulus": 16}}, chain={"M": 4},
                 family={"bspline": {"order": 1}}),
            lambda data: data["filters"][0]["h"]["coeffs"][0]["exact"].update(rad=str(10**18 + 3)),
        ),
        (Z_BSPLINE, lambda data: data["filters"][0]["g"][0]["shifts"].__setitem__(1, 10**6)),
        # each shift element -j eta is paired in floats, so a shift beyond 2^53 is refused on load
        (dict(Z_BSPLINE, family={"bspline": {"order": 1}}),
         lambda data: data["filters"][0]["g"][0].update(shifts=[10**400, 10**400 + 1])),
        # the wavelet's time side spans j eta, so a step beyond 2^53 is refused on load too
        (dict(Z_BSPLINE, family={"bspline": {"order": 1}}),
         lambda data: data["filters"][0]["g"][0].update(eta=4 * 10**400)),
        # below 2^53 the step is still refused before the time side is allocated
        (dict(Z_BSPLINE, family={"bspline": {"order": 1}}), lambda data: data["filters"][0]["g"][0].update(eta=2**50)),
    ],
    ids=["radicand-1e18", "shift-1e6", "shift-1e400", "eta-4e400", "eta-2e50"],
)
def test_verify_artifact_values_above_desk_scale_exit_3(tmp_path, capsys, desc, corrupt):
    spath = construct(tmp_path, desc)
    data = json.loads(spath.read_text())
    corrupt(data)
    spath.write_text(json.dumps(data))
    t0 = time.monotonic()
    assert main(["verify", str(spath), "--suite", "all"]) == 3
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert "desk-scale" in err and "Traceback" not in err


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
    "desc, message",
    [
        (dict(Z_BSPLINE, family={"bspline": 2}), "family.bspline: "),
        (dict(Z8_SHANNON, family={"charfun": "proper"}), "family.charfun: "),
        (dict(Z8_SHANNON, group={"variant": "cyclic", "params": [8]}), "group.params: "),
        (dict(Z8_SHANNON, family={"charfun": {"mode": "proper", "L": 5}}), "family.charfun.L: "),
        (dict(EUCLID_BOXES, chain={"M_table": [3]}), "chain.M_table: "),
        (
            dict(EUCLID_BOXES, family={"charfun": {"mode": "proper", "L": ["x", "1"], "shape": "balls"}}),
            "balls band parameters: ",
        ),
        (dict(EUCLID_BOXES, group={"variant": "euclidean", "params": {"dimension": 3}}), "group.params.dimension: "),
        (
            dict(EUCLID_BOXES, group={"variant": "euclidean", "params": {"dimension": "banana"}}),
            "group.params.dimension: ",
        ),
        (dict(Z_BSPLINE, chain={"M": True}), "chain.M: "),
        (dict(Z_BSPLINE, family={"bspline": {"order": True}}), "family.bspline.order: "),
        (dict(Z_BSPLINE, k0=True), "k0: "),
        (_band_bounds(Z16_BAND, [False, 1, 2, 3, 15]), "cyclic band parameters: "),
        (_band_bounds(T_BAND, [False, 1, 3]), "torus band parameters: "),
        (dict(T_BAND, chain={"M_seq": ["a"]}), "chain.M_seq: chain factor must be an integer, got 'a'\n"),
        (
            dict(EUCLID_BOXES, group={"variant": "euclidean", "params": {}}, chain={"M_table": [["a"]]}),
            "chain.M_table: chain factor must be an integer, got 'a'\n",
        ),
        (_band_bounds(Z16_BAND, [0, 1, 2, 3, "15"]), "cyclic band parameters: "),
        (dict(Z_BSPLINE, group={"variant": ["integers"], "params": {}}), "group.variant: "),
    ],
    ids=[
        "bspline-not-object", "charfun-not-object", "params-not-object", "L-not-list", "M_table-row",
        "L-not-rational", "dimension-not-M_table-rows", "dimension-not-int", "M-bool", "order-bool",
        "k0-bool", "Z16-L-bool", "T-L-bool", "M_seq-str", "M_table-str", "Z16-L-str", "variant-list",
    ],
)
def test_construct_malformed_descriptor_exit_2(tmp_path, capsys, desc, message):
    # the message names the descriptor field, also where the library rejects the value
    dpath = write_descriptor(tmp_path, desc)
    assert main(["construct", "--descriptor", dpath, "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)


@pytest.mark.parametrize(
    "desc, corrupt",
    [
        (Z_BSPLINE, lambda data: data["descriptor"]["family"]["bspline"].pop("order")),
        (Z_BSPLINE, lambda data: data["descriptor"].update(family="x")),
        (Z_BSPLINE, lambda data: data["filters"][0]["h"]["coeffs"][0]["exact"].update(re="1/x")),
        (Z_BSPLINE, lambda data: data["filters"][0]["h"]["coeffs"][0]["exact"].update(rad="-2")),
        (Z_BSPLINE, lambda data: data["filters"][0]["g"][0].update(shifts=[[0], 1, 2])),
        (Z_BSPLINE, lambda data: data["filters"][0]["g"][0].update(shifts=[])),
        (Z_BSPLINE, lambda data: data["filters"][1]["g"][0].update(coeffs=[])),
        (Z_BSPLINE, lambda data: data["filters"][0]["h"].update(eta="1/3")),
        (Z_BSPLINE, lambda data: data["filters"].pop()),
        (Z_BSPLINE, lambda data: data["filters"][0].update(k=5)),
        # the chain kind is the descriptor's group variant
        (Z_BSPLINE, lambda data: data["descriptor"]["group"].update(variant="nope")),
        (Z_BSPLINE, lambda data: data["descriptor"].update(k0=False)),
        (Z_BSPLINE, lambda data: data["filters"][0].update(k=False)),
        (Z_BSPLINE, lambda data: data["descriptor"]["family"]["bspline"].update(order=True)),
        (Z_BSPLINE, lambda data: data["descriptor"]["chain"].update(M=4.0)),
        (Z_BSPLINE, lambda data: data["filters"][0]["h"]["coeffs"][0]["exact"].update(rad=2.7)),
        (Z_BSPLINE, lambda data: data["filters"][0]["h"]["coeffs"][0]["exact"].update(re="1e400")),
        # each filter value has one stored form: no float copy next to the exact one, no [re, im] pair, no JSON
        # bool as a float, and the value's own square-free radicand (1 for zero)
        (Z_BSPLINE, lambda data: data["filters"][0]["h"]["coeffs"][0].update(re=0.5, im=0.0)),
        (Z_BSPLINE, lambda data: data["filters"][0]["h"]["coeffs"].__setitem__(0, [0.5, 0.0])),
        (Z_BSPLINE, lambda data: data["filters"][0]["h"]["coeffs"].__setitem__(0, {"re": True, "im": False})),
        (Z_BSPLINE, lambda data: data["filters"][0]["h"]["coeffs"][0]["exact"].update(rad="4")),
        (Z16_BAND, lambda data: data["filters"][0]["g"][0]["pieces"][1]["value"]["exact"].update(rad="2")),
        # a trig filter stores its nonzero terms only, on strictly ascending shifts
        (Z_BSPLINE, lambda data: data["filters"][0]["h"]["coeffs"].__setitem__(0, {"exact": {"re": "0", "im": "0", "rad": "1"}})),
        (Z_BSPLINE, lambda data: data["filters"][0]["h"]["coeffs"].__setitem__(0, {"re": 0.0, "im": -0.0})),
        (Z_BSPLINE, lambda data: data["filters"][0]["h"]["shifts"].reverse()),
        (Z_BSPLINE, lambda data: data["filters"][0]["h"].update(shifts=[0, 1, 1])),
        # every level has a wavelet filter
        (Z_BSPLINE, lambda data: data["filters"][1]["g"].clear()),
        # the chain is Z's: no band can be built on it
        (Z_BSPLINE, lambda data: data["descriptor"].update(family={"charfun": {"mode": "proper", "L": [0, 1, 3, 7]}})),
        # a band on a chain of another group: the band's label is the group variant, or the shape on R^s
        (Z16_BAND, lambda data: data["descriptor"]["group"].update(variant="torus")),
        (T_BAND, lambda data: data["descriptor"]["group"].update(variant="cyclic")),
        (T_BAND, lambda data: data["descriptor"]["family"]["charfun"].update(shape="boxes")),
        (T_BAND, lambda data: data["descriptor"]["family"]["charfun"].update(shape="balls")),
        (EUCLID_BOXES, lambda data: data["descriptor"]["family"]["charfun"].update(shape="torus")),
        # every descriptor part is read: no key outside each object's own set, none missing, a known mode, and
        # a shannon family is its mode alone
        (Z16_BAND, lambda data: data["descriptor"]["family"].update(junk=[1, 2])),
        (Z16_BAND, lambda data: data["descriptor"]["family"]["charfun"].pop("mode")),
        (Z16_BAND, lambda data: data["descriptor"]["family"]["charfun"].update(mode="edited")),
        (Z16_BAND, lambda data: data["descriptor"]["family"]["charfun"].update(junk=[1, 2])),
        (Z_BSPLINE, lambda data: data["descriptor"]["family"]["bspline"].update(junk=[1, 2])),
        (Z16_BAND, lambda data: data["descriptor"].update(junk=[1, 2])),
        (Z16_BAND, lambda data: data["descriptor"]["group"]["params"].update(junk=1)),
        (Z16_BAND, lambda data: data["descriptor"].update(chain={"M_seq": [2, 2, 2, 2]})),
        (T_BAND, lambda data: data["descriptor"].update(chain={"M": 3})),
        (Z16_BAND, lambda data: data["descriptor"]["family"]["charfun"].update(mode="shannon")),
        (EUCLID_BOXES, lambda data: data["descriptor"].update(family={"charfun": {"mode": "shannon", "shape": "boxes"}})),
        # an artifact is its format, descriptor and filters: a field of an earlier format is refused
        (Z_BSPLINE, lambda data: data.update(seed=1)),
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
        "float-copy-next-to-exact",
        "coefficient-pair",
        "bool-floats",
        "square-radicand",
        "zero-with-radicand-2",
        "zero-coefficient",
        "float-zero-coefficient",
        "descending-shifts",
        "repeated-shift",
        "empty-wavelet-list",
        "band-on-another-chain",
        "torus-band-on-Z16",
        "cyclic-band-on-T",
        "boxes-band-on-T",
        "balls-band-on-T",
        "torus-band-on-R2",
        "family-extra-key",
        "family-without-mode",
        "family-unknown-mode",
        "band-params-extra-key",
        "bspline-family-extra-key",
        "descriptor-extra-key",
        "group-params-extra-key",
        "M_seq-on-Z16",
        "M-on-T",
        "shannon-with-bounds",
        "shannon-with-shape",
        "artifact-extra-key",
    ],
)
def test_verify_malformed_artifact_exit_2(tmp_path, capsys, desc, corrupt):
    spath = construct(tmp_path, desc)
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


# the Z, M=1, order-1 artifact as format lcaframes/1 wrote it, with a float copy of every exact value
FORMAT_1_ARTIFACT = {
    "chain": {"kind": "integer", "params": {"M": 1}},
    "descriptor": {"chain": {"M": 1}, "family": {"bspline": {"order": 1}}, "group": {"variant": "integers"}},
    "descriptor_hash": "a901c9de09ee6b8a",
    "family": {"order": 1, "type": "bspline"},
    "filters": [
        {
            "g": [
                {
                    "coeffs": [[0.7071067811865476, 0.0], [-0.7071067811865476, 0.0]],
                    "coeffs_exact": [
                        {"exact": {"im": "0", "rad": "2", "re": "1/2"}, "im": 0.0, "re": 0.7071067811865476},
                        {"exact": {"im": "0", "rad": "2", "re": "-1/2"}, "im": 0.0, "re": -0.7071067811865476},
                    ],
                    "eta": 1, "kind": "trig", "shifts": [0, 1],
                }
            ],
            "h": {
                "coeffs": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
                "coeffs_exact": [
                    {"exact": {"im": "0", "rad": "2", "re": "1/2"}, "im": 0.0, "re": 0.7071067811865476},
                    {"exact": {"im": "0", "rad": "2", "re": "1/2"}, "im": 0.0, "re": 0.7071067811865476},
                ],
                "eta": 1, "kind": "trig", "shifts": [0, 1],
            },
            "k": 0,
        }
    ],
    "format": "lcaframes/1",
    "k0": 0,
    "k1": 1,
    "seed": 24301,
}


# the same artifact as format lcaframes/2 wrote it, with the chain, family, levels and seed next to the descriptor
FORMAT_2_ARTIFACT = {
    "chain": {"kind": "integer", "params": {"M": 1}},
    "descriptor": {"chain": {"M": 1}, "family": {"bspline": {"order": 1}}, "group": {"variant": "integers"}},
    "descriptor_hash": "a901c9de09ee6b8a",
    "family": {"order": 1, "type": "bspline"},
    "filters": [
        {
            "g": [
                {
                    "coeffs": [
                        {"exact": {"im": "0", "rad": "2", "re": "1/2"}}, {"exact": {"im": "0", "rad": "2", "re": "-1/2"}}
                    ],
                    "eta": 1, "kind": "trig", "shifts": [0, 1],
                }
            ],
            "h": {
                "coeffs": [
                    {"exact": {"im": "0", "rad": "2", "re": "1/2"}}, {"exact": {"im": "0", "rad": "2", "re": "1/2"}}
                ],
                "eta": 1, "kind": "trig", "shifts": [0, 1],
            },
            "k": 0,
        }
    ],
    "format": "lcaframes/2",
    "k0": 0,
    "k1": 1,
    "seed": 24301,
}


# the same artifact as format lcaframes/3 wrote it, with the level k of each filter entry
FORMAT_3_ARTIFACT = {
    "descriptor": {
        "chain": {"M": 1}, "family": {"bspline": {"order": 1}}, "group": {"params": {}, "variant": "integers"},
        "k0": 0, "k1": 1, "seed": 24301,
    },
    "filters": [dict(FORMAT_2_ARTIFACT["filters"][0])],
    "format": "lcaframes/3",
}


def test_artifact_of_an_earlier_format_exit_2_and_rebuilds_from_its_descriptor(tmp_path, capsys):
    for artifact in (FORMAT_1_ARTIFACT, FORMAT_2_ARTIFACT, FORMAT_3_ARTIFACT):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(artifact))
        for argv in (["verify", str(old), "--suite", "all"], ["emit", str(old), "--what", "generators", "--out", str(tmp_path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: malformed system artifact: artifact format {artifact['format']!r} is not 'lcaframes/4'")
            assert "run construct again on its embedded descriptor" in err
        # what the message asks for: construct from the artifact's own descriptor
        new = construct(tmp_path, artifact["descriptor"], out="new.json")
        assert json.loads(new.read_text())["format"] == "lcaframes/4"
        assert main(["verify", str(new), "--suite", "all"]) == 0


def test_undecodable_input_files_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["construct", "--descriptor", str(bad), "--out", str(tmp_path / "x.json")]) == 2
    assert main(["verify", str(bad), "--suite", "uep"]) == 2


def _negate_level_3_lowpass(data):
    h = _level_entry(data, 3)["h"]
    for v in h["coeffs"] if h["kind"] == "trig" else [piece["value"] for piece in h["pieces"]]:
        v["exact"].update({part: str(-Fraction(v["exact"][part])) for part in ("re", "im")})


def test_band_refinement_sees_both_cosets_of_the_filter_period(tmp_path):
    # h has period V_3 here; a piece on V_3 minus V_2, where Phi_2 is 0 and Phi_3 is not, breaks refinement
    desc = dict(Z8_SHANNON, family={"charfun": {"mode": "proper", "L": [0, 0, 1, 7]}}, k0=1)
    data = json.loads(construct(tmp_path, desc).read_text())
    h = _level_entry(data, 2)["h"]
    one = {"exact": {"re": "1", "im": "0", "rad": "1"}}
    h["pieces"].insert(0, {"domain": {"kind": "integer_interval", "lo": 4, "hi": 7}, "value": one})
    cpath = tmp_path / "corrupted.json"
    cpath.write_text(json.dumps(data))
    rpath = tmp_path / "report.json"
    assert main(["verify", str(cpath), "--suite", "refinement", "--report", str(rpath)]) == 1
    entries = {e["level"]: e for e in json.loads(rpath.read_text())["checks"]}
    assert entries[1]["status"] == "pass"
    assert entries[2]["status"] == "fail" and entries[2]["residual"] == 1.0


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


def test_verify_all_leaves_numpy_random_unimported(tmp_path):
    # seeded draws come from the stdlib generator, so no run pays numpy.random's import
    r2_balls = {
        "group": {"variant": "euclidean", "params": {"dimension": 2}},
        "chain": {"M_table": [[2, 2, 2], [2, 3, 2]]},
        "family": {"charfun": {"mode": "proper", "L": ["1/4", "1/2", "1"], "shape": "balls"}},
    }
    z64 = dict(Z8_SHANNON, group={"variant": "cyclic", "params": {"modulus": 64}}, chain={"M": 6}, family={"bspline": {"order": 2}})
    runs = [(str(construct(tmp_path, desc, f"s{i}.json")), extra) for i, (desc, extra) in enumerate([(z64, []), (r2_balls, ["--samples", "512"])])]
    script = (
        "import sys\nfrom lcaframes.cli import main\n"
        f"codes = [main(['verify', path, '--suite', 'all', *extra]) for path, extra in {runs!r}]\n"
        "print(codes, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lcaframes.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "[0, 0] False", done.stderr


def test_z4096_spline_passes_suite_all_at_the_identity_tolerance(tmp_path):
    # the telescope gap is relative to ||f||^2, as Parseval's is: both energies grow with N
    spath = construct(tmp_path, dict(Z_BSPLINE, group={"variant": "cyclic", "params": {"modulus": 4096}}, chain={"M": 12}))
    rpath = tmp_path / "report.json"
    assert main(["verify", str(spath), "--suite", "all", "--tolerance", "1e-12", "--report", str(rpath)]) == 0
    [telescope] = [e for e in json.loads(rpath.read_text())["checks"] if e["condition"] == "level-telescoping"]
    assert telescope["status"] == "pass" and telescope["residual"] <= 1e-14


def test_z10_spline_suite_all_builds_no_sampling_plan(tmp_path, monkeypatch):
    # every UEP and refinement level on T, Z's dual, is bounded from coefficients, so no check reads a plan
    from lcaframes import filters

    spath, built = construct(tmp_path, dict(Z_BSPLINE, chain={"M": 10})), []
    plan, uep = filters.dual_sampling_plan, filters.verify_uep

    def counted(*args, **kwargs):
        built.append(args[1])
        return plan(*args, **kwargs)

    for module in (filters, verify, lcaframes.frame):
        monkeypatch.setattr(module, "dual_sampling_plan", counted)
    lazy, eager = tmp_path / "lazy.json", tmp_path / "eager.json"
    assert main(["verify", str(spath), "--suite", "all", "--report", str(lazy)]) == 0
    assert built == []
    # the report is the one a plan built up front for every level gives
    monkeypatch.setattr(verify, "verify_uep", lambda P, plan: uep(P, plan()))
    assert main(["verify", str(spath), "--suite", "all", "--report", str(eager)]) == 0
    assert built == list(range(10)) and lazy.read_bytes() == eager.read_bytes()

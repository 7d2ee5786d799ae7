import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thinlab
from thinlab.cli import main

EXAMPLE = {"generators": [[[2, 3], [1, 2]], [[6, 35], [1, 6]]]}
DROP = object()  # a config value that removes its key


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "G.json"
    path.write_text(json.dumps(EXAMPLE))
    return str(path)


def _artifacts(out_dir, prefix):
    return sorted(p for p in os.listdir(out_dir) if p.startswith(prefix))


def test_validate_ok(config, capsys):
    assert main(["validate", "--config", config]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]


def test_validate_rejects_overlap(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"generators": [[[2, 3], [1, 2]], [[2, 3], [1, 2]]]}))
    assert main(["validate", "--config", str(path)]) == 2


def test_delta_json(config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["delta", "--config", config, "--out", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.32 < payload["delta"] < 0.33
    assert payload["residual"] < 1e-10
    assert _artifacts(out, "delta")


def test_rpf_artifact(config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["rpf", "--config", config, "--a", "0.02", "--out", out]) == 0
    (name,) = _artifacts(out, "rpf")
    body = open(os.path.join(out, name)).read()
    assert body.splitlines()[0] == "symbol,node,x,h,nu"


def test_decay_rejects_non_squarefree(config, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["decay", "--config", config, "--q", "4", "--out", out])
    assert code == 2
    assert "NotSquareFree" in capsys.readouterr().err


def test_cayley_trivial_group_exits_2(config, tmp_path, capsys):
    code = main(["cayley", "--config", config, "--q", "1", "--p", "3", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("GroupTooSmall:")


def test_config_non_integer_degree_exits_2(tmp_path, capsys):
    path = tmp_path / "G.json"
    path.write_text(json.dumps(dict(EXAMPLE, degree="x")))
    assert main(["delta", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("ConfigParse:")


@pytest.mark.parametrize("extra, message", [
    ({"dpeth": 3}, "'dpeth'"),              # a misspelled key must not fall back to the default
    ({"q": 5}, "list of integers"),         # a scalar must not end in a TypeError traceback
    ({"q": [5, 7.5]}, "list of integers"),  # 7.5 must not be truncated to q = 7
    ({"generators": DROP}, "generators"),   # no KeyError traceback
    ({"generators": [1, 2]}, "generators"),  # no TypeError traceback
    ({"out_dir": 5}, "out_dir"),            # refused before the computation, not by os.makedirs
    ({"out_dir": None}, "out_dir"),
], ids=["unknown_key", "q_scalar", "q_float", "no_generators", "generators_not_matrices",
        "out_dir_int", "out_dir_null"])
def test_config_bad_keys_exit_2(tmp_path, capsys, extra, message):
    path = tmp_path / "G.json"
    path.write_text(json.dumps({k: v for k, v in dict(EXAMPLE, **extra).items() if v is not DROP}))
    assert main(["delta", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigParse:") and message in err


@pytest.mark.parametrize("theta", [[1], 1.5, 0, True], ids=["list", "above_one", "zero", "bool"])
def test_config_bad_theta_exit_2(tmp_path, capsys, theta):
    # d_theta is a metric contraction only for a real 0 < theta < 1
    path = tmp_path / "G.json"
    path.write_text(json.dumps(dict(EXAMPLE, theta=theta)))
    assert main(["delta", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("ConfigParse: theta")


def test_degree_zero_exits_2(config, tmp_path, capsys):
    assert main(["delta", "--config", config, "--degree", "0", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("ConfigParse:")


def test_flatten_rejects_several_moduli(config, tmp_path, capsys):
    # flatten runs one modulus; a list must not silently run only its first entry
    assert main(["flatten", "--config", config, "--q", "5,7", "--r", "8", "--p", "3",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigParse:") and "[5, 7]" in err
    assert not os.path.exists(tmp_path / "out")


def test_r_prime_flag_rejected(config, tmp_path, capsys):
    # r' is always r / l in `flatten`; the flag no longer exists
    with pytest.raises(SystemExit) as exc:
        main(["flatten", "--config", config, "--r", "8", "--r-prime", "3", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--r-prime" in capsys.readouterr().err


def test_cayley_deterministic(config, tmp_path, capsys):
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    assert main(["cayley", "--config", config, "--q", "5,7", "--p", "3", "--out", out1]) == 0
    assert main(["cayley", "--config", config, "--q", "5,7", "--p", "3", "--out", out2]) == 0
    b1 = open(os.path.join(out1, _artifacts(out1, "cayley")[0])).read()
    b2 = open(os.path.join(out2, _artifacts(out2, "cayley")[0])).read()
    assert b1 == b2
    assert b1.splitlines()[0] == "q,degree,lambda2,epsilon"


def test_decay_and_report(config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["decay", "--config", config, "--q", "5", "--p", "3", "--a", "0.0",
                 "--b", "0.3", "--seed", "7", "--depth", "4", "--out", out]) == 0
    assert main(["cayley", "--config", config, "--q", "5", "--p", "3", "--out", out]) == 0
    assert main(["report", "--out", out]) == 0
    payload = json.loads(open(os.path.join(out, _artifacts(out, "report")[0])).read())
    assert "uniformity" in payload
    assert payload["uniformity"]["decay_below_bound"]["5"] is True
    assert float(payload["uniformity"]["epsilon_min"]) > 0


def test_twist_csv(config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["twist", "--config", config, "--b", "5", "--out", out]) == 0
    body = open(os.path.join(out, _artifacts(out, "twist")[0])).read()
    lines = body.splitlines()
    assert lines[0] == "b,radius"
    assert 0.0 < float(lines[1].split(",")[1]) < 1.0


def test_flatten_json(config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["flatten", "--config", config, "--q", "5", "--r", "8", "--l", "4",
                 "--p", "3", "--out", out]) == 0
    payload = json.loads(open(os.path.join(out, _artifacts(out, "flatten")[0])).read())
    assert payload["passed"] is True
    assert payload["q"] == 5 and payload["r"] == 8


def test_cli_import_loads_no_scipy():
    # scipy costs a third of a second to import; only Lanczos solves need it
    code = "import sys, thinlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(thinlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_thread_cap_env(monkeypatch):
    from thinlab.cli import n_workers
    monkeypatch.setenv("THINLAB_THREADS", "2")
    assert n_workers() == 2

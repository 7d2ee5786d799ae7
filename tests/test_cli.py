import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thinlab
from thinlab import NewSpaceDecomposition
from thinlab.cli import decomposition_table_csv, main

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
    assert payload["discretization"] < 1e-12
    assert _artifacts(out, "delta")


def test_delta_discretization_shows_a_coarse_degree(config, tmp_path, capsys):
    # at degree 1 the eigenpair still solves its 4 x 4 matrix to rounding, but
    # delta is 6.6e-3 away from its degree-2 value
    assert main(["delta", "--config", config, "--degree", "1", "--out", str(tmp_path / "out")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] < 1e-10
    assert 5e-3 < payload["discretization"] < 1e-2


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
    ({"p": 0}, "p must be >= 1"),           # the config keys are checked as the flags are
    ({"l": -1}, "l must be >= 1"),
], ids=["unknown_key", "q_scalar", "q_float", "no_generators", "generators_not_matrices",
        "out_dir_int", "out_dir_null", "p_zero", "l_negative"])
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


# (subcommand, flag) pairs that no cmd_* function reads; --r keeps flatten's
# required flag from masking the rejection
UNREAD = [("validate", f) for f in ("out", "degree", "depth", "seed", "p", "l", "q")] \
    + [(c, f) for c in ("delta", "rpf", "twist") for f in ("depth", "seed", "p", "l", "q")] \
    + [("cayley", f) for f in ("degree", "depth", "seed", "l")] + [("flatten", "depth")]


@pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}-{f}" for c, f in UNREAD])
def test_unread_flag_rejected(config, capsys, command, flag):
    extra = ["--r", "8"] if command == "flatten" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config, f"--{flag}", "3"] + extra)
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--q", "10"], "NotGenerating:"),      # S(0, 0, 3) closes up mod 10 at 120 < 720 elements
    (["--q", "5", "--a", "0.05"], "a0'"),  # the measured constants cover |a| < 0.05 only
    (["--l", "0"], "ConfigParse: l must be >= 1"),  # a ZeroDivisionError traceback, not a refusal
    (["--l", "-1", "--q", "5"], "ConfigParse: l must be >= 1"),  # printed curves for a meaningless schedule
    (["--p", "0"], "ConfigParse: p must be >= 1"),
], ids=["non_generating", "a_at_a0p", "l_zero", "l_negative", "p_zero"])
def test_decay_refusals_exit_2(config, tmp_path, capsys, args, message):
    code = main(["decay", "--config", config, "--p", "3", "--depth", "3", "--out", str(tmp_path / "out")] + args)
    assert code == 2
    assert message in capsys.readouterr().err


def test_flatten_refuses_zero_block_length(config, tmp_path, capsys):
    # l = 0 must be refused before r % l divides by it
    out = tmp_path / "out"
    assert main(["flatten", "--config", config, "--p", "3", "--l", "0", "--r", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("ConfigParse: l must be >= 1")
    assert not os.path.exists(out)


def test_flatten_refuses_oversized_blocks_first(config, tmp_path, capsys):
    # SL2(Z/77) has 443,520 elements: its <c>-blocks (154 x 2880 x 2880) are refused
    # before any walk or Cayley gap runs
    out = tmp_path / "out"
    assert main(["flatten", "--config", config, "--q", "77", "--p", "3", "--r", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("TooLarge: the <c>-blocks of SL2(Z/77) have 1277337600 entries")
    assert not os.path.exists(out)


def test_cayley_refuses_oversized_blocks_first(config, tmp_path, capsys):
    # the Cayley blocks of SL2(Z/77) (78 of 2880 x 2880) fall under the same cap,
    # checked before the closure and any eigenvalue solve
    out = tmp_path / "out"
    assert main(["cayley", "--config", config, "--q", "77", "--p", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("TooLarge: the <c>-blocks of SL2(Z/77) have 1277337600 entries")
    assert not os.path.exists(out)


def test_rpf_takes_a_past_a0p(config, tmp_path, capsys):
    # a0' bounds the normalized potentials, not the raw RPF data
    assert main(["rpf", "--config", config, "--a", "0.3", "--out", str(tmp_path / "out")]) == 0


def test_rpf_far_from_delta_keeps_a_positive_h(config, tmp_path, capsys):
    # lambda = 7.5e-24 at a = 20, still a Perron pair
    out = tmp_path / "out"
    assert main(["rpf", "--config", config, "--a", "20", "--out", str(out)]) == 0
    rows = (out / _artifacts(out, "rpf")[0]).read_text().splitlines()[1:]
    assert float(json.loads(capsys.readouterr().out)["lambda"]) > 0
    assert all(float(row.split(",")[3]) > 0 for row in rows)


# a = 800: the weights underflow, so M = 0 and its leading pair is 0 with a zero h;
# a = 30: the leading eigenvalue is -5.5e-33 and h changes sign.  Both exited 0.
@pytest.mark.parametrize("a", ["800", "30"])
def test_rpf_without_a_perron_pair_exits_3(config, tmp_path, capsys, a):
    out = tmp_path / "out"
    assert main(["rpf", "--config", config, "--a", a, "--out", str(out)]) == 3
    assert "not a Perron pair" in capsys.readouterr().err
    assert not os.path.exists(out)


# a non-finite float flag is an argument error: exit 2 before any work, nothing written
NON_FINITE = [
    ("twist", ["--b", "inf"]),        # an OverflowError traceback
    ("twist", ["--b", "5,inf"]),
    ("decay", ["--b", "inf"]),        # printed nan norms and wrote both CSVs
    ("decay", ["--b", "nan"]),
    ("decay", ["--a", "inf"]),        # refused by decay_small_b, after the set-up work
    ("rpf", ["--a", "inf"]),          # printed a nan gap and wrote its CSV
    ("flatten", ["--b", "nan", "--r", "8"]),
]


@pytest.mark.parametrize("command, flags", NON_FINITE, ids=[f"{c}{f[0]}={f[1]}" for c, f in NON_FINITE])
def test_non_finite_float_flag_exits_2(config, tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config, "--out", str(out)] + flags)
    assert exc.value.code == 2
    assert f"{flags[1].split(',')[-1]!r} is not a finite number" in capsys.readouterr().err
    assert not os.path.exists(out)


# a collocation grid past MAX_GRID_ROWS rows is refused before any dense solve:
# exit 2, nothing written
TOO_LARGE = [
    ("twist", ["--b", "1e9"]),               # degree 2 |b| for the twist
    ("delta", ["--degree", "1000000000"]),   # its 2 * degree grid is built first
]


@pytest.mark.parametrize("command, flags", TOO_LARGE, ids=[f"{c}{f[0]}={f[1]}" for c, f in TOO_LARGE])
def test_grid_past_cap_exits_2(config, tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith("TooLarge: ")
    assert not os.path.exists(out)


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


ARTIFACT_NAME = re.compile(r"(.+)-\d{8}-\d{6}(?:-\d+)?\.(csv|json)")

# subcommand, its flags, and the (command, ext) of every artifact it writes;
# the first is the one it prints, except for rpf
RUNS = [
    ("delta", [], [("delta", "json")]),
    ("rpf", ["--a", "0.02"], [("rpf", "csv")]),
    ("cayley", ["--q", "5", "--p", "3"], [("cayley", "csv")]),
    ("flatten", ["--q", "5", "--r", "8", "--l", "4", "--p", "3"], [("flatten", "json"), ("decomposition", "csv")]),
    ("decay", ["--q", "5", "--p", "3", "--depth", "3"], [("decay", "csv"), ("decay-uniform", "csv")]),
    ("twist", ["--b", "5"], [("twist", "csv")]),
    ("report", [], [("report", "json")]),
]


@pytest.mark.parametrize("command, flags, written", RUNS, ids=[r[0] for r in RUNS])
def test_each_command_prints_and_writes_its_artifacts(config, tmp_path, capsys, command, flags, written):
    out = tmp_path / "out"
    if command == "report":
        out.mkdir()
        argv = ["report", "--out", str(out)]
    else:
        argv = [command, "--config", config, "--out", str(out)] + flags
    assert main(argv) == 0
    names = {ARTIFACT_NAME.fullmatch(n).groups(): n for n in os.listdir(out)}
    assert sorted(names) == sorted(written)
    printed = capsys.readouterr().out
    if command == "rpf":
        assert set(json.loads(printed)) == {"a", "lambda", "gap"}  # the summary, not the CSV
    else:
        assert printed == (out / names[written[0]]).read_text().rstrip("\n") + "\n"

def test_decomposition_table_csv(groups):
    dec = NewSpaceDecomposition(groups(15))
    body = decomposition_table_csv(dec, seed=1)
    lines = body.splitlines()
    assert lines[0] == "q,q_prime,dim_new,spade,norm_identity_residual"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[1]) for r in rows] == [3, 5, 15]
    assert sum(int(r[2]) for r in rows) + 1 == groups(15).order
    assert all(float(r[4]) <= 1e-9 for r in rows)
    assert decomposition_table_csv(dec, seed=1) == body


def test_cli_import_loads_no_scipy():
    # scipy costs a third of a second to import; only CongruenceOperator's sparse shift needs it
    code = "import sys, thinlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(thinlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_thread_cap_env(monkeypatch):
    from thinlab.cli import n_workers
    monkeypatch.setenv("THINLAB_THREADS", "2")
    assert n_workers() == 2

"""End-to-end checks of the command-line front end."""

import pytest

from hoptree import exact_oracle
from hoptree.cli import main
from hoptree.exact_oracle import OPTIMUM_MAX_N
from hoptree.graph_model import Instance, load_instance, save_instance
from hoptree.harness import read_csv
from hoptree.instance_gen import plant_op1


def test_run_command_writes_csv_and_reports(tmp_path, capsys):
    out = tmp_path / "records.csv"
    rc = main(
        [
            "run",
            "--algo",
            "ea-edge",
            "--n",
            "4",
            "--trials",
            "2",
            "--seed",
            "3",
            "--budget",
            "500",
            "--target",
            "feasible",
            "--out",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "config " in captured.out and "budget 500  trials 2" in captured.out
    assert "reached" in captured.out
    assert f"wrote {out}" in captured.out
    assert len(read_csv(out)) == 2


def test_run_command_computes_a_default_budget(capsys):
    rc = main(["run", "--algo", "ea-edge", "--n", "4", "--target", "feasible"])
    assert rc == 0
    # 100 * m * ceil(ln n) with m=10, n=4
    assert "budget 2000" in capsys.readouterr().out


def test_run_command_takes_n_from_the_instance_file(tmp_path, capsys):
    path = tmp_path / "i40.txt"
    assert main(["gen", "--n", "40", "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    argv = ["run", "--algo", "gsemo2", "--instance", str(path), "--target", "feasible", "--trials", "1"]
    rc = main(argv[:3] + ["--n", "2"] + argv[3:])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: --n 2 does not match n=40 in {path}\n" and captured.out == ""
    # 100 * m * ceil(ln n) with m = 820, n = 40, as the file says
    rc = main(argv[:3] + ["--n", "40"] + argv[3:])
    out = capsys.readouterr().out
    assert rc == 0 and "budget 328000  trials 1" in out and "reached 1/1" in out


def test_run_command_rejects_unknown_algorithms(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--algo", "anneal", "--n", "4"])


def test_gen_random_writes_a_loadable_instance(tmp_path, capsys):
    out = tmp_path / "rand.txt"
    rc = main(["gen", "--n", "5", "--seed", "9", "--out", str(out)])
    assert rc == 0
    assert f"wrote {out} (n=5, m=15)" in capsys.readouterr().out
    assert load_instance(out).n == 5


def test_gen_planted_prints_tree_and_move(tmp_path, capsys):
    out = tmp_path / "plant.txt"
    rc = main(["gen", "--n", "6", "--seed", "4", "--kind", "op1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "kind=op1" in captured.out
    assert "tree e:21:" in captured.out
    assert "move op=1" in captured.out and "delta=-1" in captured.out
    assert load_instance(out).weights == plant_op1(6, 4).instance.weights


def test_gen_cluster_prints_hubs_and_optimum(tmp_path, capsys):
    out = tmp_path / "cluster.txt"
    rc = main(["gen", "--n", "12", "--seed", "2", "--kind", "cluster", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    hub_line = next(line for line in captured.out.splitlines() if line.startswith("hubs"))
    assert "optimum 16" in hub_line  # 12 spokes plus the default 12 // 3 hubs
    assert "move" not in captured.out


def test_oracle_command(tmp_path, capsys, i3):
    path = tmp_path / "desk.txt"
    save_instance(i3, path)
    rc = main(["oracle", "--instance", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "opt 4" in captured.out and "children 1" in captured.out


def test_oracle_command_refuses_large_instances(tmp_path, capsys):
    n = OPTIMUM_MAX_N + 1
    path = tmp_path / "big.txt"
    save_instance(Instance(n, [1] * (n * (n + 1) // 2)), path)
    rc = main(["oracle", "--instance", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["oracle", "run"])
def test_an_exhausted_cover_search_exits_two(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "sparse.txt"
    assert main(["gen", "--n", "12", "--p1", "0.1", "--seed", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(exact_oracle, "_NODE_BUDGET", 0)
    argv = {
        "oracle": ["oracle", "--instance", str(path)],
        "run": ["run", "--algo", "ea-vertex", "--instance", str(path), "--n", "12", "--target", "opt"],
    }[command]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: exceeded 0 search nodes\n" and captured.out == ""


def test_run_to_the_optimum_at_n64(tmp_path, capsys):
    out = tmp_path / "n64.csv"
    argv = ["run", "--algo", "ea-vertex", "--n", "64", "--target", "opt", "--budget", "1000", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    (record,) = read_csv(out)
    assert 64 <= record.opt_cost <= record.final_cost


def test_certify_command_accepts_a_certified_tree(tmp_path, capsys, i3):
    path = tmp_path / "desk.txt"
    save_instance(i3, path)
    rc = main(["certify", "--instance", str(path), "--solution", "v:3:2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "CERTIFIED cost 4"


def test_certify_command_refutes_an_improvable_tree(tmp_path, capsys):
    planted = plant_op1(6, seed=1)
    path = tmp_path / "plant.txt"
    save_instance(planted.instance, path)
    tree_text = planted.tree.to_edge_solution(planted.instance).to_text()
    rc = main(["certify", "--instance", str(path), "--solution", tree_text])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.startswith("REFUTED op=1")
    assert f"cost {planted.tree.cost(planted.instance)}" in captured.out


@pytest.mark.parametrize("solution", ["v:3:0", "x:3:1", "e:6:29", "e:6:zz"])
def test_certify_command_rejects_bad_solutions(tmp_path, capsys, i3, solution):
    # empty child set, unknown kind, a non-tree edge set, and broken hex
    path = tmp_path / "desk.txt"
    save_instance(i3, path)
    rc = main(["certify", "--instance", str(path), "--solution", solution])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--instance", "{truncated}", "--solution", "v:3:1"],
        ["certify", "--instance", "{missing}", "--solution", "v:3:1"],
        ["oracle", "--instance", "{truncated}"],
        ["oracle", "--instance", "{missing}"],
        ["run", "--algo", "ea-edge", "--n", str(OPTIMUM_MAX_N + 1), "--target", "opt"],
    ],
)
def test_bad_input_exits_two_without_a_traceback(tmp_path, capsys, argv):
    truncated = tmp_path / "truncated.txt"
    truncated.write_text("n 3\n1 2\n")
    paths = {"truncated": truncated, "missing": tmp_path / "missing.txt"}
    rc = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""

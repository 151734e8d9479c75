import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import enctrust
from enctrust.cli import main
from enctrust.sim import Topology, load_topology, planner_digest, save_topology


@pytest.fixture
def topo_file(tmp_path):
    path = str(tmp_path / "topo.json")
    assert main(["gen", "--nodes", "8", "--degree", "3", "--seed", "5", "--out", path]) == 0
    return path


def dead_end_topo(tmp_path):
    t = Topology(
        nodes=(0, 1, 2, 3),
        edges=((0, 1), (0, 2), (0, 3), (1, 2)),
        trust={
            (0, 1): 9, (1, 0): 5,
            (0, 2): 4, (2, 0): 3,
            (0, 3): 1, (3, 0): 2,
            (1, 2): 8, (2, 1): 6,
        },
    )
    path = str(tmp_path / "deadend.json")
    save_topology(t, path)
    return path


def test_gen_writes_loadable_topology(tmp_path, capsys):
    path = str(tmp_path / "topo.json")
    assert main(["gen", "--nodes", "8", "--degree", "3", "--seed", "5", "--out", path]) == 0
    assert "8 nodes" in capsys.readouterr().out
    t = load_topology(path)
    assert len(t.nodes) == 8


def test_gen_is_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    main(["gen", "--nodes", "6", "--degree", "2.5", "--seed", "3", "--out", a])
    main(["gen", "--nodes", "6", "--degree", "2.5", "--seed", "3", "--out", b])
    assert Path(a).read_text() == Path(b).read_text()


def test_oracle_delivered(topo_file, capsys):
    code = main(["oracle", "--topology", topo_file, "--source", "0", "--dest", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: DELIVERED" in out
    assert "path: 0" in out
    assert "trust:" in out


def test_oracle_dropped_exit_code(tmp_path, capsys):
    path = dead_end_topo(tmp_path)
    code = main(["oracle", "--topology", path, "--source", "0", "--dest", "3"])
    assert code == 2
    assert "status: DROPPED" in capsys.readouterr().out


def test_route_auto_eta(topo_file, tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    code = main([
        "route", "--topology", topo_file, "--source", "0", "--dest", "7",
        "--lambda", "3", "--seed", "1", "--out", report_path,
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: DELIVERED" in out
    assert "trusted: True" in out
    report = json.loads(Path(report_path).read_text())
    assert report["status"] == "DELIVERED"
    assert report["decrypted_trust"] == report["oracle_trust"]
    assert report["trusted"] is True
    assert report["lambda"] == 3


def test_route_star_mode(topo_file, capsys):
    code = main([
        "route", "--topology", topo_file, "--source", "0", "--dest", "7",
        "--lambda", "3", "--star",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "trusted: True" in out


def test_route_explicit_eta_and_agreement_with_oracle(topo_file, capsys):
    code = main(["oracle", "--topology", topo_file, "--source", "0", "--dest", "7"])
    oracle_out = capsys.readouterr().out
    oracle_trust = int(oracle_out.split("trust: ")[1].strip())
    code = main([
        "route", "--topology", topo_file, "--source", "0", "--dest", "7",
        "--lambda", "3", "--eta", "200",
    ])
    route_out = capsys.readouterr().out
    assert code == 0
    assert f"decrypted_trust: {oracle_trust}" in route_out
    assert f"oracle_trust: {oracle_trust}" in route_out


def test_route_dropped_exit_code(tmp_path, capsys):
    path = dead_end_topo(tmp_path)
    code = main(["route", "--topology", path, "--source", "0", "--dest", "3", "--lambda", "3"])
    out = capsys.readouterr().out
    assert code == 2
    assert "status: DROPPED" in out
    assert "drop_reason: no trusted next hop" in out


def test_bench_table(tmp_path, capsys):
    out_path = str(tmp_path / "bench.json")
    code = main(["bench", "--seed", "0", "--out", out_path])
    out = capsys.readouterr().out
    assert code == 0
    label, header = out.splitlines()[:2]
    assert label == (
        "uncertified: the paper's eta = lambda**2 reproduction, not certified performance"
    )
    assert header.split()[0] == "lambda"
    obj = json.loads(Path(out_path).read_text())
    assert obj["certified"] is False
    assert [row["lambda"] for row in obj["rows"]] == [3, 5, 8, 10]


def test_certified_bench_quick_tier(tmp_path, capsys):
    # One repetition of the 7-update chains: plain and star at every lam,
    # each row a wire discovery that came back trusted and correct.
    # ``--quick`` alone runs the certified bench.
    out_path = tmp_path / "bench.json"
    assert main(["bench", "--quick", "--out", str(out_path)]) == 0
    label, header = capsys.readouterr().out.splitlines()[:2]
    assert label == "certified: planner-sized eta, JSON wire, every row trusted and correct"
    assert header.split()[:3] == ["mode", "lambda", "updates"]
    obj = json.loads(out_path.read_text())
    assert obj["certified"] is True
    assert obj["planner"] == planner_digest()
    assert obj["python"] and obj["host"]["cpus"]
    rows = obj["rows"]
    assert [(r["mode"], r["lambda"]) for r in rows] == [
        (mode, lam) for mode in ("plain", "star") for lam in (3, 5, 8, 10)
    ]
    for r in rows:
        assert r["trusted"] is True and r["correct"] is True
        assert (r["updates"], r["repeats"]) == (7, 1)
        assert r["total_s"] == pytest.approx(r["keygen_s"] + r["hops_s"] + r["finalize_s"])
        assert r["reference_s"] > 0
    assert [r["eta"] for r in rows if r["lambda"] == 3] == [81, 14623]
    # Every request a hop receives, and the reply, as compact JSON.
    assert [r["wire_bytes"] for r in rows] == [
        1809, 2032, 3428, 5131, 60895, 83541, 117887, 140171
    ]


def test_certified_bench_refuses_a_wrong_row(tmp_path, capsys, monkeypatch):
    # A finalize that reports a wrong total as trusted: no row, no file.
    from enctrust import protocol, sim

    def forged(keys, rp, params):
        real = protocol.source_finalize(keys, rp, params)
        return protocol.DiscoveryOutcome(real.path, (real.trust + 1) % 16, True)

    monkeypatch.setattr(sim, "source_finalize", forged)
    out_path = tmp_path / "bench.json"
    assert main(["bench", "--certified", "--quick", "--out", str(out_path)]) == 1
    assert "error: refusing the plain row at lam 3, 7 updates" in capsys.readouterr().err
    assert not out_path.exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_transcripts() -> list[tuple[list[str], list[str]]]:
    """Each ``$ enctrust ...`` command of README's ``sh`` blocks, as
    arguments, with the lines shown after it up to a blank line."""
    transcripts = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for chunk in block.split("\n\n"):
            command, *shown = chunk.strip().splitlines() or [""]
            if command.startswith("$ enctrust "):
                transcripts.append((shlex.split(command)[2:], shown))
    return transcripts


def _untimed(line: str) -> str:
    """The line with the figures of the route report's ``cpu:`` line blanked."""
    return re.sub(r"=\d+\.\d+s", "=?s", line) if line.startswith("cpu: ") else line


def test_readme_cli_transcripts_replay(tmp_path, capsys, monkeypatch):
    # README's examples, run in an empty directory: every printed line must
    # match, except the CPU seconds of the route's timing line.
    monkeypatch.chdir(tmp_path)
    replayed = []
    for argv, shown in _readme_transcripts():
        if argv[0] not in ("gen", "oracle", "route", "plan"):
            continue  # the bench tables print times
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        assert list(map(_untimed, printed)) == list(map(_untimed, shown)), argv
        replayed.append(argv[0])
    assert replayed == ["gen", "oracle", "route", "plan", "plan"]


def test_plan_outputs_eta(capsys):
    assert main(["plan", "--width", "4", "--hops", "2", "--lambda", "3"]) == 0
    assert "eta: 47" in capsys.readouterr().out
    assert main(["plan", "--width", "4", "--hops", "2", "--lambda", "3", "--star"]) == 0
    assert "eta: 523" in capsys.readouterr().out


def test_plan_too_deep(capsys):
    assert main(["plan", "--width", "4", "--hops", "100", "--lambda", "3", "--star"]) == 0
    assert "TOO_DEEP" in capsys.readouterr().out


def test_error_exit_codes(tmp_path, capsys):
    # unknown subcommand and missing required arguments exit 1, not 2
    assert main(["frobnicate"]) == 1
    assert main(["gen", "--nodes", "5"]) == 1
    # missing topology file
    assert main(["oracle", "--topology", str(tmp_path / "nope.json"),
                 "--source", "0", "--dest", "1"]) == 1
    # invalid endpoints
    t = str(tmp_path / "t.json")
    main(["gen", "--nodes", "4", "--degree", "2", "--seed", "0", "--out", t])
    capsys.readouterr()
    assert main(["route", "--topology", t, "--source", "0", "--dest", "9",
                 "--lambda", "3"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    # a width below 1, in the oracle as in a route
    for command in (["oracle"], ["route", "--lambda", "3"]):
        for width in ("0", "-1"):
            assert main([*command, "--topology", t, "--source", "0", "--dest", "2",
                         "--width", width]) == 1
            assert capsys.readouterr().err == f"error: width must be a positive int, got {width}\n"
    # a score wider than the width: a configuration error, though the oracle answers
    t30 = str(tmp_path / "t30.json")
    main(["gen", "--nodes", "30", "--degree", "4", "--seed", "1", "--out", t30])
    assert main(["oracle", "--topology", t30, "--source", "2", "--dest", "0", "--width", "3"]) == 0
    capsys.readouterr()
    assert main(["route", "--topology", t30, "--source", "2", "--dest", "0",
                 "--lambda", "3", "--width", "3"]) == 1
    err = capsys.readouterr().err
    assert err == "error: node 14 trust for 2 is 8, which does not fit in 3 bits\n"
    # malformed eta
    assert main(["route", "--topology", t, "--source", "0", "--dest", "2",
                 "--lambda", "3", "--eta", "soon"]) == 1
    # valid JSON of the wrong shape: a file in the earlier format, with node
    # objects and trust keyed by "a->b", is refused by its field
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"nodes": [{"id": 0}, {"id": 1}], "edges": [[0, 1]], "trust": {"0->1": 5, "1->0": 7}}'
    )
    capsys.readouterr()
    for command in (["oracle"], ["route", "--lambda", "3"]):
        assert main([*command, "--topology", str(bad), "--source", "0", "--dest", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: field 'trust' has the wrong JSON type: dict\n"
        )
    # a node object, a malformed triple, or one arc given twice is an error, not last-wins
    for nodes, trust, fault in [
        ('[{"id": 0}, 1]', "[[0, 1, 5], [1, 0, 7]]",
         "nodes[0] must be an integer id, got {'id': 0}"),
        ("[0, 1]", "[[0, 1, 5], [1, 0]]", "trust[1] must be a triple of integers, got [1, 0]"),
        ("[0, 1]", "[[0, 1, 5], [1, 0, true]]",
         "trust[1] must be a triple of integers, got [1, 0, True]"),
        ("[0, 1]", "[[0, 1, 5], [1, 0, 7], [0, 1, 9]]", "trust[2] repeats arc (0, 1)"),
        ("[0, 1]", '[[0, 1, 5], [1, 0, 7]], "trust": []', "repeated key 'trust' in a JSON object"),
    ]:
        bad.write_text(f'{{"nodes": {nodes}, "edges": [[0, 1]], "trust": {trust}}}')
        assert main(["route", "--topology", str(bad), "--source", "0", "--dest", "1",
                     "--lambda", "3"]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {fault}\n"


def test_corrupt_topology_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [0], "edges": [')
    assert main(["oracle", "--topology", str(bad), "--source", "0", "--dest", "1"]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_package_root_binds_only_its_version_and_submodules():
    # Every name is imported from its defining module, never from the root.
    public = {name for name in vars(enctrust) if not name.startswith("_")}
    assert all(isinstance(getattr(enctrust, name), types.ModuleType) for name in public)


def _child_env() -> dict:
    """An environment in which a child imports the same enctrust as this
    process, also from an uninstalled checkout where only pytest's
    pythonpath makes it importable."""
    package_root = str(Path(enctrust.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_importing_the_cli_loads_no_hashlib():
    # hashlib loads OpenSSL, about 3.6 MB resident, which certbench's
    # peak_rss_mb would count in every workload; only the planner digest
    # imports it, when called.  A child process, so that pytest's own
    # imports do not count.
    probe = "import sys, enctrust.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_console_script_entry_point(tmp_path):
    env = _child_env()
    t = str(tmp_path / "t.json")
    result = subprocess.run(
        [sys.executable, "-m", "enctrust.cli", "gen", "--nodes", "5", "--degree", "2",
         "--seed", "1", "--out", t],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "5 nodes" in result.stdout
    result = subprocess.run(
        [sys.executable, "-m", "enctrust.cli", "plan", "--width", "1", "--hops", "1",
         "--lambda", "3"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "eta: 8" in result.stdout

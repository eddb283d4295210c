import hashlib
import json
import os
import subprocess
import sys

import pytest

import radionet
from radionet.cli import _write_csv, dispatch
from radionet.model import load, validate


def run_ok(argv):
    assert dispatch(argv) == 0


def test_gen_writes_loadable_net(tmp_path, capsys):
    out = tmp_path / "h.net"
    run_ok(["gen", "--n", "256", "--seed", "7", "--out", str(out)])
    summary = json.loads(capsys.readouterr().out)
    assert summary["senders"] == 16
    assert summary["receivers"] == 64
    net = load(str(out))
    assert validate(net).ok
    assert net.sender_count + net.receiver_count == 80


def test_gen_radius2_footer_and_determinism(tmp_path):
    a, b = tmp_path / "a.net", tmp_path / "b.net"
    run_ok(["gen", "--n", "64", "--seed", "3", "--out", str(a), "--radius2"])
    run_ok(["gen", "--n", "64", "--seed", "3", "--out", str(b), "--radius2"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[-1].startswith("radius2 64 ")


def test_gen_rejects_bad_n(tmp_path, capsys):
    assert dispatch(["gen", "--n", "100", "--seed", "0", "--out", str(tmp_path / "x")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "input"


def test_unknown_flag_is_usage_error(tmp_path):
    assert dispatch(["gen", "--n", "64", "--frobnicate"]) == 2
    assert dispatch(["no-such-command"]) == 2


def test_verify_exact_json(tmp_path):
    net = tmp_path / "h.net"
    out = tmp_path / "v.json"
    run_ok(["gen", "--n", "64", "--seed", "5", "--out", str(net)])
    run_ok(["verify", "--net", str(net), "--exact", "--threshold", "20", "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["schema_version"] == 1
    assert data["method"] == "exact"
    assert data["subsets_examined"] == 256
    assert data["vacuous"]  # threshold 20*8 = 160 >= 24 receivers
    assert data["passed"]
    assert int(data["witness_hex"], 16) < 256


def test_verify_search_mode(tmp_path):
    net = tmp_path / "h.net"
    out = tmp_path / "v.json"
    run_ok(["gen", "--n", "64", "--seed", "5", "--out", str(net)])
    run_ok(["verify", "--net", str(net), "--search", "--restarts", "8", "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["method"] == "search"
    assert not data["exact"]


def test_verify_missing_file(tmp_path, capsys):
    assert dispatch(["verify", "--net", str(tmp_path / "ghost.net")]) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "input"


def test_verify_search_rejects_negative_seed(tmp_path, capsys):
    net = tmp_path / "h.net"
    run_ok(["gen", "--n", "64", "--seed", "5", "--out", str(net)])
    capsys.readouterr()
    assert dispatch(["verify", "--net", str(net), "--search", "--seed", "-1"]) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "input"


@pytest.mark.parametrize("mode", ["--exact", "--search"])
@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--restarts", "0"]], ids=["seed", "restarts"])
def test_verify_rejects_bad_search_flags_before_loading(tmp_path, capsys, mode, flag):
    # The net does not exist: the error names the flag, so it was checked first.
    assert dispatch(["verify", "--net", str(tmp_path / "ghost.net"), mode, *flag]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "input"
    assert flag[0].lstrip("-") in err["error"]


@pytest.mark.parametrize("threshold", ["abc", "inf", "1/0", "0", "-2"])
def test_verify_rejects_bad_threshold_before_maximizing(tmp_path, capsys, threshold):
    # 27 senders would exit 4 at the enumeration budget: the threshold is parsed first.
    wide = tmp_path / "wide.net"
    wide.write_text("radionet v1 27 0\n")
    assert dispatch(["verify", "--net", str(wide), "--exact", "--threshold", threshold]) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "input"


@pytest.mark.parametrize(
    "argv", [["verify", "--net", "{dir}"], ["report", "{dir}"]], ids=["verify", "report"]
)
def test_directory_input_is_an_input_error(tmp_path, capsys, argv):
    assert dispatch([arg.format(dir=tmp_path) for arg in argv]) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "input"


def test_verify_budget_exceeded(tmp_path, capsys):
    wide = tmp_path / "wide.net"
    wide.write_text("radionet v1 27 0\n")
    assert dispatch(["verify", "--net", str(wide), "--exact"]) == 4
    assert json.loads(capsys.readouterr().err)["kind"] == "budget"


def test_analyze_grid_csv(tmp_path):
    out = tmp_path / "a.csv"
    run_ok(["analyze", "--grid-nprime", "2..8", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# radionet")
    assert lines[1] == "n_prime,s,delta,p_exact_num,p_exact_den,p_upper,chain_pass"
    rows = [line.split(",") for line in lines[2:]]
    assert rows, "expected data rows"
    assert all(row[6] == "true" for row in rows)
    sizes = {int(row[0]) for row in rows}
    assert sizes == {2, 4, 8}


#: sha256 of `analyze --grid-nprime 2..256`, recorded before the bound chain
#: moved to integer arithmetic; any change here is a behaviour change.
PINNED_ANALYZE_DIGEST = "12105061d48b482c7f6369ac61a4e03d81fbb92fb3ddac9f97485275cea6a9af"


def test_analyze_csv_matches_pinned_digest(tmp_path):
    out = tmp_path / "chains.csv"
    run_ok(["analyze", "--grid-nprime", "2..256", "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_ANALYZE_DIGEST


def test_analyze_to_stdout_equals_file(tmp_path, capsys):
    out = tmp_path / "chains.csv"
    run_ok(["analyze", "--grid-nprime", "2..16", "--out", str(out)])
    run_ok(["analyze", "--grid-nprime", "2..16"])
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_csv_rows_failing_midway_leave_no_file(tmp_path, existing):
    target = tmp_path / "rows.csv"
    if existing:
        target.write_text("old\n")

    def rows():
        yield "1,2"
        raise RuntimeError("row generator failed")

    with pytest.raises(RuntimeError):
        _write_csv(str(target), {}, "a,b", rows())
    assert sorted(p.name for p in tmp_path.iterdir()) == (["rows.csv"] if existing else [])
    if existing:
        assert target.read_text() == "old\n"


def test_analyze_rejects_bad_grid():
    assert dispatch(["analyze", "--grid-nprime", "banana"]) == 3
    assert dispatch(["analyze", "--grid-nprime", "8..2"]) == 3


def test_simulate_and_report_roundtrip(tmp_path):
    net = tmp_path / "h.net"
    run_ok(["gen", "--n", "64", "--seed", "5", "--out", str(net), "--radius2"])
    outputs = []
    for policy, seed in (("round_robin", "1"), ("greedy_schedule", "2")):
        out = tmp_path / f"{policy}.json"
        run_ok(
            ["simulate", "--net", str(net), "--k", "2", "--policy", policy,
             "--model", "routing", "--seed", seed, "--out", str(out)]
        )
        outputs.append(out)
        data = json.loads(out.read_text())
        assert data["decoded_all"]
        assert data["min_receptions"] >= 2
        assert data["rounds_used"] >= data["accounting_lower_bound"]

    merged = tmp_path / "merged.csv"
    run_ok(["report", str(outputs[0]), str(outputs[1]), "--out", str(merged)])
    lines = merged.read_text().splitlines()
    assert lines[1] == "n,seed,policy,k,rounds_used,accounting_lower_bound,throughput"
    assert len(lines) == 4  # banner + header + 2 rows


def test_simulate_series_csv(tmp_path):
    net = tmp_path / "h.net"
    series = tmp_path / "run.csv"
    run_ok(["gen", "--n", "64", "--seed", "5", "--out", str(net), "--radius2"])
    run_ok(
        ["simulate", "--net", str(net), "--k", "1", "--model", "coding",
         "--out", str(tmp_path / "s.json"), "--series", str(series)]
    )
    lines = series.read_text().splitlines()
    assert lines[1] == "round,receptions,min_rank"
    first_round = lines[2].split(",")
    assert first_round[0] == "1"


def test_simulate_needs_radius2_net(tmp_path):
    net = tmp_path / "flat.net"
    run_ok(["gen", "--n", "64", "--seed", "5", "--out", str(net)])
    assert dispatch(["simulate", "--net", str(net), "--k", "1"]) == 3


def test_simulate_rejects_unreachable_receiver(tmp_path, capsys):
    # Receiver 1 has no sender neighbour: no policy could ever deliver to it.
    net = tmp_path / "u.net"
    net.write_text("radionet v1 2 2\n1 0 1\n0\nradius2 6 1\n")
    for policy in ("round_robin", "greedy_schedule", "random_p"):
        extra = ["--p", "0.5"] if policy == "random_p" else []
        argv = ["simulate", "--net", str(net), "--k", "1", "--policy", policy, *extra]
        assert dispatch(argv) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input"
        assert "receiver 1" in err["error"]


def test_simulate_random_p_flag(tmp_path):
    net = tmp_path / "h.net"
    run_ok(["gen", "--n", "64", "--seed", "5", "--out", str(net), "--radius2"])
    out = tmp_path / "r.json"
    run_ok(
        ["simulate", "--net", str(net), "--k", "1", "--policy", "random_p",
         "--p", "0.2", "--seed", "4", "--out", str(out)]
    )
    assert json.loads(out.read_text())["decoded_all"]
    # p without random_p is rejected
    assert dispatch(["simulate", "--net", str(net), "--k", "1", "--p", "0.2"]) == 3


def test_report_empty_inputs_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    run_ok(["report", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("n,seed,policy,k,")


def test_report_rejects_schema_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99, "n": 64}))
    assert dispatch(["report", str(bad)]) == 3
    assert "schema-version mismatch" in json.loads(capsys.readouterr().err)["error"]


def test_report_rejects_foreign_artifact(tmp_path):
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"schema_version": 1, "surprise": True}))
    assert dispatch(["report", str(alien)]) == 3


@pytest.mark.parametrize(
    "content",
    [
        b"radionet v1 1 1\n1 0 0\n",  # sender listed twice
        b"radionet v1 1 1\n1 0 -1\n",  # negative sender id
        b"radionet v1 2 1\n1 1 0\n",  # neighbors out of order
        b"radionet v1 2 1\n1 0 1\nradius2 x 0\n",  # non-integer footer
        b"radionet v1 2 -1\n",  # negative receiver count
        b"radionet v1 1 1\n1 \xff\n",  # not UTF-8
    ],
    ids=["duplicate", "negative-id", "unsorted", "footer-not-integer", "negative-count",
         "not-utf8"],
)
def test_verify_rejects_malformed_net(tmp_path, capsys, content):
    net = tmp_path / "bad.net"
    net.write_bytes(content)
    assert dispatch(["verify", "--net", str(net), "--exact"]) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "input"


def test_verify_accepts_degree_off_class(tmp_path):
    net = tmp_path / "odd.net"
    net.write_text("radionet v1 3 1\n1 0 1 2\n")  # class 1, degree 3
    out = tmp_path / "v.json"
    run_ok(["verify", "--net", str(net), "--exact", "--out", str(out)])
    assert json.loads(out.read_text())["best_count"] == 1


@pytest.mark.parametrize(
    "content",
    [b'{"schema_version": 1, ', b"[1, 2]", b'{"schema_version": 1, "n": "\xff"}'],
    ids=["truncated", "not-an-object", "not-utf8"],
)
def test_report_rejects_malformed_json(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert dispatch(["report", str(bad)]) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "input"


def test_search_counts_past_255_neighbors_of_one_receiver(tmp_path):
    # One receiver hears all 600 senders, so a random start covers more than
    # 255 of its neighbors; its counter must hold that.
    net = tmp_path / "wide.net"
    net.write_text("radionet v1 600 1\n9 " + " ".join(map(str, range(600))) + "\n")
    out = tmp_path / "v.json"
    run_ok(["verify", "--net", str(net), "--search", "--restarts", "1", "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["best_count"] == 1
    assert data["witness_hex"] == "1"


#: sha256 of the n=256 simulate artifacts and series, recorded before the
#: simulator moved onto the bipartite core; any change here is a behaviour change.
PINNED_SIMULATE_DIGESTS = {
    "round_robin-routing.json": "e1a91fea159627340a114a521eadc2ad32c4b0eaa11854eea632050208de0c5e",
    "round_robin-routing.csv": "a22a7d56c2b8239e2d54f21803c58d1a92f61e155cb6146db6825571515d1fa6",
    "round_robin-coding.json": "9b40983f8ba7cadb485ba77cb7e8ed6d9fd5868e4d9cafb26d3efe7217007c1b",
    "round_robin-coding.csv": "397c8cb118589e785e25d0cb8ee2e62413245b9f0f53dd46a6446ab9045a850e",
    "greedy_schedule-routing.json": "cb1a5e9e9ac51b4e173d95748c85028f86ebb7fdebf17bad2db30bb1413ca6c5",
    "greedy_schedule-routing.csv": "a9a24a72820a2632dab50cd827cda2dd009351028cc6ffa8ddff52612a355686",
    "greedy_schedule-coding.json": "5a5dd122d70e58eacdaa2c6b27d02cdbdebb98f67eabe11fe5f58d1c26ff4fb8",
    "greedy_schedule-coding.csv": "f6edf7a326f69034ae8cbcb2be92eaf0fcebbda89be163f796ff8747d7e0775f",
    "random_p-routing.json": "1449ef2cd7055ade32a5e4c176f5c2d5debd8ba8b6246913be3c3da336fb7b3b",
    "random_p-routing.csv": "037f2e32a1a0d2484cf758ae68336bcbc2fa332a9d88cba894ac7d8ca3c9ece1",
    "random_p-coding.json": "c9c60273649a990f8a4c9ee4a3c013fdb3d05b47018ce64b5ad91adad99ee9af",
    "random_p-coding.csv": "c0bf62aacc07497de970be603b818e3393dfe23454151395d31a0de73368ceb8",
}


def test_simulate_artifacts_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # artifacts record the net path as given
    run_ok(["gen", "--n", "256", "--seed", "5", "--out", "g.net", "--radius2"])
    for policy, extra in (("round_robin", []), ("greedy_schedule", []), ("random_p", ["--p", "0.0625"])):
        for model in ("routing", "coding"):
            stem = f"{policy}-{model}"
            run_ok(
                ["simulate", "--net", "g.net", "--k", "16", "--policy", policy, "--model", model,
                 "--seed", "3", *extra, "--out", f"{stem}.json", "--series", f"{stem}.csv"]
            )
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_SIMULATE_DIGESTS
    }
    assert digests == PINNED_SIMULATE_DIGESTS


def test_module_entry_point_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(radionet.__file__))}
    done = subprocess.run(
        [sys.executable, "-m", "radionet.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == f"radionet {radionet.__version__}\n"

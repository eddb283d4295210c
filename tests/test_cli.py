import gc
import hashlib
import json
import os
import stat
import subprocess
import sys

import pytest

import radionet
from radionet import broadcast, cli
from radionet.broadcast import MAX_K, MAX_K_RECEIVERS, MAX_ROUNDS, BroadcastConfig, lower_bound_rounds
from radionet.cli import _write_csv, dispatch
from radionet.instance import InstanceParams
from radionet.model import MAX_N, MAX_RECEIVERS, MAX_SENDERS, load
from radionet.verifier import MAX_RESTARTS


def run_ok(argv):
    assert dispatch(argv) == 0


def test_gen_writes_loadable_net(tmp_path, capsys, instance_problems):
    out = tmp_path / "h.net"
    run_ok(["gen", "--n", "256", "--seed", "7", "--out", str(out)])
    summary = json.loads(capsys.readouterr().out)
    assert summary["senders"] == 16
    assert summary["receivers"] == 64
    net = load(str(out))
    assert instance_problems(net) == []
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


#: Sender 0 alone reaches both receivers: the maximum is 2 at c*n' = 2c.
TOY_NET = "radionet v1 2 2\n0 0\n1 0 1\n"


@pytest.mark.parametrize(
    "net_spec, c, expected",
    [
        ((64, 5), "20", {"subsets_examined": 256, "threshold": 160.0, "passed": True, "vacuous": True}),
        # Desk scale: 20 n' = 320 is past the 64 receivers, nothing to certify.
        ((256, 7), "20", {"threshold": 320.0, "fraction_bound": 5.0, "passed": True, "vacuous": True}),
        # Equality passes, and c*n' = 2 receivers is vacuous.
        (TOY_NET, "1", {"best_count": 2, "threshold": 2.0, "fraction_bound": 1.0, "passed": True,
                        "vacuous": True}),
        (TOY_NET, "1/2", {"best_count": 2, "threshold": 1.0, "fraction": 1.0, "fraction_bound": 0.5,
                          "passed": False, "vacuous": False}),
        # c = R/n' = 24/8: no net reaches more than its receivers.
        ((64, 0), "24/8", {"threshold": 24.0, "fraction_bound": 1.0, "passed": True, "vacuous": True}),
        ((64, 9), "24/8", {"threshold": 24.0, "fraction_bound": 1.0, "passed": True, "vacuous": True}),
        ("radionet v1 5 0\n", "2", {"best_count": 0, "threshold": 10.0, "fraction": None,
                                    "fraction_bound": None, "passed": True, "vacuous": True}),
    ],
    ids=["n64-c20", "n256-c20-desk", "toy-c1-equality", "toy-c-half-fails", "n64-seed0-c-R-over-n",
         "n64-seed9-c-R-over-n", "no-receivers"],
)
def test_verify_exact_json(tmp_path, net_spec, c, expected):
    net = tmp_path / "h.net"
    out = tmp_path / "v.json"
    if isinstance(net_spec, str):
        net.write_text(net_spec)
    else:
        n, seed = net_spec
        run_ok(["gen", "--n", str(n), "--seed", str(seed), "--out", str(net)])
    run_ok(["verify", "--net", str(net), "--exact", "--threshold", c, "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["schema_version"] == 1
    assert data["method"] == "exact"
    assert int(data["witness_hex"], 16) < 1 << data["sender_count"]
    if data["receiver_count"]:
        assert data["fraction"] == data["best_count"] / data["receiver_count"]
    assert {key: data[key] for key in expected} == expected


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
@pytest.mark.parametrize(
    "flag",
    [["--seed", "-1"], ["--seed", str(2**64)], ["--restarts", "0"]],
    ids=["seed", "seed-past-64-bits", "restarts"],
)
def test_verify_rejects_bad_search_flags_before_loading(tmp_path, capsys, mode, flag):
    # The net does not exist: the error names the flag, so it was checked first.
    assert dispatch(["verify", "--net", str(tmp_path / "ghost.net"), mode, *flag]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "input"
    assert flag[0].lstrip("-") in err["error"]


@pytest.mark.parametrize("threshold", ["abc", "inf", "1/0", "0", "-2", "1e308"])
def test_verify_rejects_bad_threshold_before_maximizing(tmp_path, capsys, threshold):
    # 27 senders would exit 4 at the enumeration budget: the threshold is checked
    # first. At 1e308, c*n' = 2.7e309 is past the largest float.
    wide = tmp_path / "wide.net"
    wide.write_text("radionet v1 27 0\n")
    out = tmp_path / "v.json"
    argv = ["verify", "--net", str(wide), "--exact", "--threshold", threshold, "--out", str(out)]
    assert dispatch(argv) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "input"
    assert not out.exists()


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


#: Command lines whose output names an input or the command's other output.
#: Each once exited 0 and destroyed a file.
OVERWRITE_CASES = {
    "verify-out-net": ["verify", "--net", "h.net", "--out", "h.net"],
    "verify-out-net-spelled-apart": ["verify", "--net", "h.net", "--out", "sub/../h.net"],
    "simulate-out-net": ["simulate", "--net", "h.net", "--k", "1", "--out", "./h.net"],
    "simulate-out-series": ["simulate", "--net", "h.net", "--k", "1", "--out", "s.json", "--series", "s.json"],
    "simulate-series-net": ["simulate", "--net", "h.net", "--k", "1", "--series", "h.net"],
    "report-out-input": ["report", "s.json", "--out", "s.json"],
    "report-out-hard-link": ["report", "s.json", "--out", "link.json"],
}


@pytest.mark.parametrize("case", sorted(OVERWRITE_CASES))
def test_output_naming_another_path_exits_3_untouched(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    run_ok(["gen", "--n", "64", "--seed", "5", "--out", "h.net", "--radius2"])
    run_ok(["simulate", "--net", "h.net", "--k", "1", "--out", "s.json"])
    os.link("s.json", "link.json")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    capsys.readouterr()
    assert dispatch(OVERWRITE_CASES[case]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["kind"] == "input"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


@pytest.mark.parametrize(
    "argv, work",
    [(["gen", "--n", "64", "--out", "adir"], "sample_instance"),
     (["analyze", "--grid-nprime", "2..16", "--out", "adir"], "chain_grid")],
    ids=["gen", "analyze"],
)
def test_directory_output_exits_3_before_any_work(tmp_path, capsys, monkeypatch, argv, work):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()

    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    monkeypatch.setattr(cli, work, refuse)
    assert dispatch(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"].startswith("cannot write")
    assert not list(tmp_path.rglob(".tmp-radionet-*"))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_outputs_get_the_mode_a_plain_open_gives(tmp_path, umask, mode):
    net, verified, chains = (str(tmp_path / name) for name in ("h.net", "v.json", "chains.csv"))
    previous = os.umask(umask)
    try:
        run_ok(["gen", "--n", "64", "--seed", "5", "--out", net])
        run_ok(["verify", "--net", net, "--out", verified])
        run_ok(["analyze", "--grid-nprime", "2..4", "--out", chains])
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {"h.net": mode, "v.json": mode, "chains.csv": mode, "plain": mode}


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
    "field,value",
    [("n", None), ("n", [16]), ("n", True), ("n", 16.0), ("seed", "3"), ("k", False),
     ("policy", 7), ("policy", "a,b"), ("policy", "greedy"), ("rounds_used", "9,9"),
     ("rounds_used", True), ("rounds_used", 9.0), ("rounds_used", None),
     ("accounting_lower_bound", [4, 5]), ("accounting_lower_bound", False),
     ("accounting_lower_bound", 4.5), ("throughput", True), ("throughput", 1),
     ("throughput", "0.25")],
)
def test_report_rejects_key_of_wrong_type(tmp_path, capsys, field, value):
    # Keys of mixed types cannot be sorted and other cells would break the row:
    # the bad input is refused, not a traceback or a row of the wrong width.
    artifact = {"schema_version": 1, "n": 16, "seed": 3, "policy": "round_robin", "k": 2,
                "rounds_used": 9, "accounting_lower_bound": 4, "throughput": 0.25}
    good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "m.csv"
    good.write_text(json.dumps(artifact))
    bad.write_text(json.dumps({**artifact, field: value}))
    assert dispatch(["report", str(good), str(bad), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "input"
    assert str(bad) in err["error"] and field in err["error"]
    assert not out.exists()


def test_report_renders_null_cells_empty(tmp_path):
    # An unbounded round bound and a zero-round run are written as null: empty cells.
    artifact = {"schema_version": 1, "n": 16, "seed": 3, "policy": "random_p", "k": 0,
                "rounds_used": 0, "accounting_lower_bound": None, "throughput": None}
    art, out = tmp_path / "a.json", tmp_path / "m.csv"
    art.write_text(json.dumps(artifact))
    run_ok(["report", str(art), "--out", str(out)])
    assert out.read_text().splitlines()[2:] == ["16,3,random_p,0,0,,"]


@pytest.mark.parametrize(
    "content",
    [
        b"radionet v1 1 1\n1 0 0\n",  # sender listed twice
        b"radionet v1 1 1\n1 0 -1\n",  # negative sender id
        b"radionet v1 2 1\n1 0 7\n",  # sender id past the sender count
        b"radionet v1 2 1\n-1 0\n",  # negative class index
        b"radionet v1 2 1\n1 1 0\n",  # neighbors out of order
        b"radionet v1 2 1\n1 0 1\nradius2 x 0\n",  # non-integer footer
        b"radionet v1 2 -1\n",  # negative receiver count
        b"radionet v1 1 1\n1 \xff\n",  # not UTF-8
    ],
    ids=["duplicate", "negative-id", "id-past-senders", "negative-class", "unsorted",
         "footer-not-integer", "negative-count", "not-utf8"],
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


def test_verify_witness_hex_is_lowercase_without_prefix(tmp_path):
    # Senders 1, 3 and 5 each reach one receiver alone: the smallest best mask is 0b101010.
    net = tmp_path / "odd.net"
    net.write_text("radionet v1 6 3\n0 1\n0 3\n0 5\n")
    out = tmp_path / "v.json"
    run_ok(["verify", "--net", str(net), "--exact", "--out", str(out)])
    data = json.loads(out.read_text())
    assert (data["best_count"], data["witness_hex"]) == (3, "2a")


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


#: The same six runs at n=1024 (n' = 32, past the enumeration budget, so
#: maxrec comes from the search), recorded before the routing receivers kept
#: one holder set per message; any change here is a behaviour change.
PINNED_SEARCH_SIMULATE_DIGESTS = {
    "round_robin-routing.json": "44a82820585ccdd2cd5bdfd09ebfea94bf69ede3558d973a4cbb1087633012c7",
    "round_robin-routing.csv": "105f73fe90fba61f8d7f83432aa08773f51c324625ced4e24a31a48cb86387ec",
    "round_robin-coding.json": "9d80e5319dbf6bbea864615d02b65a0f38f60909ce8f211e15dd19a8d9253220",
    "round_robin-coding.csv": "5bd3d8c754c8fdc396ea8dd8aaafb55e3e810a49f74e90be97b0cc5813b47abe",
    "greedy_schedule-routing.json": "4105b5c741b816d375761e70c9df54b3099e332129b9f0691d3623e1dd1e319f",
    "greedy_schedule-routing.csv": "2e151af29a0994523ba0340237cfb6cb0612eceabdd59605b3c570fa67a3d5ac",
    "greedy_schedule-coding.json": "bd9e56c9e0b0c2fcce78b1dd33e8a665b3739ae6390f6bf292e5731fa70de5f7",
    "greedy_schedule-coding.csv": "56e2b5146e794b4a99e509c79b4c46dc0dc282f859b4ca05bc6ffb7b810cf77a",
    "random_p-routing.json": "eb13338a50b1e2d84475b981601a4c1e75e9f76e00e1b22bf3888685e6f39f50",
    "random_p-routing.csv": "e12ceb731cf3bd7ba27c376fd4715fb110749a836f3a67991dcc5d3503d065f3",
    "random_p-coding.json": "2a34564efb060dd6024fc189c8117c3c0fc264284cce1c3557ad375fc3facb5f",
    "random_p-coding.csv": "9d3d6480da22bb3cbf2ecd9261780a2e6a641052bd9f027a6a2abff51d5f8cc3",
}


def simulate_six(tmp_path, n):
    """sha256 of every artifact of the six policy x model simulate runs on one net."""
    run_ok(["gen", "--n", str(n), "--seed", "5", "--out", "g.net", "--radius2"])
    for policy, extra in (("round_robin", []), ("greedy_schedule", []), ("random_p", ["--p", "0.0625"])):
        for model in ("routing", "coding"):
            stem = f"{policy}-{model}"
            run_ok(
                ["simulate", "--net", "g.net", "--k", "16", "--policy", policy, "--model", model,
                 "--seed", "3", *extra, "--out", f"{stem}.json", "--series", f"{stem}.csv"]
            )
            for name in (f"{stem}.json", f"{stem}.csv"):
                yield name, hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


def test_simulate_artifacts_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # artifacts record the net path as given
    digests = dict(simulate_six(tmp_path, 256))
    assert digests == PINNED_SIMULATE_DIGESTS


def test_search_simulate_artifacts_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = dict(simulate_six(tmp_path, 1024))
    assert json.loads((tmp_path / "round_robin-routing.json").read_text())["maxrec_method"] == "search"
    assert digests == PINNED_SEARCH_SIMULATE_DIGESTS


@pytest.mark.parametrize("n, engine", [(256, "max_receptions_exact"), (1024, "max_receptions_search")])
def test_simulate_runs_one_maximization_through_the_cli(tmp_path, monkeypatch, n, engine):
    # Both modules' engine names are counted: the CLI picks the engine, exact
    # up to 26 senders, and the simulator only uses the count it is given.
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((module.__name__, name, result))
            return result

        return wrapper

    for module in (cli, broadcast):
        for name in ("max_receptions_exact", "max_receptions_search"):
            monkeypatch.setattr(module, name, counted(module, name))
    net, out = tmp_path / "g.net", tmp_path / "sim.json"
    run_ok(["gen", "--n", str(n), "--seed", "5", "--out", str(net), "--radius2"])
    run_ok(["simulate", "--net", str(net), "--k", "4", "--seed", "3", "--out", str(out)])
    assert [(module, name) for module, name, _ in calls] == [("radionet.cli", engine)]
    best = calls[0][2]
    artifact = json.loads(out.read_text())
    assert (artifact["maxrec"], artifact["maxrec_method"]) == (best.best_count, best.method)
    receivers = load(str(net)).core.receiver_count
    assert artifact["accounting_lower_bound"] == lower_bound_rounds(4, receivers, best.best_count)


def test_budgets_leave_room_for_the_documented_workflows():
    # Every net gen can write loads, and the planned throughput sweep
    # (n <= 16384, k <= 256) fits, with n = 65536 at the same k besides.
    at_budget = InstanceParams(MAX_N)
    assert at_budget.n_prime <= MAX_SENDERS and at_budget.n_prime * at_budget.class_count <= MAX_RECEIVERS
    for n in (16384, 65536):
        assert n <= MAX_N
        params = InstanceParams(n)
        assert 256 <= MAX_K and 256 * params.n_prime * params.class_count <= MAX_K_RECEIVERS
    simulate = cli._build_parser().parse_args(["simulate", "--net", "g.net", "--k", "1"])
    assert max(simulate.max_rounds, BroadcastConfig(k=1).max_rounds) <= MAX_ROUNDS


def _refuse(*args, **kwargs):
    raise AssertionError("a budget is checked before the maximization")


#: One over-budget input per limit: (net file text or None, argv). The net
#: is g.net; out is the output path, which must not be written.
BUDGET_CASES = {
    "gen-n": (None, ["gen", "--n", str(4**20), "--out", "{out}"]),
    "net-senders": ("radionet v1 1000000000 0\n", ["verify", "--net", "{net}", "--search", "--out", "{out}"]),
    "net-receivers": ("radionet v1 1 1000000000\n", ["verify", "--net", "{net}", "--search", "--out", "{out}"]),
    "simulate-k": ("gen", ["simulate", "--net", "{net}", "--k", "1000000000", "--out", "{out}"]),
    "simulate-k-receivers": (
        f"radionet v1 1 {MAX_K_RECEIVERS // MAX_K + 1}\n"
        + "0 0\n" * (MAX_K_RECEIVERS // MAX_K + 1)
        + f"radius2 {MAX_K_RECEIVERS // MAX_K + 3} 0\n",
        ["simulate", "--net", "{net}", "--k", str(MAX_K), "--out", "{out}"],
    ),
    "simulate-max-rounds": ("gen", ["simulate", "--net", "{net}", "--k", "1", "--policy", "random_p", "--p", "1e-300",
                                    "--max-rounds", str(MAX_ROUNDS + 1), "--out", "{out}"]),
    "net-footer-total": (f"radionet v1 1 1\n0 0\nradius2 {4**20 + 3} {4**20}\n",
                         ["simulate", "--net", "{net}", "--k", "1", "--out", "{out}"]),
    # The net does not exist: exit 4, not 3, shows the flag is checked before the load.
    "verify-restarts": ("", ["verify", "--net", "{net}", "--search", "--restarts", str(MAX_RESTARTS + 1),
                             "--out", "{out}"]),
}


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_budget_exceeded_exits_4_without_output(tmp_path, capsys, monkeypatch, case):
    text, argv = BUDGET_CASES[case]
    net, out = tmp_path / "g.net", tmp_path / "out"
    if text == "gen":
        run_ok(["gen", "--n", "256", "--seed", "1", "--out", str(net), "--radius2"])
    elif text:
        net.write_text(text)
    capsys.readouterr()
    for name in ("max_receptions_exact", "max_receptions_search"):
        monkeypatch.setattr(cli, name, _refuse)
    assert dispatch([arg.format(net=net, out=out) for arg in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["kind"] == "budget"
    assert not out.exists()


def test_dispatch_leaves_no_cyclic_garbage(tmp_path):
    # A parser is a web of reference cycles: one built per dispatch would stay
    # in memory until the cyclic collector next ran.
    out = str(tmp_path / "r.csv")
    run_ok(["report", "--out", out])
    gc.collect()
    gc.disable()
    try:
        run_ok(["report", "--out", out])
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_module_entry_point_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(radionet.__file__))}
    done = subprocess.run(
        [sys.executable, "-m", "radionet.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == f"radionet {radionet.__version__}\n"

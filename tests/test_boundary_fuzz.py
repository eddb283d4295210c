"""The CLI boundary under generated argv and mutated input files.

Every case runs `dispatch` in a fresh directory holding a radius-2 net, a
flat net and two simulate artifacts, some of them mutated. Whatever the
input, the exit code is 0, 2, 3 or 4; exits 3 and 4 print exactly one JSON
error line; and a non-zero exit leaves the directory as it was. On exit 0
four oracles check that the tool did not accept a wrong input silently: a
net it read means what its file says, every seed it records is a 64-bit
unsigned integer, every `report` row has its seven well-typed cells, and
every file it read keeps its bytes while each output holds its own kind.

The cases run in one child process, this file run as a script, under an
address-space limit and a per-case alarm: a defect that allocates without
bound or never returns fails the test instead of exhausting the machine.
"""

import contextlib
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import radionet
from radionet.broadcast import MAX_K, MAX_ROUNDS, POLICIES
from radionet.cli import MAX_GRID_NPRIME, dispatch
from radionet.model import MAX_N, MAX_SENDERS, dumps, loads
from radionet.verifier import MAX_RESTARTS

#: The child's address-space limit, its alarm per case and its overall time limit.
CHILD_MEMORY_BYTES = 1 << 30
CASE_SECONDS = 20
CHILD_SECONDS = 300

#: Values that make an argv wrong when they replace one of its tokens:
#: extreme integers, malformed numbers and bad paths. Every valid case they
#: make runs in a few seconds at most: the costly valid inputs (a gen at the
#: node budget, an analyze grid to 1024, a 2**26 enumeration) are left out.
BAD = st.sampled_from(
    [str(v) for v in (-1, 0, 27, 2**31, 2**63, 2**64, -(2**64), 10**9, 10**30, MAX_SENDERS + 1,
                      MAX_RESTARTS + 1, MAX_K + 1, MAX_ROUNDS + 1, MAX_GRID_NPRIME + 1, MAX_N + 1)]
    + ["", "x", "1.5", "0x10", "1e3", "nan", "inf", "-inf", "1e-300", "1e308", "1/0", "-0", "1_0", "5..2"]
    + ["no/such/dir/out", ".", "g.net", "a.json", "missing", "--out", "--bogus"]
)
SEEDS = st.integers(0, 2**64 - 1).map(str)
PATHS = st.sampled_from(["out", "series.csv"])

#: One well-formed simulate artifact, for the examples that retype one field.
ARTIFACT = {"schema_version": 1, "n": 16, "seed": 3, "policy": "round_robin", "k": 2,
            "rounds_used": 9, "accounting_lower_bound": 4, "throughput": 0.25}


class CaseTimeout(Exception):
    """A case ran past CASE_SECONDS."""


def _flags(draw, table):
    """Some of `table`'s flags in a drawn order: a value strategy each, None for a switch."""
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(table)), unique=True)):
        argv.append(flag)
        if table[flag] is not None:
            argv.append(draw(table[flag]))
    return argv


@st.composite
def valid_argvs(draw):
    """A well-formed command line of one subcommand, on the case's input files."""
    command = draw(st.sampled_from(["gen", "analyze", "verify", "simulate", "report"]))
    if command == "gen":
        sizes = st.sampled_from(["4", "16", "64", "256", "1024"])
        return ["gen", "--n", draw(sizes), "--out", draw(PATHS), *_flags(draw, {"--seed": SEEDS, "--radius2": None})]
    if command == "analyze":
        bounds = sorted(draw(st.lists(st.integers(1, 64), min_size=2, max_size=2)))
        return ["analyze", *_flags(draw, {"--grid-nprime": st.just("{}..{}".format(*bounds)), "--out": PATHS})]
    if command == "verify":
        table = {"--restarts": st.integers(1, 64).map(str), "--seed": SEEDS, "--out": PATHS,
                 "--threshold": st.sampled_from(["0.5", "1", "2.5", "20", "5/2"])}
        mode = draw(st.sampled_from([[], ["--exact"], ["--search"]]))
        return ["verify", "--net", draw(st.sampled_from(["g.net", "f.net"])), *mode, *_flags(draw, table)]
    if command == "simulate":
        policy = draw(st.sampled_from(POLICIES))
        p = ["--p", draw(st.sampled_from(["0.0625", "0.25", "1"]))] if policy == "random_p" else []
        # --max-rounds is always given: at the default, a random_p run whose
        # rounds all collide plays 100000 rounds, valid but slow.
        table = {"--model": st.sampled_from(["routing", "coding"]), "--seed": SEEDS, "--out": PATHS,
                 "--series": PATHS}
        return ["simulate", "--net", "g.net", "--k", str(draw(st.integers(0, 20))), "--policy", policy, *p,
                "--max-rounds", str(draw(st.integers(1, 300))), *_flags(draw, table)]
    return ["report", *draw(st.lists(st.sampled_from(["a.json", "b.json"]), max_size=2)), *_flags(draw, {"--out": PATHS})]


@st.composite
def argvs(draw):
    """A valid command line with up to two tokens replaced, dropped or repeated."""
    argv = draw(valid_argvs())
    for _ in range(draw(st.integers(0, 2))):
        if not argv:
            break
        i = draw(st.integers(0, len(argv) - 1))
        action = draw(st.sampled_from(["replace", "replace", "drop", "repeat"]))
        if action == "replace":
            argv[i] = draw(BAD)
        elif action == "drop":
            del argv[i]
        else:
            argv.insert(i, argv[i])
    return argv


@st.composite
def mutated_net(draw, text):
    """`text` with a few lines dropped, duplicated, or altered or extended by one field."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.sampled_from([0, len(lines) - 1]) | st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["drop", "duplicate", "alter", "append"]))
        if action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        else:
            fields = lines[i].split() or [""]
            j = draw(st.integers(0, len(fields) - (action == "alter")))
            fields[j:j + (action == "alter")] = [draw(BAD)]
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@st.composite
def mutated_artifact(draw, text):
    """`text` with one field removed or retyped, or truncated, or not an object."""
    data = json.loads(text)
    action = draw(st.sampled_from(["remove", "retype", "truncate", "array"]))
    if action == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if action == "array":
        return json.dumps(list(data))
    key = draw(st.sampled_from(sorted(data)))
    if action == "remove":
        del data[key]
    else:
        data[key] = draw(st.sampled_from([None, True, "x", "9,9", 1.5, -1, 2**64, [1], {}]))
    return json.dumps(data)


def _snapshot(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir() if path.is_file()}


def _net_tokens(text):
    """The net file's fields, integers parsed, one list per nonblank line."""

    def field(token):
        try:
            return int(token)
        except ValueError:
            return token

    return [[field(t) for t in line.split()] for line in text.splitlines() if line.strip()]


def _flag_value(argv, flag):
    """The value of `flag`'s last occurrence, the one argparse keeps, or None."""
    positions = [i for i, token in enumerate(argv[:-1]) if token == flag]
    return argv[positions[-1] + 1] if positions else None


def _read_paths(argv):
    """The files `argv` reads: its `--net`, or `report`'s inputs."""
    if argv[0] == "report":
        return [token for previous, token in zip(argv, argv[1:]) if previous != "--out" and not token.startswith("-")]
    return [_flag_value(argv, "--net")] if "--net" in argv else []


#: How each output of a command starts: (command, flag) -> prefix.
OUTPUT_KINDS = {("gen", "--out"): "radionet v1", ("analyze", "--out"): "# radionet", ("verify", "--out"): "{",
                ("simulate", "--out"): "{", ("simulate", "--series"): "# radionet", ("report", "--out"): "# radionet"}


def _check_accepted(argv, before, after, stdout):
    """The oracles of an exit 0: nothing wrong was accepted silently."""
    if argv[0] in ("verify", "simulate"):
        text = before[argv[argv.index("--net") + 1]].decode()
        assert _net_tokens(dumps(loads(text))) == _net_tokens(text), "a net was read as another"
    outputs = [stdout] + [data.decode() for name, data in after.items() if before.get(name) != data]
    for output in outputs:
        try:
            record = json.loads(output)
        except ValueError:
            continue
        seed = record.get("config", {}).get("seed") if isinstance(record, dict) else None
        assert seed is None or 0 <= seed < 2**64, f"recorded seed {seed}"
    if argv[0] == "report":
        path = argv[argv.index("--out") + 1] if "--out" in argv else None
        rows = (after[path].decode() if path else stdout).splitlines()[2:]
        number = r"-?\d+(\.\d+)?(e[-+]?\d+)?|inf|nan"
        for row in rows:
            n, seed, policy, k, rounds, bound, throughput = row.split(",")  # exactly seven cells
            assert all(re.fullmatch(r"-?\d+", cell) for cell in (n, seed, k, rounds)), row
            assert policy in POLICIES and re.fullmatch(r"(-?\d+)?", bound), row
            assert re.fullmatch(f"({number})?", throughput), row
    for name in _read_paths(argv):
        assert after.get(name) == before.get(name), f"input {name} was overwritten"
    for (command, flag), prefix in OUTPUT_KINDS.items():
        path = _flag_value(argv, flag) if command == argv[0] else None
        if path:
            assert after[path].decode().startswith(prefix), f"{flag} {path} holds another output"


def run_case(argv, files):
    """Run one argv in a fresh directory holding BASE with `files` over it; check every boundary promise."""
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        for file_name, text in {**BASE, **files}.items():
            (directory / file_name).write_text(text)
        before = _snapshot(directory)
        stdout, stderr = io.StringIO(), io.StringIO()
        previous = os.getcwd()
        os.chdir(directory)
        signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = dispatch(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            os.chdir(previous)
        after = _snapshot(directory)
        assert code in (0, 2, 3, 4), (code, stderr.getvalue())
        if code in (3, 4):
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, lines
            error = json.loads(lines[0])
            assert set(error) == {"error", "kind"} and error["kind"] == ("input" if code == 3 else "budget")
        if code:
            assert after == before, f"exit {code} changed {sorted(set(after) ^ set(before)) or 'a file'}"
        else:
            _check_accepted(argv, before, after, stdout.getvalue())


def _base_files():
    """A radius-2 net, a flat net and two simulate artifacts, made by the CLI itself."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as name, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(name)
        try:
            assert dispatch(["gen", "--n", "64", "--seed", "5", "--radius2", "--out", "g.net"]) == 0
            assert dispatch(["gen", "--n", "16", "--seed", "1", "--out", "f.net"]) == 0
            for policy, artifact in (("round_robin", "a.json"), ("greedy_schedule", "b.json")):
                assert dispatch(["simulate", "--net", "g.net", "--k", "2", "--policy", policy, "--out", artifact]) == 0
            return {path.name: path.read_text() for path in Path(name).iterdir()}
        finally:
            os.chdir(previous)


#: The input files of every case, by name; the child fills it before the first case.
BASE: dict = {}


@st.composite
def cases(draw):
    """An argv and the input files that differ from BASE: none, or one mutated."""
    mutated = draw(st.sampled_from([None, "g.net", "a.json"]))
    if mutated == "g.net":
        return draw(argvs()), {"g.net": draw(mutated_net(BASE["g.net"]))}
    if mutated == "a.json":
        return draw(argvs()), {"a.json": draw(mutated_artifact(BASE["a.json"]))}
    return draw(argvs()), {}


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate), suppress_health_check=[HealthCheck.too_slow])
@given(cases())
# One example per boundary defect found so far; reverting its fix fails the example.
@example((["verify", "--net", "g.net"], {"g.net": "radionet v1 1 1\n1 0 0\n"}))  # a repeated id
@example((["verify", "--net", "g.net"], {"g.net": "radionet v1 2 1\n1 0 1\nradius2 x 0\n"}))  # a bad footer
@example((["report", "a.json", "--out", "out"], {"a.json": '{"schema_version": 1, '}))  # bad JSON
@example((["report", "a.json", "--out", "out"], {"a.json": json.dumps({**ARTIFACT, "rounds_used": "9,9"})}))
@example((["verify", "--net", "g.net", "--threshold", "1e308", "--out", "out"], {}))  # c*n' past a float
@example((["verify", "--net", "g.net", "--search", "--seed", str(2**64), "--out", "out"], {}))
@example((["simulate", "--net", "g.net", "--k", "1000000000", "--out", "out"], {}))
@example((["gen", "--n", str(4**20), "--out", "out"], {}))
@example((["verify", "--net", "g.net", "--search"], {"g.net": "radionet v1 1000000000 0\n"}))
@example((["simulate", "--net", "g.net", "--k", "1", "--policy", "random_p", "--p", "1e-300",
           "--max-rounds", "1000000000", "--out", "out"], {}))
@example((["analyze", "--grid-nprime", f"2..{MAX_GRID_NPRIME * 4}", "--out", "out"], {}))
# The artifact was written before the series write failed.
@example((["simulate", "--net", "g.net", "--k", "1", "--max-rounds", "64", "--out", "out",
           "--series", "no/such/dir/out"], {}))
# An output named an input or the other output, and replaced it.
@example((["verify", "--net", "g.net", "--out", "g.net"], {}))
@example((["simulate", "--net", "g.net", "--k", "1", "--max-rounds", "64", "--out", "g.net"], {}))
@example((["simulate", "--net", "g.net", "--k", "1", "--max-rounds", "64", "--out", "out", "--series", "out"], {}))
@example((["report", "a.json", "--out", "a.json"], {}))
def boundary_case(case):
    run_case(*case)


def _child():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))

    def alarm(signum, frame):
        raise CaseTimeout(f"a case ran past {CASE_SECONDS} s")

    signal.signal(signal.SIGALRM, alarm)
    BASE.update(_base_files())
    boundary_case()


def test_cli_boundary_holds_under_generated_input():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(radionet.__file__)),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=env, timeout=CHILD_SECONDS
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


if __name__ == "__main__":
    _child()

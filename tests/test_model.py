import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import radionet
from radionet.errors import InputError
from radionet.instance import InstanceParams, build_radius2, sample_instance
from radionet.model import (
    BipartiteRadioNet,
    Radius2Net,
    Receiver,
    bit_mask,
    bit_members,
    dumps,
    loads,
    radius,
    round_step,
)

from goldens import GOLDENS, check
from shared import class_degree_problems, instance_problems, simulate_artifact, toy_net


def test_round_step_nobody_transmits():
    assert round_step(toy_net(), bit_members(0)) == 0


def test_round_step_single_transmitter_reaches_both():
    assert round_step(toy_net(), bit_members(0b01)) == 0b11


def test_round_step_collision_drops_shared_receiver():
    net = toy_net()
    heard = round_step(net, bit_members(0b11))
    assert heard == 0b01
    # what each sender delivers, as run_broadcast reads it: b delivers nothing
    assert [m & heard for m in net.reach_masks] == [0b01, 0]


def test_monotonicity_failure_witness():
    # A bigger transmit set can deliver less: collisions are not monotone.
    small = round_step(toy_net(), bit_members(0b01))
    big = round_step(toy_net(), bit_members(0b11))
    assert small.bit_count() > big.bit_count()


def test_round_step_is_pure():
    net = toy_net()
    assert round_step(net, bit_members(0b11)) == round_step(net, bit_members(0b11))


def test_bit_members_inverts_bit_mask():
    assert bit_members(bit_mask([5, 1, 3])) == (1, 3, 5)


def test_radius_of_generated_wrapper_is_two():
    core = sample_instance(InstanceParams(64, seed=5))
    assert radius(build_radius2(core, 64)) == 2


def test_radius_of_star_is_one():
    star = Radius2Net(BipartiteRadioNet(4, ()), 0)
    assert radius(star) == 1


def test_radius2_refuses_receiver_without_sender():
    # The wrapper is connected by construction: built directly or loaded from a footer.
    core = BipartiteRadioNet(2, (Receiver(1, 0b01), Receiver(0, 0)))
    with pytest.raises(InputError, match="malformed net: receiver 1 has no sender neighbour"):
        Radius2Net(core, 0)
    with pytest.raises(InputError, match="malformed net: receiver 1 has no sender neighbour"):
        loads("radionet v1 2 2\n1 0\n0\nradius2 6 1\n")
    assert loads("radionet v1 2 2\n1 0\n0\n") == core  # a flat net may keep it


def test_radius_never_builds_adjacency():
    # radius works from the wrapper's shape: neither the node-level lists nor the reach masks get built.
    for net in (
        build_radius2(sample_instance(InstanceParams(64, seed=5)), 64),
        Radius2Net(BipartiteRadioNet(4, ()), 2),
    ):
        radius(net)
        assert "adjacency" not in vars(net)
        assert "reach_masks" not in vars(net.core)


def test_adjacency_matches_pinned_layout_digest():
    layouts = [
        repr(build_radius2(sample_instance(InstanceParams(n, seed)), n).adjacency)
        for n in (16, 64, 256, 1024, 4096)
        for seed in (0, 1, 7)
    ]
    check("layout", "\n".join(layouts).encode())


def test_validate_generated_instance_is_clean():
    for seed in (0, 1, 99):
        assert instance_problems(sample_instance(InstanceParams(64, seed=seed))) == []


def test_validate_flags_duplicate_neighbor():
    with pytest.raises(InputError, match="duplicate neighbor"):
        loads("radionet v1 4 1\n1 3 3\n")


def test_validate_flags_wrong_class_degree():
    net = BipartiteRadioNet(4, (Receiver(2, bit_mask((0, 1, 2))),))
    assert loads(dumps(net)) == net  # loading accepts it
    assert class_degree_problems(net) == ["receiver 0: degree 3 != 2^2"]


def test_validate_flags_out_of_range_and_unsorted():
    # A hand-built net: a mask bit at or past sender_count, or a negative mask or class.
    for mask in (1 << 2, 1 << 7, 0b111, -1):
        with pytest.raises(InputError, match="receiver 1: neighbor mask .* out of range for 2 senders"):
            BipartiteRadioNet(2, (Receiver(1, 0b11), Receiver(0, mask)))
    with pytest.raises(InputError, match="receiver 0: negative class index -1"):
        BipartiteRadioNet(2, (Receiver(-1, 0b01),))
    with pytest.raises(InputError, match="not sorted"):
        loads("radionet v1 2 1\n1 1 0\n")
    with pytest.raises(InputError, match="out of range"):
        loads("radionet v1 2 1\n0 7\n")


def test_sender_count_must_be_positive():
    with pytest.raises(InputError):
        BipartiteRadioNet(0, ())


def test_serialization_roundtrip_bipartite():
    net = sample_instance(InstanceParams(64, seed=13))
    text = dumps(net)
    again = loads(text)
    assert again == net
    assert dumps(again) == text  # byte-stable


def test_serialization_roundtrip_radius2():
    net = build_radius2(sample_instance(InstanceParams(64, seed=13)), 64)
    text = dumps(net)
    assert text.splitlines()[0] == "radionet v1 8 24"
    assert text.splitlines()[-1] == f"radius2 64 {net.void_count}"
    assert loads(text) == net


def test_loads_rejects_malformed_input():
    with pytest.raises(InputError):
        loads("")
    with pytest.raises(InputError):
        loads("radionet v2 2 1\n0 0\n")
    with pytest.raises(InputError):
        loads("radionet v1 2 2\n0 0\n")  # missing a receiver line
    with pytest.raises(InputError):
        loads("radionet v1 2 1\n0 zero\n")
    with pytest.raises(InputError):
        loads("radionet v1 2 1\n0 0\nradius2 99 1\n")  # inconsistent footer


def test_core_modules_do_not_load_numpy(tmp_path):
    # numpy is the exhaustive enumeration's private encoding: the model, the
    # generator and the analytic chain run on Python ints and fractions, and
    # so does every command that runs no enumeration.
    (tmp_path / "s.json").write_text(json.dumps(simulate_artifact()))
    code = "\n".join([
        "import sys, radionet.model, radionet.instance, radionet.analytic, radionet.cli",
        "runs = [['gen', '--n', '64', '--radius2', '--out', 'g.net'],",
        "        ['analyze', '--grid-nprime', '2..8', '--out', 'a.csv'],",
        "        ['verify', '--net', 'g.net', '--search', '--out', 'v.json'],",
        "        ['report', 's.json', '--out', 'r.csv']]",
        "codes = [radionet.cli.dispatch(argv) for argv in runs]",
        "print(codes, 'numpy' in sys.modules)",
    ])
    src = str(Path(radionet.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"


#: Public names that nothing outside the tests reads, with the reason each stays.
UNREAD_PUBLIC_NAMES = {
    "chernoff_tail": "criterion 5 checks it; the certified family cap is to wire it in",
    "union_failure_bound": "criterion 5 checks it; the certified family cap is to wire it in",
    "p_delta_upper": "the certified family cap is to wire it in or replace it",
}


def _parsed(directory):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))]


def _definitions(tree):
    """The module-level functions and classes of `tree`, and the methods and properties of its classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for owner in tree.body:
        if isinstance(owner, (*functions, ast.ClassDef)):
            yield owner
        if isinstance(owner, ast.ClassDef):
            yield from (member for member in owner.body if isinstance(member, functions))


def _names_read(tree, loose=False):
    """Every name `tree` reads as an identifier or an attribute, outside a def of that name.

    With `loose`, an import or a string also counts: the benchmark's tracer
    wraps the package's functions by their names as strings.
    """
    names = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if loose and isinstance(node, ast.alias):
            name = node.name
        elif loose and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name and name not in enclosing:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return names


def test_every_private_helper_is_used_in_the_package():
    # A module-level `_name` function that nothing else in the package names is dead code.
    package = _parsed(Path(radionet.__file__).parent)
    helpers = {
        owner.name for tree in package for owner in tree.body
        if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner.name.startswith("_")
    }
    assert sorted(helpers - set().union(*map(_names_read, package))) == []


def test_only_util_turns_a_seed_into_a_stream():
    # util.reseed alone folds a derivation path into a key and seeds a
    # generator at the C level; any other `<< 64` or `super(random.Random, ...)`
    # is a second copy of that decision.
    found = []
    for path in sorted(Path(radionet.__file__).parent.glob("*.py")):
        if path.name == "util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            shift = isinstance(getattr(node, "op", None), ast.LShift)
            amount = getattr(node, "right", getattr(node, "value", None))
            folds = shift and isinstance(amount, ast.Constant) and amount.value == 64
            c_seed = (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "super"
                and bool(node.args) and ast.unparse(node.args[0]) in ("random.Random", "Random")
            )
            if folds or c_seed:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_ledger_holds_digests_and_every_group_is_checked():
    # tests/goldens.py alone hashes and pins bytes. A group that no other
    # test names as a string is an orphan: nothing checks it.
    hex_digest = re.compile(r"[0-9a-fA-F]{64}")
    found, literals = [], set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name == "goldens.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                found += [f"{path.name}:{node.lineno} imports hashlib" for m in modules if m == "hashlib"]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
                if hex_digest.fullmatch(node.value):
                    found.append(f"{path.name}:{node.lineno} pins a digest")
    found += [f"group {group!r} is checked by no test" for group in GOLDENS if group not in literals]
    assert found == []


def test_no_helper_is_defined_in_two_test_files():
    # A helper that two test files use lives once, in shared.py, layout.py or
    # goldens.py; a second definition is a copy that can drift from the first.
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    owners = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for owner in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(owner, definitions) and not owner.name.startswith("test_"):
                owners.setdefault(owner.name, []).append(path.name)
    assert {name: files for name, files in owners.items() if len(files) > 1} == {}


def test_every_public_name_has_a_reader_outside_the_tests():
    # Public API that only the tests read is dead code too. The benchmark
    # counts as a reader: its tracer wraps functions and its oracles call them.
    package = _parsed(Path(radionet.__file__).parent)
    benchmark = _parsed(Path(__file__).parents[1] / "perfbench")
    assert benchmark, "the benchmark's sources are missing"
    public = {d.name for tree in package for d in _definitions(tree) if not d.name.startswith("_")}
    unread = public - set().union(*(_names_read(tree, loose=True) for tree in package + benchmark))
    assert sorted(unread) == sorted(UNREAD_PUBLIC_NAMES)

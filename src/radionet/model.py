"""Radio network graphs and the single-round collision semantics.

The model is synchronous: in a round every node either transmits one packet
or listens, and a listening node receives a packet iff exactly one of its
neighbors transmits. Two or more transmitting neighbors collide and deliver
nothing; a transmitting node never receives.

Two graph shapes are supported. `BipartiteRadioNet` holds senders on one
side and class-structured receivers on the other, with adjacency stored
receiver-side only (the sender-side incidence matrix is derived on demand
and cached). `Radius2Net` wraps a bipartite core with a single source node
attached to every sender plus optional degree-1 void nodes, giving a
connected network of radius 2.

Both shapes cache one neighbor bit mask per listening node, and every
exactly-one test in the package works on those masks: a node with mask m
hears transmit set T iff x = m & T is nonzero and x & (x - 1) == 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Union

import numpy as np

from .errors import InputError

#: First line of the on-disk network format.
FORMAT_HEADER = "radionet v1"


@dataclass(frozen=True)
class Receiver:
    """One receiver: its degree class and its sorted sender neighbor list.

    Generated instances keep degree == 2**class_index; hand-built nets may
    violate that, which `validate` reports rather than rejecting here.
    class_index 0 is the degenerate class for hand-built degree-1 receivers.
    """

    class_index: int
    neighbors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "neighbors", tuple(int(u) for u in self.neighbors))

    @property
    def degree(self) -> int:
        return len(self.neighbors)


@dataclass(frozen=True)
class BipartiteRadioNet:
    """Bipartite radio network: `sender_count` senders, explicit receivers.

    Only receiver->sender adjacency exists; there are no sender-sender or
    receiver-receiver edges. Immutable after construction, so round
    evaluation is reentrant and safe to share across workers.
    """

    sender_count: int
    receivers: tuple[Receiver, ...]
    class_count: int = -1  # -1: derive from the receivers

    def __post_init__(self):
        if self.sender_count < 1:
            raise InputError("sender_count must be a positive integer")
        object.__setattr__(self, "receivers", tuple(self.receivers))
        if self.class_count < 0:
            derived = max((r.class_index for r in self.receivers), default=0)
            object.__setattr__(self, "class_count", derived)

    @property
    def receiver_count(self) -> int:
        return len(self.receivers)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Senders x receivers 0/1 matrix: entry (u, r) is 1 iff u is a neighbor of r.

        Derived, cached and read-only, like the neighbor masks.
        """
        matrix = np.zeros((self.sender_count, self.receiver_count), dtype=np.int8)
        for idx, receiver in enumerate(self.receivers):
            matrix[list(receiver.neighbors), idx] = 1
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Each receiver's senders as a bit mask: bit u is set iff u is a neighbor."""
        return tuple(bit_mask(r.neighbors) for r in self.receivers)


def bit_mask(ids: Iterable[int]) -> int:
    """The ids as one bit mask: bit u is set iff u is in `ids`."""
    mask = 0
    for u in ids:
        mask |= 1 << u
    return mask


def sole_sender(mask: int, bits: int) -> Optional[int]:
    """The reception rule on bit masks: the one transmitter among the neighbors.

    `mask` holds a node's neighbors and `bits` the transmit set. Returns the
    id of the single transmitting neighbor, or None on silence or collision.
    """
    x = mask & bits
    if x and not x & (x - 1):
        return x.bit_length() - 1
    return None


@dataclass(frozen=True)
class Radius2Net:
    """Bipartite core plus one source node and `void_count` filler nodes.

    The source is adjacent to every sender and every void node; voids have
    no other edges. Node ids are laid out source, senders, receivers, voids
    so a transmit set over the whole network is a single bit-vector.
    """

    core: BipartiteRadioNet
    void_count: int

    def __post_init__(self):
        if self.void_count < 0:
            raise InputError("void_count must be nonnegative")

    @property
    def eta(self) -> int:
        """Node count of the core (senders + receivers)."""
        return self.core.sender_count + self.core.receiver_count

    @property
    def total_nodes(self) -> int:
        return 1 + self.eta + self.void_count

    # Node id layout.
    SOURCE = 0

    def sender_node(self, sender_index: int) -> int:
        return 1 + sender_index

    def receiver_node(self, receiver_index: int) -> int:
        return 1 + self.core.sender_count + receiver_index

    def void_node(self, void_index: int) -> int:
        return 1 + self.eta + void_index

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Undirected neighbor lists over the node-id layout."""
        core = self.core
        adj: list[list[int]] = [[] for _ in range(self.total_nodes)]
        for j in range(core.sender_count):
            adj[self.SOURCE].append(self.sender_node(j))
            adj[self.sender_node(j)].append(self.SOURCE)
        for i, receiver in enumerate(core.receivers):
            node = self.receiver_node(i)
            for u in receiver.neighbors:
                adj[node].append(self.sender_node(u))
                adj[self.sender_node(u)].append(node)
        for t in range(self.void_count):
            adj[self.SOURCE].append(self.void_node(t))
            adj[self.void_node(t)].append(self.SOURCE)
        return tuple(tuple(sorted(l)) for l in adj)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Each node's neighbors as a bit mask over the node-id layout."""
        return tuple(bit_mask(nbrs) for nbrs in self.adjacency)


RadioNet = Union[BipartiteRadioNet, Radius2Net]


@dataclass(frozen=True)
class TransmitSet:
    """A set of transmitting node ids as a fixed-width bit-vector.

    For a bipartite net the width is sender_count and bits index senders;
    for a radius-2 net the width is total_nodes and bits index any node.
    """

    width: int
    bits: int

    def __post_init__(self):
        if self.width < 0:
            raise InputError("width must be nonnegative")
        if not 0 <= self.bits < (1 << self.width):
            raise InputError(
                f"transmit mask {self.bits:#x} out of range for width {self.width}"
            )

    @classmethod
    def from_members(cls, width: int, members: Iterable[int]) -> "TransmitSet":
        bits = 0
        for m in members:
            m = int(m)
            if not 0 <= m < width:
                raise InputError(f"node id {m} out of range [0, {width})")
            bits |= 1 << m
        return cls(width, bits)

    def members(self) -> tuple[int, ...]:
        members = []
        bits = self.bits
        while bits:
            low = bits & -bits
            members.append(low.bit_length() - 1)
            bits ^= low
        return tuple(members)

    def __contains__(self, node: int) -> bool:
        return 0 <= node < self.width and bool((self.bits >> node) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    @property
    def hex_mask(self) -> str:
        return format(self.bits, "x")


@dataclass(frozen=True)
class RoundOutcome:
    """Result of one round: who received, from whom, and how many in total.

    `received[i]` indexes receivers for a bipartite net and node ids for a
    radius-2 net. `source_of[i]` is the unique transmitting neighbor that
    delivered the packet, or None where nothing was received.
    """

    received: tuple[bool, ...]
    reception_count: int
    source_of: tuple[Optional[int], ...]


def round_step(net: RadioNet, transmitters: TransmitSet) -> RoundOutcome:
    """Evaluate one synchronous round of the exactly-one reception rule.

    Pure function: identical inputs give identical outcomes. Listening node
    v receives iff exactly one neighbor of v transmits; transmitting nodes
    never receive.
    """
    if isinstance(net, Radius2Net):
        width = net.total_nodes
    elif isinstance(net, BipartiteRadioNet):
        width = net.sender_count
    else:
        raise InputError(f"unsupported network type {type(net).__name__}")
    if transmitters.width != width:
        raise InputError(f"transmit set width {transmitters.width} != net width {width}")
    bits = transmitters.bits
    sources = [sole_sender(mask, bits) for mask in net.neighbor_masks]
    if isinstance(net, Radius2Net):
        for node in transmitters.members():  # transmitting nodes never receive
            sources[node] = None
    received = tuple(source is not None for source in sources)
    return RoundOutcome(received, sum(received), tuple(sources))


def radius(net: Radius2Net) -> Union[int, float]:
    """Graph radius: minimum over nodes of eccentricity, by BFS layering.

    Returns math.inf when the graph is disconnected (infinite eccentricity
    as the error value). The search stops once an eccentricity meets the
    degree floor: 1 if some node is adjacent to all others, else 2. On a
    generated wrapper the source, node 0, meets it with a single BFS.
    """
    adjacency = net.adjacency
    n = len(adjacency)
    if n == 1:
        return 0
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, nbrs in enumerate(adjacency):
        indptr[i + 1] = indptr[i] + len(nbrs)
    indices = np.fromiter(
        (u for nbrs in adjacency for u in nbrs), dtype=np.int64, count=int(indptr[-1])
    )
    floor = 1 if max(len(nbrs) for nbrs in adjacency) == n - 1 else 2
    best: Union[int, float] = math.inf
    for start in range(n):
        ecc = _eccentricity(indptr, indices, n, start)
        if ecc == math.inf:
            return math.inf
        if ecc < best:
            best = ecc
            if best <= floor:  # no node can do better
                break
    return int(best)


def _eccentricity(indptr: np.ndarray, indices: np.ndarray, n: int, start: int):
    """Eccentricity of `start` via vectorized layer-by-layer BFS."""
    dist = np.full(n, -1, dtype=np.int64)
    dist[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        starts = indptr[frontier]
        lens = indptr[frontier + 1] - starts
        total = int(lens.sum())
        if total == 0:
            break
        # Gather all neighbor slices of the frontier in one shot.
        pos = np.cumsum(lens) - lens
        flat = np.arange(total, dtype=np.int64) - np.repeat(pos, lens) + np.repeat(starts, lens)
        neighbors = indices[flat]
        fresh = neighbors[dist[neighbors] < 0]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        depth += 1
        dist[frontier] = depth
    if (dist < 0).any():
        return math.inf
    return depth


@dataclass(frozen=True)
class ValidationReport:
    """Invariant check results; `violations` is empty when the net is clean."""

    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(net: BipartiteRadioNet) -> ValidationReport:
    """Check structural invariants and report every violation found.

    Never raises: the report carries failures with receiver indices so
    callers can inspect malformed inputs.
    """
    problems = _structure_problems(net)
    for i, receiver in enumerate(net.receivers):
        c = receiver.class_index
        if c >= 0 and receiver.degree != 1 << c:
            problems.append(
                f"receiver {i}: degree {receiver.degree} != 2^{c} (degree != 2^i for class {c})"
            )
    return ValidationReport(tuple(problems))


def _structure_problems(net: BipartiteRadioNet) -> list[str]:
    """Violations that make the reception rule meaningless; loading rejects these.

    A degree other than 2^class is not among them: hand-built nets may have it.
    """
    problems: list[str] = []
    max_class = 0
    for i, receiver in enumerate(net.receivers):
        nbrs = receiver.neighbors
        if receiver.class_index < 0:
            problems.append(f"receiver {i}: negative class index {receiver.class_index}")
        max_class = max(max_class, receiver.class_index)
        if len(set(nbrs)) != len(nbrs):
            problems.append(f"receiver {i}: duplicate neighbor in {list(nbrs)}")
        elif any(b <= a for a, b in zip(nbrs, nbrs[1:])):
            problems.append(f"receiver {i}: neighbors not sorted increasing {list(nbrs)}")
        for u in nbrs:
            if not 0 <= u < net.sender_count:
                problems.append(f"receiver {i}: neighbor {u} out of range [0, {net.sender_count})")
    if net.class_count < max_class:
        problems.append(
            f"class_count {net.class_count} below largest receiver class {max_class}"
        )
    return problems


# ---------------------------------------------------------------------------
# Line-oriented text serialization. Deterministic (sorted neighbor lists) so
# equal networks produce byte-identical files.
# ---------------------------------------------------------------------------


def dumps(net: RadioNet) -> str:
    """Serialize a network to the `radionet v1` text format."""
    core = net.core if isinstance(net, Radius2Net) else net
    lines = [f"{FORMAT_HEADER} {core.sender_count} {core.receiver_count}"]
    for receiver in core.receivers:
        parts = [str(receiver.class_index)]
        parts.extend(str(u) for u in sorted(receiver.neighbors))
        lines.append(" ".join(parts))
    if isinstance(net, Radius2Net):
        lines.append(f"radius2 {net.total_nodes} {net.void_count}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> RadioNet:
    """Parse the `radionet v1` format; the `radius2` footer selects the wrapper.

    Raises InputError on any structural violation: bad header or footer, a
    negative count, or neighbor ids out of range, repeated or unsorted.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise InputError("empty network file")
    header = lines[0].split()
    if len(header) != 4 or " ".join(header[:2]) != FORMAT_HEADER:
        raise InputError(f"bad header {lines[0]!r}; expected '{FORMAT_HEADER} <senders> <receivers>'")
    try:
        sender_count, receiver_count = int(header[2]), int(header[3])
    except ValueError as exc:
        raise InputError(f"bad header counts in {lines[0]!r}") from exc
    if receiver_count < 0:
        raise InputError(f"negative receiver count in {lines[0]!r}")
    body = lines[1:]
    if len(body) not in (receiver_count, receiver_count + 1):
        raise InputError(
            f"expected {receiver_count} receiver lines (+ optional footer), got {len(body)}"
        )
    receivers = []
    for line_no, line in enumerate(body[:receiver_count], start=2):
        fields = line.split()
        try:
            values = [int(x) for x in fields]
        except ValueError as exc:
            raise InputError(f"line {line_no}: non-integer field in {line!r}") from exc
        if not values:
            raise InputError(f"line {line_no}: empty receiver line")
        receivers.append(Receiver(values[0], tuple(values[1:])))
    net = BipartiteRadioNet(sender_count, tuple(receivers))
    problems = _structure_problems(net)
    if problems:
        raise InputError(f"malformed net: {problems[0]}")
    if len(body) == receiver_count:
        return net
    footer = body[-1].split()
    if len(footer) != 3 or footer[0] != "radius2":
        raise InputError(f"bad footer {body[-1]!r}; expected 'radius2 <total> <voids>'")
    try:
        total_nodes, void_count = int(footer[1]), int(footer[2])
    except ValueError as exc:
        raise InputError(f"bad footer counts in {body[-1]!r}") from exc
    wrapped = Radius2Net(net, void_count)
    if wrapped.total_nodes != total_nodes:
        raise InputError(
            f"footer total {total_nodes} != 1 + {wrapped.eta} + {void_count}"
        )
    return wrapped


def save(net: RadioNet, path: str) -> None:
    from .util import atomic_write_text

    atomic_write_text(path, dumps(net))


def load(path: str) -> RadioNet:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    return loads(text)

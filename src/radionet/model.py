"""Radio network graphs and the single-round collision semantics.

The model is synchronous: in a round every node either transmits one packet
or listens, and a listening node receives a packet iff exactly one of its
neighbors transmits. Two or more transmitting neighbors collide and deliver
nothing; a transmitting node never receives.

Two graph shapes are supported. `BipartiteRadioNet` holds senders on one
side and class-structured receivers on the other, with adjacency stored
receiver-side only (the sender-side reach masks are derived on demand and
cached). `Radius2Net` wraps a bipartite core with a single source node
attached to every sender plus optional degree-1 void nodes, giving a
connected network of radius 2; `radius` works the radius out from that
shape, and only the benchmark's oracle reads the node-level `adjacency`.
Rounds run on the core only: senders transmit and receivers listen. The
source alone reaches every sender and no receiver, so a broadcast plays
the source's rounds without evaluating them.

The rule has two forms on Python int bit sets, and every exactly-one test
in the package uses one of them:

- receiver side (used by Monte Carlo): a receiver with neighbor mask m, its
  `Receiver.neighbors`, hears transmit set T iff popcount(m & T) == 1;
- sender side (`fold`): fold each transmitting sender's reach mask, the
  receivers it reaches, into the receivers at one or more, two or more and
  three or more transmitting neighbors, `three |= two & m; two |= one & m;
  one |= m`. A receiver hears the round iff it is in `one & ~two`.
  `round_step` reads a round from this fold, and the simulator
  (`broadcast.run_broadcast`) plays every round through `round_step`;
  `verifier.climb` reads its flip gains from the fold; the receivers at
  zero and at exactly one are the bit sets of the exhaustive enumeration's
  half tables (`verifier._half_tables`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import BudgetError, InputError

#: First line of the on-disk network format.
FORMAT_HEADER = "radionet v1"

#: The node budget: the largest `gen --n` (n' = 1024 senders and 10 classes,
#: 10240 receivers) and the largest total a `radius2` footer may declare.
MAX_N = 4**10

#: The largest sender and receiver counts a net file may declare; a net
#: generated at the node budget has 1024 and 10240.
MAX_SENDERS = 1 << 11
MAX_RECEIVERS = 1 << 14


@dataclass(frozen=True)
class Receiver:
    """One receiver: its degree class and its sender neighbors as a bit mask.

    Bit u of `neighbors` is set iff sender u is a neighbor. Generated
    instances keep neighbors.bit_count() == 2**class_index; hand-built nets
    may violate that, and neither construction nor loading rejects it.
    class_index 0 is the degenerate class for hand-built degree-1 receivers.
    """

    class_index: int
    neighbors: int


@dataclass(frozen=True)
class BipartiteRadioNet:
    """Bipartite radio network: `sender_count` senders, explicit receivers.

    Only receiver->sender adjacency exists; there are no sender-sender or
    receiver-receiver edges. Immutable after construction, so round
    evaluation is reentrant. A receiver with a negative class index, or a
    neighbor mask that is negative or has a bit at or past sender_count, is
    an InputError.
    """

    sender_count: int
    receivers: tuple[Receiver, ...]

    def __post_init__(self):
        if self.sender_count < 1:
            raise InputError("sender_count must be a positive integer")
        object.__setattr__(self, "receivers", tuple(self.receivers))
        for i, receiver in enumerate(self.receivers):
            if receiver.class_index < 0:
                raise InputError(f"malformed net: receiver {i}: negative class index {receiver.class_index}")
            if not 0 <= receiver.neighbors < 1 << self.sender_count:
                raise InputError(
                    f"malformed net: receiver {i}: neighbor mask {receiver.neighbors:#x}"
                    f" out of range for {self.sender_count} senders"
                )

    @property
    def receiver_count(self) -> int:
        return len(self.receivers)

    @cached_property
    def reach_masks(self) -> tuple[int, ...]:
        """Each sender's receivers as a bit mask: bit r is set iff the sender reaches receiver r.

        The transpose of the receivers' neighbor masks, through their binary
        digits: one row per receiver, the last receiver first, each mask
        written as n' digits with sender 0 last. Column j read top to bottom
        is then the reach mask of sender n' - 1 - j, receiver 0 its lowest
        digit. A leading row of zeros adds nothing to any value and keeps
        the n' columns when there are no receivers.
        """
        width = f"0{self.sender_count}b"
        rows = [format(0, width)] + [format(r.neighbors, width) for r in reversed(self.receivers)]
        return tuple(int("".join(column), 2) for column in zip(*rows))[::-1]


def bit_mask(ids: Iterable[int]) -> int:
    """The ids as one bit mask: bit u is set iff u is in `ids`."""
    mask = 0
    for u in ids:
        mask |= 1 << u
    return mask


def bit_members(mask: int) -> tuple[int, ...]:
    """The ids of the set bits of `mask`, ascending: the inverse of `bit_mask`."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


@dataclass(frozen=True)
class Radius2Net:
    """Bipartite core plus one source node and `void_count` filler nodes.

    The source is adjacent to every sender and every void node; voids have
    no other edges, and a receiver without a sender is an InputError. The
    package works from that shape: `radius` reads it and rounds are
    evaluated on `core`. Only `adjacency` numbers the nodes.
    """

    core: BipartiteRadioNet
    void_count: int

    def __post_init__(self):
        if self.void_count < 0:
            raise InputError("void_count must be nonnegative")
        for i, receiver in enumerate(self.core.receivers):
            if not receiver.neighbors:
                raise InputError(f"malformed net: receiver {i} has no sender neighbour; no broadcast reaches it")

    @property
    def eta(self) -> int:
        """Node count of the core (senders + receivers)."""
        return self.core.sender_count + self.core.receiver_count

    @property
    def total_nodes(self) -> int:
        return 1 + self.eta + self.void_count

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Undirected neighbor lists: node 0 the source, then senders, receivers, voids.

        Each list is ascending. Nothing in the package reads it: it is the
        reference layout the benchmark's oracle checks `radius` against.
        """
        first_sender, first_receiver, first_void = 1, 1 + self.core.sender_count, 1 + self.eta
        lists = [[*range(first_sender, first_receiver), *range(first_void, self.total_nodes)]]
        lists += [[0] for _ in range(self.core.sender_count)]
        for r, receiver in enumerate(self.core.receivers):
            senders = [first_sender + u for u in bit_members(receiver.neighbors)]
            lists.append(senders)
            for node in senders:
                lists[node].append(first_receiver + r)
        lists += [[0] for _ in range(self.void_count)]
        return tuple(map(tuple, lists))


RadioNet = BipartiteRadioNet | Radius2Net


def fold(
    reach: Sequence[int], members: Iterable[int], start: tuple[int, int, int] = (0, 0, 0)
) -> tuple[int, int, int]:
    """The receivers at one or more, two or more and three or more transmitting neighbors.

    `reach[u]` holds the receivers of sender u as a bit mask and `members`
    the transmitting senders, in any order. `start` is the three sets of an
    earlier fold, which this one extends by `members`.
    """
    one, two, three = start
    for u in members:
        m = reach[u]
        three |= two & m
        two |= one & m
        one |= m
    return one, two, three


def round_step(net: BipartiteRadioNet, members: Iterable[int]) -> int:
    """One synchronous round on a core: the receivers that hear it, as a bit set.

    `members` are the transmitting senders, in any order, and receiver r
    hears iff exactly one of its senders transmits. The receivers that hear
    sender u alone are `net.reach_masks[u]` and the result. One `fold` of the
    transmitters' reach masks, O(|T|) big-int operations, not one step per
    receiver. Pure: identical inputs give identical outcomes.
    """
    one, two, _ = fold(net.reach_masks, members)
    return one & ~two


def radius(net: Radius2Net) -> int:
    """Graph radius, the minimum over nodes of eccentricity, from the wrapper's shape.

    The source is adjacent to every sender and void, and every receiver to
    a sender: its eccentricity is 1 without receivers, else 2. A node of
    eccentricity 1 is adjacent to all others. A receiver or a void never
    is; a sender is only when it is the one sender and there are no voids.
    So the radius is 1 in those two cases and 2 otherwise. Reads no
    neighbor mask, `adjacency` or `reach_masks`.
    """
    return 1 if not net.core.receivers or (net.core.sender_count == 1 and not net.void_count) else 2


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
        parts.extend(str(u) for u in bit_members(receiver.neighbors))
        lines.append(" ".join(parts))
    if isinstance(net, Radius2Net):
        lines.append(f"radius2 {net.total_nodes} {net.void_count}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> RadioNet:
    """Parse the `radionet v1` format; the `radius2` footer selects the wrapper.

    Raises InputError on any structural violation: bad header or footer, a
    negative count or class index, or neighbor ids out of range, repeated or
    unsorted. A header past MAX_SENDERS or MAX_RECEIVERS, or a footer total
    past MAX_N, is a BudgetError.
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
    if sender_count > MAX_SENDERS or receiver_count > MAX_RECEIVERS:
        raise BudgetError(
            f"header {lines[0]!r} is past the budget of {MAX_SENDERS} senders and {MAX_RECEIVERS} receivers"
        )
    body = lines[1:]
    if len(body) not in (receiver_count, receiver_count + 1):
        raise InputError(
            f"expected {receiver_count} receiver lines (+ optional footer), got {len(body)}"
        )
    receivers = []
    for i, line in enumerate(body[:receiver_count]):
        try:
            class_index, *ids = [int(x) for x in line.split()]
        except ValueError as exc:
            raise InputError(f"line {i + 2}: non-integer field in {line!r}") from exc
        if any(b <= a for a, b in zip(ids, ids[1:])):
            problem = "duplicate neighbor in" if len(set(ids)) < len(ids) else "neighbors not sorted increasing"
            raise InputError(f"malformed net: receiver {i}: {problem} {ids}")
        # The ids are sorted, so the ends bound them all. The range is checked
        # before bit_mask: a negative id is no shift count, and a huge one
        # would exhaust memory.
        if ids and not 0 <= ids[0] <= ids[-1] < sender_count:
            u = next(u for u in ids if not 0 <= u < sender_count)
            raise InputError(f"malformed net: receiver {i}: neighbor {u} out of range [0, {sender_count})")
        receivers.append(Receiver(class_index, bit_mask(ids)))
    net = BipartiteRadioNet(sender_count, tuple(receivers))
    if len(body) == receiver_count:
        return net
    footer = body[-1].split()
    if len(footer) != 3 or footer[0] != "radius2":
        raise InputError(f"bad footer {body[-1]!r}; expected 'radius2 <total> <voids>'")
    try:
        total_nodes, void_count = int(footer[1]), int(footer[2])
    except ValueError as exc:
        raise InputError(f"bad footer counts in {body[-1]!r}") from exc
    if total_nodes > MAX_N:
        raise BudgetError(f"footer {body[-1]!r} is past the node budget of {MAX_N}")
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

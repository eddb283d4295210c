"""The node-level view of a radius-2 net, rebuilt from its definition.

Node 0 is the source; the senders, the receivers and the voids follow, each
group in index order. The source is adjacent to every sender and every
void, and a receiver to the senders in its neighbor mask. The package keeps
no node ids: its `adjacency` is the benchmark oracle's copy of this layout,
and the tests compare the two.
"""

SOURCE = 0


def sender_node(sender_index):
    return 1 + sender_index


def receiver_node(net, receiver_index):
    return 1 + net.core.sender_count + receiver_index


def void_node(net, void_index):
    return 1 + net.core.sender_count + net.core.receiver_count + void_index


def layout_neighbors(net):
    """Each node's neighbors as a set, keyed by node id."""
    core = net.core
    nbrs = {node: set() for node in range(1 + core.sender_count + core.receiver_count + net.void_count)}

    def link(a, b):
        nbrs[a].add(b)
        nbrs[b].add(a)

    for u in range(core.sender_count):
        link(SOURCE, sender_node(u))
    for t in range(net.void_count):
        link(SOURCE, void_node(net, t))
    for r, receiver in enumerate(core.receivers):
        for u in range(core.sender_count):
            if receiver.neighbors >> u & 1:
                link(receiver_node(net, r), sender_node(u))
    return nbrs

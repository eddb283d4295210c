"""The suite's golden ledger: every pinned sha256, and the one check against it.

`GOLDENS` maps a group name to one digest, or to a dict of file name to
digest. A test builds the group's bytes and calls `check(group, data)`; no
other test module hashes anything. The rule: a digest is never edited. A
schema bump adds a projection here, which turns the new artifacts back into
the bytes that were pinned, and records new digests beside the old ones.
`legacy_report_repr` and `legacy_search_repr` are such projections: they
turn today's objects into the reprs that were pinned.
"""

import hashlib

GOLDENS = {
    # `analyze --grid-nprime 2..256`, recorded before the bound chain moved to
    # integer arithmetic.
    "analyze 2..256": "12105061d48b482c7f6369ac61a4e03d81fbb92fb3ddac9f97485275cea6a9af",
    # The n=256 simulate artifacts and series, recorded before the simulator
    # moved onto the bipartite core.
    "simulate n=256": {
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
    },
    # The same six runs at n=1024 (n' = 32, past the enumeration budget, so
    # maxrec comes from the search), recorded before the routing receivers
    # kept one holder set per message.
    "simulate n=1024": {
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
    },
    # The reprs of the 192 broadcast reports of the report grid (in
    # `legacy_report_repr` form), recorded before `Radius2Net` refused a
    # receiver without a sender.
    "report grid": "4df84f5c432d93fb4863d044417698cc2f5e90384c618c77722c02bba7639082",
    # The reprs of the n' = 32 and 64 searches (in `legacy_search_repr`
    # form), recorded before the climb took its matrix already converted.
    "search grid": "876ccc0a775738679d19ed009a7c67c3684a76939b02bc6760ec1dabe8f45e26",
    # The reprs of `adjacency` on generated radius-2 wrappers, recorded while
    # the package still numbered nodes through per-kind helpers. The
    # benchmark's oracle reads this layout.
    "layout": "6f9d5340ccfe457b2e0a04c45f32335dfa3a0edb9c2ec0286fc7805c09433856",
    # `verify --exact --threshold 20` on `gen --n 256 --seed 7 --radius2`
    # (h.net), and `verify --search --seed 3` on `gen --n 1024 --seed 5
    # --radius2` (g.net), recorded at schema version 1, before the first
    # schema bump.
    "verify n=256,1024": {
        "exact.json": "d015e420aaecdc3da8daa2dd54c7c8322c93862a9b0f03b256b75109d4b29163",
        "search.json": "13f9e68828b326c11b7e66e376a3eaaa28f37f90c47cab050b9b52f0885f4955",
    },
    # `gen --radius2` net files, recorded at schema version 1, before the
    # first schema bump. The layout digest leaves out every receiver's class
    # index; these bytes keep it.
    "gen n=256,4096": {
        "n256-seed0.net": "6738b69de3161102a437bfb4a85d3e3c0cd110be2799446999992a8f368bc3bb",
        "n256-seed7.net": "162469acc6837c12ea1ecfa5d94b9158ab7fa441fe659dc4de737253c68dda77",
        "n4096-seed0.net": "4a02ca1a57f2c2b73a2fdd805922ad35b814fa8ad39d285f6d857606c600f829",
        "n4096-seed7.net": "20c3081834fef2f3da00486a48c5c38a315535295f896785934a9ee3388eb5c4",
    },
}


def check(group, data):
    """Assert that `data`, bytes or a {name: bytes} dict, hashes to `group`'s digests."""
    pinned = GOLDENS[group]
    if isinstance(data, bytes):
        data, pinned = {group: data}, {group: pinned}
    actual = {name: hashlib.sha256(blob).hexdigest() for name, blob in data.items()}
    mismatched = [
        f"{name}: sha256 {actual.get(name)}, pinned {pinned.get(name)}"
        for name in sorted(pinned.keys() | actual.keys())
        if actual.get(name) != pinned.get(name)
    ]
    assert not mismatched, f"golden {group!r}: " + "; ".join(mismatched)


def legacy_report_repr(report, maxrec):
    """The report's repr as it was pinned, when the report still carried the
    exact maxrec and its method; both now go only into the simulate artifact."""
    head, series = repr(report).split(", series=")
    return f"{head}, maxrec={maxrec}, maxrec_method='exact', series={series}"


def legacy_search_repr(net, result):
    """`repr(result)` as it read while the witness was a TransmitSet of sender_count bits."""
    return (
        f"MaxReceptionResult(best_count={result.best_count}, witness=TransmitSet("
        f"width={net.sender_count}, bits={result.witness}), method={result.method!r}, "
        f"subsets_examined={result.subsets_examined})"
    )

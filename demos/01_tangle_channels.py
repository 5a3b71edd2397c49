#!/usr/bin/env python3
"""Tour of the DAG ledger: appends, branching, channels, snapshots.

Run:  python3 demos/01_tangle_channels.py
"""

import tempfile
from pathlib import Path

from masksim import ChannelMode, MamChannel, Tangle, mam_fetch

# %% A fresh tangle holds only the self-approving genesis transaction.
tangle = Tangle(rng_seed=7)
print(f"fresh tangle: {len(tangle)} transaction, tips = {len(tangle.tips)}")

# %% Serial appends approve the current tips.  When two publishers stage
# their tip selection concurrently, both attach to the same tip and the
# DAG branches.
p1 = tangle.select_tips()
p2 = tangle.select_tips()
a = tangle.append(b"left branch", parents=p1)
b = tangle.append(b"right branch", parents=p2)
print(f"after two staged appends the tip set is {len(tangle.tips)} wide")
c = tangle.append(b"merge")
print(f"the next append approves: "
      f"{[t.hex()[:8] for t in tangle.transactions[c].parents]}")

# %% Channels: ordered message streams at derived addresses.
root = bytes(range(32))
for mode, key in ((ChannelMode.PUBLIC, None),
                  (ChannelMode.PRIVATE, None),
                  (ChannelMode.RESTRICTED, b"side-key")):
    channel = MamChannel(mode, root, side_key=key)
    for i in range(3):
        channel.publish(tangle, f"{mode.value} message {i}".encode())
    fetched = mam_fetch(tangle, channel.base_address, mode, key)
    print(f"{mode.value:>10}: address {channel.base_address.hex()[:12]}..., "
          f"fetched {len(fetched)} messages in order")

# %% Restricted channels are unreadable without the side key.
restricted = MamChannel(ChannelMode.RESTRICTED, root, side_key=b"side-key")
stolen = mam_fetch(tangle, restricted.base_address, ChannelMode.RESTRICTED,
                   b"wrong-key")
print(f"fetch with the wrong side key recovers {len(stolen)} messages")

# %% Snapshots round-trip and re-verify every invariant on load.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "ledger.json"
    tangle.save(path)
    loaded = Tangle.load(path)
    print(f"snapshot: {len(loaded)} transactions reloaded, "
          f"violations: {loaded.verify() or 'none'}")
    print(f"stats: {loaded.stats()}")

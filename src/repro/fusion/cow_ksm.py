"""The "unmerge on any page fault" KSM variant of Fig. 4.

The paper modifies KSM to unmerge on *any* access (copy-on-access) in
order to measure how much fusion rate the S⊕F principle costs.  Here
that is simply KSM with read protection switched on — kept as its own
class so experiments and docs can name it.  It inherits KSM's
content-identity fast paths (``same_content`` revalidation, arena-backed
digests); the frequent copy-on-access unmerges it triggers are O(1)
content-id moves on the columnar store.
"""

from __future__ import annotations

from repro.fusion.ksm import Ksm
from repro.params import DEFAULT_FUSION, FusionConfig


class CopyOnAccessKsm(Ksm):
    """KSM that copy-on-accesses merged pages instead of copy-on-write."""

    name = "coa-ksm"

    def __init__(self, config: FusionConfig = DEFAULT_FUSION) -> None:
        super().__init__(config=config, protect_reads=True)

"""Known-good corpus for no-blocking-in-async: the ``_store_call`` idiom —
store work named by method and driven through its steps by
``_store_call``, which yields to the loop between shard decodes — and
non-blocking awaits."""

import asyncio
import time


class Handler:
    def __init__(self, store):
        self.store = store

    async def _store_call(self, method, *args, **kwargs):
        steps = self.store.steps(method, *args, **kwargs)
        while True:
            try:
                next(steps)
            except StopIteration as done:
                return done.value
            await asyncio.sleep(0)  # async sleep never blocks the loop

    async def op_range(self, lo, hi):
        # The sanctioned idiom: the call yields before every decode.
        return await self._store_call("edges_in_range", lo, hi)

    async def op_degree(self, vertex):
        return await self._store_call("degrees", [vertex])

    async def op_egonet(self, vertex):
        # The egonet plan's steps yield too, across both of its gathers.
        return await self._store_call("egonet_edges", vertex,
                                      with_payload=True)

    def sync_helper(self, lo, hi):
        # Sync scope: runs wherever it is called, allowed to block.
        time.sleep(0)
        return self.store.edges_in_range(lo, hi)

    async def op_meta(self):
        # Attribute *reads* on the store are manifest-sized, not decodes.
        return {"vertices": self.store.n_vertices}

"""Known-good corpus for no-blocking-in-async: the ``_run_store`` idiom —
store work wrapped in a lambda/def handed to ``_run_store`` — and
non-blocking awaits."""

import asyncio
import time


class Handler:
    def __init__(self, store, loop, executor):
        self.store = store
        self._loop = loop
        self._executor = executor

    async def _run_store(self, fn, *args):
        return await self._loop.run_in_executor(self._executor, fn, *args)

    async def op_range(self, lo, hi):
        # The sanctioned idiom: the decode happens on the pool; the
        # lambda body is a sync scope, exempt by design.
        return await self._run_store(
            lambda: self.store.edges_in_range(lo, hi))

    async def op_degree(self, vertex):
        await asyncio.sleep(0)  # async sleep never blocks the loop
        return await self._run_store(self.store.degree, vertex)

    async def op_egonet(self, vertex):
        # The egonet plan runs where _run_store says, not inline here.
        return await self._run_store(
            lambda: self.store.egonet_edges(vertex, with_payload=True))

    def sync_helper(self, lo, hi):
        # Sync scope: runs on the executor, allowed to block.
        time.sleep(0)
        return self.store.edges_in_range(lo, hi)

    async def op_meta(self):
        # Attribute *reads* on the store are manifest-sized, not decodes.
        return {"vertices": self.store.n_vertices}

"""Known-bad corpus for no-blocking-in-async: blocking work inlined in
async handlers instead of going through ``_store_call``, which yields to
the loop between shard decodes."""

import socket
import time
from time import sleep as pause


class Handler:
    def __init__(self, store):
        self.store = store

    async def op_range(self, lo, hi):
        # BAD: every decode of the range in one turn of the event loop
        return self.store.edges_in_range(lo, hi)

    async def op_degree(self, vertex):
        time.sleep(0.01)  # BAD: blocks every connection
        return self._store.degree(vertex)  # BAD: decode via _store too

    async def op_egonet(self, vertex):
        # BAD: an egonet plan's two gathers, driven on the event loop
        return self.store.egonet_edges(vertex, with_payload=True)

    async def op_probe(self, host, port):
        pause(0.01)  # BAD: aliased time.sleep
        # BAD: blocking socket call inside the loop
        return socket.create_connection((host, port))

"""No reply is lost on a contended stream through a real server.

Two connections multiplex four sequential transaction slots each, over
six resources with shared locks upgraded to exclusive — the conversion
deadlocks the periodic pass resolves.  Every call must come back: a
deadlock victim restarts (``TransactionAborted``), and nothing else may
happen — no wait that runs out, no ``ServiceError``, no call left
hanging.  The server's count of commits is the clients', nothing was
refused as a protocol error and the table ends empty.
"""

import asyncio
import random

from repro.core.errors import TransactionAborted
from repro.service import AsyncLockClient, LockServer

CONNECTIONS = 2
SLOTS = 4
RIDS = 8
#: Seconds of load; the slots then finish the transaction they hold.
LOAD_SECONDS = 1.2
#: A call that has not come back by then is a lost reply.
CALL_DEADLINE = 2.0
#: Restarts one program may take before the slot moves on (starvation
#: is the detector's business, not the frame path's).
MAX_RESTARTS = 50


def program(rng):
    """Three S/X locks over a small rid space, then half of the S locks
    upgraded to X."""
    rids = rng.sample(range(RIDS), 3)
    steps = [("c{}".format(rid), "X" if rng.random() < 0.2 else "S")
             for rid in rids]
    steps.extend(
        (rid, "X") for rid, mode in list(steps)
        if mode == "S" and rng.random() < 0.5
    )
    return steps


def test_every_call_on_a_contended_stream_comes_back():
    async def go():
        loop = asyncio.get_running_loop()
        server = LockServer(period=0.02, policy="periodic")
        await server.start("127.0.0.1", 0)
        clients = [
            await AsyncLockClient.connect(server.host, server.port)
            for _ in range(CONNECTIONS)
        ]
        tally = {"commits": 0, "restarts": 0, "gave_up": 0}
        stop = loop.time() + LOAD_SECONDS

        async def call(awaitable):
            return await asyncio.wait_for(awaitable, CALL_DEADLINE)

        async def slot(client, seed):
            rng = random.Random(seed)
            while loop.time() < stop:
                steps = program(rng)
                for _ in range(MAX_RESTARTS):
                    tid = await call(client.begin())
                    try:
                        for rid, mode in steps:
                            granted = await call(
                                client.acquire(tid, rid, mode, timeout=5.0)
                            )
                            assert granted, "a wait ran out on {}".format(rid)
                        await call(client.commit(tid))
                    except TransactionAborted:
                        tally["restarts"] += 1
                        await call(client.abort(tid))
                    else:
                        tally["commits"] += 1
                        break
                else:
                    tally["gave_up"] += 1

        try:
            await asyncio.gather(*(
                slot(client, index * SLOTS + lane)
                for index, client in enumerate(clients)
                for lane in range(SLOTS)
            ))
            assert tally["commits"] > 0
            assert tally["restarts"] > 0, "the stream never deadlocked"
            assert server.stats.commits == tally["commits"]
            assert server.stats.protocol_errors == 0
            assert server.stats.wait_timeouts == 0
            assert server.core.waiters == {}
            assert str(server.manager.table).strip() == ""
        finally:
            for client in clients:
                await client.close()
            await server.aclose()

    asyncio.run(go())

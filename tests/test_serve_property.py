"""Property suite for the coalescer's bitwise guarantee (ISSUE 10).

Hypothesis generates interleavings of concurrent queries — mixed
ppr/rwr seeds, mixed deadlines, optional mid-stream ``DynamicMatrix``
update batches — and every coalesced column must come back
bitwise-identical to its solo run.  The solo reference is
``reply.solo()``: a fresh engine of the same configuration over the
operator snapshot captured at flush time, so the property holds even
when the graph mutates between flushes.  A deadline-expired query must
degrade (frozen iterate, flagged status) without perturbing a single
bit of its batch peers.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats.coo import COOMatrix
from repro.graphs.dynamic import DynamicMatrix, seeded_update_stream
from repro.graphs.rmat import rmat_graph
from repro.mining.pagerank import pagerank_operator
from repro.serve import QueryService, seeded_batch, seeded_solo
from tests.conftest import reference_solo_walk

N_NODES = 64


def small_graph(seed: int) -> COOMatrix:
    return rmat_graph(N_NODES, 256, seed=seed)


# ----------------------------------------------------------------------
# Batch-level property: columns of seeded_batch == seeded_solo
# ----------------------------------------------------------------------


seeds_strategy = st.lists(
    st.integers(min_value=0, max_value=N_NODES - 1),
    min_size=1, max_size=8,
)


class TestBatchProperty:
    @given(
        seeds=seeds_strategy,
        graph_seed=st.integers(min_value=0, max_value=4),
        alpha=st.sampled_from([0.5, 0.85, 0.9, 0.99]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_column_bitwise_equals_solo(
        self, seeds, graph_seed, alpha
    ):
        operator = pagerank_operator(small_graph(graph_seed))
        batch = seeded_batch(
            operator, N_NODES, seeds, alpha=alpha, tol=1e-9, max_iter=150
        )
        for seed, column in zip(seeds, batch):
            solo = seeded_solo(
                operator, N_NODES, seed, alpha=alpha, tol=1e-9,
                max_iter=150,
            )
            vector, iterations, converged = reference_solo_walk(
                operator, N_NODES, seed, alpha=alpha, tol=1e-9,
                max_iter=150,
            )
            assert column.iterations == solo.iterations == iterations
            assert column.converged == solo.converged == converged
            assert np.array_equal(column.vector, solo.vector)
            assert np.array_equal(column.vector, vector)

    @given(
        seeds=seeds_strategy,
        expired_mask=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_expired_columns_never_poison_peers(self, seeds, expired_mask):
        operator = pagerank_operator(small_graph(1))
        deadlines = [
            -1.0 if expired_mask[j] else None for j in range(len(seeds))
        ]
        mixed = seeded_batch(
            operator, N_NODES, seeds, alpha=0.85, tol=1e-9, max_iter=150,
            deadlines=deadlines,
        )
        for j, (seed, column) in enumerate(zip(seeds, mixed)):
            if expired_mask[j]:
                # Expired before the first step: frozen at the restart
                # vector, the iteration-0 point of the solo trajectory.
                assert column.expired and not column.converged
                expected = np.zeros(N_NODES)
                expected[seed] = 1.0
                assert np.array_equal(column.vector, expected)
            else:
                solo = seeded_solo(
                    operator, N_NODES, seed, alpha=0.85, tol=1e-9,
                    max_iter=150,
                )
                vector, iterations, _ = reference_solo_walk(
                    operator, N_NODES, seed, alpha=0.85, tol=1e-9,
                    max_iter=150,
                )
                assert not column.expired
                assert column.iterations == solo.iterations == iterations
                assert np.array_equal(column.vector, solo.vector)
                assert np.array_equal(column.vector, vector)


# ----------------------------------------------------------------------
# Service-level property: generated interleavings of live queries
# ----------------------------------------------------------------------


query_strategy = st.fixed_dictionaries({
    "algorithm": st.sampled_from(["ppr", "rwr"]),
    "seed": st.integers(min_value=0, max_value=N_NODES - 1),
    # None = no deadline; 0.0 = expires immediately (degraded reply).
    "deadline": st.sampled_from([None, None, None, 0.0]),
    # Which coalescing window the query (roughly) lands in.
    "stagger": st.integers(min_value=0, max_value=2),
})


class TestServiceInterleavings:
    @given(
        queries=st.lists(query_strategy, min_size=2, max_size=10),
        update_after=st.sampled_from([None, 1, 2]),
        graph_seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_interleaved_queries_stay_bitwise(
        self, queries, update_after, graph_seed
    ):
        matrix = DynamicMatrix(small_graph(graph_seed))
        service = QueryService(
            window_seconds=0.003, max_batch=4, max_queue=64
        )
        service.register("g", matrix)

        async def client(spec):
            await asyncio.sleep(0.004 * spec["stagger"])
            return await service.query(
                "g", algorithm=spec["algorithm"], seed=spec["seed"],
                tol=1e-9, max_iter=150, deadline=spec["deadline"],
            )

        async def mutator():
            # A mid-stream update batch: bumps the version watermark so
            # later flushes rebuild their operators while earlier
            # replies keep verifying against their captured snapshot.
            if update_after is None:
                return
            await asyncio.sleep(0.004 * update_after)
            matrix.apply_updates(
                seeded_update_stream(matrix, 16, seed=graph_seed + 7)
            )
            service.notify_update("g")

        async def main():
            results = await asyncio.gather(
                mutator(), *(client(spec) for spec in queries)
            )
            return results[1:]

        with service:
            replies = asyncio.run(main())

        versions = {r.version for r in replies}
        for spec, reply in zip(queries, replies):
            assert reply.graph == "g"
            assert reply.seed == spec["seed"]
            if spec["deadline"] is not None:
                # Expired at admission: degraded per policy, flagged,
                # and (checked below for its peers) not contagious.
                assert reply.status == "deadline_expired"
                assert reply.expired and not reply.converged
                continue
            reference = reply.solo()
            assert reply.status == "ok"
            assert reply.iterations == reference.iterations
            assert np.array_equal(reply.vector, reference.vector), (
                f"coalesced reply (width {reply.batch_width}, version "
                f"{reply.version} of {sorted(versions)}) diverged from "
                f"solo for {spec}"
            )

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_saturated_service_keeps_the_guarantee(self, data):
        # Everything lands in one window at max_batch pressure: the
        # flush-on-full path must coalesce and stay bitwise too.
        seeds = data.draw(st.lists(
            st.integers(min_value=0, max_value=N_NODES - 1),
            min_size=8, max_size=8,
        ))
        service = QueryService(
            window_seconds=0.05, max_batch=4, max_queue=64
        )
        service.register("g", small_graph(2))

        async def main():
            return await asyncio.gather(*(
                service.query("g", algorithm="ppr", seed=s, tol=1e-9)
                for s in seeds
            ))

        with service:
            replies = asyncio.run(main())
        assert max(r.batch_width for r in replies) > 1
        for reply in replies:
            assert np.array_equal(reply.vector, reply.solo().vector)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])

"""Resource semantics."""

import pytest

from repro.sim.resources import Resource


def test_resource_capacity_validation(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity(env):
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_fifo_order(env):
    res = Resource(env, capacity=1)
    order = []

    def worker(env, i):
        req = res.request()
        yield req
        order.append(i)
        yield env.timeout(1.0)
        res.release(req)

    for i in range(4):
        env.process(worker(env, i))
    env.run()
    assert order == [0, 1, 2, 3]


def test_release_queued_request_cancels_it(env):
    res = Resource(env, capacity=1)
    held = res.request()
    queued = res.request()
    res.release(queued)  # cancel while still queued
    assert res.queue_length == 0
    res.release(held)
    assert res.count == 0


def test_release_unknown_request_raises(env):
    res = Resource(env, capacity=1)
    other = Resource(env, capacity=1)
    req = other.request()
    with pytest.raises(RuntimeError):
        res.release(req)


def test_resize_grants_waiters(env):
    res = Resource(env, capacity=1)
    res.request()
    waiting = res.request()
    assert not waiting.triggered
    res.resize(2)
    assert waiting.triggered

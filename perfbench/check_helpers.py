"""Tests of the benchmark's own helpers.

Named so that a plain ``pytest`` run of the repo does not collect it;
run it explicitly:

    python3 -m pytest -q perfbench/check_helpers.py
"""

import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchstats import (  # noqa: E402
    REFERENCE_CALIBRATION_S, HostSpeed, Ledger, at_percentile, digest, fold,
    host_factor, tail_percentile,
)
from run import SetupError, end_to_end, repeat_drift  # noqa: E402
from spans import NO_PARENT, Tracer, call_counts, self_times  # noqa: E402


# -- tail percentile ---------------------------------------------------
def test_tail_takes_highest_percentile_with_ten_beyond():
    percentile = tail_percentile(216)
    assert percentile == 95.0
    # nearest rank ceil(0.95 * 216) = 206, with 10 samples beyond it
    assert at_percentile(list(range(1, 217)), percentile) == (206, 10)


def test_tail_steps_down_when_too_few_beyond():
    assert tail_percentile(199) == 90.0
    assert at_percentile(list(range(1, 200)), 90.0)[1] >= 10
    assert tail_percentile(99) == 75.0
    assert at_percentile(list(range(1, 100)), 75.0)[1] >= 10


def test_tail_of_tiny_sample_is_the_median():
    assert tail_percentile(3) == 50.0
    assert at_percentile([3.0, 1.0, 2.0], 50.0) == (2.0, 1)


def test_at_percentile_is_the_nearest_rank_in_any_order():
    samples = [float(x) for x in range(1, 101)]
    assert at_percentile(samples, 75.0) == (75.0, 25)
    assert at_percentile(samples[::-1], 99.0) == (99.0, 1)
    assert at_percentile([3.0], 50.0) == (3.0, 0)
    with pytest.raises(ValueError):
        at_percentile([], 50.0)


# -- span self time ----------------------------------------------------
def test_self_time_subtracts_union_of_children():
    #        0 root [0, 100]
    #        1 child [10, 30]      (grandchild 3 [12, 20])
    #        2 child [20, 50]      overlaps 1: union is [10, 50]
    #        4 child [90, 120]     clipped to [90, 100]
    start = [0, 10, 20, 12, 90]
    end = [100, 30, 50, 20, 120]
    parent = [NO_PARENT, 0, 0, 1, 0]
    assert self_times(start, end, parent) == [100 - 40 - 10, 20 - 8, 30, 8, 30]


def test_self_time_of_leaves_is_their_duration():
    assert self_times([5, 7], [6, 10], [NO_PARENT, NO_PARENT]) == [1, 3]


def test_nested_same_name_counts_one_call():
    names = [0, 0, 1, 0]  # 0 inside 0 (an override delegating), 1, 0
    parent = [NO_PARENT, 0, 1, NO_PARENT]
    assert call_counts(names, parent) == {0: 2, 1: 1}
    assert call_counts(names, parent, 2) == {1: 1, 0: 1}


def test_tracer_records_tree_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "layer.outer")
    tracer.wrap(Layer, "inner", "layer.inner")
    Layer().outer()  # not recording: nothing kept
    assert len(tracer) == 0
    tracer.recording = True
    tracer.set_request("r1")
    assert Layer().outer() == 2
    with tracer.paused():
        Layer().inner()
    assert len(tracer) == 2
    assert [tracer.names[i] for i in tracer.name] == ["layer.outer",
                                                      "layer.inner"]
    assert list(tracer.parent) == [NO_PARENT, 0]
    assert tracer.requests[tracer.request[1]] == "r1"
    tracer.restore()
    assert Layer.outer.__name__ == "outer" and not hasattr(
        Layer.outer, "__wrapped__")


def test_ambient_span_parents_other_threads():
    tracer = Tracer()
    work = tracer.traced(lambda: None, "server.work")
    tracer.recording = True
    with tracer.span("client.request", ambient=True):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["client.request", "server.work"]
    assert list(tracer.parent) == [NO_PARENT, 0]


# -- digest canonicalisation -------------------------------------------
def test_digest_ignores_container_spelling():
    assert digest({"a": 1, "b": (1, 2)}) == digest({"b": [1, 2], "a": 1})
    assert digest({1: "x"}) == digest({"1": "x"})
    assert digest({3, 1, 2}) == digest([1, 2, 3])


def test_digest_sees_every_bit_and_type():
    assert digest(0.1 + 0.2) != digest(0.3)
    assert digest(1) != digest(1.0)
    assert digest(True) != digest(1)
    assert digest({"a": None}) != digest({"a": 0})


def test_digest_accepts_numpy_scalars():
    np = pytest.importorskip("numpy")
    assert digest([np.int64(3), np.float64(0.5)]) == digest([3, 0.5])


def test_fold_is_order_sensitive():
    parts = [digest(1), digest(2)]
    assert fold(parts) == fold(list(parts))
    assert fold(parts) != fold(reversed(parts))


def test_digest_rejects_unknown_objects():
    with pytest.raises(TypeError):
        digest(object())


# -- error rate --------------------------------------------------------
def test_ledger_counts_failures_against_attempts():
    ledger = Ledger(keep=1)
    assert ledger.error_rate == 0.0
    for problem in (None, "raised", None, "differs"):
        ledger.record("op", problem)
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.error_rate == 0.5
    assert ledger.reasons == ["op: raised"]


def _op(latency=None, sim_seconds=0.0, acts=0, results=0):
    return SimpleNamespace(latency=latency, sim_seconds=sim_seconds,
                           acts=acts, results=results)


def test_end_to_end_pools_every_pass():
    slow = [_op(0.4, 0.4, acts=100, results=1), _op(0.004)]
    fast = [_op(0.2, 0.2, acts=100, results=1), _op(0.006)]
    metrics, info = end_to_end([slow, fast, slow], [0.2])
    assert metrics["acts_per_s"] == 300.0  # 300 ACTs in 1.0 s
    assert metrics["results_per_s"] == 3.0
    assert metrics["op_p50_ms"] == pytest.approx(103.0)  # median of 6
    assert (info["samples"], info["per_pass"], info["passes"]) == (6, 2, 3)


def test_end_to_end_skips_the_runs_of_an_op_that_failed():
    done = [_op(0.5, 0.5, acts=100, results=1)]
    failed = [_op()]  # raised: no latency and no simulated time
    metrics, _info = end_to_end([failed, done, failed], [0.2])
    assert metrics["acts_per_s"] == 200.0
    assert metrics["op_p50_ms"] == 500.0


def test_end_to_end_tail_percentile_does_not_depend_on_pass_count():
    def one_pass():
        return [_op(0.001, 0.001, acts=1, results=1)] * 25 + [_op(2.0)] * 15

    for count in (1, 2, 3, 7):
        metrics, info = end_to_end([one_pass() for _ in range(count)], [0.2])
        assert (info["tail_percentile"], info["per_pass"]) == (75.0, 40)
        assert info["samples"] == 40 * count
        assert metrics["op_tail_ms"] == 2000.0


def test_end_to_end_scales_each_op_by_the_host_speed_around_it():
    class Host:  # the host ran at half the reference speed from t=10
        def factor(self, start, end):
            return 0.5 if start >= 10 else 1.0

    ops = [_op(0.2, 0.2, acts=100, results=1), _op(0.4, 0.4, acts=100, results=1)]
    ops[0].started, ops[0].ended = 0.0, 0.2
    ops[1].started, ops[1].ended = 10.0, 10.4
    metrics, _info = end_to_end([ops], [0.2], Host())
    assert metrics["acts_per_s"] == 500.0  # both ops take 0.2 s at reference
    assert metrics["op_p50_ms"] == pytest.approx(200.0)


def test_end_to_end_without_a_completed_op_has_no_result():
    with pytest.raises(SetupError):
        end_to_end([[_op()], [_op()]], [0.2])


# -- host speed --------------------------------------------------------
def test_host_factor_takes_the_median_calibration_near_the_interval():
    ref = REFERENCE_CALIBRATION_S
    samples = [(0.0, ref), (1.0, 2 * ref), (1.5, 2 * ref), (2.0, 2 * ref),
               (9.0, ref / 2)]
    assert host_factor(samples, 1.2, 1.4, 0.6, least=1) == 0.5
    assert host_factor(samples, 0.0, 0.1, 0.5, least=1) == 1.0
    # too few within the window: the nearest samples, wherever they are
    assert host_factor(samples, 8.0, 8.5, 0.1, least=2) == pytest.approx(1 / 1.25)
    assert host_factor(samples, 20.0, 21.0, 0.5, least=1) == 2.0
    assert host_factor(samples, 20.0, 21.0, 0.5, least=9) == 0.5  # all five


def test_host_speed_samples_only_when_due():
    host = HostSpeed()
    host.tick()
    host.tick()  # one loop later: well within CALIBRATION_EVERY_S
    assert len(host.samples) == 1
    host.tick(force=True)
    assert len(host.samples) == 2
    assert host.factor(0.0, 1e12) > 0


# -- repeat counters ---------------------------------------------------
def test_repeat_drift_compares_every_pass_to_the_stored_counters():
    stored = {"kernels.march_calls": 8, "query.hits": 3}
    same = {"kernels.march_calls": 8, "query.hits": 3, "trace.spans": 5}
    assert repeat_drift([same, dict(same, **{"trace.spans": 9})], stored) == []
    drift = repeat_drift([dict(same, **{"query.hits": 4})] * 2, stored)
    assert drift == [
        "pass 0: query.hits 4, reference.json 3",
        "pass 1: query.hits 4, reference.json 3",
    ]


def test_repeat_drift_without_stored_counters_compares_to_pass_zero():
    first = {"attacks.acts_built": 10}
    assert repeat_drift([first, dict(first)], None) == []
    assert repeat_drift([first, {"attacks.acts_built": 11}], None) == [
        "pass 1: attacks.acts_built 11, pass 0 10"
    ]

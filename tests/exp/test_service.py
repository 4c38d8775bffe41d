"""The read path: QueryAPI caching and the ``repro serve`` HTTP front
end (stdlib client against a real threaded server)."""

import csv
import io
import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.exp import ExperimentResult, QueryAPI, ResultStore, make_server


def stored_result(key, tracker="mint", attack="single-sided", failed=False):
    return ExperimentResult(
        key=key,
        tracker=tracker,
        attack=attack,
        trace=f"{attack}(row=1000)",
        seed=7,
        point={"tracker": {"name": tracker}},
        metrics={"failed": failed, "demand_acts": 10, "flips": []},
        tracker_stats={"storage_bits": 32},
    )


def populated_store(path=None):
    store = ResultStore(path)
    store.put(stored_result("aa11", tracker="mint"))
    store.put(stored_result("bb22", tracker="para", attack="double-sided"))
    store.put(stored_result("cc33", tracker="mint", failed=True))
    return store


class TestQueryAPI:
    def test_point_by_fingerprint_and_prefix(self):
        api = QueryAPI(populated_store())
        assert api.point("aa11").tracker == "mint"
        assert api.point("bb").tracker == "para"  # unambiguous prefix
        assert api.point("zz") is None
        assert api.point("") is None

    def test_ambiguous_prefix_is_a_miss(self):
        store = populated_store()
        store.put(stored_result("bb99"))
        api = QueryAPI(store)
        assert api.point("bb") is None
        assert api.point("bb22") is not None

    def test_sweep_filters(self):
        api = QueryAPI(populated_store())
        assert len(api.sweep()) == 3
        assert [r.key for r in api.sweep(tracker="mint")] == ["aa11", "cc33"]
        assert [r.key for r in api.sweep(attack="double-sided")] == ["bb22"]
        assert [r.key for r in api.sweep(failed=True)] == ["cc33"]
        assert api.sweep(tracker="mint", failed=False)[0].key == "aa11"

    def test_repeat_queries_hit_the_cache(self):
        api = QueryAPI(populated_store())
        api.sweep(tracker="mint")
        misses = api.misses
        api.sweep(tracker="mint")
        api.sweep(tracker="mint")
        assert api.misses == misses
        assert api.hits >= 2

    def test_cached_none_is_a_hit(self):
        """A negative lookup is memoized too — the sentinel default
        distinguishes a cached None from a cache miss."""
        api = QueryAPI(populated_store())
        assert api.point("zz") is None
        misses = api.misses
        assert api.point("zz") is None
        assert api.misses == misses

    def test_store_mutation_invalidates(self):
        store = populated_store()
        api = QueryAPI(store)
        assert len(api.sweep()) == 3
        store.put(stored_result("dd44"))
        assert len(api.sweep()) == 4  # generation re-keyed the cache

    def test_external_flush_picked_up_via_reload(self, tmp_path):
        path = tmp_path / "store.json"
        writer = populated_store(path)
        writer.flush()
        api = QueryAPI.open(path)
        assert len(api.sweep()) == 3
        writer.put(stored_result("dd44"))
        writer.flush()
        assert len(api.sweep()) == 4

    def test_csv_rows_share_the_result_serializer(self):
        api = QueryAPI(populated_store())
        rows = api.sweep_csv(tracker="para")
        assert len(rows) == 1
        row = rows[0]
        assert row["key"] == "bb22"
        assert row["tracker"] == "para"
        assert row["attack"] == "double-sided"
        assert row["demand_acts"] == 10
        assert row["scope"] == "bank"

    def test_status_reports_store_and_cache(self, tmp_path):
        path = tmp_path / "store.json"
        populated_store(path).flush()
        api = QueryAPI.open(path)
        api.keys()
        api.keys()
        status = api.status()
        assert status["results"] == 3
        assert status["store_path"] == str(path)
        assert status["store_disk_bytes"] > 0
        assert status["cache_hits"] == 1
        assert status["trackers"] == ["mint", "para"]

    def test_concurrent_reads_survive_cache_eviction(self):
        """The threaded server answers reads on many threads at once;
        a small cache evicts on nearly every miss, and a forced tiny
        switch interval interleaves the threads inside each eviction."""
        api = QueryAPI(populated_store(), cache_size=8)
        errors = []

        def reader(offset):
            try:
                for i in range(3000):
                    api.point(f"zz{offset}-{i}")
                    api.sweep(tracker="mint")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert api.hits + api.misses == 8 * 3000 * 2


@pytest.fixture
def server(tmp_path):
    path = tmp_path / "store.json"
    populated_store(path).flush()
    httpd = make_server(QueryAPI.open(path), port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


def fetch(url):
    with urllib.request.urlopen(url) as response:
        return response.status, response.read().decode("utf-8")


class TestServe:
    def test_status_route(self, server):
        status, body = fetch(server + "/v1/status")
        assert status == 200
        assert json.loads(body)["results"] == 3

    def test_points_index(self, server):
        _, body = fetch(server + "/v1/points")
        points = json.loads(body)["points"]
        assert [p["key"] for p in points] == ["aa11", "bb22", "cc33"]
        assert points[2]["failed"] is True

    def test_point_by_prefix(self, server):
        _, body = fetch(server + "/v1/point/bb")
        assert json.loads(body)["tracker"] == "para"

    def test_sweep_filtered(self, server):
        _, body = fetch(server + "/v1/sweep?tracker=mint&failed=false")
        results = json.loads(body)["results"]
        assert [r["key"] for r in results] == ["aa11"]

    def test_sweep_csv(self, server):
        _, body = fetch(server + "/v1/sweep?format=csv")
        rows = list(csv.DictReader(io.StringIO(body)))
        assert [row["key"] for row in rows] == ["aa11", "bb22", "cc33"]
        assert rows[0]["tracker"] == "mint"

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server + "/v1/nonsense")
        assert excinfo.value.code == 404
        assert "error" in json.loads(excinfo.value.read().decode())

    def test_missing_point_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server + "/v1/point/zz99")
        assert excinfo.value.code == 404

    def test_bad_format_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server + "/v1/sweep?format=xml")
        assert excinfo.value.code == 400

    def test_bad_failed_flag_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server + "/v1/sweep?failed=maybe")
        assert excinfo.value.code == 400

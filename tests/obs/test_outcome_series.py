"""``insq_retrievals_total{outcome}`` is exact.

The six outcome counters are a *pulled* series: the registry reads the
engines' ``ProcessorStats`` when it is scraped, instead of every update
pushing its difference.  The literals below were recorded from the pushed
series on the same streams, so the pull must count exactly what the push
did — and follow the same reset, disabled-window, snapshot-restore and
engine-lifetime rules:

* a scrape adds only the work done since the previous one;
* ``reset()`` drops the work done before it;
* a ``disable()`` … ``enable()`` window counts nothing;
* a pickled and restored engine counts only the work done after the
  restore (the work before was counted by the process that did it);
* an engine freed with sessions still open, never scraped, is counted.

A KNNServer's connection threads updating sessions while another thread
scrapes must not lose or double an outcome either, and every
``Session.update`` must pass through ``ServingEngine.update_position``
exactly once — the benchmark's trace wraps it as ``core.update``.
"""

import gc
import pickle
import sys
import threading
import weakref

import pytest

from repro import obs
from repro.core.engine import ServingEngine
from repro.obs import REGISTRY
from repro.service import KNNService
from repro.transport import KNNServer, connect
from repro.workloads.scenarios import (
    euclidean_server_scenario,
    road_server_scenario,
    update_stream,
)

LABELS = ("absorbed", "incremental", "recomputed", "refreshed", "reordered", "validated")

SCENARIOS = {
    "euclidean": lambda: euclidean_server_scenario(
        churn="high", queries=4, object_count=300, steps=30
    ),
    "road": lambda: road_server_scenario(churn="high", queries=4, steps=30),
}

#: The pushed series' counts on :func:`drive`'s stream (registration
#: retrievals excluded, as the push excluded them).  The euclidean
#: ``absorbed`` / ``refreshed`` pair was re-recorded, 12 / 76 -> 40 / 48,
#: when a pending delta began to settle against R instead of the held pool.
EXPECTED = {
    "euclidean": {
        "absorbed": 40, "incremental": 41, "recomputed": 27,
        "refreshed": 48, "reordered": 17, "validated": 106,
    },
    "road": {
        "absorbed": 0, "incremental": 74, "recomputed": 69,
        "refreshed": 76, "reordered": 14, "validated": 106,
    },
}

#: The same, without churn: what the concurrent test's clients must add up to.
UNCHURNED = {
    "absorbed": 0, "incremental": 0, "recomputed": 17,
    "refreshed": 0, "reordered": 16, "validated": 106,
}


def outcomes():
    """The six outcome counters of a fresh scrape, by label."""
    counts = dict.fromkeys(LABELS, 0)
    for name, labels, value in REGISTRY.snapshot().counters:
        if name == "insq_retrievals_total":
            counts[labels.partition("=")[2]] = value
    return counts


def difference(after, before):
    return {label: after[label] - before[label] for label in LABELS}


def opened(scenario):
    """A fresh service over ``scenario`` with one session per trajectory."""
    service = KNNService.from_scenario(scenario)
    sessions = [
        service.open_session(walk[0], k=k, rho=scenario.rho)
        for walk, k in zip(scenario.trajectories, scenario.ks)
    ]
    return service, sessions


def drive(scenario, service, sessions, start=1, stop=None):
    """Replay timestamps ``start`` … ``stop - 1`` of ``scenario``'s churned
    stream through the service API, with one ``refresh()`` (timestamp 8) and
    one ``close()`` (timestamp 15) on the way."""
    stream = update_stream(scenario)
    for step in range(start, scenario.timestamps if stop is None else stop):
        entry = stream[step]
        if entry is not None:
            assert service.apply(entry[0]).new_indexes == entry[1]
        for session, walk in zip(sessions, scenario.trajectories):
            if not session.closed:
                session.update(walk[step])
        if step == 8:
            sessions[0].refresh()
        if step == 15:
            sessions[1].close()


#: Three consecutive stretches of the stream (``drive``'s start, stop).
PHASES = ((1, 11), (11, 20), (20, None))


def total(*parts):
    return {label: sum(part[label] for part in parts) for label in LABELS}


@pytest.fixture(autouse=True)
def recording():
    was_enabled = obs.enabled()
    obs.enable()
    yield
    if not was_enabled:
        obs.disable()


@pytest.mark.parametrize("metric", sorted(SCENARIOS))
class TestOutcomeSeries:
    def test_counts_equal_the_pushed_series(self, metric):
        scenario = SCENARIOS[metric]()
        before = outcomes()
        drive(scenario, *opened(scenario))
        assert difference(outcomes(), before) == EXPECTED[metric]

    def test_a_second_scrape_adds_nothing(self, metric):
        scenario = SCENARIOS[metric]()
        drive(scenario, *opened(scenario))
        first = outcomes()
        assert outcomes() == first

    def phases(self, scenario):
        """The counts of timestamps 1-10, 11-19 and 20-29, each scraped."""
        service, sessions = opened(scenario)
        marks = [outcomes()]
        for start, stop in PHASES:
            drive(scenario, service, sessions, start, stop)
            marks.append(outcomes())
        return [difference(after, before) for before, after in zip(marks, marks[1:])]

    def test_reset_drops_the_work_before_it(self, metric):
        scenario = SCENARIOS[metric]()
        early, middle, late = self.phases(scenario)
        assert total(early, middle, late) == EXPECTED[metric]
        assert min(middle.values()) >= 0 and middle["validated"] > 0
        service, sessions = opened(scenario)
        drive(scenario, service, sessions, *PHASES[0])
        drive(scenario, service, sessions, *PHASES[1])
        obs.reset()  # neither phase was scraped
        assert set(outcomes().values()) == {0}
        drive(scenario, service, sessions, *PHASES[2])
        assert outcomes() == late

    def test_a_disabled_window_counts_nothing(self, metric):
        scenario = SCENARIOS[metric]()
        early, _, late = self.phases(scenario)
        before = outcomes()
        service, sessions = opened(scenario)
        drive(scenario, service, sessions, *PHASES[0])
        obs.disable()  # publishes the unscraped first phase
        drive(scenario, service, sessions, *PHASES[1])
        obs.enable()  # drops the window's work before recording resumes
        assert difference(outcomes(), before) == early
        drive(scenario, service, sessions, *PHASES[2])
        assert difference(outcomes(), before) == total(early, late)

    def test_a_restored_engine_counts_only_what_follows(self, metric):
        scenario = SCENARIOS[metric]()
        service, sessions = opened(scenario)
        early = outcomes()
        drive(scenario, service, sessions, *PHASES[0])
        before = outcomes()
        early = difference(before, early)
        restored, sessions = pickle.loads(pickle.dumps((service, sessions)))
        drive(scenario, restored, sessions, start=11)
        assert total(early, difference(outcomes(), before)) == EXPECTED[metric]

    def test_an_engine_freed_unscraped_is_still_counted(self, metric):
        scenario = SCENARIOS[metric]()
        before = outcomes()
        service, sessions = opened(scenario)
        drive(scenario, service, sessions)
        assert service.session_count == 3
        engine = weakref.ref(service.engine)
        del service, sessions
        gc.collect()
        assert engine() is None
        assert difference(outcomes(), before) == EXPECTED[metric]


def test_concurrent_clients_and_scrapes_count_exactly():
    """Two clients update disjoint sessions through one server while a
    thread scrapes in a loop: the counts equal the single-threaded ones."""
    scenario = euclidean_server_scenario(churn="none", queries=4, object_count=300, steps=30)
    before = outcomes()
    drive(scenario, *opened(scenario))
    assert difference(outcomes(), before) == UNCHURNED

    service = KNNService.from_scenario(scenario)
    before = outcomes()
    stop = threading.Event()

    def scrape():
        while not stop.is_set():
            REGISTRY.snapshot()

    def client(indexes):
        # drive()'s refresh and close, on the same sessions: without churn a
        # session's outcomes do not depend on how the clients interleave.
        walks = [scenario.trajectories[i] for i in indexes]
        with connect(server.address) as remote:
            sessions = [
                remote.open_session(walks[j][0], k=scenario.ks[i], rho=scenario.rho)
                for j, i in enumerate(indexes)
            ]
            for step in range(1, scenario.timestamps):
                for session, walk in zip(sessions, walks):
                    if not session.closed:
                        session.update(walk[step])
                for i, session in zip(indexes, sessions):
                    if (i, step) == (0, 8):
                        session.refresh()
                    if (i, step) == (1, 15):
                        session.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: a lost update shows
    try:
        with KNNServer(service) as server:
            scraper = threading.Thread(target=scrape)
            scraper.start()
            clients = [threading.Thread(target=client, args=(h,)) for h in ((0, 1), (2, 3))]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
            stop.set()
            scraper.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in (scraper, *clients))
    assert difference(outcomes(), before) == UNCHURNED


def test_every_session_update_passes_through_update_position(monkeypatch):
    """``bench/trace.py`` wraps ``ServingEngine.update_position`` as
    ``core.update``: a shortcut from ``Session.update`` around it would
    silently zero that ledger line, so it fails here instead."""
    calls = []
    update_position = ServingEngine.update_position

    def counting(engine, *args):
        calls.append(args[0])
        return update_position(engine, *args)

    monkeypatch.setattr(ServingEngine, "update_position", counting)
    scenario = SCENARIOS["euclidean"]()
    service, sessions = opened(scenario)
    updates = 0
    for step in range(1, scenario.timestamps):
        for session, walk in zip(sessions, scenario.trajectories):
            session.update(walk[step])
            updates += 1
    assert len(calls) == updates

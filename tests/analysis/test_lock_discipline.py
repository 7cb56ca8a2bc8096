"""BCC001 fixtures: violating, clean, receiver-aware, exempt, noqa."""

from conftest import rules_of

# The shape of the real seeded bug: BCCEngine.__repr__ reading a guarded
# counter outside its lock (src/repro/api/engine.py:936 before the fix).
ENGINE_REPR_BUG = '''
import threading

class BCCEngine:
    def __init__(self):
        self._counters_lock = threading.Lock()
        self._counters = {"searches": 0}

    def bump(self):
        with self._counters_lock:
            self._counters["searches"] += 1

    def __repr__(self):
        return f"BCCEngine(searches={self._counters['searches']})"
'''


def test_engine_repr_bug_fires(lint):
    report = lint({"engine.py": ENGINE_REPR_BUG})
    assert rules_of(report) == ["BCC001"]
    (finding,) = report.findings
    assert "_counters" in finding.message
    assert "_counters_lock" in finding.message
    # The locked bump() must not fire — only the repr line does.
    assert "self._counters" in ENGINE_REPR_BUG.splitlines()[finding.line - 1]
    assert "__repr__" in ENGINE_REPR_BUG.splitlines()[finding.line - 2]


def test_locked_access_is_clean(lint):
    report = lint(
        {
            "engine.py": '''
            import threading

            class BCCEngine:
                def __init__(self):
                    self._counters_lock = threading.Lock()
                    self._counters = {}

                def counters_snapshot(self):
                    with self._counters_lock:
                        return dict(self._counters)
            '''
        }
    )
    assert report.findings == []


def test_wrong_lock_still_fires(lint):
    report = lint(
        {
            "engine.py": '''
            class BCCEngine:
                def read(self):
                    with self._cache_lock:
                        return self._counters["searches"]
            '''
        }
    )
    assert rules_of(report) == ["BCC001"]


def test_receiver_aware_merge_is_clean(lint):
    # A method reading *other*'s guarded field under other._lock — the
    # checker must track (receiver, lock) pairs, not just lock names.
    report = lint(
        {
            "stats.py": '''
            class LatencyHistogram:
                def merge(self, other):
                    with other._lock:
                        counts = list(other._counts)
                    with self._lock:
                        self._count += len(counts)
                    return self
            '''
        }
    )
    assert report.findings == []


def test_wrong_receiver_fires(lint):
    report = lint(
        {
            "stats.py": '''
            class LatencyHistogram:
                def merge(self, other):
                    with self._lock:
                        return list(other._counts)
            '''
        }
    )
    assert rules_of(report) == ["BCC001"]
    assert "other._lock" in report.findings[0].message


def test_locked_suffix_methods_are_exempt(lint):
    report = lint(
        {
            "resilience.py": '''
            class ReplicaHealth:
                def _eject_locked(self, until):
                    self._state = "ejected"
                    self._ejected_until = until
            '''
        }
    )
    assert report.findings == []


def test_init_is_exempt(lint):
    report = lint(
        {
            "store.py": '''
            import threading

            class SnapshotStore:
                def __init__(self):
                    self._counters_lock = threading.Lock()
                    self._counters = {}
            '''
        }
    )
    assert report.findings == []


def test_noqa_suppresses_one_line(lint):
    report = lint(
        {
            "engine.py": '''
            class BCCEngine:
                def live_view(self):
                    return self._counters  # noqa: BCC001

                def still_flagged(self):
                    return self._counters
            '''
        }
    )
    assert rules_of(report) == ["BCC001"]
    assert report.findings[0].line == 7  # the un-noqa'd access only


def test_unregistered_fields_and_classes_ignored(lint):
    # _groups is deliberately not registered (double-checked fill-once),
    # and classes/files outside the registry are out of scope entirely.
    report = lint(
        {
            "engine.py": '''
            class BCCEngine:
                def group(self, label):
                    return self._groups.get(label)

            class Helper:
                def read(self):
                    return self._counters["x"]
            ''',
            "somewhere_else.py": '''
            class BCCEngine:
                def read(self):
                    return self._counters["x"]
            ''',
        }
    )
    assert report.findings == []

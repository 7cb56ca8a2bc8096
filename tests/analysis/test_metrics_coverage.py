"""BCC006 fixtures: manifest anchoring, the five bump shapes, noqa."""

from conftest import rules_of

#: A minimal manifest fixture — only these three names are declared.
MANIFEST = '''
EXPORTED_COUNTERS = frozenset(
    {
        "searches",
        "dispatched",
        "requests",
    }
)
'''


def test_undeclared_count_call_fires(lint):
    report = lint(
        {
            "repro/obs/metrics.py": MANIFEST,
            "repro/api/bumps.py": '''
            class Thing:
                def work(self):
                    self._count("mystery")
            ''',
        }
    )
    assert rules_of(report) == ["BCC006"]
    assert "'mystery'" in report.findings[0].message


def test_declared_count_call_is_clean(lint):
    report = lint(
        {
            "repro/obs/metrics.py": MANIFEST,
            "repro/api/bumps.py": '''
            class Thing:
                def work(self):
                    self._count("searches", 2)
            ''',
        }
    )
    assert report.findings == []


def test_count_worker_checks_the_second_argument(lint):
    report = lint(
        {
            "repro/obs/metrics.py": MANIFEST,
            "repro/parallel/bumps.py": '''
            class Pool:
                def ok(self, worker):
                    self._count_worker(worker, "dispatched")

                def bad(self, worker):
                    self._count_worker(worker, "mystery")
            ''',
        }
    )
    assert rules_of(report) == ["BCC006"]
    assert report.findings[0].line == 7


def test_gateway_count_receiver_is_scoped(lint):
    report = lint(
        {
            "repro/obs/metrics.py": MANIFEST,
            "repro/server/bumps.py": '''
            import itertools

            class Handler:
                def ok(self, gateway):
                    gateway.count("requests")
                    self.gateway.count("requests")

                def bad(self, gateway):
                    gateway.count("mystery")

                def out_of_scope(self):
                    # not a counter bump: a different receiver entirely
                    return itertools.count("ignored")
            ''',
        }
    )
    assert rules_of(report) == ["BCC006"]
    assert report.findings[0].line == 10


def test_count_hook_call_fires(lint):
    report = lint(
        {
            "repro/obs/metrics.py": MANIFEST,
            "repro/core/bumps.py": '''
            def helper(count):
                count("searches")
                count("mystery", 2)
            ''',
        }
    )
    assert rules_of(report) == ["BCC006"]
    assert report.findings[0].line == 4


def test_counters_subscript_augassign_fires(lint):
    report = lint(
        {
            "repro/obs/metrics.py": MANIFEST,
            "repro/store/bumps.py": '''
            class Store:
                def work(self):
                    self._counters["mystery"] += 1
            ''',
        }
    )
    assert rules_of(report) == ["BCC006"]


def test_dynamic_names_are_out_of_scope(lint):
    report = lint(
        {
            "repro/obs/metrics.py": MANIFEST,
            "repro/api/bumps.py": '''
            class Thing:
                def forward(self, name):
                    self._count(name)
                    self._counters[name] += 1
            ''',
        }
    )
    assert report.findings == []


def test_without_a_manifest_the_checker_stays_silent(lint):
    # Linting a subtree that does not include metrics.py must not invent
    # findings about a manifest it was never shown.
    report = lint(
        {
            "repro/api/bumps.py": '''
            class Thing:
                def work(self):
                    self._count("mystery")
            ''',
        }
    )
    assert report.findings == []


def test_test_files_are_skipped(lint):
    report = lint(
        {
            "repro/obs/metrics.py": MANIFEST,
            "test_bumps.py": '''
            class Stub:
                def work(self):
                    self._count("throwaway")
            ''',
        }
    )
    assert report.findings == []


def test_noqa_suppresses_a_declared_exception(lint):
    report = lint(
        {
            "repro/obs/metrics.py": MANIFEST,
            "repro/api/bumps.py": '''
            class Thing:
                def work(self):
                    self._count("mystery")  # noqa: BCC006
            ''',
        }
    )
    assert report.findings == []

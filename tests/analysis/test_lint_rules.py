"""Per-rule fixtures for xr-lint: one failing + one passing snippet each.

Every rule is exercised through :meth:`LintRunner.run_source` with the
rule selected alone, so a fixture can only trip the rule under test.
Suppression comments, path exemptions, and select/ignore plumbing get
their own tests at the bottom.
"""

import textwrap

import pytest

from repro.analysis.lint import LintRunner, all_rules, get_rule
from repro.analysis.lint.core import Finding, PATH_RULE_EXEMPTIONS


def lint(source, rule=None, path="fixture.py", **kwargs):
    runner = LintRunner(select=[rule] if rule else None, **kwargs)
    findings = runner.run_source(textwrap.dedent(source), path)
    assert not runner.errors, runner.errors
    return findings


def codes(findings):
    return [f.code for f in findings]


def table_test(rule, source, expected, says=None):
    """One table row as a test: ``source`` linted with ``rule`` alone
    yields exactly the ``expected`` ``(code, line)`` findings, and the
    first finding's message contains ``says``."""
    def test():
        findings = lint(source, rule=rule)
        assert [(f.code, f.line) for f in findings] == expected
        if says is not None:
            assert says in findings[0].message
    return test


# ---------------------------------------------------------------- XR101
#: host-call rows: test name -> (fixture, expected (code, line), message).
#: Wall-clock, global-RNG and host-blocking callees are one table; a
#: dotted callee only matches through an import, the builtin ``input``
#: without one, and a seeded RNG constructor not at all.
HOST_CALL_ROWS = {
    "test_wall_clock_flags_time_time": ("""
        import time

        def stamp():
            return time.time()
        """, [("XR101", 5)], "sim.now"),
    "test_wall_clock_flags_datetime_now": ("""
        from datetime import datetime

        def stamp():
            return datetime.now()
        """, [("XR101", 5)], None),
    # `time` here is a local object, not the stdlib module: no import, no
    # finding — the resolver demands the name route through an import.
    "test_wall_clock_ignores_sim_now_and_unimported_names": ("""
        def stamp(sim, time):
            _ = time.time()
            return sim.now
        """, [], None),
    "test_global_random_flags_stdlib_and_unseeded_rng": ("""
        import random
        import numpy as np

        def jitter():
            rng = np.random.default_rng()
            return random.uniform(0, 1) + np.random.random()
        """, [("XR101", 6), ("XR101", 7), ("XR101", 7)], "entropy-seeded"),
    "test_global_random_allows_seeded_streams": ("""
        import random
        import numpy as np

        def jitter(registry):
            rng = np.random.default_rng(42)
            local = random.Random(7)
            stream = registry.stream("jitter")
            return stream.uniform(0, 1)
        """, [], None),
    "test_host_call_flags_unseeded_random_constructor": ("""
        import random

        def make():
            return random.Random()
        """, [("XR101", 5)], "entropy-seeded"),
    "test_blocking_call_flags_time_sleep_and_subprocess": ("""
        import time
        import subprocess

        def pause():
            time.sleep(1)
            subprocess.run(["true"])
        """, [("XR101", 6), ("XR101", 7)], "blocks the host thread"),
    "test_host_call_flags_module_prefixes_and_bare_input": ("""
        import requests
        import http.client

        def fetch():
            requests.get("http://peer")
            http.client.HTTPConnection("peer")
            return input()
        """, [("XR101", 6), ("XR101", 7), ("XR101", 8)], None),
    # A local list named `requests` must not match the HTTP library.
    "test_blocking_call_ignores_local_name_shadowing_module": ("""
        def gather(sim):
            requests = []
            requests.append(1)
            yield sim.timeout(5)
        """, [], None),
}


# ---------------------------------------------------------------- XR103
#: identity-order rows: iterating an id()-keyed collection and ordering
#: by ``key=id``/``key=hash`` are one rule; a membership probe is fine.
IDENTITY_ORDER_ROWS = {
    "test_id_order_flags_iterating_an_id_keyed_set": ("""
        def survivors(buffers):
            keep = {id(b) for b in buffers}
            return [k for k in sorted(keep)]
        """, [("XR103", 4)], "id()-keyed"),
    "test_id_order_flags_for_loop_over_id_set_call": ("""
        def walk(buffers):
            live = set(id(b) for b in buffers)
            for key in live:
                print(key)
        """, [("XR103", 4)], None),
    # The MemCache.shrink pattern: an id()-keyed set used only with `in`.
    "test_id_order_allows_membership_probe": ("""
        def shrink(buffers, pinned):
            pinned_ids = {id(b) for b in pinned}
            return [b for b in buffers if id(b) not in pinned_ids]
        """, [], None),
    "test_hash_order_flags_sorting_by_identity": ("""
        def order(channels):
            channels.sort(key=id)
            return sorted(channels, key=lambda c: hash(c))
        """, [("XR103", 3), ("XR103", 4)], "identity/hash"),
    "test_hash_order_allows_stable_keys": ("""
        def order(channels):
            return sorted(channels, key=lambda c: c.channel_id)
        """, [], None),
    # A method is checked once, a closure sees its enclosing function's
    # id()-keyed names, and a sibling method's parameter of the same
    # name is not one of them.
    "test_identity_order_scopes_follow_functions": ("""
        class Pool:
            def survivors(self, buffers):
                keep = {id(b) for b in buffers}
                return sorted(keep)

            def other(self, keep):
                for k in keep:
                    print(k)

        def outer(buffers):
            live = {id(b) for b in buffers}

            def inner():
                return list(live)
            return inner
        """, [("XR103", 5), ("XR103", 15)], None),
}

for _rule, _rows in (("host-call", HOST_CALL_ROWS),
                     ("identity-order", IDENTITY_ORDER_ROWS)):
    for _name, _row in _rows.items():
        globals()[_name] = table_test(_rule, *_row)


# ---------------------------------------------------------------- XR105
def test_class_counter_flags_mutated_class_attribute():
    findings = lint("""
        class Driver:
            _seq = 0

            def next_name(self):
                Driver._seq += 1
                return f"drv{Driver._seq}"
        """, rule="class-counter")
    assert codes(findings) == ["XR105"]
    assert "per-instance" in findings[0].message


def test_class_counter_allows_instance_counter():
    findings = lint("""
        class Driver:
            def __init__(self):
                self._seq = 0

            def next_name(self):
                self._seq += 1
                return f"drv{self._seq}"
        """, rule="class-counter")
    assert findings == []


def test_class_counter_flags_next_on_module_level_counter():
    # The shape that bit: a module-level itertools.count drawn from a
    # constructor and from a dataclass default factory.
    findings = lint("""
        import itertools
        from dataclasses import dataclass, field

        _ids = itertools.count(1)

        class Channel:
            def __init__(self):
                self.channel_id = next(_ids)

        @dataclass
        class Message:
            msg_id: int = field(default_factory=lambda: next(_ids))
        """, rule="class-counter")
    assert codes(findings) == ["XR105", "XR105"]
    assert "module-level '_ids'" in findings[0].message


def test_class_counter_flags_next_on_class_level_counter():
    findings = lint("""
        import itertools

        class QueuePair:
            _qpn_counter = itertools.count(0x100)

            def __init__(self):
                self.qpn = next(QueuePair._qpn_counter)

            def renumber(self):
                self.qpn = next(self._qpn_counter)
        """, rule="class-counter")
    assert codes(findings) == ["XR105", "XR105"]
    assert "QueuePair._qpn_counter" in findings[0].message


def test_class_counter_flags_next_on_another_modules_counter():
    findings = lint("""
        def begin():
            from repro.xrdma import channel as channel_mod
            return next(channel_mod._trace_ids)
        """, rule="class-counter")
    assert codes(findings) == ["XR105"]
    assert "repro.xrdma.channel._trace_ids" in findings[0].message


def test_class_counter_allows_counters_an_object_owns():
    findings = lint("""
        import itertools

        PORTS = [52000, 52001]       # module-level, but not a counter

        class Nic:
            def __init__(self):
                self._qpns = itertools.count(0x100)

            def create_qp(self):
                return next(self._qpns)

        def first_port():
            return next(iter(PORTS))

        def local_counter(items):
            ids = itertools.count(1)
            return [next(ids) for _ in items] + [next(iter(items))]
        """, rule="class-counter")
    assert findings == []


# ---------------------------------------------------------------- XR201
def test_memcache_leak_flags_alloc_never_freed():
    findings = lint("""
        def probe(memcache):
            buf = memcache.alloc(4096)
            return buf.addr
        """, rule="memcache-leak")
    assert codes(findings) == ["XR201"]
    assert "'buf'" in findings[0].message


def test_memcache_leak_flags_discarded_alloc():
    findings = lint("""
        def warm(memcache):
            memcache.alloc(4096)
        """, rule="memcache-leak")
    assert codes(findings) == ["XR201"]
    assert "discarded" in findings[0].message


def test_memcache_leak_allows_free_and_escape():
    findings = lint("""
        def roundtrip(memcache):
            buf = memcache.alloc(4096)
            memcache.free(buf)

        def handoff(memcache, registry):
            buf = memcache.alloc(4096)
            registry.adopt(buf)

        def giveback(memcache):
            buf = memcache.alloc(4096)
            return buf
        """, rule="memcache-leak")
    assert findings == []


def test_memcache_leak_release_through_alias_attribute():
    # free(pool.addr) releases `pool` even though the argument is a read
    # through the handle — the release vocabulary looks inside args.
    findings = lint("""
        def scoped(host):
            pool = host.memory.alloc(1 << 20)
            use(pool.addr)
            host.memory.free(pool.addr)

        def use(addr):
            pass
        """, rule="memcache-leak")
    assert findings == []


# ---------------------------------------------------------------- XR202
def test_qp_leak_flags_connect_never_torn_down():
    findings = lint("""
        def dial(cm, pd, cq):
            conn = yield from cm.connect(1, 7000, pd, cq, cq)
            print(conn.qp.qpn)
        """, rule="qp-leak")
    assert codes(findings) == ["XR202"]


def test_qp_leak_flags_discarded_create_qp():
    findings = lint("""
        def warm(verbs, pd, cq):
            yield verbs.create_qp(pd, cq, cq)
        """, rule="qp-leak")
    assert codes(findings) == ["XR202"]
    assert "discarded" in findings[0].message


def test_qp_leak_allows_disconnect_and_discarded_connect():
    # XrdmaContext.connect registers the channel with the context, so a
    # discarded connect() is owner-tracked — only create_qp discards flag.
    findings = lint("""
        def dial(cm, pd, cq):
            conn = yield from cm.connect(1, 7000, pd, cq, cq)
            conn.disconnect()

        def fire_and_forget(ctx):
            yield from ctx.connect(1, 7000)
        """, rule="qp-leak")
    assert findings == []


# ---------------------------------------------------------------- XR303
def test_swallowed_error_flags_bare_and_broad_except():
    findings = lint("""
        def probe(fn):
            try:
                fn()
            except:
                pass

        def probe2(fn):
            try:
                fn()
            except Exception as exc:
                log(exc)
        """, rule="swallowed-error")
    assert codes(findings) == ["XR303", "XR303"]


def test_swallowed_error_allows_narrow_or_reraising_handlers():
    findings = lint("""
        def probe(fn):
            try:
                fn()
            except ValueError:
                pass

        def probe2(fn):
            try:
                fn()
            except Exception:
                raise
        """, rule="swallowed-error")
    assert findings == []


# ---------------------------------------------------------------- XR304
def test_generator_annotated_none_flags_the_finish_rendezvous_shape():
    # The exact pre-PR-10 `_finish_rendezvous` defect: a generator whose
    # `-> None` annotation invites call sites to drop the `yield from`.
    findings = lint("""
        def _finish_rendezvous(self, seq: int) -> None:
            rendezvous = self._rendezvous.pop(seq, None)
            if rendezvous is None:
                return
            self.window.on_complete(seq)
            yield from self._post_arrival_duties()
        """, rule="generator-annotated-none")
    assert codes(findings) == ["XR304"]
    assert "_finish_rendezvous" in findings[0].message


def test_generator_annotated_none_leaves_correct_annotations_alone():
    findings = lint("""
        def fixed(self, seq: int) -> ProcessGenerator:
            yield from self._post_arrival_duties()

        def plain(self, seq: int) -> None:
            self._rendezvous.pop(seq, None)

        def unannotated(self):
            yield self.sim.timeout(5)

        def outer(self) -> None:
            def inner():
                yield 1
            return None
        """, rule="generator-annotated-none")
    assert findings == []


# ------------------------------------------------------------ suppression
def test_line_suppression_silences_one_line_only():
    src = """
        import time

        def stamp():
            a = time.time()  # xr-lint: disable=host-call
            return time.time()
        """
    findings = lint(src, rule="host-call")
    assert len(findings) == 1
    assert findings[0].line == 6


def test_file_suppression_silences_whole_file():
    findings = lint("""
        # xr-lint: disable-file=host-call
        import time

        def stamp():
            return time.time()
        """, rule="host-call")
    assert findings == []


def test_suppress_all_wildcard():
    findings = lint("""
        import time

        def stamp():
            return time.time()  # xr-lint: disable=all
        """, rule="host-call")
    assert findings == []


def test_suppression_names_are_rule_specific():
    # Disabling an unrelated rule leaves the finding in place.
    findings = lint("""
        import time

        def stamp():
            return time.time()  # xr-lint: disable=identity-order
        """, rule="host-call")
    assert len(findings) == 1


def test_comma_separated_suppression_list():
    findings = lint("""
        import time

        def stamp(channels):
            return time.time(), sorted(channels, key=id)  # xr-lint: disable=host-call, identity-order
        """)
    assert findings == []


# --------------------------------------------------------- runner plumbing
def test_path_exemptions_skip_leak_rules_under_tests():
    src = """
        def probe(memcache):
            buf = memcache.alloc(4096)
            return buf.addr
        """
    assert "memcache-leak" in PATH_RULE_EXEMPTIONS["tests"]
    inside = lint(src, path="tests/memory/test_alloc.py")
    outside = lint(src, path="src/repro/memory/probe.py")
    assert codes(inside) == []
    assert codes(outside) == ["XR201"]


def test_path_exemption_covers_qp_leak_under_tests():
    src = """
        def probe(verbs, pd, cq):
            qp = verbs.create_qp(pd, cq, cq)
            return qp.qpn
        """
    assert "qp-leak" in PATH_RULE_EXEMPTIONS["tests"]
    inside = lint(src, rule="qp-leak", path="tests/rnic/test_qp.py")
    outside = lint(src, rule="qp-leak", path="src/repro/rnic/probe.py")
    assert codes(inside) == []
    assert codes(outside) == ["XR202"]


def test_path_exemption_does_not_cover_unlisted_rules():
    # The tests/ exemption is surgical: rules outside the listed set
    # still fire on test code.
    src = """
        import time

        def stamp():
            return time.time()
        """
    assert "host-call" not in PATH_RULE_EXEMPTIONS["tests"]
    findings = lint(src, rule="host-call", path="tests/util/test_time.py")
    assert codes(findings) == ["XR101"]


def test_path_exemption_covers_exception_edge_leak_in_harness_trees():
    # A handled-exception edge while holding an allocation: flagged in
    # src/, exempt under tests/ and benchmarks/ (the harness owns
    # teardown there).
    src = """
        class OutOfMemory(Exception):
            pass

        def alloc(self, size):
            raise OutOfMemory(size)

        def retry(memory):
            try:
                yield memory.alloc(4096)
            except OutOfMemory:
                pass

        def probe(memory):
            first = memory.alloc(4096)
            second = yield memory.alloc(8192)
            return first, second
        """
    for tree in ("tests", "benchmarks"):
        assert "exception-edge-leak" in PATH_RULE_EXEMPTIONS[tree]
    inside = lint(src, rule="exception-edge-leak",
                  path="tests/memory/test_alloc.py")
    bench = lint(src, rule="exception-edge-leak",
                 path="benchmarks/test_probe.py")
    outside = lint(src, rule="exception-edge-leak",
                   path="src/repro/memory/probe.py")
    assert codes(inside) == []
    assert codes(bench) == []
    assert codes(outside) == ["XR402"]


def test_select_and_ignore_validate_rule_names():
    with pytest.raises(KeyError, match="unknown rule"):
        LintRunner(select=["no-such-rule"])
    with pytest.raises(KeyError, match="known rules"):
        LintRunner(ignore=["no-such-rule"])


def test_ignore_drops_a_rule():
    runner = LintRunner(ignore=["host-call"])
    findings = runner.run_source(
        "import time\n\n\ndef f():\n    return time.time()\n", "x.py")
    assert findings == []


def test_syntax_error_is_reported_not_raised():
    runner = LintRunner()
    findings = runner.run_source("def broken(:\n", "bad.py")
    assert findings == []
    assert len(runner.errors) == 1
    assert "syntax error" in runner.errors[0]


#: the whole catalogue: a rule appears or vanishes only with an edit here
CATALOGUE = [
    ("XR001", "stale-suppression"),
    ("XR101", "host-call"),
    ("XR103", "identity-order"),
    ("XR105", "class-counter"),
    ("XR201", "memcache-leak"),
    ("XR202", "qp-leak"),
    ("XR303", "swallowed-error"),
    ("XR304", "generator-annotated-none"),
    ("XR401", "stale-guard"),
    ("XR402", "exception-edge-leak"),
    ("XR403", "unbounded-yield-loop"),
    ("XR404", "yield-in-critical-section"),
]


def test_registry_covers_all_families():
    assert [(cls.code, cls.name) for cls in all_rules()] == CATALOGUE


def test_list_rules_shows_xr4_family():
    from repro.tools.xr_lint import list_rules
    listed = [line.split()[:2] for line in list_rules().splitlines()[1:]]
    assert listed == [[code, name] for code, name in CATALOGUE]


def test_get_rule_roundtrip_and_finding_sort():
    assert get_rule("host-call").code == "XR101"
    a = Finding("r", "XR101", "a.py", 3, 0, "m")
    b = Finding("r", "XR101", "a.py", 2, 0, "m")
    assert sorted([a, b], key=Finding.sort_key) == [b, a]

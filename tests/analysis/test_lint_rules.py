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


# ---------------------------------------------------------------- XR101
def test_wall_clock_flags_time_time():
    findings = lint("""
        import time

        def stamp():
            return time.time()
        """, rule="wall-clock")
    assert codes(findings) == ["XR101"]
    assert "sim.now" in findings[0].message


def test_wall_clock_flags_datetime_now():
    findings = lint("""
        from datetime import datetime

        def stamp():
            return datetime.now()
        """, rule="wall-clock")
    assert codes(findings) == ["XR101"]


def test_wall_clock_ignores_sim_now_and_unimported_names():
    # `time` here is a local object, not the stdlib module: no import, no
    # finding — the resolver demands the name route through an import.
    findings = lint("""
        def stamp(sim, time):
            _ = time.time()
            return sim.now
        """, rule="wall-clock")
    assert findings == []


# ---------------------------------------------------------------- XR102
def test_global_random_flags_stdlib_and_unseeded_rng():
    findings = lint("""
        import random
        import numpy as np

        def jitter():
            rng = np.random.default_rng()
            return random.uniform(0, 1) + np.random.random()
        """, rule="global-random")
    assert codes(findings) == ["XR102", "XR102", "XR102"]


def test_global_random_allows_seeded_streams():
    findings = lint("""
        import random
        import numpy as np

        def jitter(registry):
            rng = np.random.default_rng(42)
            local = random.Random(7)
            stream = registry.stream("jitter")
            return stream.uniform(0, 1)
        """, rule="global-random")
    assert findings == []


# ---------------------------------------------------------------- XR103
def test_id_order_flags_iterating_an_id_keyed_set():
    findings = lint("""
        def survivors(buffers):
            keep = {id(b) for b in buffers}
            return [k for k in sorted(keep)]
        """, rule="id-order")
    assert codes(findings) == ["XR103"]


def test_id_order_flags_for_loop_over_id_set_call():
    findings = lint("""
        def walk(buffers):
            live = set(id(b) for b in buffers)
            for key in live:
                print(key)
        """, rule="id-order")
    assert codes(findings) == ["XR103"]


def test_id_order_allows_membership_probe():
    # The MemCache.shrink pattern: an id()-keyed set used only with `in`.
    findings = lint("""
        def shrink(buffers, pinned):
            pinned_ids = {id(b) for b in pinned}
            return [b for b in buffers if id(b) not in pinned_ids]
        """, rule="id-order")
    assert findings == []


# ---------------------------------------------------------------- XR104
def test_hash_order_flags_sorting_by_identity():
    findings = lint("""
        def order(channels):
            channels.sort(key=id)
            return sorted(channels, key=lambda c: hash(c))
        """, rule="hash-order")
    assert codes(findings) == ["XR104", "XR104"]


def test_hash_order_allows_stable_keys():
    findings = lint("""
        def order(channels):
            return sorted(channels, key=lambda c: c.channel_id)
        """, rule="hash-order")
    assert findings == []


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


# ---------------------------------------------------------------- XR301
def test_blocking_call_flags_time_sleep_and_subprocess():
    findings = lint("""
        import time
        import subprocess

        def pause():
            time.sleep(1)
            subprocess.run(["true"])
        """, rule="blocking-call")
    assert codes(findings) == ["XR301", "XR301"]


def test_blocking_call_ignores_local_name_shadowing_module():
    # A local list named `requests` must not match the HTTP library.
    findings = lint("""
        def gather(sim):
            requests = []
            requests.append(1)
            yield sim.timeout(5)
        """, rule="blocking-call")
    assert findings == []


# ---------------------------------------------------------------- XR302
def test_non_event_yield_flags_bare_yield_in_process():
    findings = lint("""
        def pinger(sim):
            yield sim.timeout(5)
            yield
            yield 42
        """, rule="non-event-yield")
    assert codes(findings) == ["XR302", "XR302"]


def test_non_event_yield_leaves_data_generators_alone():
    # Not a sim process: no event-factory yields anywhere.
    findings = lint("""
        def sizes():
            yield 64
            yield 4096
        """, rule="non-event-yield")
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
            a = time.time()  # xr-lint: disable=wall-clock
            return time.time()
        """
    findings = lint(src, rule="wall-clock")
    assert len(findings) == 1
    assert findings[0].line == 6


def test_file_suppression_silences_whole_file():
    findings = lint("""
        # xr-lint: disable-file=wall-clock
        import time

        def stamp():
            return time.time()
        """, rule="wall-clock")
    assert findings == []


def test_suppress_all_wildcard():
    findings = lint("""
        import time

        def stamp():
            return time.time()  # xr-lint: disable=all
        """, rule="wall-clock")
    assert findings == []


def test_suppression_names_are_rule_specific():
    # Disabling an unrelated rule leaves the finding in place.
    findings = lint("""
        import time

        def stamp():
            return time.time()  # xr-lint: disable=global-random
        """, rule="wall-clock")
    assert len(findings) == 1


def test_comma_separated_suppression_list():
    findings = lint("""
        import time
        import random

        def stamp():
            return time.time() + random.random()  # xr-lint: disable=wall-clock, global-random
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
    assert "wall-clock" not in PATH_RULE_EXEMPTIONS["tests"]
    findings = lint(src, rule="wall-clock", path="tests/util/test_time.py")
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
    runner = LintRunner(ignore=["wall-clock"])
    findings = runner.run_source(
        "import time\n\n\ndef f():\n    return time.time()\n", "x.py")
    assert findings == []


def test_syntax_error_is_reported_not_raised():
    runner = LintRunner()
    findings = runner.run_source("def broken(:\n", "bad.py")
    assert findings == []
    assert len(runner.errors) == 1
    assert "syntax error" in runner.errors[0]


def test_registry_covers_all_families():
    by_family = {"XR0": 0, "XR1": 0, "XR2": 0, "XR3": 0, "XR4": 0}
    for cls in all_rules():
        by_family[cls.code[:3]] += 1
    assert by_family["XR0"] >= 1     # suppression audit
    assert by_family["XR1"] >= 4     # determinism
    assert by_family["XR2"] >= 2     # resource pairing
    assert by_family["XR3"] >= 3     # sim hygiene
    assert by_family["XR4"] >= 4     # flow/interprocedural
    assert sum(by_family.values()) >= 13


def test_list_rules_shows_xr4_family():
    from repro.tools.xr_lint import list_rules
    catalogue = list_rules()
    for code in ("XR401", "XR402", "XR403", "XR404"):
        assert code in catalogue


def test_get_rule_roundtrip_and_finding_sort():
    assert get_rule("wall-clock").code == "XR101"
    a = Finding("r", "XR101", "a.py", 3, 0, "m")
    b = Finding("r", "XR101", "a.py", 2, 0, "m")
    assert sorted([a, b], key=Finding.sort_key) == [b, a]

"""Per-rule fixture corpus tests.

Every rule has a *bad* fixture that must produce at least one finding (all
of that rule — no collateral noise from other rules) and a *good* fixture
showing the sanctioned idiom, which must lint clean.  The fixtures live in
``fixtures/`` (excluded from tree walks) and are linted through
``lint_source`` under a pretend path chosen so the rule's scope applies.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: (fixture stem, rule name, pretend path the fixture is linted under)
CASES = [
    ("seq_arith", "seq-arith", "src/repro/tcp/fake.py"),
    ("rng", "rng-source", "src/repro/net/fake.py"),
    ("wallclock", "wallclock", "src/repro/obs/fake.py"),
    ("set_order", "set-order", "src/repro/sim/fake.py"),
    ("sim_import", "sim-import", "src/repro/net/fake.py"),
    ("obs_passive", "obs-passive", "src/repro/obs/fake.py"),
    ("checksum_pair", "checksum-pair", "src/repro/failover/fake.py"),
    ("handler_except", "handler-except", "src/repro/failover/fake.py"),
    ("eager_trace_arg", "eager-trace-arg", "src/repro/tcp/fake.py"),
]

#: Same shape for the --semantic plane; linted with semantic=True.  The
#: pretend paths route each fixture into its rule's scope (the
#: mutation-escape corpus poses as the invariant checker, where the
#: syntactic obs-passive rule does not also apply).
SEMANTIC_CASES = [
    ("seq_taint", "seq-taint", "src/repro/tcp/fake.py"),
    ("checksum_stale", "checksum-staleness", "src/repro/failover/fake.py"),
    ("mutation_escape", "mutation-escape", "src/repro/harness/invariants.py"),
]


def _lint_fixture(stem: str, pretend_path: str, semantic: bool = False):
    source = (FIXTURES / f"{stem}.py").read_text(encoding="utf-8")
    return lint_source(source, pretend_path, semantic=semantic)


@pytest.mark.parametrize(
    "stem,rule,pretend", CASES, ids=[c[1] for c in CASES]
)
def test_bad_fixture_fails(stem, rule, pretend):
    violations = _lint_fixture(f"{stem}_bad", pretend)
    assert violations, f"{stem}_bad.py produced no findings"
    assert {v.rule for v in violations} == {rule}, [str(v) for v in violations]


@pytest.mark.parametrize(
    "stem,rule,pretend", CASES, ids=[c[1] for c in CASES]
)
def test_good_fixture_is_clean(stem, rule, pretend):
    violations = _lint_fixture(f"{stem}_good", pretend)
    assert violations == [], [str(v) for v in violations]


@pytest.mark.parametrize(
    "stem,rule,pretend", SEMANTIC_CASES, ids=[c[1] for c in SEMANTIC_CASES]
)
def test_semantic_bad_fixture_fails(stem, rule, pretend):
    violations = _lint_fixture(f"{stem}_bad", pretend, semantic=True)
    assert violations, f"{stem}_bad.py produced no findings"
    assert {v.rule for v in violations} == {rule}, [str(v) for v in violations]


@pytest.mark.parametrize(
    "stem,rule,pretend", SEMANTIC_CASES, ids=[c[1] for c in SEMANTIC_CASES]
)
def test_semantic_good_fixture_is_clean(stem, rule, pretend):
    violations = _lint_fixture(f"{stem}_good", pretend, semantic=True)
    assert violations == [], [str(v) for v in violations]


@pytest.mark.parametrize(
    "stem,rule,pretend", SEMANTIC_CASES, ids=[c[1] for c in SEMANTIC_CASES]
)
def test_semantic_bad_fixture_is_line_accurate(stem, rule, pretend):
    # Every flagged line carries a comment explaining the deliberate
    # hole; every hole line is flagged.
    source = (FIXTURES / f"{stem}_bad.py").read_text(encoding="utf-8")
    violations = _lint_fixture(f"{stem}_bad", pretend, semantic=True)
    lines = source.splitlines()
    for violation in violations:
        assert "#" in lines[violation.line - 1], (
            f"finding at undocumented line {violation.line}: {violation}"
        )


# -- targeted scope/behaviour checks ------------------------------------


def test_sim_import_holds_the_bridge_core_pure():
    core = "src/repro/failover/core.py"
    bad = _lint_fixture("sim_import_core_bad", core)
    assert {v.rule for v in bad} == {"sim-import"}
    assert len(bad) == 7, [str(v) for v in bad]  # one per import line
    assert _lint_fixture("sim_import_core_good", core) == []
    # The shell beside it may know all of that.
    assert _lint_fixture("sim_import_core_bad", "src/repro/failover/primary.py") == []


def test_sim_import_holds_the_tcp_core_pure():
    core = "src/repro/tcp/core.py"
    bad = _lint_fixture("sim_import_tcp_core_bad", core)
    assert {v.rule for v in bad} == {"sim-import"}
    assert len(bad) == 5, [str(v) for v in bad]  # one per import line
    assert _lint_fixture("sim_import_tcp_core_good", core) == []
    # The shell beside it is where the simulator is met.
    assert _lint_fixture("sim_import_tcp_core_bad", "src/repro/tcp/connection.py") == []


def test_seq_arith_exempts_seqnum_module():
    source = "def seq_add(a, b):\n    return (a + b) % 2 ** 32\n"
    assert lint_source(source, "src/repro/tcp/seqnum.py") == []
    assert lint_source(source, "src/repro/tcp/buffers.py") != []


def test_seq_arith_flags_every_bad_site():
    source = (FIXTURES / "seq_arith_bad.py").read_text(encoding="utf-8")
    violations = _lint_fixture("seq_arith_bad", "src/repro/tcp/fake.py")
    # Each function in the fixture demonstrates one distinct bad pattern.
    assert len(violations) >= source.count("def ")


def test_determinism_rules_do_not_apply_to_tests():
    source = "import random\nrng = random.Random(1234)\n"
    assert lint_source(source, "tests/net/test_fake.py") == []
    assert lint_source(source, "src/repro/net/fake.py") != []


def test_rng_rule_exempts_the_rng_module():
    source = "import random\n\n\ndef make(seed):\n    return random.Random(seed)\n"
    assert lint_source(source, "src/repro/sim/rng.py") == []


def test_sim_import_scope_is_the_deterministic_layers():
    source = "import threading\n"
    for layer in ("sim", "tcp", "failover", "net"):
        assert lint_source(source, f"src/repro/{layer}/fake.py") != [], layer
    assert lint_source(source, "src/repro/harness/fake.py") == []


def test_sim_import_forbids_the_test_tree_everywhere_under_src():
    for source in ("from tests.util import ChaosLan\n", "import tests.util\n"):
        for layer in ("harness", "adversary", "net"):
            found = lint_source(source, f"src/repro/{layer}/fake.py")
            assert [v.rule for v in found] == ["sim-import"], (source, layer)
        assert lint_source(source, "tests/failover/test_fake.py") == []


def test_obs_passive_scope_is_the_obs_plane():
    source = "def f(sim, cb):\n    sim.call_later(0.1, cb)\n"
    assert any(
        v.rule == "obs-passive"
        for v in lint_source(source, "src/repro/obs/fake.py")
    )
    # The same code is fine in the layers that own the event loop.
    assert lint_source(source, "src/repro/failover/fake.py") == []


def test_obs_passive_allows_self_mutation():
    source = (
        "class Recorder:\n"
        "    def observe(self, record):\n"
        "        self.latest = record.time\n"
    )
    assert lint_source(source, "src/repro/obs/fake.py") == []


def test_bare_except_is_flagged_even_in_tests():
    source = "try:\n    pass\nexcept:\n    pass\n"
    assert any(
        v.rule == "handler-except"
        for v in lint_source(source, "tests/tcp/test_fake.py")
    )


def test_swallowed_exception_is_src_only():
    source = "try:\n    pass\nexcept Exception:\n    pass\n"
    assert lint_source(source, "tests/tcp/test_fake.py") == []
    assert lint_source(source, "src/repro/tcp/fake.py") != []


def test_eager_trace_arg_scope_and_deferred_forms():
    eager = "def f(self, ip):\n    self.tracer.emit(self.now, 'x', 'n', ip=str(ip))\n"
    assert [v.rule for v in lint_source(eager, "src/repro/net/fake.py")] == [
        "eager-trace-arg"
    ]
    # Outside the sim layers (the harness, obs, tests) formatting is free.
    assert lint_source(eager, "src/repro/harness/fake.py") == []
    assert lint_source(eager, "tests/net/test_fake.py") == []
    deferred = (
        "def f(self, ip, port):\n"
        "    self.tracer.emit(self.now, 'x', 'n', ip=ip.__str__,\n"
        "                     to=lambda: f'{ip}:{port}')\n"
    )
    assert lint_source(deferred, "src/repro/net/fake.py") == []


def test_eager_trace_arg_pragma_escape():
    source = (
        "def f(self, ip):\n"
        "    self.tracer.emit(self.now, 'x', 'n', ip=str(ip))"
        "  # replint: allow(eager-trace-arg) -- fires once per run\n"
    )
    assert lint_source(source, "src/repro/net/fake.py") == []

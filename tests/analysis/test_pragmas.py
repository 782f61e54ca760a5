"""Pragma machinery: aliases, malformed forms, file-allow scope, and
interaction of pragmas with the semantic rules."""

from repro.analysis import lint_source
from repro.analysis.engine import PRAGMA_ALIASES, parse_pragmas

SRC = "src/repro/tcp/fake.py"

LAUNDERED = (
    "def f(conn):\n"
    "    edge = conn.snd_una\n"
    "    return edge + 1{pragma}\n"
)


def _rules(violations):
    return sorted(v.rule for v in violations)


# -- aliases -------------------------------------------------------------


def test_alias_table_targets_real_rule_names():
    from repro.analysis.rules import ALL_RULES, SEMANTIC_RULES

    names = {cls.name for cls in ALL_RULES + SEMANTIC_RULES}
    for alias, target in PRAGMA_ALIASES.items():
        assert target in names, f"alias {alias!r} -> unknown rule {target!r}"


def test_alias_resolves_in_allow_list():
    pragmas, problems = parse_pragmas(
        "x = 1  # replint: allow(rng) -- fixture\n", SRC
    )
    assert problems == []
    assert pragmas[0].rules == ("rng-source",)


def test_alias_and_full_name_mix():
    pragmas, _ = parse_pragmas(
        "x = 1  # replint: allow(seq, wallclock) -- fixture\n", SRC
    )
    assert pragmas[0].rules == ("seq-arith", "wallclock")


# -- malformed pragmas ---------------------------------------------------


def test_missing_parens_is_unparseable():
    violations = lint_source("x = 1  # replint: allow seq-arith\n", SRC)
    assert _rules(violations) == ["pragma"]
    assert "unparseable" in violations[0].message


def test_unknown_directive_is_unparseable():
    violations = lint_source("x = 1  # replint: disable(seq-arith)\n", SRC)
    assert _rules(violations) == ["pragma"]


def test_empty_rule_list_is_unparseable():
    violations = lint_source("x = 1  # replint: allow()\n", SRC)
    assert _rules(violations) == ["pragma"]


def test_missing_reason_is_reported_but_still_suppresses():
    source = "def f(seq):\n    return seq + 1  # replint: allow(seq-arith)\n"
    violations = lint_source(source, SRC)
    # The seq-arith finding is suppressed; the reasonless pragma is the
    # only finding left.
    assert _rules(violations) == ["pragma"]
    assert "justification" in violations[0].message


# -- pragmas against semantic rules --------------------------------------


def test_line_pragma_suppresses_semantic_rule():
    source = LAUNDERED.format(
        pragma="  # replint: allow(seq-taint) -- fixture"
    )
    assert lint_source(source, SRC, semantic=True) == []


def test_file_allow_suppresses_semantic_rule_everywhere():
    source = (
        "# replint: file-allow(seq-taint) -- fixture\n"
        + LAUNDERED.format(pragma="")
        + "\n"
        "\n"
        "def g(conn):\n"
        "    mark = conn.rcv_nxt\n"
        "    return mark - 1\n"
    )
    assert lint_source(source, SRC, semantic=True) == []


def test_unused_pragma_detected_for_semantic_rule():
    source = "x = 1  # replint: allow(seq-taint) -- nothing here\n"
    violations = lint_source(source, SRC, semantic=True)
    assert _rules(violations) == ["pragma"]
    assert "unused" in violations[0].message


def test_semantic_finding_without_semantic_flag_stays_silent():
    source = LAUNDERED.format(pragma="")
    assert lint_source(source, SRC) == []
    assert _rules(lint_source(source, SRC, semantic=True)) == ["seq-taint"]

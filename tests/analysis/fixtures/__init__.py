# Deliberately-bad/good corpus for the repro.analysis rules.  The lint
# engine's tree walker skips directories named `fixtures`, so the bad
# files here never fail the self-host run; tests feed them through
# LintEngine.lint_sources with a pretend path to pick the rule scope.

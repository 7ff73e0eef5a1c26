"""tools/outcomes.py: its classification of three named inputs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import outcomes  # noqa: E402  (tools/ is not a package)


def test_item_1_c10_input_is_degraded_and_visibly_wrong():
    o = outcomes.classify((10, 9.855924690991543, 0.8434899039445973, 1.7897671539116908,
                           0.31205625598920195))
    assert (o.outcome, o.warned, o.visibly_wrong) == ("degraded", True, True)
    assert 0.7 < o.max_residual < 0.9           # 0.78; F goes down to -0.85


def test_c9_m2_input_raises_singular():
    o = outcomes.classify((9, 1.200856216319999, 0.8819399004191555, 1.0127699548607099, 1.0))
    assert o == ("Singular", None, False, False)


def test_worked_example_is_clean():
    o = outcomes.classify((2, 2.0, 0.75, 1.12, 0.45))
    assert (o.outcome, o.warned, o.visibly_wrong) == ("clean", False, False)
    assert o.max_residual <= outcomes.CLEAN

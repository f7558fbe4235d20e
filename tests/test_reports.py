import json
import math

import numpy as np

from green3.reports import ResidualReport, check_row, worst

ROW_KEYS = {"check", "params", "residual", "tolerance", "passed", "wall_time_s", "details"}


def test_a_json_row_holds_exactly_the_check_result_fields():
    rows = [check_row("a", {"z": [1.0, 2j]}, 1e-9, 1e-8, note=np.float64(0.5)),
            check_row("b", {}, float("nan"), 1e-8)]
    doc = json.loads(ResidualReport(rows).to_json())
    assert [set(row) for row in doc["checks"]] == [ROW_KEYS, ROW_KEYS]
    assert doc["checks"][0]["params"] == {"z": [1.0, {"re": 0.0, "im": 2.0}]}
    assert doc["checks"][0]["details"] == {"note": 0.5}
    assert doc["checks"][1]["residual"] == "nan" and doc["checks"][1]["passed"] is False


def test_worst_reduces_arrays_of_any_shape_and_iterables_alike():
    values = np.array([[1e-9, 3e-9], [2e-9, 0.0]])
    assert worst(values) == worst(values.flat) == worst(v for v in values.flat) == 3e-9
    values[1, 1] = np.nan  # one NaN entry makes it NaN; Python's max would drop it
    assert math.isnan(worst(values))
    assert math.isnan(worst(list(values.flat)))

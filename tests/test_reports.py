import json
import math
import random
from dataclasses import replace

import numpy as np

from green3.interval_model import abstract_identity_suite
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


def test_check_row_stores_json_native_params_and_details():
    row = check_row("a", {"z": 1 + 2j, "m": np.int64(3), "pair": (np.float64(0.5), 1)}, 0.0, 1.0,
                    value=np.complex128(3 - 1j), modes=np.arange(2), flag=np.bool_(True))
    assert row.params == {"z": {"re": 1.0, "im": 2.0}, "m": 3, "pair": [0.5, 1]}
    assert row.details == {"value": {"re": 3.0, "im": -1.0}, "modes": [0, 1], "flag": True}
    natives = [row.params["m"], *row.params["pair"], *row.details["modes"], row.details["flag"]]
    assert [type(v) for v in natives] == [int, float, int, int, int, bool]


def test_a_report_orders_its_rows_whatever_order_they_come_in():
    rows = abstract_identity_suite([1j, 2j, 0.5 + 1j], 0.5, 2.0).without_timing().checks
    shuffled = random.Random(0).sample(rows, len(rows))
    assert shuffled != rows
    report, again = ResidualReport(rows), ResidualReport(shuffled)
    assert again.checks == rows
    assert again.to_json(command="interval") == report.to_json(command="interval")
    assert again.to_csv() == report.to_csv()


def test_without_timing_zeroes_every_wall_time_and_keeps_the_rows_in_order():
    report = abstract_identity_suite([1j, 2j], 0.5, 2.0)
    assert any(row.wall_time_s > 0.0 for row in report.checks)
    # an order the sort would not give: the copy keeps it, so it is not sorted again
    report.checks = random.Random(1).sample(report.checks, len(report.checks))
    rows = list(report.checks)
    bare = report.without_timing()
    assert all(row.wall_time_s == 0.0 for row in bare.checks)
    assert [replace(row, wall_time_s=0.0) for row in rows] == bare.checks
    assert report.checks == rows

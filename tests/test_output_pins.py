"""Every command's table, pinned byte for byte at small sizes.

The CSV texts pin the one writer's format: header first, a float cell to 6
significant digits, compare's z to 4, an error row's cells "nan". The JSON
pins hold the rows (and dimension's whole payload) without the version keys
every payload carries.
"""

import json

import pytest

from crancost.cli import main

CSV_PINS = {
    "evaluate": (
        ["evaluate", "--architecture", "dran"],
        """\
term,per_data_center
equipment_backhaul,291667
processing,55504.9
capacity_dc,55926.9
infra_dc,17216.4
equipment_bs,433371
capacity_bs_backhaul,45561.1
infra_bs_backhaul,230227
capacity_user_bs,24.4314
infra_user_bs,3682.08
c_phi3,1.13318e+06
total_per_km2,3.39954e+06
""",
    ),
    "sweep": (
        ["sweep", "--axis", "sigma2", "--values", "-1 0.5", "--architectures", "dran,cloud_ran@0.4db"],
        """\
axis,value,architecture,gamma_offset_db,total_per_km2,equipment,capacity,infrastructure,processing
sigma2,-1,dran,0,nan,nan,nan,nan,nan
sigma2,-1,cloud_ran@0.4db,0.4,nan,nan,nan,nan,nan
sigma2,0.5,dran,0,3.39954e+06,2.17511e+06,304537,753378,166515
sigma2,0.5,cloud_ran@0.4db,0.4,2.83401e+06,1.661e+06,304534,770046,98435
""",
    ),
    "compare": (
        ["compare", "--reps", "6", "--window", "3"],
        """\
term,closed_form,empirical,std_error,z,pass,reps_to_1pct
equipment_backhaul,291667,276543,6933.81,-2.181,True,34
processing,37037.3,37263.2,938.935,0.2406,True,39
capacity_dc,55926.9,62621.2,6112.8,1.095,True,717
infra_dc,17216.4,16095.7,543.64,-2.062,True,60
equipment_bs,216686,205833,8379.95,-1.295,True,90
capacity_bs_backhaul,45561.1,50886.9,4054.28,1.314,True,476
infra_bs_backhaul,230227,262462,16703.4,1.93,True,316
capacity_user_bs,24.4314,27.1591,3.79935,0.7179,True,1452
infra_user_bs,3682.08,3934.67,266.853,0.9466,True,316
c_phi3,898028,915668,23961.9,0.7362,True,43
""",
    ),
    "complexity": (
        ["complexity", "--n-mc", "500", "--pool-sizes", "1 5", "--offsets", "0 0.4"],
        """\
gamma_offset_db,n_cloud,pooled_per_station,distributed_per_station,pooled_servers,distributed_servers
0,1,9.29873,9.29873,0.183069,0.183069
0,5,6.38186,9.29873,0.628214,0.915344
0.4,1,8.03601,8.03601,0.158209,0.158209
0.4,5,5.01826,8.03601,0.493985,0.791044
""",
    ),
}

_ERROR = "parameter: sigma2 must be > 0, got -1.0"
_BREAKDOWN = {
    "capacity_bs_backhaul": 45561.1,
    "capacity_dc": 55926.9,
    "equipment_backhaul": 291667.0,
    "infra_dc": 17216.4,
}

JSON_ROW_PINS = {
    "sweep": [
        {"architecture": "dran", "axis": "sigma2", "error": _ERROR, "gamma_offset_db": 0.0, "value": -1.0},
        {"architecture": "cloud_ran@0.4db", "axis": "sigma2", "error": _ERROR, "gamma_offset_db": 0.4, "value": -1.0},
        {
            "architecture": "dran",
            "axis": "sigma2",
            "breakdown": {
                **_BREAKDOWN,
                "capacity_user_bs": 24.4314,
                "equipment_bs": 433371.0,
                "infra_bs_backhaul": 230227.0,
                "infra_user_bs": 3682.08,
                "processing": 55504.9,
            },
            "gamma_offset_db": 0.0,
            "total_per_km2": 3399540.0,
            "value": 0.5,
        },
        {
            "architecture": "cloud_ran@0.4db",
            "axis": "sigma2",
            "breakdown": {
                **_BREAKDOWN,
                "capacity_user_bs": 23.2408,
                "equipment_bs": 222000.0,
                "infra_bs_backhaul": 235874.0,
                "infra_user_bs": 3592.16,
                "processing": 32811.7,
            },
            "gamma_offset_db": 0.4,
            "total_per_km2": 2834010.0,
            "value": 0.5,
        },
    ],
    "complexity": [
        {
            "distributed_per_station": 9.298728518049128,
            "distributed_servers": 0.1830687176990922,
            "gamma_offset_db": 0.0,
            "n_cloud": 1,
            "pooled_per_station": 9.298728518049128,
            "pooled_servers": 0.1830687176990922,
        },
        {
            "distributed_per_station": 9.298728518049128,
            "distributed_servers": 0.9153435884954612,
            "gamma_offset_db": 0.0,
            "n_cloud": 5,
            "pooled_per_station": 6.3818591110216385,
            "pooled_servers": 0.6282142562411925,
        },
        {
            "distributed_per_station": 8.036006519804216,
            "distributed_servers": 0.1582088783586455,
            "gamma_offset_db": 0.4,
            "n_cloud": 1,
            "pooled_per_station": 8.036006519804216,
            "pooled_servers": 0.1582088783586455,
        },
        {
            "distributed_per_station": 8.036006519804216,
            "distributed_servers": 0.7910443917932277,
            "gamma_offset_db": 0.4,
            "n_cloud": 5,
            "pooled_per_station": 5.018259412731188,
            "pooled_servers": 0.4939849109407264,
        },
    ],
}

VERSION_KEYS = ("tool_version", "numpy_version", "scipy_version")


@pytest.mark.parametrize("command", sorted(CSV_PINS))
def test_csv_text_is_pinned(tmp_path, command):
    argv, text = CSV_PINS[command]
    out = tmp_path / "table.csv"
    assert main([*argv, "--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()


@pytest.mark.parametrize("command", sorted(JSON_ROW_PINS))
def test_json_rows_are_pinned(tmp_path, command):
    out = tmp_path / "table.json"
    assert main([*CSV_PINS[command][0], "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rows"] == JSON_ROW_PINS[command]


def test_dimension_json_is_pinned(tmp_path):
    out = tmp_path / "dim.json"
    assert main(["dimension", "--lambda0", "170", "--gamma-offset-db", "0.4", "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    payload = {k: v for k, v in json.loads(text).items() if k not in VERSION_KEYS}
    assert payload == {
        "gamma_offset_db": 0.4,
        "lambda0": 170.0,
        "lambda1": 51.23070387199999,
        "spectral_efficiency_target": 1.09792,
    }

"""Every example must run cleanly and produce its headline output.

These are end-user smoke tests: each example script is executed as a
subprocess (the way a reader of the README would run it) and its output is
checked for the results it promises.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_example(name: str, timeout: int = 240, **env_vars: str) -> str:
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout}\n{result.stderr}"
    )
    return result.stdout


def test_examples_directory_complete():
    scripts = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
    assert scripts == [
        "encrypted_network.py",
        "multitag_inventory.py",
        "nlos_warehouse.py",
        "power_budget.py",
        "quickstart.py",
        "sensor_network.py",
        "waveform_microscope.py",
    ]


def test_quickstart():
    out = run_example("quickstart.py")
    assert "recovered tag message: 'temperature=23.5C'" in out
    assert "effective rate" in out


def test_sensor_network():
    out = run_example("sensor_network.py", PYTHONHASHSEED="1")
    assert "polling all sensors" in out
    assert out.count("moisture=") >= 4
    assert "LOST" not in out
    # The polling table is a function of the example's seeds alone, not
    # of the interpreter's per-process string-hash salt.
    again = run_example("sensor_network.py", PYTHONHASHSEED="2")

    def polling_table(text: str) -> str:
        return text.split("polling all sensors")[1].split("transferring")[0]

    assert polling_table(again) == polling_table(out)


def test_nlos_warehouse():
    out = run_example("nlos_warehouse.py")
    assert "location A" in out and "location B" in out
    assert "90th pct" in out


def test_encrypted_network():
    out = run_example("encrypted_network.py")
    assert "wpa2-ccmp" in out
    assert "delivered 'badge=4711;door=open'" in out
    assert "MIC failure" in out
    assert "FAILED" not in out


def test_power_budget():
    out = run_example("power_budget.py")
    assert "WiTAG" in out
    assert "oscillator" in out
    assert "ring-20MHz" in out


def test_multitag_inventory():
    out = run_example("multitag_inventory.py")
    assert "addressed inventory round" in out
    assert "garbled by collision" in out


def test_waveform_microscope():
    out = run_example("waveform_microscope.py")
    assert "tag flipped" in out
    assert "16-QAM" in out and "BPSK" in out


@pytest.mark.parametrize(
    "args,expect",
    [
        (["power"], "battery-free"),
        (["compare"], "WiTAG"),
        (["throughput"], "Kbps"),
    ],
)
def test_cli_subprocess(args, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0
    assert expect in result.stdout

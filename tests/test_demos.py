import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; the demos print their elapsed times on stderr
STDOUT_SHA256 = {
    "01_family_and_search.py": "3112c5050baeb6921267a1f9f548bce31c0396b0fdc22bc1caa982a3d43b47dd",
    "02_golden_ratio_brackets.py": "9a2cdccbe81999cba706c80db24b6774dd9d7f687ff8c275f0a2f0ddba78a76f",
    "03_curve_certificates.py": "3c966bb67b3dbe06bc8c066f45d54432cb3248933e218516c19271f33df27bbc",
    "04_census_and_intersections.py": "a5105c3c93c9646fddf34b6396903ff02468f8b2df1fd49078ff939fce22fac5",
    "05_branch_data.py": "ae28ae571ade7c44d86f36d27eee1915222479c7ad89f76068a4cccc87c19b25",
    "06_far_search.py": "4f869229ce577d18353c8a4d8d8c7d560145b02805f6e069655f0dd83a731e03",
    "07_certificate_table.py": "a4718e5eba8021084aebb9c019f8d2096d3801ddbb07d80874337da669729c97",
}


def test_demos_are_found():
    # an empty glob would parametrize the test below away silently, and every demo is pinned
    assert [p.name for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name], proc.stdout

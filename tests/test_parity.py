"""Every output of the parity grid keeps its bits: see ``tests/parity_grid.py``."""
import json

from parity_grid import GOLDEN, grid, moved, ulp_bound


def test_parity_grid_matches_golden_file():
    golden = json.loads(GOLDEN.read_text())
    shifted = moved(golden, grid())
    assert not shifted, f"{len(shifted)} keys moved, first {shifted[:10]}"


def test_bounds_cover_only_named_families():
    golden = json.loads(GOLDEN.read_text())
    bounded = [key for key in golden if ulp_bound(key)]
    assert bounded and all(any(tag in key for tag in ("student_t", "kde", "gpd", "joint")) for key in bounded)
    assert not ulp_bound("estimate/gaussian_unbiased/es/n=40/alpha=0.05/scale=1")

import hashlib
import re

from widthlab.svg import render_plot


def digest(series):
    return hashlib.sha256(render_plot(series, title="fixed").encode()).hexdigest()


def test_drops_nonpositive_points():
    # (0, 2.0) and (4, -0.1) cannot sit on log axes; the digest was recorded
    # before the linear-axis branches were deleted.
    series = [("decay", [0, 1, 2, 4, 8], [2.0, 1.0, 0.5, -0.1, 0.125]), ("upper", [1, 2, 4, 8], [2.0, 1.0, 0.5, 0.25])]
    polylines = re.findall(r'<polyline points="([^"]*)"', render_plot(series))
    assert [len(points.split()) for points in polylines] == [3, 4]
    assert digest(series) == "570c366d371d943ed765431aac95ecda027df1cdc529fc737f51817eaf349643"


def test_widens_a_constant_series():
    series = [("flat", [2, 4, 8], [0.3, 0.3, 0.3])]
    assert digest(series) == "233469e26df4a8ba7e1702eba2d7206c2e1260ed8b93e8ea82465808f01b7b70"


def test_drops_non_finite_points():
    # A fit of n = 0.5, 1, 8, ... writes nan and inf at n = 0.5 and 1.
    finite = [("fitted", [8, 16, 32], [0.48, 0.36, 0.29])]
    series = [("fitted", [0.5, 1, 8, 16, 32], [float("nan"), float("inf"), 0.48, 0.36, 0.29])]
    assert digest(series) == digest(finite)

from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def minute_bars_path() -> Path:
    """Static finam-style fixture: 6 trading days around a crafted crash
    at 2014-12-15 13:00, semicolon delimited, bracketed headers."""
    return DATA_DIR / "minute_bars.csv"


@pytest.fixture
def golden_report_path() -> Path:
    return DATA_DIR / "golden_report.json"


@pytest.fixture
def golden_collapse_report_path() -> Path:
    return DATA_DIR / "golden_collapse_report.json"


@pytest.fixture
def golden_series_path() -> Path:
    return DATA_DIR / "golden_series.csv"

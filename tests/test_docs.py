import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the one ```python block of the README, run as written
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    (rate, iterations), (residual, projected) = (
        line.split() for line in out.getvalue().splitlines()
    )
    assert float(rate) > 0.0 and float(projected) > 0.0
    assert int(iterations) >= 1
    assert math.isfinite(float(residual)) and float(residual) >= 0.0

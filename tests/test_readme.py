import re
from pathlib import Path

from torusdyn import IntegerMatrix

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_gives_the_values_its_comments_state():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    assert namespace["count_fixed"](namespace["phi"], 2) == 5
    assert namespace["m"] == 2
    # 1 - i in the basis where multiplication by i is [[0, -1], [1, 0]]
    assert namespace["hat"].matrix == IntegerMatrix.from_rows([[1, 1], [-1, 1]])

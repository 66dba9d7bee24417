"""Source documents for test fixtures: a pmf or joint as the JSON object
``formats`` parses, and writing one to a file.

The library only reads these shapes; no verb emits them, so their
writers live with the tests that build fixtures from them.
"""

from stopkey.formats import dumps, format_rational
from stopkey.probability import JointPmf, Pmf


def pmf_document(p: Pmf) -> dict:
    return {
        "alphabet": list(p.labels),
        "pmf": [format_rational(m) for m in p.masses],
    }


def joint_document(j: JointPmf) -> dict:
    return {
        "x_labels": list(j.x_labels),
        "y_labels": list(j.y_labels),
        "joint": [[format_rational(j.mass_by_label(x, y)) for y in j.y_labels] for x in j.x_labels],
    }


def write_document(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))

"""The classical A2 quiver data, shared between test modules.

Relators are written in the traditional numbering (1 = longest element,
2 = s1s2, 3 = s2s1, 4 = s1, 5 = s2, 6 = identity); a path like (252) means
vertex 2 to vertex 5 and back to vertex 2.
"""

import re
from fractions import Fraction

from oquiver.quiver import vertex_ids

RELATORS_A2 = """
(121), (131),
(242), (252) + (212),
(353), (343) + (313),
(243) + (213), (253) + (213),
(352) + (312), (342) + (312),
(124) + (134), (125) + (135),
(246) + (256), (346) + (356),
(421) + (431), (521) + (531),
(464) - (424), (565) - (535),
(425) + (435) + (465), (524) + (534) + (564),
(642) + (652), (643) + (653)
"""


def parse_appendix_relators(q, text=RELATORS_A2):
    """Parse "(121), (252) + (212), ..." into path-keyed relator dicts
    (appendix ids)."""
    ids = vertex_ids(q, appendix_numbering=True)
    to_idx = {vid: k for k, vid in enumerate(ids)}
    relators = []
    for chunk in re.split(r",(?![^(]*\))", text.replace("\n", " ")):
        terms = {}
        for sign, digits in re.findall(r"([+-]?)\s*\((\d{3})\)", chunk):
            y, z, w = (to_idx[int(d)] for d in digits)
            terms[(y, 0, z, 0, w)] = Fraction(-1 if sign == "-" else 1)
        if terms:
            relators.append(terms)
    return relators

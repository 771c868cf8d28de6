"""JSON text of the output files, in the standard library only.

``rates.json``, ``certificates.json`` and saved instances are all rendered
here, so ``egtan verify-certificates`` writes its file without numpy.
"""

from __future__ import annotations

import json


def _render_json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, without the pure-Python encoder.

    With ``indent`` the stdlib encodes every value in Python.  Here a list of
    floats goes through the C encoder in one call and is split at ``", "``,
    which no float's repr contains; dicts and other lists recurse.  Keys and
    scalars go through ``json.dumps``, so NaN, escapes and ``ensure_ascii``
    match.  ``indent`` is the newline and indentation of ``obj``'s own line.
    """
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = indent + "  "
    if isinstance(obj, dict):
        body = ("," + inner).join(
            # a non-string key is written as its JSON scalar, quoted
            json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": " + _render_json(v, inner)
            for k, v in obj.items()
        )
        return "{" + inner + body + indent + "}"
    if all(isinstance(x, float) for x in obj):
        body = json.dumps(obj)[1:-1].replace(", ", "," + inner)
    else:
        body = ("," + inner).join(_render_json(v, inner) for v in obj)
    return "[" + inner + body + indent + "]"

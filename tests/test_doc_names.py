"""Every double-backticked private name in the package's source exists.

A comment or docstring that cites ``_name`` or ``owner._name`` must name an
attribute of an hlcd4 module, or of a class defined in one, so a helper
that is deleted or renamed cannot live on in the prose around it.
"""

import importlib
import inspect
import re
from pathlib import Path

import hlcd4

SRC = Path(hlcd4.__file__).parent
MODULES = {"hlcd4": hlcd4}
MODULES.update(
    (path.stem, importlib.import_module(f"hlcd4.{path.stem}"))
    for path in sorted(SRC.glob("*.py"))
    if path.stem != "__init__"
)
OWNERS = dict(MODULES)
OWNERS.update(
    (name, cls)
    for module in MODULES.values()
    for name, cls in inspect.getmembers(module, inspect.isclass)
    if cls.__module__.startswith("hlcd4")
)
# ``_name`` or ``owner._name``, and the span may go on (a call's arguments);
# a lone ``_`` is a literal.
CITED = re.compile(r"``(?:(\w+)\.)?(_\w+)")


def test_cited_private_names_exist():
    cited, missing = 0, []
    for path in sorted(SRC.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for owner, name in CITED.findall(line):
                cited += 1
                owners = [OWNERS[owner]] if owner in OWNERS else OWNERS.values()
                if not any(hasattr(o, name) for o in owners):
                    missing.append(f"{path.name}:{lineno}: {owner + '.' if owner else ''}{name}")
    assert cited > 20
    assert missing == []

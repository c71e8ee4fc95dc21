import importlib
import inspect
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def layout_rows():
    """(module name, [backticked names]) for each row of README's "Library
    layout" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        m = re.fullmatch(r"\| `(treealpha\.\w+)` \| (.*) \|", line)
        if m:
            rows.append((m.group(1), re.findall(r"`([^`]+)`", m.group(2))))
    return rows


def test_library_layout_names_exist_in_their_modules():
    rows = layout_rows()
    assert len(rows) >= 12, rows
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        classes = [
            c
            for c in vars(module).values()
            if inspect.isclass(c) and c.__module__ == module_name
        ]
        for name in names:
            # A dataclass field is an attribute of its instances, not of the
            # class, so the class's fields count too.
            found = hasattr(module, name) or any(
                hasattr(c, name) or name in getattr(c, "__dataclass_fields__", ())
                for c in classes
            )
            assert found, f"README names `{name}` in {module_name}, which has no such name"

"""The public repro.api surface: docstrings, examples, README consistency."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.api as api

README = Path(__file__).resolve().parents[2] / "README.md"


class TestAllExports:
    def test_every_all_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_dir_covers_all(self):
        assert set(api.__all__) <= set(dir(api))

    @pytest.mark.parametrize("name", sorted(api.__all__))
    def test_every_export_has_docstring_with_example(self, name):
        symbol = getattr(api, name)
        if not hasattr(symbol, "__doc__") or isinstance(symbol, (str, int)):
            # module-level constants (FORMAT_NAME/FORMAT_VERSION) are
            # documented by #: comments in their defining module instead
            return
        doc = symbol.__doc__ or ""
        assert len(doc.strip()) > 20, f"{name} has no real docstring"
        assert "Example" in doc or ">>>" in doc or "::" in doc, (
            f"{name}'s docstring has no usage example"
        )

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            api.definitely_not_a_symbol


class TestReadmeConsistency:
    """__all__ must cover every repro.api symbol the README references."""

    def _readme_api_names(self) -> set[str]:
        text = README.read_text(encoding="utf-8")
        names = set(re.findall(r"repro\.api\.([A-Za-z_]\w*)", text))
        for imports in re.findall(
            r"from repro\.api import ([A-Za-z_, ]+)", text
        ):
            names.update(n.strip() for n in imports.split(",") if n.strip())
        return names

    def test_readme_references_are_exported(self):
        referenced = self._readme_api_names()
        assert referenced, "README no longer mentions repro.api — update this test"
        missing = {
            name for name in referenced
            if name not in api.__all__ and not hasattr(api, name)
        }
        assert not missing, (
            f"README references repro.api symbols not exported: {sorted(missing)}"
        )

    def test_quickstart_symbols_exported(self):
        # the README quickstart's exact surface, spelled out
        for name in ("load_model", "save_model", "get_backend",
                     "list_backends", "Backend", "Estimator", "ModelFormatError"):
            assert name in api.__all__

"""Tests for the storage-format registry."""

import pytest

from repro.formats import (
    BCSRCOOFormat,
    CSRFormat,
    SparseFormat,
    available_formats,
    format_class,
    get_format,
    register_format,
)
from repro.formats.registry import _REGISTRY, format_index


class TestRegistry:
    def test_registration_order_is_stable(self):
        """Fault-campaign RNG seeds depend on these exact indices."""
        assert available_formats() == ("dense", "csr", "sdc", "ddc", "bitmap", "bcsrcoo")

    def test_format_index_matches_order(self):
        for i, name in enumerate(available_formats()):
            assert format_index(name) == i

    def test_get_format_returns_fresh_instances(self):
        assert get_format("csr") is not get_format("csr")
        assert isinstance(get_format("bcsrcoo"), BCSRCOOFormat)

    def test_get_format_passes_constructor_kwargs(self):
        assert get_format("sdc", group_rows=4).group_rows == 4

    def test_unknown_name_rejected_everywhere(self):
        for fn in (format_class, get_format, format_index):
            with pytest.raises(ValueError, match="unknown storage format"):
                fn("coo")

    def test_reregistering_same_class_is_idempotent(self):
        assert register_format(CSRFormat) is CSRFormat
        assert format_class("csr") is CSRFormat

    def test_name_conflict_rejected(self):
        class ImpostorCSR(SparseFormat):
            name = "csr"

            def _layout(self, occupancy, spec):  # pragma: no cover
                raise NotImplementedError

            def _gather(self, dense, tables):  # pragma: no cover
                raise NotImplementedError

            def decode(self, encoded):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            register_format(ImpostorCSR)

    def test_unnamed_class_rejected(self):
        class Nameless(SparseFormat):
            def _layout(self, occupancy, spec):  # pragma: no cover
                raise NotImplementedError

            def _gather(self, dense, tables):  # pragma: no cover
                raise NotImplementedError

            def decode(self, encoded):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="no usable name"):
            register_format(Nameless)

    def test_decorator_registration(self):
        try:

            @register_format
            class TestOnlyFormat(SparseFormat):
                name = "test-only"

                def _layout(self, occupancy, spec):  # pragma: no cover
                    raise NotImplementedError

                def _gather(self, dense, tables):  # pragma: no cover
                    raise NotImplementedError

                def decode(self, encoded):  # pragma: no cover
                    raise NotImplementedError

            assert "test-only" in available_formats()
            assert format_class("test-only") is TestOnlyFormat
        finally:
            _REGISTRY.pop("test-only", None)
        assert "test-only" not in available_formats()

"""The compiled base64 decode of ``SubmitBody.parse`` against the stdlib path.

``SubmitBody.parse`` decodes ``data_b64`` with the cjit support unit's
strict decoder straight into the grid, and falls back to the stdlib
lines for every input the decoder refuses.  Each case here parses the
same body twice: as shipped, and with the support unit monkeypatched
away, which is the stdlib path alone.  Valid bodies must give
bit-identical grids; mutated ones the same ``ErrorCode`` and message.
"""

from __future__ import annotations

import base64
import json
import string
import tracemalloc

import numpy as np
import pytest

from repro.jit import cc
from repro.serve import ErrorCode, SubmitBody, WireError
from repro.serve import wire
from tests.serve.gateway.conftest import grid

needs_compiler = pytest.mark.skipif(
    not cc.available(), reason="no C compiler on PATH"
)


def _outcome(raw: bytes, max_bytes: int | None = None):
    try:
        body = SubmitBody.parse(raw, max_bytes=max_bytes)
    except WireError as exc:
        return ("error", exc.code, str(exc))
    data = body.data
    return (
        "ok",
        data.shape,
        data.dtype.str,
        data.flags.c_contiguous and data.flags.writeable,
        data.tobytes(),
    )


def both_paths(monkeypatch, raw: bytes, max_bytes: int | None = None):
    """(outcome as shipped, outcome with the support unit away)."""
    shipped = _outcome(raw, max_bytes)
    with monkeypatch.context() as m:
        m.setattr(cc, "support", lambda: None)
        stdlib = _outcome(raw, max_bytes)
    return shipped, stdlib


def body_with(shape, precision: str, data_b64: str) -> bytes:
    return json.dumps(
        {"shape": list(shape), "precision": precision, "data_b64": data_b64}
    ).encode()


def valid_text(seed: int, shape, precision: str) -> str:
    return base64.b64encode(grid(seed, shape, precision).tobytes()).decode()


def _replace(text: str, pos: int, char: str) -> str:
    return text[:pos] + char + text[pos + 1 :]


def mutations(text: str, rng: np.random.Generator) -> dict[str, str]:
    """Named corruptions of a valid base64 text (at least 8 characters)."""
    pos = int(rng.integers(0, len(text) - 2))
    return {
        "non-alphabet": _replace(text, pos, str(rng.choice(list("!-_.*@~")))),
        "space-in-place": _replace(text, pos, " "),
        "space-inserted": text[:pos] + " " + text[pos:],
        "newline": text[:pos] + "\n" + text[pos:],
        "trailing-newline": text + "\n",
        "equals-mid-string": _replace(text, pos, "="),
        "x===": text[:-4] + "x===",
        "cut-1": text[:-1],
        "cut-2": text[:-2],
        "cut-3": text[:-3],
        "non-ascii": _replace(text, pos, "é"),
        "one-quad-short": text[:-4],
        "one-quad-long": text + "AAAA",
        "empty": "",
        "padding-only": "=" * len(text),
        # Same text length, one pad character more or fewer: a decoded
        # length one byte off the shape's.
        "pad-changed": text[:-1] + ("A" if text.endswith("=") else "="),
    }


class TestValidBodies:
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("seed", range(12))
    def test_grids_are_bit_identical_to_the_stdlib_path(
        self, monkeypatch, seed, precision
    ):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, 8, 3))
        shipped, stdlib = both_paths(
            monkeypatch, body_with(shape, precision, valid_text(seed, shape, precision))
        )
        assert shipped[0] == "ok"
        assert shipped == stdlib

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_every_padding_count(self, monkeypatch, precision, pad):
        itemsize = 8 if precision == "single" else 16
        points = next(n for n in (3, 4, 5) if -(n * itemsize) % 3 == pad)
        shape = (points, 1, 1)
        text = valid_text(points, shape, precision)
        assert len(text) - len(text.rstrip("=")) == pad
        shipped, stdlib = both_paths(monkeypatch, body_with(shape, precision, text))
        assert shipped[0] == "ok" and shipped == stdlib

    def test_unused_low_bits_of_the_last_digit_are_ignored(self, monkeypatch):
        # A one-pad quad decodes 16 of its 18 bits: flipping the last
        # digit's two low bits changes no decoded byte.
        shape = (4, 1, 1)
        text = valid_text(0, shape, "single")
        assert text.endswith("=") and not text.endswith("==")
        alphabet = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
        flipped = alphabet[alphabet.index(text[-2]) ^ 0b11]
        shipped, stdlib = both_paths(
            monkeypatch, body_with(shape, "single", text[:-2] + flipped + "=")
        )
        assert shipped[0] == "ok" and shipped == stdlib
        assert shipped == _outcome(body_with(shape, "single", text))

    @needs_compiler
    def test_valid_bodies_never_reach_the_stdlib_decoder(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("stdlib base64 decoder called")

        monkeypatch.setattr(wire.base64, "b64decode", refuse)
        for precision in ("single", "double"):
            x = grid(3, (8, 4, 5), precision)
            raw = SubmitBody(shape=(8, 4, 5), data=x, precision=precision).encode()
            body = SubmitBody.parse(raw)
            np.testing.assert_array_equal(body.data, x)
            assert body.data.dtype.isnative

    @needs_compiler
    def test_decoder_refuses_an_output_it_cannot_write_in_place(self):
        unit = cc.support()
        text = base64.b64encode(bytes(16)).decode()
        with pytest.raises(ValueError, match="C-contiguous"):
            unit.b64decode_into(text, np.empty(4, np.complex64)[::2])
        frozen = np.empty(2, np.complex64)
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="C-contiguous"):
            unit.b64decode_into(text, frozen)
        assert unit.b64decode_into(text, np.ones(2, np.complex64))


class TestMutatedBodies:
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("seed", range(6))
    def test_same_code_and_message_as_the_stdlib_path(
        self, monkeypatch, seed, precision
    ):
        rng = np.random.default_rng(1000 + seed)
        shape = tuple(int(n) for n in rng.integers(1, 6, 3))
        text = valid_text(seed, shape, precision)
        for name, bad in mutations(text, rng).items():
            shipped, stdlib = both_paths(monkeypatch, body_with(shape, precision, bad))
            assert shipped == stdlib, name
            assert shipped[0] == "error", name
            assert shipped[1] is ErrorCode.BAD_REQUEST, name

    def test_length_that_does_not_match_the_shape(self, monkeypatch):
        text = valid_text(0, (4, 4, 4), "single")
        for shape in [(4, 4, 3), (4, 4, 5), (2, 2, 2)]:
            shipped, stdlib = both_paths(monkeypatch, body_with(shape, "single", text))
            assert shipped == stdlib
            assert shipped[1] is ErrorCode.BAD_REQUEST
            assert "needs exactly" in shipped[2]


class TestHugeShapes:
    def test_short_body_with_huge_shape_allocates_no_grid(self, monkeypatch):
        # 1024^3 complex64 is 8 GiB: the body's length rules out decoding.
        raw = body_with((1024, 1024, 1024), "single", "")
        tracemalloc.start()
        try:
            shipped = _outcome(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shipped[1] is ErrorCode.BAD_REQUEST
        assert peak < 1 << 20
        assert both_paths(monkeypatch, raw)[1] == shipped

    @pytest.mark.parametrize("max_bytes", [None, 1 << 20])
    def test_overflowing_shape_is_a_typed_rejection(self, monkeypatch, max_bytes):
        # 2**120 points wrap to 0 bytes in int64; Python ints do not.
        raw = body_with((2**40, 2**40, 2**40), "single", "")
        shipped, stdlib = both_paths(monkeypatch, raw, max_bytes)
        assert shipped == stdlib
        expected = (
            ErrorCode.BAD_REQUEST if max_bytes is None
            else ErrorCode.PAYLOAD_TOO_LARGE
        )
        assert shipped[1] is expected
        assert str(2**120 * 8) in shipped[2]

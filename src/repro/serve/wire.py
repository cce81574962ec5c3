"""Wire protocol of the FFT gateway: typed bodies and their JSON codec.

Everything that crosses the HTTP boundary is a frozen dataclass with an
explicit ``encode``/``parse`` pair, so the wire format is a checked
contract rather than whatever ``json.dumps`` happens to emit:

* :class:`SubmitBody` — ``POST /v1/fft``: the grid (raw little-endian
  complex bytes, base64) plus the scheduling envelope (precision, norm,
  direction, priority, deadline, and — on responses/round-trips only —
  the tenant, which on ingress the gateway *always* derives from auth
  headers, never from the body).
* :class:`AcceptedBody` — the 202 answer: job id and queue telemetry.
* :class:`StatusBody` — ``GET /v1/jobs/{id}``: queue state plus the
  dispatch telemetry the future carries once it resolves.
* :class:`ErrorBody` — every non-2xx answer: a stable
  :class:`~repro.serve.codes.ErrorCode`, a human message, and the
  retry hint mirrored in the ``Retry-After`` header.

Parsing is strict and total: any body that does not round-trip through
these models raises :class:`WireError` carrying the ``bad_request`` /
``payload_too_large`` code the gateway answers with — malformed input is
a *typed* rejection like every other, not a stack trace.  The grid's
base64 is decoded by the cjit support unit straight into the array
where it can be, and by the stdlib otherwise; every refusal takes the
stdlib path, so both give the same grids and the same errors.  Results
travel as raw ``application/octet-stream`` bytes (no base64 tax) with
the array geometry in ``X-FFT-Shape`` / ``X-FFT-Dtype`` headers;
:func:`encode_array` / :func:`decode_array` are the two ends of that
path and the seeded codec property suite pins their round-trip.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from repro.fft.normalization import NORMS
from repro.jit import cc
from repro.serve.codes import ErrorCode

__all__ = [
    "WireError",
    "SubmitBody",
    "AcceptedBody",
    "StatusBody",
    "ErrorBody",
    "DTYPES",
    "encode_array",
    "decode_array",
]

#: Wire dtype per plan precision (little-endian, C order on the wire).
DTYPES = {"single": np.dtype("<c8"), "double": np.dtype("<c16")}

#: Job states a :class:`StatusBody` may report.
JOB_STATES = ("queued", "done", "failed")


class WireError(Exception):
    """A body the wire contract rejects (malformed or oversized).

    Carries the :class:`~repro.serve.codes.ErrorCode` the gateway
    answers with — ``bad_request`` for anything that fails to parse or
    validate, ``payload_too_large`` when a declared shape or payload
    exceeds the configured byte bound.
    """

    def __init__(self, message: str, code: ErrorCode = ErrorCode.BAD_REQUEST):
        super().__init__(message)
        self.code = code


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WireError(message)


def encode_array(x: np.ndarray) -> bytes:
    """Raw little-endian C-order bytes of a complex grid (result bodies)."""
    arr = np.ascontiguousarray(x)
    wire_dtype = arr.dtype.newbyteorder("<")
    return arr.astype(wire_dtype, copy=False).tobytes()


def decode_array(
    payload: bytes, shape: tuple[int, int, int], dtype: np.dtype
) -> np.ndarray:
    """Rebuild a grid from :func:`encode_array` bytes; strict on length."""
    expected = math.prod(shape) * dtype.itemsize
    _require(
        len(payload) == expected,
        f"payload is {len(payload)} bytes; shape {tuple(shape)} at "
        f"{dtype.name} needs exactly {expected}",
    )
    native = np.dtype(dtype.kind + str(dtype.itemsize))
    return (
        np.frombuffer(payload, dtype=dtype).astype(native, copy=True).reshape(shape)
    )


def _decode_b64_grid(
    data_b64: str, shape: tuple[int, int, int], dtype: np.dtype, grid_bytes: int
) -> np.ndarray | None:
    """The grid decoded by the compiled strict base64 decoder, or None.

    The decoder writes straight into the native-order grid, so neither
    the intermediate payload ``bytes`` nor :func:`decode_array`'s copy
    exists.  None sends the caller down the stdlib path, which then
    accepts the body or raises its own error text: on a big-endian
    host, without the cjit support unit, and for every input the
    decoder refuses.  The grid is allocated only once the text's length
    is exactly the one ``grid_bytes`` encode to, so a short body
    declaring a huge shape allocates nothing.
    """
    if sys.byteorder != "little" or len(data_b64) != 4 * -(-grid_bytes // 3):
        return None
    unit = cc.support()
    if unit is None:
        return None
    out = np.empty(shape, np.dtype(dtype.kind + str(dtype.itemsize)))
    return out if unit.b64decode_into(data_b64, out) else None


def _parse_json_object(raw: bytes, what: str) -> dict:
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"{what} is not valid UTF-8 JSON: {exc}") from None
    _require(isinstance(body, dict), f"{what} must be a JSON object")
    return body


@dataclass(frozen=True)
class SubmitBody:
    """One ``POST /v1/fft`` submission, fully validated.

    ``tenant`` is carried for round-trips and echoes; on ingress the
    gateway overwrites it with the identity derived from auth headers —
    a client cannot claim another tenant's quota from the body.
    """

    shape: tuple[int, int, int]
    data: np.ndarray
    precision: str = "single"
    norm: str = "backward"
    inverse: bool = False
    priority: int = 0
    deadline_s: float | None = None
    tenant: str | None = None

    def encode(self) -> bytes:
        """The canonical JSON bytes of this submission."""
        body = {
            "shape": list(self.shape),
            "precision": self.precision,
            "norm": self.norm,
            "inverse": self.inverse,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "data_b64": base64.b64encode(encode_array(self.data)).decode("ascii"),
        }
        if self.tenant is not None:
            body["tenant"] = self.tenant
        return json.dumps(body, sort_keys=True).encode("utf-8")

    @classmethod
    def parse(cls, raw: bytes, max_bytes: int | None = None) -> "SubmitBody":
        """Parse and validate a submission body (raises :class:`WireError`).

        ``max_bytes`` bounds the *decoded grid* size: a shape whose
        payload cannot fit is refused with ``payload_too_large`` before
        any decode work happens.
        """
        body = _parse_json_object(raw, "submit body")
        known = {
            "shape", "precision", "norm", "inverse",
            "priority", "deadline_s", "data_b64", "tenant",
        }
        unknown = sorted(set(body) - known)
        _require(not unknown, f"unknown fields: {unknown}")

        shape_raw = body.get("shape")
        _require(
            isinstance(shape_raw, list)
            and len(shape_raw) == 3
            and all(isinstance(n, int) and not isinstance(n, bool) for n in shape_raw)
            and all(n > 0 for n in shape_raw),
            "shape must be a list of 3 positive integers",
        )
        shape = tuple(int(n) for n in shape_raw)

        precision = body.get("precision", "single")
        _require(
            precision in DTYPES,
            f"precision must be one of {sorted(DTYPES)}, got {precision!r}",
        )
        norm = body.get("norm", "backward")
        _require(
            norm in NORMS, f"norm must be one of {list(NORMS)}, got {norm!r}"
        )
        inverse = body.get("inverse", False)
        _require(isinstance(inverse, bool), "inverse must be a boolean")
        priority = body.get("priority", 0)
        _require(
            isinstance(priority, int) and not isinstance(priority, bool),
            "priority must be an integer",
        )
        deadline_s = body.get("deadline_s")
        if deadline_s is not None:
            _require(
                isinstance(deadline_s, (int, float))
                and not isinstance(deadline_s, bool)
                and math.isfinite(deadline_s)
                and deadline_s > 0,
                "deadline_s must be a positive finite number (or null)",
            )
            deadline_s = float(deadline_s)
        tenant = body.get("tenant")
        _require(
            tenant is None or (isinstance(tenant, str) and tenant),
            "tenant must be a non-empty string when given",
        )

        dtype = DTYPES[precision]
        grid_bytes = math.prod(shape) * dtype.itemsize
        if max_bytes is not None and grid_bytes > max_bytes:
            raise WireError(
                f"shape {shape} at {precision} precision is {grid_bytes} "
                f"bytes; this gateway accepts at most {max_bytes}",
                code=ErrorCode.PAYLOAD_TOO_LARGE,
            )

        data_b64 = body.get("data_b64")
        _require(isinstance(data_b64, str), "data_b64 must be a base64 string")
        data = _decode_b64_grid(data_b64, shape, dtype, grid_bytes)
        if data is None:
            try:
                payload = base64.b64decode(data_b64.encode("ascii"), validate=True)
            except (UnicodeEncodeError, binascii.Error, ValueError) as exc:
                raise WireError(f"data_b64 is not valid base64: {exc}") from None
            data = decode_array(payload, shape, dtype)

        return cls(
            shape=shape,
            data=data,
            precision=precision,
            norm=norm,
            inverse=inverse,
            priority=priority,
            deadline_s=deadline_s,
            tenant=tenant,
        )


@dataclass(frozen=True)
class AcceptedBody:
    """The 202 answer to a submission: the job handle plus queue telemetry."""

    job_id: str
    tenant: str
    plan: str
    queue_depth: int

    def encode(self) -> bytes:
        """The canonical JSON bytes of this acceptance."""
        return json.dumps(asdict(self), sort_keys=True).encode("utf-8")

    @classmethod
    def parse(cls, raw: bytes) -> "AcceptedBody":
        """Parse a 202 body (raises :class:`WireError` when malformed)."""
        body = _parse_json_object(raw, "accepted body")
        try:
            return cls(
                job_id=str(body["job_id"]),
                tenant=str(body["tenant"]),
                plan=str(body["plan"]),
                queue_depth=int(body["queue_depth"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"accepted body missing/invalid field: {exc}") from None


@dataclass(frozen=True)
class StatusBody:
    """One job's observable state (``GET /v1/jobs/{id}``).

    ``state`` is ``queued`` until the future resolves, then ``done`` or
    ``failed``; the error fields mirror the :class:`ErrorBody` the
    result endpoint would answer with, so a poller never needs a second
    request to learn *why* a job failed.
    """

    job_id: str
    state: str
    tenant: str
    plan: str
    batch_id: int | None = None
    batch_size: int = 0
    worker: int = 0
    requeues: int = 0
    faulted: bool = False
    queue_wait_s: float = 0.0
    error_code: str | None = None
    error_message: str | None = None

    def encode(self) -> bytes:
        """The canonical JSON bytes of this status."""
        return json.dumps(asdict(self), sort_keys=True).encode("utf-8")

    @classmethod
    def parse(cls, raw: bytes) -> "StatusBody":
        """Parse a status body (raises :class:`WireError` when malformed)."""
        body = _parse_json_object(raw, "status body")
        state = body.get("state")
        _require(
            state in JOB_STATES,
            f"state must be one of {list(JOB_STATES)}, got {state!r}",
        )
        try:
            return cls(
                job_id=str(body["job_id"]),
                state=state,
                tenant=str(body["tenant"]),
                plan=str(body["plan"]),
                batch_id=body.get("batch_id"),
                batch_size=int(body.get("batch_size", 0)),
                worker=int(body.get("worker", 0)),
                requeues=int(body.get("requeues", 0)),
                faulted=bool(body.get("faulted", False)),
                queue_wait_s=float(body.get("queue_wait_s", 0.0)),
                error_code=body.get("error_code"),
                error_message=body.get("error_message"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"status body missing/invalid field: {exc}") from None


@dataclass(frozen=True)
class ErrorBody:
    """Every non-2xx answer: stable code, human message, retry hint."""

    code: ErrorCode
    message: str
    retry_after_s: float | None = None

    def encode(self) -> bytes:
        """The canonical JSON bytes of this error."""
        body = {"code": str(self.code), "message": self.message}
        if self.retry_after_s is not None:
            body["retry_after_s"] = self.retry_after_s
        return json.dumps(body, sort_keys=True).encode("utf-8")

    @classmethod
    def parse(cls, raw: bytes) -> "ErrorBody":
        """Parse an error body (raises :class:`WireError` when malformed)."""
        body = _parse_json_object(raw, "error body")
        try:
            code = ErrorCode(body["code"])
        except (KeyError, ValueError):
            raise WireError(
                f"error body carries no known code: {body.get('code')!r}"
            ) from None
        message = body.get("message")
        _require(isinstance(message, str), "error message must be a string")
        retry = body.get("retry_after_s")
        _require(
            retry is None
            or (isinstance(retry, (int, float)) and not isinstance(retry, bool)),
            "retry_after_s must be a number when given",
        )
        return cls(
            code=code,
            message=message,
            retry_after_s=None if retry is None else float(retry),
        )

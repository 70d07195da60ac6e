"""Transport-independent HTTP API dispatch for the campaign service.

:func:`dispatch` maps ``(method, target, body)`` onto service calls
and renders ``(status, headers, body bytes)`` — the asyncio server is a
thin socket loop around it, and tests can drive the full API without a
socket.

Routes::

    POST   /jobs              submit a job spec       -> 201 record
    GET    /jobs[?tenant=t]   list jobs               -> 200 {"jobs": []}
    GET    /jobs/<id>         one job record          -> 200 record
    GET    /jobs/<id>/events[?after=N]  correlated event stream
                                                      -> 200 NDJSON
    DELETE /jobs/<id>         cancel                  -> 200 record
    GET    /metrics           Prometheus exposition   -> 200 text
    GET    /metrics?format=json   metrics document    -> 200 JSON
    GET    /healthz           liveness + job counts   -> 200 JSON

The events endpoint returns one JSON object per line (NDJSON), each
carrying ``seq`` plus the job's (tenant, job, shard, seed)
correlation ids; ``?after=N`` resumes past the last ``seq`` a client
has seen, so polling the endpoint while a job runs observes its event
stream live and loss-free.

Every error is a typed :class:`~repro.errors.ServiceError`: the status
code comes from ``http_status``, the body is the error's ``to_dict``
form (so clients can rebuild the typed exception with ``from_dict``),
and errors carrying ``retry_after`` — the 429/503 backpressure family —
additionally produce a ``Retry-After`` header.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import InvalidJobSpec, ServiceError, UnknownJob
from repro.obs.metrics import to_prometheus

Response = Tuple[int, List[Tuple[str, str]], bytes]

_REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            409: "Conflict", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


def reason_phrase(status: int) -> str:
    return _REASONS.get(status, "Unknown")


def _json_response(status: int, payload: Any,
                   extra_headers: List[Tuple[str, str]] = []) -> Response:
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n") \
        .encode("utf-8")
    headers = [("Content-Type", "application/json")] + extra_headers
    return status, headers, body


def _error_response(exc: ServiceError) -> Response:
    headers: List[Tuple[str, str]] = []
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        headers.append(("Retry-After", f"{retry_after:g}"))
    return _json_response(exc.http_status, {"error": exc.to_dict()},
                          headers)


def _parse_body(body: bytes) -> Any:
    if not body:
        raise InvalidJobSpec("request body is empty", field="body")
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise InvalidJobSpec(f"request body is not valid JSON: {exc}",
                             field="body") from None


def dispatch(service, method: str, target: str,
             body: bytes = b"") -> Response:
    """Route one request; never raises — every failure renders as a
    typed JSON error response."""
    try:
        return _route(service, method.upper(), target, body)
    except ServiceError as exc:
        return _error_response(exc)
    except Exception as exc:  # noqa: BLE001 — last-resort 500
        return _json_response(500, {"error": {
            "type": type(exc).__name__, "message": str(exc),
            "fields": {}}})


def _route(service, method: str, target: str, body: bytes) -> Response:
    parts = urlsplit(target)
    path = parts.path.rstrip("/") or "/"
    query: Dict[str, List[str]] = parse_qs(parts.query)

    if path == "/healthz":
        if method != "GET":
            return _method_not_allowed(method, path)
        return _json_response(200, service.healthz())

    if path == "/metrics":
        if method != "GET":
            return _method_not_allowed(method, path)
        document = service.metrics()
        if query.get("format", ["prometheus"])[0] == "json":
            return _json_response(200, document)
        text = to_prometheus(document).encode("utf-8")
        return 200, [("Content-Type",
                      "text/plain; version=0.0.4")], text

    if path == "/jobs":
        if method == "POST":
            record = service.submit(_parse_body(body))
            return _json_response(201, record.to_dict())
        if method == "GET":
            tenant = query.get("tenant", [None])[0]
            return _json_response(200, {
                "jobs": [record.to_dict()
                         for record in service.list_jobs(tenant)]})
        return _method_not_allowed(method, path)

    if path.startswith("/jobs/") and path.endswith("/events"):
        job_id = path[len("/jobs/"):-len("/events")]
        if not job_id or "/" in job_id:
            raise UnknownJob(job_id)
        if method != "GET":
            return _method_not_allowed(method, path)
        after = _parse_after(query)
        lines = [json.dumps(entry, sort_keys=True)
                 for entry in service.job_events(job_id, after=after)]
        body = ("\n".join(lines) + ("\n" if lines else "")) \
            .encode("utf-8")
        return 200, [("Content-Type", "application/x-ndjson")], body

    if path.startswith("/jobs/"):
        job_id = path[len("/jobs/"):]
        if "/" in job_id:
            raise UnknownJob(job_id)
        if method == "GET":
            return _json_response(200, service.get(job_id).to_dict())
        if method == "DELETE":
            return _json_response(200,
                                  service.cancel(job_id).to_dict())
        return _method_not_allowed(method, path)

    return _json_response(404, {"error": {
        "type": "NotFound", "message": f"no route for {path}",
        "fields": {}}})


def _parse_after(query: Dict[str, List[str]]) -> int:
    raw = query.get("after", ["0"])[0]
    try:
        return int(raw)
    except ValueError:
        raise InvalidJobSpec(
            f"expected an integer cursor, got {raw!r}",
            field="after") from None


def _method_not_allowed(method: str, path: str) -> Response:
    return _json_response(405, {"error": {
        "type": "MethodNotAllowed",
        "message": f"{method} not allowed on {path}", "fields": {}}})

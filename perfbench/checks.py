"""Correctness checks on what the server answered.

Two kinds, both outside any timed region:

* :func:`structural_problems` runs on every measured response: status
  in the workload's expected set, JSON envelope agreeing with the HTTP
  status, chunked homepage complete, gzip decoding, and a 304 carrying
  no body and naming the ETag the client sent.
* :func:`digest` is the byte-exact check of the single-connection
  verification replay: status plus sha256 of the decoded body, compared
  with the digest file committed under ``perfbench/digests``.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from typing import Iterable, List, Optional, Tuple

from perfbench.client import Response


def decoded_body(response: Response) -> bytes:
    """The body with its content coding removed (raises on bad gzip)."""
    if response.headers.get("content-encoding", "").lower() != "gzip":
        return response.body
    decoder = zlib.decompressobj(wbits=31)
    data = decoder.decompress(response.body)
    if not decoder.eof or decoder.unused_data:
        raise ValueError("gzip stream incomplete or followed by garbage")
    return data


def digest(response: Response) -> Tuple[int, str]:
    """(status, sha256 of the decoded body) — the verification record."""
    return response.status, hashlib.sha256(decoded_body(response)).hexdigest()


def structural_problems(
    response: Response,
    expected: Iterable[int],
    sent_etag: Optional[str] = None,
) -> List[str]:
    """Everything wrong with one measured response (empty when fine)."""
    problems = []
    status = response.status
    if response.error is not None:
        return [f"transport: {response.error}"]
    if status not in tuple(expected):
        problems.append(f"unexpected status {status}")
    if status == 304:
        if response.body:
            problems.append("304 with a body")
        if sent_etag is None:
            problems.append("304 to an unconditional request")
        elif response.headers.get("etag") != sent_etag:
            problems.append(
                f"304 names ETag {response.headers.get('etag')!r}, "
                f"client sent {sent_etag!r}"
            )
        return problems
    if not response.complete:
        problems.append("chunked body truncated")
    try:
        body = decoded_body(response)
    except (ValueError, zlib.error) as exc:
        return problems + [f"body does not decode: {exc}"]
    ctype = response.headers.get("content-type", "")
    if ctype.startswith("text/html"):
        if not body.rstrip().endswith(b"</html>"):
            problems.append("HTML document incomplete")
    elif ctype.startswith("application/json"):
        try:
            envelope = json.loads(body)
        except ValueError as exc:
            return problems + [f"body is not JSON: {exc}"]
        if envelope.get("ok") is not (status == 200):
            problems.append(f"envelope ok={envelope.get('ok')!r} on {status}")
        if envelope.get("status") != status:
            problems.append(
                f"envelope status {envelope.get('status')!r} on {status}"
            )
    else:
        problems.append(f"unexpected content type {ctype!r}")
    return problems

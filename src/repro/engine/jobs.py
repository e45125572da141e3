"""Job model for the batch-verification engine.

A *job* is the smallest independent unit of the paper's workflow: one
(transformation × feasible type assignment) refinement check (§3.1.2 at
one model of the §3.2 typing constraints).  Jobs carry everything a
worker process needs as plain data — the transformation in its printed
surface syntax (parse → print round-trips by construction), the index
of the type assignment in enumeration order, and the configuration
knobs — so they cross the ``multiprocessing`` boundary without
pickling AST or solver objects.

Every job has a stable *content-addressed key*: the SHA-256 of

* the transformation body, printed with a normalized name (so renaming
  a rule does not invalidate its cached verdicts);
* the canonical signature of the type assignment (sorted
  ``var=type`` pairs);
* every :class:`~repro.core.config.Config` knob (any of them can
  change a verdict);
* the engine's *semantics fingerprint* (see :mod:`repro.engine.cache`),
  which versions the verifier implementation itself.

Two jobs with equal keys are guaranteed to produce the same outcome,
which is what makes the persistent cache sound and lets the scheduler
deduplicate identical work within a batch.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from ..core.config import Config
from ..core.verifier import VerificationResult, decompose
from ..ir import ast
from ..ir.printer import transformation_str


class JobSpec:
    """One per-type-assignment refinement job, ready to schedule.

    Attributes:
        key: content-addressed cache key (SHA-256 hex digest).
        name: the transformation's user-facing name (for reporting).
        text: the transformation in parseable surface syntax.
        index: position of the type assignment in enumeration order.
        signature: canonical string form of the type assignment.
        knobs: the Config knobs as plain data.
    """

    __slots__ = ("key", "name", "text", "index", "signature", "knobs")

    def __init__(self, key: str, name: str, text: str, index: int,
                 signature: str, knobs: dict):
        self.key = key
        self.name = name
        self.text = text
        self.index = index
        self.signature = signature
        self.knobs = knobs

    def payload(self) -> dict:
        """The picklable worker payload (no derived/reporting fields)."""
        return {"key": self.key, "text": self.text, "index": self.index,
                "knobs": self.knobs}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "JobSpec(%s#%d, %s)" % (self.name, self.index, self.key[:12])


def normalized_text(t: ast.Transformation) -> str:
    """Printed form with the ``Name:`` header normalized away.

    The name is reporting metadata: two rules with identical bodies are
    the same verification problem, so they share cache entries.
    """
    lines = transformation_str(t).split("\n")
    if lines and lines[0].startswith("Name:"):
        lines[0] = "Name: _"
    return "\n".join(lines)


def assignment_signature(mapping: Dict[str, object]) -> str:
    """Canonical ``var=type`` signature of one type assignment."""
    return ",".join(
        "%s=%s" % (var, mapping[var]) for var in sorted(mapping)
    )


def job_key(body: str, signature: str, knobs: dict, fingerprint: str) -> str:
    """The content-addressed key of one job."""
    blob = json.dumps(
        {
            "body": body,
            "assignment": signature,
            "knobs": knobs,
            "fingerprint": fingerprint,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TransformationPlan:
    """The decomposition of one transformation into jobs.

    ``early`` is a finished :class:`VerificationResult` when the
    transformation never reaches refinement checking (scoping or typing
    rejection); otherwise ``jobs`` lists one :class:`JobSpec` per
    feasible type assignment, in enumeration order.
    """

    __slots__ = ("transformation", "early", "jobs")

    def __init__(self, transformation: ast.Transformation,
                 early: Optional[VerificationResult],
                 jobs: List[JobSpec]):
        self.transformation = transformation
        self.early = early
        self.jobs = jobs


def plan_transformation(
    t: ast.Transformation,
    config: Config,
    fingerprint: str,
) -> TransformationPlan:
    """Decompose one transformation into content-addressed jobs."""
    early, _checker, mappings = decompose(t, config)
    if early is not None:
        return TransformationPlan(t, early, [])
    text = transformation_str(t)
    body = normalized_text(t)
    knobs = config.to_dict()
    jobs = []
    for index, mapping in enumerate(mappings):
        signature = assignment_signature(mapping)
        jobs.append(JobSpec(
            key=job_key(body, signature, knobs, fingerprint),
            name=t.name,
            text=text,
            index=index,
            signature=signature,
            knobs=knobs,
        ))
    return TransformationPlan(t, None, jobs)

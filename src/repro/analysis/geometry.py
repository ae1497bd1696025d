"""The MajorCAN frame-end geometry, derived and checked.

Section 5 derives each constant of MajorCAN_m from worst-case error
budgets.  This module restates that derivation as executable
invariants, so the geometry the implementation declares
(:func:`repro.can.geometry.frame_end`, which the controllers, the
encoder and the batch replay all read) can never silently drift from
the design argument:

* a node whose error flag starts at the first EOF bit (CRC class) must
  never be first detected inside the second sub-field, even when
  ``m - 1`` errors delay its detection — hence the first sub-field has
  **m bits**;
* the first detector may sit at bit ``m``; with ``m - 1`` delaying
  errors the second node detects at bit ``2m`` at the latest and must
  still be inside the acceptance region — hence the second sub-field
  also has **m bits**;
* with a single error, the notifier's regular 6-bit flag would end at
  bit ``m + 7`` — the first sampled bit; ``m - 1`` further errors can
  corrupt samples, so the sampler needs ``2m - 1`` samples with
  majority ``m``, placing the last sample (and the extended-flag end)
  at bit ``3m + 5``;
* the error delimiter must mirror the frame tail (ACK delimiter +
  EOF = ``2m + 1`` recessive bits) for resynchronisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.can.geometry import frame_end
from repro.errors import AnalysisError


@dataclass(frozen=True)
class GeometryCheck:
    """One named invariant of the frame-end geometry."""

    name: str
    holds: bool
    detail: str

    def __str__(self) -> str:
        return "%-42s %s  (%s)" % (self.name, "ok" if self.holds else "FAIL", self.detail)


def derive_geometry(m: int) -> dict:
    """The Section 5 constants as functions of m."""
    if m < 3:
        raise AnalysisError("MajorCAN needs m >= 3")
    return {
        "first_subfield_bits": m,
        "second_subfield_bits": m,
        "eof_bits": 2 * m,
        "window_start": m + 7,
        "window_end": 3 * m + 5,
        "window_samples": 2 * m - 1,
        "majority": m,
        "delimiter_bits": 2 * m + 1,
        "frame_tail_recessive_bits": 1 + 2 * m,  # ACK delimiter + EOF
    }


def verify_geometry(m: int) -> List[GeometryCheck]:
    """Check the implementation and the design argument for one m."""
    derived = derive_geometry(m)
    declared = frame_end("majorcan", m)
    checks = [
        GeometryCheck(
            "implementation matches derived EOF length",
            declared.eof_length == derived["eof_bits"],
            "eof=%d" % declared.eof_length,
        ),
        GeometryCheck(
            "implementation matches derived window",
            (declared.window_start, declared.window_end)
            == (derived["window_start"], derived["window_end"]),
            "window=[%d, %d]" % (declared.window_start, declared.window_end),
        ),
        GeometryCheck(
            "implementation matches derived majority",
            declared.majority == derived["majority"],
            "majority=%d of %d" % (declared.majority, derived["window_samples"]),
        ),
        GeometryCheck(
            "delimiter mirrors the frame tail",
            declared.delimiter_length == derived["frame_tail_recessive_bits"],
            "delimiter=%d" % declared.delimiter_length,
        ),
        # --- the worst-case error-budget arguments themselves ---
        GeometryCheck(
            "CRC-class flag cannot reach the second sub-field",
            # Flag starts at EOF bit 1; detection delayed by at most
            # m-1 errors lands at bit 1 + (m-1) = m <= first sub-field.
            1 + (m - 1) <= derived["first_subfield_bits"],
            "worst detection at bit %d" % (1 + (m - 1)),
        ),
        GeometryCheck(
            "worst-delayed second detector stays in sub-field 2",
            # First detector at bit m; second sees the flag at m+1,
            # delayed by up to m-1 errors: bit 2m at the latest.
            (m + 1) + (m - 1) <= derived["eof_bits"],
            "worst detection at bit %d" % ((m + 1) + (m - 1)),
        ),
        GeometryCheck(
            "window starts where a regular flag would end",
            # Detection at m+1 -> 6-bit flag over bits m+2 .. m+7.
            derived["window_start"] == (m + 1) + 6,
            "first sample at bit %d" % derived["window_start"],
        ),
        GeometryCheck(
            "window tolerates m-1 corrupted samples",
            derived["window_samples"] - (m - 1) >= derived["majority"],
            "%d samples, %d corruptible" % (derived["window_samples"], m - 1),
        ),
        GeometryCheck(
            "latest extender still covers its own notification",
            # Acceptance detected at bit 2m -> extended flag starts at
            # 2m+1, which must not pass the window end.
            2 * m + 1 <= derived["window_end"],
            "latest flag start at bit %d" % (2 * m + 1),
        ),
        GeometryCheck(
            "earliest extender covers the whole window",
            # Acceptance detected at bit m+1 -> flag from m+2 onwards
            # covers every sampled bit.
            m + 2 <= derived["window_start"],
            "earliest flag start at bit %d" % (m + 2),
        ),
        # --- the finding-F1 arithmetic (see EXPERIMENTS.md) ---
        GeometryCheck(
            "desync channel closed (flag at ACK+6 in sub-field 1)",
            # A desynchronised receiver's stuff violation arrives six
            # bits after the dominant ACK slot: flag at EOF bit 6.
            6 <= derived["first_subfield_bits"],
            "flag at EOF bit 6 vs first sub-field of %d"
            % derived["first_subfield_bits"],
        ),
    ]
    return checks


def geometry_report(m: int) -> str:
    """Human-readable geometry report for one m."""
    lines = ["MajorCAN_%d frame-end geometry:" % m]
    for key, value in derive_geometry(m).items():
        lines.append("  %-28s %d" % (key, value))
    lines.append("invariants:")
    for check in verify_geometry(m):
        lines.append("  " + str(check))
    return "\n".join(lines)

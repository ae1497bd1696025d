"""The paper's protocol modifications: MinorCAN and MajorCAN_m."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "majorcan": (
            "DEFAULT_M", "MajorCanController", "STATE_MAJOR_EXTENDED_FLAG", "STATE_MAJOR_FLAG",
            "STATE_MAJOR_QUIET",
        ),
        "minorcan": ("MinorCanController",),
    },
)
